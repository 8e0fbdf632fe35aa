"""Statistics of simulated populations and their predicted limits.

The empirical measure puts a unit point at -log mass in the component of
each fragment's type.  From it we evaluate the additive martingale, the
law-of-large-numbers and central-limit functionals (mass-weighted averages
of a test function of the rescaled log masses), largest-fragment decay
rates, and windowed fragment counts whose growth rate and type profile the
spectral data predicts.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InvalidArgument,
    InvalidWindow,
    LatticeJumpSizes,
    NoConvergence,
    NotIrreducible,
    ThetaAboveCritical,
)
from .measures import FragmentationSpec, irreducibility_check, jump_sizes
from .simulate import Snapshot
from .spectral import SpectralData


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Per-type lists of point locations -log X_n(t)."""

    t: float
    locations: tuple[np.ndarray, ...]

    def count(self) -> int:
        return sum(len(loc) for loc in self.locations)


def empirical_measure(snapshot: Snapshot, k: int | None = None) -> EmpiricalMeasure:
    """Locations -log mass grouped by fragment type (live and frozen alike)."""
    if k is None:
        k = int(snapshot.types.max()) if snapshot.types.size else 1
    locs = -np.log(snapshot.masses)
    return EmpiricalMeasure(
        t=snapshot.t,
        locations=tuple(locs[snapshot.types == j] for j in range(1, k + 1)))


def biggins_martingale(snapshot: Snapshot, sd: SpectralData, *,
                       theta_bar: float | None = None) -> float:
    """M(theta, t) = e^(t phi) sum_n v[type_n] mass_n^(theta+1).

    Above the critical exponent the formula still evaluates, but the
    martingale no longer converges to a nondegenerate limit; passing
    ``theta_bar`` turns that case into a warning.  An e^(t phi) beyond the
    float range raises NoConvergence.
    """
    if theta_bar is not None and sd.theta >= theta_bar:
        warnings.warn(f"theta = {sd.theta} at or above theta_bar = {theta_bar}",
                      ThetaAboveCritical, stacklevel=2)
    try:
        growth = math.exp(snapshot.t * sd.phi)
    except OverflowError:
        raise NoConvergence(f"e^(t phi) overflows at t = {snapshot.t}, "
                            f"phi = {sd.phi}") from None
    weights = sd.v[snapshot.types - 1]
    return float(growth
                 * np.sum(weights * snapshot.masses ** (sd.theta + 1.0)))


def lln_statistic(snapshot: Snapshot, f) -> float:
    """sum_n X_n f(t^-1 log X_n, T_n); converges to sum_j u_j f(-phi'(0), j)."""
    if snapshot.t <= 0:
        raise InvalidArgument("need t > 0 to rescale")
    y = np.log(snapshot.masses) / snapshot.t
    return float(np.sum(snapshot.masses * f(y, snapshot.types)))


def clt_statistic(snapshot: Snapshot, f, drift: float) -> float:
    """sum_n X_n f(t^-1/2 (log X_n + drift t), T_n) with drift = phi'(0)."""
    if snapshot.t <= 0:
        raise InvalidArgument("need t > 0 to rescale")
    y = (np.log(snapshot.masses) + drift * snapshot.t) / math.sqrt(snapshot.t)
    return float(np.sum(snapshot.masses * f(y, snapshot.types)))


def stationary_distribution(intensity) -> np.ndarray:
    """The probability vector u with u Lambda = 0 for an intensity matrix."""
    lam = np.asarray(intensity, dtype=float)
    if not irreducibility_check(lam):
        raise NotIrreducible("intensity matrix is not irreducible")
    k = lam.shape[0]
    a = lam.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


@dataclass(frozen=True)
class LargestFragmentRates:
    """Decay rates -log(max mass)/t, overall and per type (None if absent)."""

    t: float
    overall: float
    per_type: tuple[float | None, ...]


def largest_fragment_rates(snapshot: Snapshot,
                           k: int | None = None) -> LargestFragmentRates:
    """Observed decay rates of the largest fragment at time snapshot.t."""
    t, masses, types = snapshot.t, snapshot.masses, snapshot.types
    if t <= 0:
        raise InvalidArgument("need t > 0")
    if k is None:
        k = types.max() if types.size else 1

    def rate(sel):
        # -log X_1(t) / t, which is +inf when X_1(t) = 0 (all mass is dust)
        top = sel.max(initial=0.0)
        return -math.log(top) / t if top > 0.0 else math.inf

    per = [masses[types == j] for j in range(1, k + 1)]
    return LargestFragmentRates(t=t, overall=rate(masses), per_type=tuple(
        rate(sel) if sel.size else None for sel in per))


def _phi_d1(sd: SpectralData) -> float:
    if sd.phi_d1 is None:
        raise InvalidArgument("spectral data must carry phi_d1")
    return sd.phi_d1


def ld_predicted_shape(t: float, a: float, b: float, j: int | None,
                       sd: SpectralData) -> float:
    """Deterministic factor of the windowed-count estimate at sd.theta.

    u_j t^-1/2 e^(t((theta+1)phi' - phi)) (e^(-a(theta+1)) - e^(-b(theta+1)));
    the path-dependent limit constant multiplying it is not predicted.  An
    e^(t g), g the growth rate, beyond the float range raises NoConvergence.
    """
    if not a < b:
        raise InvalidWindow(f"need a < b, got a = {a}, b = {b}")
    if not 0.0 < t < math.inf:
        raise InvalidArgument(f"t = {t} must be positive and finite")
    growth = ld_window_exponent(sd)
    try:
        scale = math.exp(t * growth)
    except OverflowError:
        raise NoConvergence(
            f"e^(t g) overflows at t = {t}, g = {growth}") from None
    uj = 1.0 if j is None else float(sd.u[j - 1])
    th1 = sd.theta + 1.0
    return (uj / math.sqrt(t) * scale
            * (math.exp(-a * th1) - math.exp(-b * th1)))


def ld_window(t: float, a: float, b: float,
              sd: SpectralData) -> tuple[float, float]:
    """The mass window (a e^(-t phi'), b e^(-t phi')) counted at time t."""
    scale = math.exp(-t * _phi_d1(sd))
    return a * scale, b * scale


def ld_count(snapshot: Snapshot, a: float, b: float, j: int | None,
             sd: SpectralData) -> tuple[int, float]:
    """Observed window count and its deterministic predicted shape.

    Counts fragments of type j with a e^(-t phi') <= mass <= b e^(-t phi').
    """
    shape = ld_predicted_shape(snapshot.t, a, b, j, sd)
    lo, hi = ld_window(snapshot.t, a, b, sd)
    in_window = (snapshot.masses >= lo) & (snapshot.masses <= hi)
    if j is not None:
        in_window &= snapshot.types == j
    return int(np.count_nonzero(in_window)), shape


def ld_window_exponent(sd: SpectralData) -> float:
    """Growth rate (theta+1) phi'(theta) - phi(theta) of window counts."""
    return (sd.theta + 1.0) * _phi_d1(sd) - sd.phi


# --- test-function family ----------------------------------------------------

def bump(center: float = 0.0, width: float = 1.0):
    try:
        scale = 2.0 * width ** 2
    except OverflowError:
        raise InvalidArgument(f"width = {width}: width^2 overflows") from None

    def g(y):
        return np.exp(-((y - center) ** 2) / scale)
    return g


def sigmoid(center: float = 0.0, width: float = 1.0):
    def g(y):
        return 1.0 / (1.0 + np.exp(-(y - center) / width))
    return g


def coswin(center: float = 0.0, width: float = 1.0):
    def g(y):
        z = (np.asarray(y) - center) / width
        return np.where(np.abs(z) <= 1.0, 0.5 * (1.0 + np.cos(np.pi * z)), 0.0)
    return g


_FAMILY = {"bump": bump, "sigmoid": sigmoid, "coswin": coswin}


def make_test_function(kind: str, center: float = 0.0, width: float = 1.0,
                  type_index: int | None = None):
    """f(y, types) = g(y) 1{type = type_index}, g from the built-in family."""
    if kind not in _FAMILY:
        raise InvalidArgument(f"unknown test function {kind!r}; pick from "
                         f"{sorted(_FAMILY)}")
    if not (math.isfinite(center) and 0.0 < width < math.inf):
        raise InvalidArgument(f"need a finite center and 0 < width < inf, "
                              f"got center = {center}, width = {width}")
    g = _FAMILY[kind](center, width)

    def f(y, types):
        vals = g(np.asarray(y, dtype=float))
        if type_index is not None:
            vals = vals * (np.asarray(types) == type_index)
        return vals

    return f


# --- reference limits ---------------------------------------------------------

SIMPSON_TOL, SIMPSON_DEPTH = 1e-8, 40  # absolute error; deepest split
GAUSSIAN_SPAN = 12.0  # the Gaussian reference integrates over +-12 sd
LATTICE_RTOL, LATTICE_MAX_DENOMINATOR = 1e-9, 1000  # what counts as rational


def adaptive_simpson(func, a: float, b: float) -> float:
    """Adaptive Simpson on [a, b]; NoConvergence at a non-finite estimate."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = func(lm), func(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if not math.isfinite(left + right):
            raise NoConvergence(f"non-finite integrand on [{x0}, {x2}]")
        if depth >= SIMPSON_DEPTH or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth + 1)
                + recurse(x1, x2, f1, frm, f2, right, eps / 2.0, depth + 1))

    mid = 0.5 * (a + b)
    fa, fm, fb = func(a), func(mid), func(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, SIMPSON_TOL, 0)


def gaussian_limit(f, u: np.ndarray, variance: float) -> float:
    """sum_j u_j E f(N(0, variance), j), the central-limit reference value."""
    if variance < 0:
        raise InvalidArgument(f"variance {variance} < 0")
    total = 0.0
    for j, uj in enumerate(np.asarray(u), start=1):
        if variance == 0.0:
            total += uj * float(f(np.array([0.0]), np.array([j]))[0])
            continue

        def integrand(y, j=j):
            return (float(f(np.array([y]), np.array([j]))[0])
                    * math.exp(-y * y / (2.0 * variance)))

        half = GAUSSIAN_SPAN * math.sqrt(variance)
        total += (uj * adaptive_simpson(integrand, -half, half)
                  / math.sqrt(2.0 * math.pi * variance))
    return total


def lattice_check(spec: FragmentationSpec) -> bool:
    """Heuristic lattice test on jump sizes; warns when they look lattice.

    Returns True (and warns) when every pairwise ratio of distinct log-mass
    jump sizes is rational to within LATTICE_RTOL, so the sharp windowed-count
    asymptotics should not be trusted.
    """
    sizes = jump_sizes(spec)
    if not sizes:
        return False
    lattice = all(
        abs(r - float(Fraction(r).limit_denominator(LATTICE_MAX_DENOMINATOR)))
        <= LATTICE_RTOL
        for r in (s / sizes[0] for s in sizes[1:]))
    if lattice:
        warnings.warn("jump sizes are pairwise commensurable (lattice walk)",
                      LatticeJumpSizes, stacklevel=2)
    return lattice
