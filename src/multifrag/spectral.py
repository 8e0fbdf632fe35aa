"""Spectral analysis of the matrix exponent.

phi(theta) is the eigenvalue of Phi(theta) with minimal real part.  When the
type chain is irreducible, -Phi(theta) is an irreducible Metzler matrix, so
that eigenvalue is real and simple with entrywise-positive left and right
vectors.  One dense eigensolve of Phi and of its transpose, stacked over a
grid of thetas, gives phi, u and v; phi' and phi'' follow in closed form from
u, v, Phi', Phi'' and the group inverse of Phi - phi I (Meyer & Stewart
1988), and theta_bar is the root of phi - (theta + 1) phi'.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    MaximumAtBracketEdge,
    MultifragError,
    NoConvergence,
    NotIrreducible,
)
from .measures import (
    FragmentationSpec,
    THETA_GUARD,
    _require_conservative,
    bernstein_grid,
)

THETA_BAR_BRACKET = (0.0, 50.0)  # where theta_bar searches for the root of h
# most matrix cells in one stack of perron_grid: one theta a stack from k = 64
STACK_CELLS = 2 ** 12
_PAIR = np.array([[0], [1]])  # picks Phi's and its transpose's stack
_eye = cache(np.eye)  # read only


@dataclass(frozen=True)
class SpectralData:
    """phi(theta) with its normalized left/right Perron vectors.

    u sums to 1, u . v = 1, both entrywise positive.  phi_d1 and phi_d2 are
    filled when perron_eigen is asked for derivatives.
    """

    theta: float
    phi: float
    u: np.ndarray
    v: np.ndarray
    phi_d1: float | None = None
    phi_d2: float | None = None


def _perron_vector(shifted: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Two inverse-iteration steps from a LAPACK eigenvector, or from one
    per matrix of a stack along the leading axes.

    ``shifted`` is Phi - sigma I with sigma just below phi, a nonsingular
    M-matrix whose inverse is entrywise positive, so the steps restore
    components that LAPACK rounded to zero or to the wrong sign.
    """
    x = np.abs(vec.real)
    try:
        for _ in range(2):
            x = np.linalg.solve(shifted, x[..., None])[..., 0]
            x = x / x.sum(axis=-1, keepdims=True)
    except np.linalg.LinAlgError as exc:  # the gap at its rounding floor
        raise NoConvergence(f"Perron inverse iteration: {exc}") from exc
    return x


def _perron_stack(spec: FragmentationSpec, thetas: list,
                  with_derivatives: bool) -> list[SpectralData]:
    """perron_eigen's work for a stack of thetas, one numpy call a step.

    A failing member raises for the whole stack; a stack of one theta
    raises what that theta raises, with its message.
    """
    mats = bernstein_grid(spec, thetas)
    m, m1 = mats[0], mats[1]
    k, each = spec.k, np.arange(len(thetas))
    # Phi and its transpose: their eigensolves, and then the inverse
    # iterations for v and u, run as one stack
    both = np.concatenate([m, m.transpose(0, 2, 1)]).reshape(2, -1, k, k)
    w, vecs = np.linalg.eig(both)
    w = w.real
    order = w[0].argsort(axis=1)
    lowest = np.sort(w[0], axis=1)  # w[0] in the order of order
    phi = lowest[:, :1] + 0.0
    scale = abs(m).sum(axis=2).max(axis=1, keepdims=True, initial=1.0)
    # spectral gap, floored at the rounding level of Phi
    gap = np.maximum(lowest[:, 1:2] - phi if k > 1 else scale, 1e-12 * scale)
    eye = _eye(k)
    first = np.array([order[:, 0], w[1].argmin(axis=1)])
    v, u = uv = _perron_vector(both - (phi - 1e-3 * gap)[:, :, None] * eye,
                               vecs[_PAIR, each, :, first])
    rows = u[:, None, :]
    v /= (rows @ v[:, :, None])[:, 0]
    cols = v[:, :, None]
    if (uv <= 0).any():
        raise NoConvergence("Perron vectors not positive")
    u_mats = rows @ mats  # u Phi, u Phi' and u Phi''
    left, right = abs(
        np.concatenate([u_mats[0, :, 0], (m @ cols)[:, :, 0]]).reshape(uv.shape)
        - phi * uv[::-1]).max(axis=2)
    # the larger of the two, the left one when either is NaN
    resid = np.where(right > left, right, left)
    if (bad := resid > 1e-9 * scale[:, 0]).any():
        raise NoConvergence(f"eigen residual {resid[bad][0]} above 1e-9 |Phi|")
    phis = phi[:, 0].tolist()
    if not with_derivatives:
        return list(map(SpectralData, thetas, phis, u, v))
    # group inverse of Phi - phi I; the rank-one term is weighted by the gap
    # so that the inverted matrix stays as well conditioned as the problem
    vu, gap = cols * rows, gap[:, :, None]
    try:
        group = (np.linalg.inv(m - phi[:, :, None] * eye + gap * vu)
                 - vu / gap)
    except np.linalg.LinAlgError as exc:  # the gap at its rounding floor
        raise NoConvergence(
            f"group inverse at theta = {thetas[0]}: {exc}") from exc
    with np.errstate(all="ignore"):  # a non-finite value is raised below
        d1, d2 = (u_mats[1:] @ cols)[:, :, 0, 0]
        d2 = d2 - (2.0 * u_mats[1] @ group @ (m1 @ cols))[:, 0, 0]
    d1, d2 = d1.tolist(), d2.tolist()
    for th, a, b in zip(thetas, d1, d2):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NoConvergence(f"phi' = {a}, phi'' = {b} at theta = {th}")
    return list(map(SpectralData, thetas, phis, u, v, d1, d2))


def perron_grid(spec: FragmentationSpec, thetas, *,
                with_derivatives: bool = False) -> Iterator[SpectralData]:
    """perron_eigen at each theta of ``thetas``, in order, solved a stack of
    at most STACK_CELLS matrix cells at a time and yielded as it goes.

    Stacked LAPACK calls run, on each member, the routine one matrix runs,
    so every theta gets the bits it gets alone.  A stack in which any member
    fails, or raises a floating-point flag, runs again a theta at a time:
    the first failing theta raises, and warns, as it does alone.
    """
    _require_conservative(spec)
    if not spec.irreducible:
        raise NotIrreducible("tagged type chain is not irreducible")
    thetas = list(thetas)
    size = max(1, STACK_CELLS // spec.k ** 2)
    for lo in range(0, len(thetas), size):
        yield from _solve_stack(spec, thetas[lo:lo + size], with_derivatives)


def _solve_stack(spec: FragmentationSpec, stack: list,
                 with_derivatives: bool) -> list[SpectralData]:
    if len(stack) > 1:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return _perron_stack(spec, stack, with_derivatives)
        except (MultifragError, np.linalg.LinAlgError, FloatingPointError):
            pass  # found again below, one theta at a time
    return [sd for th in stack
            for sd in _perron_stack(spec, [th], with_derivatives)]


def perron_eigen(spec: FragmentationSpec, theta: float, *,
                 with_derivatives: bool = False) -> SpectralData:
    """phi(theta), u(theta), v(theta) for an irreducible conservative spec.

    With ``with_derivatives`` also phi' = u Phi' v and
    phi'' = u Phi'' v - 2 u Phi' G Phi' v, where G is the group inverse of
    Phi - phi I.
    """
    return next(perron_grid(spec, [theta], with_derivatives=with_derivatives))


def theta_bar(spec: FragmentationSpec) -> tuple[float, float]:
    """Maximizer of g(theta) = phi(theta) / (theta + 1) and phi' there.

    g' has the sign of -h, where h = phi - (theta + 1) phi'.  phi is concave
    (e^(-t phi) is the Perron root of E_i[e^(-theta S_t), J_t = j], which is
    entrywise log-convex in theta; Kingman 1961), so h' = -(theta + 1) phi''
    >= 0 and h changes sign at most once, from - to +.  h <= 0 at
    lo + THETA_GUARD and h > 0 at the first of lo + 1, lo + 3, lo + 7, ...
    (capped at hi), with (lo, hi) = THETA_BAR_BRACKET, bracket the root;
    Newton steps on h', bisecting when a step leaves the bracket, find it,
    and phi = (theta + 1) phi' is checked to 1e-6.
    """
    lo, hi = THETA_BAR_BRACKET

    def h(th):
        sd = perron_eigen(spec, th, with_derivatives=True)
        return sd.phi - (th + 1.0) * sd.phi_d1, sd

    a, b, width = lo + THETA_GUARD, lo + THETA_GUARD, 1.0
    while (val := h(b)[0]) <= 0 and b < hi:
        a, b, width = b, min(lo + width, hi), 2.0 * width + 1.0
    if val <= 0 or b == a:
        raise MaximumAtBracketEdge("maximizer of phi/(theta+1) at bracket edge")
    th = 0.5 * (a + b)
    for _ in range(100):
        val, sd = h(th)
        if val < 0:
            a = th
        else:
            b = th
        slope = -(th + 1.0) * sd.phi_d2
        newton = th - val / slope if slope > 0 else math.nan
        step = newton if a < newton < b else 0.5 * (a + b)
        if abs(step - th) <= 1e-13 * (1.0 + abs(th)):
            break
        th = step
    resid = abs(sd.phi / (th + 1.0) - sd.phi_d1)
    if resid > 1e-6:
        raise NoConvergence(f"fixed-point residual {resid} above 1e-6")
    return th, sd.phi_d1
