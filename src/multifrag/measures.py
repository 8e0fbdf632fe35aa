"""Model specification and the analytic objects it determines.

A fragmentation model is a number of types k, per-type erosion coefficients,
and per-type dislocation measures given as finite weighted lists of typed
mass-partitions.  From a conservative model we derive in closed form the
intensity matrix of the tagged type chain, the matrix exponent of the tagged
pair (type, -log mass), and its decomposition into per-type subordinator
jump measures plus switch-jump distributions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MultifragError,
    NotConservative,
    SpecValidationError,
    ThetaOutOfDomain,
)
from .partitions import MASS_TOL, TypedMassPartition, build_typed_mass_partition

THETA_GUARD = 1e-9


@dataclass(frozen=True)
class DislocationAtom:
    """One atom of a dislocation measure: rate mass on a fixed outcome."""

    weight: float
    outcome: TypedMassPartition


@dataclass(frozen=True)
class FragmentationSpec:
    """k types, erosion coefficients, finite-atom dislocation measures.

    ``dislocation[i - 1]`` holds the atoms for type i.  ``conservative`` is a
    declaration checked by validate_spec: it requires zero erosion and
    dust-free outcomes.
    """

    k: int
    erosion: tuple[float, ...]
    dislocation: tuple[tuple[DislocationAtom, ...], ...]
    conservative: bool

    def atoms(self, i: int) -> tuple[DislocationAtom, ...]:
        if not 1 <= i <= self.k:
            raise IndexError(f"type {i} outside 1..{self.k}")
        return self.dislocation[i - 1]

    def total_rate(self, i: int) -> float:
        return sum(a.weight for a in self.atoms(i))


def fragmentation_spec(k: int, dislocation, erosion=None,
                       conservative: bool | None = None) -> FragmentationSpec:
    """Build and validate a spec from plain data.

    ``dislocation`` maps each type i in 1..k to a list of atoms, where an
    atom is either a DislocationAtom or a (weight, pairs) tuple with pairs
    as accepted by build_typed_mass_partition.  ``conservative`` defaults to
    auto-detection (zero erosion and dust-free atoms).
    """
    erosion = tuple(float(c) for c in (erosion if erosion is not None else [0.0] * k))
    table = []
    bad = []
    for i in range(1, k + 1):
        atoms = []
        for n, atom in enumerate(dislocation.get(i, [])):
            if not isinstance(atom, DislocationAtom):
                weight, pairs = atom
                try:
                    atom = DislocationAtom(float(weight),
                                           build_typed_mass_partition(pairs, k=k))
                except MultifragError as exc:
                    bad.append((type(exc).__name__, f"nu_{i} atom {n}: {exc}"))
                    continue
            atoms.append(atom)
        table.append(tuple(atoms))
    if bad:
        raise SpecValidationError(bad)
    if conservative is None:
        conservative = all(c == 0.0 for c in erosion) and all(
            a.outcome.dust <= MASS_TOL for row in table for a in row)
    spec = FragmentationSpec(k=k, erosion=erosion, dislocation=tuple(table),
                             conservative=bool(conservative))
    return validate_spec(spec)


def validate_spec(spec: FragmentationSpec) -> FragmentationSpec:
    """Check every invariant; raise SpecValidationError listing all failures."""
    bad = []
    if spec.k < 1:
        bad.append(("TypeCountInvalid", f"k = {spec.k} < 1"))
    if len(spec.erosion) != spec.k:
        bad.append(("ErosionLengthMismatch",
                    f"{len(spec.erosion)} erosion coefficients for k = {spec.k}"))
    for i, c in enumerate(spec.erosion, start=1):
        if c < 0 or not math.isfinite(c):
            bad.append(("NegativeErosion", f"c_{i} = {c}"))
        elif c > 0 and spec.conservative:
            bad.append(("ErosionWithConservative",
                        f"c_{i} = {c} in a conservative spec"))
    if len(spec.dislocation) != spec.k:
        bad.append(("DislocationLengthMismatch",
                    f"{len(spec.dislocation)} dislocation rows for k = {spec.k}"))
        raise SpecValidationError(bad)
    for i in range(1, spec.k + 1):
        for n, atom in enumerate(spec.dislocation[i - 1]):
            where = f"nu_{i} atom {n}"
            if not (atom.weight > 0 and math.isfinite(atom.weight)):
                bad.append(("NonpositiveWeight", f"{where}: weight {atom.weight}"))
            out = atom.outcome
            if any(t > spec.k for _, t in out.parts):
                bad.append(("TypeOutOfRange", f"{where}: type beyond k = {spec.k}"))
            if (len(out.parts) == 1 and out.parts[0][1] == i
                    and out.parts[0][0] >= 1.0 - MASS_TOL):
                bad.append(("AtomAtUnit", f"{where}: outcome is the unit state"))
            if spec.conservative and out.dust > MASS_TOL:
                bad.append(("NonConservativeAtom", f"{where}: dust {out.dust}"))
        # integrability of the splitting rate, automatic for finite lists
        total = 0.0
        for a in spec.dislocation[i - 1]:
            x1, i1 = a.outcome.parts[0] if a.outcome.parts else (0.0, 0)
            total += abs(a.weight) * (1.0 - x1 * (i1 == i))
        if not math.isfinite(total):
            bad.append(("IntegrabilityViolated", f"nu_{i}: diverging rate"))
    if bad:
        raise SpecValidationError(bad)
    return spec


def _require_conservative(spec: FragmentationSpec) -> None:
    validate_spec(spec)
    if not spec.conservative:
        raise NotConservative("operation requires a conservative spec")


def theta_lower(spec: FragmentationSpec) -> float:
    """Infimum of the domain where the matrix exponent is finite.

    Finite atom lists with finitely many parts keep every entry finite for
    all theta > -1, where the child masses x^(1+theta) stay integrable.
    """
    validate_spec(spec)
    return -1.0


def _check_theta(spec: FragmentationSpec, theta: float) -> None:
    if not theta > theta_lower(spec) + THETA_GUARD:
        raise ThetaOutOfDomain(f"theta = {theta} not above {theta_lower(spec)}")


def intensity_matrix(spec: FragmentationSpec) -> np.ndarray:
    """Jump rates of the tagged-fragment type chain.

    lambda_ij = sum over atoms of nu_i of weight * (sum_n x_n 1{i_n = j}
    - 1{i = j}); rows sum to zero because the outcomes carry full mass.
    """
    _require_conservative(spec)
    lam = np.zeros((spec.k, spec.k))
    for i in range(1, spec.k + 1):
        for atom in spec.atoms(i):
            lam[i - 1, i - 1] -= atom.weight
            for mass, typ in atom.outcome.parts:
                lam[i - 1, typ - 1] += atom.weight * mass
    return lam


def bernstein_matrix(spec: FragmentationSpec, theta: float) -> np.ndarray:
    """Matrix exponent Phi(theta) of the tagged pair (type, -log mass).

    Phi(theta)_ij = sum over atoms of nu_i of weight * (1{i = j}
    - sum_n x_n^(1+theta) 1{i_n = j}).
    """
    return bernstein_matrices(spec, theta)[0]


def bernstein_matrices(spec: FragmentationSpec, theta: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi(theta) with its first two theta-derivatives, in one pass.

    Phi^(m)(theta)_ij = -sum over atoms of nu_i of weight
    * sum_n x_n^(1+theta) (log x_n)^m 1{i_n = j}, plus the total rate of
    nu_i on the diagonal when m = 0.
    """
    _require_conservative(spec)
    _check_theta(spec, theta)
    phi, d1, d2 = (np.zeros((spec.k, spec.k)) for _ in range(3))
    for i in range(1, spec.k + 1):
        for atom in spec.atoms(i):
            phi[i - 1, i - 1] += atom.weight
            for mass, typ in atom.outcome.parts:
                term = atom.weight * mass ** (1.0 + theta)
                log_mass = math.log(mass)
                phi[i - 1, typ - 1] -= term
                d1[i - 1, typ - 1] -= term * log_mass
                d2[i - 1, typ - 1] -= term * log_mass * log_mass
    return phi, d1, d2


@dataclass(frozen=True)
class MapCharacteristics:
    """Markov additive decomposition of the tagged pair.

    ``subordinator_jumps[i - 1]`` lists (rate, jump) pairs of the
    compound-Poisson subordinator active while the type sits at i;
    ``switch_jumps[(i, j)]`` is the distribution of the log-mass jump
    taken when the type switches i -> j, as (probability, jump) pairs.
    With conservative finite-atom measures every switch moves mass, so
    switch_prob is simply 1 wherever the switch rate is positive.
    """

    intensity: np.ndarray
    subordinator_jumps: tuple[tuple[tuple[float, float], ...], ...]
    switch_prob: np.ndarray
    switch_jumps: dict

    def psi(self, i: int, theta: float) -> float:
        """Bernstein exponent of the type-i subordinator.

        psi_i(theta) = sum of rate * (1 - e^(-theta * jump)); nonnegative and
        increasing, with psi_i(0) = 0.
        """
        return sum(rate * (1.0 - math.exp(-theta * jump))
                   for rate, jump in self.subordinator_jumps[i - 1])

    def bhat(self, i: int, j: int, theta: float) -> float:
        """Laplace transform of the switch-jump law B_ij."""
        jumps = self.switch_jumps.get((i, j), ())
        if not jumps:
            return 1.0
        return sum(p * math.exp(-theta * jump) for p, jump in jumps)

    def bernstein(self, theta: float) -> np.ndarray:
        """Reassemble the matrix exponent from the decomposition.

        Phi(theta) = -Lambda + diag(psi_i(theta))
        + (lambda_ij p_ij (1 - Bhat_ij(theta))).
        """
        k = self.intensity.shape[0]
        phi = -self.intensity.copy()
        for i in range(1, k + 1):
            phi[i - 1, i - 1] += self.psi(i, theta)
            for j in range(1, k + 1):
                if j == i:
                    continue
                lam = self.intensity[i - 1, j - 1]
                p = self.switch_prob[i - 1, j - 1]
                phi[i - 1, j - 1] += lam * p * (1.0 - self.bhat(i, j, theta))
        return phi


def map_characteristics(spec: FragmentationSpec) -> MapCharacteristics:
    """Intensity matrix, subordinator jump measures, and switch-jump laws."""
    _require_conservative(spec)
    lam = intensity_matrix(spec)
    sub = []
    switch_raw: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for i in range(1, spec.k + 1):
        jumps = []
        for atom in spec.atoms(i):
            for mass, typ in atom.outcome.parts:
                rate = atom.weight * mass
                jump = -math.log(mass)
                if typ == i:
                    if rate > 0.0:
                        jumps.append((rate, jump))
                else:
                    switch_raw.setdefault((i, typ), []).append((rate, jump))
        sub.append(tuple(jumps))
    switch_prob = np.zeros((spec.k, spec.k))
    switch_jumps = {}
    for (i, j), pairs in switch_raw.items():
        total = float(lam[i - 1, j - 1])
        switch_prob[i - 1, j - 1] = 1.0
        switch_jumps[(i, j)] = tuple((rate / total, jump) for rate, jump in pairs)
    return MapCharacteristics(intensity=lam, subordinator_jumps=tuple(sub),
                              switch_prob=switch_prob, switch_jumps=switch_jumps)


def jump_sizes(spec: FragmentationSpec) -> list[float]:
    """Distinct log-mass jump sizes the tagged fragment can take."""
    sizes = set()
    for i in range(1, spec.k + 1):
        for atom in spec.atoms(i):
            for mass, _ in atom.outcome.parts:
                if mass < 1.0:
                    sizes.add(-math.log(mass))
    return sorted(sizes)
