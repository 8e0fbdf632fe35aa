"""Model specification and the analytic objects it determines.

A fragmentation model is a number of types k, per-type erosion coefficients,
and per-type dislocation measures given as finite weighted lists of typed
mass-partitions.  A FragmentationSpec is validated when it is built and
compiled, once, into a flat table of child rows: one row per child of every
atom, carrying the parent type, the atom's rate, the child's mass and type.
The intensity matrix of the tagged type chain, the matrix exponent of the
tagged pair (type, -log mass) with its theta-derivatives, its decomposition
into per-type subordinator jump measures plus switch-jump distributions, and
the simulators' selection tables are all read off those rows.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    MultifragError,
    NotConservative,
    SpecValidationError,
    ThetaOutOfDomain,
    TypeOutOfRange,
    admit,
)
from .partitions import MASS_TOL, TypedMassPartition, build_typed_mass_partition

# infimum of the domain where the matrix exponent is finite: finite atom
# lists with finitely many parts keep every entry finite for all theta > -1,
# where the child masses x^(1+theta) stay integrable
THETA_LOWER = -1.0
THETA_GUARD = 1e-9

_compiled = partial(field, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class DislocationAtom:
    """One atom of a dislocation measure: rate mass on a fixed outcome."""

    weight: float
    outcome: TypedMassPartition


@dataclass(frozen=True)
class FragmentationSpec:
    """k types, erosion coefficients, finite-atom dislocation measures.

    ``dislocation[i - 1]`` holds the atoms for type i.  ``conservative`` is a
    declaration: it requires zero erosion and dust-free outcomes.

    Construction runs validate_spec, so an invalid spec cannot exist, and
    compiles the atoms into the flat arrays declared below, which are not
    compared, hashed or shown by repr.  Both selection tables end at exactly
    1.0, so every uniform draw in [0, 1) selects an entry.
    """

    k: int
    erosion: tuple[float, ...]
    dislocation: tuple[tuple[DislocationAtom, ...], ...]
    conservative: bool
    # per child row, in the order of type, atom and child
    row_type: np.ndarray = _compiled()  # parent type
    row_weight: np.ndarray = _compiled()  # the atom's rate
    row_mass: np.ndarray = _compiled()
    row_child: np.ndarray = _compiled()  # child type
    row_log_mass: np.ndarray = _compiled()
    # per atom, in the order of type and atom
    atom_weight: np.ndarray = _compiled()
    atom_dust: np.ndarray = _compiled()
    atom_first_row: np.ndarray = _compiled()
    atom_rows: np.ndarray = _compiled()  # number of child rows
    # per type i, indexed by i; entry 0 stands for no type and is empty
    type_rate: np.ndarray = _compiled()  # total rate of nu_i
    type_atoms: np.ndarray = _compiled()  # atoms type_atoms[i]:type_atoms[i + 1]
    type_rows: np.ndarray = _compiled()  # rows type_rows[i]:type_rows[i + 1]
    # cumulative atom weights over the rate: the atom a fragment splits by
    atom_cum: tuple[np.ndarray, ...] = _compiled()
    # cumulative weight * mass over the rate: the child a tagged point enters
    row_cum: tuple[np.ndarray, ...] = _compiled()
    # a walk taking each atom's own term and then its children's: indices
    # into the atoms followed by the rows, and the k x k cell of each step
    walk: np.ndarray = _compiled()
    walk_cell: np.ndarray = _compiled()
    irreducible: bool = _compiled()  # of the tagged type chain's rate graph

    def __post_init__(self):
        validate_spec(self)
        put = partial(object.__setattr__, self)
        atoms = [atom for row in self.dislocation for atom in row]
        parts = [part for atom in atoms for part in atom.outcome.parts]
        atom_type = np.repeat(np.arange(1, self.k + 1),
                              [len(row) for row in self.dislocation])
        put("atom_weight", np.array([atom.weight for atom in atoms], dtype=float))
        put("atom_dust", np.array([atom.outcome.dust for atom in atoms],
                                  dtype=float))
        put("atom_rows", np.array([len(atom.outcome.parts) for atom in atoms],
                                  dtype=np.int64))
        put("atom_first_row", np.cumsum(self.atom_rows) - self.atom_rows)
        row_atom = np.repeat(np.arange(len(atoms)), self.atom_rows)
        put("row_type", atom_type[row_atom])
        put("row_weight", self.atom_weight[row_atom])
        put("row_mass", np.array([mass for mass, _ in parts], dtype=float))
        put("row_child", np.array([typ for _, typ in parts], dtype=np.int64))
        # math.log, not np.log: the two differ in the last bit for some masses
        put("row_log_mass", np.array([math.log(mass) for mass, _ in parts]))
        # summed in atom order, the bits of a running sum over the atoms
        put("type_rate", np.bincount(atom_type, self.atom_weight,
                                     self.k + 1).astype(float))
        put("type_atoms", np.searchsorted(atom_type, np.arange(self.k + 2)))
        put("type_rows", np.searchsorted(self.row_type, np.arange(self.k + 2)))
        tagged = self.row_weight * self.row_mass / self.type_rate[self.row_type]
        atom_cum = [np.cumsum(w) / rate for w, rate in zip(
            np.split(self.atom_weight, self.type_atoms[1:-1]), self.type_rate)]
        row_cum = [np.cumsum(p) for p in np.split(tagged, self.type_rows[1:-1])]
        for cum in atom_cum + row_cum:
            cum[-1:] = 1.0
        put("atom_cum", tuple(atom_cum))
        put("row_cum", tuple(row_cum))
        n = len(atoms)
        put("walk", np.insert(np.arange(n, n + len(parts)), self.atom_first_row,
                              np.arange(n)))
        put("walk_cell", np.concatenate([
            (atom_type - 1) * (self.k + 1),
            (self.row_type - 1) * self.k + self.row_child - 1])[self.walk])
        put("irreducible", irreducibility_check(_cell_sums(
            self, -self.atom_weight, self.row_weight * self.row_mass)))

    def check_type(self, i: int) -> int:
        """Return i if it is a type of this model, else raise TypeOutOfRange."""
        if not (isinstance(i, (int, np.integer)) and 1 <= i <= self.k):
            raise TypeOutOfRange(f"type {i!r} outside 1..{self.k}")
        return i

    def atoms(self, i: int) -> tuple[DislocationAtom, ...]:
        return self.dislocation[self.check_type(i) - 1]

    def total_rate(self, i: int) -> float:
        return float(self.type_rate[self.check_type(i)])


def fragmentation_spec(k: int, dislocation, erosion=None,
                       conservative: bool | None = None) -> FragmentationSpec:
    """Build a spec from plain data; construction validates it.

    ``dislocation`` maps each type i in 1..k to a list of atoms, where an
    atom is either a DislocationAtom or a (weight, pairs) tuple with pairs
    as accepted by build_typed_mass_partition.  ``conservative`` defaults to
    auto-detection (zero erosion and dust-free atoms).
    """
    # 10 bytes per cell of the k x k matrices: k = 2000 with no atoms
    admit(max(k, 0) ** 2, 10, "cells of k x k matrices")
    erosion = tuple(float(c) for c in (erosion if erosion is not None else [0.0] * k))
    bad = [("TypeOutOfRange", f"nu_{key!r}: dislocation type outside 1..{k}")
           for key in dislocation if key not in range(1, k + 1)]
    table = []
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
    if conservative is None:
        conservative = all(c == 0.0 for c in erosion) and all(
            a.outcome.dust <= MASS_TOL for row in table for a in row)
    try:
        spec = FragmentationSpec(k=k, erosion=erosion, dislocation=tuple(table),
                                 conservative=bool(conservative))
    except SpecValidationError as exc:
        # after the atoms that failed, validate_spec's findings on the rest
        bad += exc.violations
    if bad:
        raise SpecValidationError(bad)
    return spec


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
            if any(not 1 <= t <= spec.k for _, t in out.parts):
                bad.append(("TypeOutOfRange", f"{where}: type outside 1..{spec.k}"))
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


def irreducibility_check(intensity: np.ndarray) -> bool:
    """True iff the graph of positive off-diagonal rates is strongly
    connected: a frontier search from type 1 reaches every type along the
    edges and against them, in O(k^2) for k types."""
    edges = np.asarray(intensity, dtype=float) > 0.0
    for graph in (edges, edges.T):
        seen = frontier = np.arange(len(graph)) == 0
        while not seen.all():
            frontier = graph[frontier].any(axis=0) & ~seen
            if not frontier.any():
                return False
            seen |= frontier
    return True


def _require_conservative(spec: FragmentationSpec) -> None:
    if not spec.conservative:
        raise NotConservative("operation requires a conservative spec")


def _cell_sums(spec: FragmentationSpec, atom_terms, row_terms) -> np.ndarray:
    """k x k sums of a term per atom, on its type's diagonal cell, and a term
    per child row, on its (parent type, child type) cell.

    The terms are added in the order of spec.walk, so every cell has the
    bits of a running sum over the atoms and their children.
    """
    sums = np.zeros(spec.k * spec.k)
    np.add.at(sums, spec.walk_cell,
              np.concatenate([atom_terms, row_terms])[spec.walk])
    return sums.reshape(spec.k, spec.k)


def intensity_matrix(spec: FragmentationSpec) -> np.ndarray:
    """Jump rates of the tagged-fragment type chain.

    lambda_ij = sum over atoms of nu_i of weight * (sum_n x_n 1{i_n = j}
    - 1{i = j}); rows sum to zero because the outcomes carry full mass.
    """
    _require_conservative(spec)
    return _cell_sums(spec, -spec.atom_weight, spec.row_weight * spec.row_mass)


def bernstein_matrix(spec: FragmentationSpec, theta: float) -> np.ndarray:
    """Matrix exponent Phi(theta) of the tagged pair (type, -log mass).

    Phi(theta)_ij = sum over atoms of nu_i of weight * (1{i = j}
    - sum_n x_n^(1+theta) 1{i_n = j}).
    """
    return bernstein_matrices(spec, theta)[0]


def bernstein_matrices(spec: FragmentationSpec, theta: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi(theta) with its first two theta-derivatives.

    Phi^(m)(theta)_ij = -sum over atoms of nu_i of weight
    * sum_n x_n^(1+theta) (log x_n)^m 1{i_n = j}, plus the total rate of
    nu_i on the diagonal when m = 0.
    """
    _require_conservative(spec)
    if not theta > THETA_LOWER + THETA_GUARD:
        raise ThetaOutOfDomain(f"theta = {theta} not above {THETA_LOWER}")
    term = spec.row_weight * spec.row_mass ** (1.0 + theta)
    d1 = term * spec.row_log_mass
    zero = np.zeros_like(spec.atom_weight)
    return (_cell_sums(spec, spec.atom_weight, -term),
            _cell_sums(spec, zero, -d1),
            _cell_sums(spec, zero, -(d1 * spec.row_log_mass)))


@dataclass(frozen=True)
class MapCharacteristics:
    """Markov additive decomposition of the tagged pair.

    ``subordinator_jumps[i - 1]`` lists (rate, jump) pairs of the
    compound-Poisson subordinator active while the type sits at i;
    ``switch_jumps[(i, j)]`` is the distribution of the log-mass jump
    taken when the type switches i -> j, as (probability, jump) pairs.
    With conservative finite-atom measures every switch moves mass, so a
    switch i -> j always draws its jump from switch_jumps[(i, j)].
    """

    intensity: np.ndarray
    subordinator_jumps: tuple[tuple[tuple[float, float], ...], ...]
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
        + (lambda_ij (1 - Bhat_ij(theta))).
        """
        k = self.intensity.shape[0]
        phi = -self.intensity.copy()
        for i in range(1, k + 1):
            phi[i - 1, i - 1] += self.psi(i, theta)
            for j in range(1, k + 1):
                if j != i:
                    lam = self.intensity[i - 1, j - 1]
                    phi[i - 1, j - 1] += lam * (1.0 - self.bhat(i, j, theta))
        return phi


def map_characteristics(spec: FragmentationSpec) -> MapCharacteristics:
    """Intensity matrix, subordinator jump measures, and switch-jump laws."""
    lam = intensity_matrix(spec)
    sub = [[] for _ in range(spec.k)]
    switch: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for i, j, rate, jump in zip(spec.row_type.tolist(), spec.row_child.tolist(),
                                (spec.row_weight * spec.row_mass).tolist(),
                                (-spec.row_log_mass).tolist()):
        if j != i:
            total = float(lam[i - 1, j - 1])
            switch.setdefault((i, j), []).append((rate / total, jump))
        elif rate > 0.0:
            sub[i - 1].append((rate, jump))
    return MapCharacteristics(
        intensity=lam, subordinator_jumps=tuple(map(tuple, sub)),
        switch_jumps={ij: tuple(pairs) for ij, pairs in switch.items()})


def jump_sizes(spec: FragmentationSpec) -> list[float]:
    """Distinct log-mass jump sizes the tagged fragment can take."""
    return sorted(set((-spec.row_log_mass[spec.row_mass < 1.0]).tolist()))
