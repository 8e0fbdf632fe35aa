"""Event-driven Monte Carlo for multitype fragmentations.

Every live fragment of type i carries an exponential clock with rate equal
to the total mass of the i-th dislocation measure; when it rings, an atom
is drawn proportionally to its weight and the fragment is replaced by the
atom's children.  Per-fragment clocks are equivalent to the global Poisson
construction for finite-atom measures (thinning/superposition) and never
sample the mismatched-type atoms that the Poisson picture discards.

Three simulators share this law:

* ``simulate_mass_fragmentation`` and ``simulate_partition_fragmentation``
  store each fragment, or each block of {1..n} cut by a paintbox sample,
  once with its lifetime [birth, end), and build states on demand;
* ``simulate_tagged`` follows only the tagged fragment, whose (type,
  -log mass) pair is the Markov additive pair the analysis is built on.

``mass_ensemble`` and ``tagged_ensemble`` are vectorized replica drivers
for statistics that need large populations or many replicas.  Every engine
draws from the rates and selection tables compiled into the spec (see
FragmentationSpec).
"""

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    DistinctErosionCoefficients,
    GroundSizeTooSmall,
    InvalidArgument,
    NotConservative,
    ResourceCapExceeded,
)
from .measures import FragmentationSpec
from .paintbox import sample_paintbox
from .partitions import (
    TypedBlockPartition,
    TypedMassPartition,
    build_typed_mass_partition,
    typed_block_partition,
)
from .streams import replica_stream

DEFAULT_MASS_FLOOR = 1e-9


def _check_time(t: float, t_max: float) -> None:
    """Reject a query time outside the run, [0, t_max]."""
    if not 0.0 <= t <= t_max:
        raise InvalidArgument(f"t = {t} outside [0, {t_max}]")


@dataclass(frozen=True)
class Fragment:
    """One fragment: identity, state, and genealogy."""

    id: int
    mass: float
    type: int
    parent: int | None
    birth_time: float


@dataclass(frozen=True)
class Event:
    """One dislocation: which fragment split, by which atom, into whom."""

    time: float
    parent: int
    atom_index: int
    children: tuple[int, ...]


@dataclass(frozen=True)
class Snapshot:
    """Population alive at one instant."""

    t: float
    masses: np.ndarray
    types: np.ndarray
    frozen: np.ndarray
    dust: float

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def mass_partition(self) -> TypedMassPartition:
        return build_typed_mass_partition(zip(self.masses, self.types))


class FragmentationPath:
    """Full event record of one mass-fragmentation run.

    Fragments are stored with their lifetime [birth, end); ``end`` is the
    split time, or +inf for fragments that never split within the horizon
    (including frozen ones).  Snapshots at arbitrary times are reconstructed
    from these intervals.
    """

    def __init__(self, spec, initial_type, t_max, mass_floor):
        self.spec = spec
        self.initial_type = initial_type
        self.t_max = t_max
        self.mass_floor = mass_floor
        self.events: list[Event] = []
        self._mass: list[float] = []
        self._type: list[int] = []
        self._parent: list[int | None] = []
        self._birth: list[float] = []
        self._end: list[float] = []
        self._frozen: list[bool] = []
        self._dust_times: list[float] = [0.0]
        self._dust_values: list[float] = [0.0]

    # -- construction (used by the simulator) --------------------------------

    def _add_fragment(self, mass, typ, parent, birth, frozen) -> int:
        self._mass.append(mass)
        self._type.append(typ)
        self._parent.append(parent)
        self._birth.append(birth)
        self._end.append(math.inf)
        self._frozen.append(frozen)
        return len(self._mass) - 1

    def _add_dust(self, time, amount) -> None:
        self._dust_times.append(time)
        self._dust_values.append(self._dust_values[-1] + amount)

    # -- queries --------------------------------------------------------------

    @property
    def n_fragments(self) -> int:
        return len(self._mass)

    def fragment(self, fid: int) -> Fragment:
        return Fragment(id=fid, mass=self._mass[fid], type=self._type[fid],
                        parent=self._parent[fid], birth_time=self._birth[fid])

    def dust_at(self, t: float) -> float:
        idx = bisect_right(self._dust_times, t) - 1
        return self._dust_values[idx]

    def snapshot(self, t: float) -> Snapshot:
        _check_time(t, self.t_max)
        alive = [f for f in range(self.n_fragments)
                 if self._birth[f] <= t < self._end[f]]
        return Snapshot(
            t=t,
            masses=np.array([self._mass[f] for f in alive]),
            types=np.array([self._type[f] for f in alive], dtype=np.int64),
            frozen=np.array([self._frozen[f] for f in alive], dtype=bool),
            dust=self.dust_at(t),
        )


def simulate_mass_fragmentation(spec: FragmentationSpec, t_max: float,
                                rng: np.random.Generator, *,
                                initial_type: int = 1,
                                mass_floor: float = DEFAULT_MASS_FLOOR,
                                max_fragments: int | None = None
                                ) -> FragmentationPath:
    """One path of the mass fragmentation started from (1, initial_type).

    Fragments below ``mass_floor`` freeze: they stay in the population but
    never dislocate again, which caps the otherwise exponential growth.
    Atoms with dust send the missing mass to the tracked dust pool at the
    dislocation instant.
    """
    spec.check_type(initial_type)
    if t_max <= 0:
        raise InvalidArgument("t_max must be positive")
    rates, cums = spec.type_rate, spec.atom_cum
    path = FragmentationPath(spec, initial_type, t_max, mass_floor)
    heap: list[tuple[float, int]] = []

    def spawn(mass, typ, parent, birth):
        frozen = mass < mass_floor
        fid = path._add_fragment(mass, typ, parent, birth, frozen)
        if max_fragments is not None and path.n_fragments > max_fragments:
            raise ResourceCapExceeded(
                f"more than {max_fragments} fragments; raise mass_floor or "
                f"shorten t_max")
        if not frozen and rates[typ] > 0:
            heapq.heappush(heap, (birth + rng.exponential(1.0 / rates[typ]), fid))
        return fid

    spawn(1.0, initial_type, None, 0.0)
    while heap:
        time, fid = heapq.heappop(heap)
        if time > t_max:
            break
        typ = path._type[fid]
        atom_idx = int(np.searchsorted(cums[typ], rng.random(), side="right"))
        atom = spec.dislocation[typ - 1][atom_idx]
        parent_mass = path._mass[fid]
        path._end[fid] = time
        children = tuple(
            spawn(parent_mass * m, i, fid, time) for m, i in atom.outcome.parts)
        path.events.append(Event(time=time, parent=fid, atom_index=atom_idx,
                                 children=children))
        if atom.outcome.dust > 0.0:
            path._add_dust(time, parent_mass * atom.outcome.dust)
    return path


class ErodedPath:
    """Exponential-discount view of a zero-erosion path.

    Valid only when every erosion coefficient of the model equals the same
    c: the discounted process e^(-ct) Y(t) then has erosion c for every
    type.  With distinct coefficients the correction would depend on each
    fragment's ancestral types, which mass-level paths do not retain.
    """

    def __init__(self, path: FragmentationPath, c: float):
        self.path = path
        self.c = c

    def snapshot(self, t: float) -> Snapshot:
        base = self.path.snapshot(t)
        masses = base.masses * math.exp(-self.c * t)
        return Snapshot(t=t, masses=masses, types=base.types,
                        frozen=base.frozen, dust=1.0 - float(masses.sum()))


def apply_erosion(path: FragmentationPath, c: float | None = None) -> ErodedPath:
    """Discounted view of ``path`` for the common erosion coefficient c."""
    coeffs = set(path.spec.erosion)
    if len(coeffs) > 1:
        raise DistinctErosionCoefficients(
            f"erosion coefficients {sorted(coeffs)} differ; the discount "
            f"trick needs a common value")
    common = coeffs.pop()
    if c is None:
        c = common
    elif c != common:
        raise DistinctErosionCoefficients(
            f"requested c = {c} but the spec declares {common}")
    return ErodedPath(path, c)


class PartitionPath:
    """Record of a partition-valued run on {1..n}: each block (elements,
    type, birth) once, with its split time in ``_end`` (+inf if it never
    split).  ``times`` lists the event times, starting with 0.0."""

    def __init__(self, n, t_max):
        self.n = n
        self.t_max = t_max
        self.times = [0.0]
        self._blocks: list[tuple[tuple[int, ...], int, float]] = []
        self._end: list[float] = []

    def at(self, t: float) -> TypedBlockPartition:
        _check_time(t, self.t_max)
        return typed_block_partition(self.n, [
            (elems, typ) for (elems, typ, birth), end
            in zip(self._blocks, self._end) if birth <= t < end])


def simulate_partition_fragmentation(spec: FragmentationSpec, n: int,
                                     t_max: float, rng: np.random.Generator, *,
                                     initial_type: int = 1) -> PartitionPath:
    """Partition-valued fragmentation on {1..n}.

    Each non-singleton block of type i is hit at the total rate of nu_i; a
    hit draws an atom and replaces the block by a paintbox sample of the
    atom's outcome on the block's elements.  Only clocks of the block's own
    type are scheduled, which realizes the rule that atoms of mismatched
    type are non-events.
    """
    spec.check_type(initial_type)
    if n < 2:
        raise GroundSizeTooSmall(f"need n >= 2, got {n}")
    rates, cums = spec.type_rate, spec.atom_cum
    path = PartitionPath(n, t_max)
    heap: list[tuple[float, int]] = []

    def add_block(elems, typ, birth):
        uid = len(path._blocks)
        path._blocks.append((elems, typ, birth))
        path._end.append(math.inf)
        if typ != 0 and rates[typ] > 0:
            heapq.heappush(heap, (birth + rng.exponential(1.0 / rates[typ]), uid))

    add_block(tuple(range(1, n + 1)), initial_type, 0.0)
    while heap:
        time, uid = heapq.heappop(heap)
        if time > t_max:
            break
        path._end[uid] = time
        elems, typ, _ = path._blocks[uid]
        atom_idx = int(np.searchsorted(cums[typ], rng.random(), side="right"))
        outcome = spec.dislocation[typ - 1][atom_idx].outcome
        local = sample_paintbox(outcome, len(elems), rng)
        for sub, sub_typ in local.blocks:
            add_block(tuple(elems[e - 1] for e in sub), sub_typ, time)
        path.times.append(time)
    return path


class TaggedPath:
    """Piecewise-constant record of the tagged pair (J, S)."""

    def __init__(self, times, j_values, s_values, t_max):
        self.times = times
        self.j_values = j_values
        self.s_values = s_values
        self.t_max = t_max

    def at(self, t: float) -> tuple[int, float]:
        _check_time(t, self.t_max)
        idx = bisect_right(self.times, t) - 1
        return self.j_values[idx], self.s_values[idx]

    @property
    def n_jumps(self) -> int:
        return len(self.times) - 1


def simulate_tagged(spec: FragmentationSpec, t_max: float,
                    rng: np.random.Generator, *,
                    initial_type: int = 1) -> TaggedPath:
    """Path of the tagged pair (J, S) up to t_max; S_0 = 0."""
    spec.check_type(initial_type)
    if not spec.conservative:
        raise NotConservative("tagged dynamics need a conservative spec")
    rates, cum = spec.type_rate, spec.row_cum
    t, j, s = 0.0, initial_type, 0.0
    times, js, ss = [0.0], [initial_type], [0.0]
    while rates[j] > 0:
        t += rng.exponential(1.0 / rates[j])
        if t > t_max:
            break
        row = spec.type_rows[j] + int(
            np.searchsorted(cum[j], rng.random(), side="right"))
        s -= float(spec.row_log_mass[row])
        j = int(spec.row_child[row])
        times.append(t)
        js.append(j)
        ss.append(s)
    return TaggedPath(times, js, ss, t_max)


def _observation_times(times, n_replicas: int) -> np.ndarray:
    """Sorted observation times of an ensemble run, checked with its size."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not times.size or not np.all(
            (0.0 <= times) & (times < np.inf)):
        raise InvalidArgument(f"need finite times >= 0, got {times.tolist()}")
    if n_replicas < 1:
        raise InvalidArgument(f"n_replicas = {n_replicas} < 1")
    return np.sort(times)


def _draw(cums, starts, types, u) -> np.ndarray:
    """Index of the entry that each uniform u selects in the selection table
    of its type, counted from the start of the whole table."""
    index = np.empty(len(types), dtype=np.int64)
    for i in range(1, len(cums)):
        lanes = types == i
        index[lanes] = starts[i] + np.searchsorted(cums[i], u[lanes], side="right")
    return index


def tagged_ensemble(spec: FragmentationSpec, times, n_replicas: int,
                    seed: int, *, initial_type: int = 1):
    """(J, S) of every replica at each observation time, vectorized.

    Returns int and float arrays of shape (len(times), n_replicas).  All
    replicas advance in lockstep from a single keyed stream, so results are
    reproducible for a fixed (seed, n_replicas).
    """
    spec.check_type(initial_type)
    if not spec.conservative:
        raise NotConservative("tagged dynamics need a conservative spec")
    times = _observation_times(times, n_replicas)
    rng = replica_stream(seed, 0)
    r = n_replicas
    t_cur = np.zeros(r)
    j = np.full(r, initial_type, dtype=np.int64)
    s = np.zeros(r)
    out_j = np.zeros((len(times), r), dtype=np.int64)
    out_s = np.zeros((len(times), r))
    active = np.arange(r)
    horizon = times[-1]
    while active.size:
        lane_rates = spec.type_rate[j[active]]
        stuck = lane_rates <= 0
        dt = np.full(active.size, np.inf)
        dt[~stuck] = rng.exponential(1.0, int((~stuck).sum())) / lane_rates[~stuck]
        t_new = t_cur[active] + dt
        for ti, tau in enumerate(times):
            hit = (t_cur[active] <= tau) & (t_new > tau)
            lanes = active[hit]
            out_j[ti, lanes] = j[lanes]
            out_s[ti, lanes] = s[lanes]
        cont = t_new <= horizon
        lanes = active[cont]
        if lanes.size:
            row = _draw(spec.row_cum, spec.type_rows, j[lanes],
                        rng.random(lanes.size))
            s[lanes] -= spec.row_log_mass[row]
            j[lanes] = spec.row_child[row]
            t_cur[lanes] = t_new[cont]
        active = lanes
    return out_j, out_s


def mass_ensemble(spec: FragmentationSpec, times, n_replicas: int, seed: int,
                  visit, *, initial_type: int = 1,
                  mass_floor: float = DEFAULT_MASS_FLOOR,
                  replica_chunk: int | None = None,
                  max_fragments: int | None = None) -> np.ndarray:
    """Run many mass-fragmentation replicas, streaming snapshots to ``visit``.

    Fragments are advanced in vectorized waves (all fragments of one
    generation at once).  For every observation time and wave,
    ``visit(time_index, replica_ids, masses, types, frozen)`` receives the
    fragments of that wave alive at that time; accumulate across calls.
    Replicas are processed in chunks (all at once by default); replica r of
    chunk c draws from the stream keyed (seed, first replica of c), so
    results are reproducible for fixed seed and chunking.  Returns the
    per-replica dust mass shed by non-conservative atoms.
    """
    spec.check_type(initial_type)
    times = _observation_times(times, n_replicas)
    if replica_chunk is not None and replica_chunk < 1:
        raise InvalidArgument(f"replica_chunk = {replica_chunk} < 1")
    horizon = float(times[-1])
    dust_out = np.zeros(n_replicas)
    chunk = n_replicas if replica_chunk is None else int(replica_chunk)
    produced = 0
    for start in range(0, n_replicas, chunk):
        stop = min(start + chunk, n_replicas)
        rng = replica_stream(seed, start)
        rep = np.arange(start, stop, dtype=np.int64)
        mass = np.ones(stop - start)
        typ = np.full(stop - start, initial_type, dtype=np.int64)
        birth = np.zeros(stop - start)
        while rep.size:
            produced += rep.size
            if max_fragments is not None and produced > max_fragments:
                raise ResourceCapExceeded(
                    f"more than {max_fragments} fragments grown; raise "
                    f"mass_floor or shorten the horizon")
            lane_rates = spec.type_rate[typ]
            frozen = mass < mass_floor
            can_split = ~frozen & (lane_rates > 0)
            split_t = np.full(rep.size, np.inf)
            if can_split.any():
                split_t[can_split] = birth[can_split] + rng.exponential(
                    1.0, int(can_split.sum())) / lane_rates[can_split]
            for ti, tau in enumerate(times):
                alive = (birth <= tau) & (split_t > tau)
                if alive.any():
                    visit(ti, rep[alive], mass[alive], typ[alive],
                          frozen[alive])
            split = can_split & (split_t <= horizon)
            if not split.any():
                break
            s_rep, s_mass, s_typ, s_time = (
                rep[split], mass[split], typ[split], split_t[split])
            ta = _draw(spec.atom_cum, spec.type_atoms, s_typ,
                       rng.random(s_rep.size))
            shed = s_mass * spec.atom_dust[ta]
            if shed.any():
                np.add.at(dust_out, s_rep, shed)
            lens = spec.atom_rows[ta]
            total = int(lens.sum())
            ends = np.cumsum(lens)
            gather = (np.arange(total) - np.repeat(ends - lens, lens)
                      + np.repeat(spec.atom_first_row[ta], lens))
            rep = np.repeat(s_rep, lens)
            mass = np.repeat(s_mass, lens) * spec.row_mass[gather]
            typ = spec.row_child[gather]
            birth = np.repeat(s_time, lens)
    return dust_out
