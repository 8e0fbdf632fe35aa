"""Event-driven Monte Carlo for multitype fragmentations.

Every live fragment of type i carries an exponential clock with rate equal
to the total mass of the i-th dislocation measure; when it rings, an atom
is drawn proportionally to its weight and the fragment is replaced by the
atom's children.  Per-fragment clocks are equivalent to the global Poisson
construction for finite-atom measures (thinning/superposition) and never
sample the mismatched-type atoms that the Poisson picture discards.

Three simulators share this law:

* ``simulate_mass_fragmentation`` keeps a flat-column record: the mass and
  type of each fragment, and the time, parent, atom and first child of each
  event (children of one event take consecutive ids).  Lifetimes
  [birth, end) and the ``events`` list are read off these columns, and
  snapshots are masks over numpy copies of them, with each mass discounted
  by e^(-ct) for the common erosion rate c, as in ``mass_ensemble`` (both
  raise DistinctErosionCoefficients before any draw if the rates differ);
* ``simulate_partition_fragmentation`` stores each block of {1..n} cut by a
  paintbox sample once, with its lifetime, and builds states on demand; it
  refuses a model with erosion (PartitionWithErosion);
* ``simulate_tagged`` follows only the tagged fragment, whose (type,
  -log mass) pair is the Markov additive pair the analysis is built on.

The single-path engines draw atoms and children with ``bisect_right`` on
Python lists of the compiled selection tables.

``mass_ensemble`` and ``tagged_ensemble`` are vectorized replica drivers
for statistics that need large populations or many replicas.  One wave
generator, ``_waves``, advances the lanes of both a generation at a time
and takes all their draws, in one order.  Every engine draws from the rates
and selection tables compiled into the spec (see FragmentationSpec).  The
CLI's ``simulate``, ``martingale`` and ``ldcount`` read their fragments from
``mass_ensemble``; ``simulate_mass_fragmentation`` stays as the library's
recorder of one path's events.

Each engine checks with ``errors.admit``, against the one byte budget
MAX_RUN_BYTES, every size it knows before its first draw, and holds what
grows during a run (a path's fragments or labels, one wave's rows) to a
count that the budget gives once per run.  MAX_TAGGED_JUMPS and the
``max_fragments`` of ``mass_ensemble`` bound work, not memory.
"""

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DistinctErosionCoefficients,
    GroundSizeTooSmall,
    InvalidArgument,
    NotConservative,
    PartitionWithErosion,
    ResourceCapExceeded,
    admit,
)
from .measures import FragmentationSpec
from .paintbox import sample_paintbox
from .partitions import (
    TypedBlockPartition,
    TypedMassPartition,
    build_typed_mass_partition,
)
from .streams import replica_stream

DEFAULT_MASS_FLOOR = 1e-9
# the most jumps a tagged run may expect: paths x horizon x the largest rate
MAX_TAGGED_JUMPS = 10 ** 8


def _check_time(t: float, t_max: float) -> None:
    """Reject a query time outside the run, [0, t_max]."""
    if not 0.0 <= t <= t_max:
        raise InvalidArgument(f"t = {t} outside [0, {t_max}]")


def _check_horizon(t_max: float) -> None:
    """Reject a run horizon that is not a positive finite number."""
    if not 0.0 < t_max < math.inf:
        raise InvalidArgument(f"t_max = {t_max} must be positive and finite")


def check_tagged_run(spec: FragmentationSpec, t_max: float, n_paths: int,
                     *, initial_type: int = 1) -> None:
    """Refuse n_paths tagged paths to t_max, each keeping all its rows,
    before any work, with the errors of simulate_tagged in its order: a bad
    initial type or horizon, a non-conservative spec, then more paths than
    the budget holds at 1 + t_max max(type_rate) expected rows or fewer."""
    spec.check_type(initial_type)
    _check_horizon(t_max)
    if not spec.conservative:
        raise NotConservative("tagged dynamics need a conservative spec")
    # 320 bytes per row: `tagged` on the demo model
    admit(n_paths, 320 * (1.0 + t_max * float(spec.type_rate.max())),
          "tagged paths")


def _erosion(spec: FragmentationSpec) -> float:
    """The erosion rate c common to every type.  Distinct rates are refused:
    the discount would then depend on each fragment's ancestral types."""
    if len(set(spec.erosion)) > 1:
        raise DistinctErosionCoefficients(
            f"erosion coefficients {list(spec.erosion)} differ")
    return spec.erosion[0]


def _check_mass_floor(mass_floor: float) -> None:
    """Reject a mass floor that is not finite and >= 0 (NaN never freezes)."""
    if not 0.0 <= mass_floor < math.inf:
        raise InvalidArgument(f"mass_floor = {mass_floor} not finite and >= 0")


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
    """Full event record of one mass-fragmentation run, in flat columns.

    Fragment ids count up from 0, the initial fragment, and the children of
    one event take consecutive ids, so the record is two per-fragment
    columns (mass, type) and four per-event columns (time, parent, atom
    index, first child).  Birth and end times, parents, frozen flags and the
    ``events`` list are read off these.  A fragment lives on [birth, end);
    ``end`` is its split time, or +inf if it never split within the horizon
    (frozen fragments included).  Snapshots are masks over numpy copies of
    the columns, made once per path.
    """

    def __init__(self, erosion, t_max, mass_floor):
        self.erosion = erosion
        self.t_max = t_max
        self.mass_floor = mass_floor
        self._mass: list[float] = []
        self._type: list[int] = []
        self._event_time: list[float] = []
        self._event_parent: list[int] = []
        self._event_atom: list[int] = []
        self._event_first: list[int] = []
        self._dust_times: list[float] = [0.0]
        self._dust_values: list[float] = [0.0]

    # -- queries --------------------------------------------------------------

    @property
    def n_fragments(self) -> int:
        return len(self._mass)

    @cached_property
    def events(self) -> list[Event]:
        """The dislocations in time order, built when first read."""
        stops = self._event_first[1:] + [self.n_fragments]
        return [Event(time=time, parent=parent, atom_index=atom,
                      children=tuple(range(first, stop)))
                for time, parent, atom, first, stop in zip(
                    self._event_time, self._event_parent, self._event_atom,
                    self._event_first, stops)]

    def fragment(self, fid: int) -> Fragment:
        if not 0 <= fid < self.n_fragments:
            raise InvalidArgument(
                f"fragment id {fid} outside 0..{self.n_fragments - 1}")
        parent, birth = None, 0.0
        if fid:
            event = bisect_right(self._event_first, fid) - 1
            parent, birth = self._event_parent[event], self._event_time[event]
        return Fragment(id=fid, mass=self._mass[fid], type=self._type[fid],
                        parent=parent, birth_time=birth)

    def dust_at(self, t: float) -> float:
        _check_time(t, self.t_max)
        idx = bisect_right(self._dust_times, t) - 1
        return self._dust_values[idx]

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """Mass, type, birth and end of every fragment, as arrays."""
        n = self.n_fragments
        times = np.array(self._event_time, dtype=float)
        first = np.array(self._event_first, dtype=np.int64)
        birth = np.zeros(n)
        birth[1:] = np.repeat(times, np.diff(first, append=n))
        end = np.full(n, math.inf)
        end[np.array(self._event_parent, dtype=np.int64)] = times
        return (np.array(self._mass, dtype=float),
                np.array(self._type, dtype=np.int64), birth, end)

    def snapshot(self, t: float) -> Snapshot:
        """The fragments alive at t, with masses discounted by e^(-ct) and
        the eroded mass in the dust; frozen flags use the masses before."""
        _check_time(t, self.t_max)
        mass, typ, birth, end = self._columns
        alive = (birth <= t) & (t < end)
        masses = mass[alive]
        frozen, dust = masses < self.mass_floor, self.dust_at(t)
        if self.erosion:
            masses = masses * math.exp(-self.erosion * t)
            dust = 1.0 - float(masses.sum())
        return Snapshot(t, masses, typ[alive], frozen, dust)


def simulate_mass_fragmentation(spec: FragmentationSpec, t_max: float,
                                rng: np.random.Generator, *,
                                initial_type: int = 1,
                                mass_floor: float = DEFAULT_MASS_FLOOR
                                ) -> FragmentationPath:
    """One path of the mass fragmentation started from (1, initial_type).

    Fragments below ``mass_floor`` freeze: they stay in the population but
    never dislocate again, which caps the otherwise exponential growth.
    Atoms with dust send the missing mass to the tracked dust pool at the
    dislocation instant.  Per event, one uniform picks the atom; then each
    child, in the atom's order, draws its exponential clock unless it is
    frozen or its type never splits.  A path that would hold more fragments
    than the run budget gives raises ResourceCapExceeded.
    """
    spec.check_type(initial_type)
    _check_horizon(t_max)
    _check_mass_floor(mass_floor)
    path = FragmentationPath(_erosion(spec), t_max, mass_floor)
    cums = [cum.tolist() for cum in spec.atom_cum]
    # the mean clock time of each type; 0.0 for a type that never splits
    scales = [1.0 / rate if rate > 0 else 0.0
              for rate in spec.type_rate.tolist()]
    type_atoms, atom_dust = spec.type_atoms.tolist(), spec.atom_dust.tolist()
    first_row, n_rows = spec.atom_first_row.tolist(), spec.atom_rows.tolist()
    row_mass, row_child = spec.row_mass.tolist(), spec.row_child.tolist()
    # 157 bytes per fragment, snapshot included: atoms of 2 to 4 parts, floor 0
    size = 157, "fragments of a path"
    most = admit(1, *size)
    masses, types = path._mass, path._type
    add_mass, add_type = masses.append, types.append
    add_time, add_parent = path._event_time.append, path._event_parent.append
    add_atom, add_first = path._event_atom.append, path._event_first.append
    exponential, uniform = rng.exponential, rng.random
    heap: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop

    add_mass(1.0)
    add_type(initial_type)
    if not 1.0 < mass_floor and scales[initial_type]:
        push(heap, (exponential(scales[initial_type]), 0))
    while heap:
        time, fid = pop(heap)
        if time > t_max:
            break
        typ = types[fid]
        atom = bisect_right(cums[typ], uniform())
        parent_mass = masses[fid]
        first = len(masses)
        add_time(time)
        add_parent(fid)
        add_atom(atom)
        add_first(first)
        atom += type_atoms[typ]  # its index in the compiled tables
        start = first_row[atom]
        for child, row in enumerate(range(start, start + n_rows[atom]), first):
            mass, child_type = parent_mass * row_mass[row], row_child[row]
            add_mass(mass)
            add_type(child_type)
            if child >= most:
                admit(child + 1, *size)
            if not mass < mass_floor and scales[child_type]:
                push(heap, (time + exponential(scales[child_type]), child))
        dust = atom_dust[atom]
        if dust > 0.0:
            path._dust_times.append(time)
            path._dust_values.append(path._dust_values[-1] + parent_mass * dust)
    return path


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
        # the alive blocks partition {1..n} canonically; sorting ranks them
        return TypedBlockPartition(self.n, tuple(sorted(
            (elems, typ) for (elems, typ, birth), end
            in zip(self._blocks, self._end) if birth <= t < end)))


def simulate_partition_fragmentation(spec: FragmentationSpec, n: int,
                                     t_max: float, rng: np.random.Generator, *,
                                     initial_type: int = 1) -> PartitionPath:
    """Partition-valued fragmentation on {1..n}.

    Each non-singleton block of type i is hit at the total rate of nu_i; a
    hit draws an atom and replaces the block by a paintbox sample of the
    atom's outcome on the block's elements.  Only clocks of the block's own
    type are scheduled, which realizes the rule that atoms of mismatched
    type are non-events.  A path that would store more labels, summed over
    its blocks, than the run budget holds raises ResourceCapExceeded.
    Erosion would make single elements leave their blocks as singletons of
    type 0, which this engine does not simulate, so a model with any
    positive erosion rate raises PartitionWithErosion.
    """
    initial_type = int(spec.check_type(initial_type))
    if n < 2:
        raise GroundSizeTooSmall(f"need n >= 2, got {n}")
    _check_horizon(t_max)
    if any(spec.erosion):
        raise PartitionWithErosion(
            f"erosion coefficients {list(spec.erosion)}: partition paths do "
            f"not simulate erosion")
    # 146 bytes per label: every label a singleton block, n = 16384
    size = 146, "labels stored over the path"
    most = admit(n, *size)
    rates = spec.type_rate.tolist()
    cums = [cum.tolist() for cum in spec.atom_cum]
    path = PartitionPath(n, t_max)
    heap: list[tuple[float, int]] = []
    stored = n  # each event stores the labels of the block it splits again

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
        stored += len(elems)
        if stored > most:
            admit(stored, *size)
        atom = bisect_right(cums[typ], rng.random())
        outcome = spec.dislocation[typ - 1][atom].outcome
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
    check_tagged_run(spec, t_max, 1, initial_type=initial_type)
    rates = spec.type_rate.tolist()
    cums = [cum.tolist() for cum in spec.row_cum]
    first_row = spec.type_rows.tolist()
    log_mass, child = spec.row_log_mass.tolist(), spec.row_child.tolist()
    exponential, uniform = rng.exponential, rng.random
    t, j, s = 0.0, initial_type, 0.0
    times, js, ss = [0.0], [initial_type], [0.0]
    add_time, add_j, add_s = times.append, js.append, ss.append
    while rates[j] > 0:
        t += exponential(1.0 / rates[j])
        if t > t_max:
            break
        row = first_row[j] + bisect_right(cums[j], uniform())
        s -= log_mass[row]
        j = child[row]
        add_time(t)
        add_j(j)
        add_s(s)
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


def _search_keys(cums) -> np.ndarray:
    """The selection tables as one sorted key per entry: type + 1j * cum.
    numpy orders complex numbers by real part, then imaginary part."""
    return np.concatenate([i + 1j * cum for i, cum in enumerate(cums)])


def _draw(keys, types, u) -> np.ndarray:
    """Index of the entry that each uniform u selects in the selection table
    of its type, counted from the start of the whole table: the entries of
    every lower type plus those of its own type with cum <= u."""
    return np.searchsorted(keys, types + 1j * u, side="right")


def _waves(rng, cums, times, initial_type, columns, clock_rate, branch):
    """Grow lanes born at time 0 in ``initial_type`` with the caller's
    ``columns`` a wave (generation) at a time, yielding (time_index, type,
    ...) for those alive at each time.  Each wave draws, in lane order, an
    exponential clock per lane of positive ``clock_rate(type, ...)``, then a
    uniform per lane that splits by the last time; ``branch(split_time,
    entry of cums, type, ...)`` returns the next wave's (birth, type, ...)."""
    keys, horizon = _search_keys(cums), times[-1]
    birth = np.zeros(columns[0].size)
    lanes = (np.full(birth.size, initial_type, dtype=np.int64), *columns)
    while birth.size:
        rate = clock_rate(*lanes)
        can = rate > 0
        split = np.full(birth.size, np.inf)
        split[can] = birth[can] + rng.exponential(1.0, can.sum()) / rate[can]
        for ti, tau in enumerate(times):
            alive = np.flatnonzero((birth <= tau) & (split > tau))
            if alive.size:
                yield ti, *(col[alive] for col in lanes)
        go = np.flatnonzero(split <= horizon)
        if go.size < split.size:
            lanes, split = tuple(col[go] for col in lanes), split[go]
        entry = _draw(keys, lanes[0], rng.random(go.size))
        birth, *lanes = branch(split, entry, *lanes)


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
    # 16 output bytes per time and 112 bytes of lanes per replica: SPEC-C
    admit(n_replicas, 16 * times.size + 112, "tagged replicas")
    jumps = n_replicas * times[-1] * float(spec.type_rate.max())
    if jumps > MAX_TAGGED_JUMPS:
        raise ResourceCapExceeded(f"{jumps:.3g} expected jumps, more than "
                                  f"{MAX_TAGGED_JUMPS}")
    out_j = np.zeros((len(times), n_replicas), dtype=np.int64)
    out_s = np.zeros((len(times), n_replicas))

    def branch(split, row, j, replica, s):
        return split, spec.row_child[row], replica, s - spec.row_log_mass[row]

    for ti, j, replica, s in _waves(
            replica_stream(seed, 0), spec.row_cum, times, initial_type,
            (np.arange(n_replicas), np.zeros(n_replicas)),
            lambda j, *_: spec.type_rate[j], branch):
        out_j[ti, replica] = j
        out_s[ti, replica] = s
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
    Masses and frozen flags are those of FragmentationPath.snapshot.
    Replicas are processed in chunks (all at once by default); replica r of
    chunk c draws from the stream keyed (seed, first replica of c), so
    results are reproducible for fixed seed and chunking.  Growing more than
    ``max_fragments`` fragments over all replicas, or a wave past the run
    budget, raises ResourceCapExceeded before that wave is allocated.
    Returns each replica's dust from non-conservative atoms, before erosion.
    """
    spec.check_type(initial_type)
    times = _observation_times(times, n_replicas)
    _check_mass_floor(mass_floor)
    if replica_chunk is not None and replica_chunk < 1:
        raise InvalidArgument(f"replica_chunk = {replica_chunk} < 1")
    erosion = _erosion(spec)
    admit(n_replicas, 8, "replicas' dust")
    dust_out = np.zeros(n_replicas)
    chunk = n_replicas if replica_chunk is None else int(replica_chunk)
    produced = 0

    def grow(n):
        """Count a wave of n fragments against the cap and the budget."""
        nonlocal produced
        produced += n
        if max_fragments is not None and produced > max_fragments:
            raise ResourceCapExceeded(
                f"more than {max_fragments} fragments grown; raise "
                f"mass_floor or shorten the horizon")
        # 113 bytes per row: SPEC-A at floor 0, with ldcount's visitor
        admit(n, 113, "fragments in one wave")

    def rate(typ, rep, mass):
        # a frozen fragment never splits
        return np.where(mass < mass_floor, 0.0, spec.type_rate[typ])

    def branch(split, atom, typ, rep, mass):
        shed = mass * spec.atom_dust[atom]
        if shed.any():
            np.add.at(dust_out, rep, shed)
        lens = spec.atom_rows[atom]
        total = int(lens.sum())
        grow(total)
        gather = np.arange(total) + np.repeat(
            spec.atom_first_row[atom] - np.cumsum(lens) + lens, lens)
        return (np.repeat(split, lens), spec.row_child[gather],
                np.repeat(rep, lens),
                np.repeat(mass, lens) * spec.row_mass[gather])

    for start in range(0, n_replicas, chunk):
        stop = min(start + chunk, n_replicas)
        grow(stop - start)
        for ti, typ, rep, mass in _waves(
                replica_stream(seed, start), spec.atom_cum, times,
                initial_type, (np.arange(start, stop, dtype=np.int64),
                               np.ones(stop - start)), rate, branch):
            frozen = mass < mass_floor
            if erosion:
                mass = mass * math.exp(-erosion * times[ti])
            visit(ti, rep, mass, typ, frozen)
    return dust_out
