"""Event-driven Monte Carlo for multitype fragmentations.

Every live fragment of type i carries an exponential clock with rate equal
to the total mass of the i-th dislocation measure; when it rings, an atom
is drawn proportionally to its weight and the fragment is replaced by the
atom's children.  Per-fragment clocks are equivalent to the global Poisson
construction for finite-atom measures (thinning/superposition) and never
sample the mismatched-type atoms that the Poisson picture discards.

Three simulators share this law:

* ``simulate_mass_fragmentation`` builds one set of numpy columns when its
  run ends: the mass and type of each fragment, and the time, parent, atom
  and first child of each event (children of one event take consecutive
  ids).  Lifetimes, ``events`` and the dust are read off them, and
  snapshots are masks over them, with each mass discounted by e^(-ct) for
  the common erosion rate c, as in ``mass_ensemble`` (both raise
  DistinctErosionCoefficients before any draw if the rates differ);
* ``simulate_partition_fragmentation`` cuts a block by ``paint`` on its own
  labels, with its atom's table compiled once per run, and stores each block
  once, with its lifetime; it builds states on demand and refuses a model
  with erosion (PartitionWithErosion);
* ``simulate_tagged`` follows only the tagged fragment, whose (type,
  -log mass) pair is the Markov additive pair the analysis is built on.

The single-path engines draw atoms and children with ``bisect_right`` on
a Python list of a compiled selection table, within the run of the
fragment's type, so the index they draw is the compiled one; the vectorized
drivers draw the same index for a whole wave with the ``draw`` that
``_selector`` builds once per run.

``mass_ensemble`` and ``tagged_ensemble`` are vectorized replica drivers
for statistics that need large populations or many replicas.  One wave
generator, ``_waves``, advances the lanes of both a generation at a time
and takes all their draws, in one order; ``mass_ensemble`` makes each
wave's children from a per-atom table of row slots.  Every engine draws
from the rates and selection tables compiled into the spec (see
FragmentationSpec).  The CLI's ``simulate``, ``martingale`` and ``ldcount``
read their fragments from ``mass_ensemble``; ``simulate_mass_fragmentation``
stays as the library's recorder of one path's events.

Each engine checks with ``errors.admit``, against the one byte budget
MAX_RUN_BYTES, every size it knows before its first draw, and holds what
grows during a run (a path's fragments or labels, one wave's rows and
row slots) to a count that the budget gives once per run.  MAX_TAGGED_JUMPS
and the ``max_fragments`` of ``mass_ensemble`` bound work, not memory.
"""

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import (
    DistinctErosionCoefficients,
    GroundSizeTooSmall,
    InvalidArgument,
    NotConservative,
    PartitionWithErosion,
    ResourceCapExceeded,
    admit,
    check_count,
)
from .measures import FragmentationSpec
from .paintbox import PAINTBOX_LABEL_BYTES, paint
from .partitions import (
    TypedBlockPartition,
    TypedMassPartition,
    build_typed_mass_partition,
)
from .streams import replica_stream

DEFAULT_MASS_FLOOR = 1e-9
# the most jumps a tagged run may expect: paths x horizon x the largest rate
MAX_TAGGED_JUMPS = 10 ** 8
# per fragment of a heap path and its first snapshot: halving, floor 0, ~50k
PATH_FRAGMENT_BYTES = 158
# per row of a mass_ensemble wave: halving, floor 0, ldcount's visitor, ~800k
WAVE_ROW_BYTES = 102
# per tagged_ensemble replica, beside 16 output bytes per time: SPEC-C to
# t = 50, 200,000 replicas
TAGGED_REPLICA_BYTES = 84
# per expected row of tagged paths: `tagged`, demo model, JSON, t = 10^5
TAGGED_ROW_BYTES = 424
# per label a partition path stores: all singletons at once, n = 65536
STORED_LABEL_BYTES = 156
# per entry of a table padded once per run, a float and an int64 beside its
# build mask: mass_ensemble's row slots of 2,001 atoms, one 2,000 rows wide
PADDED_ENTRY_BYTES = 18
# per row slot of a mass_ensemble wave, which passes this figure and
# WAVE_ROW_BYTES: a 2-row atom beside a rare one of 10 rows, halving, floor
# 0, the narrowest shape whose slots outweigh the rows' figure
WAVE_SLOT_BYTES = 22


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
    admit(n_paths, TAGGED_ROW_BYTES * (1.0 + t_max * float(
        spec.type_rate.max())), "tagged paths")


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
    """Full event record of one mass-fragmentation run, in numpy columns.

    Fragment ids count up from 0, the initial fragment, and the children of
    one event take consecutive ids, so the record is two per-fragment
    columns (``mass``, ``type``) and four per-event columns in time order
    (``event_time``, ``event_parent``, ``event_atom`` as an index into the
    spec's per-atom arrays, ``event_first`` child).  Births, ``end``,
    parents, ``events`` and the dust (the running sum of each event's parent
    mass times its atom's dust share) are read off these on first use.  A
    fragment lives on [birth, end); ``end`` is its split time, or +inf if it
    never split within the horizon (frozen fragments included).  Snapshots
    are masks over the columns.
    """

    def __init__(self, spec: FragmentationSpec, t_max, mass_floor, mass, type,
                 event_time, event_parent, event_atom, event_first):
        self.erosion, self._spec = _erosion(spec), spec
        self.t_max, self.mass_floor = t_max, mass_floor
        self.mass, self.type = np.array(mass, float), np.array(type, np.int64)
        self.event_time = np.array(event_time, float)
        self.event_parent, self.event_atom, self.event_first = (
            np.array(column, np.int64)
            for column in (event_parent, event_atom, event_first))

    @property
    def n_fragments(self) -> int:
        return self.mass.size

    @cached_property
    def events(self) -> list[Event]:
        """The dislocations in time order, built when first read."""
        stops = self.event_first[1:].tolist() + [self.n_fragments]
        # each atom's index within its type's list
        within = self.event_atom - self._spec.type_atoms[
            self.type[self.event_parent]]
        return [Event(time, parent, atom, tuple(range(first, stop)))
                for time, parent, atom, first, stop in zip(
                    self.event_time.tolist(), self.event_parent.tolist(),
                    within.tolist(), self.event_first.tolist(), stops)]

    def _by_fragment(self, initial, column) -> np.ndarray:
        """Per fragment, the entry of ``column`` for the event that made it
        (``initial`` for the initial fragment)."""
        counts = np.diff(self.event_first, prepend=0, append=self.n_fragments)
        return np.repeat(np.append(initial, column), counts)

    birth = cached_property(
        lambda self: self._by_fragment(0.0, self.event_time))
    _parent = cached_property(
        lambda self: self._by_fragment(-1, self.event_parent))

    @cached_property
    def end(self) -> np.ndarray:
        end = np.full(self.n_fragments, math.inf)
        end[self.event_parent] = self.event_time
        return end

    @cached_property
    def _dust(self) -> np.ndarray:
        """The dust just after each event."""
        return np.cumsum(self.mass[self.event_parent]
                         * self._spec.atom_dust[self.event_atom])

    def fragment(self, fid: int) -> Fragment:
        if not 0 <= fid < self.n_fragments:
            raise InvalidArgument(
                f"fragment id {fid} outside 0..{self.n_fragments - 1}")
        parent = self._parent.item(fid)
        return Fragment(fid, self.mass.item(fid), self.type.item(fid),
                        None if parent < 0 else parent, self.birth.item(fid))

    def dust_at(self, t: float) -> float:
        _check_time(t, self.t_max)
        idx = int(np.searchsorted(self.event_time, t, side="right"))
        return self._dust.item(idx - 1) if idx else 0.0

    def snapshot(self, t: float) -> Snapshot:
        """The fragments alive at t, with masses discounted by e^(-ct) and
        the eroded mass in the dust; frozen flags use the masses before."""
        _check_time(t, self.t_max)
        alive = (self.birth <= t) & (t < self.end)
        masses = self.mass[alive]
        frozen, dust = masses < self.mass_floor, self.dust_at(t)
        if self.erosion:
            masses = masses * math.exp(-self.erosion * t)
            dust = 1.0 - float(masses.sum())
        return Snapshot(t, masses, self.type[alive], frozen, dust)


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
    _erosion(spec)
    cum, type_atoms = spec.atom_cum.tolist(), spec.type_atoms.tolist()
    # the mean clock time of each type; 0.0 for a type that never splits
    scales = [1.0 / rate if rate > 0 else 0.0
              for rate in spec.type_rate.tolist()]
    first_row, n_rows = spec.atom_first_row.tolist(), spec.atom_rows.tolist()
    row_mass, row_child = spec.row_mass.tolist(), spec.row_child.tolist()
    most = admit(1, PATH_FRAGMENT_BYTES, "fragments of a path")
    masses, types, *events = [1.0], [initial_type], [], [], [], []
    add_mass, add_type, add_time, add_parent, add_atom, add_first = (
        column.append for column in (masses, types, *events))
    exponential, uniform = rng.exponential, rng.random
    heap: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop

    if not 1.0 < mass_floor and scales[initial_type]:
        push(heap, (exponential(scales[initial_type]), 0))
    while heap:
        time, fid = pop(heap)
        if time > t_max:
            break
        typ = types[fid]
        atom = bisect_right(cum, uniform(), type_atoms[typ],
                            type_atoms[typ + 1])
        parent_mass = masses[fid]
        first = len(masses)
        add_time(time)
        add_parent(fid)
        add_atom(atom)
        add_first(first)
        start = first_row[atom]
        for child, row in enumerate(range(start, start + n_rows[atom]), first):
            mass, child_type = parent_mass * row_mass[row], row_child[row]
            add_mass(mass)
            add_type(child_type)
            if child >= most:
                admit(child + 1, PATH_FRAGMENT_BYTES, "fragments of a path")
            if not mass < mass_floor and scales[child_type]:
                push(heap, (time + exponential(scales[child_type]), child))
    del heap  # free the pending clocks first: the run peaks lower
    return FragmentationPath(spec, t_max, mass_floor, masses, types, *events)


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
        # the alive blocks partition {1..n}, so their least elements differ
        # and ranking by them alone gives the canonical order
        return TypedBlockPartition(self.n, tuple(sorted(
            ((elems, typ) for (elems, typ, birth), end
             in zip(self._blocks, self._end) if birth <= t < end),
            key=lambda block: block[0][0])))


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
    n = check_count(n, "n", None)
    if n < 2:
        raise GroundSizeTooSmall(f"need n >= 2, got {n}")
    _check_horizon(t_max)
    if any(spec.erosion):
        raise PartitionWithErosion(
            f"erosion coefficients {list(spec.erosion)}: partition paths do "
            f"not simulate erosion")
    size = STORED_LABEL_BYTES, "labels stored over the path"
    most = admit(n, *size)
    rates = spec.type_rate.tolist()
    cum, type_atoms = spec.atom_cum.tolist(), spec.type_atoms.tolist()
    tables = [(list(accumulate(atom.outcome.masses())), atom.outcome.types())
              for row in spec.dislocation for atom in row]
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
        m = len(elems)
        stored += m
        if stored > most:
            admit(stored, *size)
        atom = bisect_right(cum, rng.random(), type_atoms[typ],
                            type_atoms[typ + 1])
        admit(m, PAINTBOX_LABEL_BYTES, "paintbox labels")
        for sub, sub_typ in paint(*tables[atom], elems, rng.random(m).tolist()):
            add_block(sub, sub_typ, time)
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
    cum, type_rows = spec.row_cum.tolist(), spec.type_rows.tolist()
    log_mass, child = spec.row_log_mass.tolist(), spec.row_child.tolist()
    exponential, uniform = rng.exponential, rng.random
    t, j, s = 0.0, initial_type, 0.0
    times, js, ss = [0.0], [initial_type], [0.0]
    add_time, add_j, add_s = times.append, js.append, ss.append
    while rates[j] > 0:
        t += exponential(1.0 / rates[j])
        if t > t_max:
            break
        row = bisect_right(cum, uniform(), type_rows[j], type_rows[j + 1])
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
    check_count(n_replicas, "n_replicas")
    return np.sort(times)


def _selector(cum, starts):
    """draw(types, u), built once per table: the index in ``cum`` of the
    entry each uniform u selects in the run cum[starts[t]:starts[t + 1]] of
    its type t, the run's first index plus its entries <= u, counted in exact
    float comparisons.  Row t of a table as wide as the power of two past the
    longest run holds type t's run, then +inf, so a branchless bisection
    never leaves the row and needs no clamp, and a u of 1.0 lands one past
    its run."""
    runs = np.diff(starts)
    width = 1 << int(runs.max(initial=0)).bit_length()
    admit(runs.size * width, PADDED_ENTRY_BYTES, "padded selection entries")
    table = np.full((runs.size, width), np.inf)
    table[np.arange(width) < runs[:, None]] = cum
    table = table.ravel()
    index = (starts[:-1, None] + np.arange(width)).ravel()  # into cum
    steps = [1 << p for p in range(width.bit_length() - 2, -1, -1)]

    def draw(types, u):
        pos = types * width
        for step in steps:
            pos += (table[step - 1:].take(pos) <= u) * step
        return index.take(pos)
    return draw


def _waves(rng, draw, times, lanes, clock_rate, branch):
    """Grow ``lanes``, columns (type, ...) of lanes born at time 0, a wave
    (generation) at a time, yielding (time_index, type, ...) for those alive
    at each time.  Each wave draws, in lane order, an exponential clock per
    lane of positive ``clock_rate(type, ...)``, then a uniform per lane that
    splits by the last time, which ``draw(type, u)`` (from ``_selector``)
    turns into an entry of a selection table; ``branch(split_time, entry,
    type, ...)`` returns the next wave's (birth, type, ...).  No lane is born
    after the last time, so one mask gives the lanes alive then and those
    that go on."""
    horizon = times[-1]
    birth = np.zeros(lanes[0].size)
    while True:
        rate = clock_rate(*lanes)
        can = rate > 0
        if can.all():  # the same operations, without the masked gather
            split = birth + rng.standard_exponential(birth.size) / rate
        else:
            split = np.full(birth.size, np.inf)
            split[can] = (birth[can]
                          + rng.standard_exponential(can.sum()) / rate[can])
        del rate, can  # freed before the gathers below: the run peaks lower
        stop = split > horizon
        for ti, tau in enumerate(times):
            alive = np.flatnonzero(stop if tau == horizon else
                                   (birth <= tau) & (split > tau))
            if alive.size:
                yield ti, *(col.take(alive) for col in lanes)
        go = np.flatnonzero(~stop)
        if not go.size:  # no lane splits: the run ends without a draw
            return
        if go.size < split.size:
            lanes, split = tuple(col.take(go) for col in lanes), split.take(go)
        del go  # freed before the draw, likewise
        birth, *lanes = branch(split, draw(lanes[0], rng.random(split.size)),
                               *lanes)


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
    admit(n_replicas, 16 * times.size + TAGGED_REPLICA_BYTES,
          "tagged replicas")
    jumps = n_replicas * times[-1] * float(spec.type_rate.max())
    if jumps > MAX_TAGGED_JUMPS:
        raise ResourceCapExceeded(f"{jumps:.3g} expected jumps, more than "
                                  f"{MAX_TAGGED_JUMPS}")
    out_j = np.zeros((len(times), n_replicas), dtype=np.int64)
    out_s = np.zeros((len(times), n_replicas))

    def branch(split, row, j, replica, s):
        return (split, spec.row_child.take(row), replica,
                s - spec.row_log_mass.take(row))

    for ti, j, replica, s in _waves(
            replica_stream(seed, 0), _selector(spec.row_cum, spec.type_rows),
            times, (np.full(n_replicas, initial_type, dtype=np.int64),
                    np.arange(n_replicas), np.zeros(n_replicas)),
            lambda j, *_: spec.type_rate.take(j), branch):
        out_j[ti, replica] = j
        out_s[ti, replica] = s
    return out_j, out_s


def mass_ensemble(spec: FragmentationSpec, times, n_replicas: int, seed: int,
                  visit, *, initial_type: int = 1,
                  mass_floor: float = DEFAULT_MASS_FLOOR,
                  replica_chunk: int | None = None,
                  max_fragments: int | None = None,
                  drop_frozen: bool = False) -> np.ndarray:
    """Run many mass-fragmentation replicas, streaming snapshots to ``visit``.

    Fragments are advanced in vectorized waves (all fragments of one
    generation at once).  For every observation time and wave,
    ``visit(time_index, replica_ids, masses, types, frozen)`` receives the
    fragments of that wave alive at that time; accumulate across calls.
    Masses and frozen flags are those of FragmentationPath.snapshot.
    Replicas are processed in chunks (all at once by default); replica r of
    chunk c draws from the stream keyed (seed, first replica of c), so
    results are reproducible for fixed seed and chunking.  Growing more than
    ``max_fragments`` fragments over all replicas, or a wave whose rows or
    row slots (its parents times the most rows of any atom) pass the run
    budget, raises ResourceCapExceeded before that wave is allocated.
    Returns each replica's dust from non-conservative atoms, before erosion.
    With ``drop_frozen``, a fragment below ``mass_floor`` (the root
    included) is dropped when it is made, so ``visit`` receives the same
    arrays with every frozen row removed and no visit that would hold only
    frozen rows; the draws, the dust and the fragments counted against the
    cap and the budget, dropped ones included, do not change.
    """
    spec.check_type(initial_type)
    times = _observation_times(times, n_replicas)
    _check_mass_floor(mass_floor)
    chunk = n_replicas if replica_chunk is None else check_count(
        replica_chunk, "replica_chunk")
    if max_fragments is not None:
        check_count(max_fragments, "max_fragments")
    erosion = _erosion(spec)
    admit(n_replicas, 8, "replicas' dust")
    dust_out = np.zeros(n_replicas)
    produced = 0
    draw = _selector(spec.atom_cum, spec.type_atoms)

    def grow(n):
        """Count a wave of n fragments against the cap and the budget."""
        nonlocal produced
        produced += n
        if max_fragments is not None and produced > max_fragments:
            raise ResourceCapExceeded(
                f"more than {max_fragments} fragments grown; raise "
                f"mass_floor or shorten the horizon")
        admit(n, WAVE_ROW_BYTES, "fragments in one wave")

    def rate(typ, rep, mass):
        # a frozen fragment never splits
        return np.where(mass < mass_floor, 0.0, spec.type_rate.take(typ))

    # each atom's rows as slots 0..width-1, NaN mass past its last row
    width = int(spec.atom_rows.max(initial=1))
    admit(spec.atom_rows.size * width, PADDED_ENTRY_BYTES, "atoms' row slots")
    used = np.arange(width) < spec.atom_rows[:, None]
    slot_mass = np.full(used.shape, np.nan)
    slot_child = np.zeros(used.shape, np.int64)
    slot_mass[used], slot_child[used] = spec.row_mass, spec.row_child
    del used
    floor = mass_floor if drop_frozen else -np.inf

    def branch(split, atom, typ, rep, mass):
        shed = mass * spec.atom_dust.take(atom)
        if shed.any():
            np.add.at(dust_out, rep, shed)
        grow(int(spec.atom_rows.take(atom).sum()))
        admit(atom.size * width, WAVE_SLOT_BYTES, "row slots in one wave")
        # parent-major, then row: each child's mass is its row's times its
        # parent's, as one product of the same two floats
        slots = slot_mass.take(atom, axis=0)
        slots *= mass[:, None]
        kept = np.flatnonzero(slots >= floor)  # NaN, an unused slot, fails
        mass = slots.take(kept)
        del slots
        parent = kept // width
        kept %= width  # the row of atom[parent] each kept child is
        kept += atom.take(parent) * width  # and its slot in slot_child
        child = slot_child.take(kept)
        del kept  # freed before the gathers by parent: the run peaks lower
        return split.take(parent), child, rep.take(parent), mass

    for start in range(0, n_replicas, chunk):
        stop = min(start + chunk, n_replicas)
        grow(stop - start)
        if drop_frozen and mass_floor > 1.0:
            continue  # the roots are frozen
        for ti, typ, rep, mass in _waves(
                replica_stream(seed, start), draw, times,
                (np.full(stop - start, initial_type, dtype=np.int64),
                 np.arange(start, stop, dtype=np.int64),
                 np.ones(stop - start)), rate, branch):
            frozen = mass < mass_floor
            if erosion:
                mass = mass * math.exp(-erosion * times[ti])
            visit(ti, rep, mass, typ, frozen)
    return dust_out
