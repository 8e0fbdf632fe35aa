"""The vectorized replica drivers against boolean-mask references.

``_reference_draw``, ``_reference_tagged_ensemble`` and
``_reference_mass_ensemble`` index every column with a boolean mask, keep
full-length tagged state behind an ``active`` index array and draw with one
``searchsorted`` per type.  The drivers in ``multifrag.simulate`` must make
the same draws in the same order and return the same bits: the same visit
calls, array for array, the same dust vector and the same (J, S) arrays.
With ``drop_frozen``, ``mass_ensemble`` must make the visits of its default
run less their frozen rows, with the same dust and the same refusals.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifrag import fragmentation_spec, mass_ensemble, tagged_ensemble
from multifrag import simulate as simulate_module
from multifrag import streams
from multifrag.errors import (
    InvalidArgument,
    NotConservative,
    ResourceCapExceeded,
)
from multifrag.simulate import (
    DEFAULT_MASS_FLOOR,
    _check_mass_floor,
    _observation_times,
    replica_stream,
)

reference_settings = settings(max_examples=30, deadline=None, derandomize=True)


# --- references: same draws, same order ---------------------------------------------

def _reference_draw(cum, starts, types, u) -> np.ndarray:
    """Index in cum of the entry that each uniform u selects in the run
    cum[starts[t]:starts[t + 1]] of its type t."""
    index = np.empty(len(types), dtype=np.int64)
    for i in range(1, len(starts) - 1):
        lanes = types == i
        index[lanes] = starts[i] + np.searchsorted(
            cum[starts[i]:starts[i + 1]], u[lanes], side="right")
    return index


def _reference_tagged_ensemble(spec, times, n_replicas, seed, *,
                               initial_type=1):
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
            row = _reference_draw(spec.row_cum, spec.type_rows, j[lanes],
                                  rng.random(lanes.size))
            s[lanes] -= spec.row_log_mass[row]
            j[lanes] = spec.row_child[row]
            t_cur[lanes] = t_new[cont]
        active = lanes
    return out_j, out_s


def _reference_mass_ensemble(spec, times, n_replicas, seed, visit, *,
                             initial_type=1, mass_floor=DEFAULT_MASS_FLOOR,
                             replica_chunk=None, max_fragments=None):
    spec.check_type(initial_type)
    times = _observation_times(times, n_replicas)
    _check_mass_floor(mass_floor)
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
            ta = _reference_draw(spec.atom_cum, spec.type_atoms, s_typ,
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


# --- random models --------------------------------------------------------------------

@st.composite
def models(draw, conservative, eroding=False):
    """1-6 types with 0-3 atoms each; type 1 always splits.  A conservative
    model has 2-4 children per atom summing to mass 1; otherwise atoms keep
    a fraction of the mass and may be pure dust (no children).  A type with
    no atoms never splits, so tagged lanes that enter it are stuck.  An
    eroding model gives every type one erosion coefficient, maybe 0."""
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dislocation = {}
    for i in range(1, k + 1):
        atoms = []
        for _ in range(draw(st.integers(1 if i == 1 else 0, 3))):
            n = int(rng.integers(2, 5)) if conservative else int(rng.integers(0, 5))
            raw = rng.random(n) + 0.05
            masses = raw / raw.sum()
            if not conservative:
                masses = masses * rng.uniform(0.3, 1.0)
            types = rng.integers(1, k + 1, n)
            atoms.append((float(rng.uniform(0.1, 2.0)),
                          list(zip(masses, types))))
        dislocation[i] = atoms
    erosion = [draw(st.sampled_from([0.0, 0.3]))] * k if eroding else None
    return fragmentation_spec(k, dislocation, erosion)


# unsorted, with 0 and duplicates among the draws
observation_times = st.lists(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.5]), min_size=1, max_size=5)


def _recorder(calls):
    def visit(ti, rep, mass, typ, frozen):
        calls.append((ti,) + tuple((a.dtype.str, a.shape, a.tobytes())
                                   for a in (rep, mass, typ, frozen)))
    return visit


def _unfrozen(visit):
    """visit, passed only the rows that are not frozen, and never empty."""
    def unfrozen(ti, rep, mass, typ, frozen):
        if not frozen.all():
            visit(ti, rep[~frozen], mass[~frozen], typ[~frozen], frozen[~frozen])
    return unfrozen


def _run(driver, spec, times, n, seed, wrap=None, **kwargs):
    """(visits, dust or the error raised) of one run of driver, its visits
    passed through wrap if given."""
    calls = []
    visit = _recorder(calls)
    try:
        result = driver(spec, times, n, seed, wrap(visit) if wrap else visit,
                        **kwargs)
    except ResourceCapExceeded as exc:
        result = str(exc)
    return calls, result


def _mass_runs(spec, times, n, seed, **kwargs):
    """(visits, dust or the error raised) of the driver and the reference."""
    return [_run(driver, spec, times, n, seed, **kwargs)
            for driver in (mass_ensemble, _reference_mass_ensemble)]


def _drop_runs(spec, times, n, seed, **kwargs):
    """(visits, dust bytes or the error raised) of mass_ensemble with its
    frozen rows removed from each visit, and of the same run with
    drop_frozen."""
    runs = [_run(mass_ensemble, spec, times, n, seed, **mode, **kwargs)
            for mode in (dict(wrap=_unfrozen), dict(drop_frozen=True))]
    return [(calls, result if isinstance(result, str) else result.tobytes())
            for calls, result in runs]


# --- equality ------------------------------------------------------------------------

@reference_settings
@given(spec=models(conservative=False), times=observation_times,
       n=st.integers(1, 12), seed=st.integers(0, 2 ** 63),
       chunk=st.sampled_from([None, 1, 2, 3, 7]),
       floor=st.sampled_from([0.01, 0.05, 0.2]))
def test_mass_ensemble_matches_its_reference(spec, times, n, seed, chunk,
                                             floor):
    (calls, dust), (ref_calls, ref_dust) = _mass_runs(
        spec, times, n, seed, mass_floor=floor, replica_chunk=chunk)
    assert calls == ref_calls
    assert dust.tobytes() == ref_dust.tobytes()


@reference_settings
@given(spec=models(conservative=False, eroding=True), times=observation_times,
       n=st.integers(1, 12), seed=st.integers(0, 2 ** 63),
       chunk=st.sampled_from([None, 1, 3, 5]),
       floor=st.sampled_from([0.0, 0.05, 0.2, 1.0, 1.5]),
       cap=st.none() | st.integers(1, 300))
def test_dropping_frozen_fragments_removes_only_their_rows(spec, times, n,
                                                           seed, chunk, floor,
                                                           cap):
    # the same visits with every frozen row removed, the same dust, and the
    # same refusal at the same cap: dropped fragments are counted as grown
    unfrozen, dropped = _drop_runs(spec, times, n, seed, mass_floor=floor,
                                   replica_chunk=chunk, max_fragments=cap)
    assert dropped == unfrozen


@reference_settings
@given(spec=models(conservative=True), times=observation_times,
       n=st.integers(1, 40), seed=st.integers(0, 2 ** 63))
def test_tagged_ensemble_matches_its_reference(spec, times, n, seed):
    initial_type = 1 + seed % spec.k
    j, s = tagged_ensemble(spec, times, n, seed, initial_type=initial_type)
    ref_j, ref_s = _reference_tagged_ensemble(spec, times, n, seed,
                                              initial_type=initial_type)
    assert j.dtype == ref_j.dtype and j.tobytes() == ref_j.tobytes()
    assert s.dtype == ref_s.dtype and s.tobytes() == ref_s.tobytes()


def test_tagged_ensemble_matches_its_reference_with_stuck_lanes():
    # type 2 has no atoms: every lane that enters it stops jumping
    spec = fragmentation_spec(3, {1: [(1.0, [(0.6, 1), (0.4, 2)])],
                                  3: [(0.7, [(0.5, 2), (0.5, 3)])]})
    for typ in (1, 2, 3):
        j, s = tagged_ensemble(spec, [3.0, 0.0, 1.0], 200, 5, initial_type=typ)
        ref_j, ref_s = _reference_tagged_ensemble(spec, [3.0, 0.0, 1.0], 200, 5,
                                                  initial_type=typ)
        assert j.tobytes() == ref_j.tobytes() and s.tobytes() == ref_s.tobytes()
        assert (j[-1] == 2).any()


def _next_draws(driver, *args, **kwargs):
    """Run driver with every stream that replica_stream hands out, to the
    driver or to the references here, recorded; return the next random(4)
    of each stream after the run.  A draw after a chunk's last visit
    changes no output, so only the streams show it."""
    handed = []

    def recording(seed, replica):
        handed.append(streams.replica_stream(seed, replica))
        return handed[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate_module, "replica_stream", recording)
        patch.setitem(globals(), "replica_stream", recording)
        try:
            driver(*args, **kwargs)
        except ResourceCapExceeded:
            pass
    return [rng.random(4).tolist() for rng in handed]


@reference_settings
@given(spec=models(conservative=False), times=observation_times,
       n=st.integers(1, 12), seed=st.integers(0, 2 ** 63),
       chunk=st.sampled_from([None, 1, 3]),
       cap=st.sampled_from([None, 5, 40]))
def test_mass_ensemble_takes_the_draws_of_its_reference(spec, times, n, seed,
                                                        chunk, cap):
    draws = [_next_draws(driver, spec, times, n, seed, lambda *args: None,
                         mass_floor=0.05, replica_chunk=chunk,
                         max_fragments=cap)
             for driver in (mass_ensemble, _reference_mass_ensemble)]
    assert draws[0] == draws[1]


@reference_settings
@given(spec=models(conservative=True), times=observation_times,
       n=st.integers(1, 40), seed=st.integers(0, 2 ** 63))
def test_tagged_ensemble_takes_the_draws_of_its_reference(spec, times, n,
                                                          seed):
    draws = [_next_draws(driver, spec, times, n, seed,
                         initial_type=1 + seed % spec.k)
             for driver in (tagged_ensemble, _reference_tagged_ensemble)]
    assert len(draws[0]) == 1 and draws[0] == draws[1]


def _check_draw(spec, rng):
    """_selector's draw against _reference_draw on the atom and the row
    tables of spec, one type at a time and all drawable types mixed."""
    for cum, starts in ((spec.atom_cum, spec.type_atoms),
                        (spec.row_cum, spec.type_rows)):
        draw = simulate_module._selector(cum, starts)
        drawable = [i for i in range(1, spec.k + 1)
                    if starts[i + 1] > starts[i]]
        if not drawable:
            continue
        # every table entry, 0, the top uniform and random values
        u = np.concatenate([cum, [0.0, 1.0 - 2.0 ** -53], rng.random(50)])
        for typ in drawable:
            types = np.full(u.size, typ, dtype=np.int64)
            assert (draw(types, u).tobytes()
                    == _reference_draw(cum, starts, types, u).tobytes())
        types = rng.choice(drawable, u.size)
        assert (draw(types, u).tobytes()
                == _reference_draw(cum, starts, types, u).tobytes())


@reference_settings
@given(spec=models(conservative=False), seed=st.integers(0, 2 ** 63))
def test_draw_matches_its_reference(spec, seed):
    _check_draw(spec, np.random.default_rng(seed))


def test_draw_matches_its_reference_on_long_tables():
    # 300 atoms (600 rows) in type 1 and 256 atoms in type 4 beside a
    # one-entry table in type 2 and an empty one in type 3: nine bisection
    # passes over the atoms and ten over the rows, in tables 512 and 1024
    # wide, most of whose entries are +inf pads
    rng = np.random.default_rng(22)

    def atoms(n):
        return [(float(rate), [(0.5, 2), (0.5, 1)])
                for rate in rng.uniform(0.1, 2.0, n)]

    spec = fragmentation_spec(4, {1: atoms(300), 2: [(0.5, [(0.9, 1)])],
                                  4: atoms(256)})
    assert np.diff(spec.type_atoms).tolist() == [0, 300, 1, 0, 256]
    assert np.diff(spec.type_rows).tolist() == [0, 600, 1, 0, 512]
    _check_draw(spec, rng)


@pytest.mark.parametrize("longest", [3, 4, 7, 8])
def test_draw_matches_its_reference_at_power_of_two_widths(longest):
    # the draw's table is the power of two past the longest run wide: 3 and
    # 7 entries leave one +inf pad, 4 and 8 a row half empty.  Type 1 has
    # `longest` one-child atoms, type 2 one atom of `longest` children,
    # type 3 one atom of two, and type 4 none
    rng = np.random.default_rng(longest)
    spec = fragmentation_spec(4, {
        1: [(float(rate), [(0.5, 2)])
            for rate in rng.uniform(0.1, 2.0, longest)],
        2: [(1.0, [(float(m), 1) for m in np.full(longest, 1.0 / longest)])],
        3: [(0.5, [(0.7, 1), (0.3, 3)])]})
    assert np.diff(spec.type_atoms).tolist() == [0, longest, 1, 1, 0]
    assert np.diff(spec.type_rows).tolist() == [0, longest, longest, 2, 0]
    _check_draw(spec, rng)


def test_draw_counts_equal_entries_below():
    # SPEC-C: type 1 has one atom, type 2 one atom with three children
    spec = fragmentation_spec(2, {
        1: [(1.0, [(0.6, 1), (0.4, 2)])],
        2: [(1.0, [(0.5, 2), (0.3, 1), (0.2, 1)])]})
    cum, starts = spec.row_cum, spec.type_rows
    one, two = cum[starts[1]:starts[2]], cum[starts[2]:starts[3]]
    assert one[-1] == 1.0 and two[-1] == 1.0
    types = np.array([1, 1, 1, 2, 2, 2, 2])
    u = np.array([0.0, one[0], 0.99, 0.0, two[0], two[1], 0.95])
    assert (simulate_module._selector(cum, starts)(types, u).tolist()
            == [0, 1, 1, 2, 3, 4, 4])


@reference_settings
@given(spec=st.booleans().flatmap(lambda conservative: models(conservative)))
def test_scalar_and_vector_searches_draw_the_same_index(spec):
    # the single-path engines' bisect_right within a type's run and the wave
    # driver's draw, on every entry (each final 1.0 included), 0 and the
    # top uniform, for every type that has a table
    for cum, starts in ((spec.atom_cum, spec.type_atoms),
                        (spec.row_cum, spec.type_rows)):
        draw = simulate_module._selector(cum, starts)
        values = cum.tolist()
        u = np.array(values + [0.0, 1.0 - 2.0 ** -53])
        for typ in range(1, spec.k + 1):
            lo, hi = int(starts[typ]), int(starts[typ + 1])
            if lo < hi:
                types = np.full(u.size, typ, dtype=np.int64)
                assert draw(types, u).tolist() == [
                    bisect_right(values, x, lo, hi) for x in u.tolist()]


@pytest.mark.parametrize("floor", [0.0, 0.05])
def test_mass_ensemble_fragment_cap_refuses_the_same_runs(floor):
    spec = fragmentation_spec(2, {
        1: [(1.0, [(0.6, 1), (0.4, 2)]), (0.5, [])],
        2: [(1.0, [(0.5, 2), (0.3, 1), (0.1, 1)])]})
    raised = set()
    for cap in [1, 2, 5, 9, 10, 11, 30, 100, 300, 1000, 3000]:
        for chunk in (None, 2, 5):
            kwargs = dict(mass_floor=floor, replica_chunk=chunk,
                          max_fragments=cap)
            (calls, result), (ref_calls, ref_result) = _mass_runs(
                spec, [1.0, 3.0], 10, 4, **kwargs)
            assert calls == ref_calls
            # dropped fragments count as grown: the same refusals
            unfrozen, dropped = _drop_runs(spec, [1.0, 3.0], 10, 4, **kwargs)
            assert dropped == unfrozen
            assert type(result) is type(ref_result)
            if isinstance(result, str):
                assert result == ref_result
                raised.add(cap)
            else:
                assert result.tobytes() == ref_result.tobytes()
    assert 1 in raised and 3000 not in raised
