import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from multifrag import (
    asymptotic_frequencies,
    build_typed_mass_partition,
    frag,
    fragmentation_spec,
    mass_ensemble,
    one_block_partition,
    restrict,
    sample_paintbox,
    simulate_mass_fragmentation,
    simulate_partition_fragmentation,
    simulate_tagged,
    tagged_ensemble,
    typed_block_partition,
)
from multifrag import errors, simulate as simulate_module
from multifrag.simulate import Event, Fragment
from multifrag.errors import (
    DistinctErosionCoefficients,
    GroundSizeTooSmall,
    InvalidArgument,
    MultifragError,
    NotConservative,
    ResourceCapExceeded,
    TypeOutOfRange,
)
from multifrag.streams import replica_stream
from conftest import random_conservative_spec, semigroup

random_specs = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_conservative_spec(np.random.default_rng(seed)))
property_settings = settings(max_examples=25, deadline=None, derandomize=True)


def _ignore(ti, rep, mass, typ, frozen):
    pass

LN2 = math.log(2.0)


# --- mass-valued paths -----------------------------------------------------------

def test_first_event_spec_a(spec_a):
    path = simulate_mass_fragmentation(spec_a, 5.0, replica_stream(1, 0))
    t1 = path.events[0].time
    snap = path.snapshot(t1)
    assert snap.mass_partition() == build_typed_mass_partition(
        [(0.5, 1), (0.5, 1)])


def test_event_level_mass_conservation(spec_c):
    path = simulate_mass_fragmentation(spec_c, 6.0, replica_stream(2, 0))
    assert len(path.events) > 10
    for ev in path.events:
        parent = path.fragment(ev.parent)
        children = [path.fragment(c) for c in ev.children]
        atom = spec_c.atoms(parent.type)[ev.atom_index]
        got = sum(c.mass for c in children) + parent.mass * atom.outcome.dust
        assert abs(got - parent.mass) < 1e-9 * parent.mass
        # state stays normalized at the event instant
        snap = path.snapshot(ev.time)
        assert snap.total_mass() + snap.dust == pytest.approx(1.0, abs=1e-9)


def test_path_determinism(spec_c):
    p1 = simulate_mass_fragmentation(spec_c, 4.0, replica_stream(77, 3))
    p2 = simulate_mass_fragmentation(spec_c, 4.0, replica_stream(77, 3))
    assert p1.events == p2.events
    p3 = simulate_mass_fragmentation(spec_c, 4.0, replica_stream(77, 4))
    assert p1.events != p3.events


def test_mass_floor_freezes(spec_a):
    path = simulate_mass_fragmentation(spec_a, 25.0, replica_stream(3, 0),
                                       mass_floor=1e-3)
    snap = path.snapshot(25.0)
    # every fragment has mass 2^-g; nothing below the floor ever splits
    assert snap.masses.min() >= 1e-3 / 2.0
    assert snap.frozen.any()
    assert snap.total_mass() == pytest.approx(1.0, abs=1e-9)
    frozen_masses = snap.masses[snap.frozen]
    assert np.all(frozen_masses < 1e-3)


def test_fragment_cap(spec_a, monkeypatch):
    # the run budget holds a path to its count of fragments
    monkeypatch.setattr(errors, "MAX_RUN_BYTES", 157 * 100)
    with pytest.raises(ResourceCapExceeded, match="more than 100 fragments"):
        simulate_mass_fragmentation(spec_a, 20.0, replica_stream(4, 0),
                                    mass_floor=0.0)


def test_dust_pool_tracks_improper_atoms():
    dusty = fragmentation_spec(1, {1: [(1.0, [(0.5, 1), (0.3, 1)])]})
    assert not dusty.conservative
    path = simulate_mass_fragmentation(dusty, 4.0, replica_stream(5, 0))
    snap = path.snapshot(4.0)
    assert snap.dust > 0
    assert snap.total_mass() + snap.dust == pytest.approx(1.0, abs=1e-9)
    assert path.dust_at(0.0) == 0.0


def test_fragment_ids_outside_the_run_rejected(spec_c):
    path = simulate_mass_fragmentation(spec_c, 2.0, replica_stream(5, 1))
    assert path.fragment(0).parent is None
    assert path.fragment(path.n_fragments - 1).parent is not None
    for fid in (-1, path.n_fragments):
        with pytest.raises(InvalidArgument):
            path.fragment(fid)


# --- erosion ---------------------------------------------------------------------

def _eroding(spec, c):
    """spec's dislocations with erosion rate c for every type."""
    return fragmentation_spec(spec.k, {i: spec.atoms(i)
                                       for i in range(1, spec.k + 1)},
                              erosion=[c] * spec.k)


def test_erosion_identity_at_zero(spec_b):
    # erosion draws nothing: the eroding model grows the same path, and its
    # snapshots discount the masses by e^(-ct), which is 1 at c = 0 or t = 0
    plain = simulate_mass_fragmentation(spec_b, 2.0, replica_stream(6, 0))
    for c in (0.0, 0.7):
        path = simulate_mass_fragmentation(_eroding(spec_b, c), 2.0,
                                           replica_stream(6, 0))
        for t in (0.0, 1.5):
            snap, base = path.snapshot(t), plain.snapshot(t)
            assert np.array_equal(snap.types, base.types)
            assert np.array_equal(snap.frozen, base.frozen)
            assert np.array_equal(snap.masses,
                                  base.masses * math.exp(-c * t))
    assert np.array_equal(path.snapshot(0.0).masses, [1.0])


def test_erosion_discounts_single_fragment():
    # no dislocations: the unit fragment just melts at rate 1
    melt = fragmentation_spec(1, {1: []}, erosion=[1.0])
    path = simulate_mass_fragmentation(melt, 2.0, replica_stream(7, 0))
    snap = path.snapshot(LN2)
    assert snap.masses == pytest.approx([0.5])
    assert snap.dust == pytest.approx(0.5)
    seen = []
    mass_ensemble(melt, [LN2, 2.0], 3, 7,
                  lambda ti, rep, mass, typ, frozen: seen.append((ti, mass)))
    assert [(ti, list(mass)) for ti, mass in seen] == [
        (0, pytest.approx([0.5] * 3)), (1, pytest.approx([math.exp(-2)] * 3))]


def test_erosion_total_mass_closes(spec_c):
    spec = _eroding(spec_c, 0.7)
    times = [0.0, 1.0, 2.5]
    path = simulate_mass_fragmentation(spec, 3.0, replica_stream(8, 0))
    for t in times:
        snap = path.snapshot(t)
        assert snap.total_mass() + snap.dust == pytest.approx(1.0, abs=1e-12)
        assert snap.total_mass() == pytest.approx(math.exp(-0.7 * t), abs=1e-12)
    total = np.zeros((len(times), 20))

    def visit(ti, rep, mass, typ, frozen):
        np.add.at(total[ti], rep, mass)

    mass_ensemble(spec, times, 20, 8, visit)
    assert np.allclose(total, np.exp(-0.7 * np.array(times))[:, None],
                       rtol=0, atol=1e-12)


def test_erosion_frozen_flags_use_the_masses_before_erosion(spec_c):
    # at t = 3 the discount e^-3 takes every mass below a floor of 0.04
    floor, runs = 0.04, []
    for spec in (spec_c, _eroding(spec_c, 1.0)):
        snap = simulate_mass_fragmentation(
            spec, 3.0, replica_stream(12, 0), mass_floor=floor).snapshot(3.0)
        visits = []
        mass_ensemble(spec, [3.0], 20, 12,
                      lambda ti, rep, mass, typ, frozen:
                      visits.append((mass, frozen)), mass_floor=floor)
        runs.append((snap, visits))
    (plain, plain_visits), (snap, visits) = runs
    assert (snap.masses < floor).all() and not snap.frozen.all()
    assert np.array_equal(snap.frozen, plain.masses < floor)
    assert len(visits) == len(plain_visits)
    for (mass, frozen), (plain_mass, plain_frozen) in zip(visits,
                                                          plain_visits):
        assert np.array_equal(frozen, plain_frozen)
        assert np.array_equal(mass, plain_mass * math.exp(-3.0))


def test_erosion_rejects_distinct_coefficients(spec_c, monkeypatch):
    spec = fragmentation_spec(2, {1: spec_c.atoms(1), 2: spec_c.atoms(2)},
                              erosion=[0.5, 0.1])

    def no_stream(*args):
        raise AssertionError("drew before the erosion check")

    monkeypatch.setattr(simulate_module, "replica_stream", no_stream)
    # no generator at all: the check comes before any draw
    with pytest.raises(DistinctErosionCoefficients):
        simulate_mass_fragmentation(spec, 1.0, None)
    with pytest.raises(DistinctErosionCoefficients):
        mass_ensemble(spec, [1.0], 5, 9, _ignore)


# --- partition-valued paths ---------------------------------------------------------

def test_partition_initial_state(spec_b):
    path = simulate_partition_fragmentation(spec_b, 6, 0.5,
                                            replica_stream(10, 0))
    assert path.at(0.0) == one_block_partition(6, 1)
    # a numpy integer type comes out as a Python int, as the CLI writes it
    path = simulate_partition_fragmentation(spec_b, 6, 0.5,
                                            replica_stream(10, 0),
                                            initial_type=np.int64(2))
    assert path.at(0.0) == one_block_partition(6, 2)
    assert type(path.at(0.0).blocks[0][1]) is int


def test_partition_needs_two_points(spec_b):
    with pytest.raises(GroundSizeTooSmall):
        simulate_partition_fragmentation(spec_b, 1, 1.0, replica_stream(10, 1))


def test_partition_label_cap_fires_mid_run(spec_b, monkeypatch):
    # every event of SPEC-B stores its block's labels again, so a cap of
    # three times n is reached after a few events
    samples = []

    def counting_paintbox(*args):
        samples.append(args)
        return sample_paintbox(*args)

    monkeypatch.setattr(simulate_module, "sample_paintbox", counting_paintbox)
    # a budget of 24 labels, at 146 bytes each
    monkeypatch.setattr(errors, "MAX_RUN_BYTES", 24 * 146)
    path = simulate_partition_fragmentation(spec_b, 8, 0.01,
                                            replica_stream(10, 2))
    assert path.at(0.0) == one_block_partition(8, 1)
    with pytest.raises(ResourceCapExceeded, match="more than 24 labels"):
        simulate_partition_fragmentation(spec_b, 8, 50.0,
                                         replica_stream(10, 2))
    assert len(samples) >= 2
    with pytest.raises(ResourceCapExceeded):
        simulate_partition_fragmentation(spec_b, 25, 1.0,
                                         replica_stream(10, 2))


def test_tagged_jump_cap_refuses_before_any_draw(spec_c, monkeypatch):
    # SPEC-C splits at rate 1, so n paths to t expect at most n t jumps; a
    # path keeps its rows, 1 + t of them at 320 bytes each, and the ensemble
    # none
    monkeypatch.setattr(errors, "MAX_RUN_BYTES", 101 * 320)
    monkeypatch.setattr(simulate_module, "MAX_TAGGED_JUMPS", 1000)
    with pytest.raises(ResourceCapExceeded, match="more than 0 tagged paths"):
        simulate_tagged(spec_c, 101.0, None)
    with pytest.raises(ResourceCapExceeded, match="more than 1000"):
        tagged_ensemble(spec_c, [1.0, 101.0], 10, 5)
    assert simulate_tagged(spec_c, 100.0, replica_stream(5, 0)).n_jumps > 0
    tagged_ensemble(spec_c, [100.0], 10, 5)


def test_partition_first_event_split_probability(spec_a):
    # on {1, 2} the first hit keeps the block whole with probability 1/2
    reps = 4000
    split = 0
    for r in range(reps):
        path = simulate_partition_fragmentation(spec_a, 2, 50.0,
                                                replica_stream(11, r))
        assert len(path.times) >= 2
        first = path.at(path.times[1])
        if len(first.blocks) == 2:
            split += 1
    se = math.sqrt(0.25 / reps)
    assert abs(split / reps - 0.5) < 4 * se


def test_partition_blocks_match_mass_law(spec_b):
    # block-frequency type histogram of the partition process at time t
    # estimates the same matrix exponential row as the mass-valued process
    n, t, reps = 1000, 1.0, 300
    exact = semigroup(spec_b, 0.0, t)[0]
    fracs = np.zeros((reps, 2))
    for r in range(reps):
        path = simulate_partition_fragmentation(spec_b, n, t,
                                                replica_stream(12, r))
        freq = asymptotic_frequencies(path.at(t))
        for m, typ in freq.parts:
            fracs[r, typ - 1] += m
    est = fracs.mean(axis=0)
    # finite-n bias: block frequencies are off by O(1/sqrt(n)) per block
    se = fracs.std(axis=0, ddof=1) / math.sqrt(reps) + 2.0 / n
    assert np.all(np.abs(est - exact) < 4 * se)


def test_partition_largest_block_matches_largest_mass_law(spec_b):
    # generation of the largest block (its frequency is ~2^-g) has the law
    # of the generation of the largest mass fragment
    n, t, reps = 1000, 1.0, 400
    gen_freq = np.empty(reps, dtype=int)
    gen_mass = np.empty(reps, dtype=int)
    for r in range(reps):
        ppath = simulate_partition_fragmentation(spec_b, n, t,
                                                 replica_stream(13, r))
        top = max(len(elems) for elems, _ in ppath.at(t).blocks)
        gen_freq[r] = round(-math.log(top / n) / LN2)
        mpath = simulate_mass_fragmentation(spec_b, t, replica_stream(14, r))
        gen_mass[r] = round(-math.log(mpath.snapshot(t).masses.max()) / LN2)
    top_gen = max(gen_freq.max(), gen_mass.max())
    table = np.array([np.bincount(gen_freq, minlength=top_gen + 1),
                      np.bincount(gen_mass, minlength=top_gen + 1)])
    keep = table.sum(axis=0) >= 10
    assert stats.chi2_contingency(table[:, keep]).pvalue > 0.01


def random_dusty_spec(rng: np.random.Generator):
    """random_conservative_spec with every child mass scaled down by its own
    factor in [0.3, 1), so each atom sheds part of its mass as dust."""
    spec = random_conservative_spec(rng)
    return fragmentation_spec(spec.k, {
        i: [(atom.weight, [(mass * rng.uniform(0.3, 1.0), typ)
                           for mass, typ in atom.outcome.parts])
            for atom in spec.atoms(i)]
        for i in range(1, spec.k + 1)})


dusty_specs = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_dusty_spec(np.random.default_rng(seed)))


def _reference_partition_run(spec, n, t_max, rng):
    """The partition engine as a full validated state after every event:
    the reference for the block-lifetime record.  Same draws, same order."""
    rates, cums = spec.type_rate, spec.atom_cum
    blocks, heap, uids = {}, [], itertools.count()

    def add_block(elems, typ, birth):
        uid = next(uids)
        blocks[uid] = (elems, typ)
        if typ != 0 and rates[typ] > 0:
            heapq.heappush(heap, (birth + rng.exponential(1.0 / rates[typ]), uid))

    times, states = [0.0], [one_block_partition(n, 1)]
    add_block(tuple(range(1, n + 1)), 1, 0.0)
    while heap and heap[0][0] <= t_max:
        time, uid = heapq.heappop(heap)
        elems, typ = blocks.pop(uid)
        atom_idx = int(np.searchsorted(cums[typ], rng.random(), side="right"))
        local = sample_paintbox(spec.dislocation[typ - 1][atom_idx].outcome,
                                len(elems), rng)
        for sub, sub_typ in local.blocks:
            add_block(tuple(elems[e - 1] for e in sub), sub_typ, time)
        times.append(time)
        states.append(typed_block_partition(n, blocks.values()))
    return times, states


@property_settings
@given(spec=st.one_of(random_specs, dusty_specs),
       seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(2, 40), t_max=st.floats(0.1, 3.0))
def test_partition_record_matches_per_event_states(spec, seed, n, t_max):
    path = simulate_partition_fragmentation(spec, n, t_max,
                                            replica_stream(seed, 0))
    times, states = _reference_partition_run(spec, n, t_max,
                                             replica_stream(seed, 0))
    assert path.times == times
    for tau, state in zip(times, states):
        assert path.at(tau) == state
    assert path.at(t_max) == states[-1]


# --- queries outside the run ----------------------------------------------------------

RECORDS = {
    "mass": lambda spec: simulate_mass_fragmentation(
        spec, 2.0, replica_stream(33, 0)).snapshot,
    "dust": lambda spec: simulate_mass_fragmentation(
        spec, 2.0, replica_stream(33, 0)).dust_at,
    "eroded": lambda spec: simulate_mass_fragmentation(
        _eroding(spec, 0.5), 2.0, replica_stream(33, 0)).snapshot,
    "partition": lambda spec: simulate_partition_fragmentation(
        spec, 8, 2.0, replica_stream(33, 1)).at,
    "tagged": lambda spec: simulate_tagged(
        spec, 2.0, replica_stream(33, 2)).at,
}


@pytest.mark.parametrize("record", list(RECORDS))
def test_records_reject_times_outside_the_run(spec_c, record):
    ask, t_max = RECORDS[record](spec_c), 2.0
    ask(0.0)
    ask(t_max)
    for t in (-1.0, t_max + 1.0, math.nan):
        with pytest.raises(InvalidArgument):
            ask(t)


HORIZONS = {
    "mass": lambda spec, t_max: simulate_mass_fragmentation(
        spec, t_max, replica_stream(34, 0)),
    "partition": lambda spec, t_max: simulate_partition_fragmentation(
        spec, 8, t_max, replica_stream(34, 0)),
    "tagged": lambda spec, t_max: simulate_tagged(
        spec, t_max, replica_stream(34, 0)),
}


@pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("engine", list(HORIZONS))
def test_engines_reject_horizons_that_are_not_positive_and_finite(
        spec_c, engine, t_max):
    with pytest.raises(InvalidArgument):
        HORIZONS[engine](spec_c, t_max)


FLOORS = {
    "mass": lambda spec, floor: simulate_mass_fragmentation(
        spec, 2.0, replica_stream(35, 0), mass_floor=floor),
    "mass_ensemble": lambda spec, floor: mass_ensemble(
        spec, [2.0], 5, 35, _ignore, mass_floor=floor),
}


@pytest.mark.parametrize("floor", [math.nan, -1.0, -1e-300, math.inf])
@pytest.mark.parametrize("engine", list(FLOORS))
def test_engines_reject_mass_floors_that_are_not_finite_and_nonnegative(
        spec_c, engine, floor):
    # a NaN or negative floor would never freeze anything
    with pytest.raises(InvalidArgument):
        FLOORS[engine](spec_c, floor)


@pytest.mark.parametrize("floor", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("engine", list(FLOORS))
def test_engines_accept_finite_nonnegative_mass_floors(spec_c, engine, floor):
    FLOORS[engine](spec_c, floor)


# --- tagged paths ----------------------------------------------------------------------

def test_tagged_requires_conservative():
    dusty = fragmentation_spec(1, {1: [(1.0, [(0.5, 1), (0.3, 1)])]})
    with pytest.raises(NotConservative):
        simulate_tagged(dusty, 1.0, replica_stream(13, 0))


def test_tagged_spec_a_is_scaled_poisson(spec_a):
    reps, t = 4000, 3.0
    s_vals = np.empty(reps)
    for r in range(reps):
        path = simulate_tagged(spec_a, t, replica_stream(14, r))
        j, s = path.at(t)
        assert j == 1
        # jumps all equal ln 2
        assert s / LN2 == pytest.approx(path.n_jumps)
        s_vals[r] = s
    n = s_vals / LN2
    assert abs(n.mean() - t) < 4 * math.sqrt(t / reps)
    assert abs(n.var(ddof=1) - t) < 4 * t * math.sqrt(2.0 / reps)


def test_tagged_spec_b_alternates(spec_b):
    path = simulate_tagged(spec_b, 8.0, replica_stream(15, 0))
    js = path.j_values
    assert all(a != b for a, b in zip(js, js[1:]))
    assert np.allclose(np.diff(path.s_values), LN2)


def test_tagged_ensemble_matches_matrix_exponential(spec_c):
    reps = 30000
    j, s = tagged_ensemble(spec_c, [1.0, 2.5], reps, 16)
    for ti, t in enumerate((1.0, 2.5)):
        for th in (0.5, 1.5):
            exact = semigroup(spec_c, th, t)[0]
            for typ in (1, 2):
                vals = np.exp(-th * s[ti]) * (j[ti] == typ)
                se = vals.std(ddof=1) / math.sqrt(reps)
                assert abs(vals.mean() - exact[typ - 1]) < 4 * se


def test_tagged_ensemble_matches_scalar_paths(spec_c):
    # same law as the one-path simulator (KS on S, chi2 on J)
    reps, t = 3000, 1.5
    j_e, s_e = tagged_ensemble(spec_c, [t], reps, 17)
    s_scalar = np.empty(reps)
    j_scalar = np.empty(reps, dtype=int)
    for r in range(reps):
        path = simulate_tagged(spec_c, t, replica_stream(18, r))
        j_scalar[r], s_scalar[r] = path.at(t)
    assert stats.ks_2samp(s_e[0], s_scalar).pvalue > 0.01
    table = np.array([[np.sum(j_e[0] == 1), np.sum(j_e[0] == 2)],
                      [np.sum(j_scalar == 1), np.sum(j_scalar == 2)]])
    assert stats.chi2_contingency(table).pvalue > 0.01


def test_tagged_vs_size_biased_extraction(spec_c):
    # (S_t, J_t) of the tagged simulator against a size-biased pick from the
    # full population.  S is discrete here and the two routes compute its
    # atoms by different float paths, so quantize before comparing laws.
    reps, t = 3000, 1.5
    rng = replica_stream(19, 10**6)
    s_full = np.empty(reps)
    j_full = np.empty(reps, dtype=int)
    for r in range(reps):
        path = simulate_mass_fragmentation(spec_c, t, replica_stream(19, r))
        snap = path.snapshot(t)
        idx = np.searchsorted(np.cumsum(snap.masses), rng.random())
        s_full[r] = -math.log(snap.masses[idx])
        j_full[r] = snap.types[idx]
    j_tag, s_tag = tagged_ensemble(spec_c, [t], reps, 20)
    assert stats.ks_2samp(s_full.round(9), s_tag[0].round(9)).pvalue > 0.01
    table = np.array([[np.sum(j_full == 1), np.sum(j_full == 2)],
                      [np.sum(j_tag[0] == 1), np.sum(j_tag[0] == 2)]])
    assert stats.chi2_contingency(table).pvalue > 0.01


def test_tagged_increments_are_markov_additive(spec_c):
    # S_{t+t'} - S_t given J_t = j is distributed as S_{t'} started from j
    reps, t, tp = 4000, 1.0, 1.5
    j, s = tagged_ensemble(spec_c, [t, t + tp], reps, 21)
    for typ in (1, 2):
        sel = j[0] == typ
        incr = s[1][sel] - s[0][sel]
        _, s_ref = tagged_ensemble(spec_c, [tp], reps, 22, initial_type=typ)
        assert stats.ks_2samp(incr.round(9), s_ref[0].round(9)).pvalue > 0.01


# --- vectorized population engine -----------------------------------------------------

def _moment_reducer(reps, k, thetas, n_times):
    acc = np.zeros((n_times, reps, len(thetas), k))

    def visit(ti, rep, mass, typ, frozen):
        for gi, th in enumerate(thetas):
            w = mass ** (1.0 + th)
            for j in range(1, k + 1):
                sel = typ == j
                np.add.at(acc[ti, :, gi, j - 1], rep[sel], w[sel])

    return acc, visit


def test_mass_ensemble_matches_matrix_exponential(spec_c):
    reps, times, thetas = 3000, [1.0, 2.0], [0.0, 1.0]
    acc, visit = _moment_reducer(reps, 2, thetas, len(times))
    dust = mass_ensemble(spec_c, times, reps, 23, visit)
    assert np.all(dust == 0.0)
    for ti, t in enumerate(times):
        for gi, th in enumerate(thetas):
            exact = semigroup(spec_c, th, t)[0]
            for j in (1, 2):
                vals = acc[ti, :, gi, j - 1]
                se = vals.std(ddof=1) / math.sqrt(reps)
                assert abs(vals.mean() - exact[j - 1]) < 4 * se + 1e-12


def test_mass_ensemble_agrees_with_heap_paths(spec_c):
    # same second moments from both engines, within joint error bars
    reps, t, th = 2500, 1.5, 1.0
    acc, visit = _moment_reducer(reps, 2, [th], 1)
    mass_ensemble(spec_c, [t], reps, 24, visit)
    wave_vals = acc[0, :, 0, :].sum(axis=1)
    heap_vals = np.empty(reps)
    for r in range(reps):
        path = simulate_mass_fragmentation(spec_c, t, replica_stream(25, r))
        snap = path.snapshot(t)
        heap_vals[r] = np.sum(snap.masses ** (1.0 + th))
    se = math.hypot(wave_vals.std(ddof=1), heap_vals.std(ddof=1))
    se /= math.sqrt(reps)
    assert abs(wave_vals.mean() - heap_vals.mean()) < 4 * se


def test_mass_ensemble_is_deterministic_and_chunk_sensitive(spec_b):
    def run(chunk):
        acc, visit = _moment_reducer(50, 2, [0.0], 1)
        mass_ensemble(spec_b, [1.0], 50, 26, visit, replica_chunk=chunk)
        return acc

    assert np.array_equal(run(None), run(None))
    assert np.array_equal(run(1), run(1))


def test_mass_ensemble_three_types_mixed_atoms():
    # heterogeneous atom sizes across three types, checked end to end
    # against the matrix exponential
    spec = fragmentation_spec(3, {
        1: [(0.8, [(0.5, 2), (0.25, 1), (0.25, 3)]),
            (0.4, [(0.7, 3), (0.3, 3)])],
        2: [(1.5, [(0.4, 1), (0.3, 2), (0.2, 3), (0.1, 1)])],
        3: [(0.6, [(0.9, 1), (0.1, 2)])],
    })
    reps, t, th = 4000, 1.2, 0.8
    acc, visit = _moment_reducer(reps, 3, [th], 1)
    mass_ensemble(spec, [t], reps, 29, visit, initial_type=2)
    exact = semigroup(spec, th, t)[1]
    for j in (1, 2, 3):
        vals = acc[0, :, 0, j - 1]
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - exact[j - 1]) < 4 * se


def test_runs_past_the_byte_budget_are_refused(spec_c, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("drew before the run was admitted")

    monkeypatch.setattr(simulate_module, "replica_stream", no_work)
    monkeypatch.setattr(simulate_module, "sample_paintbox", no_work)
    # 2^64 replicas' dust passes the budget, whatever max_fragments says
    with pytest.raises(ResourceCapExceeded, match="replicas' dust"):
        mass_ensemble(spec_c, [1.0], 2 ** 64, 1, _ignore, max_fragments=10)
    with pytest.raises(ResourceCapExceeded, match="tagged replicas"):
        tagged_ensemble(spec_c, [1e-9], 2 ** 40, 1)
    with pytest.raises(ResourceCapExceeded, match="labels stored"):
        simulate_partition_fragmentation(spec_c, 2 ** 30, 1.0, None)
    for k in (10 ** 5, 10 ** 12):
        with pytest.raises(ResourceCapExceeded, match="cells of k x k"):
            fragmentation_spec(k, {})


def test_growth_past_the_byte_budget_is_refused(spec_c, monkeypatch):
    # with no floor the population grows until the budget's count stops it,
    # long before max_fragments would
    monkeypatch.setattr(errors, "MAX_RUN_BYTES", 2 ** 22)
    with pytest.raises(ResourceCapExceeded, match="in one wave"):
        mass_ensemble(spec_c, [60.0], 1, 1, _ignore, mass_floor=0.0,
                      max_fragments=10 ** 9)
    with pytest.raises(ResourceCapExceeded,
                       match=f"more than {2 ** 22 // 157} fragments"):
        simulate_mass_fragmentation(spec_c, 60.0, replica_stream(1, 0),
                                    mass_floor=0.0)


@pytest.mark.parametrize("seed, replica", [
    (0, 2 ** 64), (2 ** 64, 0), (np.int64(-1), 0), (1.5, 0), (0, 1.0),
    (np.float64(2.0), 0), ("1", 0), (None, 0)],
    ids=["replica-2^64", "seed-2^64", "numpy-negative", "float-seed",
         "float-replica", "numpy-float", "string", "none"])
def test_replica_stream_refuses_keys_that_are_not_64_bit_integers(seed,
                                                                  replica):
    with pytest.raises(InvalidArgument, match="not an integer in"):
        replica_stream(seed, replica)


def test_mass_ensemble_respects_fragment_cap(spec_a):
    def visit(ti, rep, mass, typ, frozen):
        pass

    with pytest.raises(ResourceCapExceeded):
        mass_ensemble(spec_a, [15.0], 10, 27, visit, mass_floor=0.0,
                      max_fragments=1000)


def test_mass_ensemble_tracks_dust():
    dusty = fragmentation_spec(1, {1: [(1.0, [(0.5, 1), (0.3, 1)])]})
    hold = np.zeros((1, 200, 1, 1))

    def visit(ti, rep, mass, typ, frozen):
        np.add.at(hold[0, :, 0, 0], rep, mass)

    dust = mass_ensemble(dusty, [2.0], 200, 28, visit)
    # replicas with no dislocation by t have no dust yet
    assert (dust > 0).mean() > 0.5
    assert np.allclose(hold[0, :, 0, 0] + dust, 1.0, atol=1e-9)


# --- argument checks shared by the engines ----------------------------------------

ENGINES = {
    "heap": lambda spec, typ: simulate_mass_fragmentation(
        spec, 1.0, replica_stream(30, 0), initial_type=typ),
    "partition": lambda spec, typ: simulate_partition_fragmentation(
        spec, 4, 1.0, replica_stream(30, 0), initial_type=typ),
    "tagged": lambda spec, typ: simulate_tagged(
        spec, 1.0, replica_stream(30, 0), initial_type=typ),
    "tagged_ensemble": lambda spec, typ: tagged_ensemble(
        spec, [1.0], 5, 30, initial_type=typ),
    "mass_ensemble": lambda spec, typ: mass_ensemble(
        spec, [1.0], 5, 30, _ignore, initial_type=typ),
    "atoms": lambda spec, typ: spec.atoms(typ),
    "total_rate": lambda spec, typ: spec.total_rate(typ),
}


@pytest.mark.parametrize("typ", [0, 3])
@pytest.mark.parametrize("engine", list(ENGINES))
def test_initial_type_outside_types_rejected(spec_b, engine, typ):
    with pytest.raises(TypeOutOfRange):
        ENGINES[engine](spec_b, typ)


@pytest.mark.parametrize("call", [
    lambda spec: mass_ensemble(spec, [], 5, 31, _ignore),
    lambda spec: mass_ensemble(spec, [-1.0, 1.0], 5, 31, _ignore),
    lambda spec: mass_ensemble(spec, [1.0], 0, 31, _ignore),
    lambda spec: mass_ensemble(spec, [1.0], 5, 31, _ignore, replica_chunk=0),
    lambda spec: tagged_ensemble(spec, [], 5, 31),
    lambda spec: tagged_ensemble(spec, [-1.0], 5, 31),
    lambda spec: tagged_ensemble(spec, [math.nan], 5, 31),
    lambda spec: tagged_ensemble(spec, [1.0], 0, 31),
], ids=["mass-no-times", "mass-negative-time", "mass-no-replicas",
        "mass-zero-chunk", "tagged-no-times", "tagged-negative-time",
        "tagged-nan-time", "tagged-no-replicas"])
def test_ensemble_arguments_checked(spec_c, call):
    with pytest.raises(InvalidArgument) as err:
        call(spec_c)
    assert isinstance(err.value, MultifragError)
    assert isinstance(err.value, ValueError)


class _TopUniform:
    """Generator stub: every exponential draw is 0.25 and every uniform
    draw is 1 - 2^-53, the largest value Generator.random returns."""

    def exponential(self, scale=1.0, size=None):
        return 0.25 if size is None else np.full(size, 0.25)

    def random(self, size=None):
        top = 1.0 - 2.0 ** -53
        return top if size is None else np.full(size, top)


@pytest.mark.parametrize("engine", ["tagged", "tagged_ensemble"])
def test_tagged_engines_take_the_top_uniform(monkeypatch, engine):
    # a one-type model whose cumulative weight * mass / rate sums to 1 - 2^-53
    spec = random_conservative_spec(np.random.default_rng(30))
    raw = np.cumsum(spec.row_weight * spec.row_mass / spec.total_rate(1))
    assert spec.k == 1 and raw[-1] == 1.0 - 2.0 ** -53
    last_jump = -spec.row_log_mass[-1]
    if engine == "tagged":
        path = simulate_tagged(spec, 1.0, _TopUniform())
        s = np.array(path.s_values[1:])
        assert path.n_jumps == 4
    else:
        monkeypatch.setattr(simulate_module, "replica_stream",
                            lambda seed, r: _TopUniform())
        _, s = tagged_ensemble(spec, [1.0], 3, 32)
    # every jump lands in the last child of the last atom
    assert np.allclose(s / last_jump, np.round(s / last_jump))
    assert np.all(s > 0)


# --- flat engines against their per-record references ---------------------------------

def _reference_heap_run(spec, t_max, rng, initial_type, mass_floor,
                        max_fragments=None):
    """The heap engine with one record per fragment and an Event per
    dislocation: the reference for the flat-column record.  Same draws,
    same order.  Returns the fragments as [mass, type, parent, birth, end],
    the events and the dust pool as (time, cumulative dust) steps."""
    rates, cums = spec.type_rate, spec.atom_cum
    frags, events, dust, heap = [], [], [(0.0, 0.0)], []

    def spawn(mass, typ, parent, birth):
        frags.append([mass, typ, parent, birth, math.inf])
        if max_fragments is not None and len(frags) > max_fragments:
            raise ResourceCapExceeded(f"more than {max_fragments} fragments")
        if not mass < mass_floor and rates[typ] > 0:
            heapq.heappush(heap, (birth + rng.exponential(1.0 / rates[typ]),
                                  len(frags) - 1))
        return len(frags) - 1

    spawn(1.0, initial_type, None, 0.0)
    while heap and heap[0][0] <= t_max:
        time, fid = heapq.heappop(heap)
        mass, typ = frags[fid][:2]
        atom_idx = int(np.searchsorted(cums[typ], rng.random(), side="right"))
        outcome = spec.dislocation[typ - 1][atom_idx].outcome
        frags[fid][4] = time
        children = tuple(spawn(mass * m, i, fid, time)
                         for m, i in outcome.parts)
        events.append(Event(time, fid, atom_idx, children))
        if outcome.dust > 0.0:
            dust.append((time, dust[-1][1] + mass * outcome.dust))
    return frags, events, dust


def _reference_snapshot(frags, dust, mass_floor, t):
    alive = [f for f in frags if f[3] <= t < f[4]]
    return (np.array([f[0] for f in alive]),
            np.array([f[1] for f in alive], dtype=np.int64),
            np.array([f[0] < mass_floor for f in alive], dtype=bool),
            [value for time, value in dust if time <= t][-1])


def _reference_tagged_run(spec, t_max, rng, initial_type):
    """The tagged engine drawing through np.searchsorted: the reference for
    the list-and-bisect engine.  Same draws, same order."""
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
    return times, js, ss


@property_settings
@given(spec=st.one_of(random_specs, dusty_specs),
       seed=st.integers(0, 2 ** 32 - 1), t_max=st.floats(1.0, 8.0),
       mass_floor=st.sampled_from([0.003, 0.02, 0.1]),
       queries=st.lists(st.floats(0.0, 1.0), max_size=5))
def test_heap_record_matches_reference(spec, seed, t_max, mass_floor,
                                       queries):
    initial_type = 1 + seed % spec.k
    frags, events, dust = _reference_heap_run(
        spec, t_max, replica_stream(seed, 0), initial_type, mass_floor)
    path = simulate_mass_fragmentation(
        spec, t_max, replica_stream(seed, 0), initial_type=initial_type,
        mass_floor=mass_floor)
    assert path.n_fragments == len(frags)
    for i, (mass, typ, parent, birth, _) in enumerate(frags):
        assert path.fragment(i) == Fragment(i, mass, typ, parent, birth)
    mass, typ, birth, end = path._columns
    assert end.tolist() == [f[4] for f in frags]
    assert path.events == events
    for time, value in dust:
        assert path.dust_at(time) == value
    for t in [ev.time for ev in events] + [t_max * q for q in queries]:
        snap = path.snapshot(t)
        masses, types, frozen, pool = _reference_snapshot(frags, dust,
                                                          mass_floor, t)
        for got, want in ((snap.masses, masses), (snap.types, types),
                          (snap.frozen, frozen)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert snap.dust == pool


@property_settings
@given(spec=st.one_of(random_specs, dusty_specs),
       seed=st.integers(0, 2 ** 32 - 1), cap=st.integers(0, 400))
def test_fragment_cap_matches_reference(spec, seed, cap):
    # a budget that admits cap fragments: the same fragment trips it in
    # both, with the same draws taken
    rng_ref, rng = replica_stream(seed, 0), replica_stream(seed, 0)
    try:
        _reference_heap_run(spec, 3.0, rng_ref, 1, 0.01, cap)
        raised = False
    except ResourceCapExceeded:
        raised = True
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(errors, "MAX_RUN_BYTES", 157 * cap)
        if raised:
            with pytest.raises(ResourceCapExceeded,
                               match=f"more than {cap} fragments"):
                simulate_mass_fragmentation(spec, 3.0, rng, mass_floor=0.01)
        else:
            path = simulate_mass_fragmentation(spec, 3.0, rng,
                                               mass_floor=0.01)
            assert path.n_fragments <= cap
    assert rng.random(4).tolist() == rng_ref.random(4).tolist()


@property_settings
@given(spec=random_specs, seed=st.integers(0, 2 ** 32 - 1),
       t_max=st.floats(0.1, 20.0))
def test_tagged_path_matches_reference(spec, seed, t_max):
    initial_type = 1 + seed % spec.k
    path = simulate_tagged(spec, t_max, replica_stream(seed, 0),
                           initial_type=initial_type)
    times, js, ss = _reference_tagged_run(spec, t_max, replica_stream(seed, 0),
                                          initial_type)
    assert (path.times, path.j_values, path.s_values) == (times, js, ss)


# --- properties over random conservative models --------------------------------------

@property_settings
@given(spec=random_specs, seed=st.integers(0, 2 ** 32 - 1))
def test_heap_events_conserve_mass(spec, seed):
    path = simulate_mass_fragmentation(spec, 3.0, replica_stream(seed, 0),
                                       mass_floor=1e-3)
    for ev in path.events:
        parent = path.fragment(ev.parent).mass
        children = sum(path.fragment(c).mass for c in ev.children)
        assert abs(children - parent) <= 1e-12 * parent


@property_settings
@given(spec=random_specs, seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(2, 10), t=st.floats(0.1, 3.0))
def test_frag_restrict_compatible_on_engine_states(spec, seed, n, t):
    # a partition-engine state, split by paintbox samples of the model's atoms
    rng = replica_stream(seed, 0)
    pi = simulate_partition_fragmentation(spec, n, t, rng).at(t)
    atoms = [a for i in range(1, spec.k + 1) for a in spec.atoms(i)]
    splitters = [sample_paintbox(atoms[int(rng.integers(len(atoms)))].outcome,
                                 n, rng) for _ in pi.blocks]
    for m in range(1, n + 1):
        small = restrict(pi, range(1, m + 1))
        assert (restrict(frag(pi, splitters), range(1, m + 1))
                == frag(small, splitters[:len(small.blocks)]))
