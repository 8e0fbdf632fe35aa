import numpy as np
import pytest

from multifrag import (
    asymptotic_frequencies,
    build_typed_mass_partition,
    dislocate_term,
    frag,
    mass_partition_distance,
    one_block_partition,
    restrict,
    typed_block_partition,
)
from multifrag.errors import (
    EmptyGroundSet,
    GroundSizeMismatch,
    InvalidArgument,
    MassSumExceedsOne,
    NegativeMass,
    TypeOutOfRange,
    ZeroMassWithNonzeroType,
)


# --- typed mass-partitions -------------------------------------------------

@pytest.mark.parametrize("pairs, size, total", [
    ([], 0, 0.0),
    ([(0.5, 1)], 1, 0.5),
    ([(0.25, 2), (0.5, 1), (0.125, 1)], 3, 0.875),
], ids=["all-dust", "one-part", "three-parts"])
def test_mass_partition_length_and_total_mass(pairs, size, total):
    x = build_typed_mass_partition(pairs)
    assert len(x) == size
    assert x.total_mass() == total and x.total_mass() + x.dust == 1.0


def test_build_sorts_and_computes_dust():
    p = build_typed_mass_partition([(0.25, 2), (0.5, 1)])
    assert p.parts == ((0.5, 1), (0.25, 2))
    assert p.dust == pytest.approx(0.25)


def test_equal_masses_break_ties_by_descending_type():
    p = build_typed_mass_partition([(1 / 3, 1), (1 / 3, 2)])
    assert p.types() == (2, 1)


def test_positive_mass_needs_positive_type():
    # mass > 0 with type 0 violates the mass/type coupling, not the
    # zero-mass rule
    with pytest.raises(TypeOutOfRange):
        build_typed_mass_partition([(0.5, 0)])


def test_zero_mass_needs_type_zero():
    with pytest.raises(ZeroMassWithNonzeroType):
        build_typed_mass_partition([(0.0, 3)])
    # (0, 0) entries are simply dropped
    p = build_typed_mass_partition([(0.0, 0), (0.5, 1)])
    assert p.parts == ((0.5, 1),)


def test_build_rejects_bad_input():
    with pytest.raises(NegativeMass):
        build_typed_mass_partition([(-0.1, 1)])
    with pytest.raises(MassSumExceedsOne):
        build_typed_mass_partition([(0.7, 1), (0.7, 1)])
    with pytest.raises(TypeOutOfRange):
        build_typed_mass_partition([(0.5, 3)], k=2)
    # a NaN running sum would send every paintbox label to the dust
    for pairs in [(float("nan"), 1)], [(0.3, 1), (np.float64("nan"), 2)]:
        with pytest.raises(InvalidArgument, match="mass nan is not a number"):
            build_typed_mass_partition(pairs)


def test_ranking_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        raw = rng.random(5)
        masses = raw / raw.sum() * rng.uniform(0.3, 1.0)
        pairs = list(zip(masses, rng.integers(1, 4, 5)))
        p = build_typed_mass_partition(pairs)
        assert build_typed_mass_partition(p.parts) == p


def test_dislocate_term_matches_worked_example():
    # state ((1/2,4),(1/3,3),(1/6,1)); the second term is dislocated by
    # ((2/3,2),(1/3,1)) giving ((1/2,4),(2/9,2),(1/6,1),(1/9,1))
    state = build_typed_mass_partition([(1 / 2, 4), (1 / 3, 3), (1 / 6, 1)])
    outcome = build_typed_mass_partition([(2 / 3, 2), (1 / 3, 1)])
    new = dislocate_term(state, 1, outcome)
    assert new.types() == (4, 2, 1, 1)
    assert new.masses() == pytest.approx((1 / 2, 2 / 9, 1 / 6, 1 / 9))
    assert new.dust == pytest.approx(0.0, abs=1e-15)


# --- typed block partitions --------------------------------------------------

def test_block_partition_validation():
    with pytest.raises(TypeOutOfRange):
        typed_block_partition(2, [((1,), 1), ((2,), 0)])
    with pytest.raises(TypeOutOfRange):
        typed_block_partition(2, [((1, 2), 0)])
    with pytest.raises(GroundSizeMismatch):
        typed_block_partition(2, [((1,), 0)])
    with pytest.raises(GroundSizeMismatch):
        typed_block_partition(2, [((1, 2), 1), ((2,), 0)])


@pytest.mark.parametrize("ground_size, blocks, want", [
    (0, [], EmptyGroundSet),
    (2, [((), 1), ((1, 2), 1)], (((1, 2), 1),)),
    (2, [((1, 3), 1)], GroundSizeMismatch),
    (2, [((0, 1), 1), ((2,), 0)], GroundSizeMismatch),
], ids=["ground-size-0", "empty-block-skipped", "element-above-n",
        "element-below-1"])
def test_block_partition_edge_cases(ground_size, blocks, want):
    if isinstance(want, type):
        with pytest.raises(want):
            typed_block_partition(ground_size, blocks)
    else:
        p = typed_block_partition(ground_size, blocks)
        assert p.blocks == want and len(p) == len(want)


@pytest.mark.parametrize("typ", [0, 1, 3])
def test_one_block_partition_of_one_element_is_a_type_zero_singleton(typ):
    p = one_block_partition(1, typ)
    assert p.ground_size == 1 and p.blocks == (((1,), 0),)


@pytest.mark.parametrize("subset", [[0, 1], [2, 4], [-1]],
                         ids=["zero", "above-n", "negative"])
def test_restrict_refuses_a_subset_outside_the_ground_set(subset):
    with pytest.raises(GroundSizeMismatch):
        restrict(one_block_partition(3, 1), subset)


def test_restrict_all_singletons_get_type_zero():
    p = typed_block_partition(4, [((1, 2, 3), 2), ((4,), 0)])
    r = restrict(p, {1, 4})
    assert r.ground_size == 2
    assert r.blocks == (((1,), 0), ((2,), 0))


def test_restrict_keeps_types_of_surviving_blocks():
    p = typed_block_partition(5, [((1, 3, 5), 3), ((2, 4), 1)])
    r = restrict(p, {1, 2, 3})
    assert r.blocks == (((1, 3), 3), ((2,), 0))


def test_restrict_to_full_ground_set_is_identity():
    p = typed_block_partition(5, [((1, 3, 5), 3), ((2, 4), 1)])
    assert restrict(p, range(1, 6)) == p


def test_restrict_rejects_empty_subset():
    p = one_block_partition(3, 1)
    with pytest.raises(EmptyGroundSet):
        restrict(p, [])


def test_frag_worked_example():
    # blocks ({1,2},1), ({3,4,5},i), ({6,7},2); splitting block 2 with
    # (({1,3,5,7},3),({2,4,6},1)) gives ({1,2},1),({3,5},3),({4},0),({6,7},2)
    pi = typed_block_partition(7, [((1, 2), 1), ((3, 4, 5), 1), ((6, 7), 2)])
    whole = one_block_partition(7, 1)
    splitter = typed_block_partition(7, [((1, 3, 5, 7), 3), ((2, 4, 6), 1)])
    out = frag(pi, [whole, splitter, one_block_partition(7, 2)])
    assert out.blocks == (((1, 2), 1), ((3, 5), 3), ((4,), 0), ((6, 7), 2))


def test_frag_with_identity_splitters_is_identity():
    pi = typed_block_partition(6, [((1, 4), 2), ((2, 3, 6), 1), ((5,), 0)])
    splitters = [one_block_partition(6, typ if typ else 1)
                 for _, typ in pi.blocks]
    assert frag(pi, splitters) == pi


def test_frag_ground_size_mismatch():
    pi = one_block_partition(4, 1)
    # a splitter on a larger ground set is fine; a smaller one is not
    assert frag(pi, [one_block_partition(5, 1)]) == pi
    with pytest.raises(GroundSizeMismatch):
        frag(pi, [one_block_partition(3, 1)])
    with pytest.raises(GroundSizeMismatch):
        frag(pi, [])


def _random_block_partition(rng, n, k=3):
    labels = rng.integers(0, max(2, n // 2), n)
    groups = {}
    for e, lab in enumerate(labels, start=1):
        groups.setdefault(int(lab), []).append(e)
    blocks = [(tuple(elems), int(rng.integers(1, k + 1)) if len(elems) > 1 else 0)
              for elems in groups.values()]
    return typed_block_partition(n, blocks)


def test_frag_commutes_with_restriction():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        pi = _random_block_partition(rng, n)
        splitters = [_random_block_partition(rng, n) for _ in pi.blocks]
        m = int(rng.integers(1, n + 1))
        left = restrict(frag(pi, splitters), range(1, m + 1))
        small = restrict(pi, range(1, m + 1))
        right = frag(small, splitters[:len(small.blocks)])
        assert left == right


# --- asymptotic frequencies ---------------------------------------------------

def test_frequencies_single_block():
    p = typed_block_partition(4, [((1, 2, 3, 4), 2)])
    f = asymptotic_frequencies(p)
    assert f.parts == ((1.0, 2),)
    assert f.dust == 0.0


def test_frequencies_count_singletons_as_dust():
    p = typed_block_partition(4, [((1, 3), 1), ((2,), 0), ((4,), 0)])
    f = asymptotic_frequencies(p)
    assert f.parts == ((0.5, 1),)
    assert f.dust == pytest.approx(0.5)


def test_frequencies_obey_mass_partition_invariants():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = _random_block_partition(rng, int(rng.integers(2, 20)))
        f = asymptotic_frequencies(p)
        assert sum(f.masses()) <= 1 + 1e-12
        assert all(t >= 1 for t in f.types())
        assert build_typed_mass_partition(f.parts) == f


# --- the diagnostic metric ------------------------------------------------------

def test_distance_examples():
    x = build_typed_mass_partition([(0.5, 1), (0.25, 2)])
    assert mass_partition_distance(x, x) == 0.0
    a = build_typed_mass_partition([(0.5, 1)])
    b = build_typed_mass_partition([(0.5, 2)])
    assert mass_partition_distance(a, b) == pytest.approx(1.0)
    c = build_typed_mass_partition([(0.5, 1), (0.5, 1)])
    assert mass_partition_distance(c, a) == pytest.approx(0.5)


def _random_mass_partition(rng):
    n = int(rng.integers(0, 5))
    raw = rng.random(n) + 0.01
    total = rng.uniform(0.2, 1.0)
    masses = raw / raw.sum() * total if n else []
    return build_typed_mass_partition(
        [(m, int(rng.integers(1, 4))) for m in masses])


def test_distance_metric_axioms():
    rng = np.random.default_rng(99)
    for _ in range(200):
        x, y, z = (_random_mass_partition(rng) for _ in range(3))
        dxy = mass_partition_distance(x, y)
        assert dxy == mass_partition_distance(y, x)
        assert mass_partition_distance(x, x) == 0.0
        if dxy == 0.0:
            assert x == y
        assert dxy <= (mass_partition_distance(x, z)
                       + mass_partition_distance(z, y) + 1e-12)
