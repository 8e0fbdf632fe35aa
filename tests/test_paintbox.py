import itertools
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from multifrag import (
    asymptotic_frequencies,
    build_typed_mass_partition,
    mass_partition_distance,
    paint,
    sample_paintbox,
    size_biased_tag,
    typed_block_partition,
)
from multifrag.streams import replica_stream


def _reference_paintbox(x, n, rng):
    """numpy's cumsum and searchsorted, then a per-label grouping checked by
    typed_block_partition; the same n draws as the sampler."""
    cum = np.cumsum([m for m, _ in x.parts])
    labels = np.searchsorted(cum, rng.random(n), side="right")
    blocks, groups = [], {}
    for elem, lab in enumerate(labels, start=1):
        if lab == len(x.parts):
            blocks.append(((elem,), 0))
        else:
            groups.setdefault(int(lab), []).append(elem)
    for lab, elems in groups.items():
        blocks.append((tuple(elems), x.parts[lab][1] if len(elems) >= 2 else 0))
    return typed_block_partition(n, blocks)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(st.floats(1e-6, 1.0), st.integers(1, 3)),
                      max_size=12),
       dust=st.floats(0.0, 0.9), n=st.integers(1, 2000),
       seed=st.integers(0, 2 ** 32 - 1))
@example(pairs=[(0.6, 1), (2e-4, 2), (1e-5, 3), (3e-4, 1)], dust=0.1,
         n=2000, seed=3)
def test_sampler_matches_per_label_reference(pairs, dust, n, seed):
    # masses go down to about 1e-7, far below 1/n
    total = sum(m for m, _ in pairs)
    x = build_typed_mass_partition(
        [(m * (1.0 - dust) / total, i) for m, i in pairs])
    rng, ref_rng = replica_stream(seed, 0), replica_stream(seed, 0)
    assert sample_paintbox(x, n, rng) == _reference_paintbox(x, n, ref_rng)
    # both took exactly n uniforms, so the streams go on alike
    assert rng.random() == ref_rng.random()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(st.floats(1e-6, 1.0), st.integers(1, 3)),
                      max_size=12),
       dust=st.floats(0.01, 0.9),
       labels=st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=200,
                       unique=True).map(sorted),
       seed=st.integers(0, 2 ** 32 - 1))
@example(pairs=[(0.5, 2), (0.2, 1)], dust=0.3, labels=[4, 9, 10, 17, 300],
         seed=1)
def test_paint_on_any_labels_is_the_sample_relabelled(pairs, dust, labels,
                                                      seed):
    # the partition engine paints a block's own ascending labels; that is
    # sample_paintbox on 1..m sent through the labels, from the same draws
    total = sum(m for m, _ in pairs)
    x = build_typed_mass_partition(
        [(m * (1.0 - dust) / total, i) for m, i in pairs])
    blocks = paint(list(accumulate(x.masses())), x.types(), labels,
                   replica_stream(seed, 0).random(len(labels)).tolist())
    sample = sample_paintbox(x, len(labels), replica_stream(seed, 0))
    assert blocks == [(tuple(labels[e - 1] for e in elems), typ)
                      for elems, typ in sample.blocks]


def test_degenerate_single_component():
    x = build_typed_mass_partition([(1.0, 1)])
    rng = replica_stream(1, 0)
    for _ in range(20):
        p = sample_paintbox(x, 5, rng)
        assert p.blocks == (((1, 2, 3, 4, 5), 1),)


def test_pure_dust_gives_singletons():
    x = build_typed_mass_partition([])
    rng = replica_stream(1, 1)
    p = sample_paintbox(x, 3, rng)
    assert p.blocks == (((1,), 0), ((2,), 0), ((3,), 0))


def test_single_label_on_a_component_is_a_type_zero_singleton():
    x = build_typed_mass_partition([(0.5, 1), (0.5, 2)])
    rng = replica_stream(1, 2)
    seen_singleton = False
    for _ in range(50):
        p = sample_paintbox(x, 3, rng)
        for elems, typ in p.blocks:
            if len(elems) == 1:
                assert typ == 0
                seen_singleton = True
    assert seen_singleton


def _exact_paintbox_law(x, n):
    """Enumerate label assignments; the brute-force law of the paintbox."""
    probs = [m for m, _ in x.parts] + [x.dust]
    law = {}
    for labels in itertools.product(range(len(probs)), repeat=n):
        pr = float(np.prod([probs[l] for l in labels]))
        if pr == 0.0:
            continue
        blocks = []
        groups = {}
        for e, lab in enumerate(labels, start=1):
            if lab == len(x.parts):
                blocks.append(((e,), 0))
            else:
                groups.setdefault(lab, []).append(e)
        for lab, elems in groups.items():
            typ = x.parts[lab][1] if len(elems) >= 2 else 0
            blocks.append((tuple(elems), typ))
        key = typed_block_partition(n, blocks)
        law[key] = law.get(key, 0.0) + pr
    return law


def test_two_label_example_against_enumeration():
    # two equal halves of distinct types on n = 2: split half the time,
    # otherwise one block of either type with probability 1/4 each
    x = build_typed_mass_partition([(0.5, 1), (0.5, 2)])
    law = _exact_paintbox_law(x, 2)
    split = typed_block_partition(2, [((1,), 0), ((2,), 0)])
    whole1 = typed_block_partition(2, [((1, 2), 1)])
    whole2 = typed_block_partition(2, [((1, 2), 2)])
    assert law[split] == pytest.approx(0.5)
    assert law[whole1] == pytest.approx(0.25)
    assert law[whole2] == pytest.approx(0.25)

    rng = replica_stream(11, 0)
    reps = 20000
    counts = {split: 0, whole1: 0, whole2: 0}
    for _ in range(reps):
        counts[sample_paintbox(x, 2, rng)] += 1
    observed = [counts[k] for k in (split, whole1, whole2)]
    expected = [reps * law[k] for k in (split, whole1, whole2)]
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_sampled_law_matches_enumeration_n3():
    x = build_typed_mass_partition([(0.5, 2), (0.3, 1)])  # dust 0.2
    law = _exact_paintbox_law(x, 3)
    rng = replica_stream(12, 0)
    reps = 30000
    counts = {}
    for _ in range(reps):
        p = sample_paintbox(x, 3, rng)
        counts[p] = counts.get(p, 0) + 1
    keys = sorted(law, key=repr)
    observed = [counts.get(k, 0) for k in keys]
    expected = [reps * law[k] for k in keys]
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_exchangeability_under_relabeling():
    # frequencies of relabeled samples match fresh samples (two-sample chi2)
    x = build_typed_mass_partition([(0.45, 2), (0.35, 1)])
    sigma = {1: 3, 2: 1, 3: 4, 4: 2}
    rng = replica_stream(13, 0)
    reps = 15000

    def relabel(p):
        blocks = [(tuple(sorted(sigma[e] for e in elems)), typ)
                  for elems, typ in p.blocks]
        return typed_block_partition(p.ground_size, blocks)

    fresh, perm = {}, {}
    for _ in range(reps):
        a = sample_paintbox(x, 4, rng)
        b = relabel(sample_paintbox(x, 4, rng))
        fresh[a] = fresh.get(a, 0) + 1
        perm[b] = perm.get(b, 0) + 1
    keys = sorted(set(fresh) | set(perm), key=repr)
    table = np.array([[fresh.get(k, 0) for k in keys],
                      [perm.get(k, 0) for k in keys]])
    keep = table.sum(axis=0) >= 10
    assert stats.chi2_contingency(table[:, keep]).pvalue > 0.01


def test_frequency_recovery():
    x = build_typed_mass_partition([(0.5, 1), (0.3, 2), (0.1, 1)])
    n = 2500
    rng = replica_stream(14, 0)
    bad = 0
    for _ in range(200):
        p = sample_paintbox(x, n, rng)
        d = mass_partition_distance(asymptotic_frequencies(p), x)
        bad += d > 5.0 / np.sqrt(n)
    assert bad <= 2  # allowed failure probability 0.01 per replica


def test_size_biased_tag_distribution():
    x = build_typed_mass_partition([(0.5, 1), (1 / 3, 2), (1 / 6, 1)])
    rng = replica_stream(15, 0)
    reps = 30000
    counts = {}
    for _ in range(reps):
        tag = size_biased_tag(x, rng)
        counts[tag] = counts.get(tag, 0) + 1
    keys = list(x.parts)
    observed = [counts.get(k, 0) for k in keys]
    expected = [reps * m for m, _ in keys]
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_size_biased_tag_degenerate_and_dust():
    one = build_typed_mass_partition([(1.0, 3)])
    rng = replica_stream(16, 0)
    assert all(size_biased_tag(one, rng) == (1.0, 3) for _ in range(20))

    dusty = build_typed_mass_partition([(0.75, 2)])
    hits = sum(size_biased_tag(dusty, rng) == (0.0, 0) for _ in range(20000))
    assert abs(hits / 20000 - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 20000)


def test_first_block_law_converges_to_size_biased_sample():
    # the (frequency, type) of the block containing 1 at n = 10^4
    x = build_typed_mass_partition([(0.5, 1), (0.3, 2), (0.2, 2)])
    n = 10_000
    rng = replica_stream(17, 0)
    reps = 2000
    type_counts = {0: 0, 1: 0, 2: 0}
    freq_err = []
    for _ in range(reps):
        p = sample_paintbox(x, n, rng)
        elems, typ = p.block_of(1)
        type_counts[typ] += 1
        freq_err.append(len(elems) / n)
    # P(type 1) = 0.5, P(type 2) = 0.3 + 0.2
    for typ, prob in ((1, 0.5), (2, 0.5)):
        se = np.sqrt(prob * (1 - prob) / reps)
        assert abs(type_counts[typ] / reps - prob) < 4 * se
