"""The CLI's `simulate` and `martingale` against the heap engine, in law.

The CLI grows each replica a generation at a time with ``mass_ensemble``;
the library's ``simulate_mass_fragmentation`` grows a path one event at a
time and ``FragmentationPath.snapshot`` reads it.  By the branching
property the fragments alive at each time have the same law either way, so
on a few conservative models two-sample tests compare the fragment count
per (replica, time) and the mean of M(theta, t).  Each side has its own
fixed seed, and the level ALPHA is shared over every test (Bonferroni).
"""

import contextlib
import io
import json

import numpy as np
import pytest
from scipy import stats

from conftest import random_conservative_spec
from multifrag import (
    biggins_martingale,
    fragmentation_spec,
    perron_eigen,
    replica_stream,
    simulate_mass_fragmentation,
)
from multifrag.cli import main, spec_to_document

ALPHA = 0.01
REPLICAS = 300
TIMES = (1.5, 4.0)
THETA = 0.5
FLOOR = 1e-3

MODELS = {
    "spec_c": lambda: fragmentation_spec(2, {
        1: [(1.0, [(0.6, 1), (0.4, 2)])],
        2: [(1.0, [(0.5, 2), (0.3, 1), (0.2, 1)])]}),
    # the three-type model of tests/test_output_digests.py
    "three_type": lambda: fragmentation_spec(3, {
        1: [(0.7, [(0.5, 2), (0.5, 3)]), (0.4, [(0.7, 1), (0.2, 3), (0.1, 2)])],
        2: [(1.2, [(0.25, 1), (0.75, 3)])],
        3: [(0.3, [(0.9, 3), (0.1, 1)]), (0.6, [(0.4, 2), (0.3, 2), (0.3, 1)]),
            (0.2, [(0.6, 1), (0.4, 3)])]}),
    # three types, 1 to 2 atoms of 2 to 4 children each, irreducible
    "drawn": lambda: random_conservative_spec(np.random.default_rng(2)),
}
# two tests (count and M) per model and time
TESTS = 2 * len(MODELS) * len(TIMES)


def _heap(spec, seed):
    """Fragment counts and M(THETA, t), shape (REPLICAS, len(TIMES)), from
    heap-engine paths and their snapshots."""
    sd = perron_eigen(spec, THETA)
    counts, m = np.zeros((2, REPLICAS, len(TIMES)))
    for r in range(REPLICAS):
        path = simulate_mass_fragmentation(spec, max(TIMES),
                                           replica_stream(seed, r),
                                           mass_floor=FLOOR)
        for ti, t in enumerate(TIMES):
            snap = path.snapshot(t)
            counts[r, ti] = snap.masses.size
            m[r, ti] = biggins_martingale(snap, sd)
    return counts, m


def _cli(spec, seed, tmp_path):
    """The same two tables from the output of `simulate` and `martingale`."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec_to_document(spec)))
    base = ["--spec", str(path), "--seed", str(seed), "--replicas",
            str(REPLICAS), "--times", ",".join(map(str, TIMES)),
            "--mass-floor", str(FLOOR), "--format", "json"]
    tables = []
    for command in (["simulate"], ["martingale", "--theta", str(THETA)]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(command + base) == 0
        tables.append(json.loads(out.getvalue()))
    counts, m = np.zeros((2, REPLICAS, len(TIMES)))
    for row in tables[0]:
        counts[row["replica"], TIMES.index(row["time"])] += 1
    for row in tables[1]:
        m[row["replica"], TIMES.index(row["t"])] = row["M"]
    return counts, m


@pytest.mark.parametrize("model", list(MODELS))
def test_cli_snapshots_have_the_law_of_heap_snapshots(model, tmp_path):
    spec = MODELS[model]()
    old_counts, old_m = _heap(spec, 1701)
    new_counts, new_m = _cli(spec, 1702, tmp_path)
    assert (old_counts > 1).any() and (new_counts > 1).any()
    for ti, t in enumerate(TIMES):
        count_p = stats.mannwhitneyu(old_counts[:, ti], new_counts[:, ti]).pvalue
        m_p = stats.ttest_ind(old_m[:, ti], new_m[:, ti],
                              equal_var=False).pvalue
        assert count_p > ALPHA / TESTS, (model, t, "count", count_p)
        assert m_p > ALPHA / TESTS, (model, t, "M", m_p)
