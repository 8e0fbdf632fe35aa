"""Admission figures pinned by measurement, not by comments.

Each ``errors.admit`` site names a bytes-per-item figure: a tracemalloc peak
on the worst shape measured.  Each case here runs a site's recorded shape,
at a recorded scale that takes a few seconds, under tracemalloc, and checks
that the peak per admitted item is at most the figure the code admits.
"""

import contextlib
import gc
import io
import json
import tracemalloc

import pytest

from multifrag import cli, fragmentation_spec, simulate
from multifrag.streams import replica_stream


def _partition_written_labels(tmp_path):
    """`partition` on a one-type model whose only atom is all dust, so every
    label is a singleton from the first event on, one query time, as JSON,
    n = 16384: the path's labels weigh most per written label."""
    spec = tmp_path / "all_dust.json"
    spec.write_text(json.dumps({"types": 1, "dislocation": {
        "1": [{"rate": 1.0, "fragments": []}]}}))
    n = 16384

    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["partition", "--spec", str(spec), "--out",
                             str(tmp_path / "out.json"), "--format", "json",
                             "--seed", "1", "--replicas", "1", "--n", str(n),
                             "--t", "20"])
        assert code == 0
        return n

    return run, cli.PARTITION_LABEL_BYTES


def _heap_path_fragments(tmp_path):
    """A heap path of SPEC-A's halving at floor 0 and its first snapshot,
    about 49k fragments (seed 7, t = 11.5)."""
    spec = fragmentation_spec(1, {1: [(1.0, [(0.5, 1), (0.5, 1)])]})

    def run():
        path = simulate.simulate_mass_fragmentation(
            spec, 11.5, replica_stream(7, 0), mass_floor=0.0)
        path.snapshot(11.5)
        return path.n_fragments

    return run, simulate.PATH_FRAGMENT_BYTES


SITES = {"partition-labels-written": _partition_written_labels,
         "heap-path-fragments": _heap_path_fragments}


@pytest.mark.parametrize("site", SITES)
def test_admitted_figure_bounds_the_measured_peak(site, tmp_path):
    run, figure = SITES[site](tmp_path)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        items = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / items <= figure, f"{peak / items:.3f} bytes per item"
