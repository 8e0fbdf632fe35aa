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
from pathlib import Path

import numpy as np
import pytest

from multifrag import (
    cli,
    errors,
    fragmentation_spec,
    measures,
    paintbox,
    simulate,
)
from multifrag.partitions import build_typed_mass_partition
from multifrag.streams import replica_stream

DEMO = Path(__file__).resolve().parents[1] / "demos" / "two_type_model.json"


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


def _tagged_replicas(tmp_path):
    """tagged_ensemble on SPEC-C to t = 50 at five times, 200,000 replicas:
    every lane jumps, so the first waves hold all replicas at once."""
    spec = fragmentation_spec(2, {1: [(1.0, [(0.6, 1), (0.4, 2)])],
                                  2: [(1.0, [(0.5, 2), (0.3, 1), (0.2, 1)])]})
    times, n = [10.0, 20.0, 30.0, 40.0, 50.0], 200_000

    def run():
        simulate.tagged_ensemble(spec, times, n, 3)
        return n

    return run, 16 * len(times) + simulate.TAGGED_REPLICA_BYTES


def _wave_rows(tmp_path):
    """mass_ensemble on SPEC-A's halving at floor 0 to t = 16.5, one replica
    (seed 3), with ldcount's visitor: a window count by np.add.at.  The
    largest wave holds about 807k rows; at about 10k rows a wave's fixed
    costs add some 10 bytes per row, so the scale is kept large."""
    spec = fragmentation_spec(1, {1: [(1.0, [(0.5, 1), (0.5, 1)])]})
    counts = np.zeros(1)
    waves = []

    def visit(ti, rep, mass, typ, frozen):
        sel = np.flatnonzero((mass >= 1e-4) & (mass <= 1e-2))
        np.add.at(counts, rep[sel] + typ[sel] - 1, 1.0)

    def admit(items, item_bytes, what):
        if what == "fragments in one wave":
            waves.append(items)
        return errors.admit(items, item_bytes, what)

    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "admit", admit)
            simulate.mass_ensemble(spec, [16.5], 1, 3, visit, mass_floor=0.0)
        return max(waves)

    return run, simulate.WAVE_ROW_BYTES


def _wave_slots(tmp_path):
    """mass_ensemble on a halving atom beside a rare one of 10 rows, at floor
    0 to t = 15.5, one replica (seed 3): a wave of 266k rows takes 1.33M row
    slots, past the slots that WAVE_ROW_BYTES covers.  Narrower rare atoms
    weigh more per slot, but their rows' figure bounds them."""
    spec = fragmentation_spec(2, {1: [(1.0, [(0.5, 1), (0.5, 1)]),
                                      (1e-9, [(0.1, 2)] * 10)]})
    waves = []

    def admit(items, item_bytes, what):
        if what == "row slots in one wave":
            waves.append(items)
        return errors.admit(items, item_bytes, what)

    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "admit", admit)
            simulate.mass_ensemble(spec, [15.5], 1, 3, lambda *_: None,
                                   mass_floor=0.0)
        return max(waves)

    return run, simulate.WAVE_SLOT_BYTES


def _padded_entries(tmp_path):
    """mass_ensemble's tables on 2,000 one-row atoms beside one of 2,000
    rows, run to a time before any split: 4M row slots and the padded
    selection table of the atoms."""
    n = 2000
    spec = fragmentation_spec(2, {1: [(1.0, [(0.5, 2)])] * n
                                  + [(1.0, [(1.0 / n, 2)] * n)]})
    entries = []

    def admit(items, item_bytes, what):
        if item_bytes == simulate.PADDED_ENTRY_BYTES:
            entries.append(items)
        return errors.admit(items, item_bytes, what)

    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "admit", admit)
            simulate.mass_ensemble(spec, [1e-9], 1, 3, lambda *_: None)
        return sum(entries)

    return run, simulate.PADDED_ENTRY_BYTES


SPEC_C = {"types": 2, "dislocation": {
    "1": [{"rate": 1.0, "fragments": [["3/5", 1], ["2/5", 2]]}],
    "2": [{"rate": 1.0, "fragments": [["1/2", 2], ["3/10", 1], ["1/5", 1]]}]}}


def _ldcount_wave_rows(tmp_path):
    """`ldcount` on SPEC-C, 300 replicas in one chunk, at its default
    t-grid 8..16 and window, so its floor is about 2.7e-4: every fragment
    below it is dropped when it is made, 59% of the 835k children of the
    largest wave.  Each child made counts against the budget, dropped or
    kept."""
    spec = tmp_path / "spec_c.json"
    spec.write_text(json.dumps(SPEC_C))
    waves = []

    def admit(items, item_bytes, what):
        if what == "fragments in one wave":
            waves.append(items)
        return errors.admit(items, item_bytes, what)

    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "admit", admit)
            code = cli.main(["ldcount", "--spec", str(spec), "--out",
                             str(tmp_path / "out.csv"), "--seed", "1",
                             "--replicas", "300"])
        assert code == 0
        return max(waves)

    return run, simulate.WAVE_ROW_BYTES


def _simulate(tmp_path, options):
    """A run of `simulate` on SPEC-C, as JSON, and the rows it wrote,
    counted as they are handed to the writer."""
    spec = tmp_path / "spec_c.json"
    spec.write_text(json.dumps(SPEC_C))
    write_rows, rows = cli._write_rows, []

    def count(args, header, columns):
        rows.append(len(columns[0]))
        return write_rows(args, header, columns)

    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stderr(io.StringIO()):
        patch.setattr(cli, "_write_rows", count)
        code = cli.main(["simulate", "--spec", str(spec), "--out",
                         str(tmp_path / "out.json"), "--format", "json",
                         "--seed", "1", "--mass-floor", "0"] + options)
    assert code == 0
    return rows[0]


def _simulate_cells(tmp_path):
    """`simulate` with one fragment in every cell, 2,000 replicas x 10
    times before the first split: every row has a cell of its own.  The
    same cells as 20,000 replicas x 1 time read about 288 bytes, and 277
    at 200,000; the case keeps the faster shape."""
    replicas, times = 2000, [f"{q}e-9" for q in range(1, 11)]

    def run():
        rows = _simulate(tmp_path, ["--replicas", str(replicas),
                                    "--times", ",".join(times)])
        assert rows == replicas * len(times)
        return rows

    return run, cli.SIMULATE_CELL_BYTES


def _simulate_held_rows(tmp_path):
    """`simulate` at floor 0, one replica, six times 6..7: 149,091 rows in
    six cells, held until they are written."""
    def run():
        return _simulate(tmp_path, ["--replicas", "1",
                                    "--times", "6,6.2,6.4,6.6,6.8,7"])

    return run, cli.SIMULATE_ROW_BYTES


def _martingale_rows(tmp_path):
    """`martingale` at one theta with one fragment in every cell, 2,000
    replicas x 10 times before the first split, as JSON.  One time per
    replica weighs more per row: 230 bytes at 20,000 replicas and 219 at
    50,000; the case keeps the faster shape."""
    spec = tmp_path / "spec_c.json"
    spec.write_text(json.dumps(SPEC_C))
    replicas, times = 2000, [f"{q}e-9" for q in range(1, 11)]

    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["martingale", "--spec", str(spec), "--out",
                             str(tmp_path / "out.json"), "--format", "json",
                             "--seed", "1", "--replicas", str(replicas),
                             "--times", ",".join(times), "--theta", "0.5"])
        assert code == 0
        return replicas * len(times)

    return run, cli.MARTINGALE_ROW_BYTES


def _partition_stored_labels(tmp_path):
    """The partition engine on a one-type model whose only atom is all
    dust, n = 65536: the first event cuts the ground set into singleton
    blocks, so the path stores every label twice, once in a block of its
    own."""
    spec = fragmentation_spec(1, {1: [(1.0, [])]})
    n = 65536

    def run():
        path = simulate.simulate_partition_fragmentation(
            spec, n, 20.0, replica_stream(1, 0))
        assert len(path.times) == 2
        return 2 * n

    return run, simulate.STORED_LABEL_BYTES


def _paintbox_labels(tmp_path):
    """sample_paintbox with each label alone on its own component: 44,000
    components of equal mass and evenly spaced uniforms, one per component.
    The sampler's dict of components has just grown past 43,690 entries."""
    n = 44_000
    x = build_typed_mass_partition([(0.999999 / n, 1)] * n)

    class Evenly:
        def random(self, size):
            return (np.arange(size) + 0.5) / size

    def run():
        blocks = paintbox.sample_paintbox(x, n, Evenly()).blocks
        assert len(blocks) == n
        return n

    return run, paintbox.PAINTBOX_LABEL_BYTES


def _tagged_rows(tmp_path):
    """`tagged` on the demo model as JSON, one replica to t = 10^5: a path
    of about 100k rows, admitted as 1 + t rows at rate 1.  Shorter runs read
    more per row (429 bytes at t = 5 * 10^4), and many short paths less
    (333 at 2,000 replicas to t = 50)."""
    t = 100_000

    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["tagged", "--spec", str(DEMO), "--out",
                             str(tmp_path / "out.json"), "--format", "json",
                             "--seed", "1", "--replicas", "1", "--t", str(t)])
        assert code == 0
        return 1 + t

    return run, simulate.TAGGED_ROW_BYTES


def _spec_cells(tmp_path):
    """fragmentation_spec with k = 2000 types and no atoms: the k x k cell
    sums and the irreducibility search over them."""
    k = 2000

    def run():
        assert not fragmentation_spec(k, {}).irreducible
        return k * k

    return run, measures.MATRIX_CELL_BYTES


SITES = {"partition-labels-written": _partition_written_labels,
         "heap-path-fragments": _heap_path_fragments,
         "tagged-ensemble-replicas": _tagged_replicas,
         "mass-ensemble-wave-rows": _wave_rows,
         "mass-ensemble-wave-slots": _wave_slots,
         "padded-table-entries": _padded_entries,
         "ldcount-dropped-wave-rows": _ldcount_wave_rows,
         "simulate-cells": _simulate_cells,
         "simulate-held-rows": _simulate_held_rows,
         "martingale-rows": _martingale_rows,
         "partition-labels-stored": _partition_stored_labels,
         "paintbox-labels": _paintbox_labels,
         "tagged-rows": _tagged_rows,
         "spec-matrix-cells": _spec_cells}


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
