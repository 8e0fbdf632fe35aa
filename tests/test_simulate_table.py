"""The `simulate` table against a reference rebuilt from the wave driver.

``cli.cmd_simulate`` ranks the rows of each (replica, time) cell by
decreasing mass with one stable sort on an integer key.  Here drawn models
and seeds go through it in CSV and JSON, and its bytes must match a table
rebuilt from ``mass_ensemble``'s visits in the order the command once used:
a stable argsort by cell, then ``np.lexsort((-masses, cell))``, with each
row's fragment_id its arrival rank in its cell, written row by row.
"""

import json
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multifrag import simulate
from multifrag.cli import main, parse_spec_file

HEADER = ["replica", "time", "fragment_id", "mass", "type", "frozen_flag"]
SPEC_C = {"types": 2, "dislocation": {
    "1": [{"rate": 1.0, "fragments": [["3/5", 1], ["2/5", 2]]}],
    "2": [{"rate": 1.0, "fragments": [["1/2", 2], ["3/10", 1], ["1/5", 1]]}]}}
# dyadic masses, so that equal masses meet in a cell
HALVES = ["1/2", "1/4", "1/8", "3/8"]
# non-dyadic ones, for many distinct masses
TENTHS = ["3/5", "2/5", "3/10", "1/5", "1/10"]


def reference(spec, seed, replicas, times, floor):
    """The rows of the table, in the order of the command's first ranking."""
    times = sorted(times)
    pieces = []

    def visit(ti, rep, mass, typ, frozen):
        pieces.append((rep * len(times) + ti, mass, typ, frozen))

    simulate.mass_ensemble(spec, times, replicas, seed, visit,
                           replica_chunk=1, mass_floor=floor,
                           max_fragments=2_000_000)
    if not pieces:
        return []
    columns = list(map(np.concatenate, zip(*pieces)))
    by_cell = np.argsort(columns[0], kind="stable")
    cell, masses, types, frozen = (col[by_cell] for col in columns)
    first = np.searchsorted(cell, cell)  # each cell's first row
    order = np.lexsort((-masses, cell))
    return [[int(cell[i] // len(times)), times[cell[i] % len(times)],
             int(i - first[i]), float(masses[i]), int(types[i]),
             int(frozen[i])] for i in order]


def check(tmp_path, doc, seed, replicas, times, floor):
    """Run `simulate` in both formats against the reference; return the
    rows and the number of distinct masses among them."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    rows = reference(parse_spec_file(str(path)), seed, replicas, times, floor)
    expected = {
        "csv": "".join(",".join(map(str, row)) + "\n"
                       for row in [HEADER] + rows),
        "json": json.dumps([dict(zip(HEADER, row)) for row in rows],
                           sort_keys=True) + "\n"}
    for fmt, text in expected.items():
        out = tmp_path / f"out.{fmt}"
        assert main(["simulate", "--spec", str(path), "--out", str(out),
                     "--format", fmt, "--seed", str(seed), "--replicas",
                     str(replicas), "--times", ",".join(map(str, times)),
                     "--mass-floor", str(floor)]) == 0
        assert out.read_text() == text
    return rows, len({row[3] for row in rows})


@st.composite
def models(draw):
    """Small models of 1-3 types whose fragment masses come from a pool of
    dyadic or of tenths, with dust and erosion now and then."""
    k = draw(st.integers(1, 3))
    pool = draw(st.sampled_from([HALVES, TENTHS]))
    dislocation = {}
    for i in range(1, k + 1):
        atoms = []
        for _ in range(draw(st.integers(1, 2))):
            masses = draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=3).filter(
                lambda ms: sum(map(Fraction, ms)) <= 1))
            atoms.append({"rate": draw(st.sampled_from([0.5, 1.0, 2.0])),
                          "fragments": [[m, draw(st.integers(1, k))]
                                        for m in masses]})
        dislocation[str(i)] = atoms
    doc = {"types": k, "dislocation": dislocation}
    if draw(st.booleans()):  # one rate common to every type
        doc["erosion"] = [draw(st.sampled_from([0.1, 0.5]))] * k
    return doc


@settings(max_examples=60, deadline=None)
@given(models(), st.integers(0, 2 ** 64 - 1), st.integers(1, 3),
       st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=1,
                max_size=3),
       st.sampled_from([1e-3, 1e-2, 0.2]))
def test_simulate_matches_the_two_sort_reference(tmp_path_factory, doc, seed,
                                                  replicas, times, floor):
    check(tmp_path_factory.mktemp("sim"), doc, seed, replicas, times, floor)


def test_tied_masses_keep_their_arrival_order(tmp_path):
    # halving: every fragment of one generation has the same mass
    doc = {"types": 1, "dislocation": {
        "1": [{"rate": 1.0, "fragments": [["1/2", 1], ["1/2", 1]]}]}}
    rows, distinct = check(tmp_path, doc, 5, 2, [2.0, 4.0], 1e-3)
    assert distinct < len(rows) / 4


def test_keys_past_16_bits_sort_as_int64(tmp_path):
    # erosion makes each time's masses its own: the last cell's keys start
    # at (cells - 1) x distinct masses, past 2^16, so the key stays int64
    doc = dict(SPEC_C, erosion=[0.05, 0.05])
    replicas, times = 3, [0.5 * i for i in range(1, 16)]
    rows, distinct = check(tmp_path, doc, 3, replicas, times, 1e-3)
    assert (replicas * len(times) - 1) * distinct >= 2 ** 16


def test_eroded_masses(tmp_path):
    doc = dict(SPEC_C, erosion=[0.2, 0.2])
    rows, _ = check(tmp_path, doc, 9, 3, [0.5, 1.5, 3.0], 1e-3)
    assert rows


def test_all_dust_writes_the_header_only(tmp_path):
    # the only atom is all dust: by t = 100 no fragment is left
    doc = {"types": 1, "dislocation": {"1": [{"rate": 1.0, "fragments": []}]}}
    rows, _ = check(tmp_path, doc, 1, 3, [100.0], 1e-3)
    assert rows == []
