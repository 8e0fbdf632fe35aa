"""The table writer against a naive reference, on drawn tables.

``cli._write_rows`` formats each distinct number once and joins blocks of
rows from shared texts.  Here random tables go through it in both formats
and must match, byte for byte, what a row-by-row writer gives: each cell's
``repr`` or ``str`` joined per row for CSV, and ``json.dumps`` of the list
of row dicts with sorted keys for JSON.  The same tables go through again
with some columns given already split, as ``Split(values, index)``.
"""

import argparse
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifrag.cli import Split, _write_rows

SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                  5e-324, 2.2250738585072014e-308, 1e16, 1e-5]
INT64_ENDS = [-2 ** 63, 2 ** 63 - 1]
# a few thousand rows cross the writer's block of 4096
ROWS = st.one_of(st.integers(0, 40), st.sampled_from([4095, 4096, 4097]))
NAMES = st.text(alphabet='abxy_"\\', min_size=1, max_size=4)


def in_form(form, cells, dtype):
    """Cells as an array, a list of Python numbers or of numpy scalars."""
    return (np.array(cells, dtype=dtype) if form == "array"
            else list(map(dtype, cells)) if form == "numpy scalars" else cells)


@st.composite
def tables(draw):
    """(header, columns, kinds): columns of n cells each, drawn from small
    pools so that cells repeat, in every form the writer accepts."""
    n = draw(ROWS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(
        ["float", "dense int", "sparse int", "str"]), min_size=1, max_size=5))
    header = draw(st.lists(NAMES, min_size=len(kinds), max_size=len(kinds),
                           unique=True))
    columns = []
    for kind in kinds:
        form = draw(st.sampled_from(["array", "list", "numpy scalars"]))
        if kind == "float":
            pool = SPECIAL_FLOATS + draw(st.lists(st.floats(), max_size=6))
            cells = [pool[i] for i in rng.integers(len(pool), size=n)]
            columns.append(in_form(form, cells, np.float64))
        elif kind == "str":
            pool = draw(st.lists(st.text(alphabet='ab,"\\|: ', max_size=6),
                                 min_size=1, max_size=6))
            columns.append([pool[i] for i in rng.integers(len(pool), size=n)])
        else:
            if kind == "dense int":
                lo = draw(st.integers(-2 ** 40, 2 ** 40))
                cells = (lo + rng.integers(max(n, 1), size=n)).tolist()
            else:  # a wide span, the int64 ends among the cells when they fit
                pool = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                     max_size=4)) + INT64_ENDS
                cells = [pool[i] for i in rng.integers(len(pool), size=n)]
                cells[:2] = INT64_ENDS[:n]
            columns.append(in_form(form, cells, np.int64))
    return header, columns, kinds


def written(fmt, header, columns):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        _write_rows(argparse.Namespace(out="-", format=fmt), header, columns)
    return text.getvalue()


def plain(kind, cell):
    """A cell as the Python value a row-by-row writer would print."""
    return (float(cell) if kind == "float" else cell if kind == "str"
            else int(cell))


@settings(max_examples=150, deadline=None)
@given(tables())
def test_written_table_matches_a_row_by_row_writer(table):
    header, columns, kinds = table
    rows = [[plain(kind, cell) for kind, cell in zip(kinds, row)]
            for row in zip(*columns)]
    assert written("csv", header, columns) == "".join(
        ",".join(map(str, row)) + "\n" for row in [header] + rows)
    assert written("json", header, columns) == json.dumps(
        [dict(zip(header, row)) for row in rows], sort_keys=True) + "\n"


def test_sparse_int_column_with_the_int64_ends_is_written():
    # max - min overflows int64 here: the writer must not take it as dense
    cells = np.array(INT64_ENDS * 2 + [0], dtype=np.int64)
    assert written("csv", ["n"], [cells]) == "n\n" + "".join(
        f"{v}\n" for v in cells.tolist())


def test_empty_tables_are_a_header_or_an_empty_list():
    for columns in ([], [np.zeros(0), [], np.zeros(0, dtype=np.int64)]):
        assert written("csv", ["a", "b", "c"], columns) == "a,b,c\n"
        assert written("json", ["a", "b", "c"], columns) == "[]\n"


def split(column, rng):
    """The column as Split(values, index): its cells in a shuffled order,
    in the column's own form (so numpy scalars and every special float
    are among the values), and where each cell went."""
    perm = rng.permutation(len(column))
    values = (column[perm] if isinstance(column, np.ndarray)
              else [column[i] for i in perm])
    return Split(values, np.argsort(perm))


@settings(max_examples=100, deadline=None)
@given(tables(), st.data())
def test_split_columns_match_a_row_by_row_writer(table, data):
    header, columns, kinds = table
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    given_split = [split(col, rng) if data.draw(st.booleans()) else col
                   for col in columns]
    rows = [[plain(kind, cell) for kind, cell in zip(kinds, row)]
            for row in zip(*columns)]
    assert written("csv", header, given_split) == "".join(
        ",".join(map(str, row)) + "\n" for row in [header] + rows)
    assert written("json", header, given_split) == json.dumps(
        [dict(zip(header, row)) for row in rows], sort_keys=True) + "\n"


def test_split_values_pass_the_column_rule():
    index = np.array([2, 0, 1, 1], dtype=np.int64)
    # numpy float64 and int64 scalars are written as Python numbers
    assert written("csv", ["x", "n"], [
        Split([np.float64(-0.0), np.float64(5e-324), np.float64("nan")],
              index),
        Split(list(map(np.int64, [7, -1, 2 ** 62])), index)]) == (
        "x,n\nnan,4611686018427387904\n-0.0,7\n5e-324,-1\n5e-324,-1\n")
    # any other kind, or a mix of kinds, is refused as in a plain column
    for values in ([np.float32(0.5)] * 3, [1.0, 2, 3.0], [True, False, True],
                   ["a", 1.0, "b"]):
        with pytest.raises(TypeError):
            written("csv", ["x"], [Split(values, index)])
