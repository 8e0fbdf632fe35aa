"""Command-line experiment driver.

Subcommands parse a model file (JSON), run simulations or spectral
computations, and emit machine-readable CSV/JSON.  Identical inputs and
seed produce byte-identical outputs; the seed comes from --seed or the
MULTIFRAG_SEED environment variable, never from the clock.

Exit codes: 0 ok, 2 parse/usage, 3 model validation, 4 numeric failure,
5 resource cap; a failure exits with the ``exit_code`` of its error class.
"""

import argparse
import json
import math
import os
import re
import sys
import warnings
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

import numpy as np

from . import asymptotics, measures, simulate, spectral
from .errors import (
    InvalidArgument,
    MaximumAtBracketEdge,
    MultifragError,
    NoConvergence,
    ParseError,
    SpecValidationError,
    admit,
)
from .streams import replica_stream

# a longer --theta-grid is refused before its list is built
MAX_GRID_POINTS = 100_000
# per written label, path included: singletons, one time, JSON, n = 16384
PARTITION_LABEL_BYTES = 656
# simulate, per snapshot cell: one-fragment cells as JSON, 2,000 x 10 times
SIMULATE_CELL_BYTES = 657
# simulate, per row held and written: SPEC-C at floor 0 as JSON, 149k rows
SIMULATE_ROW_BYTES = 511
# martingale, per row: one-fragment snapshots as JSON, 2,000 x 10 times
MARTINGALE_ROW_BYTES = 333
Split = namedtuple("Split", "values index")  # a column as _distinct splits it


# --- spec files ----------------------------------------------------------------

def _number(value, where):
    """Accept decimals or exact 'p/q' fraction strings inside the float range."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    # Fraction builds 10^exponent exactly, for minutes past seven digits;
    # a float's decimal exponent has at most three
    if isinstance(value, str) and re.search(r"[eE][-+]?0*[1-9]\d{4}", value):
        raise ParseError(f"{where}: exponent of {value!r} out of range")
    try:
        return float(Fraction(value) if isinstance(value, str) else value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad fraction {value!r}") from exc
    except OverflowError as exc:
        raise ParseError(f"{where}: {value!r} is outside the float range") from exc


def _integer(value, where):
    """Accept JSON integers and integral decimals, never booleans."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParseError(f"{where}: expected an integer, got {value!r}")


def parse_spec_file(path: str) -> measures.FragmentationSpec:
    """Read and validate a fragmentation model description."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("types", "dislocation"):
        if key not in doc:
            raise ParseError(f"{path}: missing key {key!r}")
    k = _integer(doc["types"], f"{path}: types")
    if k < 1:
        raise ParseError(f"{path}: 'types' must be a positive integer")
    erosion = doc.get("erosion")
    if "erosion" in doc:
        if not isinstance(erosion, list) or len(erosion) != k:
            raise ParseError(f"{path}: 'erosion' must list {k} coefficients")
        erosion = [_number(c, f"erosion[{i}]") for i, c in enumerate(erosion)]
    if not isinstance(doc["dislocation"], dict):
        raise ParseError(f"{path}: 'dislocation' must map types to atom lists")
    dislocation = {}
    for key, atoms in doc["dislocation"].items():
        try:
            i = int(key)
        except ValueError:
            raise ParseError(f"{path}: dislocation key {key!r} is not a type")
        if not 1 <= i <= k:
            raise ParseError(f"{path}: dislocation type {i} outside 1..{k}")
        if not isinstance(atoms, list):
            raise ParseError(f"{path}: dislocation[{key}] must list atoms")
        parsed = []
        for n, atom in enumerate(atoms):
            where = f"dislocation[{key}][{n}]"
            if not isinstance(atom, dict) or "rate" not in atom \
                    or not isinstance(atom.get("fragments"), list):
                raise ParseError(
                    f"{path}: {where} needs 'rate' and a 'fragments' list")
            rate = _number(atom["rate"], f"{where}.rate")
            pairs = []
            for pn, pair in enumerate(atom["fragments"]):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ParseError(
                        f"{path}: {where}.fragments[{pn}] must be [mass, type]")
                mass = _number(pair[0], f"{where}.fragments[{pn}]")
                pairs.append((mass, _integer(pair[1],
                                             f"{where}.fragments[{pn}]")))
            parsed.append((rate, pairs))
        dislocation[i] = parsed
    conservative = doc.get("conservative")
    if not (conservative is None or isinstance(conservative, bool)):
        raise ParseError(f"{path}: 'conservative' must be true or false")
    return measures.fragmentation_spec(
        k, dislocation, erosion=erosion, conservative=conservative)


def spec_to_document(spec: measures.FragmentationSpec) -> dict:
    """Inverse of parse_spec_file on canonical forms."""
    return {
        "types": spec.k,
        "erosion": list(spec.erosion),
        "conservative": spec.conservative,
        "dislocation": {
            str(i): [{"rate": atom.weight,
                      "fragments": [[m, t] for m, t in atom.outcome.parts]}
                     for atom in spec.atoms(i)]
            for i in range(1, spec.k + 1)
        },
    }


# --- shared helpers -------------------------------------------------------------

def _resolve_seed(args, spec, min_replicas=1) -> int:
    """Check the arguments shared by seeded subcommands; return the seed.
    Commands that report a standard error over replicas need two."""
    if getattr(args, "replicas", 1) < min_replicas:
        raise ParseError(f"--replicas must be at least {min_replicas}")
    if not 0 < getattr(args, "t", 1.0) < math.inf:
        raise ParseError("--t must be positive and finite")
    if getattr(args, "max_fragments", 1) < 1:
        raise ParseError("--max-fragments must be at least 1")
    if not 1 <= args.initial_type <= spec.k:
        raise ParseError(
            f"--initial-type {args.initial_type} outside 1..{spec.k}")
    seed = args.seed
    if seed is None:
        env = os.environ.get("MULTIFRAG_SEED")
        if env is None:
            raise ParseError("no --seed given and MULTIFRAG_SEED is unset")
        try:
            seed = int(env)
        except ValueError:
            raise ParseError(f"MULTIFRAG_SEED={env!r} is not an integer")
    if not 0 <= seed < 2 ** 64:
        raise ParseError(f"seed {seed} does not fit in 64 unsigned bits")
    return seed


@contextmanager
def _open_out(args):
    if args.out in (None, "-"):
        yield sys.stdout
    else:
        with open(args.out, "w", newline="") as fh:
            yield fh


def _distinct(column):
    """One column as (values, index), cell i holding values[index[i]], so
    that a number is formatted once however often it repeats (about 2% of
    a ``simulate`` table's masses are distinct).  A column is a float64 or
    int64 array, a list whose cells are all floats (numpy floats
    included), all ints or all strings, or a ``Split`` whose values are
    such a column; any other column raises TypeError rather than print
    different text.  A Split's values pass the same rule, so that numpy
    scalars among them come back as Python numbers.  Strings come back as
    they are, with index None."""
    if isinstance(column, Split):
        values, inner = _distinct(column.values)
        return values, column.index if inner is None else inner[column.index]
    if isinstance(column, np.ndarray):
        kinds = {column.dtype.type}
    else:
        kinds = set(map(type, column))
        if kinds <= {str}:
            return column, None
    if kinds <= {float, np.float64}:
        # keyed by bit pattern, so 0.0 and -0.0 keep their own text
        bits = np.asarray(column, dtype=np.float64).view(np.int64)
        distinct, index = np.unique(bits, return_inverse=True)
        return distinct.view(np.float64).tolist(), index
    if not kinds <= {int, np.int64}:
        raise TypeError("cannot write a column of "
                        + ", ".join(sorted(k.__name__ for k in kinds)))
    column = np.asarray(column, dtype=np.int64)
    lo, hi = (int(column.min()), int(column.max())) if column.size else (0, 0)
    if hi - lo < column.size:  # dense: index a range, with no sort
        return range(lo, hi + 1), column - lo
    distinct, index = np.unique(column, return_inverse=True)
    return distinct.tolist(), index


def _write_rows(args, header, columns):
    """Write a table given as one column per header entry (see _distinct;
    a caller that holds a column as distinct values and an index passes it
    as a Split, and it is not sorted again), as CSV lines or as the JSON
    list of row objects with sorted keys that ``json.dump`` would write.  A
    cell's text carries its separators (CSV's ',' or newline after it;
    JSON's '"key": ' before it, ', ' or '}, ' after it, in key order).
    Numbers are formatted once per distinct value, by ``str`` (CSV) or
    ``json.dumps`` (JSON), and neighbouring columns of few values share one
    text per pair; strings are formatted a block at a time.  Each block of
    4096 rows gathers its texts into an object array and is written as one
    join."""
    last = len(columns) - 1
    if args.format == "json":
        fmt, start, end = json.dumps, "[", "]\n"
        order = sorted(range(len(columns)), key=header.__getitem__)
        seps = [("{" * (p == 0) + json.dumps(header[j]) + ": ",
                 "}, " if p == last else ", ") for p, j in enumerate(order)]
    else:
        fmt, start, end = str, ",".join(header) + "\n", ""
        order = range(len(columns))
        seps = [("", "\n" if p == last else ",") for p in order]

    def text(values, before, after):
        # numbers take one call, as their texts hold no ', ' or '\0'
        if values and isinstance(values[0], str):
            return np.array([before + fmt(s) + after for s in values],
                            dtype=object)
        return np.array((before + fmt(list(values))[1:-1].replace(
            ", ", after + "\0" + before) + after).split("\0"), dtype=object)

    cells = []
    for j, sep in zip(order, seps):
        values, index = _distinct(columns[j])
        if index is not None:
            values = text(values, *sep)
            # one text per pair of values, so a row joins fewer texts
            if cells and cells[-1][1] is not None \
                    and len(cells[-1][0]) * len(values) <= 4096:
                head, first, _ = cells.pop()
                values, index = (np.add.outer(head, values).ravel(),
                                 first * len(values) + index)
        cells.append((values, index, sep))
    n = min((len(v if i is None else i) for v, i, _ in cells), default=0)
    with _open_out(args) as fh:
        fh.write(start)
        for a in range(0, n, 4096):
            b = min(a + 4096, n)
            rows = np.empty((b - a, len(cells)), dtype=object)
            for j, (values, index, sep) in enumerate(cells):
                rows[:, j] = (text(values[a:b], *sep) if index is None
                              else values[index[a:b]])
            chunk = "".join(rows.ravel().tolist())
            # the JSON list's last row takes no ', ' after it
            fh.write(chunk[:-2] if end and b == n else chunk)
        fh.write(end)


def _write_json(args, doc):
    with _open_out(args) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _float_list(text, option):
    """Parse a comma list of numbers given to ``option``."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ParseError(f"{option} expects a comma list of numbers, "
                         f"got {text!r}")


def _parse_times(args):
    """The sorted snapshot times: the --times list, or --t alone."""
    return sorted(_float_list(args.times, "--times")
                  if args.times is not None else [args.t])


def _snapshots(args, spec, seed, cell_bytes):
    """The sorted snapshot times, admitted as replicas x times cells, and a
    function passing visit(time_index, replica, masses, types, frozen) each
    replica's fragments alive at each time, wave by wave; replica r draws
    from the stream keyed (seed, r), whatever the number of replicas."""
    times = _parse_times(args)
    admit(args.replicas * len(times), cell_bytes, "snapshot cells")
    return times, partial(
        simulate.mass_ensemble, spec, times, args.replicas, seed,
        replica_chunk=1, initial_type=args.initial_type,
        mass_floor=args.mass_floor, max_fragments=args.max_fragments)


def _theta_values(args):
    if args.theta_grid:
        try:
            lo, hi, step = (float(v) for v in args.theta_grid.split(":"))
        except ValueError:
            raise ParseError("--theta-grid expects lo:hi:step")
        if not (-math.inf < lo <= hi < math.inf and 0 < step < math.inf
                and (span := (hi - lo) / step + 1e-9) < MAX_GRID_POINTS):
            raise ParseError(f"--theta-grid expects finite lo <= hi, step > 0 "
                             f"and at most {MAX_GRID_POINTS} points")
        return [lo + i * step for i in range(int(span) + 1)]
    if args.theta is not None:
        return _float_list(args.theta, "--theta")
    return [0.0, 0.5, 1.0, 2.0]


# --- subcommands ----------------------------------------------------------------

def cmd_validate(args):
    try:
        spec = parse_spec_file(args.spec)
    except SpecValidationError as exc:
        _write_json(args, {"valid": False,
                           "violations": [{"code": c, "message": m}
                                          for c, m in exc.violations]})
        raise
    _write_json(args, {
        "valid": True,
        "types": spec.k,
        "conservative": spec.conservative,
        "erosion": list(spec.erosion),
        "total_rates": [spec.total_rate(i) for i in range(1, spec.k + 1)],
    })


def cmd_simulate(args):
    spec = parse_spec_file(args.spec)
    times, run = _snapshots(args, spec, _resolve_seed(args, spec),
                            SIMULATE_CELL_BYTES)
    size = SIMULATE_ROW_BYTES, "rows held for writing"
    most, held = admit(0, *size), 0
    # each visit's rows, with its cell (replica x times + time index), its
    # row count and the rows its cell held before it, joined 256 visits at
    # a time: a visit then holds no arrays of its own
    pieces, joined, arrived = [], [], [0] * len(times) * args.replicas

    def keep(ti, rep, *piece):
        nonlocal held
        held += rep.size
        if held > most:
            admit(held, *size)
        cell = int(rep[0]) * len(times) + ti
        pieces.append((*piece, (cell, rep.size, arrived[cell])))
        arrived[cell] += rep.size
        if len(pieces) == 256:
            joined.append([np.concatenate(col) for col in zip(*pieces)])
            pieces.clear()

    run(keep)
    header = ["replica", "time", "fragment_id", "mass", "type", "frozen_flag"]
    if not held:  # every fragment turned to dust by the first time
        return _write_rows(args, header, [])
    masses, types, frozen, visits = map(np.concatenate, zip(*joined, *pieces))
    del joined[:], pieces[:]
    cell, rows, before = visits.reshape(-1, 3).T
    # fragment_id: a row's rank in its cell, in arrival order
    arrival = np.arange(held) - np.repeat(np.cumsum(rows) - rows - before, rows)
    # one stable sort on (cell, descending mass); masses are >= 0, so their
    # bits sort as they do, and a stable sort of uint16 keys is a radix sort
    distinct, rank = np.unique(masses.view(np.int64), return_inverse=True)
    key = np.repeat(cell, rows) * distinct.size + (distinct.size - 1 - rank)
    order = np.argsort(key.astype(np.uint16) if key.max() < 2 ** 16 else key,
                       kind="stable")
    replica, ti = np.divmod(key[order] // distinct.size, len(times))
    _write_rows(args, header, [replica, Split(times, ti), arrival[order],
                Split(distinct.view(np.float64).tolist(), rank[order]),
                types[order], frozen[order].astype(np.int64)])


def cmd_partition(args):
    spec = parse_spec_file(args.spec)
    seed = _resolve_seed(args, spec)
    times = _parse_times(args)
    admit(args.replicas * len(times) * args.n, PARTITION_LABEL_BYTES,
          "labels written")
    rows = []
    for r in range(args.replicas):
        path = simulate.simulate_partition_fragmentation(
            spec, args.n, max(times), replica_stream(seed, r),
            initial_type=args.initial_type)
        for t in times:
            state = path.at(t)
            for idx, (elems, typ) in enumerate(state.blocks):
                rows.append((r, t, idx, "|".join(map(str, elems)), typ))
    _write_rows(args, ["replica", "time", "block", "elements", "type"],
                list(zip(*rows)))


def cmd_tagged(args):
    spec = parse_spec_file(args.spec)
    seed = _resolve_seed(args, spec)
    simulate.check_tagged_run(spec, args.t, args.replicas,
                              initial_type=args.initial_type)
    columns = [], [], [], []
    replica, times, js, ss = columns
    for r in range(args.replicas):
        path = simulate.simulate_tagged(
            spec, args.t, replica_stream(seed, r),
            initial_type=args.initial_type)
        replica += [r] * len(path.times)
        times += path.times
        js += path.j_values
        ss += path.s_values
    del path  # the last path's lists would outlive their copies
    _write_rows(args, ["replica", "time", "J", "S"], columns)


def cmd_spectral(args):
    spec = parse_spec_file(args.spec)
    thetas = _theta_values(args)
    grid = [{
        "theta": th,
        "phi": sd.phi,
        "phi_d1": sd.phi_d1,
        "phi_d2": sd.phi_d2,
        "u": sd.u.tolist(),
        "v": sd.v.tolist(),
    } for th, sd in zip(thetas, spectral.perron_grid(
        spec, thetas, with_derivatives=True))]
    try:
        tb, dphi = spectral.theta_bar(spec)
        report, failure = {"theta_bar": tb, "phi_prime_at_theta_bar": dphi}, None
    except (NoConvergence, MaximumAtBracketEdge) as exc:
        # the grid is still written; the error is raised after it
        report, failure = {"theta_bar": None, "phi_prime_at_theta_bar": None,
                           "theta_bar_error": type(exc).__name__}, exc
    if args.format == "json":
        _write_json(args, {"grid": grid, **report})
    else:
        header = (["theta", "phi", "phi_d1", "phi_d2"]
                  + [f"u_{j}" for j in range(1, spec.k + 1)]
                  + [f"v_{j}" for j in range(1, spec.k + 1)])
        rows = [tuple([g["theta"], g["phi"], g["phi_d1"], g["phi_d2"]]
                      + g["u"] + g["v"]) for g in grid]
        _write_rows(args, header, list(zip(*rows)))
        dest = sys.stderr if args.out in (None, "-") else sys.stdout
        json.dump(report, dest, sort_keys=True)
        dest.write("\n")
    if failure is not None:
        raise failure


def cmd_martingale(args):
    spec = parse_spec_file(args.spec)
    seed = _resolve_seed(args, spec)
    thetas = _theta_values(args)
    times, run = _snapshots(args, spec, seed,
                            MARTINGALE_ROW_BYTES * len(thetas))
    sds = list(spectral.perron_grid(spec, thetas))
    m = np.zeros((args.replicas, len(times), len(sds)))

    def visit(ti, rep, mass, typ, frozen):
        # M sums over fragments, so each wave adds its part (dust unread)
        part = simulate.Snapshot(times[ti], mass, typ, frozen, math.nan)
        m[rep[0], ti] += [asymptotics.biggins_martingale(part, sd)
                          for sd in sds]

    run(visit)
    r, ti, k = np.indices(m.shape).reshape(3, -1)
    _write_rows(args, ["replica", "theta", "t", "M"],
                [r, np.array(thetas)[k], np.array(times)[ti], m.ravel()])


def cmd_limits(args):
    spec = parse_spec_file(args.spec)
    seed = _resolve_seed(args, spec, min_replicas=2)
    u = asymptotics.stationary_distribution(measures.intensity_matrix(spec))
    sd0 = spectral.perron_eigen(spec, 0.0, with_derivatives=True)
    f = asymptotics.make_test_function(args.f, args.f_center, args.f_width)
    j_arr, s_arr = simulate.tagged_ensemble(
        spec, [args.t], args.replicas, seed, initial_type=args.initial_type)
    j_t, s_t = j_arr[0], s_arr[0]
    # size-biased identity: population mass-averages equal tagged expectations
    y = (-s_t + sd0.phi_d1 * args.t) / math.sqrt(args.t)
    clt_vals = f(y, j_t)
    marg = np.array([(j_t == j).mean() for j in range(1, spec.k + 1)])
    marg_se = np.sqrt(marg * (1 - marg) / args.replicas)
    doc = {
        "t": args.t,
        "replicas": args.replicas,
        "phi_d1_at_0": sd0.phi_d1,
        "phi_d2_at_0": sd0.phi_d2,
        "stationary": [float(x) for x in u],
        "type_marginal": [float(x) for x in marg],
        "type_marginal_se": [float(x) for x in marg_se],
        "lln_location": float((s_t / args.t).mean()),
        "clt_mean": float(clt_vals.mean()),
        "clt_se": float(clt_vals.std(ddof=1) / math.sqrt(args.replicas)),
        "clt_oracle": asymptotics.gaussian_limit(f, u, -sd0.phi_d2),
    }
    _write_json(args, doc)


def cmd_ldcount(args):
    spec = parse_spec_file(args.spec)
    seed = _resolve_seed(args, spec, min_replicas=2)
    if not 0.0 < args.a < args.b < math.inf:
        raise ParseError(f"--a/--b: need 0 < a < b < inf, "
                         f"got a = {args.a}, b = {args.b}")
    times = sorted(_float_list(args.t_grid, "--t-grid"))
    # checked before theta_bar: the predicted shape carries t^(-1/2)
    if not all(0.0 < t < math.inf for t in times):
        raise InvalidArgument(f"--t-grid: need 0 < t < inf, got {times}")
    admit(len(times) * args.replicas * spec.k, 8, "window counts")
    asymptotics.lattice_check(spec)
    tb, _ = spectral.theta_bar(spec)
    theta = args.theta_frac * tb
    sd = spectral.perron_eigen(spec, theta, with_derivatives=True)
    # frozen fragments and their descendants stay below every window
    floor, _ = asymptotics.ld_window(max(times), args.a, args.b, sd)
    counts = np.zeros((len(times), args.replicas, spec.k))

    def visit(ti, rep, mass, typ, frozen):
        lo, hi = asymptotics.ld_window(times[ti], args.a, args.b, sd)
        sel = np.flatnonzero((mass >= lo) & (mass <= hi))
        # counts[ti] is contiguous, so the reshape is a view
        np.add.at(counts[ti].reshape(-1), rep[sel] * spec.k + typ[sel] - 1, 1.0)

    simulate.mass_ensemble(spec, times, args.replicas, seed, visit,
                           initial_type=args.initial_type, mass_floor=floor,
                           replica_chunk=args.replica_chunk,
                           max_fragments=args.max_fragments, drop_frozen=True)
    rows = []
    for ti, t in enumerate(times):
        for j in range(1, spec.k + 1):
            shape = asymptotics.ld_predicted_shape(t, args.a, args.b, j, sd)
            mean = float(counts[ti, :, j - 1].mean())
            se = float(counts[ti, :, j - 1].std(ddof=1)
                       / math.sqrt(args.replicas))
            rows.append((t, theta, j, mean, se, shape))
    _write_rows(args, ["t", "theta", "type", "mean_count", "se",
                       "predicted_shape"], list(zip(*rows)))


def cmd_report(args):
    spec = parse_spec_file(args.spec)
    seed = _resolve_seed(args, spec, min_replicas=2)
    lam = measures.intensity_matrix(spec)
    u0 = asymptotics.stationary_distribution(lam)
    sd0 = spectral.perron_eigen(spec, 0.0, with_derivatives=True)
    tb, dphi = spectral.theta_bar(spec)
    j_arr, s_arr = simulate.tagged_ensemble(spec, [args.t], args.replicas,
                                            seed, initial_type=args.initial_type)
    drift = float((s_arr[0] / args.t).mean())
    doc = {
        "spec": spec_to_document(spec),
        "intensity": [[float(x) for x in row] for row in lam],
        "stationary": [float(x) for x in u0],
        "phi_at_0": sd0.phi,
        "phi_d1_at_0": sd0.phi_d1,
        "phi_d2_at_0": sd0.phi_d2,
        "theta_bar": tb,
        "phi_prime_at_theta_bar": dphi,
        "tagged_mean_drift": drift,
        "tagged_drift_se": float((s_arr[0] / args.t).std(ddof=1)
                                 / math.sqrt(args.replicas)),
        "seed": seed,
    }
    _write_json(args, doc)


# --- parser ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the JSON error line of every failure."""

    def error(self, message):
        sys.exit(_report(ParseError(message)))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multifrag",
        description="simulate and analyze multitype fragmentation models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True, table=True):
        """Shared options; a command that always writes JSON has no --format."""
        p.add_argument("--spec", required=True, help="model JSON file")
        p.add_argument("--out", default=None, help="output path ('-' = stdout)")
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="64-bit seed (or MULTIFRAG_SEED)")
            p.add_argument("--replicas", type=int, default=100)
            p.add_argument("--initial-type", dest="initial_type", type=int,
                           default=1)

    def snapshot_options(p):
        p.add_argument("--t", type=float, default=1.0)
        p.add_argument("--times", default=None,
                       help="comma list of snapshot times")
        p.add_argument("--mass-floor", dest="mass_floor", type=float,
                       default=simulate.DEFAULT_MASS_FLOOR)
        p.add_argument("--max-fragments", dest="max_fragments", type=int,
                       default=2_000_000)

    def theta_options(p):
        p.add_argument("--theta", default=None,
                       help="comma list of theta values")
        p.add_argument("--theta-grid", dest="theta_grid", default=None,
                       help=f"lo:hi:step, finite, at most {MAX_GRID_POINTS} "
                            "points")

    p = sub.add_parser("validate", help="check a model file")
    common(p, seeded=False, table=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "simulate", help="mass-fragmentation snapshots",
        description="One row per fragment alive at each time, by decreasing "
                    "mass.  fragment_id is its rank within that snapshot (from "
                    "0, in the order the fragments were grown), not an id that "
                    "follows it from one time to the next.")
    common(p)
    snapshot_options(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("partition", help="partition-valued paths on {1..n}")
    common(p)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--times", default=None)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("tagged", help="tagged-fragment (J, S) paths")
    common(p)
    p.add_argument("--t", type=float, default=1.0)
    p.set_defaults(func=cmd_tagged)

    p = sub.add_parser("spectral", help="phi, derivatives, eigenvectors, "
                                        "critical exponent")
    common(p, seeded=False)
    theta_options(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("martingale", help="additive martingale replica table")
    common(p)
    theta_options(p)
    snapshot_options(p)
    p.set_defaults(func=cmd_martingale)

    p = sub.add_parser("limits", help="LLN/CLT functionals vs. their limits")
    common(p, table=False)
    p.add_argument("--t", type=float, default=50.0)
    p.add_argument("--f", choices=("bump", "sigmoid", "coswin"),
                   default="bump")
    p.add_argument("--f-center", dest="f_center", type=float, default=0.0,
                   help="finite (exit 2 otherwise)")
    p.add_argument("--f-width", dest="f_width", type=float, default=1.0,
                   help="0 < width < inf (exit 2 otherwise)")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("ldcount", help="windowed fragment counts vs. "
                                       "predicted growth")
    common(p)
    p.add_argument("--theta-frac", dest="theta_frac", type=float, default=0.5,
                   help="theta as a fraction of theta_bar")
    p.add_argument("--t-grid", dest="t_grid", default="8,10,12,14,16")
    p.add_argument("--a", type=float, default=0.5,
                   help="need 0 < a < b < inf (exit 2 otherwise)")
    p.add_argument("--b", type=float, default=2.0, help="see --a")
    p.add_argument("--replica-chunk", dest="replica_chunk", type=int,
                   default=None)
    p.add_argument("--max-fragments", dest="max_fragments", type=int,
                   default=50_000_000,
                   help="fragments grown over all replicas before the run "
                        "is refused (exit 5)")
    p.set_defaults(func=cmd_ldcount)

    p = sub.add_parser("report", help="aggregate model summary")
    common(p, table=False)
    p.add_argument("--t", type=float, default=5.0)
    p.set_defaults(func=cmd_report)

    return parser


def _report(exc: MultifragError) -> int:
    """Write the JSON error line for exc on stderr; return its exit code."""
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SpecValidationError):
        doc["violations"] = [{"code": c, "message": m}
                             for c, m in exc.violations]
    json.dump(doc, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")
    return exc.exit_code


def _show_warning(message, category, filename, lineno, file=None,
                  line=None):
    """Write a warning as one line, `Category: message`: no source path or
    line, so stderr does not move with the code or the install location."""
    (sys.stderr if file is None else file).write(
        f"{category.__name__}: {message}\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # only the format changes: the warning filters still decide what shows
    show, warnings.showwarning = warnings.showwarning, _show_warning
    try:
        args.func(args)
    except MultifragError as exc:
        return _report(exc)
    finally:
        warnings.showwarning = show
    return 0


if __name__ == "__main__":
    sys.exit(main())
