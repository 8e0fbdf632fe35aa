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
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import islice

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


# --- spec files ----------------------------------------------------------------

def _number(value, where):
    """Accept decimals or exact 'p/q' fraction strings."""
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad fraction {value!r}") from exc
    if isinstance(value, (int, float)):
        return float(value)
    raise ParseError(f"{where}: expected a number, got {value!r}")


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
    return measures.fragmentation_spec(
        k, dislocation, erosion=erosion, conservative=doc.get("conservative"))


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


def _csv_cells(column):
    """The text of one column's cells: a float as its plain repr, an int as
    its decimal digits, a string as it is (no cell needs CSV quoting).  A
    column is a float64 or int64 array, or a list whose cells are all floats
    (numpy floats included), all ints or all strings; any other column
    raises TypeError rather than print different text.

    Numbers are formatted once per distinct value and their cells share the
    text: simulated masses are products of a few atom masses and repeat
    (on the two-type demo model about 2% of a ``simulate`` table's masses
    are distinct), so this saves both time and memory."""
    if isinstance(column, np.ndarray):
        kinds = {column.dtype.type}
    else:
        kinds = set(map(type, column))
        if kinds <= {str}:
            return column
    if kinds <= {float, np.float64}:
        column, fmt = np.asarray(column, dtype=np.float64), repr
    elif kinds <= {int, np.int64}:
        column, fmt = np.asarray(column, dtype=np.int64), str
    else:
        raise TypeError("cannot write a column of "
                        + ", ".join(sorted(k.__name__ for k in kinds)))
    # floats are keyed by bit pattern, so 0.0 and -0.0 keep their own text
    distinct, index = np.unique(column.view(np.int64), return_inverse=True)
    text = list(map(fmt, distinct.view(column.dtype).tolist()))
    return list(map(text.__getitem__, index.tolist()))


def _write_rows(args, header, columns):
    """Write a table given as one column per header entry (see _csv_cells),
    as CSV lines or as a JSON list of row objects."""
    with _open_out(args) as fh:
        if args.format == "json":
            rows = zip(*[col.tolist() if isinstance(col, np.ndarray) else col
                         for col in columns])
            json.dump([dict(zip(header, row)) for row in rows], fh,
                      sort_keys=True)
            fh.write("\n")
        else:
            fh.write(",".join(header) + "\n")
            lines = map(",".join, zip(*map(_csv_cells, columns)))
            # a few thousand lines per write keep memory flat on large tables
            while block := list(islice(lines, 4096)):
                fh.write("\n".join(block) + "\n")


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
    # 1272 bytes per cell: one-fragment snapshots written as JSON
    times, run = _snapshots(args, spec, _resolve_seed(args, spec), 1272)
    cells = {}  # (replica, time index) -> its pieces in arrival order
    run(lambda ti, rep, *piece:
        cells.setdefault((rep[0], ti), []).append(piece))
    blocks = []
    for r, ti in sorted(cells):
        masses, types, frozen = map(np.concatenate, zip(*cells.pop((r, ti))))
        order = np.argsort(-masses, kind="stable")
        blocks.append((np.full(order.size, r), np.full(order.size, times[ti]),
                       order, masses[order], types[order],
                       frozen[order].astype(np.int64)))
    _write_rows(args, ["replica", "time", "fragment_id", "mass", "type",
                       "frozen_flag"],
                [np.concatenate(col) for col in zip(*blocks)])


def cmd_partition(args):
    spec = parse_spec_file(args.spec)
    seed = _resolve_seed(args, spec)
    times = _parse_times(args)
    # 407 bytes per label: every label a singleton, written as JSON
    admit(args.replicas * len(times) * args.n, 407, "labels written")
    rows = []
    for r in range(args.replicas):
        path = simulate.simulate_partition_fragmentation(
            spec, args.n, max(times), replica_stream(seed, r),
            initial_type=args.initial_type)
        for t in times:
            state = path.at(t)
            for idx, (elems, typ) in enumerate(state.blocks):
                rows.append((r, t, idx, "|".join(str(e) for e in elems), typ))
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
    _write_rows(args, ["replica", "time", "J", "S"], columns)


def cmd_spectral(args):
    spec = parse_spec_file(args.spec)
    grid = []
    for th in _theta_values(args):
        sd = spectral.perron_eigen(spec, th, with_derivatives=True)
        grid.append({
            "theta": th,
            "phi": sd.phi,
            "phi_d1": sd.phi_d1,
            "phi_d2": sd.phi_d2,
            "u": [float(x) for x in sd.u],
            "v": [float(x) for x in sd.v],
        })
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
    # 333 bytes per row: one-fragment snapshots written as JSON
    times, run = _snapshots(args, spec, seed, 333 * len(thetas))
    sds = [spectral.perron_eigen(spec, th) for th in thetas]
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
                           max_fragments=args.max_fragments)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except MultifragError as exc:
        return _report(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
