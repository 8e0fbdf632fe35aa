"""Benchmark of ``multifrag`` studies run through its CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs one workload.  Ops (one subcommand invocation each) run
in-process through ``multifrag.cli.main`` in a closed loop, writing into a
temporary directory inside the checkout.  The loop runs whole rounds, a
round being the workload's fixed list of ops, until ``--seconds`` of op CPU
time have been measured.  Every op's output is checked and digested outside
the timed region; failed ops are counted, never fatal.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds twice, once untraced and once with spans around every
public function of the ``multifrag`` modules, and prints the per-layer
metrics.  The last line of standard output is one JSON object;
the lines before it, and a results file under ``.bench_results/``, hold the
same numbers with sample counts, per-op digests and run metadata.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

# BLAS reads its thread count when numpy is first imported, so pin it first.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
MIN_ROUNDS = 3
TRACE_ROUNDS = 4
SETUP_PROBES = 12


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_multifrag():
    """Import the package from this checkout's ``src``, never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "multifrag", "__init__.py")):
        raise SetupError(f"no src/multifrag under {ROOT}")
    sys.path.insert(0, SRC)
    import multifrag
    import multifrag.cli
    if not os.path.abspath(multifrag.__file__).startswith(SRC + os.sep):
        raise SetupError(f"multifrag imported from {multifrag.__file__}")
    return multifrag


def set_up(package, workload, seed, directory):
    """Write the workload's model files and parse each once."""
    for stem, doc in workloads.models_for(workload, seed).items():
        path = os.path.join(directory, stem + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        package.cli.parse_spec_file(path)


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe_setup(args):
    """CPU seconds of one fresh process that only sets up."""
    cpu_start = _children_cpu_s()
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--setup-probe", "--workload", args.workload,
                    "--seed", str(args.seed)], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return _children_cpu_s() - cpu_start


class Runner:
    """Runs rounds of ops and keeps one record per op."""

    def __init__(self, package, workload, seed, directory):
        self.cli = package.cli
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.records = []
        self.first_digest = {}

    def run_rounds(self, phase, seconds, after_round):
        """CPU seconds of each round (the sum over its ops).

        Runs rounds until ``seconds`` of op CPU time and MIN_ROUNDS rounds
        are done, so the sample count does not depend on how busy the host
        is.  ``after_round`` receives the share of ``seconds`` done so far.
        """
        cpu = []
        while len(cpu) < MIN_ROUNDS or sum(cpu) < seconds:
            cpu.append(self.run_round(phase, len(cpu)))
            after_round(sum(cpu) / seconds)
        return cpu

    def run_traced(self, package, tracer):
        """CPU seconds of rounds 0..TRACE_ROUNDS-1, each run untraced and
        traced, in alternating order so drift in host speed cancels."""
        untraced, traced = [], []
        for r in range(TRACE_ROUNDS):
            for phase in (("untraced", "traced") if r % 2 == 0
                          else ("traced", "untraced")):
                if phase == "traced":
                    tracer.install(package)
                try:
                    cpu = self.run_round(phase, r)
                finally:
                    tracer.uninstall()
                (traced if phase == "traced" else untraced).append(cpu)
        return untraced, traced

    def run_round(self, phase, r):
        """CPU seconds of round ``r``: the sum over its ops."""
        return sum(self.run_op(phase, r, *op)["cpu_s"]
                   for op in workloads.round_ops(self.workload, self.seed, r,
                                                 self.directory))

    def run_op(self, phase, round_index, name, argv, ext, model):
        out = os.path.join(self.directory, f"out.{ext}")
        err = io.StringIO()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(argv + ["--out", out])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed run
            code = None
            err.write(json.dumps({"error": type(exc).__name__,
                                  "message": str(exc)}) + "\n")
        cpu = time.process_time() - cpu_start
        wall = time.perf_counter() - start

        error = _error_name(err.getvalue())
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        expected = workloads.EXPECTED_FAILURES.get(f"{self.workload}:{name}")
        problems = []
        if code != 0:
            problems.append(f"exit code {code} ({error})")
        else:
            try:
                problems += workloads.check_output(argv[0], model, out, argv)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        key = json.dumps(argv)
        if self.first_digest.setdefault(key, digest) != digest:
            problems.append("output differs from an earlier run of this op")
        if os.path.exists(out):
            os.remove(out)
        record = {
            "phase": phase, "round": round_index, "op": name,
            "argv": [os.path.basename(a) if a.startswith(self.directory)
                     else a for a in argv],
            "exit": code, "error": error, "cpu_s": cpu, "wall_s": wall,
            "bytes": len(data), "sha256": digest, "problems": problems,
            "failed": bool(problems),
            "expected_failure": bool(problems and expected and code != 0
                                     and error == expected[0]),
        }
        if record["expected_failure"]:
            record["known_defect"] = f"{expected[0]}, {expected[1]}"
        self.records.append(record)
        return record


def _error_name(stderr_text):
    for line in stderr_text.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and "error" in doc:
            return doc["error"]
    return None


def end_to_end(runner, round_cpu, setup_cpu):
    """End-to-end metrics from CPU time.

    Ops are single-threaded and CPU-bound, so on an idle host CPU and wall
    time agree; on a shared host wall time also counts the time the process
    waited for a processor, which varies from run to run with the other
    tenants.  Each op's wall time is kept in the results file.
    """
    ops = runner.records
    n = len(ops)
    tail_p = workloads.TAIL_PERCENTILE[runner.workload]
    beyond = n - int(np.ceil(n * tail_p / 100.0))
    cpu_ms = [r["cpu_s"] * 1e3 for r in ops]
    return {
        "setup_s": (statistics.median(setup_cpu),
                    f"CPU, median of {len(setup_cpu)} fresh set-up processes"),
        "round_cpu_s": (statistics.median(round_cpu),
                        f"median of {len(round_cpu)} rounds"),
        "op_cpu_p50_ms": (float(np.percentile(cpu_ms, 50.0)),
                          f"p50 of {n} ops"),
        "op_cpu_tail_ms": (float(np.percentile(cpu_ms, tail_p)),
                           f"p{tail_p:g} of {n} ops, {beyond} beyond"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "ru_maxrss of the workload process"),
    }


def layer_metrics(runner, untraced, traced, tracer):
    bytes_written = sum(r["bytes"] for r in runner.records
                        if r["phase"] == "traced")
    metrics = {name: (value, f"over {len(traced)} traced rounds")
               for name, value in tracer.layer_metrics(bytes_written).items()}
    metrics["trace.overhead_frac"] = (
        sum(traced) / sum(untraced) - 1.0,
        f"traced over untraced op time of the same {len(traced)} rounds")
    return metrics


def metadata(args):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
    }


def load_metric_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    units = load_metric_units(args.trace)
    package = import_multifrag()
    os.makedirs(TMP_ROOT, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        set_up(package, args.workload, args.seed, directory)
        runner = Runner(package, args.workload, args.seed, directory)
        spans = None
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = runner.run_traced(package, tracer)
            metrics = layer_metrics(runner, untraced, traced, tracer)
            spans = tracer.span_table()
        else:
            # Set-up probes are spread over the timed rounds, so that their
            # median samples the speed of the host over the whole run.
            setup = []

            def probe_due(progress):
                while len(setup) < min(SETUP_PROBES, SETUP_PROBES * progress):
                    setup.append(probe_setup(args))

            round_cpu = runner.run_rounds("timed", args.seconds, probe_due)
            probe_due(1.0)
            metrics = end_to_end(runner, round_cpu, setup)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    meta = metadata(args)
    missing = set(units) - set(metrics)
    if missing:
        raise SetupError(f"metrics not measured: {sorted(missing)}")
    records = runner.records
    failed = [r for r in records if r["failed"]]
    unexpected = [r for r in failed if not r["expected_failure"]]
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }
    round0 = hashlib.sha256("".join(
        r["sha256"] for r in records
        if r["round"] == 0 and r["phase"] != "traced").encode()).hexdigest()

    os.makedirs(RESULTS_DIR, exist_ok=True)
    results_path = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w") as fh:
        json.dump({"metadata": meta, "result": result,
                   "notes": {k: v[1] for k, v in metrics.items()},
                   "round0_digest": round0, "spans": spans, "ops": records},
                  fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"git {meta['git_sha'][:12]}  python {meta['python']}  numpy "
          f"{meta['numpy']}  nproc {meta['nproc']}  BLAS threads 1  "
          f"src lines {meta['src_lines']}")
    for name, unit in units.items():
        value, note = metrics[name]
        print(f"  {name:<36} {value:>16.6g} {unit:<6} {note}")
    print(f"  {'failed_frac':<36} {len(failed) / len(records):>16.6g} "
          f"{'':<6} {len(failed)} of {len(records)} ops failed")
    kinds = Counter(
        (r["op"], r["problems"][0],
         "known defect: " + r["known_defect"] if r["expected_failure"]
         else "UNEXPECTED") for r in failed)
    for (op, problem, kind), count in sorted(kinds.items()):
        print(f"    {count} x {op}: {problem} [{kind}]")
    print(f"  round-0 output digest {round0}")
    print(f"  results in {os.path.relpath(results_path, ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload untraced and traced, each in its own process."""
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if args.setup_probe:
            os.makedirs(TMP_ROOT, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=TMP_ROOT) as directory:
                set_up(import_multifrag(), args.workload, args.seed,
                       directory)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (SetupError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
