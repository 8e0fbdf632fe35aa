"""Spans around the public functions of the ``multifrag`` modules.

``Tracer.install`` replaces every public function of the traced modules, in
every module namespace that binds it, with a wrapper that records a span:
calls, CPU time in outermost calls (so recursion is not counted twice) and
self time (duration minus the time covered by child spans).  A few hooks read
counts off arguments and results.  Nothing under ``src/`` is edited;
``uninstall`` restores the original bindings.
"""

import inspect
import time
from collections import Counter

TRACED_MODULES = ("measures", "spectral", "simulate", "paintbox",
                  "partitions", "asymptotics", "cli")
TRACED_METHODS = (("simulate", "FragmentationPath", "snapshot"),
                  ("simulate", "PartitionPath", "at"))
VISIT_SPAN = "cli.visit"


class Tracer:
    """In-memory span statistics over the traced rounds of a run."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._depth = Counter()
        self._stack = []
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _timed(self, name, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.process_time() - start
            self._stack.pop()
            self._depth[name] -= 1
            self.calls[name] += 1
            self.self_s[name] += duration - frame[0]
            if self._depth[name] == 0:
                self.total_s[name] += duration
            if self._stack:
                self._stack[-1][0] += duration

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = self._timed(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- counting hooks -----------------------------------------------------

    def _after_simulate_simulate_mass_fragmentation(self, args, kwargs, path):
        self.counts["heap_events"] += len(path.events)

    def _after_simulate_simulate_tagged(self, args, kwargs, path):
        self.counts["tagged_jumps"] += path.n_jumps

    def _after_simulate_simulate_partition_fragmentation(self, args, kwargs,
                                                         path):
        self.counts["partition_events"] += len(path.times) - 1

    def _after_paintbox_sample_paintbox(self, args, kwargs, result):
        self.counts["paintbox_labels"] += result.ground_size

    def _after_simulate_FragmentationPath_snapshot(self, args, kwargs, snap):
        self.counts["snapshot_mass"] += float(snap.masses.sum())
        self.counts["snapshot_frozen_mass"] += float(
            snap.masses[snap.frozen].sum())

    def _before_spectral_perron_eigen(self, args, kwargs):
        if self._depth["spectral.theta_bar"]:
            self.counts["perron_in_theta_bar"] += 1
        return args, kwargs

    def _before_simulate_mass_ensemble(self, args, kwargs):
        """Time the visit callback as its own span, so it is not engine
        self time, and count the fragment rows it receives."""
        args = list(args)
        if len(args) > 4:
            args[4] = self._timed_visit(args[4])
        else:
            kwargs = dict(kwargs, visit=self._timed_visit(kwargs["visit"]))
        return tuple(args), kwargs

    def _timed_visit(self, visit):
        def timed(ti, rep, *rest):
            self.counts["mass_ensemble_rows"] += len(rep)
            return self._timed(VISIT_SPAN, visit, (ti, rep) + rest, {})
        return timed

    # -- installation -------------------------------------------------------

    def install(self, package):
        namespaces = [package] + [getattr(package, m) for m in TRACED_MODULES]
        owners = {f"{package.__name__}.{m}" for m in TRACED_MODULES}
        wrappers = {}
        for module in namespaces[1:]:
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ in owners and id(obj) not in wrappers):
                    span = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(span, obj)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, wrappers[id(obj)])
        for mod, cls_name, meth in TRACED_METHODS:
            cls = getattr(getattr(package, mod), cls_name)
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{mod}.{cls_name}.{meth}", fn))

    def uninstall(self):
        for ns, name, obj in reversed(self._patches):
            setattr(ns, name, obj)
        self._patches.clear()

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self, bytes_written):
        """Per-layer metrics, summed over every traced round."""
        c, t, s, n = self.calls, self.total_s, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def module_self(prefix, exclude=()):
            return sum(v for k, v in s.items()
                       if k.startswith(prefix) and k not in exclude)

        heap_s = t["simulate.simulate_mass_fragmentation"]
        ens_self = s["simulate.mass_ensemble"]
        part_s = t["simulate.simulate_partition_fragmentation"]
        paint_s = t["paintbox.sample_paintbox"]
        return {
            "measures.validate_calls": c["measures.validate_spec"],
            "measures.bernstein_calls": c["measures.bernstein_matrix"],
            "measures.bernstein_s": t["measures.bernstein_matrix"],
            "measures.intensity_calls": c["measures.intensity_matrix"],
            "spectral.perron_calls": c["spectral.perron_eigen"],
            "spectral.perron_self_s": s["spectral.perron_eigen"],
            "spectral.expm_calls": c["spectral.matrix_exponential"],
            "spectral.expm_s": t["spectral.matrix_exponential"],
            "spectral.derivatives_s": t["spectral.phi_derivatives"],
            "spectral.theta_bar_s": t["spectral.theta_bar"],
            "spectral.perron_per_theta_bar": ratio(
                n["perron_in_theta_bar"], c["spectral.theta_bar"]),
            "simulate.heap_events": n["heap_events"],
            "simulate.heap_s": heap_s,
            "simulate.heap_events_per_s": ratio(n["heap_events"], heap_s),
            "simulate.snapshot_calls": c["simulate.FragmentationPath.snapshot"],
            "simulate.snapshot_s": t["simulate.FragmentationPath.snapshot"],
            "simulate.frozen_share": ratio(n["snapshot_frozen_mass"],
                                           n["snapshot_mass"]),
            "simulate.tagged_jumps": n["tagged_jumps"],
            "simulate.tagged_s": t["simulate.simulate_tagged"],
            "simulate.mass_ensemble_rows": n["mass_ensemble_rows"],
            "simulate.mass_ensemble_self_s": ens_self,
            "simulate.mass_ensemble_rows_per_s": ratio(
                n["mass_ensemble_rows"], ens_self),
            "simulate.tagged_ensemble_s": t["simulate.tagged_ensemble"],
            "simulate.partition_events": n["partition_events"],
            "simulate.partition_self_s": s[
                "simulate.simulate_partition_fragmentation"],
            "simulate.partition_us_per_event": 1e6 * ratio(
                part_s, n["partition_events"]),
            "simulate.partition_at_s": t["simulate.PartitionPath.at"],
            "partitions.block_partition_calls": c[
                "partitions.typed_block_partition"],
            "partitions.block_partition_s": t[
                "partitions.typed_block_partition"],
            "paintbox.calls": c["paintbox.sample_paintbox"],
            "paintbox.labels": n["paintbox_labels"],
            "paintbox.s": paint_s,
            "paintbox.labels_per_s": ratio(n["paintbox_labels"], paint_s),
            "asymptotics.martingale_calls": c["asymptotics.biggins_martingale"],
            "asymptotics.self_s": module_self("asymptotics."),
            "cli.parse_s": t["cli.parse_spec_file"] + t["cli.build_parser"],
            "cli.self_s": module_self("cli.", exclude=(VISIT_SPAN,)),
            "cli.bytes_written": bytes_written,
            "cli.visit_s": t[VISIT_SPAN],
        }

    def span_table(self):
        """Every span name with its calls, outermost time and self time."""
        return {name: {"calls": self.calls[name],
                       "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)}
