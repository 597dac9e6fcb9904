"""Span tracing for the benchmark's traced passes.

Hooks wrap public functions of ``clickwitness`` at the module attributes
where their callers look them up, so the package itself is not modified.
Each hooked call is a span; span stacks are kept per thread because
``cli.run`` fans out to a thread pool.  A span's self time is its duration
minus the part its child spans cover, measured both in wall time
(``time.perf_counter``) and in thread CPU time (``time.thread_time``).

If a hooked name no longer exists, a ``HookMissingWarning`` names it and the
metrics that depend on that hook are omitted rather than reported as zero.
Untraced passes never import this module.
"""

from __future__ import annotations

import importlib
import inspect
import os
import resource
import threading
import time
import warnings


class HookMissingWarning(UserWarning):
    """A function the benchmark traces is gone from its lookup site."""


class _Frame:
    __slots__ = ("hook", "wall0", "cpu0", "child_wall", "child_cpu", "evals")

    def __init__(self, hook):
        self.hook = hook
        self.wall0 = time.perf_counter()
        self.cpu0 = time.thread_time()
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.evals = 0


class _ThreadStats:
    """Totals kept by one thread, merged when the pass ends."""

    def __init__(self, pool: bool):
        self.pool = pool
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.wait = 0.0

    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value


class Hook:
    """One traced layer: the lookup sites of one function and its bookkeeping.

    ``sites`` are ``"module:attribute"`` strings; an attribute may be a
    dotted class attribute such as ``SymMatrix.build``.  ``span`` hooks time
    the call; ``evaluator`` hooks count one matrix-entry evaluation against
    the enclosing witness-report span; ``after`` receives the thread stats,
    the bound arguments, the result and the call's wall time.
    """

    def __init__(self, name, sites, span=True, evaluator=False, report=False,
                 before=None, after=None):
        self.name = name
        self.sites = tuple(sites)
        self.span = span
        self.evaluator = evaluator
        self.report = report
        self.before = before
        self.after = after


def _distinct_pair_sums(iset) -> int:
    keys = []
    for element in iset.elements:
        parts = element if isinstance(element, tuple) else (element,)
        keys.append(tuple(part.twice for part in parts))
    return len({
        tuple(x + y for x, y in zip(a, b))
        for i, a in enumerate(keys) for b in keys[i:]
    })


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _after_run(stats, args, result, wall):
    stats.add(f"run_wall:{args['scenario'].name}", wall)
    stats.add("output_files", len(result))
    stats.add("output_bytes", sum(os.path.getsize(path) for path in result))


def _after_report(stats, args, result, wall):
    stats.add("distinct_sums", _distinct_pair_sums(args["iset"]))


def _after_min_eigenvalue(stats, args, result, wall):
    dim = args["matrix"].dim
    stats.counters["max_dim"] = max(stats.counters.get("max_dim", 0), dim)


def _after_sample(stats, args, result, wall, rss_before):
    shots = args["shots"]
    stats.add("shots", shots)
    grown = _maxrss_bytes() - rss_before
    stats.counters["bytes_per_shot"] = max(
        stats.counters.get("bytes_per_shot", 0.0), grown / shots
    )


def _after_empirical(stats, args, result, wall):
    stats.add("redraws", args["resamples"])


def _after_write(stats, args, result, wall):
    stats.add("histogram_bytes", os.path.getsize(args["path"]))


HOOKS = (
    Hook("cli.run", ["clickwitness.cli:run"], after=_after_run),
    Hook("witnesses", [
        "clickwitness.cli:count_matrix",
        "clickwitness.cli:moment_matrix",
        "clickwitness.sampler:count_matrix_from_counts",
        "clickwitness.sampler:moment_matrix_from_counts",
    ], report=True, after=_after_report),
    Hook("numerics.SymMatrix.build", ["clickwitness.numerics:SymMatrix.build"]),
    Hook("numerics.min_eigenvalue", ["clickwitness.witnesses:min_eigenvalue"],
         after=_after_min_eigenvalue),
    Hook("numerics.leading_minors", ["clickwitness.witnesses:leading_minors"]),
    Hook("detectors.povm_product_value", [
        "clickwitness.witnesses:povm_product_value",
        "clickwitness.detectors:povm_product_value",
    ], evaluator=True),
    Hook("detectors.distribution", [
        "clickwitness.detectors:click_distribution",
        "clickwitness.detectors:pnr_distribution",
    ]),
    Hook("states.expect", [
        "clickwitness.states:expect",
        "clickwitness.multimode:expect",
    ], evaluator=True),
    # Distribution lookups of the from-counts assembly: counted, not timed,
    # so their cost stays inside the assembly they serve.
    Hook("distribution_lookups", [
        "clickwitness.detectors:CountDistribution.prob",
        "clickwitness.witnesses:click_moment_from_counts",
        "clickwitness.witnesses:pnr_moment_from_counts",
        "clickwitness.witnesses:factorial_moment_from_counts",
    ], span=False, evaluator=True),
    Hook("multimode.ratio_criterion", ["clickwitness.cli:ratio_criterion"]),
    Hook("multimode.mean_total_photons", ["clickwitness.cli:mean_total_photons"]),
    Hook("multimode.joint_moment", ["clickwitness.multimode:joint_moment"]),
    Hook("sampler.sample", ["clickwitness.sampler:sample"],
         before=_maxrss_bytes, after=_after_sample),
    Hook("sampler.empirical_witness", ["clickwitness.sampler:empirical_witness"],
         after=_after_empirical),
    Hook("sampler.write_histogram", ["clickwitness.sampler:write_histogram"],
         after=_after_write),
)

FIGURES = ("fig1", "fig3", "fig4", "fig5", "fig6")

# metric name -> (unit, hooks it needs)
METRICS = {
    "cli.run.calls": ("count", ("cli.run",)),
    "cli.run.busy_s": ("s", ("cli.run",)),
    "cli.pool.wait_s": ("s", ("cli.run",)),
    "cli.output.bytes": ("B", ("cli.run",)),
    "cli.output.files": ("count", ("cli.run",)),
    **{f"cli.run.{fig}.wall_s": ("s", ("cli.run",)) for fig in FIGURES},
    "witnesses.reports": ("count", ("witnesses",)),
    "witnesses.busy_s": ("s", ("witnesses",)),
    "witnesses.evals_per_report": ("count", (
        "witnesses", "detectors.povm_product_value", "states.expect",
        "distribution_lookups")),
    "witnesses.useful_eval_ratio": ("ratio", (
        "witnesses", "detectors.povm_product_value", "states.expect",
        "distribution_lookups")),
    "numerics.SymMatrix.build.busy_s": ("s", ("numerics.SymMatrix.build",)),
    "numerics.min_eigenvalue.calls": ("count", ("numerics.min_eigenvalue",)),
    "numerics.min_eigenvalue.busy_s": ("s", ("numerics.min_eigenvalue",)),
    "numerics.leading_minors.busy_s": ("s", ("numerics.leading_minors",)),
    "numerics.max_dim": ("count", ("numerics.min_eigenvalue",)),
    "detectors.povm_product_value.calls": ("count", ("detectors.povm_product_value",)),
    "detectors.povm_product_value.busy_s": ("s", ("detectors.povm_product_value",)),
    "detectors.distribution.calls": ("count", ("detectors.distribution",)),
    "detectors.distribution.busy_s": ("s", ("detectors.distribution",)),
    "states.expect.calls": ("count", ("states.expect",)),
    "states.expect.busy_s": ("s", ("states.expect",)),
    **{
        f"multimode.{name}.{quantity}": (unit, (f"multimode.{name}",))
        for name in ("ratio_criterion", "joint_moment", "mean_total_photons")
        for quantity, unit in (("calls", "count"), ("busy_s", "s"))
    },
    "sampler.sample.shots": ("count", ("sampler.sample",)),
    "sampler.sample.busy_s": ("s", ("sampler.sample",)),
    "sampler.sample.bytes_per_shot": ("B/shot", ("sampler.sample",)),
    "sampler.empirical_witness.calls": ("count", ("sampler.empirical_witness",)),
    "sampler.empirical_witness.busy_s": ("s", ("sampler.empirical_witness",)),
    "sampler.bootstrap.redraws": ("count", ("sampler.empirical_witness",)),
    "sampler.write_histogram.busy_s": ("s", ("sampler.write_histogram",)),
    "sampler.write_histogram.bytes": ("B", ("sampler.write_histogram",)),
}


def _resolve(site: str):
    """(owner object, attribute name) of a ``module:attr`` site, or None."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Installs the hooks, collects per-thread span totals, reports metrics."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []
        self._main = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        # Hooks whose bookkeeping no longer fits the call, e.g. a renamed
        # parameter; their metrics are omitted like those of missing hooks.
        self.broken: set[str] = set()

    def _stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = _ThreadStats(pool=threading.get_ident() != self._main)
            self._local.stats = stats
            with self._lock:
                self._threads.append(stats)
        return stats

    def install(self) -> None:
        for hook in HOOKS:
            resolved = [(site, _resolve(site)) for site in hook.sites]
            missing = [site for site, found in resolved if found is None]
            if missing:
                for site in missing:
                    warnings.warn(
                        f"hook {hook.name}: {site} not found; "
                        "its metrics are omitted",
                        HookMissingWarning, stacklevel=2,
                    )
                continue
            for _, (owner, attr) in resolved:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(hook, raw.__func__))
                else:
                    patched = self._wrap(hook, raw)
                setattr(owner, attr, patched)
                self._restore.append((owner, attr, raw))
            self.installed.add(hook.name)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, hook: Hook, fn):
        signature = inspect.signature(fn)
        tracer = self

        def count_eval(stack):
            for frame in reversed(stack):
                if frame.hook.report:
                    frame.evals += 1
                    return

        if not hook.span:
            def counted(*args, **kwargs):
                count_eval(tracer._stats().stack)
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            stats = tracer._stats()
            if hook.evaluator:
                count_eval(stats.stack)
            before = hook.before() if hook.before else None
            frame = _Frame(hook)
            stats.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - frame.wall0
                cpu = time.thread_time() - frame.cpu0
                stats.stack.pop()
                if stats.stack:
                    stats.stack[-1].child_wall += wall
                    stats.stack[-1].child_cpu += cpu
                self_cpu = cpu - frame.child_cpu
                stats.calls[hook.name] = stats.calls.get(hook.name, 0) + 1
                stats.busy[hook.name] = stats.busy.get(hook.name, 0.0) + self_cpu
                if stats.pool:
                    stats.wait += (wall - frame.child_wall) - self_cpu
            if hook.report:
                stats.add("evals", frame.evals)
            if hook.after and hook.name not in tracer.broken:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = () if before is None else (before,)
                try:
                    hook.after(stats, bound.arguments, result, wall, *extra)
                except (KeyError, AttributeError, TypeError) as exc:
                    tracer.broken.add(hook.name)
                    warnings.warn(
                        f"hook {hook.name}: cannot read {exc!r} from the call; "
                        "its metrics are omitted",
                        HookMissingWarning, stacklevel=2,
                    )
            return result

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        counters: dict[str, float] = {}
        wait = 0.0
        for stats in self._threads:
            for key, value in stats.calls.items():
                calls[key] = calls.get(key, 0) + value
            for key, value in stats.busy.items():
                busy[key] = busy.get(key, 0.0) + value
            for key, value in stats.counters.items():
                if key in ("max_dim", "bytes_per_shot"):
                    counters[key] = max(counters.get(key, 0), value)
                else:
                    counters[key] = counters.get(key, 0) + value
            wait += stats.wait

        reports = calls.get("witnesses", 0)
        evals = counters.get("evals", 0)
        values = {
            "cli.pool.wait_s": wait,
            "cli.output.bytes": counters.get("output_bytes", 0),
            "cli.output.files": counters.get("output_files", 0),
            **{
                f"cli.run.{fig}.wall_s": counters.get(f"run_wall:{fig}", 0.0)
                for fig in FIGURES
            },
            "witnesses.reports": reports,
            "witnesses.evals_per_report": evals / reports if reports else 0.0,
            "witnesses.useful_eval_ratio":
                counters.get("distinct_sums", 0) / evals if evals else 0.0,
            "numerics.max_dim": counters.get("max_dim", 0),
            "sampler.sample.shots": counters.get("shots", 0),
            "sampler.sample.bytes_per_shot": counters.get("bytes_per_shot", 0.0),
            "sampler.bootstrap.redraws": counters.get("redraws", 0),
            "sampler.write_histogram.bytes": counters.get("histogram_bytes", 0),
        }
        # The rest are per-layer call counts and busy times.
        for name in METRICS:
            if name in values:
                continue
            layer, _, quantity = name.rpartition(".")
            values[name] = (
                calls.get(layer, 0) if quantity == "calls" else busy.get(layer, 0.0)
            )
        return {
            name: (values[name], unit)
            for name, (unit, needs) in METRICS.items()
            if all(hook in self.installed and hook not in self.broken
                   for hook in needs)
        }
