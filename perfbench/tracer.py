"""Outside-in tracer: wraps the package's public functions from outside.

The package imports with ``from .x import y``, so a function is looked up
in the namespace of the module that calls it, not of the module that
defines it. ``Tracer.install`` therefore replaces the function in every
module that holds it (``cli.exact_delta``, ``scenarios.exact_delta``,
``cassinian.pairwise_distances``, ...), and the two ``save`` methods on
their classes. Every wrapper records a span under the defining module's
name, so ``delta.exact_delta`` covers all of its callers.

Spans (name, start, end, parent id, allocation peak and a few counts read
from the arguments and the result) stay in memory until ``metrics`` turns
them into per-layer figures. Allocation peaks come from ``tracemalloc``,
which numpy reports its buffers to; a span's peak counts the memory its
call allocated and still held at the worst moment, its children's
included.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("cli", "spaces", "cassinian", "delta", "verify", "scenarios")

CHECKERS = (
    "check_metric_axioms", "check_ptolemaic", "check_sandwich", "check_mu_bounds",
    "check_lemma_nine", "check_lemma_K", "check_product_lemma", "check_quasi_ptolemy_many",
    "check_mu_P_quasi_triangle",
)
SCENARIOS = ("hyperbolicity_sweep", "arctan_family", "four_point_counterexample")
#: Functions whose allocation peak is reported. tracemalloc runs only while
#: one of them is open: it slows every numpy call about fourfold, which
#: would swamp the self times of the small-array delta kernel.
MEMORY = (*CHECKERS, "punctured_matrix")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    base: int = 0  # bytes traced at entry
    alloc_peak: int = 0  # bytes above ``base``, children included
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _matrix_n(d) -> int:
    return d.n if hasattr(d, "n") else d.shape[0]


def _annotate(name: str, fn):
    """A function ``(bound_arguments, result) -> dict`` of counts to keep."""
    short = name.rsplit(".", 1)[1]
    if short == "exact_delta":
        cores = os.cpu_count() or 1

        def info(args, res):
            n = _matrix_n(args["d"]) if args["n"] is None else args["n"]
            workers = cores if args["workers"] is None else args["workers"]
            return {"quads": res.quadruples_evaluated, "n": n, "workers": workers}
    elif short == "sampled_delta":
        def info(args, res):
            return {"quads": res.quadruples_evaluated}
    elif short in CHECKERS:
        def info(args, res):
            return {"checked": res.checked, "violations": len(res.violations), "meta": res.meta}
    elif short == "punctured_matrix":
        def info(args, res):
            return {"entries": res.n * res.n}
    elif short == "save":
        def info(args, res):
            return {"bytes": Path(args["path"]).stat().st_size}
    elif short in ("load_point_cloud", "load_distance_matrix"):
        def info(args, res):
            return {"bytes": Path(args["path"]).stat().st_size}
    else:
        return None
    sig = inspect.signature(fn)

    def annotate(a, kw, res):
        bound = sig.bind(*a, **kw)
        bound.apply_defaults()
        return info(bound.arguments, res)

    return annotate


class Tracer:
    """Records spans of the package's public functions while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._memory: list[Span] = []  # open spans that track allocations
        self._patches: list[tuple[object, str, object]] = []

    def _targets(self):
        """(owner, attribute, span name, function) for every lookup site."""
        pkg = self.package
        public = set(pkg.__all__)
        for mod_name in MODULES:
            mod = getattr(pkg, mod_name)
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or not fn.__module__.startswith(pkg.__name__ + "."):
                    continue
                if attr in public or (mod_name == "cli" and attr == "main"):
                    yield mod, attr, f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}", fn
        for cls in (pkg.spaces.PointCloud, pkg.spaces.DistanceMatrix):
            yield cls, "save", f"spaces.{cls.__name__}.save", cls.save

    def install(self) -> None:
        for owner, attr, name, fn in list(self._targets()):
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name: str, fn):
        annotate = _annotate(name, fn)
        tracks_memory = name.rsplit(".", 1)[1] in MEMORY

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            span = self._enter(name, tracks_memory)
            try:
                result = fn(*a, **kw)
            finally:
                self._exit(span, tracks_memory)
            if annotate is not None:
                span.info = annotate(a, kw, result)
            return result

        return wrapper

    def _enter(self, name: str, tracks_memory: bool) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, 0.0)
        if tracks_memory:
            if self._memory:
                span.base = self._fold_peak()
            else:
                tracemalloc.start()
            self._memory.append(span)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span, tracks_memory: bool) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if not tracks_memory:
            return
        self._fold_peak()
        self._memory.pop()
        if self._memory:
            outer = self._memory[-1]
            outer.alloc_peak = max(outer.alloc_peak, span.alloc_peak + span.base - outer.base)
        else:
            tracemalloc.stop()

    # tracemalloc keeps one peak for the whole process. At each boundary of
    # a memory-tracked span the peak so far is folded into the innermost
    # open one and the counter is reset, so every span sees the peak of
    # its own interval.
    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        top = self._memory[-1]
        top.alloc_peak = max(top.alloc_peak, peak - top.base)
        tracemalloc.reset_peak()
        return current


def _self_seconds(spans: list[Span]) -> dict[int, float]:
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def metrics(spans: list[Span], passes: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer figures, per pass, from the spans of ``passes`` traced
    passes that took ``traced_wall`` seconds in all. ``untraced_wall`` is
    the mean untraced pass.

    Times and counts are means per pass, so the module self times plus
    ``unattributed_s`` add up to ``traced_wall_s``.
    """
    own = _self_seconds(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(*names: str) -> list[Span]:
        return [s for n in names for s in by_name.get(n, [])]

    def self_s(group_spans) -> float:
        return sum(own[s.id] for s in group_spans) / passes

    def total(group_spans, key: str) -> float:
        return sum(s.info.get(key, 0) for s in group_spans)

    def seconds(group_spans) -> float:
        return sum(s.seconds for s in group_spans)

    m: dict[str, float] = {}
    module_self = {mod: 0.0 for mod in MODULES}
    for s in spans:
        module_self[s.name.split(".", 1)[0]] += own[s.id]
    for mod, secs in module_self.items():
        if mod != "cli":
            m[f"{mod}.self_s"] = secs / passes

    main = group("cli.main")
    m["cli.main.calls"] = len(main) / passes
    m["cli.main.self_s"] = module_self["cli"] / passes

    ex = [s for s in group("delta.exact_delta") if s.info]
    quads = total(ex, "quads")
    inner = sum((s.info["n"] - 3) * (s.info["n"] - 2) // 2 for s in ex)
    w1 = seconds([s for s in ex if s.info["workers"] <= 1]) / passes
    w2 = seconds([s for s in ex if s.info["workers"] == 2]) / passes
    m.update({
        "delta.exact_delta.calls": len(ex) / passes,
        "delta.exact_delta.self_s": self_s(ex),
        "delta.exact_delta.quads": quads / passes,
        "delta.exact_delta.quads_per_s": _ratio(quads, seconds(ex)),
        "delta.exact_delta.call_ms.p50": _pct([s.seconds * 1e3 for s in ex], 50),
        "delta.exact_delta.call_ms.p95": _pct([s.seconds * 1e3 for s in ex], 95),
        "delta.exact_delta.inner_iters": inner / passes,
        "delta.exact_delta.quads_per_inner_iter": _ratio(quads, inner),
        "delta.exact_delta.w1_s": w1,
        "delta.exact_delta.w2_s": w2,
        "delta.exact_delta.pool_speedup": _ratio(w1, w2),
    })
    sd = group("delta.sampled_delta")
    m.update({
        "delta.sampled_delta.calls": len(sd) / passes,
        "delta.sampled_delta.self_s": self_s(sd),
        "delta.sampled_delta.samples_per_s": _ratio(total(sd, "quads"), seconds(sd)),
    })

    for name in CHECKERS:
        ch = group(f"verify.{name}")
        checked = total(ch, "checked")
        m.update({
            f"verify.{name}.self_s": self_s(ch),
            f"verify.{name}.checked": checked / passes,
            f"verify.{name}.checks_per_s": _ratio(checked, seconds(ch)),
            f"verify.{name}.alloc_peak_mb": max((s.alloc_peak for s in ch), default=0) / 1e6,
            f"verify.{name}.violations": total(ch, "violations") / passes,
        })
    lk = [s.info["meta"] for s in group("verify.check_lemma_K")]
    sampled = sum(meta["sampled"] for meta in lk)
    m["verify.check_lemma_K.sampled"] = sampled / passes
    m["verify.check_lemma_K.applicable_frac"] = _ratio(sum(meta["applicable"] for meta in lk), sampled)
    qp = [s.info["meta"] for s in group("verify.check_quasi_ptolemy_many")]
    rows = sum(meta["hypothesis_checked"] for meta in qp)
    kept = rows - sum(meta["hypothesis_skipped"] for meta in qp)
    m["verify.check_quasi_ptolemy_many.hypothesis_checked"] = rows / passes
    m["verify.check_quasi_ptolemy_many.hypothesis_kept_frac"] = _ratio(kept, rows)

    pm = group("cassinian.punctured_matrix")
    m.update({
        "cassinian.punctured_matrix.calls": len(pm) / passes,
        "cassinian.punctured_matrix.self_s": self_s(pm),
        "cassinian.punctured_matrix.entries_per_s": _ratio(total(pm, "entries"), seconds(pm)),
        "cassinian.punctured_matrix.alloc_peak_mb": max((s.alloc_peak for s in pm), default=0) / 1e6,
    })

    pw = group("spaces.pairwise_distances")
    save = group("spaces.PointCloud.save", "spaces.DistanceMatrix.save")
    load = group("spaces.load_point_cloud", "spaces.load_distance_matrix")
    m.update({
        "spaces.pairwise_distances.calls": len(pw) / passes,
        "spaces.pairwise_distances.self_s": self_s(pw),
        "spaces.save.self_s": self_s(save),
        "spaces.save.bytes": total(save, "bytes") / passes,
        "spaces.load.self_s": self_s(load),
        "spaces.load.bytes": total(load, "bytes") / passes,
    })
    for name in SCENARIOS:
        m[f"scenarios.{name}.self_s"] = self_s(group(f"scenarios.{name}"))

    # Work the pass did, counted where it happens: quadruples of the
    # outermost delta calls (sampled_delta may call exact_delta) and the
    # comparisons of every checker.
    delta_ids = {s.id for s in group("delta.exact_delta", "delta.sampled_delta")}
    m["quads_per_pass"] = sum(
        s.info["quads"] for s in spans if s.id in delta_ids and s.parent not in delta_ids
    ) / passes
    m["checks_per_pass"] = sum(total(group(f"verify.{n}"), "checked") for n in CHECKERS) / passes
    m["quads_per_s"] = _ratio(m["quads_per_pass"], untraced_wall)
    m["checks_per_s"] = _ratio(m["checks_per_pass"], untraced_wall)

    roots = sum(s.seconds for s in spans if s.parent is None)
    m["traced_wall_s"] = traced_wall / passes
    m["unattributed_s"] = (traced_wall - roots) / passes
    m["tracing_overhead_s"] = traced_wall / passes - untraced_wall
    return m


UNITS = {
    "calls": "count", "checked": "count", "violations": "count", "quads": "count",
    "inner_iters": "count", "quads_per_inner_iter": "count", "sampled": "count",
    "hypothesis_checked": "count", "bytes": "bytes", "alloc_peak_mb": "MB",
    "p50": "ms", "p95": "ms", "pool_speedup": "x", "applicable_frac": "fraction",
    "hypothesis_kept_frac": "fraction", "quads_per_pass": "count", "checks_per_pass": "count",
    "peak_rss_mb": "MB", "failed_frac": "fraction", "wall_rel": "x",
}


def unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    raise KeyError(name)

