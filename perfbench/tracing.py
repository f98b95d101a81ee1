"""Spans and call tallies recorded from outside the package, around the
entry points of its layers, and the per-layer metrics derived from them.

A span records one call of a wrapped function: name, start, end and the
span that was open when it began (its parent).  A function called hundreds
of thousands of times per pass (the exact winner check, the scalar tails)
is tallied instead: a count and a total time per (name, parent), so memory
stays flat however many calls there are.  Everything stays in memory until
the op ends; ``merge`` then joins the ops of a pass.

Each layer is found by the current name of its module-level function.  When
a name is missing (a later change removed or renamed it) the layer is listed
as absent and its metrics are left out, never reported as zero.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and tallies for one op.

    Spans opened in a worker thread with nothing open on that thread take the
    main thread's innermost open span as parent: the Monte Carlo pool runs
    chunks while the main thread waits inside the estimator.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.tallies: Dict[Tuple[str, Optional[int]], List[float]] = {}
        self.absent: List[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: List[int] = []

    def _stack(self) -> List[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: List[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def _run(self, name: str, fn: Callable, args: tuple, kwargs: dict, attrs: dict):
        stack = self._stack()
        span = Span(next(self._ids), name, self._parent(stack), time.perf_counter(), attrs=attrs)
        stack.append(span.id)
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        return span, out

    def call(self, name: str, fn: Callable, *args, **attrs):
        """Run ``fn(*args)`` inside a span carrying ``attrs``."""
        return self._run(name, fn, args, {}, attrs)[1]

    def wrap_span(
        self,
        name: str,
        fn: Callable,
        annotate: Optional[Callable[[tuple, dict, object], dict]] = None,
    ) -> Callable:
        """``fn`` recording a span per call; ``annotate(args, kwargs, out)``
        adds attributes from the call's arguments and result."""

        def wrapper(*args, **kwargs):
            span, out = self._run(name, fn, args, kwargs, {})
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, out))
            return out

        return functools.wraps(fn)(wrapper)

    def wrap_tally(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                key = (name, self._parent(self._stack()))
                with self._lock:
                    entry = self.tallies.setdefault(key, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed

        return functools.wraps(fn)(wrapper)

    def dump(self, origin: float = 0.0) -> dict:
        """Spans and tallies as JSON-ready lists, times relative to ``origin``."""
        return {
            "spans": [
                [s.id, s.name, s.parent, s.start - origin, s.end - origin, s.attrs]
                for s in sorted(self.spans, key=lambda s: s.start)
            ],
            "tallies": [
                [name, parent, count, seconds]
                for (name, parent), (count, seconds) in self.tallies.items()
            ],
        }


def merge(dumps: Iterable[dict], absent: List[str]) -> Tracer:
    """One tracer holding the spans and tallies of several dumps (one per op
    process), with span ids renumbered so that they stay unique."""
    tracer = Tracer()
    tracer.absent = list(absent)
    for dump in dumps:
        ids = {span[0]: next(tracer._ids) for span in dump["spans"]}
        for span_id, name, parent, start, end, attrs in dump["spans"]:
            tracer.spans.append(Span(ids[span_id], name, ids.get(parent), start, end, attrs))
        for name, parent, count, seconds in dump["tallies"]:
            entry = tracer.tallies.setdefault((name, ids.get(parent)), [0, 0.0])
            entry[0] += count
            entry[1] += seconds
    return tracer


# Layer boundaries: (span name, module, attribute).  Attributes that hold a
# method are written Class.method.
SPAN_TARGETS = (
    ("cli.render", "condorcet.cli", "_render_json"),
    ("montecarlo.estimate", "condorcet.montecarlo", "estimate_condorcet_probability"),
    ("montecarlo.sample", "condorcet.montecarlo", "_sample_positions"),
    ("montecarlo.kernel", "condorcet.montecarlo", "_count_winners_vectorized"),
    ("exact.probability", "condorcet.exact", "condorcet_probability"),
    ("exact.enumerate", "condorcet.exact", "_enumerate_range"),
    ("model.expand", "condorcet.model", "Culture.expand"),
    ("asymptotic.constant", "condorcet.asymptotic", "estimate_leading_constant"),
    ("asymptotic.box", "condorcet.asymptotic", "truncated_box_integral"),
    ("asymptotic.refine", "condorcet.asymptotic", "_refine"),
    ("asymptotic.quad", "condorcet.asymptotic", "_tensor_quad"),
    ("asymptotic.axis_rule", "condorcet.asymptotic", "_axis_rule"),
    ("verify.run", "condorcet.verify", "run_suites"),
)

TALLY_TARGETS = (
    ("exact.winner", "condorcet.exact", "_multiset_winner"),
    ("special.tail", "condorcet.special", "majority_tail"),
    ("special.tail", "condorcet.special", "majority_tail_exact"),
    ("special.tail", "condorcet.special", "majority_tail_derivative"),
    ("special.tail", "condorcet.special", "poisson_binomial_tail"),
    ("special.tail", "condorcet.special", "elementary_symmetric"),
)

# Arguments an annotator reads; a target whose signature lacks them is absent.
_NEEDED_PARAMETERS = {"asymptotic.quad": ("dims", "nodes")}


def _annotate_sample(args, kwargs, out) -> dict:
    return {"profiles": int(out.shape[0]), "bytes": int(out.nbytes)}


def _quad_annotator(fn: Callable) -> Callable:
    signature = inspect.signature(fn)

    def annotate(args, kwargs, out) -> dict:
        bound = signature.bind(*args, **kwargs).arguments
        return {"points": len(bound["nodes"]) ** int(bound["dims"])}

    return annotate


def _suite_annotator(suite: str) -> Callable:
    def annotate(args, kwargs, out) -> dict:
        return {"suite": suite, "trials": sum(report.trials for report in out)}

    return annotate


def _rebind(original: object, replacement: object) -> None:
    """Point every module-level name, and every value of a module-level dict,
    that holds ``original`` anywhere in the package at ``replacement``.

    Modules import layer functions by name and registries such as
    ``verify.SUITES`` hold them by value, so each binding is replaced.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "condorcet":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif type(value) is dict and attr != "__builtins__":
                for key, item in value.items():
                    if item is original:
                        value[key] = replacement


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported package with ``tracer``."""
    for name, module_name, attr in SPAN_TARGETS + TALLY_TARGETS:
        module = sys.modules.get(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = owner.__dict__.get(method) if owner is not None else None
        needed = _NEEDED_PARAMETERS.get(name, ())
        if original is None or not set(needed) <= set(inspect.signature(original).parameters):
            tracer.absent.append(f"{module_name}.{attr}")
            continue
        if (name, module_name, attr) in TALLY_TARGETS:
            wrapped = tracer.wrap_tally(name, original)
        elif name == "montecarlo.sample":
            wrapped = tracer.wrap_span(name, original, _annotate_sample)
        elif name == "asymptotic.quad":
            wrapped = tracer.wrap_span(name, original, _quad_annotator(original))
        else:
            wrapped = tracer.wrap_span(name, original)
        if owner_name:
            setattr(owner, method, wrapped)
        else:
            _rebind(original, wrapped)
    verify = sys.modules.get("condorcet.verify")
    suites = getattr(verify, "SUITES", None)
    if suites is None:
        tracer.absent.append("condorcet.verify.SUITES")
        return
    for suite, fn in list(suites.items()):
        suites[suite] = tracer.wrap_span("verify.suite", fn, _suite_annotator(suite))


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# The exact instances reported on rows of their own, by op label suffix.
EXACT_INSTANCES = ("impartial_3_9", "impartial_4_2", "cyclic_12_4", "cyclic_10_5")


def layer_metrics(tracer: Tracer, suites: Iterable[str]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    A metric whose layer was not exercised in the pass reads 0.  A metric
    whose layer is absent is left out.
    """
    by_name: Dict[str, List[Span]] = {}
    children: Dict[Optional[int], List[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
        children.setdefault(span.parent, []).append(span)
    tallied: Dict[Tuple[str, Optional[int]], List[float]] = tracer.tallies

    absent_spans = {name for name, m, a in SPAN_TARGETS + TALLY_TARGETS if f"{m}.{a}" in tracer.absent}
    if "condorcet.verify.SUITES" in tracer.absent:
        absent_spans.add("verify.suite")
    metrics: Dict[str, Tuple[float, str]] = {}

    def put(name: str, unit: str, needs: Tuple[str, ...], value: Callable[[], float]) -> None:
        if not absent_spans.intersection(needs):
            number = value()
            metrics[name] = (int(number) if unit == "count" else float(number), unit)

    def spans(name: str) -> List[Span]:
        return by_name.get(name, [])

    def busy(name: str) -> float:
        return sum(s.seconds for s in spans(name))

    def tally(name: str, parents: Optional[set] = None, index: int = 1) -> float:
        return sum(
            entry[index]
            for (tname, parent), entry in tallied.items()
            if tname == name and (parents is None or parent in parents)
        )

    def self_time(span: Span, counts: Callable[[str], bool] = lambda name: True) -> float:
        """The span's duration minus what its child spans and tallies cover,
        counting only children whose name passes ``counts``."""
        kids = [c for c in children.get(span.id, []) if counts(c.name)]
        covered = _covered(((c.start, c.end) for c in kids), span.start, span.end)
        tallies = sum(
            entry[1]
            for (name, parent), entry in tallied.items()
            if parent == span.id and counts(name)
        )
        return span.seconds - covered - tallies

    def subtree(root: Span) -> List[Span]:
        out, todo = [], [root]
        while todo:
            node = todo.pop()
            out.append(node)
            todo.extend(children.get(node.id, []))
        return out

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # montecarlo
    samples = spans("montecarlo.sample")
    profiles = sum(s.attrs["profiles"] for s in samples)
    mc = ("montecarlo.estimate", "montecarlo.sample", "montecarlo.kernel")
    sample = ("montecarlo.sample",)
    put("montecarlo.sample_s", "s", sample, lambda: busy("montecarlo.sample"))
    put("montecarlo.kernel_s", "s", ("montecarlo.kernel",), lambda: busy("montecarlo.kernel"))
    put("montecarlo.sample_us_per_profile", "us", sample,
        lambda: 1e6 * ratio(busy("montecarlo.sample"), profiles))
    put("montecarlo.kernel_us_per_profile", "us", mc[1:],
        lambda: 1e6 * ratio(busy("montecarlo.kernel"), profiles))
    put("montecarlo.chunk_bytes", "bytes", sample,
        lambda: max((s.attrs["bytes"] for s in samples), default=0))
    put("montecarlo.chunks", "count", sample, lambda: len(samples))
    put("montecarlo.dispatch_s", "s", mc,
        lambda: sum(self_time(s) for s in spans("montecarlo.estimate")))
    put("montecarlo.profiles_per_s", "1/s", mc,
        lambda: ratio(profiles, busy("montecarlo.estimate")))

    # exact and model
    ex = ("exact.probability", "exact.enumerate", "exact.winner", "model.expand")

    def enumeration_seconds(roots: List[Span]) -> float:
        return sum(
            root.seconds
            - sum(c.seconds for c in children.get(root.id, []) if c.name == "model.expand")
            for root in roots
        )

    def multisets(roots: List[Span]) -> float:
        ids = {s.id for root in roots for s in subtree(root) if s.name == "exact.enumerate"}
        return tally("exact.winner", ids, index=0)

    all_exact = spans("exact.probability")
    put("exact.multisets", "count", ex, lambda: multisets(all_exact))
    put("exact.us_per_multiset", "us", ex,
        lambda: 1e6 * ratio(enumeration_seconds(all_exact), multisets(all_exact)))
    put("exact.winner_s", "s", ("exact.winner",), lambda: tally("exact.winner"))
    put("exact.accumulate_s", "s", ("exact.enumerate", "exact.winner"),
        lambda: sum(self_time(s) for s in spans("exact.enumerate")))
    put("model.expand_s", "s", ("model.expand",), lambda: busy("model.expand"))
    for instance in EXACT_INSTANCES:
        roots = [
            s
            for op in spans("cli.run")
            if op.attrs.get("label") == f"exact_{instance}"
            for s in subtree(op)
            if s.name == "exact.probability"
        ]
        put(f"exact.{instance}.multisets", "count", ex, lambda r=roots: multisets(r))
        put(f"exact.{instance}.us_per_multiset", "us", ex,
            lambda r=roots: 1e6 * ratio(enumeration_seconds(r), multisets(r)))

    # asymptotic
    quads = spans("asymptotic.quad")
    points = sum(s.attrs["points"] for s in quads)
    refine_ids = {s.id for s in spans("asymptotic.refine")}
    put("asymptotic.points", "count", ("asymptotic.quad",), lambda: points)
    put("asymptotic.refinements", "count", ("asymptotic.quad", "asymptotic.refine"),
        lambda: sum(1 for s in quads if s.parent in refine_ids))
    put("asymptotic.quad_s", "s", ("asymptotic.quad",), lambda: busy("asymptotic.quad"))
    put("asymptotic.points_per_s", "1/s", ("asymptotic.quad",),
        lambda: ratio(points, busy("asymptotic.quad")))
    put("asymptotic.axis_rule_s", "s", ("asymptotic.axis_rule",),
        lambda: busy("asymptotic.axis_rule"))

    # verify and special
    suite_spans = spans("verify.suite")
    for suite in suites:
        put(f"verify.{suite}_s", "s", ("verify.suite",), lambda suite=suite: sum(
            self_time(s, lambda name: name.startswith("asymptotic."))
            for s in suite_spans
            if s.attrs["suite"] == suite
        ))
    put("verify.trials", "count", ("verify.suite",),
        lambda: sum(s.attrs["trials"] for s in suite_spans))
    put("special.tail_calls", "count", ("special.tail",), lambda: tally("special.tail", index=0))
    put("special.tail_s", "s", ("special.tail",), lambda: tally("special.tail"))

    # cli
    library = ("cli.render", "montecarlo.estimate", "exact.probability",
               "asymptotic.constant", "verify.run")
    put("cli.self_s", "s", library, lambda: sum(self_time(s) for s in spans("cli.run")))
    put("cli.render_s", "s", ("cli.render",), lambda: busy("cli.render"))
    return metrics
