"""Spans recorded around the package's layer boundaries, and the metrics they give.

The package itself is not changed.  `patched(tracer)` wraps the public
functions listed in `LAYER_FUNCTIONS` and rebinds the wrapper under the same
name in every `memsplate.*` module that holds the original, which covers both
`from .x import y` bindings and module-global calls inside the defining module.
Each call then records one span (name, start, end, parent span, job id, and a
few counts read from the return value).  Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; yields its attribute dict."""
        sp = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                  self._open[-1] if self._open else None, self.job)
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp.attrs
        except BaseException:
            sp.attrs["ok"] = False
            raise
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, func, name: str, observe=None):
        """`func` recording a span per call; `observe(attrs, result)` reads counts."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = func(*args, **kwargs)
                attrs["ok"] = True
                if observe is not None:
                    observe(attrs, result)
                return result

        return traced

    def to_json(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def _iterations(attrs, result):
    attrs["iters"] = int(result[1])


def _points(attrs, result):
    attrs["points"] = len(result.points)


def _proved(attrs, result):
    attrs["proved"] = bool(result.proved)


def _boxes(attrs, result):
    attrs["proved"] = bool(result.proved)
    attrs["boxes"] = int(result.boxes)


# (module, function, observer): the layer boundaries the benchmark measures.
# Span names are "<module>.<function>".  Hot inner calls (Signomial.enclosure,
# the per-box interval operations) are deliberately not wrapped: a span per box
# would cost more than the work it measures.
LAYER_FUNCTIONS = (
    ("cli", "main", None),
    ("grid", "build_grid", None),
    ("operators", "bilaplacian_clamped", None),
    ("operators", "bilaplacian_form", None),
    ("branch", "sweep_branch", _points),
    ("branch", "newton_solve", _iterations),
    ("branch", "monotone_solve", _iterations),
    ("stability", "nu1", None),
    ("stability", "nu1_discrete", None),
    ("stability", "mu1", None),
    ("certificates", "check_cond1", None),
    ("certificates", "check_cond2", None),
    ("hardy", "discrete_form_check", None),
    ("verify", "sampled_min", None),
    ("verify", "inf_enclosure", None),
    ("verify", "prove_signomial_nonneg", _proved),
    ("intervals", "prove_nonneg", _boxes),
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install span wrappers for `LAYER_FUNCTIONS`; the originals are back on exit."""
    bound = []
    try:
        for module, name, observe in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"memsplate.{module}"), name)
            wrapper = tracer.wrap(original, f"{module}.{name}", observe)
            holders = [m for key, m in list(sys.modules.items())
                       if (key == "memsplate" or key.startswith("memsplate."))
                       and getattr(m, name, None) is original]
            for m in holders:
                setattr(m, name, wrapper)
                bound.append((m, name, original))
        yield tracer
    finally:
        for m, name, original in reversed(bound):
            setattr(m, name, original)


# --------------------------------------------------------------------------
# span arithmetic


def self_seconds(span: Span, children: list[Span]) -> float:
    """Duration of `span` minus the part of it its child spans cover."""
    covered, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


class SpanTree:
    """Index over a finished list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def has_ancestor(self, span: Span, *names: str) -> bool:
        p = span.parent
        while p is not None:
            anc = self.by_id[p]
            if anc.name in names:
                return True
            p = anc.parent
        return False

    def busy(self, *names: str) -> float:
        """Time inside spans of `names`, counting nested ones among them once."""
        return sum(s.seconds for s in self.named(*names)
                   if not self.has_ancestor(s, *names))

    def self_time(self, *names: str) -> float:
        return sum(self_seconds(s, self.children.get(s.id, []))
                   for s in self.named(*names))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from the spans of one pass."""
    t = SpanTree(spans)
    newton, monotone = t.named("branch.newton_solve"), t.named("branch.monotone_solve")
    newton_ok = [s for s in newton if s.attrs.get("ok")]
    monotone_ok = [s for s in monotone if s.attrs.get("ok")]
    solves = newton + monotone
    eig = t.named("stability.nu1_discrete", "stability.mu1")
    proofs = t.named("verify.prove_signomial_nonneg")
    enclosures = t.named("verify.inf_enclosure")
    levels = [s for s in proofs if t.has_ancestor(s, "verify.inf_enclosure")]
    runs = t.named("intervals.prove_nonneg")
    boxes = sum(s.attrs.get("boxes", 0) for s in runs)
    prove_s = t.busy("intervals.prove_nonneg")
    newton_iters = sum(s.attrs["iters"] for s in newton_ok)
    m = {
        "grid.builds": (len(t.named("grid.build_grid")), "count"),
        "operators.calls": (len(t.named("operators.bilaplacian_clamped",
                                        "operators.bilaplacian_form")), "count"),
        "operators.busy_s": (t.busy("operators.bilaplacian_clamped",
                                    "operators.bilaplacian_form"), "s"),
        "branch.sweeps": (len(t.named("branch.sweep_branch")), "count"),
        "branch.points": (sum(s.attrs.get("points", 0)
                              for s in t.named("branch.sweep_branch")), "count"),
        "branch.newton_calls": (len(newton), "count"),
        "branch.newton_iters": (newton_iters, "count"),
        "branch.iters_per_newton": (_ratio(newton_iters, len(newton_ok)), "iter/call"),
        "branch.newton_failed": (len(newton) - len(newton_ok), "count"),
        "branch.monotone_calls": (len(monotone), "count"),
        "branch.monotone_failed": (len(monotone) - len(monotone_ok), "count"),
        "branch.monotone_iters": (sum(s.attrs["iters"] for s in monotone_ok), "count"),
        "branch.failed_solve_s": (sum(s.seconds for s in solves
                                      if not s.attrs.get("ok")), "s"),
        "branch.solve_success_ratio": (_ratio(len(newton_ok) + len(monotone_ok),
                                              len(solves)), "ratio"),
        "branch.newton_s": (t.busy("branch.newton_solve"), "s"),
        "branch.monotone_s": (t.busy("branch.monotone_solve"), "s"),
        "branch.self_s": (t.self_time("branch.sweep_branch"), "s"),
        "stability.eigensolves": (len(eig), "count"),
        "stability.eig_s": (t.busy("stability.nu1_discrete", "stability.mu1"), "s"),
        "stability.eig_p50_ms": (1e3 * statistics.median(s.seconds for s in eig)
                                 if eig else 0.0, "ms"),
        "certificates.cond1_s": (t.busy("certificates.check_cond1"), "s"),
        "certificates.cond2_s": (t.busy("certificates.check_cond2"), "s"),
        "verify.sampled_min_s": (t.busy("verify.sampled_min"), "s"),
        "verify.proofs": (len(proofs), "count"),
        "verify.proof_success_ratio": (_ratio(sum(1 for s in proofs
                                                  if s.attrs.get("proved")),
                                              len(proofs)), "ratio"),
        "verify.enclosures": (len(enclosures), "count"),
        "verify.levels_per_enclosure": (_ratio(len(levels), len(enclosures)),
                                        "proof/encl"),
        "verify.enclosure_s": (t.busy("verify.inf_enclosure"), "s"),
        "intervals.bisections": (len(runs), "count"),
        "intervals.boxes": (boxes, "count"),
        "intervals.boxes_per_proof": (_ratio(boxes, len(runs)), "box/run"),
        "intervals.boxes_per_s": (_ratio(boxes, prove_s), "1/s"),
        "intervals.prove_s": (prove_s, "s"),
        "hardy.form_check_s": (t.busy("hardy.discrete_form_check"), "s"),
        "cli.self_s": (t.self_time("cli.main"), "s"),
    }
    return m
