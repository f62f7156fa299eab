"""Spans and call counts recorded around paraframe's public functions.

Each function is wrapped at the binding its caller looks up: `report`
imports `immerse` and friends by name, so those are patched in
`paraframe.report`; `cli` imports the report builders and renderers by
name, so those are patched in `paraframe.cli`; `report` calls `frame`,
`classifier` and `nijenhuis` through the module, so those are patched on
the module.  `patched` puts every original object back on exit, also when
the traced code raises.  A binding the program no longer has is skipped.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Binding:
    name: str  # span name: defining module and function
    layer: str  # layer the span's self time is charged to
    owner: str  # module (or module:Class) whose attribute is patched
    attr: str


def _bindings() -> tuple[Binding, ...]:
    out = [Binding("cli.main", "cli", "paraframe.cli", "main")]
    for fn in ("run_verify", "sweep_row", "classify_report", "curvature_report"):
        out.append(Binding(f"report.{fn}", "report", "paraframe.cli", fn))
    for fn in ("render_json", "render_text", "render_sweep_csv"):
        out.append(Binding(f"report.{fn}", "render", "paraframe.cli", fn))
    for fn in ("point_report", "analyze_point"):
        out.append(Binding(f"report.{fn}", "report", "paraframe.report", fn))
    for fn in ("sample_points", "immerse", "orthonormal_frame", "bracket_field"):
        out.append(Binding(f"hypersurface.{fn}", "hypersurface", "paraframe.report", fn))
    out.append(Binding("hypersurface.closed_form_field", "reference", "paraframe.report",
                       "closed_form_field"))
    out.append(Binding("reference.model_reference", "reference", "paraframe.report",
                       "model_reference"))
    for fn in ("koszul", "curvature", "sectional", "jacobi_residual", "space_form_residual",
               "d_eta", "nabla_xi_xi"):
        out.append(Binding(f"frame.{fn}", "frame", "paraframe.frame", fn))
    for fn in ("fundamental_tensor", "lee_forms", "class_components", "classification_tol",
               "classify", "f_symmetry_residuals", "check_nabla_eta_relation"):
        out.append(Binding(f"classifier.{fn}", "classifier", "paraframe.classifier", fn))
    for fn in ("nijenhuis_from_F", "assoc_nijenhuis_from_F", "nijenhuis_direct"):
        out.append(Binding(f"nijenhuis.{fn}", "nijenhuis", "paraframe.nijenhuis", fn))
    return tuple(out)


#: Bindings the span recorder and the counting pass both wrap.
BINDINGS = _bindings()

#: The jet product, wrapped by the counting pass only, so that its wrapper
#: adds nothing to span times.
JET_MUL = Binding("jets.mul", "jets", "paraframe.jets:TJet", "__mul__")


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def patched(bindings, wrap):
    """Replace each binding's object by `wrap(binding, original)` for the block.

    Yields the bindings that were present and patched.
    """
    saved = []
    try:
        for b in bindings:
            owner = resolve(b.owner)
            original = vars(owner).get(b.attr)
            if original is None:
                continue
            saved.append((b, owner, original))
            setattr(owner, b.attr, wrap(b, original))
        yield [b for b, _, _ in saved]
    finally:
        for b, owner, original in reversed(saved):
            setattr(owner, b.attr, original)


def originals(bindings) -> dict[Binding, object]:
    """The objects currently bound, for checking that patching left none behind."""
    out = {}
    for b in bindings:
        obj = vars(resolve(b.owner)).get(b.attr)
        if obj is not None:
            out[b] = obj
    return out


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    trace: int  # the operation (one cli.main call) the span belongs to
    name: str
    layer: str
    start: float
    end: float


class SpanRecorder:
    """Keeps one span per wrapped call in memory; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace = 0
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, b: Binding, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, self.trace, b.name, b.layer, start, end))

        return traced

    def self_seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self time (span minus its children) summed per span name and per layer."""
        children = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.end - s.start
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        for s in self.spans:
            own = s.end - s.start - children[s.id]
            by_name[s.name] += own
            by_layer[s.layer] += own
        return dict(by_name), dict(by_layer)


class CallCounter:
    """Counts calls per binding, jet products with two jet operands, and the
    characters the renderers return."""

    def __init__(self):
        self.counts: Counter[str] = Counter()

    def wrap(self, b: Binding, fn):
        counts = self.counts
        name = b.name
        if b is JET_MUL:
            jet_type = resolve(b.owner)

            @functools.wraps(fn)
            def counted_mul(a, other):
                if isinstance(other, jet_type):
                    counts[name] += 1
                return fn(a, other)

            return counted_mul
        if b.layer == "render":

            @functools.wraps(fn)
            def counted_render(*args, **kwargs):
                text = fn(*args, **kwargs)
                counts[name] += 1
                counts["report.render.bytes"] += len(text)
                return text

            return counted_render

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted
