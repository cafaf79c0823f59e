"""Spans around scatcalc's layer boundaries, installed from outside.

The wrappers replace the module attributes through which the layers
call each other, so nothing under ``src/`` changes:

* ``term.parse_term`` and the by-name copy in ``cli``;
* ``term.sort_key``, counted only: it runs once per node of every
  gluing, pointed gluing or wedge built, and a span per call would
  swamp the run;
* ``compare._step``, counted only: each call builds one trace step,
  on any engine, so memo hits add nothing;
* ``compare.cb_type`` and ``compare.format_term``, the by-name imports
  through which the engine types terms and formats trace text;
* ``rewrite.normalize``, reached by the engine, by the rewrite rules
  themselves and by ``generators``;
* ``compare.compare``, the default engine that the rewrite rules call;
* ``Engine.compare`` on every engine but the default one, that is on
  the benchmark's own engines;
* ``generators.centered_raw``, ``generator_raw``,
  ``equivalence_classes`` and ``hasse``;
* ``oracle.brute_force_le``.

A span is ``[name, start_ns, end_ns, parent, error, outer]``:
``parent`` is the index of the enclosing span or -1, ``error`` the name
of the exception it ended with, and ``outer`` is true when no enclosing
span has the same name.  Spans stay in memory until :meth:`Tracer.take`.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name)
SPANNED = (
    ("term", "parse_term", "term.parse_term"),
    ("cli", "parse_term", "term.parse_term"),
    ("compare", "cb_type", "rank.cb_type"),
    ("compare", "format_term", "term.format_term"),
    ("compare", "compare", "compare.compare"),
    ("generators", "centered_raw", "generators.centered_raw"),
    ("generators", "generator_raw", "generators.generator_raw"),
    ("generators", "equivalence_classes", "generators.equivalence_classes"),
    ("generators", "hasse", "generators.hasse"),
    ("oracle", "brute_force_le", "oracle.brute_force_le"),
)
ENGINE_SPAN = "compare.Engine.compare"

# per-layer metric names, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "term.parse_term.calls": "count",
    "term.parse_term.s": "s",
    "term.format_term.calls": "count",
    "term.format_term.s": "s",
    "term.sort_key.calls": "count",
    "rank.cb_type.calls": "count",
    "rank.cb_type.self_s": "s",
    "rank.cb_type.cache_hits": "count",
    "rewrite.normalize.calls": "count",
    "rewrite.normalize.self_s": "s",
    "rewrite.normalize.distinct_inputs": "count",
    "compare.Engine.compare.calls": "count",
    "compare.Engine.compare.self_s": "s",
    "compare.compare.calls": "count",
    "compare.compare.self_s": "s",
    "compare.trace_steps": "count",
    "compare.verdicts.le": "count",
    "compare.verdicts.not_le": "count",
    "compare.verdicts.unknown": "count",
    "generators.centered_raw.s": "s",
    "generators.generator_raw.s": "s",
    "generators.raw_terms": "count",
    "generators.refused_s": "s",
    "generators.equivalence_classes.s": "s",
    "generators.classes": "count",
    "generators.undecided_pairs": "count",
    "generators.hasse.s": "s",
    "generators.hasse_edges": "count",
    "oracle.brute_force_le.calls": "count",
    "oracle.brute_force_le.s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.type_ms": "ms",
    "cli.main.normalize_ms": "ms",
    "cli.main.compare_ms": "ms",
    "cli.main.generators_ms": "ms",
    "cli.main.hasse_ms": "ms",
    "cli.main.oracle_ms": "ms",
    "machine.slowdown": "ratio",
    "trace.untraced_round_s": "s",
    "trace.traced_round_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.normalize_inputs: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------

    def install(self, sc) -> None:
        """Wrap the layer boundaries of the scatcalc modules in ``sc``."""
        for module_name, attr, name in SPANNED:
            module = getattr(sc, module_name, None)
            if module is not None:
                self._patch(module, attr, self._span(name, getattr(module, attr)))
        self._patch(sc.term, "sort_key", self._counted("term.sort_key.calls", sc.term.sort_key))
        self._patch(sc.compare, "_step", self._counted("compare.trace_steps", sc.compare._step))
        normalize = sc.rewrite.normalize
        inputs = self.normalize_inputs

        def note_input(t, *args, **kwargs):
            inputs.add(t)
            return normalize(t, *args, **kwargs)

        self._patch(sc.rewrite, "normalize", self._span("rewrite.normalize", note_input))
        self._patch_engine(sc.compare)

    def _patch_engine(self, compare_mod) -> None:
        engine_cls = compare_mod.Engine
        plain = engine_cls.compare
        default = compare_mod.default_engine()
        traced = self._span(ENGINE_SPAN, plain)
        counts = self.counts
        keys = {"LE": "compare.verdicts.le", "NOT_LE": "compare.verdicts.not_le",
                "UNKNOWN": "compare.verdicts.unknown"}

        def compare(engine, f, g):
            if engine is default:
                return plain(engine, f, g)
            verdict = traced(engine, f, g)
            counts[keys[verdict.outcome.name]] += 1
            return verdict

        self._patch(engine_cls, "compare", compare)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _span(self, name: str, fn):
        spans, stack, open_, clock = self.spans, self.stack, self.open, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None, open_[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            open_[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                open_[name] -= 1
                stack.pop()
                span[2] = clock()

        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- reading ------------------------------------------------------

    def take(self) -> dict:
        """Hand over what was recorded since the last take, and reset."""
        taken = {
            "spans": self.spans[:],
            "counts": dict(self.counts),
            "normalize_inputs": len(self.normalize_inputs),
        }
        self.spans.clear()
        self.counts.clear()
        self.normalize_inputs.clear()
        return taken


def layer_metrics(taken: dict) -> dict[str, float]:
    """Calls, inclusive seconds and self seconds per span name.

    Inclusive time sums only the outermost span of a name, so recursion
    is not counted twice; self time is a span's duration minus the
    durations of its direct children.
    """
    spans = taken["spans"]
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    refused_ns = 0
    for i, (name, start, end, _, error, outer) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        if outer:
            inclusive[name] += end - start
            if name == "generators.generator_raw" and error == "FeasibilityError":
                refused_ns += end - start
    out: dict[str, float] = {}
    for name in ("term.parse_term", "term.format_term", "oracle.brute_force_le"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = inclusive[name] / 1e9
    for name in ("rank.cb_type", "rewrite.normalize", ENGINE_SPAN, "compare.compare"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for name in ("centered_raw", "generator_raw", "equivalence_classes", "hasse"):
        out[f"generators.{name}.s"] = inclusive[f"generators.{name}"] / 1e9
    out["generators.refused_s"] = refused_ns / 1e9
    out["rewrite.normalize.distinct_inputs"] = taken["normalize_inputs"]
    for key in ("term.sort_key.calls", "compare.trace_steps", "compare.verdicts.le",
                "compare.verdicts.not_le", "compare.verdicts.unknown"):
        out[key] = taken["counts"].get(key, 0)
    return out


def write_spans(path: Path, spans: list) -> None:
    """One span per line, tab-separated: name, start and end in ns from
    the first span, parent index, and the exception name or ``-``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = spans[0][1] if spans else 0
    with path.open("w") as out:
        for name, start, end, parent, error, _ in spans:
            out.write(f"{name}\t{start - origin}\t{end - origin}\t{parent}\t{error or '-'}\n")
