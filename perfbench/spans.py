"""Spans around the public functions of each rulerverse module.

The tracer patches module and class attributes from outside the package, so
nothing under ``src/`` changes; ``uninstall`` restores every original.  A span
is (id, parent, name, start, end, tag).  Spans are kept in memory; the caller
writes them out when the run ends.  Worker threads of the stage runners start
with an empty span stack, so their outermost spans take the running CLI stage
as parent: the stage caused them, and stages run one at a time.
"""
from __future__ import annotations

import functools
import itertools
import statistics
import threading
from time import perf_counter

_COUNTS = (".calls", ".hits", ".misses", ".errors", ".files", ".requests", ".connections",
           ".retries", ".reprompts", ".n_max")
STAGES = ("translate", "ruler", "verse_gen", "verse_classify", "verse_grade", "report", "agree")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage = 0
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        `tag(args, kwargs, result)` labels a successful call; a call that
        raises is tagged "error".
        """
        original = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._stage
            span_id = next(tracer._ids)
            stack.append(span_id)
            label = "error"
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                label = tag(args, kwargs, result) if tag else ""
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, label))

        self._set(owner, attr, traced)

    def wrap_stage(self, table: dict, key: str, name: str) -> None:
        original = table[key]
        tracer = self

        @functools.wraps(original)
        def traced(ctx):
            span_id = next(tracer._ids)
            tracer._stage = span_id
            start = perf_counter()
            try:
                return original(ctx)
            finally:
                tracer._stage = 0
                tracer.spans.append((span_id, 0, f"cli.stage.{name}", start, perf_counter(), ""))

        self._set(table, key, traced)

    def install(self) -> None:
        from rulerverse import cli, corpus, judge, metrics, report, ruler, translate, verse

        for key, name in (("translate", "translate"), ("ruler", "ruler"),
                          ("report", "report"), ("agree", "agree")):
            self.wrap_stage(cli.COMMANDS, key, name)
        for key in ("gen", "classify", "grade"):
            self.wrap_stage(cli.VERSE_COMMANDS, key, f"verse_{key}")
        self.wrap(cli, "read_artifact", "cli.read_artifact")
        for attr in ("load_corpus", "load_candidates", "load_annotations"):
            self.wrap(corpus, attr, "corpus.load")
        self.wrap(corpus, "write_jsonl", "corpus.write_jsonl")
        self.wrap(judge.Judge, "complete", "judge.complete",
                  tag=lambda a, k, r: "hit" if r.cached else "miss")
        self.wrap(judge, "cache_key", "judge.cache_key")
        self.wrap(judge.MockScript, "respond", "judge.mock_respond")
        self.wrap(ruler, "build_ruler_prompt", "ruler.prompt")
        self.wrap(ruler, "parse_likert_score", "ruler.parse")
        self.wrap(verse, "build_generation_prompt", "verse.prompt")
        self.wrap(verse, "build_grading_prompt", "verse.prompt")
        self.wrap(verse, "build_classification_prompt", "verse.prompt",
                  tag=lambda a, k, r: "reprompt" if len(a) > 1 or k.get("reprompt_answer") is not None else "")
        for attr in ("parse_question_list", "_normalize_label", "parse_score"):
            self.wrap(verse, attr, "verse.parse")
        self.wrap(translate, "build_translation_prompt", "translate.prompt")
        self.wrap(translate, "select_shot_pairs", "translate.shots")
        self.wrap(metrics, "kendall_tau_b", "metrics.tau", tag=lambda a, k, r: str(len(a[0])))
        self.wrap(metrics, "spearman_rho", "metrics.rho")
        self.wrap(metrics, "mse", "metrics.mse")
        self.wrap(metrics, "krippendorff_alpha", "metrics.alpha")
        self.wrap(metrics, "per_label_prf", "metrics.prf")
        self.wrap(metrics.RatingVector, "common_items", "metrics.align")
        self.wrap(report, "aggregate_table", "report.aggregate")
        self.wrap(report, "radar_svg", "report.svg")
        for attr in ("table_to_csv", "agreement_to_csv", "confusion_to_csv"):
            self.wrap(report, attr, "report.csv")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0 for no samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals of one round's spans, named after rulerverse's modules."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, name, start, end, label in spans:
        key = f"{name}.{label}" if name == "judge.complete" else name
        busy[key] = busy.get(key, 0.0) + end - start
        calls[key] = calls.get(key, 0) + 1
        if name == "verse.prompt" and label == "reprompt":
            calls["verse.reprompts"] = calls.get("verse.reprompts", 0) + 1
        children.setdefault(parent, []).append((start, end))

    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"cli.stage_s.{stage}"] = out[f"cli.self_s.{stage}"] = 0.0
    for span_id, _, name, start, end, _ in spans:
        if name.startswith("cli.stage."):
            stage = name[len("cli.stage."):]
            out[f"cli.stage_s.{stage}"] += end - start
            out[f"cli.self_s.{stage}"] += end - start - _covered(children.get(span_id, []), start, end)
    out["cli.read_artifact_s"] = busy.get("cli.read_artifact", 0.0)

    for layer in ("corpus.load", "corpus.write_jsonl"):
        out[f"{layer}_s"] = busy.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)

    hits, misses, errors = (calls.get(f"judge.complete.{t}", 0) for t in ("hit", "miss", "error"))
    out["judge.calls"] = hits + misses + errors
    out["judge.hits"] = hits
    out["judge.misses"] = misses
    out["judge.hit_ratio"] = hits / out["judge.calls"] if out["judge.calls"] else 0.0
    out["judge.hit_s"] = busy.get("judge.complete.hit", 0.0)
    out["judge.miss_s"] = busy.get("judge.complete.miss", 0.0)
    out["judge.cache_key_s"] = busy.get("judge.cache_key", 0.0)
    out["judge.mock_respond_s"] = busy.get("judge.mock_respond", 0.0)
    out["judge.miss_other_s"] = out["judge.miss_s"] - out["judge.mock_respond_s"]
    out["judge.errors"] = errors
    miss_ms = [1000.0 * (end - start) for _, _, name, start, end, label in spans
               if name == "judge.complete" and label == "miss"]
    out["judge.miss_ms.p50"] = _quantile(miss_ms, 50)
    out["judge.miss_ms.p99"] = _quantile(miss_ms, 99)

    out["ruler.prompt_s"] = busy.get("ruler.prompt", 0.0)
    out["ruler.prompt.calls"] = calls.get("ruler.prompt", 0)
    out["ruler.parse_s"] = busy.get("ruler.parse", 0.0)
    out["verse.prompt_s"] = busy.get("verse.prompt", 0.0)
    out["verse.prompt.calls"] = calls.get("verse.prompt", 0)
    out["verse.parse_s"] = busy.get("verse.parse", 0.0)
    out["verse.reprompts"] = calls.get("verse.reprompts", 0)
    out["translate.prompt_s"] = busy.get("translate.prompt", 0.0)
    out["translate.shots_s"] = busy.get("translate.shots", 0.0)

    for stat in ("tau", "rho", "mse", "alpha", "prf", "align"):
        out[f"metrics.{stat}_s"] = busy.get(f"metrics.{stat}", 0.0)
    out["metrics.tau.calls"] = calls.get("metrics.tau", 0)
    out["metrics.tau.n_max"] = max(
        (int(label) for _, _, name, _, _, label in spans if name == "metrics.tau" and label.isdigit()),
        default=0,
    )
    out["metrics.align.calls"] = calls.get("metrics.align", 0)

    out["report.aggregate_s"] = busy.get("report.aggregate", 0.0)
    out["report.svg_s"] = busy.get("report.svg", 0.0)
    out["report.csv_s"] = busy.get("report.csv", 0.0)
    return out


def layer_unit(name: str) -> str:
    if name.endswith(_COUNTS):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if "_ms." in name:
        return "ms"
    return "MB" if name.endswith(".mb") else "s"
