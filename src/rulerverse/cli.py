"""Single entry point wiring the pipeline into reproducible, resumable runs.

Every subcommand writes into out/<run_id>/ and embeds the run's config
fingerprint in each artifact; re-running with an unchanged config is
idempotent because judge completions are served from the on-disk cache and
every artifact file is rewritten atomically (`corpus.write_atomic`) with
deterministic content.  One runner, `RunContext.run_stage`, turns a failed item of any
judge stage into a failure record; flags that would fail every item (too small a bank,
an unknown `--bank-stories` story) end the stage first.  `--jobs` sets the judge's
concurrency limit, the number of threads that run a live backend's items.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import logging
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from . import corpus as corpus_mod
from . import metrics, report, ruler, translate, verse
from .corpus import CHANNEL_SCALES, CandidateSet, Corpus, SampleManifest
from .errors import (CorpusFormatError, EmptyRun, EvalError, InsufficientBank, InsufficientShots,
                     MixedFingerprint, TooFewItems, UnclassifiedQuestion, UnknownItem)
from .judge import BACKEND_DEFAULT, BACKENDS, Judge, JudgeConfig
from .metrics import RatingVector
from .ruler import ItemFailure, PromptOptions

log = logging.getLogger(__name__)

def config_fingerprint(args: argparse.Namespace) -> str:
    """sha256 of the `fingerprint_fields()` values in `args`."""
    payload = {}
    for name in fingerprint_fields():
        value = getattr(args, name, None)
        if isinstance(value, list):
            value = sorted(str(v) for v in value)
        payload[name] = value
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


# -- artifact files: first line is a meta record, then one record per line --

def write_artifact(path: Path, meta: dict, records: Iterable[dict]) -> None:
    rows = [{"_meta": meta}]
    rows.extend(records)
    corpus_mod.write_jsonl(path, rows)


def read_artifact(path: Path, parse: Callable[[dict, str], Any]) -> tuple[dict, list]:
    """The meta record, and `parse(record, "path:line")` for every other record."""
    meta: dict = {}
    records = []
    for lineno, record in corpus_mod.read_jsonl(path):
        if "_meta" in record:
            meta = record["_meta"]
        else:
            records.append(parse(record, f"{path}:{lineno}"))
    return meta, records


def write_json(path: Path, payload: dict) -> None:
    corpus_mod.write_atomic(
        path, json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )


def write_csv_with_fingerprint(path: Path, fingerprint: str, body: str) -> None:
    corpus_mod.write_atomic(path, f"# fingerprint={fingerprint}\n{body}")


# -- shared construction --

class RunContext:
    """Resolved paths, judge, and options for one subcommand invocation."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.fingerprint = config_fingerprint(args)
        self.run_id = args.run_id or self.fingerprint[:12]
        # writers create it on demand; read-only subcommands never touch disk
        self.out_dir = Path(args.out) / self.run_id

    def load_corpus(self) -> Corpus:
        if not self.args.corpus:
            raise EvalError("--corpus is required for this subcommand")
        return corpus_mod.load_corpus(self.args.corpus, self.args.stories)

    def load_candidates(self, corpus: Corpus) -> list[CandidateSet]:
        if not self.args.candidates:
            raise EvalError("--candidates is required for this subcommand")
        return [corpus_mod.load_candidates(p, corpus) for p in self.args.candidates]

    def in_manifest(self, items: list, by_question: bool = False) -> list:
        """The paragraphs or questions of `items` that --manifest lists, all of
        them without one.  With `by_question`, a manifest that names questions
        keeps only those."""
        if not self.args.manifest:
            return items
        path = self.args.manifest
        manifest = SampleManifest.from_dict(corpus_mod.read_json(path), str(path))
        keys = {(item.story_id, item.index) for item in manifest.items}
        qids = {qid for item in manifest.items for qid in item.question_ids} if by_question else ()
        return [x for x in items if (x.story_id, x.index) in keys and (
            not qids or x.question_id in qids)]

    def judge(self, backend_temperature: bool = False) -> Judge:
        """The run's judge; with `backend_temperature` it sends no temperature."""
        args = self.args
        if args.backend == "mock" and not args.script:
            raise EvalError("--script is required for the mock backend")
        cache_dir = args.cache_dir or str(Path(args.out) / "judge_cache")
        config = JudgeConfig(
            backend=args.backend,
            model_id=args.model,
            endpoint=args.endpoint or "",
            api_key_env=args.api_key_env,
            script_path=args.script,
            temperature=None if backend_temperature else args.temperature,
            max_retries=args.max_retries,
            timeout=args.timeout,
            cache_dir=cache_dir,
            concurrency_limit=args.jobs,
        )
        try:
            return Judge(config)
        except ValueError as exc:  # main checks every other flag that Judge tests
            raise EvalError(f"--endpoint is not usable by the live backend: {exc}") from None

    def options(self) -> PromptOptions:
        args = self.args
        return PromptOptions(
            use_cot=args.cot,
            k_shot=args.k_shot,
            include_reference=not args.no_reference,
            include_rubric=not args.no_rubric,
            reference_index=args.reference_index,
        )

    def artifact(self, name: str) -> Path:
        """The path that the `--{name}` flag gives, else the run directory's `{name}.jsonl`."""
        return Path(getattr(self.args, name) or self.out_dir / f"{name}.jsonl")

    def meta(self, options: PromptOptions | None = None) -> dict:
        meta: dict[str, Any] = {"fingerprint": self.fingerprint, "run_id": self.run_id,
                                "model_id": self.args.model}
        if options is not None:
            meta["options"] = options.fingerprint()
        return meta

    def write_summary(
        self,
        name: str,
        judge: Judge | None,
        items_total: int,
        failures: Sequence[ItemFailure],
        extra: dict | None = None,
    ) -> None:
        summary: dict[str, Any] = {
            "subcommand": name,
            "fingerprint": self.fingerprint,
            "run_id": self.run_id,
            "items_total": items_total,
            "items_failed": len(failures),
            "failures": [asdict(f) for f in failures],
        }
        if judge is not None:
            summary.update(judge.stats)
        if failures:
            log.warning("%s: %d of %d items failed", name, len(failures), items_total)
        if extra:
            summary.update(extra)
        write_json(self.out_dir / f"{name}_summary.json", summary)

    def run_stage(self, name: str, judge: Judge, items: Sequence, work: Callable[[Any], Any],
                  failure: Callable[[Any], tuple], write: Callable[[list], dict | None]) -> int:
        """`work(item)` for every item through `judge.map`; an EvalError becomes the item's
        `ItemFailure.of(exc, *failure(item))`, and a returned ItemFailure stays one.  `write`
        gets the other outcomes in input order, and the stage summary the dict it returns."""
        def run(item):
            try:
                return work(item)
            except EvalError as exc:
                return ItemFailure.of(exc, *failure(item))

        outcomes = judge.map(run, items)
        failures = [o for o in outcomes if isinstance(o, ItemFailure)]
        extra = write([o for o in outcomes if not isinstance(o, ItemFailure)])
        self.write_summary(name, judge, len(items), failures, extra)
        return 0


# -- subcommands --

def cmd_validate(ctx: RunContext) -> int:
    corpus = ctx.load_corpus()
    result: dict[str, Any] = {
        "stories": corpus.n_stories,
        "paragraphs": corpus.n_paragraphs,
    }
    if ctx.args.candidates:
        result["candidates"] = {cands.system_id: round(cands.coverage(corpus), 6)
                                for cands in ctx.load_candidates(corpus)}
    if ctx.args.annotations:
        scores = corpus_mod.load_annotations(ctx.args.annotations, corpus)
        result["annotations"] = sum(
            len(rated) for raters in scores.values() for rated in raters.values())
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_sample(ctx: RunContext) -> int:
    corpus = ctx.load_corpus()
    story_ids = ctx.args.sample_stories or corpus.story_ids()
    questions = None
    if ctx.args.questions:
        _, questions = read_artifact(Path(ctx.args.questions), verse.question_from_record)
    systems = ctx.args.systems or None
    manifest = corpus_mod.sample_items(
        corpus,
        story_ids,
        n_per_story=ctx.args.n_per_story,
        q_per_item=ctx.args.q_per_item,
        seed=ctx.args.seed,
        questions=questions,
        systems=systems,
    )
    payload = {"fingerprint": ctx.fingerprint, **asdict(manifest)}
    write_json(ctx.out_dir / "manifest.json", payload)
    print(
        json.dumps(
            {"items": manifest.n_items, "questions": manifest.n_questions}, sort_keys=True
        )
    )
    return 0


def cmd_translate(ctx: RunContext) -> int:
    corpus = ctx.load_corpus()
    spec = translate.TranslationPromptSpec(
        n_shots=ctx.args.shots,
        include_summary=not ctx.args.no_summary,
        granularity=ctx.args.granularity,
        bank_story_ids=tuple(ctx.args.bank_stories or ()),
        require_dialogue_mix=not ctx.args.no_dialogue_mix,
    )
    try:  # a bank that no story can draw on would fail every item
        bank = [p for sid in spec.bank_story_ids for p in corpus.story(sid).paragraphs]
    except UnknownItem as exc:
        raise UnknownItem(f"--bank-stories: {exc}") from None
    if len(bank) < spec.n_shots:
        raise InsufficientBank(f"--shots {spec.n_shots}: --bank-stories has {len(bank)} paragraphs")
    if spec.require_dialogue_mix and spec.n_shots >= 2:
        for wanted in (True, False):
            if not any(p.has_dialogue is wanted for p in bank):
                raise InsufficientBank(f"--bank-stories has no paragraph tagged has_dialogue="
                                       f"{wanted} for the dialogue mix; see --no-dialogue-mix")
    judge = ctx.judge(backend_temperature=True)
    system_id = ctx.args.system_id or ctx.args.model

    def write(done: list) -> dict:
        provenance = {"fingerprint": ctx.fingerprint, "model_id": ctx.args.model,
                      "spec_fingerprint": spec.fingerprint(), "temperature": BACKEND_DEFAULT}
        out_path = ctx.out_dir / f"candidates_{_sanitize(system_id)}.jsonl"
        corpus_mod.save_candidates(CandidateSet(system_id, dict(done), provenance), out_path)
        return {"system_id": system_id, "output": str(out_path)}

    return ctx.run_stage("translate", judge, list(corpus.pairs()), lambda pair: (
        (pair.story_id, pair.index), translate.translate_pair(corpus, pair, spec, judge)),
        lambda pair: ("translate", pair.story_id, pair.index, system_id), write)


def cmd_ruler(ctx: RunContext) -> int:
    corpus = ctx.load_corpus()
    candidate_sets = ctx.load_candidates(corpus)
    pairs = ctx.in_manifest(list(corpus.pairs()))
    rubric = ruler.load_rubric(ctx.args.rubric) if ctx.args.rubric else ruler.bundled_rubric()
    options = ctx.options()
    shots = ruler.load_example_bank(ctx.args.shots_bank) if ctx.args.shots_bank else []
    held = {c.value: sum(s.criterion is c for s in shots) for c in ruler.CRITERIA}
    if min(held.values()) < options.k_shot:  # a bank short of one criterion would fail every item
        raise InsufficientShots(f"--k-shot {options.k_shot}: --shots-bank holds {held}")
    judge = ctx.judge()

    def write(cards: list[ruler.RubricScorecard]) -> None:
        options_fp = options.fingerprint()
        # a sorted copy: the audit reads the cards in input order
        records = [ruler.scorecard_to_record(card, options_fp, ctx.args.model)
                   for card in sorted(cards, key=lambda c: (c.system_id, c.story_id, c.index))]
        write_artifact(ctx.out_dir / "scorecards.jsonl", ctx.meta(options), records)
        audit = ruler.audit_honorifics(cards, corpus)
        write_json(ctx.out_dir / "honorifics_audit.json",
                   {"fingerprint": ctx.fingerprint, **asdict(audit)})

    # every system's paragraphs in one pass: --candidates order, then corpus order
    items = [(cands, pair) for cands in candidate_sets for pair in pairs
             if (pair.story_id, pair.index) in cands.translations]
    return ctx.run_stage("ruler", judge, items, lambda i: ruler.score_item(
        corpus, *i, rubric, options, judge, shots),
        lambda i: ("ruler", i[1].story_id, i[1].index, i[0].system_id), write)


def cmd_verse_gen(ctx: RunContext) -> int:
    corpus = ctx.load_corpus()
    pairs = ctx.in_manifest(list(corpus.pairs()))
    judge = ctx.judge()

    def write(generated: list[list[verse.VerseQuestion]]) -> dict:
        questions = sorted((q for qs in generated for q in qs),
                           key=lambda q: (q.story_id, q.index, q.question_id))
        write_artifact(ctx.out_dir / "questions.jsonl", ctx.meta(),
                       [verse.question_to_record(q) for q in questions])
        return {"questions": len(questions)}

    return ctx.run_stage("verse_gen", judge, pairs, lambda pair: verse.generate_questions(
        pair, corpus.story(pair.story_id).summary, ctx.args.n_questions, judge),
        lambda pair: ("verse:gen", pair.story_id, pair.index), write)


def cmd_verse_classify(ctx: RunContext) -> int:
    path = ctx.artifact("questions")
    meta, questions = read_artifact(path, verse.question_from_record)
    meta = meta or ctx.meta()
    judge = ctx.judge()

    def work(q: verse.VerseQuestion) -> verse.VerseQuestion:
        if q.category is None:
            q.category = verse.classify_question(q, judge)
        return q

    def write(classified: list) -> dict:
        # a question that failed keeps category null, so a rerun retries only it
        write_artifact(path, meta, [verse.question_to_record(q) for q in questions])
        # the summary speaks for the questions it classified, under their fingerprint
        return {"classified": len(classified),
                "fingerprint": meta.get("fingerprint", ctx.fingerprint)}

    return ctx.run_stage("verse_classify", judge, questions, work, lambda q: (
        "verse:classify", q.story_id, q.index, "", q.question_id), write)


def cmd_verse_grade(ctx: RunContext) -> int:
    corpus = ctx.load_corpus()
    candidate_sets = ctx.load_candidates(corpus)
    _, questions = read_artifact(ctx.artifact("questions"), verse.question_from_record)
    unclassified = [q.question_id for q in questions if q.category is None]
    if unclassified:
        raise UnclassifiedQuestion(
            f"{len(unclassified)} questions lack categories; run `verse classify` first"
        )
    questions = ctx.in_manifest(questions, by_question=True)
    options = ctx.options()
    judge = ctx.judge()
    jobs = [(cands, q) for cands in candidate_sets for q in questions
            if (q.story_id, q.index) in cands.translations]

    def work(item: tuple[CandidateSet, verse.VerseQuestion]) -> verse.VerseGrade:
        cands, q = item
        return verse.grade_question(
            q, corpus.pair(q.story_id, q.index), cands.translations[(q.story_id, q.index)],
            options, judge, system_id=cands.system_id, summary=corpus.story(q.story_id).summary)

    def write(grades: list[verse.VerseGrade]) -> dict:
        grades.sort(key=lambda g: (g.system_id, g.question_id))
        options_fp = options.fingerprint()
        write_artifact(ctx.out_dir / "grades.jsonl", ctx.meta(options),
                       [verse.grade_to_record(g, options_fp, ctx.args.model) for g in grades])
        return {"grades": len(grades)}

    return ctx.run_stage("verse_grade", judge, jobs, work, lambda j: (
        "verse:grade", j[1].story_id, j[1].index, j[0].system_id, j[1].question_id), write)


def _vectors_by_channel(
    scores: dict[str, dict[str, dict[str, int]]],
) -> dict[str, list[RatingVector]]:
    out: dict[str, list[RatingVector]] = {}
    for channel in sorted(scores):
        raters = []
        for rater_id in sorted(scores[channel]):
            rated = scores[channel][rater_id]
            raters.append(RatingVector(dict(sorted(rated.items())), rater_id))
        out[channel] = raters
    return out


def cmd_agree(ctx: RunContext) -> int:
    corpus = ctx.load_corpus()
    if not ctx.args.annotations:
        raise EvalError("--annotations is required for `agree`")
    human = _vectors_by_channel(corpus_mod.load_annotations(ctx.args.annotations, corpus))
    model: dict[str, list[RatingVector]] = {}
    if ctx.args.model_annotations:
        model = _vectors_by_channel(
            corpus_mod.load_annotations(ctx.args.model_annotations, corpus)
        )
    level = ctx.args.level

    agreement_reports: dict[str, metrics.AgreementReport] = {}
    writes: list[Callable[[], None]] = []  # every channel is computed before any file is written
    for channel, raters in human.items():
        if len(raters) < 2:
            raise TooFewItems(f"channel {channel!r}: need at least 2 raters, got {len(raters)}")
        scale = CHANNEL_SCALES[channel]
        label_set = list(range(scale.min, scale.max + 1))
        # align each rater pair and count its table once; every statistic below reads them
        pairs = list(metrics.rater_pairs(raters))
        agreement = metrics.compute_agreement(raters, pairs, level=level)
        agreement_reports[channel] = agreement
        payload: dict[str, Any] = {
            "fingerprint": ctx.fingerprint,
            "channel": channel,
            "level": level,
            "inter_annotator": asdict(agreement),
        }
        classification = metrics.classify_pairs(pairs, label_set)
        payload["classification"] = {
            "mean_accuracy": classification.mean_accuracy,
            "mean_per_label_f1": {str(k): v for k, v in classification.mean_per_label_f1.items()},
        }
        confusions = classification.per_pair
        if channel in model:
            cross = list(metrics.rater_pairs(raters, model[channel]))
            versus = metrics.classify_pairs(cross, label_set)
            payload["human_vs_model"] = {
                "tau": metrics.mean_over_pairs(cross, metrics.kendall_tau_b)[0],
                "rho": metrics.mean_over_pairs(cross, metrics.spearman_rho)[0],
                "mse": metrics.mean_over_pairs(cross, metrics.mse)[0],
                "mean_accuracy": versus.mean_accuracy,
                "mean_per_label_f1": {str(k): v for k, v in versus.mean_per_label_f1.items()},
            }
            confusions = confusions + versus.per_pair
        for rater_a, rater_b, rep in confusions:
            name = f"confusion_{channel}_{_sanitize(rater_a)}_vs_{_sanitize(rater_b)}.csv"
            writes.append(functools.partial(write_csv_with_fingerprint, ctx.out_dir / name,
                                            ctx.fingerprint, report.confusion_to_csv(rep)))
        writes.append(functools.partial(write_json, ctx.out_dir / f"agreement_{channel}.json", payload))

    for write in writes:
        write()
    write_csv_with_fingerprint(
        ctx.out_dir / "agreement.csv", ctx.fingerprint, report.agreement_to_csv(agreement_reports)
    )
    ctx.write_summary(
        "agree", None, sum(len(r) for r in human.values()), [],
        extra={"channels": sorted(human)},
    )
    return 0


def _check_fingerprints(metas: dict[str, dict]) -> str:
    prints = {name: meta.get("fingerprint") for name, meta in metas.items() if meta}
    distinct = {fp for fp in prints.values() if fp}
    if len(distinct) > 1:
        raise MixedFingerprint(f"input artifacts disagree: {prints}")
    return next(iter(distinct), "")


def _radar_series(table: report.AggregateTable, axis_min: float) -> list[tuple[str, list[float]]]:
    """Radar series of the table's category means, one per system with grades;
    a category without grades sits at `axis_min`."""
    return [
        (system, [axis_min if cell.value is None else cell.value
                  for cell in (table.verse_categories[system][c] for c in verse.CATEGORIES)])
        for system in table.systems if table.verse_mean[system].n > 0
    ]


def cmd_report(ctx: RunContext) -> int:
    metas: dict[str, dict] = {}
    read: dict[str, list] = {}
    for name, parse in (("scorecards", ruler.scorecard_from_record),
                        ("questions", verse.question_from_record),
                        ("grades", verse.grade_from_record)):
        path = ctx.artifact(name)
        metas[name], read[name] = read_artifact(path, parse) if path.exists() else ({}, [])
    scorecards, grades = read["scorecards"], read["grades"]
    if not scorecards and not grades:
        raise EmptyRun("no completed scores found; run `ruler` or `verse grade` first")
    # failed items, a question without a category among them, are excluded from
    # every cell and share; their counts become footnotes
    questions = [q for q in read["questions"] if q.category is not None]
    failed = {}
    for stage in ("ruler", "verse_gen", "verse_classify", "verse_grade"):
        summary_path = ctx.out_dir / f"{stage}_summary.json"
        if summary_path.exists():
            metas[summary_path.name] = stage_summary = corpus_mod.read_json(summary_path)
            failed[f"{stage}_failed"] = stage_summary.get("items_failed", 0)
    fingerprint = _check_fingerprints(metas) or ctx.fingerprint

    table = report.aggregate_table(scorecards, grades, questions, mapping=ctx.args.mapping)
    if ctx.args.baseline:
        try:
            with open(ctx.args.baseline, newline="", encoding="utf-8") as f:
                rows = list(csv.DictReader(f))
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{ctx.args.baseline}: not UTF-8 ({exc.reason})") from None
        report.append_baseline_columns(table, rows, ctx.args.baseline)
    table.notes.update(failed)

    write_csv_with_fingerprint(
        ctx.out_dir / "aggregate.csv", fingerprint, report.table_to_csv(table)
    )
    write_json(
        ctx.out_dir / "aggregate.json",
        {"fingerprint": fingerprint, **report.table_to_dict(table)},
    )

    axis_min = ctx.args.axis_min
    if grades:
        svg = report.radar_svg(list(verse.CATEGORIES), _radar_series(table, axis_min),
                               axis_min=axis_min)
        corpus_mod.write_atomic(ctx.out_dir / "radar_scores.svg", svg)
    by_story: dict[str, list[verse.VerseQuestion]] = {}
    for q in questions:
        by_story.setdefault(q.story_id, []).append(q)
    if questions:
        share_series = []
        for story_id, story_questions in sorted(by_story.items()):
            aggregates = verse.aggregate_categories(story_questions, [])
            share_series.append(
                (story_id, [aggregates[c].question_share for c in verse.CATEGORIES])
            )
        svg = report.radar_svg(list(verse.CATEGORIES), share_series, axis_min=0.0)
        corpus_mod.write_atomic(ctx.out_dir / "radar_question_shares.svg", svg)
    if ctx.args.radar_per_story and grades:
        for story_id, story_questions in sorted(by_story.items()):
            story_qids = {q.question_id for q in story_questions}
            story_grades = [g for g in grades if g.question_id in story_qids]
            if story_grades:
                story_table = report.aggregate_table(
                    [], story_grades, story_questions, ctx.args.mapping
                )
                svg = report.radar_svg(list(verse.CATEGORIES), _radar_series(story_table, axis_min),
                                       axis_min=axis_min)
                name = f"radar_scores_{_sanitize(story_id)}.svg"
                corpus_mod.write_atomic(ctx.out_dir / name, svg)

    notes = {
        "n_scorecards": len(scorecards),
        "n_grades": len(grades),
        "n_questions": len(questions),
    }
    write_json(ctx.out_dir / "report_manifest.json", {"fingerprint": fingerprint, **notes})
    return 0


# -- parser --

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", help="paragraph file (JSONL)")
    parser.add_argument("--stories", help="story metadata file (JSONL)")
    parser.add_argument("--candidates", nargs="*", help="candidate files, one per system")
    parser.add_argument("--annotations", help="annotation records file")
    parser.add_argument("--rubric", help="rubric data file (default: bundled example)")
    parser.add_argument("--questions", help="question bank file")
    parser.add_argument("--manifest", help="sample manifest restricting items")
    parser.add_argument("--shots-bank", help="worked-example bank for k-shot prompts")
    parser.add_argument("--backend", choices=list(BACKENDS), default="mock")
    parser.add_argument("--model", default="mock-judge")
    parser.add_argument("--endpoint", help="chat-completions URL for the live backend")
    parser.add_argument("--api-key-env", default="JUDGE_API_KEY")
    parser.add_argument("--script", help="mock script path")
    parser.add_argument("--temperature", type=float, default=0.0)
    parser.add_argument("--max-retries", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--k-shot", type=int, choices=list(ruler.K_SHOT_CHOICES), default=0)
    parser.add_argument("--cot", action="store_true", help="reason-then-score prompting")
    parser.add_argument("--no-rubric", action="store_true", help="omit the rubric block")
    parser.add_argument("--no-reference", action="store_true", help="omit the reference block")
    parser.add_argument("--reference-index", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=4, help="threads that run the items of a "
                        "live backend (default: 4, at least 1); a mock runs them in the "
                        "calling thread")
    parser.add_argument("--out", default="out", help="output root directory")
    parser.add_argument("--run-id", help="default: config fingerprint prefix")
    parser.add_argument("--cache-dir", help="judge cache (default: <out>/judge_cache)")
    parser.add_argument("--mapping", choices=list(corpus_mod.MAPPINGS), default="minmax")


# common flags that change how a run goes, never what it computes
OPERATIONAL_FLAGS = ("jobs", "out", "run_id", "cache_dir", "timeout", "max_retries", "api_key_env")


@functools.cache
def _common_parser() -> argparse.ArgumentParser:
    """The parent parser of every leaf: the flags of `_add_common`."""
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    return common


def fingerprint_fields() -> tuple[str, ...]:
    """The common flags that identify what a run computed."""
    return tuple(a.dest for a in _common_parser()._actions if a.dest not in OPERATIONAL_FLAGS)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    """The parser and its leaves, built once per process and never written to after: a
    process that calls `main` more than once reuses it; a one-stage CLI process gains nothing."""
    # "@FILE" stands for the arguments in FILE, one per line
    parser = argparse.ArgumentParser(
        prog="rulerverse",
        description="Two-step literary translation evaluation pipeline",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves: list[argparse.ArgumentParser] = []

    def leaf(name: str, parent: Any = sub, **kwargs) -> argparse.ArgumentParser:
        p = parent.add_parser(name, parents=[_common_parser()], **kwargs)
        leaves.append(p)
        return p

    leaf("validate", help="check corpus, candidate, and annotation files")

    p_sample = leaf("sample", help="draw a seeded evaluation sample")
    p_sample.add_argument("--sample-stories", nargs="*", help="story ids (default: all)")
    p_sample.add_argument("--n-per-story", type=int, required=True)
    p_sample.add_argument("--q-per-item", type=int, default=0)
    p_sample.add_argument("--systems", nargs="*", help="assign each item one system id")

    p_translate = leaf("translate", help="generate candidate translations")
    p_translate.add_argument("--shots", type=int, default=5)
    p_translate.add_argument("--no-summary", action="store_true")
    p_translate.add_argument("--granularity", choices=list(translate.GRANULARITIES), default="paragraph")
    p_translate.add_argument("--bank-stories", nargs="*", help="few-shot source stories")
    p_translate.add_argument("--no-dialogue-mix", action="store_true")
    p_translate.add_argument("--system-id", help="default: judge model id")

    leaf("ruler", help="rubric-score candidates on the four criteria")

    p_verse = sub.add_parser("verse", help="verification-question pipeline")
    verse_sub = p_verse.add_subparsers(dest="verse_command", required=True)
    p_gen = leaf("gen", parent=verse_sub, help="generate questions per paragraph")
    p_gen.add_argument("--n-questions", type=int, default=verse.DEFAULT_N_QUESTIONS)
    leaf("classify", parent=verse_sub, help="assign each question a category")
    leaf("grade", parent=verse_sub, help="grade candidates against questions")

    p_agree = leaf("agree", help="agreement and classification reports")
    p_agree.add_argument("--model-annotations", help="model scores in annotation format")
    p_agree.add_argument("--level", choices=list(metrics.ALPHA_LEVELS), default="ordinal")

    p_report = leaf("report", help="aggregate tables and radar charts")
    p_report.add_argument("--scorecards", help="default: <out>/<run>/scorecards.jsonl")
    p_report.add_argument("--grades", help="default: <out>/<run>/grades.jsonl")
    p_report.add_argument("--baseline", help="CSV of external metric scores to append")
    p_report.add_argument("--axis-min", type=float, default=0.0)
    p_report.add_argument("--radar-per-story", action="store_true")

    return parser, leaves


COMMANDS = {
    "validate": cmd_validate,
    "sample": cmd_sample,
    "translate": cmd_translate,
    "ruler": cmd_ruler,
    "agree": cmd_agree,
    "report": cmd_report,
}

VERSE_COMMANDS = {
    "gen": cmd_verse_gen,
    "classify": cmd_verse_classify,
    "grade": cmd_verse_grade,
}


# flags with a range that argparse does not check: dest, the range in words, the check
FLAG_RANGES = [
    *((name, f"an integer >= {low}", lambda v, low=low: v >= low)
      for name, low in (("jobs", 1), ("max_retries", 0), ("reference_index", 0),
                        ("n_questions", 1), ("shots", 0), ("n_per_story", 1), ("q_per_item", 0))),
    ("timeout", "a finite number > 0", lambda v: 0 < v < math.inf),
    ("temperature", "a finite number", math.isfinite),
    ("axis_min", "a number in [0, 100)", lambda v: 0 <= v < 100),
]


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser, _ = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except (UnicodeDecodeError, RecursionError) as exc:  # an @file argparse cannot expand
            parser.error(f"cannot read an @file (not text, or it names itself): {exc}")
        # Python hands over argument bytes that are not UTF-8 as lone surrogates,
        # which no fingerprint or artifact can hold
        for name, value in vars(args).items():
            try:
                json.dumps(value, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                parser.error(f"--{name.replace('_', '-')} is not UTF-8: {value!r}")
        for name, wanted, ok in FLAG_RANGES:
            if hasattr(args, name) and not ok(getattr(args, name)):
                flag = "--" + name.replace("_", "-")
                parser.error(f"{flag} must be {wanted}, got {getattr(args, name)!r}")
        ctx = RunContext(args)
        if args.command == "verse":
            handler = VERSE_COMMANDS[args.verse_command]
        else:
            handler = COMMANDS[args.command]
        return handler(ctx)
    except (EvalError, OSError) as exc:  # OSError: a missing or unreadable file
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
