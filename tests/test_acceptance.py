"""Acceptance suite: one test per gating criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  The final test is an optional dataset replication that only runs
when the released annotation corpus is available locally.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import FIXTURES, write_synthetic_corpus
from oracles import alpha_coincidence_oracle, rho_oracle, tau_b_oracle
from rulerverse.cli import main
from rulerverse.corpus import RULER_SCALE, VERSE_SCALE, load_corpus, sample_items, to_percentage
from rulerverse.metrics import kendall_tau_b, krippendorff_alpha, per_label_prf, spearman_rho
from rulerverse.report import aggregate_table
from rulerverse.ruler import CRITERIA, Criterion, RubricScorecard
from rulerverse.verse import CATEGORIES, VerseGrade, VerseQuestion


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


# 1 ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence_exhaustive():
    with criterion(1, "tau-b and rho match brute-force oracles on all vectors "
                      "of length <= 5 over {1,2,3} (1e-9, under 60 s)"):
        start = time.monotonic()
        values = (1, 2, 3)
        checked = 0
        for n in (2, 3, 4, 5):
            for x in itertools.product(values, repeat=n):
                for y in itertools.product(values, repeat=n):
                    got_tau = kendall_tau_b(x, y)
                    want_tau = tau_b_oracle(x, y)
                    if got_tau is None or want_tau is None:
                        assert got_tau is None and want_tau is None, (x, y)
                    else:
                        assert abs(got_tau - want_tau) <= 1e-9, (x, y)
                    got_rho = spearman_rho(x, y)
                    want_rho = rho_oracle(x, y)
                    if got_rho is None or want_rho is None:
                        assert got_rho is None and want_rho is None, (x, y)
                    else:
                        assert abs(got_rho - want_rho) <= 1e-9, (x, y)
                    checked += 1
        elapsed = time.monotonic() - start
        assert checked == 81 + 729 + 6561 + 59049
        assert elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f}s"


# 2 ---------------------------------------------------------------------------

def test_criterion_2_krippendorff_alpha():
    with criterion(2, "alpha: perfect agreement 1.0 exactly; 9-item nominal "
                      "fixture matches coincidence oracle (1e-9); missing data"):
        assert krippendorff_alpha([[1, 2, 3, 4, 5], [1, 2, 3, 4, 5]], "nominal") == 1.0
        ratings = [[1, 2, 3, 3, 2, 1, 4, 1, 2], [1, 2, 3, 3, 2, 2, 4, 1, 2]]
        got = krippendorff_alpha(ratings, level="nominal")
        want = alpha_coincidence_oracle(ratings, level="nominal")
        assert abs(got - want) <= 1e-9
        # one rater skips items: only paired items enter the computation
        skipping = [[1, 2, None, 4, None], [1, 2, 3, 4, 5]]
        got = krippendorff_alpha(skipping, level="nominal")
        assert got == pytest.approx(1.0, abs=1e-9)
        want = alpha_coincidence_oracle(skipping, level="nominal")
        assert abs(got - want) <= 1e-9


# 3 ---------------------------------------------------------------------------

def test_criterion_3_classification_report():
    with criterion(3, "hand-counted P/R/F1/accuracy fixture (1e-4) and "
                      "confusion marginals on 100 random fixtures"):
        rep = per_label_prf([1, 1, 2], [1, 2, 2], [1, 2])
        assert rep.per_label[1].precision == pytest.approx(1.0, abs=1e-4)
        assert rep.per_label[1].recall == pytest.approx(0.5, abs=1e-4)
        assert rep.per_label[1].f1 == pytest.approx(0.6667, abs=1e-4)
        assert rep.per_label[2].precision == pytest.approx(0.5, abs=1e-4)
        assert rep.per_label[2].recall == pytest.approx(1.0, abs=1e-4)
        assert rep.per_label[2].f1 == pytest.approx(0.6667, abs=1e-4)
        assert rep.accuracy == pytest.approx(0.6667, abs=1e-4)

        rng = random.Random(0)
        for _ in range(100):
            labels = list(range(1, rng.randint(3, 6)))
            n = rng.randint(1, 40)
            gold = [rng.choice(labels) for _ in range(n)]
            pred = [rng.choice(labels) for _ in range(n)]
            rep = per_label_prf(gold, pred, labels)
            for label in labels:
                assert sum(rep.confusion[label].values()) == gold.count(label)
                assert sum(rep.confusion[g][label] for g in labels) == pred.count(label)
            assert sum(stats.support for stats in rep.per_label.values()) == n


# 4 and 7 ----------------------------------------------------------------------

SUMMARY_SUFFIX = "_summary.json"


def _pipeline_flags(out_dir: Path) -> list[str]:
    return [
        "--corpus", str(FIXTURES / "corpus.jsonl"),
        "--stories", str(FIXTURES / "stories.jsonl"),
        "--candidates", str(FIXTURES / "candidates_alpha.jsonl"),
        str(FIXTURES / "candidates_beta.jsonl"),
        "--backend", "mock",
        "--script", str(FIXTURES / "mock_script.json"),
        "--out", str(out_dir),
        "--run-id", "e2e",
    ]


def _run_pipeline(flags: list[str]) -> None:
    for command in (
        ["ruler"],
        ["verse", "gen"],
        ["verse", "classify"],
        ["verse", "grade"],
        ["report"],
    ):
        assert main(command + flags) == 0, command


def _artifact_bytes(run_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(run_dir.iterdir())
        if p.is_file() and not p.name.endswith(SUMMARY_SUFFIX)
    }


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("acceptance")
    flags = _pipeline_flags(out_dir)
    run_dir = out_dir / "e2e"
    _run_pipeline(flags)
    first = _artifact_bytes(run_dir)
    _run_pipeline(flags)
    second = _artifact_bytes(run_dir)
    (out_dir / "snapshots.json").write_text(
        json.dumps({"identical": first == second, "files": sorted(first)})
    )
    return run_dir


def test_criterion_4_end_to_end_determinism(pipeline_run):
    with criterion(4, "two full mock runs produce byte-identical artifacts and "
                      "the second run makes zero backend calls"):
        snapshot = json.loads((pipeline_run.parent / "snapshots.json").read_text())
        assert snapshot["identical"], "artifact bytes differ between runs"
        expected = {
            "scorecards.jsonl", "questions.jsonl", "grades.jsonl",
            "aggregate.csv", "aggregate.json", "honorifics_audit.json",
            "radar_scores.svg", "radar_question_shares.svg",
        }
        assert expected <= set(snapshot["files"])
        for name in ("ruler", "verse_gen", "verse_classify", "verse_grade"):
            summary = json.loads((pipeline_run / f"{name}{SUMMARY_SUFFIX}").read_text())
            assert summary["backend_calls"] == 0, name
        ruler_summary = json.loads((pipeline_run / f"ruler{SUMMARY_SUFFIX}").read_text())
        assert ruler_summary["cache_hits"] == 80  # 100% of ruler completions


def test_criterion_7_category_closure_and_share_conservation(pipeline_run):
    with criterion(7, "all persisted questions carry one of the nine labels "
                      "and category shares sum to 100 +- 0.01"):
        records = [
            json.loads(line)
            for line in (pipeline_run / "questions.jsonl").read_text().splitlines()
        ]
        questions = [r for r in records if "_meta" not in r]
        assert questions
        assert all(r["category"] in CATEGORIES for r in questions)
        from rulerverse.verse import aggregate_categories, question_from_record

        aggregates = aggregate_categories([question_from_record(r) for r in questions], [])
        total_share = sum(aggregates[c].question_share for c in CATEGORIES)
        assert abs(total_share - 100.0) <= 0.01


# 5 ---------------------------------------------------------------------------

def _ruler_alpha(out_dir: Path, script: Path) -> tuple[list[dict], dict]:
    """The scorecard records and the honorifics audit of a `ruler` run over system alpha."""
    assert main([
        "ruler", "--corpus", str(FIXTURES / "corpus.jsonl"),
        "--stories", str(FIXTURES / "stories.jsonl"),
        "--candidates", str(FIXTURES / "candidates_alpha.jsonl"),
        "--script", str(script), "--out", str(out_dir), "--run-id", "alpha",
    ]) == 0
    lines = (out_dir / "alpha" / "scorecards.jsonl").read_text(encoding="utf-8").splitlines()
    records = [r for r in map(json.loads, lines) if "_meta" not in r]
    return records, json.loads((out_dir / "alpha" / "honorifics_audit.json").read_text())


def test_criterion_5_honorifics_default_and_audit(tmp_path, fixture_corpus):
    with criterion(5, "non-dialogue paragraphs score honorifics 5 under a "
                      "rubric-following mock; audit flags a non-compliant one"):
        scorecards, audit = _ruler_alpha(tmp_path / "ok", FIXTURES / "mock_script.json")
        non_dialogue = [
            card
            for card in scorecards
            if fixture_corpus.pair(card["story_id"], card["index"]).has_dialogue is False
        ]
        assert non_dialogue
        assert all(card["scores"][Criterion.HONORIFICS.value] == 5 for card in non_dialogue)
        assert audit["checked"] == len(non_dialogue)
        assert audit["compliant"] == audit["checked"]
        assert audit["violations"] == []

        # same script with one deliberately non-compliant response prepended
        script = json.loads((FIXTURES / "mock_script.json").read_text(encoding="utf-8"))
        script["rules"].insert(
            0,
            {
                "contains": ["criterion: Honorifics", "quiet orchard ledger"],
                "response": "Score: 2",
            },
        )
        bad_script = tmp_path / "bad_script.json"
        bad_script.write_text(json.dumps(script), encoding="utf-8")
        _, audit = _ruler_alpha(tmp_path / "bad", bad_script)
        assert audit["violations"] == [
            {"system_id": "alpha", "story_id": "st-arbor", "index": 1, "score": 2}
        ]


# 6 ---------------------------------------------------------------------------

def test_criterion_6_scale_endpoints_and_linearity():
    with criterion(6, "all-5 rubric scores aggregate to 100.00, all-1 to 0.00, "
                      "all-3 grades to VERSE mean 100.00; mapping is linear"):
        questions = [
            VerseQuestion(f"q{i}", "st", 0, "t", category=c)
            for i, c in enumerate(CATEGORIES)
        ]

        def cards(system, score):
            return [
                RubricScorecard(system, "st", i, {c: score for c in CRITERIA})
                for i in range(4)
            ]

        grades = [VerseGrade(q.question_id, "hi", 3) for q in questions]
        table = aggregate_table(cards("hi", 5) + cards("lo", 1), grades, questions)
        for crit in CRITERIA:
            assert f"{table.ruler['hi'][crit].value:.2f}" == "100.00"
            assert f"{table.ruler['lo'][crit].value:.2f}" == "0.00"
        assert f"{table.verse_mean['hi'].value:.2f}" == "100.00"

        # linearity at every scale point: mean-then-map equals map-then-mean
        for scale in (RULER_SCALE, VERSE_SCALE):
            points = list(range(scale.min, scale.max + 1))
            percents = [to_percentage(s, scale) for s in points]
            assert percents[0] == 0.0 and percents[-1] == 100.0
            steps = {round(b - a, 9) for a, b in zip(percents, percents[1:])}
            assert len(steps) == 1  # evenly spaced
            for combo in itertools.combinations_with_replacement(points, 3):
                mean_then_map = 100.0 * (
                    sum(combo) / len(combo) - scale.min
                ) / (scale.max - scale.min)
                map_then_mean = sum(to_percentage(s, scale) for s in combo) / len(combo)
                assert abs(mean_then_map - map_then_mean) <= 1e-9


# 8 ---------------------------------------------------------------------------

def test_criterion_8_sampling_replicates_study_design(tmp_path):
    with criterion(8, "10 stories x 20 paragraphs with 3 questions each yields "
                      "200 items / 600 questions, deterministic under a seed"):
        path = write_synthetic_corpus(tmp_path / "c.jsonl", 10, 25)
        corpus = load_corpus(path)
        bank = [
            VerseQuestion(f"{p.story_id}:{p.index}:q{k:02d}", p.story_id, p.index, f"t{k}")
            for p in corpus.pairs()
            for k in range(10)
        ]
        first = sample_items(
            corpus, corpus.story_ids(), n_per_story=20, q_per_item=3, seed=2024,
            questions=bank,
        )
        assert first.n_items == 200
        assert first.n_questions == 600
        again = sample_items(
            corpus, corpus.story_ids(), n_per_story=20, q_per_item=3, seed=2024,
            questions=bank,
        )
        assert first.items == again.items


# 9 (optional, dataset-dependent) ----------------------------------------------

RELEASED_ANNOTATIONS = os.environ.get("RULERVERSE_RELEASED_ANNOTATIONS")
RELEASED_CORPUS = os.environ.get("RULERVERSE_RELEASED_CORPUS")

TABLE1_HONORIFICS = {"tau": 0.70, "rho": 0.74, "mse": 0.86, "alpha": 0.74}


@pytest.mark.skipif(
    not (RELEASED_ANNOTATIONS and RELEASED_CORPUS),
    reason="released dataset not available (set RULERVERSE_RELEASED_ANNOTATIONS "
    "and RULERVERSE_RELEASED_CORPUS); criterion 9 is optional and non-gating",
)
def test_criterion_9_optional_dataset_replication(tmp_path):
    with criterion(9, "released annotations reproduce the published honorifics "
                      "inter-annotator row within +-0.02 for some configuration"):
        matches = []
        for level in ("ordinal", "interval", "nominal"):
            run_id = f"repl-{level}"
            code = main([
                "agree",
                "--corpus", RELEASED_CORPUS,
                "--annotations", RELEASED_ANNOTATIONS,
                "--level", level,
                "--out", str(tmp_path), "--run-id", run_id,
            ])
            assert code == 0
            payload = json.loads(
                (tmp_path / run_id / "agreement_honorifics.json").read_text()
            )
            got = payload["inter_annotator"]
            if all(
                got[key] is not None and abs(got[key] - want) <= 0.02
                for key, want in TABLE1_HONORIFICS.items()
            ):
                matches.append(level)
        assert matches, "no alpha-level configuration reproduced the published row"
        (tmp_path / "matching_configuration.json").write_text(
            json.dumps({"alpha_levels": matches, "tau_variant": "tau-b"})
        )
