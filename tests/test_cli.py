from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from importlib import resources
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, write_synthetic_corpus
from oracles import alpha_coincidence_oracle, rho_oracle, tau_b_oracle
import rulerverse
from rulerverse.cli import _add_common, build_parser, config_fingerprint, main, write_json
from rulerverse.judge import Judge, MockScript
from rulerverse.metrics import RatingVector

APPROX = 1e-9


def common_flags(tmp_path: Path, run_id: str = "run1") -> list[str]:
    return [
        "--corpus", str(FIXTURES / "corpus.jsonl"),
        "--stories", str(FIXTURES / "stories.jsonl"),
        "--candidates", str(FIXTURES / "candidates_alpha.jsonl"),
        str(FIXTURES / "candidates_beta.jsonl"),
        "--backend", "mock",
        "--script", str(FIXTURES / "mock_script.json"),
        "--out", str(tmp_path / "out"),
        "--run-id", run_id,
    ]


def read_artifact(path: Path):
    meta, records = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "_meta" in record:
            meta = record["_meta"]
        else:
            records.append(record)
    return meta, records


def test_validate_reports_counts(tmp_path, capsys):
    assert main(["validate"] + common_flags(tmp_path)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stories"] == 2
    assert out["paragraphs"] == 10
    assert out["candidates"] == {"alpha": 1.0, "beta": 1.0}


def test_validate_error_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"story_id": "s", "index": 1, "source_text": "a", "references": ["b"]}\n')
    code = main(["validate", "--corpus", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NonContiguousIndex"


def test_sample_writes_manifest(tmp_path, capsys):
    corpus = write_synthetic_corpus(tmp_path / "c.jsonl", 4, 10)
    code = main([
        "sample", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
        "--run-id", "s1", "--n-per-story", "5", "--seed", "9",
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "s1" / "manifest.json").read_text())
    assert len(manifest["items"]) == 20
    assert manifest["fingerprint"]
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"items": 20, "questions": 0}


def test_manifest_restricts_ruler_and_verse_grade_but_not_validate(tmp_path, capsys):
    flags = common_flags(tmp_path)
    run_dir = tmp_path / "out" / "run1"
    assert main(["verse", "gen"] + flags) == 0
    assert main(["verse", "classify"] + flags) == 0
    assert main(["sample"] + flags + ["--n-per-story", "2", "--q-per-item", "3",
                                      "--questions", str(run_dir / "questions.jsonl")]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    keys = {(it["story_id"], it["index"]) for it in manifest["items"]}
    question_ids = {qid for it in manifest["items"] for qid in it["question_ids"]}
    restricted = flags + ["--manifest", str(run_dir / "manifest.json"),
                          "--questions", str(run_dir / "questions.jsonl"), "--run-id", "m"]
    assert main(["ruler"] + restricted) == 0
    assert main(["verse", "grade"] + restricted) == 0
    _, cards = read_artifact(tmp_path / "out" / "m" / "scorecards.jsonl")
    assert Counter((c["story_id"], c["index"]) for c in cards) == {k: 2 for k in keys}
    _, grades = read_artifact(tmp_path / "out" / "m" / "grades.jsonl")
    assert Counter(g["question_id"] for g in grades) == {q: 2 for q in question_ids}
    capsys.readouterr()
    assert main(["validate"] + restricted) == 0
    assert json.loads(capsys.readouterr().out)["candidates"] == {"alpha": 1.0, "beta": 1.0}


def test_ruler_run_and_cache_resume(tmp_path):
    flags = common_flags(tmp_path)
    assert main(["ruler"] + flags) == 0
    run_dir = tmp_path / "out" / "run1"
    meta, records = read_artifact(run_dir / "scorecards.jsonl")
    assert meta["fingerprint"]
    assert len(records) == 20  # 2 systems x 10 paragraphs
    alpha_cards = [r for r in records if r["system_id"] == "alpha"]
    assert all(r["scores"]["honorifics"] == 5 for r in records)
    assert all(r["scores"]["lexical"] == 4 for r in alpha_cards)
    summary1 = json.loads((run_dir / "ruler_summary.json").read_text())
    assert summary1["backend_calls"] == 80
    assert summary1["items_failed"] == 0
    audit = json.loads((run_dir / "honorifics_audit.json").read_text())
    assert audit["checked"] == 12  # 6 non-dialogue paragraphs x 2 systems
    assert audit["violations"] == []

    first_bytes = (run_dir / "scorecards.jsonl").read_bytes()
    assert main(["ruler"] + flags) == 0
    summary2 = json.loads((run_dir / "ruler_summary.json").read_text())
    assert summary2["backend_calls"] == 0
    assert summary2["cache_hits"] == 80
    assert (run_dir / "scorecards.jsonl").read_bytes() == first_bytes


def test_verse_pipeline_and_report(tmp_path):
    flags = common_flags(tmp_path)
    run_dir = tmp_path / "out" / "run1"

    assert main(["verse", "gen"] + flags) == 0
    _, questions = read_artifact(run_dir / "questions.jsonl")
    assert len(questions) == 90  # 9 scripted questions x 10 paragraphs
    assert all(q["category"] is None for q in questions)

    assert main(["verse", "classify"] + flags) == 0
    _, questions = read_artifact(run_dir / "questions.jsonl")
    categories = {q["category"] for q in questions}
    assert len(categories) == 9
    assert None not in categories

    assert main(["verse", "grade"] + flags) == 0
    _, grades = read_artifact(run_dir / "grades.jsonl")
    assert len(grades) == 180  # 90 questions x 2 systems
    assert {g["score"] for g in grades if g["system_id"] == "alpha"} == {3}

    assert main(["ruler"] + flags) == 0
    assert main(["report"] + flags) == 0

    import csv as csv_mod

    csv_lines = (run_dir / "aggregate.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# fingerprint=")
    rows = list(csv_mod.reader(csv_lines[1:]))
    header = rows[0]
    alpha_row = dict(zip(header, rows[1]))
    beta_row = dict(zip(header, rows[2]))
    assert alpha_row["system_id"] == "alpha"
    assert alpha_row["Honorifics"] == "100.00"
    assert alpha_row["Syntax and Grammar"] == "100.00"
    assert alpha_row["Lexical Choice"] == "75.00"
    assert alpha_row["Content Accuracy"] == "75.00"
    assert alpha_row["VERSE Mean"] == "100.00"
    assert beta_row["Lexical Choice"] == "25.00"
    assert beta_row["Narrative Pacing and Rhythm"] == "0.00"
    assert beta_row["VERSE Mean"] == f"{(8 * 50.0) / 9:.2f}"

    table = json.loads((run_dir / "aggregate.json").read_text())
    assert table["verse_mean"]["alpha"]["n"] == 90
    assert (run_dir / "radar_scores.svg").exists()
    assert (run_dir / "radar_question_shares.svg").exists()

    # report is idempotent byte-for-byte
    agg_bytes = (run_dir / "aggregate.csv").read_bytes()
    radar_bytes = (run_dir / "radar_scores.svg").read_bytes()
    assert main(["report"] + flags) == 0
    assert (run_dir / "aggregate.csv").read_bytes() == agg_bytes
    assert (run_dir / "radar_scores.svg").read_bytes() == radar_bytes

    # failed-item footnotes travel into the JSON bundle
    assert table["notes"]["ruler_failed"] == 0
    assert table["notes"]["verse_grade_failed"] == 0

    # per-story radars on demand
    assert main(["report"] + flags + ["--radar-per-story", "--axis-min", "40"]) == 0
    assert (run_dir / "radar_scores_st-arbor.svg").exists()
    assert (run_dir / "radar_scores_st-brook.svg").exists()


def test_report_empty_run(tmp_path, capsys):
    code = main(["report"] + common_flags(tmp_path, run_id="empty"))
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "EmptyRun"


def test_report_refuses_mixed_fingerprints(tmp_path, capsys):
    flags_a = common_flags(tmp_path, run_id="mix")
    flags_b = common_flags(tmp_path, run_id="mix") + ["--seed", "99"]
    assert main(["ruler"] + flags_a) == 0
    assert main(["verse", "gen"] + flags_b) == 0
    assert main(["verse", "classify"] + flags_b) == 0
    assert main(["verse", "grade"] + flags_b) == 0
    code = main(["report"] + flags_a)
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "MixedFingerprint"


def test_report_refuses_the_summary_of_another_run(tmp_path, capsys):
    """Run r1's ruler failed on every item.  A report in r1 over run r2's
    scorecards would footnote r1's failures under r2's fingerprint."""
    script = tmp_path / "out_of_range.json"
    script.write_text(json.dumps({"rules": [], "default": "Score: 9"}), encoding="utf-8")
    flags_r1 = common_flags(tmp_path, run_id="r1")
    flags_r1[flags_r1.index("--script") + 1] = str(script)
    assert main(["ruler"] + flags_r1) == 0
    summary = json.loads((tmp_path / "out" / "r1" / "ruler_summary.json").read_text())
    assert summary["items_failed"] == summary["items_total"] == 20
    assert main(["ruler"] + common_flags(tmp_path, run_id="r2")) == 0
    capsys.readouterr()
    scorecards = tmp_path / "out" / "r2" / "scorecards.jsonl"
    assert main(["report"] + common_flags(tmp_path, run_id="r1")
                + ["--scorecards", str(scorecards)]) == 1
    err = _error_payload(capsys)
    assert err["error"] == "MixedFingerprint" and "ruler_summary.json" in err["message"]
    assert not (tmp_path / "out" / "r1" / "aggregate.json").exists()


def test_report_takes_the_classify_summary_of_the_questions_it_classified(tmp_path):
    """`verse classify` keeps the meta of the questions it classifies, so its
    summary carries their fingerprint, whatever flags the classify run had."""
    flags = common_flags(tmp_path)
    assert main(["verse", "gen"] + flags) == 0
    assert main(["verse", "classify"] + flags + ["--seed", "7"]) == 0
    assert main(["verse", "grade"] + flags) == 0
    run_dir = tmp_path / "out" / "run1"
    meta, _ = read_artifact(run_dir / "questions.jsonl")
    summary = json.loads((run_dir / "verse_classify_summary.json").read_text(encoding="utf-8"))
    assert summary["fingerprint"] == meta["fingerprint"] == config_fingerprint(
        build_parser()[0].parse_args(["verse", "gen"] + flags))
    assert main(["report"] + flags) == 0


def _annotation_vectors():
    """channel -> rater -> {item_id: score}, straight from the fixture file."""
    by_channel: dict[str, dict[str, dict[str, int]]] = {}
    for line in (FIXTURES / "annotations.jsonl").read_text().splitlines():
        r = json.loads(line)
        if r["channel"] == "verse":
            item = f"{r['question_id']}::{r['system_id']}"
        else:
            item = f"{r['story_id']}::{r['index']}::{r['system_id']}"
        by_channel.setdefault(r["channel"], {}).setdefault(r["rater_id"], {})[item] = r["score"]
    return by_channel


def _expected_channel_stats(raters: dict[str, dict[str, int]]):
    names = sorted(raters)
    taus, rhos, mses = [], [], []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = raters[names[i]], raters[names[j]]
            common = sorted(set(a) & set(b))
            x = [a[k] for k in common]
            y = [b[k] for k in common]
            taus.append(tau_b_oracle(x, y))
            rhos.append(rho_oracle(x, y))
            mses.append(sum((p - q) ** 2 for p, q in zip(x, y)) / len(x))
    all_ids = sorted({k for r in raters.values() for k in r})
    matrix = [[raters[n].get(k) for k in all_ids] for n in names]
    alpha = alpha_coincidence_oracle(matrix, level="ordinal")
    mean = lambda vs: sum(vs) / len(vs)
    return mean(taus), mean(rhos), mean(mses), alpha


def test_agree_matches_oracles(tmp_path):
    flags = common_flags(tmp_path, run_id="agree1") + [
        "--annotations", str(FIXTURES / "annotations.jsonl"),
    ]
    assert main(["agree"] + flags) == 0
    run_dir = tmp_path / "out" / "agree1"
    vectors = _annotation_vectors()
    for channel in ("honorifics", "lexical", "syntax", "content", "verse"):
        payload = json.loads((run_dir / f"agreement_{channel}.json").read_text())
        got = payload["inter_annotator"]
        want_tau, want_rho, want_mse, want_alpha = _expected_channel_stats(vectors[channel])
        assert got["tau"] == pytest.approx(want_tau, abs=APPROX), channel
        assert got["rho"] == pytest.approx(want_rho, abs=APPROX), channel
        assert got["mse"] == pytest.approx(want_mse, abs=APPROX), channel
        assert got["alpha"] == pytest.approx(want_alpha, abs=APPROX), channel
        assert got["n_raters"] == 3
    csv_lines = (run_dir / "agreement.csv").read_text().splitlines()
    assert csv_lines[1] == "channel,tau,rho,mse,alpha,n_items,n_raters"
    assert len(csv_lines) == 7  # comment + header + 5 channels
    # six unordered-pair confusion matrices per channel set: 3 pairs x 5 channels
    assert len(list(run_dir.glob("confusion_*_vs_*.csv"))) == 15


def _model_annotation_flags(tmp_path: Path) -> list[str]:
    """One model rater on the honorifics channel, beside the fixture's humans."""
    model_path = tmp_path / "model_ann.jsonl"
    rows = [
        {"rater_id": "model-x", "channel": "honorifics", "story_id": "st-arbor",
         "index": i, "system_id": "alpha", "score": s}
        for i, s in enumerate([5, 4, 5, 3, 1])
    ]
    model_path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    return [
        "--annotations", str(FIXTURES / "annotations.jsonl"),
        "--model-annotations", str(model_path),
    ]


def test_agree_with_model_annotations(tmp_path):
    flags = common_flags(tmp_path, run_id="agree2") + _model_annotation_flags(tmp_path)
    assert main(["agree"] + flags) == 0
    payload = json.loads(
        (tmp_path / "out" / "agree2" / "agreement_honorifics.json").read_text()
    )
    versus = payload["human_vs_model"]
    vectors = _annotation_vectors()["honorifics"]
    model_scores = {f"st-arbor::{i}::alpha": s for i, s in enumerate([5, 4, 5, 3, 1])}
    taus = []
    for rater in sorted(vectors):
        common = sorted(set(vectors[rater]) & set(model_scores))
        x = [vectors[rater][k] for k in common]
        y = [model_scores[k] for k in common]
        taus.append(tau_b_oracle(x, y))
    assert versus["tau"] == pytest.approx(sum(taus) / 3, abs=APPROX)
    assert set(versus["mean_per_label_f1"]) == {"1", "2", "3", "4", "5"}


def test_agree_aligns_each_rater_pair_once(tmp_path, monkeypatch):
    calls = []
    original = RatingVector.common_items

    def counting(self, other):
        calls.append((self.rater_id, other.rater_id))
        return original(self, other)

    monkeypatch.setattr(RatingVector, "common_items", counting)
    flags = common_flags(tmp_path, run_id="agree3") + _model_annotation_flags(tmp_path)
    assert main(["agree"] + flags) == 0
    # each human pair once in each of the 5 channels; the model rates honorifics only
    want = {pair: 5 for pair in [("r1", "r2"), ("r1", "r3"), ("r2", "r3")]}
    want.update({(human, "model-x"): 1 for human in ("r1", "r2", "r3")})
    assert Counter(calls) == want


def test_translate_cli_produces_loadable_candidates(tmp_path):
    flags = common_flags(tmp_path, run_id="tr1")
    script = {
        "rules": [{"contains": "Translate the source passage", "response": "번역."}]
    }
    script_path = tmp_path / "tr_script.json"
    script_path.write_text(json.dumps(script, ensure_ascii=False), encoding="utf-8")
    flags[flags.index(str(FIXTURES / "mock_script.json"))] = str(script_path)
    code = main([
        "translate", *flags,
        "--bank-stories", "st-arbor", "st-brook",
        "--no-dialogue-mix", "--system-id", "mock-mt",
    ])
    assert code == 0
    out = tmp_path / "out" / "tr1" / "candidates_mock-mt.jsonl"
    from rulerverse.corpus import load_candidates, load_corpus

    corpus = load_corpus(FIXTURES / "corpus.jsonl")
    cands = load_candidates(out, corpus)
    assert cands.coverage(corpus) == 1.0
    assert cands.provenance["model_id"] == "mock-judge"


def _flags_file(path: Path, *args: str) -> str:
    """`path` holding `args` one per line, as the "@path" argument that stands for them."""
    path.write_text("".join(f"{a}\n" for a in args), encoding="utf-8")
    return f"@{path}"


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    """Flags read from an @file; a flag after it overrides the file's value."""
    flags = _flags_file(
        tmp_path / "run.args",
        "--corpus", str(FIXTURES / "corpus.jsonl"),
        "--stories", str(FIXTURES / "stories.jsonl"),
        "--candidates", str(FIXTURES / "candidates_alpha.jsonl"),
        "--out", str(tmp_path / "out"),
    )
    assert main(["validate", flags]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["candidates"] == {"alpha": 1.0}
    assert main(["validate", flags, "--candidates", str(FIXTURES / "candidates_beta.jsonl")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["candidates"] == {"beta": 1.0}


def test_config_file_defaults_do_not_outlive_their_run(tmp_path):
    flags = _flags_file(tmp_path / "run.args", "--model", "configured-judge")
    assert main(["ruler", flags] + common_flags(tmp_path, "first")) == 0
    assert main(["ruler"] + common_flags(tmp_path, "second")) == 0
    models = {}
    for run_id in ("first", "second"):
        meta, records = read_artifact(tmp_path / "out" / run_id / "scorecards.jsonl")
        models[run_id] = {meta["model_id"]} | {r["model_id"] for r in records}
    assert models == {"first": {"configured-judge"}, "second": {"mock-judge"}}


def test_flags_file_parses_like_the_command_line(tmp_path):
    """Equal namespaces, so equal fingerprints and run directories."""
    typed = ["ruler"] + common_flags(tmp_path) + ["--temperature", "0", "--cot", "--k-shot", "5"]
    parser, _ = build_parser()
    from_file = parser.parse_args([typed[0], _flags_file(tmp_path / "run.args", *typed[1:])])
    assert from_file == parser.parse_args(typed)


@pytest.mark.parametrize("flags", [
    pytest.param(["--k-shot", "3"], id="k-shot-not-a-choice"),
    pytest.param(["--backend", "foo"], id="backend-not-a-choice"),
    pytest.param(["--cot", "no"], id="switch-with-a-value"),
    pytest.param(["--jobs", "true"], id="jobs-not-an-integer"),
])
def test_bad_flag_in_a_flags_file_is_a_usage_error(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["ruler", _flags_file(tmp_path / "run.args", *flags)] + common_flags(tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and flags[-1] in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, message", [
    pytest.param(None, "{path}", id="missing"),
    pytest.param(b"@{path}\n", "cannot read an @file", id="names-itself"),
    pytest.param(b"--model\ncaf\xe9\n", "cannot read an @file", id="not-utf8", marks=pytest.mark.skipif(
        sys.version_info >= (3, 12), reason="argparse decodes @files strictly up to 3.11")),
])
def test_unreadable_flags_file_is_a_usage_error(tmp_path, capsys, content, message):
    path = tmp_path / "missing.args"
    if content is not None:
        path = tmp_path / "run.args"
        path.write_bytes(content.replace(b"{path}", str(path).encode()))
    with pytest.raises(SystemExit) as exc:
        main(["ruler", f"@{path}"] + common_flags(tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and message.format(path=path) in err


def test_required_flag_from_a_flags_file(tmp_path, capsys):
    corpus = write_synthetic_corpus(tmp_path / "c.jsonl", 2, 3)
    flags = _flags_file(tmp_path / "sample.args", "--n-per-story", "2")
    assert main(["sample", flags, "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out) == {"items": 4, "questions": 0}


@pytest.mark.parametrize("command, flag, value, low", [
    pytest.param(["ruler"], "--jobs", "0", 1, id="0"),
    pytest.param(["ruler"], "--jobs", "-1", 1, id="-1"),
    pytest.param(["ruler"], "--max-retries", "-1", 0, id="max-retries"),
    pytest.param(["ruler"], "--reference-index", "-1", 0, id="reference-index"),
    pytest.param(["verse", "gen"], "--n-questions", "0", 1, id="n-questions"),
    pytest.param(["translate"], "--shots", "-1", 0, id="shots"),
    pytest.param(["sample"], "--n-per-story", "-1", 1, id="n-per-story"),
    pytest.param(["sample", "--n-per-story", "1"], "--q-per-item", "-1", 0, id="q-per-item"),
])
def test_jobs_below_one_rejected(tmp_path, capsys, command, flag, value, low):
    """--jobs and every other integer flag with a lower bound: a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(command + common_flags(tmp_path) + [flag, value])
    assert exc.value.code == 2
    assert f"{flag} must be an integer >= {low}, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, value, wanted", [
    pytest.param(["ruler"], "--timeout", "0", "a finite number > 0", id="timeout"),
    pytest.param(["ruler"], "--timeout", "inf", "a finite number > 0", id="timeout-inf"),
    pytest.param(["ruler"], "--timeout", "nan", "a finite number > 0", id="timeout-nan"),
    pytest.param(["ruler"], "--temperature", "nan", "a finite number", id="temperature-nan"),
    pytest.param(["ruler"], "--temperature", "inf", "a finite number", id="temperature-inf"),
    pytest.param(["translate"], "--temperature", "nan", "a finite number",
                 id="translate-temperature-nan"),
    pytest.param(["report"], "--axis-min", "100", "a number in [0, 100)", id="axis-min-high"),
    pytest.param(["report"], "--axis-min", "-1", "a number in [0, 100)", id="axis-min-low"),
])
def test_float_flag_out_of_range_rejected(tmp_path, capsys, command, flag, value, wanted):
    with pytest.raises(SystemExit) as exc:
        main(command + common_flags(tmp_path) + [flag, value])
    assert exc.value.code == 2
    assert f"{flag} must be {wanted}, got {float(value)!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    pytest.param("--model", "caf\udce9", id="model"),
    pytest.param("--out", "out-\udcff", id="out"),
])
def test_argument_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, flag, value):
    """Python decodes argument bytes that are not UTF-8 to lone surrogates
    (b"caf\xe9" arrives as "caf\udce9"); they name the flag, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["validate"] + common_flags(tmp_path) + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"{flag} is not UTF-8" in err
    assert not (tmp_path / "out").exists()


def _error_payload(capsys) -> dict:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return json.loads(err.strip().splitlines()[-1])


def test_mock_backend_without_script_is_an_eval_error(tmp_path, capsys):
    flags = common_flags(tmp_path)
    at = flags.index("--script")
    del flags[at:at + 2]
    assert main(["ruler"] + flags) == 1
    assert _error_payload(capsys) == {
        "error": "EvalError", "message": "--script is required for the mock backend"
    }


@pytest.mark.parametrize("endpoint", [None, "", "judge.example/v1", "ftp://judge.example/v1",
                                      "http://"])
def test_live_backend_without_a_usable_endpoint_is_an_eval_error(tmp_path, capsys, endpoint):
    flags = common_flags(tmp_path) + ["--max-retries", "0"]
    flags[flags.index("--backend") + 1] = "live"
    if endpoint is not None:
        flags += ["--endpoint", endpoint]
    assert main(["ruler"] + flags) == 1
    assert _error_payload(capsys) == {
        "error": "EvalError", "message": "--endpoint is not usable by the live backend: "
        f"endpoint must be an http or https URL, got {endpoint or ''!r}"
    }
    assert not (tmp_path / "out").exists()  # no item ran, and nothing was written


@pytest.mark.parametrize("port, reason", [
    pytest.param("abc", "Port could not be cast to integer value as 'abc'", id="abc"),
    pytest.param("99999", "Port out of range 0-65535", id="99999"),
    pytest.param("0", "endpoint port must be from 1 to 65535, got 0", id="0"),
])
def test_live_backend_with_a_bad_endpoint_port_is_an_eval_error(tmp_path, capsys, port, reason):
    flags = common_flags(tmp_path) + ["--max-retries", "0",
                                      "--endpoint", f"http://judge.example:{port}/v1"]
    flags[flags.index("--backend") + 1] = "live"
    assert main(["ruler"] + flags) == 1
    assert _error_payload(capsys) == {
        "error": "EvalError", "message": f"--endpoint is not usable by the live backend: {reason}"
    }
    assert not (tmp_path / "out").exists()


def _rubric_with_level_named_one() -> str:
    rubric = json.loads(
        resources.files("rulerverse").joinpath("data/rubric_en.json").read_text("utf-8")
    )
    levels = rubric["criteria"]["syntax"]["levels"]
    levels["one"] = levels.pop("1")
    return json.dumps(rubric)


_ANNOTATION = {"rater_id": "r1", "channel": "syntax", "story_id": "st-arbor", "index": 0,
               "system_id": "alpha", "score": 3}


@pytest.mark.parametrize("stage, flag, content", [
    pytest.param(["ruler"], "--manifest", '{"seed": ', id="manifest-invalid-json"),
    pytest.param(["ruler"], "--script", '{"rules": [', id="script-invalid-json"),
    pytest.param(["ruler"], "--rubric", '{"criteria": ', id="rubric-invalid-json"),
    pytest.param(["ruler"], "--script", "[]", id="script-list"),
    pytest.param(["ruler"], "--rubric", "[]", id="rubric-list"),
    pytest.param(["ruler"], "--rubric", _rubric_with_level_named_one(), id="rubric-level-one"),
    pytest.param(["ruler"], "--manifest", json.dumps({"seed": 1, "q_per_item": 0, "items": []}),
                 id="manifest-without-n-per-story"),
    pytest.param(["ruler", "--k-shot", "5"], "--shots-bank",
                 json.dumps({"story_id": "x", "criterion": "syntax", "score": 3,
                             "candidate_text": "c"}), id="shot-without-source-text"),
    pytest.param(["ruler", "--k-shot", "5"], "--shots-bank",
                 json.dumps({"criterion": "syntax", "score": 3, "source_text": "s",
                             "candidate_text": "c"}), id="shot-without-story-id"),
    pytest.param(["ruler", "--k-shot", "5"], "--shots-bank",
                 json.dumps({"story_id": "x", "criterion": "syntax", "score": True,
                             "source_text": "s", "candidate_text": "c"}), id="shot-bool-score"),
    pytest.param(["verse", "classify"], "--questions",
                 json.dumps({"question_id": "q", "story_id": "st-arbor", "index": 0}),
                 id="question-without-text"),
    pytest.param(["verse", "classify"], "--questions",
                 json.dumps({"question_id": "q", "story_id": "st-arbor", "index": 0, "text": 7}),
                 id="question-text-not-a-string"),
    pytest.param(["verse", "classify"], "--questions", "\n".join(
                 [json.dumps({"_meta": {}}),
                  json.dumps({"question_id": "q1", "story_id": "st-arbor", "index": 0, "text": "t"}),
                  json.dumps({"question_id": "q2", "story_id": "st-arbor", "index": 0, "text": 7})]),
                 id="question-text-not-a-string-on-line-3"),
    pytest.param(["report"], "--grades", "\n".join(
                 [json.dumps({"question_id": "q1", "system_id": "s", "score": 2}),
                  json.dumps({"question_id": "q2", "system_id": "s", "score": "3"})]),
                 id="grade-score-not-an-integer-on-line-2"),
    pytest.param(["verse", "grade"], "--questions",
                 json.dumps({"question_id": "q", "story_id": "st-arbor", "index": "0", "text": "t",
                             "category": "Overall Consistency and Cohesion"}),
                 id="question-index-a-string"),
    pytest.param(["verse", "grade"], "--questions",
                 json.dumps({"question_id": "q", "story_id": "st-arbor", "index": 0, "text": "t",
                             "category": 3}),
                 id="question-category-not-a-string"),
    pytest.param(["ruler"], "--manifest",
                 json.dumps({"seed": 1, "n_per_story": 1, "q_per_item": 1, "items": [
                     {"story_id": "st-arbor", "index": 0, "question_ids": "st-arbor:0:q01"}]}),
                 id="manifest-question-ids-a-string"),
    pytest.param(["ruler"], "--manifest",
                 json.dumps({"seed": 1, "n_per_story": 1, "q_per_item": 0, "items": [
                     {"story_id": "st-arbor", "index": 0, "system_id": 5}]}),
                 id="manifest-system-id-not-a-string"),
    pytest.param(["validate"], "--candidates",
                 json.dumps({"system_id": 7, "story_id": "st-arbor", "index": 0, "text": "t"}),
                 id="candidate-system-id-not-a-string"),
    pytest.param(["ruler"], "--candidates",
                 json.dumps({"system_id": "", "story_id": "st-arbor", "index": 0, "text": "t"}),
                 id="candidate-system-id-empty"),
    pytest.param(["report"], "--scorecards",
                 json.dumps({"system_id": 7, "story_id": "st-arbor", "index": 0, "scores": {
                     "honorifics": 5, "lexical": 4, "syntax": 3, "content": 2}}),
                 id="scorecard-system-id-not-a-string"),
    pytest.param(["report"], "--grades", "\n".join(
                 [json.dumps({"question_id": "q1", "system_id": "s", "score": 2}),
                  json.dumps({"question_id": 2, "system_id": "s", "score": 3})]),
                 id="grade-question-id-not-a-string-on-line-2"),
    pytest.param(["report"], "--scorecards",
                 json.dumps({"system_id": "alpha", "story_id": "st-arbor", "index": 0, "scores": {
                     "honorifics": 5, "lexical": 6, "syntax": 3, "content": 2}}),
                 id="scorecard-score-above-the-scale"),
    pytest.param(["report"], "--grades", "\n".join(
                 [json.dumps({"question_id": "q1", "system_id": "s", "score": 2}),
                  json.dumps({"question_id": "q2", "system_id": "s", "score": 7})]),
                 id="grade-score-above-the-scale-on-line-2"),
    pytest.param(["report"], "--grades",
                 json.dumps({"question_id": "q1", "system_id": "s", "score": 0}),
                 id="grade-score-below-the-scale"),
    pytest.param(["validate"], "--annotations",
                 json.dumps({"rater_id": 3, "channel": "syntax", "story_id": "st-arbor",
                             "index": 0, "system_id": "alpha", "score": 3}),
                 id="annotation-rater-id-not-a-string"),
    pytest.param(["validate"], "--annotations",
                 json.dumps({"rater_id": "r1", "channel": "syntax", "story_id": "st-arbor",
                             "index": 0, "system_id": 7, "score": 3}),
                 id="annotation-system-id-not-a-string"),
    pytest.param(["validate"], "--annotations",
                 json.dumps({"rater_id": "r1", "channel": "verse", "story_id": "st-arbor",
                             "index": 0, "system_id": "alpha", "question_id": "", "score": 3}),
                 id="annotation-question-id-empty"),
    pytest.param(["validate"], "--annotations", "\n".join(
                 [json.dumps(_ANNOTATION),
                  json.dumps({**_ANNOTATION, "index": 1})[:-1] + ', "tags": [1',
                  '2]}, ' + json.dumps({**_ANNOTATION, "index": 2})]),
                 id="annotation-lines-that-parse-only-when-joined"),
    pytest.param(["validate"], "--annotations", "\n".join(
                 [json.dumps(_ANNOTATION), json.dumps({**_ANNOTATION, "index": 1}) + " x"]),
                 id="annotation-trailing-garbage-on-line-2"),
    pytest.param(["validate"], "--annotations", "\n".join(
                 [json.dumps(_ANNOTATION), json.dumps({**_ANNOTATION, "index": 1, "score": True})]),
                 id="annotation-score-true-on-line-2"),
])
def test_malformed_input_file_is_a_format_error(tmp_path, capsys, stage, flag, content):
    """A malformed JSON input ends in exit 1 and a payload naming the file; a
    file of several records names the line of the bad one: the first line
    that is not JSON by itself, else the last."""
    path = tmp_path / "input.json"
    path.write_text(content + "\n", encoding="utf-8")
    assert main(stage + common_flags(tmp_path) + [flag, str(path)]) == 1
    err = _error_payload(capsys)
    assert err["error"] == "CorpusFormatError"
    lines = content.split("\n")
    bad = next((i for i, line in enumerate(lines, 1) if not _is_json(line)), len(lines))
    assert (f"{path}:{bad}:" if len(lines) > 1 else str(path)) in err["message"]


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("script, rule", [
    pytest.param({"rules": [], "default": 5}, None, id="default-not-a-string"),
    pytest.param({"rules": [{"contains": "", "response": 5}]}, 0, id="response-not-a-string"),
    pytest.param({"rules": [{"contains": "", "response": "Score: 3"},
                            {"contains": 7, "response": "Score: 3"}]}, 1, id="contains-int"),
    pytest.param({"rules": [{"regex": "([", "response": "Score: 3"}]}, 0, id="regex-invalid"),
    pytest.param({"rules": [{"hash": 5, "response": "Score: 3"}]}, 0, id="hash-not-a-string"),
])
def test_malformed_mock_script_rule_is_a_format_error(tmp_path, capsys, script, rule):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    flags = common_flags(tmp_path)
    flags[flags.index("--script") + 1] = str(path)
    assert main(["ruler"] + flags) == 1
    err = _error_payload(capsys)
    assert err["error"] == "CorpusFormatError"
    assert str(path) in err["message"]
    assert ("default" if rule is None else f"rule {rule}:") in err["message"]


_SCORECARD = {"system_id": "alpha", "story_id": "st-arbor", "index": 0, "options": "o",
              "model_id": "mock-judge",
              "scores": {"honorifics": 5, "lexical": 4, "syntax": 3, "content": 2}}
_GRADE = {"question_id": "q1", "system_id": "alpha", "score": 2, "options": "o",
          "model_id": "mock-judge"}


@pytest.mark.parametrize("flag, record, field", [
    pytest.param("--scorecards", {k: v for k, v in _SCORECARD.items() if k != "scores"},
                 "'scores'", id="scorecard-without-scores"),
    pytest.param("--scorecards", {**_SCORECARD, "scores": {"honorifics": 5, "lexicon": 4,
                                                           "syntax": 3, "content": 2}},
                 "scores", id="scorecard-unknown-criterion"),
    pytest.param("--scorecards", {**_SCORECARD, "scores": {**_SCORECARD["scores"], "syntax": "3"}},
                 "scores", id="scorecard-score-not-an-integer"),
    pytest.param("--grades", {k: v for k, v in _GRADE.items() if k != "score"},
                 "'score'", id="grade-without-score"),
    pytest.param("--grades", {k: v for k, v in _GRADE.items() if k != "question_id"},
                 "'question_id'", id="grade-without-question-id"),
    pytest.param("--grades", {**_GRADE, "score": "2"}, "score", id="grade-score-not-an-integer"),
])
def test_malformed_artifact_record_is_a_format_error(tmp_path, capsys, flag, record, field):
    path = tmp_path / "artifact.jsonl"
    path.write_text(json.dumps({"_meta": {"fingerprint": "f"}}) + "\n" + json.dumps(record)
                    + "\n", encoding="utf-8")
    assert main(["report"] + common_flags(tmp_path) + [flag, str(path)]) == 1
    err = _error_payload(capsys)
    assert err["error"] == "CorpusFormatError"
    assert str(path) in err["message"] and field in err["message"]


@pytest.mark.parametrize("stage, flag", [
    (["validate"], "--corpus"),
    (["verse", "classify"], "--questions"),
])
def test_missing_input_file_is_reported(tmp_path, capsys, stage, flag):
    flags = common_flags(tmp_path) + [flag, str(tmp_path / "missing.jsonl")]
    assert main(stage + flags) == 1
    err = _error_payload(capsys)
    assert err["error"] == "FileNotFoundError"
    assert "missing.jsonl" in err["message"]


def test_non_numeric_baseline_cell_names_its_column(tmp_path, capsys):
    flags = common_flags(tmp_path)
    assert main(["ruler"] + flags) == 0
    baseline = tmp_path / "baseline.csv"
    baseline.write_text("system_id,BLEU\nalpha,31.5\nbeta,n/a\n", encoding="utf-8")
    assert main(["report"] + flags + ["--baseline", str(baseline)]) == 1
    err = _error_payload(capsys)
    assert err["error"] == "CorpusFormatError"
    assert "'BLEU'" in err["message"] and "'n/a'" in err["message"]


@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_non_finite_baseline_cell_names_its_column_and_system(tmp_path, capsys, cell):
    """No artifact may hold a NaN or Infinity token, which strict JSON readers refuse."""
    flags = common_flags(tmp_path)
    assert main(["ruler"] + flags) == 0
    baseline = tmp_path / "baseline.csv"
    baseline.write_text(f"system_id,BLEU\nalpha,31.5\nbeta,{cell}\n", encoding="utf-8")
    assert main(["report"] + flags + ["--baseline", str(baseline)]) == 1
    err = _error_payload(capsys)
    assert err["error"] == "CorpusFormatError"
    assert all(part in err["message"] for part in ("'BLEU'", "'beta'", repr(cell)))
    assert not (tmp_path / "out" / "run1" / "aggregate.json").exists()


def test_json_artifacts_refuse_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "x.json", {"value": float("nan")})
    assert not (tmp_path / "x.json").exists()


def test_undecodable_baseline_names_the_file(tmp_path, capsys):
    flags = common_flags(tmp_path)
    assert main(["ruler"] + flags) == 0
    baseline = tmp_path / "baseline.csv"
    baseline.write_bytes(b"system_id,BLEU\nalpha,31.5\nbeta\xff,30.0\n")
    assert main(["report"] + flags + ["--baseline", str(baseline)]) == 1
    err = _error_payload(capsys)
    assert err["error"] == "CorpusFormatError"
    assert f"{baseline}: not UTF-8" in err["message"]


def test_torn_stage_summary_is_a_format_error(tmp_path, capsys):
    flags = common_flags(tmp_path)
    assert main(["ruler"] + flags) == 0
    summary = tmp_path / "out" / "run1" / "ruler_summary.json"
    summary.write_text(summary.read_text(encoding="utf-8")[:40], encoding="utf-8")
    assert main(["report"] + flags) == 1
    err = _error_payload(capsys)
    assert err["error"] == "CorpusFormatError"
    assert str(summary) in err["message"]


def test_jobs_below_one_in_config_rejected(tmp_path, capsys):
    flags = _flags_file(tmp_path / "run.args", "--jobs", "0")
    with pytest.raises(SystemExit) as exc:
        main(["ruler", flags] + common_flags(tmp_path))
    assert exc.value.code == 2
    assert "--jobs must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    flags = _flags_file(tmp_path / "run.args", "--corpsu", "typo")
    with pytest.raises(SystemExit) as exc:
        main(["validate", flags])
    assert exc.value.code == 2
    assert "unrecognized arguments: --corpsu typo" in capsys.readouterr().err


def test_run_id_defaults_to_fingerprint_prefix(tmp_path):
    corpus = write_synthetic_corpus(tmp_path / "c.jsonl", 1, 3)
    args = ["sample", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
            "--n-per-story", "2", "--seed", "5"]
    assert main(args) == 0
    dirs = [p.name for p in (tmp_path / "out").iterdir() if p.is_dir()]
    assert len(dirs) == 1
    assert len(dirs[0]) == 12
    assert main(args) == 0  # same config reuses the same run dir
    assert [p.name for p in (tmp_path / "out").iterdir() if p.is_dir()] == dirs


def test_verse_grade_reference_index_past_last_is_item_failure(tmp_path):
    flags = common_flags(tmp_path)
    run_dir = tmp_path / "out" / "run1"
    assert main(["verse", "gen"] + flags) == 0
    assert main(["verse", "classify"] + flags) == 0
    assert main(["verse", "grade"] + flags + ["--reference-index", "5"]) == 0
    _, grades = read_artifact(run_dir / "grades.jsonl")
    assert grades == []
    summary = json.loads((run_dir / "verse_grade_summary.json").read_text())
    assert summary["items_total"] == 180
    assert summary["items_failed"] == 180
    assert {f["error"] for f in summary["failures"]} == {"MissingReference"}


def test_verse_gen_records_a_paragraph_without_questions_as_a_failure(tmp_path):
    """One paragraph's answer has no numbered list: it is one failure, and the
    other paragraphs' questions are written."""
    script = json.loads((FIXTURES / "mock_script.json").read_text(encoding="utf-8"))
    script["rules"].insert(0, {"contains": ["verification questions", "Mind the gate"],
                               "response": "This passage needs no questions."})
    listless = tmp_path / "listless_script.json"
    listless.write_text(json.dumps(script), encoding="utf-8")
    flags = common_flags(tmp_path)
    flags[flags.index("--script") + 1] = str(listless)
    run_dir = tmp_path / "out" / "run1"
    assert main(["verse", "gen"] + flags) == 0
    summary = json.loads((run_dir / "verse_gen_summary.json").read_text())
    assert (summary["items_total"], summary["items_failed"], summary["questions"]) == (10, 1, 81)
    [failure] = summary["failures"]
    assert (failure["stage"], failure["error"]) == ("verse:gen", "NoQuestionsParsed")
    assert (failure["story_id"], failure["index"]) == ("st-arbor", 0)
    _, questions = read_artifact(run_dir / "questions.jsonl")
    assert len(questions) == 81
    assert ("st-arbor", 0) not in {(q["story_id"], q["index"]) for q in questions}


def test_verse_classify_keeps_failed_questions_for_a_rerun(tmp_path):
    flags = common_flags(tmp_path)
    run_dir = tmp_path / "out" / "run1"
    assert main(["verse", "gen"] + flags) == 0
    path = run_dir / "questions.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    # one question gets a text that only the working script can classify
    lines = [line.replace(" across the passage", "") if '"st-arbor:0:q09"' in line else line
             for line in lines]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    script = json.loads((FIXTURES / "mock_script.json").read_text(encoding="utf-8"))
    for rule in script["rules"]:
        if "rendered consistently" in rule["contains"]:
            rule["contains"] = [*rule["contains"], "across the passage"]
    failing = tmp_path / "failing_script.json"
    failing.write_text(json.dumps(script), encoding="utf-8")
    failing_flags = list(flags)
    failing_flags[failing_flags.index(str(FIXTURES / "mock_script.json"))] = str(failing)

    assert main(["verse", "classify"] + failing_flags) == 0
    _, questions = read_artifact(path)
    assert len(questions) == 90
    assert [q["question_id"] for q in questions if q["category"] is None] == ["st-arbor:0:q09"]
    summary = json.loads((run_dir / "verse_classify_summary.json").read_text())
    assert (summary["items_failed"], summary["classified"]) == (1, 89)
    assert main(["verse", "grade"] + flags) == 1  # unclassified questions are refused

    assert main(["verse", "classify"] + flags) == 0
    _, questions = read_artifact(path)
    assert len(questions) == 90
    assert next(q for q in questions if q["question_id"] == "st-arbor:0:q09")["category"] == (
        "Overall Consistency and Cohesion"
    )
    summary = json.loads((run_dir / "verse_classify_summary.json").read_text())
    assert (summary["items_failed"], summary["backend_calls"], summary["classified"]) == (0, 1, 90)


def test_verse_classify_asks_a_fixed_script_again(tmp_path):
    """Unmappable answers are cached like any other; the fixed script's answers
    have keys of their own, so the rerun is not served the cached bad ones."""
    flags = common_flags(tmp_path)
    run_dir = tmp_path / "out" / "run1"
    assert main(["verse", "gen"] + flags) == 0
    script = json.loads((FIXTURES / "mock_script.json").read_text(encoding="utf-8"))
    for rule in script["rules"]:
        if "rendered consistently" in rule["contains"]:
            rule["response"] = "Miscellaneous"
    misc = tmp_path / "misc_script.json"
    misc.write_text(json.dumps(script), encoding="utf-8")
    misc_flags = list(flags)
    misc_flags[misc_flags.index("--script") + 1] = str(misc)

    assert main(["verse", "classify"] + misc_flags) == 0
    summary = json.loads((run_dir / "verse_classify_summary.json").read_text())
    assert (summary["items_failed"], summary["classified"]) == (10, 80)
    assert {f["error"] for f in summary["failures"]} == {"UnmappableCategory"}

    assert main(["verse", "classify"] + flags) == 0
    summary = json.loads((run_dir / "verse_classify_summary.json").read_text())
    assert (summary["items_failed"], summary["backend_calls"], summary["classified"]) == (0, 1, 90)


def test_fingerprint_covers_every_common_flag_that_changes_output():
    operational = {"jobs", "out", "run_id", "cache_dir", "timeout", "max_retries", "api_key_env"}
    parser, _ = build_parser()
    base = vars(parser.parse_args(["ruler"]))
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    for action in common._actions:
        if action.nargs == 0:
            value = not action.default
        elif action.choices:
            value = next(c for c in action.choices if c != action.default)
        elif action.nargs == "*":
            value = ["x.jsonl"]
        elif action.type in (int, float):
            value = action.default + 1
        else:
            value = "x.jsonl"
        changed = argparse.Namespace(**{**base, action.dest: value})
        moved = config_fingerprint(changed) != config_fingerprint(argparse.Namespace(**base))
        assert moved == (action.dest not in operational), action.dest
    # the value the hand-kept field list gave, so existing run ids stay
    args = parser.parse_args(["ruler", "--corpus", "c.jsonl", "--candidates", "b.jsonl",
                              "a.jsonl", "--cot", "--jobs", "2"])
    assert config_fingerprint(args) == (
        "40ae6d05299b6314fba801bff298a81110335cdcf9bc11661909a4f60a403b49")


def test_every_leaf_has_the_common_flags_of_add_common():
    reference = argparse.ArgumentParser(add_help=False)
    _add_common(reference)
    fields = ("option_strings", "dest", "default", "type", "choices", "nargs", "required", "help")
    wanted = [tuple(getattr(a, f) for f in fields) for a in reference._actions]
    _, leaves = build_parser()
    assert len(leaves) == 9
    for leaf in leaves:
        # after -h and before the leaf's own flags, as in every command's --help
        common = leaf._actions[1:1 + len(wanted)]
        assert [tuple(getattr(a, f) for f in fields) for a in common] == wanted, leaf.prog


STAGES = {
    "translate": ["translate", "--bank-stories", "st-arbor", "st-brook", "--no-dialogue-mix"],
    "ruler": ["ruler"],
    "verse_gen": ["verse", "gen"],
    "verse_classify": ["verse", "classify"],
    "verse_grade": ["verse", "grade"],
}


def _run_stages(tmp_path: Path, jobs: int, live: bool = False) -> tuple[Path, dict[str, dict]]:
    """Every judge stage on the fixtures; returns the run directory and summaries."""
    flags = common_flags(tmp_path) + ["--jobs", str(jobs)]
    if live:
        flags[flags.index("--backend") + 1] = "live"
        flags += ["--endpoint", "http://judge.invalid/v1/chat/completions"]
    for stage, argv in STAGES.items():
        assert main(argv + flags) == 0, stage
    run_dir = tmp_path / "out" / "run1"
    return run_dir, {
        stage: json.loads((run_dir / f"{stage}_summary.json").read_text()) for stage in STAGES
    }


def _scripted_post(script: MockScript):
    def post(self, payload):
        system, user = (m["content"] for m in payload["messages"])
        if "Translate the source passage" in user:
            return "T: " + user.rsplit("\n", 1)[-1]
        return script.respond(system, user)
    return post


def test_mock_answers_never_leave_the_calling_thread(tmp_path, monkeypatch):
    threads = []
    respond = MockScript.respond

    def recording(self, system_text, user_text):
        threads.append(threading.get_ident())
        if "Translate the source passage" in user_text:
            return "translated"
        return respond(self, system_text, user_text)

    monkeypatch.setattr(MockScript, "respond", recording)
    _, summaries = _run_stages(tmp_path, jobs=4)
    assert len(threads) == sum(s["backend_calls"] for s in summaries.values())
    assert summaries["verse_grade"]["backend_calls"] == 180
    assert set(threads) == {threading.get_ident()}


def test_outputs_identical_at_one_and_four_jobs(tmp_path, monkeypatch):
    script = MockScript.load(FIXTURES / "mock_script.json")
    monkeypatch.setattr(Judge, "_post", _scripted_post(script))
    (dir1, sums1), (dir4, sums4) = (
        _run_stages(tmp_path / f"jobs{jobs}", jobs, live=True) for jobs in (1, 4)
    )
    names = ["candidates_mock-judge.jsonl", "scorecards.jsonl", "honorifics_audit.json",
             "questions.jsonl", "grades.jsonl"]
    for name in names:
        assert (dir1 / name).read_bytes() == (dir4 / name).read_bytes(), name
    for stage in STAGES:
        sums1[stage].pop("output", None), sums4[stage].pop("output", None)
        assert sums1[stage] == sums4[stage] and sums1[stage]["items_failed"] == 0, stage
    assert sums4["verse_grade"]["backend_calls"] == 180


def test_changed_mock_script_means_backend_calls(tmp_path):
    assert main(["ruler"] + common_flags(tmp_path)) == 0
    script = tmp_path / "score_one.json"
    script.write_text(json.dumps({"rules": [], "default": "Score: 1"}), encoding="utf-8")
    flags = common_flags(tmp_path)
    flags[flags.index("--script") + 1] = str(script)
    assert main(["ruler"] + flags) == 0
    summary = json.loads((tmp_path / "out" / "run1" / "ruler_summary.json").read_text())
    assert (summary["backend_calls"], summary["cache_hits"]) == (80, 0)


# -- resuming an interrupted run --

RESUME_STAGES = (["ruler"], ["verse", "gen"], ["verse", "classify"], ["verse", "grade"],
                 ["report"])
# how the run went, not what it computed
RUN_COUNTERS = ("backend_calls", "cache_hits")


def _run_pipeline(root: Path) -> Path:
    for argv in RESUME_STAGES:
        assert main(argv + common_flags(root)) == 0, argv
    return root / "out" / "run1"


def _artifacts(run_dir: Path) -> dict[str, object]:
    """Every file of a run directory; summaries without their counters."""
    files: dict[str, object] = {}
    for path in sorted(run_dir.iterdir()):
        if path.name.endswith("_summary.json"):
            summary = json.loads(path.read_text(encoding="utf-8"))
            files[path.name] = {k: v for k, v in summary.items() if k not in RUN_COUNTERS}
            files[path.name + " calls"] = sum(summary[k] for k in RUN_COUNTERS)
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory) -> tuple[dict[str, object], int]:
    run_dir = _run_pipeline(tmp_path_factory.mktemp("uninterrupted"))
    calls = sum(json.loads(p.read_text()).get("backend_calls", 0)
                for p in run_dir.glob("*_summary.json"))
    return _artifacts(run_dir), calls


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_interrupted_pipeline_resumes_to_identical_artifacts(uninterrupted, data):
    expected, calls = uninterrupted
    k = data.draw(st.integers(0, calls - 1), label="judge calls before the interrupt")
    counter, respond = itertools.count(), MockScript.respond

    def interrupting(self, system_text, user_text):
        if next(counter) == k:
            raise KeyboardInterrupt
        return respond(self, system_text, user_text)

    with tempfile.TemporaryDirectory() as tmp:
        with patch.object(MockScript, "respond", interrupting), pytest.raises(KeyboardInterrupt):
            _run_pipeline(Path(tmp))
        assert _artifacts(_run_pipeline(Path(tmp))) == expected


# ends the process at a persistence point of `corpus.write_atomic`: after the
# first bytes of the temporary file of the artifact named argv[1], or at its rename
CRASHING_RUN = """
import os, sys
from rulerverse.cli import main
name, point = sys.argv[1:3]
real_open, real_replace = os.open, os.replace

def dying_open(path, flags, *args):
    fd = real_open(path, flags, *args)
    if point == "write" and os.path.basename(path).startswith(name + "."):
        os.write(fd, b'{"_meta"')
        os._exit(9)
    return fd

def dying_replace(src, dst, **kwargs):
    if point == "rename" and os.path.basename(dst) == name:
        os._exit(9)
    return real_replace(src, dst, **kwargs)

os.open, os.replace = dying_open, dying_replace
sys.exit(main(sys.argv[3:]))
"""


@pytest.fixture(scope="module")
def uninterrupted_ruler(tmp_path_factory) -> dict[str, object]:
    root = tmp_path_factory.mktemp("uninterrupted_ruler")
    assert main(["ruler"] + common_flags(root)) == 0
    return _artifacts(root / "out" / "run1")


@pytest.mark.parametrize("point", ["write", "rename"])
@pytest.mark.parametrize("name", ["scorecards.jsonl", "honorifics_audit.json",
                                  "ruler_summary.json"])
def test_ruler_killed_while_writing_resumes_to_the_same_run_directory(
        tmp_path, uninterrupted_ruler, name, point):
    """A process that dies inside an atomic write leaves its temporary file;
    the resumed run removes it along with redoing the write."""
    src = Path(rulerverse.__file__).resolve().parents[1]
    killed = subprocess.run(
        [sys.executable, "-c", CRASHING_RUN, name, point, "ruler", *common_flags(tmp_path)],
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}, capture_output=True)
    assert killed.returncode == 9, killed.stderr.decode()
    run_dir = tmp_path / "out" / "run1"
    assert list(run_dir.glob(f"{name}.*.tmp"))
    assert main(["ruler"] + common_flags(tmp_path)) == 0
    assert _artifacts(run_dir) == uninterrupted_ruler
