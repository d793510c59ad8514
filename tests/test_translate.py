from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import FIXTURES, cache_entries, make_judge
from rulerverse.cli import main
from rulerverse.corpus import load_candidates
from rulerverse.errors import InsufficientBank
from rulerverse.translate import (
    TranslationPromptSpec,
    build_translation_prompt,
    select_shot_pairs,
    split_sentences,
    translate_pair,
)

TRANSLATE_SCRIPT = {
    "rules": [
        {"contains": "Translate the source passage", "response": "번역된 문단입니다."}
    ]
}


def _spec(**kw):
    defaults = dict(bank_story_ids=("st-arbor",), require_dialogue_mix=False)
    defaults.update(kw)
    return TranslationPromptSpec(**defaults)


def _translate_stage(tmp_path, script: dict, *flags: str) -> tuple[dict, Path]:
    """Run the `translate` stage on the fixture corpus as system sysX; returns
    its summary and the path of the candidates file it wrote."""
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script, ensure_ascii=False), encoding="utf-8")
    assert main([
        "translate", "--corpus", str(FIXTURES / "corpus.jsonl"),
        "--stories", str(FIXTURES / "stories.jsonl"), "--script", str(script_path),
        "--out", str(tmp_path / "out"), "--run-id", "tr", "--system-id", "sysX",
        "--no-dialogue-mix", *flags,
    ]) == 0
    summary = json.loads((tmp_path / "out" / "tr" / "translate_summary.json").read_text("utf-8"))
    return summary, Path(summary["output"])


def test_translate_covers_all_paragraphs(tmp_path, fixture_corpus):
    summary, path = _translate_stage(tmp_path, TRANSLATE_SCRIPT,
                                     "--bank-stories", "st-arbor", "st-brook")
    candidates = load_candidates(path, fixture_corpus)
    assert not summary["failures"]
    assert candidates.system_id == "sysX"
    assert len(candidates.translations) == fixture_corpus.n_paragraphs
    assert candidates.provenance["temperature"] == "backend-default"
    spec = _spec(bank_story_ids=("st-arbor", "st-brook"))
    assert candidates.provenance["spec_fingerprint"] == spec.fingerprint()


def test_five_shot_prompt_contains_exactly_five_examples(fixture_corpus):
    shots = select_shot_pairs(fixture_corpus, _spec(), exclude_story="st-brook")
    request = build_translation_prompt("src", shots, "summary", include_summary=True)
    assert request.user_text.count("Example ") == 5
    assert "Story summary" in request.user_text


def test_no_summary_flag_removes_section(fixture_corpus):
    shots = select_shot_pairs(fixture_corpus, _spec(), exclude_story="st-brook")
    request = build_translation_prompt("src", shots, "summary", include_summary=False)
    assert "Story summary" not in request.user_text


def test_shots_never_from_story_under_translation(fixture_corpus):
    spec = _spec(bank_story_ids=("st-arbor", "st-brook"), n_shots=5)
    shots = select_shot_pairs(fixture_corpus, spec, exclude_story="st-arbor")
    assert all(p.story_id != "st-arbor" for p in shots)


def test_insufficient_bank(fixture_corpus):
    spec = _spec(bank_story_ids=("st-arbor",), n_shots=5)
    with pytest.raises(InsufficientBank):
        select_shot_pairs(fixture_corpus, spec, exclude_story="st-arbor")


def test_dialogue_mix_requirement(tmp_path, fixture_corpus):
    # st-arbor offers both dialogue and narrative paragraphs: mix satisfiable
    spec = _spec(require_dialogue_mix=True)
    shots = select_shot_pairs(fixture_corpus, spec, exclude_story="st-brook")
    assert any(p.has_dialogue for p in shots)
    assert any(p.has_dialogue is False for p in shots)


def test_dialogue_mix_unsatisfiable_errors(tmp_path):
    from rulerverse.corpus import load_corpus
    import json

    # corpus whose paragraphs are all narrative
    path = tmp_path / "c.jsonl"
    records = [
        {"story_id": "only", "index": i, "source_text": f"s{i}",
         "references": [f"r{i}"], "has_dialogue": False}
        for i in range(6)
    ] + [
        {"story_id": "other", "index": 0, "source_text": "x", "references": ["y"]}
    ]
    path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    corpus = load_corpus(path)
    spec = TranslationPromptSpec(bank_story_ids=("only",), require_dialogue_mix=True)
    with pytest.raises(InsufficientBank, match="has_dialogue=True"):
        select_shot_pairs(corpus, spec, exclude_story="other")


def test_sentence_granularity(tmp_path, fixture_corpus):
    judge = make_judge(tmp_path, script=TRANSLATE_SCRIPT)
    spec = _spec(granularity="sentence", n_shots=0)
    text = translate_pair(fixture_corpus, fixture_corpus.pair("st-brook", 2), spec, judge)
    assert text  # joined sentence translations


def test_split_sentences():
    parts = split_sentences("One sentence. Two! Three? And a tail")
    assert parts == ["One sentence.", "Two!", "Three?", "And a tail"]


def test_translation_uses_backend_default_temperature(tmp_path, fixture_corpus):
    """The stage sends no temperature, whatever --temperature says."""
    summary, _ = _translate_stage(tmp_path, TRANSLATE_SCRIPT, "--shots", "0", "--temperature", "0.7")
    entries = list(cache_entries(tmp_path / "out" / "judge_cache").values())
    assert len(entries) == summary["backend_calls"] == fixture_corpus.n_paragraphs
    assert all(e["request"]["temperature"] is None for e in entries)


def test_spec_validation():
    with pytest.raises(ValueError):
        TranslationPromptSpec(granularity="word")
    with pytest.raises(ValueError):
        TranslationPromptSpec(n_shots=-1)
    assert _spec().fingerprint() != _spec(n_shots=3).fingerprint()


def test_translate_failure_isolation(tmp_path, fixture_corpus):
    # script only answers prompts for st-arbor sources; st-brook misses
    script = {
        "rules": [
            {"contains": "orchard", "response": "ok"},
            {"contains": "lantern", "response": "ok"},
            {"contains": "gate", "response": "ok"},
            {"contains": "apples", "response": "ok"},
            {"contains": "jars", "response": "ok"},
        ]
    }
    summary, path = _translate_stage(tmp_path, script, "--shots", "0")
    failures = summary["failures"]
    assert len(failures) == 5
    assert all(f["story_id"] == "st-brook" for f in failures)
    assert all(f["error"] == "MockScriptMiss" for f in failures)
    assert len(load_candidates(path, fixture_corpus).translations) == 5
