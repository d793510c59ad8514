"""Golden values that must not move across refactors.

Cache keys depend on every byte of every prompt, and the option fingerprints
end up in artifacts, so a change to either silently orphans existing caches
and runs.  The pinned values were taken from the code as it stood before the
prompt renderer, the temperature handling and the fingerprints were merged;
change them only together with a deliberate break of existing caches.
"""
from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path

from conftest import FIXTURES, cache_entries, write_synthetic_corpus
from rulerverse.cli import main
from rulerverse.judge import cache_key
from rulerverse.ruler import PromptOptions
from rulerverse.translate import TranslationPromptSpec

# translation and a reprompted classification on top of the fixture script
EXTRA_RULES = [
    {"contains": "Translate the source passage", "response": "translated"},
    {"contains": ["Assign the verification question", "Your previous answer"],
     "response": "Overall Consistency and Cohesion"},
    {"contains": ["Assign the verification question", "rendered consistently"],
     "response": "Consistency"},
]

STAGES = (
    ["translate", "--bank-stories", "st-arbor", "st-brook", "--no-dialogue-mix"],
    ["ruler"],
    ["ruler", "--cot", "--no-rubric"],
    ["verse", "gen"],
    ["verse", "classify"],
    ["verse", "grade"],
    ["verse", "grade", "--cot", "--no-reference"],
)

CACHE_KEYS = 550
# Moved once on purpose, when the mock's keys took in its script's sha256; with
# that digest left out, the keys hash to the value pinned before the move.
CACHE_KEYS_SHA256 = "7ffd9310ec280d0adfc43e4cc14fa74929f9f4fe208cca06f65017b2db53d27f"


def test_cache_keys_of_every_judge_stage(tmp_path):
    script = json.loads((FIXTURES / "mock_script.json").read_text(encoding="utf-8"))
    script["rules"] = EXTRA_RULES + script["rules"]
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    flags = [
        "--corpus", str(FIXTURES / "corpus.jsonl"),
        "--stories", str(FIXTURES / "stories.jsonl"),
        "--candidates", str(FIXTURES / "candidates_alpha.jsonl"),
        str(FIXTURES / "candidates_beta.jsonl"),
        "--script", str(script_path),
        "--out", str(tmp_path / "out"),
        "--run-id", "golden",
    ]
    for argv in STAGES:
        assert main(argv + flags) == 0, argv
    names = sorted(cache_entries(tmp_path / "out" / "judge_cache"))
    digest = hashlib.sha256("\n".join(names).encode("ascii")).hexdigest()
    assert (len(names), digest) == (CACHE_KEYS, CACHE_KEYS_SHA256)


def test_live_cache_key():
    """Live keys never depend on a script; this one predates the script digest."""
    key = cache_key("gpt-judge", 0.0, "You are an evaluator.", "Rate this paragraph: 夜\n\nScore?")
    assert key == "3e4ad110649fa6b9e8b9cbbb3783b2232d5b645303445dd8dadb4d4edba4e03c"
    assert cache_key("gpt-judge", None, "sys", "user") == (
        "6e4cfb2c248192c623b007f2849f14aa0a6f8b6f45055677274fe58c40f2e485")


def test_option_fingerprints():
    assert PromptOptions().fingerprint() == "19fb5a8d4755"
    options = PromptOptions(use_cot=True, k_shot=5, include_reference=False,
                            include_rubric=False, reference_index=1)
    assert options.fingerprint() == "dd959e55d7fb"
    assert TranslationPromptSpec().fingerprint() == "b5eda29aaa6a"
    spec = TranslationPromptSpec(n_shots=2, include_summary=False, granularity="sentence",
                                 bank_story_ids=("b", "a"), require_dialogue_mix=False)
    assert spec.fingerprint() == "347b7b44ee2f"


# (files, sha256 over "name sha256" lines) of an `agree` run directory; taken
# from the code as it stood before the statistics moved to per-pair count tables
AGREE_FIXTURES = (25, "78ed04d10cc15a6a704233e220b04735faf194618eb2c470375ea013ae639416")
AGREE_LIKERT = (22, "820d949ac170dd87f5f5866eac5fb7f8653e6954954ae8d4dd9684e5bbdb771b")


def _run_digest(run_dir: Path) -> tuple[int, str]:
    """(files, sha256 over "name sha256" lines) of `run_dir`."""
    lines = [f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
             for path in sorted(run_dir.iterdir())]
    return len(lines), hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _agree_run(tmp_path: Path, monkeypatch, annotations: list[dict], model: list[dict]):
    """`agree` from tmp_path with relative paths, so the fingerprint, and with
    it every artifact, does not depend on where the test runs."""
    monkeypatch.chdir(tmp_path)
    for name, rows in (("annotations.jsonl", annotations), ("model.jsonl", model)):
        Path(name).write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    argv = ["agree", "--corpus", "corpus.jsonl", "--annotations", "annotations.jsonl",
            "--model-annotations", "model.jsonl", "--run-id", "golden"]
    assert main(argv) == 0
    return _run_digest(Path("out", "golden"))


def test_agree_artifacts_on_the_fixtures(tmp_path, monkeypatch):
    shutil.copy(FIXTURES / "corpus.jsonl", tmp_path / "corpus.jsonl")
    humans = [json.loads(line) for line in
              (FIXTURES / "annotations.jsonl").read_text(encoding="utf-8").splitlines() if line]
    model = [{"rater_id": "model-x", "channel": "honorifics", "story_id": "st-arbor",
              "index": i, "system_id": "alpha", "score": s}
             for i, s in enumerate([5, 4, 5, 3, 1])]
    assert _agree_run(tmp_path, monkeypatch, humans, model) == AGREE_FIXTURES


def _likert(rng: random.Random, truth: int, top: int, spread: int) -> int:
    return min(top, max(1, truth + rng.randint(-spread, spread)))


def test_agree_artifacts_on_a_seeded_likert_input(tmp_path, monkeypatch):
    """2,000 items per rater on a RULER channel and on VERSE: three humans, two
    models and heavy ties; the last human skips about one item in twenty."""
    write_synthetic_corpus(tmp_path / "corpus.jsonl", 20, 25)
    rng = random.Random(15)
    items = [(f"story{s:02d}", i, f"sys{k}") for s in range(20) for i in range(25) for k in range(4)]
    humans: list[dict] = []
    model: list[dict] = []
    for n, (story_id, index, system_id) in enumerate(items):
        truth = rng.randint(1, 5)
        for rater, spread in (("h1", 1), ("h2", 1), ("h3", 2), ("m1", 1), ("m2", 3)):
            if rater == "h3" and rng.random() < 0.05:
                continue
            rows = model if rater.startswith("m") else humans
            rows.append({"rater_id": rater, "channel": "syntax", "story_id": story_id,
                         "index": index, "system_id": system_id,
                         "score": _likert(rng, truth, 5, spread)})
            rows.append({"rater_id": rater, "channel": "verse", "question_id": f"q{n:04d}",
                         "system_id": system_id,
                         "score": _likert(rng, (truth + 1) // 2, 3, spread // 2)})
    assert _agree_run(tmp_path, monkeypatch, humans, model) == AGREE_LIKERT


# _run_digest of a run directory after translate, ruler, verse gen, classify and
# grade and `report --radar-per-story` on the fixtures; taken from the code as it
# stood before the stage decisions of cli.py were each moved to one place
PIPELINE_FIXTURES = (17, "b8f1fec8f2ca3843a4a8e95633650e0c3a1484496691bd69138547e1e14f26ae")


def test_pipeline_artifacts_on_the_fixtures(tmp_path, monkeypatch):
    """Every judge stage and `report` from tmp_path with relative paths, so
    the fingerprint, and with it every artifact, does not depend on where the
    test runs."""
    monkeypatch.chdir(tmp_path)
    inputs = ["corpus.jsonl", "stories.jsonl", "candidates_alpha.jsonl", "candidates_beta.jsonl"]
    for name in inputs:
        shutil.copy(FIXTURES / name, name)
    script = json.loads((FIXTURES / "mock_script.json").read_text(encoding="utf-8"))
    script["rules"] = EXTRA_RULES + script["rules"]
    Path("script.json").write_text(json.dumps(script), encoding="utf-8")
    flags = ["--corpus", "corpus.jsonl", "--stories", "stories.jsonl", "--candidates",
             *inputs[2:], "--script", "script.json", "--run-id", "golden"]
    for argv in (STAGES[0], ["ruler"], ["verse", "gen"], ["verse", "classify"],
                 ["verse", "grade"], ["report", "--radar-per-story"]):
        assert main(argv + flags) == 0, argv
    assert _run_digest(Path("out", "golden")) == PIPELINE_FIXTURES
