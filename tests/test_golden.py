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

from conftest import FIXTURES, cache_entries
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
