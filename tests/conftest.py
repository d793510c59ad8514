from __future__ import annotations

import json
from pathlib import Path

import pytest

from rulerverse.corpus import Corpus, load_corpus
from rulerverse.judge import CompletionLog, Judge, JudgeConfig

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixture_corpus() -> Corpus:
    return load_corpus(FIXTURES / "corpus.jsonl", FIXTURES / "stories.jsonl")


def make_judge(
    tmp_path: Path,
    script: Path | str | dict = FIXTURES / "mock_script.json",
    **overrides,
) -> Judge:
    """Mock judge wired to a script file, dict, or path, caching under tmp_path."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    if isinstance(script, dict):
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script, ensure_ascii=False), encoding="utf-8")
    else:
        script_path = Path(script)
    config = JudgeConfig(
        backend="mock",
        model_id=overrides.pop("model_id", "mock-judge"),
        script_path=script_path,
        cache_dir=tmp_path / "cache",
        **overrides,
    )
    return Judge(config)


def cache_entries(cache_dir: Path) -> dict[str, dict]:
    """Every entry of the completion log in `cache_dir`, by cache key."""
    store = CompletionLog(cache_dir)
    return {key: store.get(key) for key in store.keys()}


@pytest.fixture
def mock_judge(tmp_path) -> Judge:
    return make_judge(tmp_path)


def write_synthetic_corpus(
    path: Path,
    n_stories: int,
    paragraphs_per_story,
    two_references: bool = False,
) -> Path:
    """Corpus file with generated text; paragraphs_per_story is an int or list."""
    if isinstance(paragraphs_per_story, int):
        counts = [paragraphs_per_story] * n_stories
    else:
        counts = list(paragraphs_per_story)
        assert len(counts) == n_stories
    with path.open("w", encoding="utf-8") as f:
        for s in range(n_stories):
            for i in range(counts[s]):
                refs = [f"ref {s}-{i}"]
                if two_references:
                    refs.append(f"alt ref {s}-{i}")
                record = {
                    "story_id": f"story{s:02d}",
                    "index": i,
                    "source_text": f"source text {s}-{i}",
                    "references": refs,
                    "has_dialogue": i % 2 == 0,
                }
                f.write(json.dumps(record) + "\n")
    return path
