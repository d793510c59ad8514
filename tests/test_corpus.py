from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, write_synthetic_corpus
from oracles import load_annotations_oracle
from rulerverse.corpus import (
    Corpus,
    ParagraphPair,
    Story,
    load_annotations,
    load_candidates,
    load_corpus,
    sample_items,
    save_candidates,
    write_atomic,
)
from rulerverse.errors import (
    CorpusFormatError,
    DanglingAnnotation,
    DuplicateItem,
    EmptyText,
    NonContiguousIndex,
    SamplingError,
    UnknownItem,
)


def _write_lines(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


def _save_corpus(corpus, paragraphs_path, stories_path):
    """Write `corpus` in the two file formats that load_corpus reads."""
    _write_lines(paragraphs_path, [
        {"story_id": p.story_id, "index": p.index, "source_text": p.source_text,
         "references": list(p.references),
         **({} if p.has_dialogue is None else {"has_dialogue": p.has_dialogue})}
        for p in corpus.pairs()])
    _write_lines(stories_path, [{"story_id": s.story_id, "summary": s.summary}
                                for s in corpus.stories.values()])


def test_load_fixture_corpus_counts(fixture_corpus):
    assert fixture_corpus.n_stories == 2
    assert fixture_corpus.n_paragraphs == 10
    assert fixture_corpus.story("st-arbor").summary.startswith("An orchard keeper")
    pair = fixture_corpus.pair("st-arbor", 0)
    assert len(pair.references) == 2
    assert pair.has_dialogue is True


def test_two_paragraph_fixture(tmp_path):
    path = write_synthetic_corpus(tmp_path / "c.jsonl", 1, 2)
    corpus = load_corpus(path)
    assert corpus.n_stories == 1
    assert corpus.n_paragraphs == 2


def test_non_contiguous_indices_rejected(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        [
            {"story_id": "s", "index": 0, "source_text": "a", "references": ["b"]},
            {"story_id": "s", "index": 2, "source_text": "c", "references": ["d"]},
        ],
    )
    with pytest.raises(NonContiguousIndex, match="expected index 1"):
        load_corpus(path)


def test_duplicate_pair_rejected(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        [
            {"story_id": "s", "index": 0, "source_text": "a", "references": ["b"]},
            {"story_id": "s", "index": 0, "source_text": "c", "references": ["d"]},
        ],
    )
    with pytest.raises(DuplicateItem):
        load_corpus(path)


def test_empty_texts_rejected(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        [{"story_id": "s", "index": 0, "source_text": "  ", "references": ["b"]}],
    )
    with pytest.raises(EmptyText):
        load_corpus(path)
    path2 = _write_lines(
        tmp_path / "c2.jsonl",
        [{"story_id": "s", "index": 0, "source_text": "a", "references": [""]}],
    )
    with pytest.raises(EmptyText):
        load_corpus(path2)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        json.dumps({"story_id": "s", "index": 0, "source_text": "a", "references": ["b"]})
        + "\nnot json\n",
        encoding="utf-8",
    )
    with pytest.raises(CorpusFormatError, match=":2:"):
        load_corpus(path)


def test_undecodable_line_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    good = json.dumps({"story_id": "s", "index": 0, "source_text": "a", "references": ["번역"]},
                      ensure_ascii=False)
    path.write_bytes(good.encode("utf-8") + b'\n{"story_id": "s", "index": 1, "source_text": "\xff"}\n')
    with pytest.raises(CorpusFormatError, match=f"{path}:2: not UTF-8"):
        load_corpus(path)


def test_missing_field_reported(tmp_path):
    path = _write_lines(tmp_path / "c.jsonl", [{"story_id": "s", "index": 0}])
    with pytest.raises(CorpusFormatError, match="source_text"):
        load_corpus(path)


def test_story_metadata_for_unknown_story_rejected(tmp_path):
    corpus_path = write_synthetic_corpus(tmp_path / "c.jsonl", 1, 1)
    stories_path = _write_lines(
        tmp_path / "s.jsonl",
        [{"story_id": "ghost", "title": "t", "author": "a", "summary": ""}],
    )
    with pytest.raises(UnknownItem):
        load_corpus(corpus_path, stories_path)


def test_story_metadata_requires_summary_field(tmp_path):
    corpus_path = write_synthetic_corpus(tmp_path / "c.jsonl", 1, 1)
    stories_path = _write_lines(
        tmp_path / "s.jsonl", [{"story_id": "story00", "title": "t", "author": "a"}]
    )
    with pytest.raises(CorpusFormatError, match="summary"):
        load_corpus(corpus_path, stories_path)


def test_full_scale_corpus_shape(tmp_path):
    # 15 stories whose paragraph counts total 725
    counts = [26, 56, 14, 44, 84, 29, 36, 84, 107, 14, 34, 16, 52, 90, 39]
    path = write_synthetic_corpus(tmp_path / "c.jsonl", 15, counts)
    corpus = load_corpus(path)
    assert corpus.n_stories == 15
    assert corpus.n_paragraphs == 725


def test_round_trip_fixture(tmp_path, fixture_corpus):
    p = tmp_path / "paragraphs.jsonl"
    s = tmp_path / "stories.jsonl"
    _save_corpus(fixture_corpus, p, s)
    again = load_corpus(p, s)
    assert again.n_stories == fixture_corpus.n_stories
    assert list(again.pairs()) == list(fixture_corpus.pairs())
    assert again.story("st-brook").summary == fixture_corpus.story("st-brook").summary


nonblank = st.text(min_size=1, max_size=30).filter(lambda t: bool(t.strip()))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(
                st.tuples(nonblank, st.lists(nonblank, min_size=1, max_size=2),
                          st.one_of(st.none(), st.booleans())),
                min_size=1,
                max_size=4,
            ),
            nonblank,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_round_trip_property(tmp_path_factory, story_specs):
    stories = {}
    for s, (paragraphs, summary) in enumerate(story_specs):
        sid = f"story{s}"
        pairs = [
            ParagraphPair(sid, i, src, tuple(refs), dlg)
            for i, (src, refs, dlg) in enumerate(paragraphs)
        ]
        stories[sid] = Story(story_id=sid, summary=summary, paragraphs=pairs)
    corpus = Corpus(stories=stories)
    tmp = tmp_path_factory.mktemp("rt")
    _save_corpus(corpus, tmp / "p.jsonl", tmp / "s.jsonl")
    again = load_corpus(tmp / "p.jsonl", tmp / "s.jsonl")
    assert list(again.pairs()) == list(corpus.pairs())
    for sid in stories:
        assert again.story(sid).summary == stories[sid].summary



def test_concurrent_writers_of_one_path_never_interfere(tmp_path):
    """Eight threads write one file 50 times each, racing; every write completes.
    The first write removes the temporary file a dead writer of this host left,
    and leaves those of a running writer, of a pid no process can have, of
    another host and of another file."""
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    host = socket.gethostname()
    left = [f"out.json.{host}.{dead.pid}.1.tmp", f"out.json.{host}.{os.getppid()}.1.tmp",
            f"out.json.{host}.{10 ** 20}.1.tmp", f"out.json.other-{host}.{dead.pid}.1.tmp",
            f"other.json.{host}.{dead.pid}.1.tmp"]
    for name in left:
        (tmp_path / name).write_text("{", encoding="utf-8")
    errors: list[BaseException] = []
    start = threading.Barrier(8)

    def writer(k: int) -> None:
        try:
            start.wait(timeout=60)
            for i in range(50):
                write_atomic(tmp_path / "out.json", f"{k}:{i}")
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["out.json", *left[1:]])
    assert (tmp_path / "out.json").read_text(encoding="utf-8").endswith(":49")


# -- candidates --

def test_load_candidates_full_coverage(tmp_path, fixture_corpus):
    cands = load_candidates(FIXTURES / "candidates_alpha.jsonl", fixture_corpus)
    assert cands.system_id == "alpha"
    assert cands.coverage(fixture_corpus) == pytest.approx(1.0)


def test_two_files_two_systems(fixture_corpus):
    a = load_candidates(FIXTURES / "candidates_alpha.jsonl", fixture_corpus)
    b = load_candidates(FIXTURES / "candidates_beta.jsonl", fixture_corpus)
    assert {a.system_id, b.system_id} == {"alpha", "beta"}


def test_candidate_unknown_index_rejected(tmp_path, fixture_corpus):
    path = _write_lines(
        tmp_path / "cand.jsonl",
        [{"system_id": "x", "story_id": "st-arbor", "index": 99, "text": "t"}],
    )
    with pytest.raises(UnknownItem):
        load_candidates(path, fixture_corpus)


def test_candidate_empty_text_rejected(tmp_path, fixture_corpus):
    path = _write_lines(
        tmp_path / "cand.jsonl",
        [{"system_id": "x", "story_id": "st-arbor", "index": 0, "text": " "}],
    )
    with pytest.raises(EmptyText):
        load_candidates(path, fixture_corpus)


def test_candidate_mixed_systems_rejected(tmp_path, fixture_corpus):
    path = _write_lines(
        tmp_path / "cand.jsonl",
        [
            {"system_id": "x", "story_id": "st-arbor", "index": 0, "text": "t"},
            {"system_id": "y", "story_id": "st-arbor", "index": 1, "text": "t"},
        ],
    )
    with pytest.raises(CorpusFormatError, match="mixed system ids"):
        load_candidates(path, fixture_corpus)


def test_candidate_provenance_round_trip(tmp_path, fixture_corpus):
    cands = load_candidates(FIXTURES / "candidates_alpha.jsonl", fixture_corpus)
    cands.provenance = {"model_id": "m", "spec_fingerprint": "abc"}
    out = tmp_path / "cand.jsonl"
    save_candidates(cands, out)
    again = load_candidates(out, fixture_corpus)
    assert again.provenance == cands.provenance
    assert again.translations == cands.translations


# -- annotations --

def test_load_fixture_annotations(fixture_corpus):
    scores = load_annotations(FIXTURES / "annotations.jsonl", fixture_corpus)
    assert sum(len(rated) for raters in scores.values() for rated in raters.values()) == 78
    assert set(scores) == {"honorifics", "lexical", "syntax", "content", "verse"}


@pytest.mark.parametrize("loader, record", [
    pytest.param("candidates", {"system_id": "x", "story_id": ["st-arbor"], "index": 0,
                                "text": "t"}, id="candidates-list-story-id"),
    pytest.param("candidates", {"system_id": "x", "story_id": "st-arbor", "index": True,
                                "text": "t"}, id="candidates-bool-index"),
    pytest.param("candidates", {"_provenance": 5}, id="candidates-provenance-not-object"),
    pytest.param("annotations", {"rater_id": "r", "channel": "syntax", "story_id": ["st-arbor"],
                                 "index": 0, "system_id": "alpha", "score": 3},
                 id="annotations-list-story-id"),
    pytest.param("stories", {"story_id": ["st-arbor"], "summary": ""}, id="stories-list-story-id"),
])
def test_malformed_record_key_rejected(tmp_path, fixture_corpus, loader, record):
    path = _write_lines(tmp_path / "records.jsonl", [record])
    with pytest.raises(CorpusFormatError, match="records.jsonl:1: "):
        if loader == "candidates":
            load_candidates(path, fixture_corpus)
        elif loader == "annotations":
            load_annotations(path, fixture_corpus)
        else:
            load_corpus(FIXTURES / "corpus.jsonl", path)


def test_annotation_dangling_paragraph_rejected(tmp_path, fixture_corpus):
    path = _write_lines(
        tmp_path / "ann.jsonl",
        [{"rater_id": "r", "channel": "syntax", "story_id": "st-arbor", "index": 77,
          "system_id": "alpha", "score": 3}],
    )
    with pytest.raises(DanglingAnnotation):
        load_annotations(path, fixture_corpus)


def test_annotation_score_ranges(tmp_path, fixture_corpus):
    bad_ruler = _write_lines(
        tmp_path / "a.jsonl",
        [{"rater_id": "r", "channel": "syntax", "story_id": "st-arbor", "index": 0,
          "system_id": "alpha", "score": 6}],
    )
    with pytest.raises(CorpusFormatError, match=r"a\.jsonl:1: score must be an integer in 1\.\.5"):
        load_annotations(bad_ruler, fixture_corpus)
    bad_verse = _write_lines(
        tmp_path / "b.jsonl",
        [{"rater_id": "r", "channel": "verse", "question_id": "q", "system_id": "alpha",
          "score": 4}],
    )
    with pytest.raises(CorpusFormatError, match=r"b\.jsonl:1: score must be an integer in 1\.\.3"):
        load_annotations(bad_verse, fixture_corpus)



_ANNOTATION = {"rater_id": "r1", "channel": "syntax", "story_id": "st-arbor", "index": 0,
               "system_id": "alpha", "score": 3}
_VERSE_ANNOTATION = {"rater_id": "r1", "channel": "verse", "question_id": "q1",
                     "system_id": "alpha", "score": 2}


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize("line, error, message", [
    pytest.param(json.dumps(_without(_ANNOTATION, "rater_id")), CorpusFormatError,
                 "{path}:2: missing field 'rater_id'", id="missing-rater-id"),
    pytest.param(json.dumps({**_ANNOTATION, "rater_id": ""}), CorpusFormatError,
                 "{path}:2: rater_id must be a nonempty string", id="empty-rater-id"),
    pytest.param(json.dumps(_without(_ANNOTATION, "channel")), CorpusFormatError,
                 "{path}:2: missing field 'channel'", id="missing-channel"),
    pytest.param(json.dumps({**_ANNOTATION, "channel": ["syntax"]}), CorpusFormatError,
                 "{path}:2: unknown channel ['syntax']", id="list-channel"),
    pytest.param(json.dumps(_without(_ANNOTATION, "score")), CorpusFormatError,
                 "{path}:2: missing field 'score'", id="missing-score"),
    pytest.param(json.dumps({**_ANNOTATION, "score": True}), CorpusFormatError,
                 "{path}:2: score must be an integer in 1..5, got True", id="score-true"),
    pytest.param(json.dumps({**_ANNOTATION, "score": 3.0}), CorpusFormatError,
                 "{path}:2: score must be an integer in 1..5, got 3.0", id="score-float"),
    pytest.param(json.dumps({**_ANNOTATION, "score": 6}), CorpusFormatError,
                 "{path}:2: score must be an integer in 1..5, got 6", id="score-above-ruler"),
    pytest.param(json.dumps({**_VERSE_ANNOTATION, "score": 4}), CorpusFormatError,
                 "{path}:2: score must be an integer in 1..3, got 4", id="score-above-verse"),
    pytest.param(json.dumps(_without(_ANNOTATION, "system_id")), CorpusFormatError,
                 "{path}:2: missing field 'system_id'", id="missing-system-id"),
    pytest.param(json.dumps({**_VERSE_ANNOTATION, "question_id": 1}), CorpusFormatError,
                 "{path}:2: question_id must be a nonempty string", id="question-id-int"),
    pytest.param(json.dumps(_without(_ANNOTATION, "index")), CorpusFormatError,
                 "{path}:2: missing field 'index'", id="missing-index"),
    pytest.param(json.dumps({**_ANNOTATION, "index": True}), CorpusFormatError,
                 "{path}:2: index must be a non-negative integer", id="index-true"),
    pytest.param(json.dumps({**_ANNOTATION, "index": 77}), DanglingAnnotation,
                 "{path}:2: annotation for unknown paragraph ('st-arbor', 77)", id="dangling"),
    pytest.param(json.dumps(_ANNOTATION), DuplicateItem,
                 "{path}:2: duplicate annotation for ('r1', 'syntax', 'st-arbor::0::alpha')",
                 id="duplicate"),
    pytest.param(json.dumps({**_ANNOTATION, "index": 1}) + " x", CorpusFormatError,
                 "{path}:2: invalid JSON (Extra data)", id="trailing-garbage"),
    pytest.param(json.dumps({**_ANNOTATION, "index": 1})[:-1] + ', "tags": [1\n2]}, '
                 + json.dumps({**_ANNOTATION, "index": 2}), CorpusFormatError,
                 "{path}:2: invalid JSON (Expecting ',' delimiter)", id="lines-valid-only-joined"),
    pytest.param("[1, 2]", CorpusFormatError, "{path}:2: record must be a JSON object",
                 id="not-an-object"),
    pytest.param("\ufeff" + json.dumps({**_ANNOTATION, "index": 1}), CorpusFormatError,
                 "{path}:2: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))",
                 id="byte-order-mark"),
])
def test_faulty_annotation_keeps_its_message(tmp_path, fixture_corpus, line, error, message):
    """A good record skips the checked path; a faulty one still gets its
    error, word for word, naming the line."""
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps(_ANNOTATION) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(error) as exc:
        load_annotations(path, fixture_corpus)
    assert str(exc.value) == message.format(path=path)


_DELETE = object()
_GOOD_ANNOTATIONS = [
    {"rater_id": rater_id, "system_id": "alpha", **item}
    for rater_id in ("r1", "r2")
    for item in ({"channel": "verse", "question_id": "q1", "score": 3},
                 {"channel": "verse", "question_id": "q2", "score": 1},
                 {"channel": "syntax", "story_id": "st-arbor", "index": 0, "score": 5},
                 {"channel": "honorifics", "story_id": "st-brook", "index": 4, "score": 1})]
# a field deleted or set to a wrong value, another channel, or a dangling index
_ANNOTATION_FAULTS = [
    (key, value)
    for key in ("rater_id", "channel", "score", "system_id", "question_id", "story_id", "index")
    for value in (_DELETE, None, True, 0, -1, 1.0, 6, "", ["r1"], {"a": 1})
] + [("channel", "bogus"), ("channel", "verse"), ("channel", "lexical"), ("index", 5), ("index", 77)]


def _annotation_text(lines) -> str:
    """One JSONL line per (good record, fault): the record as it is (fault None), the
    line before it again ("repeat"), or the record with that field deleted or set."""
    out: list[str] = []
    for record, fault in lines:
        if fault == "repeat" and out:
            out.append(out[-1])
            continue
        if isinstance(fault, tuple):
            key, value = fault
            record = {k: v for k, v in record.items() if k != key}
            if value is not _DELETE:
                record[key] = value
        out.append(json.dumps(record))
    return "".join(line + "\n" for line in out)


def _outcome(load, path, corpus):
    """What `load` returns, or the type and message of what it raises."""
    try:
        return load(path, corpus)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=800, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_GOOD_ANNOTATIONS),
                          st.sampled_from([None, "repeat", *_ANNOTATION_FAULTS])),
                min_size=1, max_size=4))
def test_one_check_path_matches_the_two_path_oracle(tmp_path_factory, lines):
    """The loader gives what the inline tests plus `_annotation` of the two-path loader
    gave: equal scores, or the same error word for word."""
    corpus = load_corpus(FIXTURES / "corpus.jsonl")
    path = tmp_path_factory.getbasetemp() / "two_path_oracle.jsonl"
    path.write_text(_annotation_text(lines), encoding="utf-8")
    assert _outcome(load_annotations, path, corpus) == _outcome(
        load_annotations_oracle, path, corpus)


def test_blank_lines_and_crlf_endings_are_accepted(tmp_path, fixture_corpus):
    lines = (FIXTURES / "annotations.jsonl").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "ann.jsonl"
    path.write_bytes(("\r\n".join(lines[:3] + ["", "  \t"] + lines[3:]) + "\r\n\r\n").encode())
    assert load_annotations(path, fixture_corpus) == load_annotations(
        FIXTURES / "annotations.jsonl", fixture_corpus)


# -- sampling --

def _bank_question(story_id, index, k):
    class Q:
        pass

    q = Q()
    q.story_id = story_id
    q.index = index
    q.question_id = f"{story_id}:{index}:q{k:02d}"
    return q


def test_sample_items_study_design(tmp_path):
    path = write_synthetic_corpus(tmp_path / "c.jsonl", 10, 25)
    corpus = load_corpus(path)
    bank = [
        _bank_question(p.story_id, p.index, k)
        for p in corpus.pairs()
        for k in range(10)
    ]
    manifest = sample_items(
        corpus, corpus.story_ids(), n_per_story=20, q_per_item=3, seed=7, questions=bank
    )
    assert manifest.n_items == 200
    assert manifest.n_questions == 600


def test_sample_items_deterministic(tmp_path):
    path = write_synthetic_corpus(tmp_path / "c.jsonl", 3, 8)
    corpus = load_corpus(path)
    a = sample_items(corpus, corpus.story_ids(), 4, 0, seed=42)
    b = sample_items(corpus, corpus.story_ids(), 4, 0, seed=42)
    c = sample_items(corpus, corpus.story_ids(), 4, 0, seed=43)
    assert a.items == b.items
    assert a.items != c.items  # overwhelmingly likely for this corpus size


def test_sample_items_too_few_paragraphs(tmp_path):
    path = write_synthetic_corpus(tmp_path / "c.jsonl", 1, 3)
    corpus = load_corpus(path)
    with pytest.raises(SamplingError):
        sample_items(corpus, corpus.story_ids(), 4, 0, seed=1)


def test_sample_items_requires_question_bank(tmp_path):
    path = write_synthetic_corpus(tmp_path / "c.jsonl", 1, 3)
    corpus = load_corpus(path)
    with pytest.raises(SamplingError):
        sample_items(corpus, corpus.story_ids(), 2, 3, seed=1)


def test_sample_items_assigns_systems(tmp_path):
    path = write_synthetic_corpus(tmp_path / "c.jsonl", 2, 6)
    corpus = load_corpus(path)
    manifest = sample_items(
        corpus, corpus.story_ids(), 5, 0, seed=3, systems=["sysA", "sysB"]
    )
    assert all(it.system_id in {"sysA", "sysB"} for it in manifest.items)
    again = sample_items(
        corpus, corpus.story_ids(), 5, 0, seed=3, systems=["sysA", "sysB"]
    )
    assert manifest.items == again.items
