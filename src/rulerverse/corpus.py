"""Load, validate, sample, and serialize paragraph-aligned story corpora.

File formats (all UTF-8, line-delimited JSON):
  paragraphs: {"story_id", "index", "source_text", "references": [...], "has_dialogue"?}
  stories:    {"story_id", "summary", "title"?, "author"?}  (title and author unused)
  candidates: {"system_id", "story_id", "index", "text"}
              (optional first line {"_provenance": {...}})
  annotations:{"rater_id", "channel", "story_id", "index", "system_id",
               "question_id"?, "score"}
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import socket
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import (
    CorpusFormatError,
    DanglingAnnotation,
    DuplicateItem,
    EmptyText,
    MissingReference,
    NonContiguousIndex,
    SamplingError,
    UnknownItem,
)
from .scales import RULER_SCALE, VERSE_SCALE, ScoreScale

log = logging.getLogger(__name__)

VERSE_CHANNEL = "verse"
# the score scale of each annotation channel: the four RULER criteria, then VERSE
CHANNEL_SCALES = {"honorifics": RULER_SCALE, "lexical": RULER_SCALE, "syntax": RULER_SCALE,
                  "content": RULER_SCALE, VERSE_CHANNEL: VERSE_SCALE}


@dataclass(frozen=True)
class ParagraphPair:
    """One aligned source paragraph with at least one reference translation."""

    story_id: str
    index: int
    source_text: str
    references: tuple[str, ...]
    has_dialogue: bool | None = None

    def reference(self, index: int) -> str:
        """The reference translation at `index`; MissingReference past the last one."""
        if index >= len(self.references):
            raise MissingReference(
                f"({self.story_id!r}, {self.index}) has {len(self.references)} "
                f"references, index {index} requested"
            )
        return self.references[index]


@dataclass
class Story:
    story_id: str
    summary: str = ""
    paragraphs: list[ParagraphPair] = field(default_factory=list)


@dataclass
class Corpus:
    """Validated, read-only collection of stories; safe to share across workers."""

    stories: dict[str, Story]

    def __post_init__(self):
        self._by_key: dict[tuple[str, int], ParagraphPair] = {
            (p.story_id, p.index): p
            for story in self.stories.values()
            for p in story.paragraphs
        }

    @property
    def n_stories(self) -> int:
        return len(self.stories)

    @property
    def n_paragraphs(self) -> int:
        return len(self._by_key)

    def story_ids(self) -> list[str]:
        return list(self.stories)

    def story(self, story_id: str) -> Story:
        try:
            return self.stories[story_id]
        except KeyError:
            raise UnknownItem(f"unknown story_id {story_id!r}") from None

    def pair(self, story_id: str, index: int) -> ParagraphPair:
        try:
            return self._by_key[(story_id, index)]
        except KeyError:
            raise UnknownItem(f"no paragraph ({story_id!r}, {index})") from None

    def has_pair(self, story_id: str, index: int) -> bool:
        return (story_id, index) in self._by_key

    def pairs(self) -> Iterator[ParagraphPair]:
        """All paragraphs in story order, then index order."""
        for story in self.stories.values():
            yield from story.paragraphs


@dataclass
class CandidateSet:
    """One translation system's candidate texts, keyed by (story_id, index)."""

    system_id: str
    translations: dict[tuple[str, int], str]
    provenance: dict[str, Any] = field(default_factory=dict)

    def coverage(self, corpus: Corpus) -> float:
        if corpus.n_paragraphs == 0:
            return 0.0
        return len(self.translations) / corpus.n_paragraphs


# -- line-delimited record helpers --

_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path: Path | str) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs, skipping blank lines."""
    with Path(path).open("rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                s = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None
            if not s:
                continue
            # a stripped line is one JSON value exactly when raw_decode ends at
            # its end; on any fault json.loads gives the message
            try:
                record, end = _raw_decode(s)
                if end != len(s):
                    raise ValueError
            except ValueError:
                try:
                    record = json.loads(s)
                except json.JSONDecodeError as exc:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise CorpusFormatError(f"{path}:{lineno}: record must be a JSON object")
            if "\\" in s and ("\\ud" in s or "\\uD" in s):  # json reads "\\ud800" as a lone surrogate
                try:
                    json.dumps(record, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:
                    raise CorpusFormatError(f"{path}:{lineno}: lone surrogate escape, not UTF-8") from None
            yield lineno, record


def read_json(path: Path | str, raw: bytes | None = None) -> dict:
    """The JSON object that the file at `path` holds, or `raw`, its bytes, if given."""
    try:
        text = (Path(path).read_bytes() if raw is None else raw).decode("utf-8")
        data = json.loads(text)
        if "\\ud" in text or "\\uD" in text:  # no lone surrogate, as above
            json.dumps(data, ensure_ascii=False).encode("utf-8")
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise CorpusFormatError(f"{path}: must hold a JSON object")
    return data


def write_atomic(path: Path | str, data: str | bytes) -> None:
    """Replace `path` with `data` through a temporary file and a rename, so no
    reader ever sees a partial file.

    A new file gets mode 0o666 less the umask.  Each host, process and thread
    writes its own temporary file, `<name>.<host>.<pid>.<tid>.tmp`, so
    concurrent writers of one path never interfere.  A write first removes the
    temporary files of `path` that dead writers on this host left behind; this
    assumes that the writers on one host name share one process-id namespace.
    """
    path = Path(path)
    prefix = f"{path.name}.{_HOST}."
    try:
        names = os.listdir(path.parent)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = []
    for name in names:
        if name.startswith(prefix) and name.endswith(".tmp"):
            pid, _, tid = name[len(prefix):-len(".tmp")].partition(".")
            if pid.isdigit() and tid.isdigit() and _dead(int(pid)):
                (path.parent / name).unlink(missing_ok=True)
    tmp = path.with_name(f"{prefix}{os.getpid()}.{threading.get_ident()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_HOST = socket.gethostname()


def _dead(pid: int) -> bool:
    """Whether no process runs under `pid`."""
    if os.name != "posix":  # there is no signal that only tests a process
        return False
    try:
        os.kill(pid, 0)
    except (OSError, OverflowError) as exc:  # EPERM: a process of another user
        return isinstance(exc, ProcessLookupError)
    return False


def write_jsonl(path: Path | str, records: Iterable[dict]) -> None:
    write_atomic(path, "".join(
        json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n" for record in records
    ))


def _require(record: dict, key: str, where: str) -> Any:
    if key not in record:
        raise CorpusFormatError(f"{where}: missing field {key!r}")
    return record[key]


def _identifier(record: dict, key: str, where: str) -> str:
    """The record's `key` field, checked to be a nonempty string."""
    value = record.get(key)
    if isinstance(value, str) and value:
        return value
    _require(record, key, where)
    raise CorpusFormatError(f"{where}: {key} must be a nonempty string")


def _score(value: Any, scale: ScoreScale, where: str, what: str = "score") -> int:
    """`value`, checked to be an integer on `scale`."""
    if not isinstance(value, int) or isinstance(value, bool) or not scale.contains(value):
        raise CorpusFormatError(
            f"{where}: {what} must be an integer in {scale.min}..{scale.max}, got {value!r}")
    return value


def _item_key(record: dict, where: str) -> tuple[str, int]:
    """The record's checked (story_id, index)."""
    story_id = _identifier(record, "story_id", where)
    index = _require(record, "index", where)
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise CorpusFormatError(f"{where}: index must be a non-negative integer")
    return story_id, index


def _nonempty_text(value: Any, what: str, where: str) -> str:
    if not isinstance(value, str):
        raise CorpusFormatError(f"{where}: {what} must be a string")
    if not value.strip():
        raise EmptyText(f"{where}: {what} is empty")
    return value


# -- loading --

def load_corpus(paragraphs_path: Path | str, stories_path: Path | str | None = None) -> Corpus:
    """Load and validate a paragraph file plus optional story metadata file."""
    by_story: dict[str, list[ParagraphPair]] = {}
    seen: set[tuple[str, int]] = set()
    for lineno, record in read_jsonl(paragraphs_path):
        where = f"{paragraphs_path}:{lineno}"
        story_id, index = key = _item_key(record, where)
        source = _nonempty_text(_require(record, "source_text", where), "source_text", where)
        refs = _require(record, "references", where)
        if not isinstance(refs, list) or len(refs) == 0:
            raise CorpusFormatError(f"{where}: references must be a nonempty list")
        references = tuple(
            _nonempty_text(r, f"references[{i}]", where) for i, r in enumerate(refs)
        )
        has_dialogue = record.get("has_dialogue")
        if has_dialogue is not None and not isinstance(has_dialogue, bool):
            raise CorpusFormatError(f"{where}: has_dialogue must be a boolean")
        if key in seen:
            raise DuplicateItem(f"{where}: duplicate paragraph ({story_id!r}, {index})")
        seen.add(key)
        by_story.setdefault(story_id, []).append(
            ParagraphPair(story_id, index, source, references, has_dialogue)
        )

    stories: dict[str, Story] = {}
    for story_id, paras in by_story.items():
        paras.sort(key=lambda p: p.index)
        for expected, p in enumerate(paras):
            if p.index != expected:
                raise NonContiguousIndex(
                    f"story {story_id!r}: expected index {expected}, found {p.index}"
                )
        stories[story_id] = Story(story_id=story_id, paragraphs=paras)

    if stories_path is not None:
        for lineno, record in read_jsonl(stories_path):
            where = f"{stories_path}:{lineno}"
            story_id = _identifier(record, "story_id", where)
            if story_id not in stories:
                raise UnknownItem(f"{where}: metadata for unknown story {story_id!r}")
            if "summary" not in record:
                raise CorpusFormatError(f"{where}: summary field must be present")
            stories[story_id].summary = str(record["summary"])

    corpus = Corpus(stories=stories)
    log.info("loaded corpus: %d stories, %d paragraphs", corpus.n_stories, corpus.n_paragraphs)
    return corpus


def load_candidates(path: Path | str, corpus: Corpus) -> CandidateSet:
    """Load one system's candidate file; every key must resolve to a corpus pair."""
    system_id: str | None = None
    translations: dict[tuple[str, int], str] = {}
    provenance: dict[str, Any] = {}
    for lineno, record in read_jsonl(path):
        where = f"{path}:{lineno}"
        if "_provenance" in record:
            provenance = record["_provenance"]
            if not isinstance(provenance, dict):
                raise CorpusFormatError(f"{where}: _provenance must be an object")
            continue
        sid = _identifier(record, "system_id", where)
        if system_id is None:
            system_id = sid
        elif sid != system_id:
            raise CorpusFormatError(
                f"{where}: mixed system ids in one candidate file ({system_id!r} vs {sid!r})"
            )
        story_id, index = key = _item_key(record, where)
        if not corpus.has_pair(story_id, index):
            raise UnknownItem(f"{where}: candidate for unknown paragraph ({story_id!r}, {index})")
        text = _nonempty_text(_require(record, "text", where), "text", where)
        if key in translations:
            raise DuplicateItem(f"{where}: duplicate candidate for ({story_id!r}, {index})")
        translations[key] = text
    if system_id is None:
        raise CorpusFormatError(f"{path}: no candidate records found")
    cands = CandidateSet(system_id=system_id, translations=translations, provenance=provenance)
    log.info(
        "loaded candidates for %s: %d items, coverage %.3f",
        system_id, len(translations), cands.coverage(corpus),
    )
    return cands


def save_candidates(cands: CandidateSet, path: Path | str) -> None:
    records: list[dict] = []
    if cands.provenance:
        records.append({"_provenance": cands.provenance})
    for (story_id, index), text in sorted(cands.translations.items()):
        records.append(
            {"system_id": cands.system_id, "story_id": story_id, "index": index, "text": text}
        )
    write_jsonl(path, records)


def _annotation(record: dict, corpus: Corpus, where: str) -> tuple[str, str, str, int]:
    """The record's checked (channel, rater_id, item_id, score)."""
    rater_id = _identifier(record, "rater_id", where)
    channel = _require(record, "channel", where)
    if not isinstance(channel, str) or channel not in CHANNEL_SCALES:
        raise CorpusFormatError(f"{where}: unknown channel {channel!r}")
    score = _score(_require(record, "score", where), CHANNEL_SCALES[channel], where)
    system_id = _identifier(record, "system_id", where)
    if channel == VERSE_CHANNEL:
        item_id = f"{_identifier(record, 'question_id', where)}::{system_id}"
    else:
        story_id, index = _item_key(record, where)
        if not corpus.has_pair(story_id, index):
            raise DanglingAnnotation(
                f"{where}: annotation for unknown paragraph ({story_id!r}, {index})"
            )
        item_id = f"{story_id}::{index}::{system_id}"
    return channel, rater_id, item_id, score


def load_annotations(path: Path | str, corpus: Corpus) -> dict[str, dict[str, dict[str, int]]]:
    """Scores by channel, rater and item id, rejecting dangling, duplicate or
    out-of-range entries.  The item id aligns raters for agreement statistics:
    `question_id::system_id` for VERSE, `story_id::index::system_id` otherwise."""
    scores: dict[str, dict[str, dict[str, int]]] = {}
    for lineno, record in read_jsonl(path):
        # a good record passes these inline tests; any other goes through
        # `_annotation`, which raises the error that names its line
        get = record.get
        rater_id, channel, score, system_id = (
            get("rater_id"), get("channel"), get("score"), get("system_id"))
        scale = CHANNEL_SCALES.get(channel) if type(channel) is str else None
        item_id = None
        if (type(rater_id) is str and rater_id and type(system_id) is str and system_id
                and scale is not None and type(score) is int
                and scale.min <= score <= scale.max):
            if channel == VERSE_CHANNEL:
                question_id = get("question_id")
                if type(question_id) is str and question_id:
                    item_id = f"{question_id}::{system_id}"
            else:
                story_id, index = get("story_id"), get("index")
                if (type(story_id) is str and story_id and type(index) is int and index >= 0
                        and corpus.has_pair(story_id, index)):
                    item_id = f"{story_id}::{index}::{system_id}"
        if item_id is None:
            channel, rater_id, item_id, score = _annotation(record, corpus, f"{path}:{lineno}")
        rated = scores.setdefault(channel, {}).setdefault(rater_id, {})
        if item_id in rated:
            raise DuplicateItem(
                f"{path}:{lineno}: duplicate annotation for {(rater_id, channel, item_id)}")
        rated[item_id] = score
    return scores


# -- seeded sampling --

def stable_rank(seed: int, key: str) -> int:
    """Deterministic 64-bit rank independent of platform and interpreter."""
    digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


@dataclass(frozen=True)
class SampleItem:
    story_id: str
    index: int
    system_id: str | None = None
    question_ids: tuple[str, ...] = ()


@dataclass
class SampleManifest:
    seed: int
    n_per_story: int
    q_per_item: int
    items: list[SampleItem]

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_questions(self) -> int:
        return sum(len(it.question_ids) for it in self.items)

    @classmethod
    def from_dict(cls, data: dict, where: str) -> "SampleManifest":
        items = _require(data, "items", where)
        if not isinstance(items, list) or not all(isinstance(d, dict) for d in items):
            raise CorpusFormatError(f"{where}: items must be a list of objects")
        checked = []
        for i, d in enumerate(items):
            at = f"{where}: items[{i}]"
            system_id, question_ids = d.get("system_id"), d.get("question_ids", [])
            if system_id is not None and not isinstance(system_id, str):
                raise CorpusFormatError(f"{at}: system_id must be null or a string")
            if not isinstance(question_ids, list) or not all(
                    isinstance(q, str) for q in question_ids):
                raise CorpusFormatError(f"{at}: question_ids must be a list of strings")
            checked.append(SampleItem(*_item_key(d, at), system_id, tuple(question_ids)))
        return cls(
            seed=_require(data, "seed", where),
            n_per_story=_require(data, "n_per_story", where),
            q_per_item=_require(data, "q_per_item", where),
            items=checked,
        )


def sample_items(
    corpus: Corpus,
    story_ids: Iterable[str],
    n_per_story: int,
    q_per_item: int,
    seed: int,
    questions: Iterable[Any] | None = None,
    systems: Iterable[str] | None = None,
) -> SampleManifest:
    """Draw a reproducible evaluation sample.

    Paragraphs are ranked by sha256(f"{seed}:{story_id}:{index}") and the
    n_per_story smallest ranks are taken per story, so the manifest is a pure
    function of (corpus, arguments, seed) on any machine.  When q_per_item > 0
    a question bank must be supplied; q_per_item question ids are drawn per
    selected paragraph the same way.  When `systems` is given, each item is
    deterministically assigned one system id.
    """
    story_ids = list(story_ids)
    for sid in story_ids:
        corpus.story(sid)

    q_by_key: dict[tuple[str, int], list[str]] = {}
    if q_per_item > 0:
        if questions is None:
            raise SamplingError("q_per_item > 0 requires a question bank")
        for q in questions:
            q_by_key.setdefault((q.story_id, q.index), []).append(q.question_id)

    system_list = list(systems) if systems is not None else None
    items: list[SampleItem] = []
    for sid in story_ids:
        paras = corpus.story(sid).paragraphs
        if len(paras) < n_per_story:
            raise SamplingError(
                f"story {sid!r} has {len(paras)} paragraphs, need {n_per_story}"
            )
        chosen = sorted(paras, key=lambda p: stable_rank(seed, f"{p.story_id}:{p.index}"))
        chosen = sorted(chosen[:n_per_story], key=lambda p: p.index)
        for p in chosen:
            qids: tuple[str, ...] = ()
            if q_per_item > 0:
                pool = q_by_key.get((p.story_id, p.index), [])
                if len(pool) < q_per_item:
                    raise SamplingError(
                        f"paragraph ({p.story_id!r}, {p.index}) has {len(pool)} "
                        f"questions, need {q_per_item}"
                    )
                picked = sorted(pool, key=lambda qid: stable_rank(seed, qid))[:q_per_item]
                qids = tuple(sorted(picked))
            system_id = None
            if system_list:
                pick = stable_rank(seed, f"{p.story_id}:{p.index}:system") % len(system_list)
                system_id = system_list[pick]
            items.append(SampleItem(p.story_id, p.index, system_id, qids))
    return SampleManifest(seed=seed, n_per_story=n_per_story, q_per_item=q_per_item, items=items)
