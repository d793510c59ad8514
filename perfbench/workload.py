"""Seeded inputs for the benchmark workloads and the checks of their outputs.

The generator draws a plan from the seed and writes inputs whose every
expected answer follows from that plan: the mock script and the loopback stub
both answer from it, and the checks below compare the program's artifacts
with values computed here, never with numbers the program computed itself.

Markers in double brackets tie prompts to plan entries: ``[[p03-07]]`` names
a paragraph, ``[[sys2]]`` a system, ``[[slot04]]`` a question's position in its
paragraph's list, ``[[topic5]]`` a question's planned category and
``[[q03-07-04]]`` one question. The closing brackets keep ``[[sys1]]`` from
matching inside ``[[sys10]]``.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

TRANSLATION = "번역된 문단입니다."
GRADE_TASK = "Judge whether the candidate translation satisfies"
CLASSIFY_TASK = "Assign the verification question"
REPROMPT_MARK = "Your previous answer"
GEN_TASK = "verification questions that a high-quality translation"
NOT_A_CATEGORY = "Miscellaneous Observations"

_WORDS = (
    "lantern river orchard ledger winter harbor mill keeper clerk festival "
    "moth shadow gate bell frost ember willow courtyard letter debt silence "
    "market brook kettle sparrow thread pavilion drum ink lacquer mountain "
    "bridge ferry oath rumor tide plum widow scholar magistrate servant "
    "cedar smoke threshold lamp quarrel promise shrine dawn dusk chest"
).split()
_QUESTION_STEMS = (
    "Does the translation keep the customs around the {} and the {}?",
    "Is the imagery of the {} against the {} preserved?",
    "Does the speaker keep a distinct voice when the {} meets the {}?",
    "Is the deference owed by the {} to the {} rendered in the address?",
    "Do the idioms about the {} and the {} read naturally?",
    "Are the unspoken implications of the {} and the {} kept subtle?",
    "Is the pacing of the scene with the {} and the {} preserved?",
    "Does the mood around the {} and the {} carry over?",
    "Are the {} and the {} named consistently across the passage?",
)


@dataclass(frozen=True)
class PipelineSize:
    stories: int
    paragraphs: int  # per story
    systems: int
    questions: int  # per paragraph
    reprompts: int  # questions whose first classification answer is invalid


@dataclass(frozen=True)
class AgreeSize:
    stories: int
    paragraphs: int  # per story
    systems: int
    questions: int  # verse questions per paragraph
    human: int
    model: int
    skip_share: float  # share of items the last human rater leaves unrated


PIPELINE = PipelineSize(stories=4, paragraphs=10, systems=3, questions=5, reprompts=4)
LIVE = PipelineSize(stories=2, paragraphs=5, systems=2, questions=3, reprompts=0)
AGREE = AgreeSize(stories=10, paragraphs=20, systems=3, questions=3, human=3, model=2,
                  skip_share=0.04)


def _rng(seed: int, *parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def _english(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _hangul(rng: random.Random, n: int) -> str:
    return " ".join(
        "".join(chr(0xAC00 + rng.randrange(11172)) for _ in range(rng.randint(2, 4)))
        for _ in range(n)
    )


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def _write_corpus(root: Path, seed: int, stories: int, paragraphs: int) -> list[list]:
    """Corpus and story files; returns [story_id, index, has_dialogue] rows.

    Every source text carries its paragraph marker, so no two prompts built
    from different paragraphs coincide.  The first two stories, the few-shot
    bank, hold both dialogue and narrative paragraphs.
    """
    rows, corpus, meta = [], [], []
    for s in range(stories):
        story_id = f"st{s:02d}"
        rng = _rng(seed, "story", s)
        meta.append({
            "story_id": story_id, "title": _english(rng, 3).title(),
            "author": "Bench Author", "summary": _english(rng, 24).capitalize() + ".",
        })
        for i in range(paragraphs):
            has_dialogue = rng.choice((True, False, None)) if i > 1 else i == 0
            body = _english(rng, 60)
            if has_dialogue:
                body += f' "{_english(rng, 8).capitalize()}," said the {rng.choice(_WORDS)}.'
            refs = [_hangul(rng, 40) for _ in range(rng.choice((1, 2)))]
            record = {"story_id": story_id, "index": i,
                      "source_text": f"[[p{s:02d}-{i:02d}]] {body}", "references": refs}
            if has_dialogue is not None:
                record["has_dialogue"] = has_dialogue
            corpus.append(record)
            rows.append([story_id, i, has_dialogue])
    _write_jsonl(root / "corpus.jsonl", corpus)
    _write_jsonl(root / "stories.jsonl", meta)
    return rows


def write_pipeline(root: Path, seed: int, size: PipelineSize) -> dict:
    """Inputs for the mock pipeline and the loopback workloads; returns the plan."""
    from rulerverse.ruler import CRITERIA
    from rulerverse.verse import CATEGORIES

    root.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, "plan")
    rows = _write_corpus(root, seed, size.stories, size.paragraphs)
    systems = [f"sys{k + 1}" for k in range(size.systems)]
    criteria = {c.value: c.display_name for c in CRITERIA}
    ruler_scores = {}
    for k, system in enumerate(systems):
        scores = {c: rng.randint(1, 5) for c in criteria}
        # the first system follows the no-dialogue default, the others may not
        scores["honorifics"] = 5 if k == 0 else rng.randint(2, 5)
        ruler_scores[system] = scores
    grades = {s: {str(j): rng.randint(1, 3) for j in range(1, size.questions + 1)}
              for s in systems}

    candidate_files = []
    for system in systems:
        crng = _rng(seed, "candidates", system)
        path = root / f"candidates_{system}.jsonl"
        _write_jsonl(path, (
            {"system_id": system, "story_id": sid, "index": i,
             "text": f"[[{system}]] {_hangul(crng, 40)}"}
            for sid, i, _ in rows
        ))
        candidate_files.append(path.name)

    questions = []
    for sid, i, _ in rows:
        qrng = _rng(seed, "questions", sid, i)
        for j in range(1, size.questions + 1):
            category = qrng.randrange(len(CATEGORIES))
            stem = _QUESTION_STEMS[category].format(qrng.choice(_WORDS), qrng.choice(_WORDS))
            marker = f"[[q{sid[2:]}-{i:02d}-{j:02d}]]"
            questions.append({
                "question_id": f"{sid}:{i}:q{j:02d}", "story_id": sid, "index": i,
                "slot": j, "category": CATEGORIES[category], "marker": marker,
                "text": f"{marker} [[slot{j:02d}]] [[topic{category}]] {stem}",
            })
    reprompts = sorted(q["question_id"] for q in rng.sample(questions, size.reprompts))
    _write_jsonl(root / "questions.jsonl", (
        {k: q[k] for k in ("question_id", "story_id", "index", "text", "category")}
        for q in questions
    ))

    # the mock tries rules in order, so the most frequent prompts come first
    rules = [
        {"contains": [f"[[slot{j:02d}]]", f"[[{s}]]", GRADE_TASK],
         "response": f"Score: {grades[s][str(j)]}"}
        for s in systems for j in range(1, size.questions + 1)
    ]
    rules += [
        {"contains": [f"criterion: {criteria[c]}.", f"[[{s}]]"],
         "response": f"Score: {ruler_scores[s][c]}"}
        for s in systems for c in criteria
    ]
    by_id = {q["question_id"]: q for q in questions}
    for qid in reprompts:
        q = by_id[qid]
        rules.append({"contains": [q["marker"], REPROMPT_MARK], "response": q["category"]})
        rules.append({"contains": [q["marker"], CLASSIFY_TASK], "response": NOT_A_CATEGORY})
    rules += [
        {"contains": [f"[[topic{c}]]", CLASSIFY_TASK], "response": name}
        for c, name in enumerate(CATEGORIES)
    ]
    rules.append({"contains": "Translate the source passage", "response": TRANSLATION})
    for sid, i, _ in rows:
        listed = [q["text"] for q in questions if q["story_id"] == sid and q["index"] == i]
        rules.append({
            "contains": [f"[[p{sid[2:]}-{i:02d}]]", GEN_TASK],
            "response": "\n".join(f"{n}. {t}" for n, t in enumerate(listed, 1)),
        })
    (root / "mock_script.json").write_text(
        json.dumps({"rules": rules}, ensure_ascii=False, indent=1), encoding="utf-8"
    )

    plan = {
        "seed": seed, "size": size.__dict__, "systems": systems,
        "bank_stories": [rows[0][0], rows[size.paragraphs][0]],
        "paragraphs": rows, "criteria": criteria, "ruler": ruler_scores,
        "grades": grades, "questions": questions, "reprompts": reprompts,
        "candidates": candidate_files,
    }
    (root / "plan.json").write_text(json.dumps(plan, ensure_ascii=False), encoding="utf-8")
    return plan


def write_agree(root: Path, seed: int, size: AgreeSize) -> dict:
    """Human and model annotation files over a generated corpus; returns the plan.

    Each item has a latent score; raters add small seeded noise around it, so
    the statistics are far from their bounds and ties are plentiful, which is
    what the tie-corrected tau-b and the ordinal alpha have to handle.
    """
    root.mkdir(parents=True, exist_ok=True)
    rows = _write_corpus(root, seed, size.stories, size.paragraphs)
    systems = [f"sys{k + 1}" for k in range(size.systems)]
    humans = [f"h{k + 1}" for k in range(size.human)]
    models = [f"m{k + 1}" for k in range(size.model)]
    rng = _rng(seed, "annotations")
    items = []  # (channel, item fields)
    for channel in ("honorifics", "lexical", "syntax", "content"):
        items += [(channel, {"story_id": sid, "index": i, "system_id": s})
                  for sid, i, _ in rows for s in systems]
    items += [("verse", {"question_id": f"{sid}:{i}:q{j:02d}", "system_id": s})
              for sid, i, _ in rows for j in range(1, size.questions + 1) for s in systems]
    human, model = [], []
    for channel, fields in items:
        hi = 3 if channel == "verse" else 5
        latent = rng.randint(1, hi)
        for rater in humans + models:
            if rater == humans[-1] and rng.random() < size.skip_share:
                continue
            noise = rng.choice((-1, 0, 0, 0, 1)) + (1 if rater in models and rng.random() < 0.2 else 0)
            score = min(hi, max(1, latent + noise))
            record = {"rater_id": rater, "channel": channel, "score": score, **fields}
            (model if rater in models else human).append(record)
    _write_jsonl(root / "human.jsonl", human)
    _write_jsonl(root / "model.jsonl", model)
    plan = {"seed": seed, "size": size.__dict__, "humans": humans, "models": models}
    (root / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return plan


# -- reading outputs --

def read_artifact(path: Path) -> tuple[dict, list[dict]]:
    meta, records = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "_meta" in record:
            meta = record["_meta"]
        elif "_provenance" not in record:
            records.append(record)
    return meta, records


def digests(run_dir: Path) -> dict[str, str]:
    """sha256 of every artifact except the per-stage summaries, which carry counters."""
    return {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and not p.name.endswith("_summary.json")
    }


def tree_size(root: Path) -> tuple[int, int]:
    """(files, bytes) under root."""
    files = size = 0
    for p in root.rglob("*"):
        if p.is_file():
            files += 1
            size += p.stat().st_size
    return files, size


# -- expected counts --

def planned_calls(plan: dict, stages: tuple[str, ...]) -> dict[str, tuple[int, int]]:
    """Stage -> (items_total, judge calls) that a run of the plan must report."""
    size = plan["size"]
    paragraphs = len(plan["paragraphs"])
    systems = len(plan["systems"])
    questions = paragraphs * size["questions"]
    table = {
        "translate": (paragraphs, paragraphs),
        "ruler": (systems * paragraphs, systems * paragraphs * 4),
        "gen": (paragraphs, paragraphs),
        "classify": (questions, questions + len(plan["reprompts"])),
        "grade": (systems * questions, systems * questions),
    }
    return {stage: table[stage] for stage in stages}


# -- output checks; each returns a list of problems, empty when all hold --

def _pct(score: int, lo: int, hi: int) -> float:
    return 100.0 * (score - lo) / (hi - lo)


def _close(a, b, tol: float = 1e-9) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def check_pipeline(plan: dict, run_dir: Path, stages: tuple[str, ...]) -> list[str]:
    errors: list[str] = []
    systems = plan["systems"]
    rows = plan["paragraphs"]
    questions = plan["questions"]

    if "translate" in stages:
        _, records = read_artifact(run_dir / "candidates_mock-judge.jsonl")
        got = {(r["story_id"], r["index"]): r["text"] for r in records}
        if got != {(sid, i): TRANSLATION for sid, i, _ in rows}:
            errors.append("translate: candidates differ from the plan")

    if "ruler" in stages:
        _, records = read_artifact(run_dir / "scorecards.jsonl")
        got = {(r["system_id"], r["story_id"], r["index"]): r["scores"] for r in records}
        want = {(s, sid, i): plan["ruler"][s] for s in systems for sid, i, _ in rows}
        if got != want:
            errors.append("ruler: scorecards differ from the plan")
        audit = json.loads((run_dir / "honorifics_audit.json").read_text(encoding="utf-8"))
        narrative = [(sid, i) for sid, i, d in rows if d is False]
        violations = sorted(
            (s, sid, i, plan["ruler"][s]["honorifics"])
            for s in systems for sid, i in narrative if plan["ruler"][s]["honorifics"] != 5
        )
        got_violations = sorted(
            (v["system_id"], v["story_id"], v["index"], v["score"]) for v in audit["violations"]
        )
        want_audit = (len(narrative) * len(systems), len(narrative) * len(systems) - len(violations),
                      sum(d is None for _, _, d in rows) * len(systems))
        if (audit["checked"], audit["compliant"], audit["untagged"]) != want_audit \
                or got_violations != violations:
            errors.append("ruler: honorifics audit differs from the plan")

    if "classify" in stages:
        _, records = read_artifact(run_dir / "questions.jsonl")
        got = sorted((r["question_id"], r["text"], r["category"]) for r in records)
        want = sorted((q["question_id"], q["text"], q["category"]) for q in questions)
        if got != want:
            errors.append("verse: classified questions differ from the plan")

    if "grade" in stages:
        _, records = read_artifact(run_dir / "grades.jsonl")
        got = {(r["system_id"], r["question_id"]): r["score"] for r in records}
        want = {(s, q["question_id"]): plan["grades"][s][str(q["slot"])]
                for s in systems for q in questions}
        if got != want:
            errors.append("verse: grades differ from the plan")

    if "report" in stages:
        errors += _check_aggregate(plan, json.loads(
            (run_dir / "aggregate.json").read_text(encoding="utf-8")))
    return errors


def _check_aggregate(plan: dict, table: dict) -> list[str]:
    """Every cell of aggregate.json against minmax percentages computed here."""
    errors = []
    systems = plan["systems"]
    n_paragraphs = len(plan["paragraphs"])
    if table["systems"] != systems or table["mapping"] != "minmax":
        return ["report: systems or mapping differ"]
    want_notes = {"ruler_failed": 0, "verse_gen_failed": 0,
                  "verse_classify_failed": 0, "verse_grade_failed": 0}
    if table["notes"] != want_notes:
        errors.append(f"report: notes {table['notes']} != {want_notes}")
    categories = sorted({q["category"] for q in plan["questions"]})
    for s in systems:
        for c, score in plan["ruler"][s].items():
            cell = table["ruler"][s][c]
            if cell["n"] != n_paragraphs or not _close(cell["value"], _pct(score, 1, 5)):
                errors.append(f"report: ruler cell {s}/{c} is {cell}")
        means = []
        total = 0
        for category, cell in table["verse_categories"][s].items():
            pcts = [_pct(plan["grades"][s][str(q["slot"])], 1, 3)
                    for q in plan["questions"] if q["category"] == category]
            want = sum(pcts) / len(pcts) if pcts else None
            if cell["n"] != len(pcts) or not _close(cell["value"], want):
                errors.append(f"report: verse cell {s}/{category} is {cell}, want {want}")
            if want is not None:
                means.append(want)
            total += len(pcts)
        if sorted(c for c, cell in table["verse_categories"][s].items() if cell["n"]) != categories:
            errors.append(f"report: verse categories of {s} differ")
        mean = table["verse_mean"][s]
        if mean["n"] != total or not _close(mean["value"], sum(means) / len(means)):
            errors.append(f"report: verse mean of {s} is {mean}")
    return errors


def check_agree(root: Path, run_dir: Path, oracles) -> list[str]:
    """Agreement artifacts against scipy, numpy and the coincidence-matrix oracle."""
    import numpy as np
    from scipy import stats

    plan = json.loads((root / "plan.json").read_text(encoding="utf-8"))
    vectors: dict[str, dict[str, dict[str, int]]] = {}
    for name in ("human.jsonl", "model.jsonl"):
        for line in (root / name).read_text(encoding="utf-8").splitlines():
            r = json.loads(line)
            if r["channel"] == "verse":
                item = f"{r['question_id']}::{r['system_id']}"
            else:
                item = f"{r['story_id']}::{r['index']}::{r['system_id']}"
            vectors.setdefault(r["channel"], {}).setdefault(r["rater_id"], {})[item] = r["score"]

    def paired(a: dict, b: dict):
        common = sorted(set(a) & set(b))
        return np.array([a[k] for k in common]), np.array([b[k] for k in common])

    def pair_means(pairs) -> dict[str, float]:
        taus, rhos, mses = [], [], []
        for a, b in pairs:
            x, y = paired(a, b)
            taus.append(stats.kendalltau(x, y).statistic)
            rhos.append(stats.spearmanr(x, y).statistic)
            mses.append(float(np.mean((x - y) ** 2)))
        return {"tau": float(np.mean(taus)), "rho": float(np.mean(rhos)),
                "mse": float(np.mean(mses))}

    errors = []
    humans, models = plan["humans"], plan["models"]
    for channel, raters in sorted(vectors.items()):
        payload = json.loads((run_dir / f"agreement_{channel}.json").read_text(encoding="utf-8"))
        hh = [(raters[a], raters[b]) for n, a in enumerate(humans) for b in humans[n + 1:]]
        hm = [(raters[a], raters[b]) for a in humans for b in models]
        ids = sorted({i for r in humans for i in raters[r]})
        matrix = [[raters[r].get(i) for i in ids] for r in humans]
        want = {**pair_means(hh), "alpha": oracles.alpha_coincidence_oracle(matrix, "ordinal")}
        got = payload["inter_annotator"]
        for key, value in want.items():
            if not _close(got[key], value):
                errors.append(f"agree: {channel} human {key} {got[key]} != {value}")
        if got["n_items"] != len(ids) or got["n_raters"] != len(humans):
            errors.append(f"agree: {channel} counts {got['n_items']}/{got['n_raters']}")
        for key, value in pair_means(hm).items():
            if not _close(payload["human_vs_model"][key], value):
                errors.append(f"agree: {channel} model {key} differs")
        for a, b in [(a, b) for n, a in enumerate(humans) for b in humans[n + 1:]] + \
                [(a, b) for a in humans for b in models]:
            text = (run_dir / f"confusion_{channel}_{a}_vs_{b}.csv").read_text(encoding="utf-8")
            rows = [row for row in text.splitlines() if not row.startswith("#")]
            cells = [[int(v) for v in row.split(",")[1:]] for row in rows[1:]]
            n_items = len(set(raters[a]) & set(raters[b]))
            if cells[-1][-1] != n_items or sum(sum(row[:-1]) for row in cells[:-1]) != n_items:
                errors.append(f"agree: confusion {channel} {a} vs {b} totals differ from {n_items}")
    return errors
