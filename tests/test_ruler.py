from __future__ import annotations

import json

import pytest

from conftest import FIXTURES, cache_entries, make_judge
from rulerverse.cli import main
from rulerverse.corpus import load_candidates, load_corpus
from rulerverse.errors import (
    EmptyCandidate,
    InsufficientShots,
    MissingReference,
    OutOfRange,
    Unparsable,
)
from rulerverse.ruler import (
    CRITERIA,
    Criterion,
    ItemFailure,
    PromptOptions,
    RubricScorecard,
    ScoredExample,
    audit_honorifics,
    build_ruler_prompt,
    bundled_rubric,
    load_example_bank,
    load_rubric,
    parse_likert_score,
    score_item,
    scorecard_from_record,
    scorecard_to_record,
)


@pytest.fixture
def rubric():
    return bundled_rubric()


def _bank(n=6, story_id="st-bank"):
    return [
        ScoredExample(
            story_id=story_id,
            criterion=criterion,
            source_text=f"bank source {criterion.value} {i}",
            candidate_text=f"bank candidate {criterion.value} {i}",
            score=(i % 5) + 1,
        )
        for criterion in CRITERIA
        for i in range(n)
    ]


def _sections(*args, **kwargs) -> list[tuple[str, str]]:
    """The RULER prompt's `### name` sections as (name, body) pairs, in prompt order."""
    user_text = build_ruler_prompt(*args, **kwargs).user_text
    return [
        tuple(block.split("\n", 1)) for block in ("\n\n" + user_text).split("\n\n### ")[1:]
    ]


def _sections_dict(*args, **kwargs) -> dict[str, str]:
    return dict(_sections(*args, **kwargs))


# -- rubric data --

def test_bundled_rubric_complete(rubric):
    for criterion in CRITERIA:
        assert set(rubric.criteria[criterion].levels) == {1, 2, 3, 4, 5}
    assert "output 5" in rubric.criteria[Criterion.HONORIFICS].preamble


def test_load_rubric_rejects_missing_level(tmp_path):
    data = {"criteria": {c.value: {"preamble": "p", "levels": {str(i): "d" for i in range(1, 6)}}
                         for c in CRITERIA}}
    del data["criteria"]["syntax"]["levels"]["3"]
    path = tmp_path / "rubric.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(Exception, match="levels"):
        load_rubric(path)


# -- prompt assembly --

def test_default_prompt_contains_full_rubric(fixture_corpus, rubric):
    pair = fixture_corpus.pair("st-arbor", 0)
    request = build_ruler_prompt(
        Criterion.LEXICAL_CHOICE, pair, "candidate text", rubric,
        "summary here", PromptOptions(),
    )
    for level in range(1, 6):
        assert rubric.criteria[Criterion.LEXICAL_CHOICE].levels[level] in request.user_text
    assert pair.source_text in request.user_text
    assert pair.references[0] in request.user_text
    assert "candidate text" in request.user_text


def test_prompt_section_order_fixed(fixture_corpus, rubric):
    pair = fixture_corpus.pair("st-arbor", 0)
    sections = _sections(
        Criterion.HONORIFICS, pair, "cand", rubric, "sum",
        PromptOptions(k_shot=5, use_cot=True), shots=_bank(),
    )
    names = [name for name, _ in sections]
    assert names == [
        "Task", "Rubric", "Story summary", "Worked examples",
        "Source passage", "Reference translation", "Candidate translation",
        "Output format",
    ]


def test_k_shot_prompt_contains_exactly_k_examples(fixture_corpus, rubric):
    pair = fixture_corpus.pair("st-arbor", 0)
    sections = _sections_dict(
        Criterion.SYNTAX_GRAMMAR, pair, "cand", rubric, "", PromptOptions(k_shot=5),
        shots=_bank(),
    )
    assert sections["Worked examples"].count("Example ") == 5


def test_rubric_toggle_changes_only_rubric_section(fixture_corpus, rubric):
    pair = fixture_corpus.pair("st-arbor", 0)
    base = dict(with_rubric=None, without=None)
    base["with_rubric"] = _sections_dict(
        Criterion.CONTENT_ACCURACY, pair, "cand", rubric, "sum", PromptOptions()
    )
    base["without"] = _sections_dict(
        Criterion.CONTENT_ACCURACY, pair, "cand", rubric, "sum",
        PromptOptions(include_rubric=False),
    )
    assert set(base["with_rubric"]) - set(base["without"]) == {"Rubric"}
    for name in base["without"]:
        assert base["without"][name] == base["with_rubric"][name]


@pytest.mark.parametrize(
    "field,value,section",
    [
        ("include_reference", False, "Reference translation"),
        ("include_rubric", False, "Rubric"),
    ],
)
def test_prompt_monotonicity(fixture_corpus, rubric, field, value, section):
    pair = fixture_corpus.pair("st-brook", 1)
    on = _sections_dict(Criterion.HONORIFICS, pair, "cand", rubric, "s", PromptOptions())
    off = _sections_dict(
        Criterion.HONORIFICS, pair, "cand", rubric, "s", PromptOptions(**{field: value})
    )
    assert set(on) - set(off) == {section}
    for name in off:
        assert off[name] == on[name]


def test_k_shot_toggle_adds_only_examples_section(fixture_corpus, rubric):
    pair = fixture_corpus.pair("st-brook", 2)
    base = _sections_dict(Criterion.LEXICAL_CHOICE, pair, "c", rubric, "s", PromptOptions())
    with5 = _sections_dict(
        Criterion.LEXICAL_CHOICE, pair, "c", rubric, "s", PromptOptions(k_shot=5),
        shots=_bank(),
    )
    assert set(with5) - set(base) == {"Worked examples"}
    for name in base:
        assert base[name] == with5[name]


def test_cot_toggle_changes_only_output_format(fixture_corpus, rubric):
    pair = fixture_corpus.pair("st-brook", 1)
    plain = _sections_dict(Criterion.HONORIFICS, pair, "c", rubric, "s", PromptOptions())
    cot = _sections_dict(
        Criterion.HONORIFICS, pair, "c", rubric, "s", PromptOptions(use_cot=True)
    )
    assert set(plain) == set(cot)
    differing = [name for name in plain if plain[name] != cot[name]]
    assert differing == ["Output format"]
    assert "reasoning" in cot["Output format"]


def test_reference_index_selects_second_translation(fixture_corpus, rubric):
    pair = fixture_corpus.pair("st-arbor", 0)
    sections = _sections_dict(
        Criterion.HONORIFICS, pair, "c", rubric, "s", PromptOptions(reference_index=1)
    )
    assert sections["Reference translation"] == pair.references[1]
    with pytest.raises(MissingReference):
        build_ruler_prompt(
            Criterion.HONORIFICS, pair, "c", rubric, "s", PromptOptions(reference_index=5)
        )


def test_no_few_shot_leakage(fixture_corpus, rubric):
    # bank entries from the story under evaluation must never appear
    pair = fixture_corpus.pair("st-arbor", 2)
    bank = _bank() + [
        ScoredExample(
            story_id="st-arbor",
            criterion=Criterion.LEXICAL_CHOICE,
            source_text="LEAKED SOURCE",
            candidate_text="LEAKED CANDIDATE",
            score=5,
        )
    ]
    request = build_ruler_prompt(
        Criterion.LEXICAL_CHOICE, pair, "cand", rubric, "", PromptOptions(k_shot=5),
        shots=bank,
    )
    assert "LEAKED" not in request.user_text


def test_insufficient_shots(fixture_corpus, rubric):
    pair = fixture_corpus.pair("st-arbor", 0)
    with pytest.raises(InsufficientShots):
        build_ruler_prompt(
            Criterion.HONORIFICS, pair, "c", rubric, "", PromptOptions(k_shot=5),
            shots=_bank(n=2),
        )


def test_empty_candidate_rejected(fixture_corpus, rubric):
    pair = fixture_corpus.pair("st-arbor", 0)
    with pytest.raises(EmptyCandidate):
        build_ruler_prompt(Criterion.HONORIFICS, pair, "  ", rubric, "", PromptOptions())


def test_k_shot_validation():
    with pytest.raises(ValueError):
        PromptOptions(k_shot=3)


def test_options_fingerprint_distinguishes():
    assert PromptOptions().fingerprint() != PromptOptions(use_cot=True).fingerprint()
    assert PromptOptions().fingerprint() == PromptOptions().fingerprint()


# -- score parsing --

def test_parse_likert_plain():
    assert parse_likert_score("Score: 4") == 4


def test_parse_likert_cot_last_line():
    assert parse_likert_score("The honorifics are consistent...\nScore: 5") == 5


def test_parse_likert_last_conforming_line_wins():
    assert parse_likert_score("Score: 2\nrevised opinion\nScore: 3") == 3


def test_parse_likert_out_of_range():
    with pytest.raises(OutOfRange) as exc:
        parse_likert_score("Score: 7")
    assert exc.value.value == 7


def test_parse_likert_unparsable():
    with pytest.raises(Unparsable):
        parse_likert_score("I would rate this a four.")


# -- scoring runs --

def test_score_candidate_all_fives(tmp_path, fixture_corpus):
    judge = make_judge(tmp_path, script={"rules": [], "default": "Score: 5"})
    cands = load_candidates(FIXTURES / "candidates_alpha.jsonl", fixture_corpus)
    scorecards = [
        score_item(fixture_corpus, cands, fixture_corpus.pair("st-arbor", i), bundled_rubric(),
                   PromptOptions(), judge)
        for i in (0, 1)
    ]
    for card in scorecards:
        assert isinstance(card, RubricScorecard)
        assert set(card.scores.values()) == {5}


def test_score_candidate_failure_isolation(tmp_path, fixture_corpus):
    script = {
        "rules": [
            {
                "contains": ["criterion: Honorifics", "quiet orchard ledger"],
                "response": "Score: 9",
            }
        ],
        "default": "Score: 4",
    }
    judge = make_judge(tmp_path, script=script)
    cands = load_candidates(FIXTURES / "candidates_alpha.jsonl", fixture_corpus)
    outcomes = [
        score_item(fixture_corpus, cands, fixture_corpus.pair("st-arbor", i), bundled_rubric(),
                   PromptOptions(), judge)
        for i in (0, 1, 2)
    ]
    assert [type(o) for o in outcomes] == [RubricScorecard, ItemFailure, RubricScorecard]
    failure = outcomes[1]
    assert failure.index == 1
    assert failure.error == "OutOfRange"
    assert failure.stage == "ruler:honorifics"


def test_audit_counts_a_paragraph_without_a_dialogue_tag_as_untagged(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(
        json.dumps({"story_id": "s", "index": i, "source_text": f"source {i}",
                    "references": [f"ref {i}"], **tag}) + "\n"
        for i, tag in enumerate([{"has_dialogue": False}, {}])
    ), encoding="utf-8")
    cards = [RubricScorecard("sys", "s", i, {c: 3 for c in CRITERIA}) for i in (0, 1)]
    audit = audit_honorifics(cards, load_corpus(path))
    assert (audit.checked, audit.compliant, audit.untagged) == (1, 0, 1)
    assert audit.violations == [{"system_id": "sys", "story_id": "s", "index": 0, "score": 3}]


def test_score_candidate_preserves_corpus_order(tmp_path, fixture_corpus):
    # every item fails its first criterion, so the summary lists every item in run order
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"rules": [], "default": "Score: 9"}), encoding="utf-8")
    assert main([
        "ruler", "--corpus", str(FIXTURES / "corpus.jsonl"),
        "--stories", str(FIXTURES / "stories.jsonl"),
        "--candidates", str(FIXTURES / "candidates_beta.jsonl"),
        str(FIXTURES / "candidates_alpha.jsonl"),
        "--script", str(script), "--jobs", "4", "--out", str(tmp_path / "out"), "--run-id", "r",
    ]) == 0
    summary = json.loads((tmp_path / "out" / "r" / "ruler_summary.json").read_text("utf-8"))
    keys = [(f["system_id"], f["story_id"], f["index"]) for f in summary["failures"]]
    assert keys == [(system, p.story_id, p.index)
                    for system in ("beta", "alpha") for p in fixture_corpus.pairs()]


def test_scores_round_trip_through_parser(tmp_path, fixture_corpus):
    judge = make_judge(tmp_path)
    cands = load_candidates(FIXTURES / "candidates_beta.jsonl", fixture_corpus)
    rubric, options = bundled_rubric(), PromptOptions()
    scorecards = [
        score_item(fixture_corpus, cands, fixture_corpus.pair(*key), rubric, options, judge)
        for key in cands.translations
    ]
    responses = {
        entry["request"]["user_text"]: entry["response"]["text"]
        for entry in cache_entries(tmp_path / "cache").values()
    }
    for card in scorecards:
        pair = fixture_corpus.pair(card.story_id, card.index)
        summary = fixture_corpus.story(card.story_id).summary
        for criterion in CRITERIA:
            request = build_ruler_prompt(
                criterion, pair, cands.translations[(pair.story_id, pair.index)],
                rubric, summary, options,
            )
            assert parse_likert_score(responses[request.user_text]) == card.scores[criterion]


def test_cot_answer_scores_its_final_line(tmp_path, fixture_corpus):
    script = {"rules": [], "default": "Score: 4\nOn reflection the register is wrong.\nScore: 2"}
    judge = make_judge(tmp_path, script=script)
    cands = load_candidates(FIXTURES / "candidates_alpha.jsonl", fixture_corpus)
    card = score_item(
        fixture_corpus, cands, fixture_corpus.pair("st-brook", 0), bundled_rubric(),
        PromptOptions(use_cot=True), judge,
    )
    assert card.scores == {criterion: 2 for criterion in CRITERIA}


def test_mock_determinism_byte_stable(tmp_path, fixture_corpus):
    cands = load_candidates(FIXTURES / "candidates_alpha.jsonl", fixture_corpus)

    def run(subdir):
        judge = make_judge(tmp_path / subdir)
        scorecards = [
            score_item(fixture_corpus, cands, fixture_corpus.pair(*key), bundled_rubric(),
                       PromptOptions(), judge)
            for key in cands.translations
        ]
        return json.dumps(
            [scorecard_to_record(c, "fp", "m") for c in scorecards], sort_keys=True
        )

    assert run("one") == run("two")


# -- honorifics audit --

def test_audit_honorifics_flags_violation(fixture_corpus):
    cards = []
    for pair in fixture_corpus.pairs():
        scores = {c: 4 for c in CRITERIA}
        scores[Criterion.HONORIFICS] = 5
        cards.append(
            scorecard_from_record(
                {
                    "system_id": "alpha",
                    "story_id": pair.story_id,
                    "index": pair.index,
                    "scores": {c.value: scores[c] for c in CRITERIA},
                }
            )
        )
    # st-brook index 0 is a non-dialogue paragraph: force a violation
    offender = next(c for c in cards if c.story_id == "st-brook" and c.index == 0)
    offender.scores[Criterion.HONORIFICS] = 2
    audit = audit_honorifics(cards, fixture_corpus)
    assert audit.checked == 6  # six paragraphs tagged has_dialogue=false
    assert audit.compliant == 5
    assert audit.violations == [
        {"system_id": "alpha", "story_id": "st-brook", "index": 0, "score": 2}
    ]


def test_scorecard_record_round_trip(fixture_corpus):
    card = scorecard_from_record(
        {
            "system_id": "alpha",
            "story_id": "st-arbor",
            "index": 3,
            "scores": {"honorifics": 5, "lexical": 4, "syntax": 3, "content": 2},
        }
    )
    record = scorecard_to_record(card, "fp", "model")
    assert scorecard_from_record(record).scores == card.scores


def test_example_bank_loader(tmp_path):
    path = tmp_path / "bank.jsonl"
    rows = [
        {"story_id": "s", "criterion": "lexical", "source_text": "a",
         "candidate_text": "b", "score": 3},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    bank = load_example_bank(path)
    assert bank[0].criterion is Criterion.LEXICAL_CHOICE
    rows[0]["score"] = 9
    path.write_text(json.dumps(rows[0]), encoding="utf-8")
    with pytest.raises(Exception, match="score"):
        load_example_bank(path)
