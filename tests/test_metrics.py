from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    alpha_coincidence_oracle,
    alpha_unit_pair_oracle,
    mse_sequential,
    rho_oracle,
    rho_sequential,
    tau_b_oracle,
)
from rulerverse.errors import (
    EmptyInput,
    InsufficientOverlap,
    LabelError,
    LengthMismatch,
    MissingValue,
    NoCommonItems,
    TooFewItems,
)
from rulerverse.metrics import (
    RatingVector,
    classify_pairs,
    compute_agreement,
    kendall_tau_b,
    krippendorff_alpha,
    mean_over_pairs,
    mse,
    per_label_prf,
    rater_pairs,
    rating_matrix,
    spearman_rho,
)

APPROX = 1e-9


# -- kendall tau-b --

def test_tau_perfect_concordance():
    assert kendall_tau_b([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0, abs=APPROX)


def test_tau_one_swap():
    # 6 pairs: 5 concordant, 1 discordant
    assert kendall_tau_b([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3, abs=APPROX)


def test_tau_with_ties():
    # C=1, D=0, one tie pair in each vector: 1/sqrt(2*2)
    assert kendall_tau_b([1, 1, 2], [1, 2, 2]) == pytest.approx(0.5, abs=APPROX)


def test_tau_constant_vector_undefined():
    assert kendall_tau_b([2, 2, 2], [1, 2, 3]) is None


def test_tau_errors():
    with pytest.raises(LengthMismatch):
        kendall_tau_b([1, 2], [1, 2, 3])
    with pytest.raises(TooFewItems):
        kendall_tau_b([1], [2])
    with pytest.raises(MissingValue):
        kendall_tau_b([1, None, 3], [1, 2, 3])


# -- spearman rho --

def test_rho_identity():
    assert spearman_rho([3, 1, 4, 2], [3, 1, 4, 2]) == pytest.approx(1.0, abs=APPROX)


def test_rho_one_swap():
    # sum d^2 = 2 -> 1 - 12/60
    assert spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=APPROX)


def test_rho_ties_negative():
    assert spearman_rho([1, 1, 2], [2, 1, 1]) == pytest.approx(-0.5, abs=APPROX)


def test_rho_constant_undefined():
    assert spearman_rho([1, 2, 3], [5, 5, 5]) is None


# -- mse --

def test_mse_cases():
    assert mse([1, 2, 3], [1, 2, 3]) == 0.0
    assert mse([1, 5], [2, 3]) == pytest.approx(2.5)
    assert mse([1], [5]) == pytest.approx(16.0)
    with pytest.raises(EmptyInput if False else TooFewItems):
        mse([], [])


# -- oracle equivalence on a moderate grid (the full sweep runs in acceptance) --

def test_tau_rho_match_oracles_small_grid():
    values = (1, 2, 3)
    for n in (2, 3, 4):
        for x in itertools.product(values, repeat=n):
            for y in itertools.product(values, repeat=n):
                got_tau = kendall_tau_b(x, y)
                want_tau = tau_b_oracle(x, y)
                got_rho = spearman_rho(x, y)
                want_rho = rho_oracle(x, y)
                assert (got_tau is None) == (want_tau is None), (x, y)
                if got_tau is not None:
                    assert got_tau == pytest.approx(want_tau, abs=APPROX), (x, y)
                assert (got_rho is None) == (want_rho is None), (x, y)
                if got_rho is not None:
                    assert got_rho == pytest.approx(want_rho, abs=APPROX), (x, y)


# -- krippendorff alpha --

def test_alpha_perfect_agreement_is_exactly_one():
    ratings = [[1, 2, 3, 4, 5], [1, 2, 3, 4, 5]]
    assert krippendorff_alpha(ratings, level="nominal") == 1.0
    assert krippendorff_alpha(ratings, level="ordinal") == 1.0
    assert krippendorff_alpha(ratings, level="interval") == 1.0


NINE_ITEM_A = [1, 2, 3, 3, 2, 1, 4, 1, 2]
NINE_ITEM_B = [1, 2, 3, 3, 2, 2, 4, 1, 2]


def test_alpha_nine_item_nominal_fixture_matches_oracles():
    ratings = [NINE_ITEM_A, NINE_ITEM_B]
    got = krippendorff_alpha(ratings, level="nominal")
    assert got == pytest.approx(alpha_coincidence_oracle(ratings, "nominal"), abs=APPROX)
    assert got == pytest.approx(alpha_unit_pair_oracle(ratings, "nominal"), abs=APPROX)
    # hand-computed: D_o = 2/18, D_e = 230/306
    assert got == pytest.approx(1.0 - (2 / 18) / (230 / 306), abs=APPROX)


def test_alpha_missing_data_uses_only_paired_items():
    ratings = [[1, 2, None], [1, 2, 3]]
    assert krippendorff_alpha(ratings, level="nominal") == pytest.approx(1.0, abs=APPROX)


@pytest.mark.parametrize(
    "level,expected",
    [
        ("nominal", 1 - (1 / 3) * (30 / 22)),
        ("interval", 1 - 5 / 29),
        ("ordinal", 7 / 9),
    ],
)
def test_alpha_three_item_levels_hand_checked(level, expected):
    ratings = [[1, 2, 3], [1, 3, 3]]
    assert krippendorff_alpha(ratings, level=level) == pytest.approx(expected, abs=APPROX)
    assert krippendorff_alpha(ratings, level=level) == pytest.approx(
        alpha_coincidence_oracle(ratings, level), abs=APPROX
    )


def test_alpha_single_value_everywhere_is_undefined():
    assert krippendorff_alpha([[2, 2, 2], [2, 2, 2]], level="nominal") is None


def test_alpha_no_overlap_raises():
    with pytest.raises(InsufficientOverlap):
        krippendorff_alpha([[1, None], [None, 2]])
    with pytest.raises(InsufficientOverlap):
        krippendorff_alpha([[1, 2, 3]])


def test_alpha_errors():
    with pytest.raises(LengthMismatch):
        krippendorff_alpha([[1, 2, 3], [1, 2]])
    with pytest.raises(ValueError, match="level must be one of"):
        krippendorff_alpha([[1, 2, 3], [1, 2, 3]], level="ratio")


def test_alpha_decreases_when_one_agreement_is_flipped():
    agree = [[1, 2, 3, 1, 2], [1, 2, 3, 1, 2]]
    flipped = [[1, 2, 3, 1, 2], [1, 2, 3, 1, 3]]
    for level in ("nominal", "ordinal", "interval"):
        assert krippendorff_alpha(flipped, level=level) < krippendorff_alpha(agree, level=level)


def test_alpha_three_raters_matches_oracle():
    ratings = [
        [1, 2, 3, 2, None, 1, 4],
        [1, 3, 3, 2, 2, 1, 4],
        [2, 2, 3, None, 2, 1, 5],
    ]
    for level in ("nominal", "interval"):
        assert krippendorff_alpha(ratings, level=level) == pytest.approx(
            alpha_unit_pair_oracle(ratings, level), abs=APPROX
        )
    assert krippendorff_alpha(ratings, level="ordinal") == pytest.approx(
        alpha_coincidence_oracle(ratings, "ordinal"), abs=APPROX
    )


# -- classification report --

def test_per_label_prf_hand_counted():
    rep = per_label_prf([1, 1, 2], [1, 2, 2], label_set=[1, 2])
    assert rep.per_label[1].precision == pytest.approx(1.0)
    assert rep.per_label[1].recall == pytest.approx(0.5)
    assert rep.per_label[1].f1 == pytest.approx(2 / 3, abs=1e-4)
    assert rep.per_label[2].precision == pytest.approx(0.5)
    assert rep.per_label[2].recall == pytest.approx(1.0)
    assert rep.per_label[2].f1 == pytest.approx(2 / 3, abs=1e-4)
    assert rep.accuracy == pytest.approx(2 / 3, abs=1e-4)
    assert rep.per_label[1].support == 2
    assert rep.per_label[2].support == 1


def test_per_label_prf_identity():
    rep = per_label_prf(["a", "b", "c"], ["a", "b", "c"], label_set=["a", "b", "c"])
    assert rep.accuracy == 1.0
    for stats in rep.per_label.values():
        assert stats.precision == stats.recall == stats.f1 == 1.0


def test_per_label_prf_absent_label_flagged():
    rep = per_label_prf([1, 1, 2], [1, 2, 2], label_set=[1, 2, 3])
    stats = rep.per_label[3]
    assert stats.support == 0
    assert stats.precision == stats.recall == stats.f1 == 0.0
    assert stats.zero_division


def test_per_label_prf_errors():
    with pytest.raises(LengthMismatch):
        per_label_prf([1], [1, 2], [1, 2])
    with pytest.raises(LabelError):
        per_label_prf([1, 9], [1, 2], [1, 2])
    with pytest.raises(EmptyInput):
        per_label_prf([], [], [1])


def _table(x, y):
    """A pair's count table built by hand: (n, cells, counts of x, counts of y)."""
    return len(x), Counter(zip(x, y)), Counter(x), Counter(y)


@pytest.mark.parametrize("statistic, x, y, error", [
    (kendall_tau_b, [1], [2], TooFewItems),
    (spearman_rho, [1], [2], TooFewItems),
    (mse, [], [], TooFewItems),
    (kendall_tau_b, [1, None, 3], [1, 2, 3], MissingValue),
    (spearman_rho, [1, 2, 3], [1, 2, None], MissingValue),
    (mse, [None], [1], MissingValue),
], ids=["tau-short", "rho-short", "mse-empty", "tau-missing", "rho-missing", "mse-missing"])
def test_paired_statistics_check_a_given_table(statistic, x, y, error):
    with pytest.raises(error):
        statistic(x, y)
    with pytest.raises(error):
        statistic(x, y, _table(x, y))


@pytest.mark.parametrize("gold, pred, error, message", [
    ([1, 9], [1, 2], LabelError, "gold label 9"),
    ([1, 2], [1, 9], LabelError, "predicted label 9"),
    ([], [], EmptyInput, "no items"),
], ids=["gold-label", "predicted-label", "empty"])
def test_per_label_prf_checks_a_given_table(gold, pred, error, message):
    with pytest.raises(error, match=message):
        per_label_prf(gold, pred, [1, 2])
    with pytest.raises(error, match=message):
        per_label_prf(gold, pred, [1, 2], _table(gold, pred))


def test_confusion_marginals():
    gold = [1, 2, 3, 1, 2, 2]
    pred = [1, 3, 3, 2, 2, 1]
    rep = per_label_prf(gold, pred, [1, 2, 3])
    for label in (1, 2, 3):
        assert sum(rep.confusion[label].values()) == gold.count(label)
        assert sum(rep.confusion[g][label] for g in (1, 2, 3)) == pred.count(label)
    assert sum(sum(row.values()) for row in rep.confusion.values()) == len(gold)


# -- pairwise aggregation --

def _vec(rater, ids, scores):
    """A rater's vector; a None score leaves its item out, as one the rater skipped."""
    return RatingVector({i: s for i, s in zip(ids, scores) if s is not None}, rater)


def test_pairwise_identity_raters():
    raters = [_vec(r, "abcd", [1, 2, 3, 4]) for r in ("r1", "r2", "r3")]
    pairs = list(rater_pairs(raters))
    assert [(a, b) for a, b, *_ in pairs] == [("r1", "r2"), ("r1", "r3"), ("r2", "r3")]
    assert mean_over_pairs(pairs, kendall_tau_b) == (pytest.approx(1.0), 0)


def test_pairwise_mean_hand_checked():
    # tau(r1,r2)=1.0 on common items, tau pairs with r3 both 1/3
    r1 = _vec("r1", "abcd", [1, 2, 3, 4])
    r2 = _vec("r2", "abcd", [2, 3, 4, 5])
    r3 = _vec("r3", "abcd", [1, 3, 2, 4])
    pairs = list(rater_pairs([r1, r2, r3]))
    values = {(a, b): kendall_tau_b(xs, ys) for a, b, xs, ys, _ in pairs}
    assert values[("r1", "r2")] == pytest.approx(1.0)
    assert values[("r1", "r3")] == pytest.approx(2 / 3, abs=APPROX)
    assert values[("r2", "r3")] == pytest.approx(2 / 3, abs=APPROX)
    mean, skipped = mean_over_pairs(pairs, kendall_tau_b)
    assert mean == pytest.approx((1.0 + 2 / 3 + 2 / 3) / 3, abs=APPROX)
    assert skipped == 0


def test_pairwise_common_item_alignment_with_missing():
    r1 = _vec("r1", "abc", [1, 2, None])
    r2 = _vec("r2", "abc", [1, 2, 3])
    [(_, _, xs, ys, table)] = rater_pairs([r1, r2])
    assert (xs, ys) == ([1, 2], [1, 2])
    assert mean_over_pairs([("r1", "r2", xs, ys, table)], mse) == (0.0, 0)


def test_pairwise_undefined_values_are_skipped():
    r1 = _vec("r1", "abc", [2, 2, 2])
    r2 = _vec("r2", "abc", [1, 2, 3])
    r3 = _vec("r3", "abc", [1, 3, 3])
    assert mean_over_pairs(rater_pairs([r1, r2, r3]), kendall_tau_b) == (
        pytest.approx(kendall_tau_b([1, 2, 3], [1, 3, 3])), 2
    )


@pytest.mark.parametrize("groups", [(["r1"],), ([], ["r1"]), (["r1"], [])],
                         ids=["one-rater", "empty-first-group", "empty-second-group"])
def test_rater_pairs_need_two_raters(groups):
    vectors = [[_vec(r, "ab", [1, 2]) for r in group] for group in groups]
    with pytest.raises(TooFewItems):
        list(rater_pairs(*vectors))


def test_pairwise_no_common_items_raises():
    r1 = _vec("r1", "ab", [1, 2])
    r2 = _vec("r2", "cd", [1, 2])
    with pytest.raises(NoCommonItems):
        mean_over_pairs(rater_pairs([r1, r2]), mse)


def test_cross_pairwise_counts_three_pairs():
    humans = [_vec(r, "abcd", [1, 2, 3, 4]) for r in ("h1", "h2", "h3")]
    model = [_vec("model", "abcd", [1, 2, 4, 3])]
    pairs = list(rater_pairs(humans, model))
    assert [(a, b) for a, b, *_ in pairs] == [("h1", "model"), ("h2", "model"), ("h3", "model")]
    assert mean_over_pairs(pairs, spearman_rho) == (pytest.approx(0.8), 0)


def test_compute_agreement_report_fields():
    raters = [
        _vec("r1", "abcde", [1, 2, 3, 4, 5]),
        _vec("r2", "abcde", [1, 2, 3, 4, 5]),
        _vec("r3", "abcde", [2, 2, 3, 4, 5]),
    ]
    report = compute_agreement(raters, list(rater_pairs(raters)), level="ordinal")
    assert report.n_raters == 3
    assert report.n_items == 5
    assert report.mse == pytest.approx((0.0 + 0.2 + 0.2) / 3, abs=APPROX)
    assert 0.0 < report.alpha <= 1.0


def test_pairwise_classification_mean_f1():
    raters = [
        _vec("r1", "abcd", [1, 1, 2, 2]),
        _vec("r2", "abcd", [1, 1, 2, 2]),
        _vec("r3", "abcd", [1, 2, 2, 2]),
    ]
    result = classify_pairs(rater_pairs(raters), label_set=[1, 2])
    assert len(result.per_pair) == 3
    assert result.mean_accuracy == pytest.approx((1.0 + 0.75 + 0.75) / 3)


def test_rating_matrix_union_of_ids():
    r1 = _vec("r1", ["b", "a"], [2, 1])
    r2 = _vec("r2", ["a", "c"], [1, 3])
    matrix = rating_matrix([r1, r2])
    assert matrix == [[1, 2, None], [1, None, 3]]


# -- properties --

score_vectors = st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=12)
paired = st.tuples(score_vectors, score_vectors).map(
    lambda xy: (xy[0][: min(len(xy[0]), len(xy[1]))], xy[1][: min(len(xy[0]), len(xy[1]))])
)


@settings(max_examples=150, deadline=None)
@given(paired)
def test_symmetry(xy):
    x, y = xy
    for fn in (kendall_tau_b, spearman_rho, mse):
        a = fn(x, y)
        b = fn(y, x)
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert a == pytest.approx(b, abs=APPROX)


@settings(max_examples=150, deadline=None)
@given(paired)
def test_monotone_transform_invariance(xy):
    x, y = xy
    transform = {1: 2, 2: 5, 3: 11, 4: 12, 5: 40}
    tx = [transform[v] for v in x]
    ty = [transform[v] for v in y]
    for fn in (kendall_tau_b, spearman_rho):
        before = fn(x, y)
        after = fn(tx, ty)
        if before is None:
            assert after is None
        else:
            assert after == pytest.approx(before, abs=APPROX)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.one_of(st.none(), st.integers(1, 3)), min_size=4, max_size=4),
        min_size=2,
        max_size=4,
    ),
    st.randoms(use_true_random=False),
)
def test_alpha_invariant_under_reordering(ratings, rng):
    try:
        base = krippendorff_alpha(ratings, level="ordinal")
    except InsufficientOverlap:
        return
    rater_order = list(range(len(ratings)))
    item_order = list(range(len(ratings[0])))
    rng.shuffle(rater_order)
    rng.shuffle(item_order)
    shuffled = [[ratings[r][i] for i in item_order] for r in rater_order]
    got = krippendorff_alpha(shuffled, level="ordinal")
    if base is None:
        assert got is None
    else:
        assert got == pytest.approx(base, abs=APPROX)


# small value pools make ties heavy; a one-value pool gives a constant vector
_tau_values = st.one_of(
    st.integers(min_value=-3, max_value=5),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def tie_heavy_pairs(draw):
    pool_x = draw(st.lists(_tau_values, min_size=1, max_size=6))
    pool_y = draw(st.lists(_tau_values, min_size=1, max_size=6))
    n = draw(st.integers(min_value=2, max_value=300))
    x = draw(st.lists(st.sampled_from(pool_x), min_size=n, max_size=n))
    y = draw(st.lists(st.sampled_from(pool_y), min_size=n, max_size=n))
    return x, y


@settings(max_examples=120, deadline=None)
@given(tie_heavy_pairs())
@example(([2, 2, 2], [1, 2, 3]))
@example(([1, 2, 3], [4, 4, 4]))
def test_statistics_from_a_shared_table_equal_the_vector_calls(xy):
    # ties from small pools, and a one-value pool for a constant vector (tau and rho None)
    x, y = xy
    ids = [f"i{k:03d}" for k in range(len(x))]
    [(_, _, xs, ys, table)] = rater_pairs([_vec("a", ids, x), _vec("b", ids, y)])
    assert (xs, ys) == (x, y)
    labels = sorted(set(x) | set(y))
    for given_table in (table, _table(x, y)):
        for statistic in (kendall_tau_b, spearman_rho, mse):
            assert statistic(xs, ys, given_table) == statistic(x, y)
        assert per_label_prf(xs, ys, labels, given_table) == per_label_prf(x, y, labels)


@settings(max_examples=120, deadline=None)
@given(tie_heavy_pairs())
def test_tau_b_equals_pairwise_oracle_exactly(xy):
    # exact equality: the O(n log n) count must reproduce the pairwise
    # count's integers, so the closing float division is bit-identical
    x, y = xy
    assert kendall_tau_b(x, y) == tau_b_oracle(x, y)


@st.composite
def tied_integer_pairs(draw):
    """Integer score vectors of up to 2,000 items drawn from pools of one to six
    values, so ties are heavy and a one-value pool gives a constant vector."""
    pool_x = draw(st.lists(st.integers(min_value=-3, max_value=7), min_size=1, max_size=6))
    pool_y = draw(st.lists(st.integers(min_value=-3, max_value=7), min_size=1, max_size=6))
    n = draw(st.integers(min_value=2, max_value=2000))
    rng = draw(st.randoms(use_true_random=False))
    return [rng.choice(pool_x) for _ in range(n)], [rng.choice(pool_y) for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(tied_integer_pairs())
def test_rho_and_mse_equal_the_item_by_item_sums_exactly(xy):
    # exact equality: summing over count-table cells must reproduce the
    # item-by-item sums bit for bit
    x, y = xy
    assert spearman_rho(x, y) == rho_sequential(x, y)
    assert mse(x, y) == mse_sequential(x, y)
