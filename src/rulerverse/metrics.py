"""Agreement and classification statistics, implemented from first principles.

Everything here is a pure function over immutable inputs.  The paired
statistics work from count tables, not from the items one by one, and
`rater_pairs` builds each pair's table once for all of them.  Undefined
results (constant vectors, zero expected disagreement) are returned as None,
never as a sentinel number; aggregation layers skip them and report the skip
count.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    EmptyInput,
    InsufficientOverlap,
    LabelError,
    LengthMismatch,
    MissingValue,
    NoCommonItems,
    TooFewItems,
)

Number = int | float


@dataclass(frozen=True)
class RatingVector:
    """One rater's scores by item id; an item the rater skipped is absent.

    The paired statistics below take two fully observed score lists of equal
    length; `common_items` (or `rater_pairs`) aligns two raters into them.
    """

    scores: dict[str, Number]
    rater_id: str = ""

    def common_items(self, other: "RatingVector") -> tuple[list[Number], list[Number]]:
        """Scores of both raters over the sorted intersection of rated items."""
        mine, theirs = self.scores, other.scores
        # when `mine` is in sorted order, as `agree` builds it, the sort is one linear pass
        shared = sorted([i for i in mine if i in theirs])
        return [mine[i] for i in shared], [theirs[i] for i in shared]


# -- paired statistics from count tables --
#
# Scores lie on small scales, so the items of a rater pair fall into a few
# (x, y) cells.  tau-b, rho, MSE and the confusion table depend only on the
# cell counts, so each reads the pair's count table: Counter(zip(xs, ys)) and
# its marginals.  Given a prebuilt `table`, a statistic does not read x and y.
# Continuous data gives one cell per item and costs O(n log n).

CountTable = tuple[int, Counter, Counter, Counter]


def _cells(x: Iterable, y: Iterable) -> CountTable:
    """Count table of two score sequences, checked to pair up item for item."""
    xs, ys = list(x), list(y)
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} vs {len(ys)} items")
    cells = Counter(zip(xs, ys))
    by_x: Counter = Counter()
    by_y: Counter = Counter()
    for (a, b), w in cells.items():
        by_x[a] += w
        by_y[b] += w
    return len(xs), cells, by_x, by_y


def _paired(x, y, table: CountTable | None, min_len: int) -> CountTable:
    """`table`, or else the count table of x and y, checked to hold at least
    `min_len` items and no missing score."""
    n, cells, by_x, by_y = _cells(x, y) if table is None else table
    if n < min_len:
        raise TooFewItems(f"need at least {min_len} items, got {n}")
    if None in by_x or None in by_y:
        raise MissingValue("paired metrics do not accept missing scores")
    return n, cells, by_x, by_y


def _tie_pairs(counts: Counter) -> int:
    """Number of unordered item pairs sharing a key: sum of t*(t-1)/2 per key."""
    return sum(t * (t - 1) // 2 for t in counts.values())


def kendall_tau_b(x, y, table: CountTable | None = None) -> float | None:
    """Kendall rank correlation with the tie correction in both variables.

    tau_b = (C - D) / sqrt((n0 - n1) * (n0 - n2))

    where C and D count concordant and discordant item pairs, n0 = n(n-1)/2,
    and n1, n2 count pairs tied within x and within y; the tie counts come
    from the marginal counts.  D comes from Knight's (1966) pass over the
    cells sorted by (x, y): tied x values sit in y order, so a pair is
    discordant exactly when the later item has the smaller y, and a Fenwick
    tree over y ranks counts, for each cell, the earlier items with a larger
    y, weighted by cell count.  C follows from C + D = n0 - n1 - n2 + n3, with
    n3 the pairs tied in both.  Every count is an exact integer.  Returns None
    when either vector is constant enough to zero a denominator factor.
    """
    n, cells, by_x, by_y = _paired(x, y, table, min_len=2)
    n0 = n * (n - 1) // 2
    denom_x = n0 - _tie_pairs(by_x)
    denom_y = n0 - _tie_pairs(by_y)
    if denom_x == 0 or denom_y == 0:
        return None
    rank = {v: r for r, v in enumerate(sorted(by_y), start=1)}
    size = len(rank)
    tree = [0] * (size + 1)
    discordant = seen = 0
    for (_, b), w in sorted(cells.items()):
        r = i = rank[b]
        not_above = 0  # earlier items with a y rank <= r
        while i:
            not_above += tree[i]
            i -= i & -i
        discordant += w * (seen - not_above)
        seen += w
        i = r
        while i <= size:
            tree[i] += w
            i += i & -i
    concordant = denom_x + denom_y - n0 + _tie_pairs(cells) - discordant
    return (concordant - discordant) / math.sqrt(denom_x * denom_y)


def _average_ranks(counts: Counter) -> dict:
    """1-based rank of each distinct value; tied items share the mean of their
    rank positions.  Every rank is a half-integer."""
    ranks = {}
    first = 0  # 0-based position of the value's first item
    for v in sorted(counts):
        last = first + counts[v] - 1
        ranks[v] = (first + last) / 2.0 + 1.0
        first = last + 1
    return ranks


def spearman_rho(x, y, table: CountTable | None = None) -> float | None:
    """Pearson correlation of average ranks; None for a constant input.

    The Pearson sums run over the cells, weighted by count.  Ranks are
    half-integers, so every term is an exact quarter-integer and, for n up to
    about 10**5, every partial sum is exact: the result does not depend on the
    order of the terms.
    """
    n, cells, by_x, by_y = _paired(x, y, table, min_len=2)
    rank_x, rank_y = _average_ranks(by_x), _average_ranks(by_y)
    mean_x = sum(w * rank_x[a] for a, w in by_x.items()) / n
    mean_y = sum(w * rank_y[b] for b, w in by_y.items()) / n
    dev_x = {a: r - mean_x for a, r in rank_x.items()}
    dev_y = {b: r - mean_y for b, r in rank_y.items()}
    var_x = sum(w * dev_x[a] ** 2 for a, w in by_x.items())
    var_y = sum(w * dev_y[b] ** 2 for b, w in by_y.items())
    if var_x == 0.0 or var_y == 0.0:
        return None
    cov = sum(w * dev_x[a] * dev_y[b] for (a, b), w in cells.items())
    return cov / math.sqrt(var_x * var_y)


def mse(x, y, table: CountTable | None = None) -> float:
    """Mean of squared score differences, summed over the cells by count;
    for integer scores the sum is an exact integer."""
    n, cells, _, _ = _paired(x, y, table, min_len=1)
    return sum(w * (a - b) ** 2 for (a, b), w in cells.items()) / n


# -- Krippendorff's alpha --

ALPHA_LEVELS = ("nominal", "ordinal", "interval")


def _coincidence_matrix(
    units: Iterable[Sequence[Number]], values: Sequence[Number]
) -> dict[Number, dict[Number, float]]:
    """Pairwise-ratings count matrix.

    Each unit (item) rated by m >= 2 raters contributes every ordered rating
    pair with weight 1/(m-1), so a unit adds m ratings worth of mass in total.
    """
    o = {v: {w: 0.0 for w in values} for v in values}
    for unit in units:
        weight = 1.0 / (len(unit) - 1)
        for a, b in permutations(unit, 2):
            o[a][b] += weight
    return o


def _difference_fn(
    level: str, values: Sequence[Number], marginals: dict[Number, float]
) -> Callable[[Number, Number], float]:
    if level == "nominal":
        return lambda c, k: 0.0 if c == k else 1.0
    if level == "interval":
        return lambda c, k: float(c - k) ** 2

    if level == "ordinal":
        # delta(c,k) = (sum of marginal frequencies of every value between c
        # and k inclusive, minus half the endpoints') squared
        ordered = sorted(values)

        def ordinal(c: Number, k: Number) -> float:
            lo, hi = min(c, k), max(c, k)
            between = sum(marginals[g] for g in ordered if lo <= g <= hi)
            return (between - (marginals[lo] + marginals[hi]) / 2.0) ** 2

        return ordinal
    raise ValueError(f"level must be one of {ALPHA_LEVELS}, got {level!r}")


def krippendorff_alpha(
    ratings: Sequence[Sequence[Number | None]], level: str = "ordinal"
) -> float | None:
    """Chance-corrected multi-rater agreement, alpha = 1 - D_o / D_e.

    `ratings` is a raters x items matrix; None marks a missing rating.  Items
    with fewer than two ratings are excluded.  Observed and expected
    disagreement come from the coincidence matrix o and its marginals n_c:

        D_o = (1/n)       * sum_{c,k} o[c][k]   * delta(c, k)
        D_e = (1/(n(n-1))) * sum_{c,k} n_c * n_k * delta(c, k)

    Perfect agreement yields exactly 1.0.  A single distinct value everywhere
    makes D_e zero; that is undefined and returned as None.
    """
    if len(ratings) < 2:
        raise InsufficientOverlap("need at least 2 raters")
    n_items = {len(row) for row in ratings}
    if len(n_items) > 1:
        raise LengthMismatch("all raters must cover the same item axis")

    units = []
    for col in zip(*ratings):
        unit = [v for v in col if v is not None]
        if len(unit) >= 2:
            units.append(unit)
    if not units:
        raise InsufficientOverlap("no item carries two or more ratings")

    values = sorted({v for unit in units for v in unit})
    o = _coincidence_matrix(units, values)
    marginals = {v: sum(o[v].values()) for v in values}
    n = sum(marginals.values())
    delta = _difference_fn(level, values, marginals)

    d_observed = sum(o[c][k] * delta(c, k) for c in values for k in values) / n
    d_expected = sum(
        marginals[c] * marginals[k] * delta(c, k) for c in values for k in values
    ) / (n * (n - 1))
    if d_expected == 0.0:
        return None
    return 1.0 - d_observed / d_expected


# -- classification --

@dataclass(frozen=True)
class LabelStats:
    precision: float
    recall: float
    f1: float
    support: int
    zero_division: bool = False


@dataclass
class ClassificationReport:
    label_order: tuple
    per_label: dict
    accuracy: float
    confusion: dict  # confusion[gold][pred] -> count
    n_items: int


def per_label_prf(
    gold: Sequence, pred: Sequence, label_set: Sequence, table: CountTable | None = None
) -> ClassificationReport:
    """Per-label precision/recall/F1 with support, accuracy, and confusion counts.

    The confusion table is read from the (gold, pred) count table, or `table`.
    Zero-denominator cases score 0.0 and are flagged via zero_division rather
    than erroring, matching the usual convention for absent labels.
    """
    n, cells, by_gold, by_pred = _cells(gold, pred) if table is None else table
    if n == 0:
        raise EmptyInput("no items to score")
    labels = tuple(label_set)
    known = set(labels)
    for value in by_gold:
        if value not in known:
            raise LabelError(f"gold label {value!r} outside label set")
    for value in by_pred:
        if value not in known:
            raise LabelError(f"predicted label {value!r} outside label set")

    confusion = {g: {p: cells[g, p] for p in labels} for g in labels}

    per_label: dict = {}
    for label in labels:
        tp = confusion[label][label]
        fp = sum(confusion[g][label] for g in labels if g != label)
        fn = sum(confusion[label][p] for p in labels if p != label)
        # undefined denominators score 0.0 and set the flag; a genuine all-miss
        # label (tp=0 with fp and fn present) scores 0.0 unflagged
        zero = tp + fp == 0 or tp + fn == 0
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall > 0.0:
            f1 = 2.0 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        per_label[label] = LabelStats(
            precision=precision, recall=recall, f1=f1,
            support=tp + fn, zero_division=zero,
        )

    accuracy = sum(confusion[label][label] for label in labels) / n
    return ClassificationReport(
        label_order=labels, per_label=per_label, accuracy=accuracy,
        confusion=confusion, n_items=n,
    )


# -- multi-rater aggregation --

AlignedPair = tuple[str, str, list[Number], list[Number], CountTable]
PairedMetric = Callable[[Sequence[Number], Sequence[Number], CountTable], float | None]


def rater_pairs(
    group_a: Sequence[RatingVector], group_b: Sequence[RatingVector] | None = None
) -> Iterator[AlignedPair]:
    """(rater_a, rater_b, xs, ys, table) for each rater pair, aligned on common
    items; `table` is the count table of xs and ys, for every paired statistic.

    Without `group_b`: every unordered pair within `group_a`, in index order.
    With it: every (a, b) pair across the two groups, `group_a` outermost.
    """
    if group_b is None:
        if len(group_a) < 2:
            raise TooFewItems("need at least 2 raters")
        pairs = combinations(group_a, 2)
    else:
        if not group_a or not group_b:
            raise TooFewItems("both rater groups must be nonempty")
        pairs = product(group_a, group_b)
    for a, b in pairs:
        xs, ys = a.common_items(b)
        if not xs:
            raise NoCommonItems(f"raters {a.rater_id!r} and {b.rater_id!r} share no items")
        yield a.rater_id, b.rater_id, xs, ys, _cells(xs, ys)


def mean_over_pairs(pairs: Iterable[AlignedPair], metric: PairedMetric) -> tuple[float | None, int]:
    """(mean, skipped): the mean of a paired metric over aligned rater pairs,
    and how many pairs it skipped because the metric was undefined for them."""
    values = [metric(xs, ys, table) for _, _, xs, ys, table in pairs]
    defined = [v for v in values if v is not None]
    mean = sum(defined) / len(defined) if defined else None
    return mean, len(values) - len(defined)


@dataclass
class AgreementReport:
    """tau / rho / MSE are pairwise means; alpha is joint over all raters."""

    tau: float | None
    rho: float | None
    mse: float | None
    alpha: float | None
    n_items: int
    n_raters: int
    skipped_pairs: dict[str, int] = field(default_factory=dict)


def rating_matrix(raters: Sequence[RatingVector]) -> list[list[Number | None]]:
    """Raters x items matrix over the union of item ids (sorted), None = unrated."""
    all_ids = sorted({i for r in raters for i in r.scores})
    return [[r.scores.get(i) for i in all_ids] for r in raters]


def compute_agreement(
    raters: Sequence[RatingVector],
    pairs: Sequence[AlignedPair],
    level: str = "ordinal",
) -> AgreementReport:
    """Full agreement report for one score channel between two or more raters;
    `pairs` is `list(rater_pairs(raters))`."""
    tau, tau_skipped = mean_over_pairs(pairs, kendall_tau_b)
    rho, rho_skipped = mean_over_pairs(pairs, spearman_rho)
    mse_mean, mse_skipped = mean_over_pairs(pairs, mse)
    return AgreementReport(
        tau=tau,
        rho=rho,
        mse=mse_mean,
        alpha=krippendorff_alpha(rating_matrix(raters), level=level),
        n_items=len({i for r in raters for i in r.scores}),
        n_raters=len(raters),
        skipped_pairs={"tau": tau_skipped, "rho": rho_skipped, "mse": mse_skipped},
    )


@dataclass
class PairwiseClassification:
    per_pair: list[tuple[str, str, ClassificationReport]]
    mean_per_label_f1: dict
    mean_accuracy: float


def classify_pairs(pairs: Iterable[AlignedPair], label_set: Sequence) -> PairwiseClassification:
    """Per-label F1 and accuracy averaged over aligned pairs; rater_a plays gold."""
    per_pair = [(a, b, per_label_prf(xs, ys, label_set, table)) for a, b, xs, ys, table in pairs]
    mean_f1 = {
        label: sum(rep.per_label[label].f1 for _, _, rep in per_pair) / len(per_pair)
        for label in label_set
    }
    mean_acc = sum(rep.accuracy for _, _, rep in per_pair) / len(per_pair)
    return PairwiseClassification(
        per_pair=per_pair, mean_per_label_f1=mean_f1, mean_accuracy=mean_acc
    )
