"""Independent brute-force oracles for the statistics modules.

These deliberately take different computational routes than the library:
sign-product accumulation for tau, count-based ranks plus the raw-sum Pearson
formula for rho, and a permutations-built coincidence matrix for alpha.  They
are slow and only suitable for small inputs.  The item-by-item formulas for
rho and MSE that the library used before it computed from count tables are
kept here too, as the reference its results must equal bit for bit.  So is the
mock judge's linear scan of its rules, the reference for its needle index.
"""
from __future__ import annotations

import hashlib
import math
import re
from itertools import permutations


def tau_b_oracle(x, y):
    """Tau-b via sign products and per-pair tie counting."""
    n = len(x)
    s = 0.0
    ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            sign_x = (dx > 0) - (dx < 0)
            sign_y = (dy > 0) - (dy < 0)
            s += sign_x * sign_y
            if sign_x == 0:
                ties_x += 1
            if sign_y == 0:
                ties_y += 1
    n0 = n * (n - 1) // 2
    if n0 == ties_x or n0 == ties_y:
        return None
    return s / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def _count_ranks(values):
    """rank_i = (#strictly smaller) + (#equal including self + 1) / 2."""
    ranks = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def rho_oracle(x, y):
    """Spearman rho via count-based average ranks and raw-sum Pearson."""
    n = len(x)
    rx = _count_ranks(x)
    ry = _count_ranks(y)
    sum_x = sum(rx)
    sum_y = sum(ry)
    sum_xy = sum(a * b for a, b in zip(rx, ry))
    sum_x2 = sum(a * a for a in rx)
    sum_y2 = sum(b * b for b in ry)
    num = n * sum_xy - sum_x * sum_y
    den_x = n * sum_x2 - sum_x * sum_x
    den_y = n * sum_y2 - sum_y * sum_y
    if den_x == 0 or den_y == 0:
        return None
    return num / math.sqrt(den_x * den_y)


def alpha_coincidence_oracle(ratings, level="nominal"):
    """Krippendorff's alpha from a permutations-built coincidence matrix.

    `ratings` is raters x items with None for missing.  Each pairable unit
    contributes all ordered rating permutations of length 2, each weighted by
    1/(m_u - 1).  Returns None when expected disagreement is zero.
    """
    units = []
    for column in zip(*ratings):
        unit = [v for v in column if v is not None]
        if len(unit) >= 2:
            units.append(unit)
    if not units:
        raise ValueError("no pairable units")

    values = sorted({v for unit in units for v in unit})
    index = {v: i for i, v in enumerate(values)}
    size = len(values)
    matrix = [[0.0] * size for _ in range(size)]
    for unit in units:
        for a, b in permutations(unit, 2):
            matrix[index[a]][index[b]] += 1.0 / (len(unit) - 1)

    marginals = [sum(row) for row in matrix]
    total = sum(marginals)

    def delta(i, j):
        if level == "nominal":
            return 0.0 if i == j else 1.0
        if level == "interval":
            return float(values[i] - values[j]) ** 2
        if level == "ordinal":
            lo, hi = min(i, j), max(i, j)
            between = sum(marginals[g] for g in range(lo, hi + 1))
            return (between - (marginals[lo] + marginals[hi]) / 2.0) ** 2
        raise ValueError(level)

    observed = 0.0
    expected = 0.0
    for i in range(size):
        for j in range(size):
            observed += matrix[i][j] * delta(i, j)
            expected += marginals[i] * marginals[j] * delta(i, j)
    observed /= total
    expected /= total * (total - 1)
    if expected == 0.0:
        return None
    return 1.0 - observed / expected


def alpha_unit_pair_oracle(ratings, level="nominal"):
    """Second alpha route with no coincidence matrix at all: disagreement is
    averaged directly over within-unit pairs (observed) and over all pairable
    value pairs (expected).  Nominal and interval only."""
    if level == "ordinal":
        raise ValueError("unit-pair oracle supports nominal and interval only")

    def delta(a, b):
        if level == "nominal":
            return 0.0 if a == b else 1.0
        return float(a - b) ** 2

    units = []
    for column in zip(*ratings):
        unit = [v for v in column if v is not None]
        if len(unit) >= 2:
            units.append(unit)
    if not units:
        raise ValueError("no pairable units")

    n = sum(len(u) for u in units)
    observed = 0.0
    for unit in units:
        within = sum(delta(a, b) for a in unit for b in unit)
        observed += within / (len(unit) - 1)
    observed /= n

    pooled = [v for unit in units for v in unit]
    expected = sum(delta(a, b) for a in pooled for b in pooled) / (n * (n - 1))
    if expected == 0.0:
        return None
    return 1.0 - observed / expected


def average_ranks_sequential(values):
    """1-based ranks; tied values share the mean of their rank positions."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def rho_sequential(x, y):
    """Spearman rho as the Pearson correlation of average ranks, summed item by item."""
    xs, ys = average_ranks_sequential(x), average_ranks_sequential(y)
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys))
    var_x = sum((a - mean_x) ** 2 for a in xs)
    var_y = sum((b - mean_y) ** 2 for b in ys)
    if var_x == 0.0 or var_y == 0.0:
        return None
    return cov / math.sqrt(var_x * var_y)


def mse_sequential(x, y):
    """Mean of squared differences, summed item by item."""
    return sum((a - b) ** 2 for a, b in zip(x, y)) / len(x)


def mock_respond_oracle(script, system_text, user_text):
    """The mock judge's answer by a linear scan of the script's rules: the first, in script
    order, whose conditions all hold, else the default; None where neither answers."""
    prompt = f"{system_text}\n\n{user_text}"
    for rule in script.get("rules", []):
        needles = rule.get("contains", [])
        if not all(needle in prompt for needle in ([needles] if isinstance(needles, str) else needles)):
            continue
        if "regex" in rule and not re.search(rule["regex"], prompt):
            continue
        if "hash" in rule and rule["hash"] != hashlib.sha256(prompt.encode("utf-8")).hexdigest():
            continue
        return rule["response"]
    return script.get("default")
