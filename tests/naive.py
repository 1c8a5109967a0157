"""Independent brute-force references the solver tests compare against.

The exact references enumerate the full search space in lexicographic order
(the weighted one updating its row values per flipped bit rather than
rebuilding them); the local-search reference scores every row of every
candidate move. All use textbook Fraction arithmetic and never prune, sharing
no code with the package's search internals. Keep them obvious.
"""

import random
from fractions import Fraction
from itertools import combinations, product

ZERO = Fraction(0)


def row_value(row, p, x):
    return abs(sum(Fraction(e) * (p - b) for e, b in zip(row, x)))


def naive_wdisc(matrix, p):
    """(value, witness) over all 2^m selections; lex-least witness.

    Visits the selections in `product((0, 1), repeat=m)` order, as a binary
    counter with the last column fastest, and keeps each row's value
    row . (p*1 - x) up to date: a bit set to 1 subtracts its column, a bit
    cleared adds it back. Every selection is scored on every row; only a
    strict improvement replaces the best, so the first optimum in lex order
    is kept.
    """
    p = Fraction(p)
    rows = matrix.entries
    columns = list(zip(*rows))
    values = [p * sum(row, start=ZERO) for row in rows]
    bits = [0] * matrix.cols
    best = (max(abs(v) for v in values), tuple(bits))
    while True:
        j = len(bits) - 1
        while j >= 0 and bits[j]:
            bits[j] = 0
            values = [v + e for v, e in zip(values, columns[j])]
            j -= 1
        if j < 0:
            return best
        bits[j] = 1
        values = [v - e for v, e in zip(values, columns[j])]
        value = max(abs(v) for v in values)
        if value < best[0]:
            best = (value, tuple(bits))


def naive_sylvester(log2):
    """The Sylvester matrix of order 2^log2 from its definition,
    H[i][j] = (-1)^popcount(i & j), as one tuple of +1/-1 per row."""
    n = 1 << log2
    return tuple(tuple(-1 if bin(i & j).count("1") % 2 else 1 for j in range(n)) for i in range(n))


def naive_descent(values, columns, x, budget, nodes):
    """Steepest descent over flips and 1<->0 pair swaps, scoring every row of
    every candidate; the first strict improvement in scan order wins."""
    n = len(values)
    m = len(columns)
    used = 0
    while used < budget:
        best_score = max(abs(v) for v in values)
        best_move = None
        for j in range(m):
            sign = -1 if x[j] == 0 else 1
            score = max(abs(values[i] + sign * columns[j][i]) for i in range(n))
            nodes[0] += 1
            if score < best_score:
                best_score, best_move = score, (j,)
        ones = [j for j in range(m) if x[j] == 1]
        zeros = [j for j in range(m) if x[j] == 0]
        for a in ones:
            for b in zeros:
                score = max(abs(values[i] + columns[a][i] - columns[b][i]) for i in range(n))
                nodes[0] += 1
                if score < best_score:
                    best_score, best_move = score, (a, b)
        if best_move is None:
            break
        if len(best_move) == 1:
            j = best_move[0]
            sign = -1 if x[j] == 0 else 1
            for i in range(n):
                values[i] += sign * columns[j][i]
            x[j] ^= 1
        else:
            a, b = best_move
            for i in range(n):
                values[i] += columns[a][i] - columns[b][i]
            x[a], x[b] = 0, 1
        used += 1
    return used


def naive_wdisc_heuristic(matrix, p, kind, budget, seed):
    """(value, witness, nodes) of the seeded restart local search, in Fractions.

    Row values are row . (p*1 - x) directly; selecting column j subtracts
    column j. Same restart rule as the package: a restart draws each bit as
    1 with probability p, every restart costs one budget unit, and "greedy"
    stops after the first descent.
    """
    p = Fraction(p)
    rng = random.Random(seed)
    m = matrix.cols
    rows = matrix.entries
    columns = [[row[j] for row in rows] for j in range(m)]
    start = [p * sum(row) for row in rows]
    nodes = [0]
    best = None
    budget_left = budget
    while budget_left > 0:
        x = [1 if rng.random() < p else 0 for _ in range(m)]
        values = [v - sum((columns[j][i] for j in range(m) if x[j]), start=ZERO)
                  for i, v in enumerate(start)]
        budget_left -= naive_descent(values, columns, x, budget_left, nodes)
        value = max(abs(v) for v in values)
        if best is None or value < best[0]:
            best = (value, tuple(x))
        if kind == "greedy":
            break
        budget_left -= 1
    return best[0], best[1], nodes[0]


def naive_asymmetric(block_rows, chi):
    """max over colors s and rows of block s (its entries, `block_rows[s-1]`)
    of |row . ((1/k)*1 - indicator(chi == s))|."""
    share = Fraction(1, len(block_rows))
    value = ZERO
    for s, rows in enumerate(block_rows, start=1):
        sel = [1 if c == s else 0 for c in chi]
        for row in rows:
            value = max(value, row_value(row, share, sel))
    return value


def naive_odisc(blocks):
    """(value, coloring) over all k^m colorings; lex-least witness."""
    k = len(blocks)
    m = blocks[0].cols
    block_rows = [block.entries for block in blocks]
    best = None
    for chi in product(range(1, k + 1), repeat=m):
        value = naive_asymmetric(block_rows, chi)
        if best is None or value < best[0]:
            best = (value, chi)
    return best


def naive_agent_scaling(utilities, k, h):
    """One agent's utilities scaled for the allocator's round H = h: 0 on its
    kH most valued goods (ties to the lower index) and on goods it values
    at 0, u / scale elsewhere, where scale is the least utility among those
    kH goods."""
    m = len(utilities)
    order = sorted(range(m), key=lambda g: (-utilities[g], g))
    large = order[: min(k * h, m)]
    scale = min((utilities[g] for g in large), default=ZERO)
    return tuple(
        ZERO if g in large or utilities[g] == ZERO else utilities[g] / scale
        for g in range(m)
    )


def best_removal(agent, goods, c):
    """Smallest remaining bundle value over all removal sets of size <= c."""
    goods = list(goods)
    total = sum((agent[g] for g in goods), start=ZERO)
    best = total
    for size in range(0, min(c, len(goods)) + 1):
        for removed in combinations(goods, size):
            rest = total - sum((agent[g] for g in removed), start=ZERO)
            if rest < best:
                best = rest
    return best


def _agents(instance):
    """(group index, utility Fractions) of every agent, from one read of the
    instance's Fraction view."""
    return [(i, agent) for i, group in enumerate(instance.groups) for agent in group]


def naive_is_ef(instance, bundles, c):
    for i, agent in _agents(instance):
        own = sum((agent[g] for g in bundles[i]), start=ZERO)
        for other in range(instance.k):
            if other != i and own < best_removal(agent, bundles[other], c):
                return False
    return True


def naive_is_prop(instance, bundles, c):
    """PROPc via enumeration of removal subsets outside the bundle."""
    for i, agent in _agents(instance):
        own = sum((agent[g] for g in bundles[i]), start=ZERO)
        share = sum(agent, start=ZERO) / instance.k
        owned = set(bundles[i])
        outside = [g for g in range(instance.m) if g not in owned]
        ok = False
        for size in range(0, min(c, len(outside)) + 1):
            for removed in combinations(outside, size):
                if own >= share - sum((agent[g] for g in removed), start=ZERO):
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    return True


def naive_is_cd(instance, bundles, c):
    """CDc: every agent, whatever its group, judges every ordered bundle pair."""
    for _i, agent in _agents(instance):
        for own in range(instance.k):
            value = sum((agent[g] for g in bundles[own]), start=ZERO)
            for other in range(instance.k):
                if other != own and value < best_removal(agent, bundles[other], c):
                    return False
    return True


NAIVE_CHECKS = {"EF": naive_is_ef, "PROP": naive_is_prop, "CD": naive_is_cd}


def naive_min_c(instance, bundles, tag):
    """Least c the subset-enumerating check passes (every good removed always passes)."""
    check = NAIVE_CHECKS[tag]
    return next(c for c in range(instance.m + 1) if check(instance, bundles, c))
