"""Evaluators and solvers for weighted and asymmetric (multicolor) discrepancy.

The exact solvers run on plain integers: a matrix stores A = B/L entrywise
(integer numerators B over one denominator L), and with p = pn/pd the row value
row_i . (p*1 - x) equals (pn*T_i - pd * sum of selected B_ij) / (L*pd), where
T_i is the i-th row sum of B. Minimizing the max absolute row value is then an
integer problem, and the reported Fraction is exact by construction.

The branch-and-bound prunes with per-row reachable intervals: entries are
nonnegative, so selecting columns only subtracts, and a branch is dead once
some row can no longer get below the incumbent. One search routine serves
the weighted solver in two modes, always over merged duplicate columns (only
the selection count within an identical-column group matters): the value
search finds the optimum, and feasibility searches, each stopping at the first selection
within the optimum, rebuild the witness column by column in original order.
That keeps the documented tie-break: the lexicographically smallest optimal x.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import sub

from .errors import CapExceededError, DimensionMismatchError, InputError
from .matrices import RatMatrix, stack_vertical
from .rational import format_rational

DEFAULT_EXACT_WIDTH_CAP = 24
DEFAULT_ENUMERATION_CAP = 20_000_000

ORACLE_KINDS = ("exact", "greedy", "local-search")


@dataclass(frozen=True)
class OracleConfig:
    """How to answer weighted-discrepancy queries.

    kind "exact" runs the branch-and-bound (refusing widths beyond
    exact_width_cap); "greedy" runs one seeded descent; "local-search"
    restarts descents until the move budget is spent.
    """

    kind: str = "exact"
    budget: int = 2000
    seed: int = 0
    exact_width_cap: int = DEFAULT_EXACT_WIDTH_CAP

    def __post_init__(self):
        if self.kind not in ORACLE_KINDS:
            raise InputError(f"unknown oracle kind {self.kind!r}")
        if self.budget < 1:
            raise InputError("budget must be >= 1")


@dataclass(frozen=True)
class WdiscResult:
    value: Fraction
    witness: tuple
    nodes_explored: int
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "value": format_rational(self.value),
            "witness": list(self.witness),
            "exact": self.exact,
            "nodes": self.nodes_explored,
        }


@dataclass(frozen=True)
class OdiscResult:
    value: Fraction
    witness: tuple
    nodes_explored: int
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "value": format_rational(self.value),
            "witness": list(self.witness),
            "exact": self.exact,
        }


def _check_probability(p: Fraction) -> Fraction:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError(f"p must lie in [0, 1], got {p}")
    return p


def _check_selection(x, cols: int) -> tuple:
    x = tuple(x)
    if len(x) != cols:
        raise DimensionMismatchError(f"selection length {len(x)} != cols {cols}")
    for bit in x:
        if bit not in (0, 1):
            raise InputError("selection entries must be 0 or 1")
    return x


def eval_weighted(matrix: RatMatrix, p: Fraction, x) -> Fraction:
    """Exact max over rows of |row . (p*1 - x)|."""
    p = _check_probability(p)
    x = _check_selection(x, matrix.cols)
    pn, pd = p.numerator, p.denominator
    best = max(abs(pn * sum(row) - pd * sum(compress(row, x))) for row in matrix.nums)
    return Fraction(best, pd * matrix.den)


def _check_blocks(blocks) -> list:
    blocks = list(blocks)
    if not blocks:
        raise InputError("need at least one block")
    cols = blocks[0].cols
    for block in blocks[1:]:
        if block.cols != cols:
            raise DimensionMismatchError("blocks must share a column count")
    return blocks


def _check_coloring(chi, cols: int, k: int) -> tuple:
    chi = tuple(chi)
    if len(chi) != cols:
        raise DimensionMismatchError(f"coloring length {len(chi)} != cols {cols}")
    for color in chi:
        if not 1 <= color <= k:
            raise InputError(f"color {color} outside 1..{k}")
    return chi


def eval_asymmetric(blocks, chi) -> Fraction:
    """Exact max over colors s of ||A^s((1/k)*1 - indicator(chi == s))||_inf.

    With k identical blocks this is the plain multicolor discrepancy of the
    coloring; with one block (k = 1) the argument is identically zero.
    """
    blocks = _check_blocks(blocks)
    k = len(blocks)
    chi = _check_coloring(chi, blocks[0].cols, k)
    stacked = stack_vertical(blocks)
    picks = [[c == s for c in chi] for s in range(1, k + 1)]
    best = max(
        abs(sum(row) - k * sum(compress(row, picks[s])))
        for s, row in zip(_owners(blocks), stacked.nums)
    )
    return Fraction(best, k * stacked.den)


def _owners(blocks) -> list:
    """The block index of each row of `stack_vertical(blocks)`."""
    return [s for s, block in enumerate(blocks) for _ in range(block.rows)]


# ---------------------------------------------------------------------------
# Scaled-integer core for the weighted solvers.
# ---------------------------------------------------------------------------


def _scale_weighted(matrix: RatMatrix, p: Fraction):
    """Integer form of the weighted objective.

    Returns (columns, start, denom) with columns[j][i] the amount selecting
    column j subtracts from row i, start[i] the row value with nothing
    selected, and true row values = scaled values / denom.
    """
    pn, pd = p.numerator, p.denominator
    columns = [tuple(pd * a for a in col) for col in zip(*matrix.nums)]
    start = tuple(pn * sum(row) for row in matrix.nums)
    return columns, start, matrix.den * pd


def _prune(values, remaining, limit) -> bool:
    """True when no completion can get max |row| below `limit` (exclusive).

    Row i's final value ranges over [values[i] - remaining[i], values[i]], so
    its least reachable |final| is its gap to 0 from that interval, -values[i]
    or values[i] - remaining[i]; the branch is dead once one gap reaches
    `limit`, and at once when `limit` is 0."""
    if limit <= 0:
        return True
    for value, rem in zip(values, remaining):
        if -value >= limit or value - rem >= limit:
            return True
    return False


def _group_columns(columns, indices):
    """Merge identical columns among `indices` into (column, its indices
    ascending); order groups by descending mass, ties by first index."""
    members = {}
    for j in indices:
        members.setdefault(columns[j], []).append(j)
    groups = list(members.items())
    groups.sort(key=lambda g: (-sum(g[0]), g[1][0]))
    return groups


def _remaining(columns, n):
    """remaining[d][i]: what columns d, d+1, ... can still subtract from row i."""
    remaining = [(0,) * n]
    for col in reversed(columns):
        remaining.append(tuple(r + c for r, c in zip(remaining[-1], col)))
    remaining.reverse()
    return remaining


def _search(columns, indices, values, limit, first):
    """Least max |row value| below `limit` over selections of the columns in
    `indices`, from row values `values`; with `first`, the first selection
    found below `limit` instead.

    Only how many columns of an identical group are selected matters, so the
    search branches on each group's count 0, 1, ..., groups in descending
    mass, and prunes a branch once no completion beats the incumbent.
    Returns (value, selected, nodes): `selected` lists the chosen indices,
    each group's 1s on its latest indices, and is None when no selection
    gets below `limit`.
    """
    groups = _group_columns(columns, indices)
    suffix = _remaining([tuple(len(members) * c for c in col) for col, members in groups], len(values))
    state = [limit, None, 0]  # incumbent value, its count per group, nodes
    _descend(groups, suffix, 0, values, [0] * len(groups), state, first)
    best, counts, nodes = state
    if counts is None:
        return best, None, nodes
    selected = []
    for (_col, members), count in zip(groups, counts):
        selected.extend(members[len(members) - count:])
    return best, selected, nodes


def _descend(groups, suffix, depth, values, counts, state, first):
    """One node of `_search`: branch on group `depth`'s count. Returns True
    once a `first` search has its selection."""
    state[2] += 1
    if depth == len(groups):
        worst = max(map(abs, values))
        if worst < state[0]:
            state[0] = worst
            state[1] = tuple(counts)
            return first
        return False
    col, members = groups[depth]
    below = suffix[depth + 1]
    current = values
    for count in range(len(members) + 1):
        if count:
            current = tuple(map(sub, current, col))
        if not _prune(current, below, state[0]):
            counts[depth] = count
            if _descend(groups, suffix, depth + 1, current, counts, state, first):
                return True
    return False


def _lex_least(columns, start, target, selected):
    """Lexicographically smallest x whose max |row value| is at most `target`,
    the optimum, given one optimal selection `selected`.

    `known` stays an optimal selection that agrees with the fixed prefix.
    Where known[d] is 0, x_d = 0 is fixed at once. Where it is 1, a `first`
    search over columns d+1, ... with x_d = 0 decides: on success x_d = 0
    and its selection becomes the tail of `known`, otherwise x_d = 1.
    """
    m = len(columns)
    known = [0] * m
    for j in selected:
        known[j] = 1
    values = start
    nodes = 0
    for d in range(m):
        if not known[d]:
            continue
        _value, tail, searched = _search(columns, range(d + 1, m), values, target + 1, True)
        nodes += searched
        if tail is None:
            values = tuple(map(sub, values, columns[d]))
        else:
            known[d:] = [0] * (m - d)
            for j in tail:
                known[j] = 1
    return tuple(known), nodes


def check_exact_width(cols: int, config: OracleConfig) -> None:
    """Refuse a width beyond config.exact_width_cap, the exact solver's limit;
    callers that know the width before building a matrix check it first."""
    if cols > config.exact_width_cap:
        raise CapExceededError(f"width {cols} exceeds exact cap {config.exact_width_cap}")


def check_enumeration(k: int, m: int, cap: int) -> None:
    """Refuse an exact search over k^m colorings or allocations beyond `cap`;
    callers that know k and m before building their input check it first."""
    if k**m > cap:
        raise CapExceededError(f"k^m = {k**m} exceeds enumeration cap {cap}")


def wdisc_exact(matrix: RatMatrix, p: Fraction, config: OracleConfig = OracleConfig()) -> WdiscResult:
    """Exact minimum of ||A(p*1 - x)||_inf over x in {0,1}^m.

    Exhaustive-equivalent branch and bound over merged duplicate columns in
    two phases. The value search finds the optimum, its first leaf the empty
    selection. The lexicographically smallest optimal x is then fixed column
    by column: x_d = 0 whenever some completion of the prefix with x_d = 0
    still attains the optimum, which a feasibility search decides unless the
    optimal selection at hand already has x_d = 0. nodes_explored sums the
    nodes of both phases. Refuses widths beyond config.exact_width_cap.
    """
    p = _check_probability(p)
    check_exact_width(matrix.cols, config)
    columns, start, denom = _scale_weighted(matrix, p)
    value, selected, nodes_value = _search(columns, range(matrix.cols), start, max(map(abs, start)) + 1, False)
    witness, nodes_witness = _lex_least(columns, start, value, selected)
    return WdiscResult(
        value=Fraction(value, denom),
        witness=witness,
        nodes_explored=nodes_value + nodes_witness,
        exact=True,
    )


# ---------------------------------------------------------------------------
# Heuristic weighted solver.
# ---------------------------------------------------------------------------


def _descent(values, columns, x, budget, nodes):
    """Steepest-descent on single-bit flips and 1<->0 pair swaps, in place.

    Returns the number of moves used; candidate evaluations accumulate in
    nodes[0], one per flip and one per pair swap considered in each move.
    Each move takes the first candidate, in scan order (flips by column,
    then swaps by (one, zero) column pair), whose max |row value| is
    strictly below the best score so far, so runs are reproducible.

    Early reject: a candidate's score is the max over rows, so it is at
    least its value on any one row. Rows are checked worst first, and a
    candidate is dropped as soon as one row reaches the best score. Every
    dropped candidate provably scores >= best_score and could never have
    been taken, so the moves and the tie-break are those of the full scan.
    """
    n = len(values)
    m = len(columns)
    used = 0
    while used < budget:
        order = sorted(range(n), key=lambda i: -abs(values[i]))
        worst, rest = order[0], order[1:]
        value_worst = values[worst]
        best_score = abs(value_worst)
        best_move = None
        ones = [j for j in range(m) if x[j] == 1]
        zeros = [j for j in range(m) if x[j] == 0]
        nodes[0] += m + len(ones) * len(zeros)
        for j in range(m):
            col = columns[j]
            sign = -1 if x[j] == 0 else 1
            score = abs(value_worst + sign * col[worst])
            if score >= best_score:
                continue
            for i in rest:
                v = abs(values[i] + sign * col[i])
                if v >= best_score:
                    break
                if v > score:
                    score = v
            else:
                best_score = score
                best_move = (j,)
        zeros_worst = [(b, columns[b][worst]) for b in zeros]
        for a in ones:
            ca = columns[a]
            base = value_worst + ca[worst]
            for b, cb_worst in zeros_worst:
                score = abs(base - cb_worst)
                if score >= best_score:
                    continue
                cb = columns[b]
                for i in rest:
                    v = abs(values[i] + ca[i] - cb[i])
                    if v >= best_score:
                        break
                    if v > score:
                        score = v
                else:
                    best_score = score
                    best_move = (a, b)
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


def wdisc_heuristic(matrix: RatMatrix, p: Fraction, config: OracleConfig = OracleConfig(kind="local-search")) -> WdiscResult:
    """Upper-bounding local search for the weighted discrepancy.

    Random restarts initialize each column to 1 with probability p, then
    steepest descent over bit flips and pair swaps runs to a local minimum.
    "greedy" stops after the first descent; "local-search" restarts until the
    move budget is exhausted. Deterministic for a fixed seed, and the value
    always equals the returned witness re-evaluated exactly.
    """
    p = _check_probability(p)
    rng = random.Random(config.seed)
    columns, start, denom = _scale_weighted(matrix, p)
    m = matrix.cols
    pn, pd = p.numerator, p.denominator
    nodes = [0]

    best_scaled = None
    best_x = None
    budget_left = config.budget
    while budget_left > 0:
        # Each bit is 1 iff rng.random() < p, compared exactly in integers
        # instead of through a Fraction built per draw.
        x = []
        for _ in range(m):
            num, den = rng.random().as_integer_ratio()
            x.append(1 if num * pd < pn * den else 0)
        values = list(start)
        for j in range(m):
            if x[j]:
                for i in range(len(values)):
                    values[i] -= columns[j][i]
        budget_left -= _descent(values, columns, x, budget_left, nodes)
        scaled = max(abs(v) for v in values)
        if best_scaled is None or scaled < best_scaled:
            best_scaled = scaled
            best_x = tuple(x)
        if config.kind == "greedy":
            break
        budget_left -= 1  # each restart costs one unit, guaranteeing progress

    return WdiscResult(value=Fraction(best_scaled, denom), witness=best_x, nodes_explored=nodes[0], exact=False)


def oracle_solve(matrix: RatMatrix, p: Fraction, config: OracleConfig = OracleConfig()) -> WdiscResult:
    """Dispatch a weighted-discrepancy query per the configured oracle kind."""
    if config.kind == "exact":
        return wdisc_exact(matrix, p, config)
    return wdisc_heuristic(matrix, p, config)


# ---------------------------------------------------------------------------
# Exact multicolor / asymmetric search.
# ---------------------------------------------------------------------------


def odisc_exact(blocks, cap: int = DEFAULT_ENUMERATION_CAP) -> OdiscResult:
    """Exact minimum over all k^m colorings of the asymmetric discrepancy.

    Colorings are explored in one sequential search in mixed-radix order
    (earlier columns more significant, colors ascending) with incremental
    per-color row sums and interval pruning, so the returned witness is the
    lexicographically smallest optimal coloring. When all blocks are
    identical, relabelling the colors keeps the value, and the lex-least
    coloring of each relabelling class is the one that introduces its colors
    in order 1, 2, ...; the search then visits only those colorings, which
    leaves value and witness unchanged.
    """
    blocks = _check_blocks(blocks)
    k = len(blocks)
    m = blocks[0].cols
    check_enumeration(k, m, cap)
    symmetric = all(block == blocks[0] for block in blocks)
    stacked = stack_vertical(blocks)
    best, chi, nodes = _odisc_dfs(stacked.nums, _owners(blocks), k, symmetric)
    return OdiscResult(value=Fraction(best, k * stacked.den), witness=chi, nodes_explored=nodes, exact=True)


def _odisc_dfs(rows, owners, k, symmetric):
    """Search colorings of the columns of the integer rows `rows`, row r
    belonging to block owners[r]; returns (scaled value, coloring, nodes).

    Row r's value is T - k * (mass of its block's color); every value lies in
    [T - k*T, T], so the incumbent starts above k * max T, where every
    coloring beats it. With `symmetric`, color c + 1 is tried only once
    colors 1..c have appeared.
    """
    columns = [tuple(k * a for a in col) for col in zip(*rows)]
    start = tuple(map(sum, rows))
    rows_of = [[r for r, s in enumerate(owners) if s == color] for color in range(k)]
    state = [k * max(start) + 1, None, 0]  # incumbent value, its coloring, nodes
    chi = [0] * len(columns)
    _color(columns, _remaining(columns, len(rows)), rows_of, symmetric, 0, start, chi, 0, state)
    return tuple(state)


def _color(columns, suffix, rows_of, symmetric, depth, values, chi, used_colors, state):
    """One node of `_odisc_dfs`: try each color for column `depth`."""
    state[2] += 1
    if depth == len(columns):
        worst = max(map(abs, values))
        if worst < state[0]:
            state[0], state[1] = worst, tuple(chi)
        return
    if _prune(values, suffix[depth], state[0]):
        return
    col = columns[depth]
    k = len(rows_of)
    for color in range(1, (min(k, used_colors + 1) if symmetric else k) + 1):
        chi[depth] = color
        child = list(values)
        for r in rows_of[color - 1]:
            child[r] -= col[r]
        _color(columns, suffix, rows_of, symmetric, depth + 1, child, chi, max(used_colors, color), state)
