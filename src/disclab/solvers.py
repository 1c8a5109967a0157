"""Evaluators and solvers for weighted and asymmetric (multicolor) discrepancy.

The exact solvers run on plain integers: a matrix stores A = B/L entrywise
(integer numerators B over one denominator L), and with p = pn/pd the row value
row_i . (p*1 - x) equals (pn*T_i - pd * sum of selected B_ij) / (L*pd), where
T_i is the i-th row sum of B. Minimizing the max absolute row value is then an
integer problem, and the reported Fraction is exact by construction.

The branch-and-bound prunes with per-row reachable intervals: entries are
nonnegative, so selecting columns only subtracts, and a branch is dead once
some row can no longer get below the incumbent. Every exact search keeps a
node's row values packed into one int, a w-bit field per row (`_Packing`),
with w fixed per call so that no borrow crosses a field: a child node is
one subtraction of a packed column, the interval rule is two masked tests
on the fields' top bits, and values are unpacked only at a leaf, which the
rule admits only when it beats the incumbent. One search routine serves
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


class _Packing:
    """Row vectors of one exact search packed into one int, w bits per row.

    Field i of a packed value vector holds v_i + 2^(w-1), so the vector is the
    int sum_i (v_i + 2^(w-1)) * 2^(w*i), and a packed column or remaining mass
    holds its plain entries. A child node is then one subtraction of a packed
    column. w is fixed per call from the row values `start` at the root, each
    row's total column mass `mass` and the initial incumbent `limit`: every
    value the search meets lies in [start_i - mass_i, start_i], so
    2^(w-1) > 2 * max_i(|start_i| + mass_i) + limit keeps every field of the
    expressions below in [0, 2^w), and no borrow crosses between fields.

    The row-interval rule: entries are nonnegative, so selecting only
    subtracts, and row i of a node with values v and remaining mass R ends in
    [v_i - R_i, v_i]. A node is admitted under incumbent `limit` >= 1 while
    every row can still end below it, -limit < v_i and v_i - R_i < limit.
    Packed, with low = (limit - 1) * ones and high = limit * ones, that is two
    masked tests, (P + low) & top == top and (P - R - high) & top == 0: a
    field's top bit says whether it is at least 2^(w-1).
    """

    __slots__ = ("width", "rows", "ones", "top")

    def __init__(self, start, mass, limit: int):
        bound = 2 * max(abs(v) + m for v, m in zip(start, mass)) + limit
        self.width = bound.bit_length() + 1
        self.rows = len(start)
        self.ones = sum(1 << (self.width * i) for i in range(self.rows))
        self.top = self.ones << (self.width - 1)

    def pack(self, column) -> int:
        """A column or mass vector, one plain field per row."""
        return sum(c << (self.width * i) for i, c in enumerate(column))

    def pack_values(self, values) -> int:
        return self.pack(values) + self.top

    def worst(self, packed: int) -> int:
        """max |v_i| of packed row values."""
        width = self.width
        mask = (1 << width) - 1
        half = 1 << (width - 1)
        return max(abs(((packed >> shift) & mask) - half) for shift in range(0, width * self.rows, width))

    def bars(self, limit: int) -> tuple:
        """(low, high) of the row-interval rule under `limit`."""
        return (limit - 1) * self.ones, limit * self.ones

    def admits(self, packed: int, remaining: int, low: int, high: int) -> bool:
        """The row-interval rule; the search loops inline it."""
        top = self.top
        return (packed + low) & top == top and not (packed - remaining - high) & top


def _group_columns(columns, masses, indices):
    """Merge identical columns among `indices` into (column, its indices
    ascending); order groups by descending mass, ties by first index."""
    members = {}
    for j in indices:
        members.setdefault(columns[j], []).append(j)
    groups = list(members.items())
    groups.sort(key=lambda g: (-masses[g[1][0]], g[1][0]))
    return groups


def _remaining(columns):
    """remaining[d]: the packed mass columns d, d+1, ... can still subtract."""
    remaining = [0]
    for col in reversed(columns):
        remaining.append(remaining[-1] + col)
    remaining.reverse()
    return remaining


def _search(packing, columns, masses, indices, values, limit, first):
    """Least max |row value| below `limit` over selections of the packed
    columns in `indices`, from packed row values `values`; with `first`, the
    first selection found below `limit` instead.

    Only how many columns of an identical group are selected matters, so the
    search branches on each group's count 0, 1, ..., groups in descending
    mass, and admits a branch only while some completion can beat the
    incumbent. An admitted leaf has every |row| below the incumbent, so it
    becomes the new one. Returns (value, selected, nodes): `selected` lists
    the chosen indices, each group's 1s on its latest indices, and is None
    when no selection gets below `limit`.
    """
    groups = _group_columns(columns, masses, indices)
    cols = [col for col, _members in groups]
    sizes = [len(members) for _col, members in groups]
    suffix = _remaining([size * col for col, size in zip(cols, sizes)])
    low, high = packing.bars(limit)
    state = [limit, None, 1, low, high]  # incumbent value, its count per group, nodes, bars
    if packing.admits(values, suffix[0], low, high):
        _descend(packing, cols, sizes, suffix, 0, values, [0] * len(groups), state, first)
    best, counts, nodes = state[:3]
    if counts is None:
        return best, None, nodes
    selected = []
    for (_col, members), count in zip(groups, counts):
        selected.extend(members[len(members) - count:])
    return best, selected, nodes


def _descend(packing, cols, sizes, suffix, depth, values, counts, state, first):
    """One admitted node of `_search`: branch on group `depth`'s count.
    Returns True once the search is over: a `first` search has its
    selection, or the incumbent reached 0, which nothing can beat."""
    if depth == len(cols):
        state[0] = packing.worst(values)
        state[1] = tuple(counts)
        state[3], state[4] = packing.bars(state[0])
        return first or not state[0]
    top = packing.top
    col = cols[depth]
    below = suffix[depth + 1]
    for count in range(sizes[depth] + 1):
        if count:
            values -= col
        if (values + state[3]) & top != top:
            break  # a row is at or below -limit, and more of the group lowers it further
        if (values - below - state[4]) & top:
            continue
        state[2] += 1
        counts[depth] = count
        if _descend(packing, cols, sizes, suffix, depth + 1, values, counts, state, first):
            return True
    return False


def _lex_least(packing, columns, masses, start, target, selected):
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
        _value, tail, searched = _search(packing, columns, masses, range(d + 1, m), values, target + 1, True)
        nodes += searched
        if tail is None:
            values -= columns[d]
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
    masses = [sum(col) for col in columns]
    limit = max(map(abs, start)) + 1
    packing = _Packing(start, [p.denominator * sum(row) for row in matrix.nums], limit)
    packed = [packing.pack(col) for col in columns]
    root = packing.pack_values(start)
    value, selected, nodes_value = _search(packing, packed, masses, range(matrix.cols), root, limit, False)
    witness, nodes_witness = _lex_least(packing, packed, masses, root, value, selected)
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
    coloring beats it, and the root is admitted. Each column is packed once
    per color, holding only the rows of that color's block; the remaining
    mass counts every row. With `symmetric`, color c + 1 is tried only once
    colors 1..c have appeared.
    """
    start = tuple(map(sum, rows))
    limit = k * max(start) + 1
    packing = _Packing(start, [k * total for total in start], limit)
    columns = [tuple(k * a for a in col) for col in zip(*rows)]
    by_color = [
        [packing.pack([a if s == color else 0 for a, s in zip(col, owners)]) for col in columns]
        for color in range(k)
    ]
    suffix = _remaining([packing.pack(col) for col in columns])
    state = [limit, None, 1, *packing.bars(limit)]  # incumbent value, its coloring, nodes, bars
    _color(packing, by_color, suffix, symmetric, 0, packing.pack_values(start), [0] * len(columns), 0, state)
    return tuple(state[:3])


def _color(packing, by_color, suffix, symmetric, depth, values, chi, used_colors, state):
    """One admitted node of `_odisc_dfs`: try each color for column `depth`.

    Every child counts as a node, admitted or not. Once the incumbent is 0
    nothing is admitted any more, so the children left are counted and
    skipped."""
    if depth == len(chi):
        state[0], state[1] = packing.worst(values), tuple(chi)
        state[3], state[4] = packing.bars(state[0])
        return
    top = packing.top
    below = suffix[depth + 1]
    colors = min(len(by_color), used_colors + 1) if symmetric else len(by_color)
    for color in range(colors):
        state[2] += 1
        child = values - by_color[color][depth]
        if (child + state[3]) & top != top or (child - below - state[4]) & top:
            continue
        chi[depth] = color + 1
        _color(packing, by_color, suffix, symmetric, depth + 1, child, chi, max(used_colors, color + 1), state)
        if not state[0]:
            state[2] += colors - 1 - color
            return
