"""Evaluators and solvers for weighted and asymmetric (multicolor) discrepancy.

The exact solvers clear denominators once up front and run the search on plain
integers: with A = B/L entrywise and p = pn/pd, the row value
row_i . (p*1 - x) equals (pn*T_i - pd * sum of selected B_ij) / (L*pd), where
T_i is the i-th row sum of B. Minimizing the max absolute row value is then an
integer problem, and the reported Fraction is exact by construction.

The branch-and-bound prunes with per-row reachable intervals (entries are
nonnegative, so selecting columns only subtracts) plus the l2/linf relation
max_i |v_i|^2 >= (sum_i v_i^2)/n. Duplicate columns are merged for the value
search (only the selection count within an identical-column group matters);
the witness is reconstructed afterwards in original column order, which keeps
the documented tie-break: the lexicographically smallest optimal x.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, DimensionMismatchError, InputError, VerificationError
from .matrices import RatMatrix
from .rational import format_rational

DEFAULT_EXACT_WIDTH_CAP = 24
DEFAULT_ENUMERATION_CAP = 20_000_000

ORACLE_KINDS = ("exact", "greedy", "local-search")

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "value": format_rational(self.value),
            "witness": list(self.witness),
            "exact": self.exact,
        }


def _check_probability(p: Fraction) -> Fraction:
    p = Fraction(p)
    if p < _ZERO or p > _ONE:
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
    best = _ZERO
    for row in matrix.entries:
        total = sum((e for e, bit in zip(row, x) if bit), start=_ZERO)
        value = abs(p * sum(row) - total)
        if value > best:
            best = value
    return best


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
    share = Fraction(1, k)
    best = _ZERO
    for s, block in enumerate(blocks, start=1):
        for row in block.entries:
            total = sum((e for e, c in zip(row, chi) if c == s), start=_ZERO)
            value = abs(share * sum(row) - total)
            if value > best:
                best = value
    return best


# ---------------------------------------------------------------------------
# Scaled-integer core for the weighted solvers.
# ---------------------------------------------------------------------------


def _scale_weighted(matrix: RatMatrix, p: Fraction):
    """Integer form of the weighted objective.

    Returns (columns, start, denom) with columns[j][i] the amount selecting
    column j subtracts from row i, start[i] the row value with nothing
    selected, and true row values = scaled values / denom.
    """
    lcm = 1
    for row in matrix.entries:
        for cell in row:
            lcm = math.lcm(lcm, cell.denominator)
    pn, pd = p.numerator, p.denominator
    columns = []
    for j in range(matrix.cols):
        columns.append(tuple(pd * (row[j].numerator * (lcm // row[j].denominator)) for row in matrix.entries))
    start = []
    for row in matrix.entries:
        t = sum(cell.numerator * (lcm // cell.denominator) for cell in row)
        start.append(pn * t)
    return columns, tuple(start), lcm * pd


def _row_gap(value: int, remaining: int) -> int:
    """Least |final| reachable for one row: final ranges over [value-remaining, value]."""
    if value <= 0:
        return -value
    if value - remaining > 0:
        return value - remaining
    return 0


def _prune(values, remaining, limit_sq, n, limit) -> bool:
    """True when no completion can get max |row| below `limit` (exclusive)."""
    total_sq = 0
    for value, rem in zip(values, remaining):
        gap = _row_gap(value, rem)
        if gap >= limit:
            return True
        total_sq += gap * gap
    return total_sq >= limit_sq * n


def _group_columns(columns):
    """Merge identical columns; order groups by descending mass, ties by index."""
    seen = {}
    for j, col in enumerate(columns):
        if col in seen:
            seen[col][1] += 1
        else:
            seen[col] = [j, 1]
    groups = [(col, first, count) for col, (first, count) in seen.items()]
    groups.sort(key=lambda g: (-sum(g[0]), g[1]))
    return groups


def _remaining(columns, n):
    """remaining[d][i]: what columns d, d+1, ... can still subtract from row i."""
    remaining = [(0,) * n]
    for col in reversed(columns):
        remaining.append(tuple(r + c for r, c in zip(remaining[-1], col)))
    remaining.reverse()
    return remaining


def _value_search(groups, start):
    """Exact minimum of max |row value| over all selection counts per group.

    The incumbent starts at the empty selection's value, the first leaf in
    search order."""
    n = len(start)
    depth_total = len(groups)
    suffix = _remaining([tuple(count * c for c in col) for col, _first, count in groups], n)

    best = max(abs(v) for v in start)
    nodes = 0

    def descend(depth, values):
        nonlocal best, nodes
        nodes += 1
        if depth == depth_total:
            worst = max(abs(v) for v in values)
            if worst < best:
                best = worst
            return
        col, _first, count = groups[depth]
        current = list(values)
        for picked in range(count + 1):
            if picked:
                for i in range(n):
                    current[i] -= col[i]
            if not _prune(current, suffix[depth + 1], best * best, n, best):
                descend(depth + 1, tuple(current))
        return

    descend(0, start)
    return best, nodes


def _witness_search(columns, start, target):
    """Lexicographically smallest x whose max |row value| equals `target`.

    Depth-first in original column order, 0 before 1, pruning completions
    that provably exceed target; dead (depth, state) pairs are memoized so
    repeated states (common with duplicated columns) are not re-explored.
    """
    n = len(start)
    m = len(columns)
    suffix = _remaining(columns, n)

    dead = set()
    nodes = 0
    limit = target + 1  # prune only when forced strictly above target

    def reconstruct(depth, values):
        nonlocal nodes
        nodes += 1
        if depth == m:
            return [] if max(abs(v) for v in values) == target else None
        key = (depth, values)
        if key in dead:
            return None
        if not _prune(values, suffix[depth + 1], limit * limit, n, limit):
            tail = reconstruct(depth + 1, values)
            if tail is not None:
                tail.append(0)
                return tail
        col = columns[depth]
        taken = tuple(v - c for v, c in zip(values, col))
        if not _prune(taken, suffix[depth + 1], limit * limit, n, limit):
            tail = reconstruct(depth + 1, taken)
            if tail is not None:
                tail.append(1)
                return tail
        dead.add(key)
        return None

    path = reconstruct(0, start)
    # `reconstruct` refers to itself, so its closure is a reference cycle that
    # only a full collection frees; empty the memo now rather than then.
    dead.clear()
    if path is None:
        raise VerificationError("optimal value unreachable during witness rebuild")
    path.reverse()
    return tuple(path), nodes


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

    Exhaustive-equivalent branch and bound in two passes: the value search
    over merged duplicate columns, its incumbent starting at the empty
    selection, then the witness search for the lexicographically smallest x
    attaining that value. Refuses widths beyond config.exact_width_cap.
    """
    p = _check_probability(p)
    check_exact_width(matrix.cols, config)
    columns, start, denom = _scale_weighted(matrix, p)
    value, nodes_value = _value_search(_group_columns(columns), start)
    witness, nodes_witness = _witness_search(columns, start, value)
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

    value = eval_weighted(matrix, p, best_x)
    return WdiscResult(value=value, witness=best_x, nodes_explored=nodes[0], exact=False)


def oracle_solve(matrix: RatMatrix, p: Fraction, config: OracleConfig = OracleConfig()) -> WdiscResult:
    """Dispatch a weighted-discrepancy query per the configured oracle kind."""
    if config.kind == "exact":
        return wdisc_exact(matrix, p, config)
    return wdisc_heuristic(matrix, p, config)


# ---------------------------------------------------------------------------
# Exact multicolor / asymmetric search.
# ---------------------------------------------------------------------------


def _scale_blocks(blocks):
    """Integer form of the asymmetric objective, denominator k * lcm."""
    k = len(blocks)
    lcm = 1
    for block in blocks:
        for row in block.entries:
            for cell in row:
                lcm = math.lcm(lcm, cell.denominator)
    scaled_rows = []  # (block index, integer row, row sum)
    for s, block in enumerate(blocks):
        for row in block.entries:
            ints = tuple(cell.numerator * (lcm // cell.denominator) for cell in row)
            scaled_rows.append((s, ints, sum(ints)))
    return scaled_rows, lcm * k


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
    symmetric = all(block.entries == blocks[0].entries for block in blocks)
    scaled_rows, denom = _scale_blocks(blocks)
    best_scaled, best_chi = _odisc_dfs(scaled_rows, k, m, symmetric)
    return OdiscResult(value=Fraction(best_scaled, denom), witness=best_chi, exact=True)


def _odisc_dfs(scaled_rows, k, m, symmetric):
    """Search colorings; returns (scaled value, coloring).

    Row r's value is T - k * (mass of its block's color); every value lies in
    [T - k*T, T], so the incumbent starts above k * max T, where every
    coloring beats it. With `symmetric`, color c + 1 is tried only once
    colors 1..c have appeared.
    """
    n = len(scaled_rows)
    columns = [tuple(k * ints[j] for _s, ints, _t in scaled_rows) for j in range(m)]
    suffix = _remaining(columns, n)
    rows_of = [[r for r, (s, _ints, _t) in enumerate(scaled_rows) if s == color] for color in range(k)]
    start = tuple(t for _s, _ints, t in scaled_rows)

    best = k * max(start) + 1
    best_chi = None
    chi = [0] * m

    def descend(depth, values, used_colors):
        nonlocal best, best_chi
        if depth == m:
            worst = max(abs(v) for v in values)
            if worst < best:
                best, best_chi = worst, tuple(chi)
            return
        if _prune(values, suffix[depth], best * best, n, best):
            return
        col = columns[depth]
        for color in range(1, (min(k, used_colors + 1) if symmetric else k) + 1):
            chi[depth] = color
            child = list(values)
            for r in rows_of[color - 1]:
                child[r] -= col[r]
            descend(depth + 1, child, max(used_colors, color))

    descend(0, start, 0)
    return best, best_chi
