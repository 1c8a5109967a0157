"""Evaluators and solvers for weighted and asymmetric (multicolor) discrepancy.

The exact solvers run on plain integers: a matrix stores A = B/L entrywise
(integer numerators B over one denominator L), and with p = pn/pd the row value
row_i . (p*1 - x) equals (pn*T_i - pd * sum of selected B_ij) / (L*pd), where
T_i is the i-th row sum of B. Minimizing the max absolute row value is then an
integer problem, and the reported Fraction is exact by construction.

The k-color objective is this one at p = 1/k, color class s a selection
judged on block s: `eval_asymmetric` goes through `eval_weighted`, and
both exact solvers through `_Packing.scaled`, `odisc_exact` with pn = 1 and
pd = k: one scaling for every exact search. Each exact solver transposes its integer numerators
once, for the packed columns, and sizes the packing from the row sums T_i
alone: entries are nonnegative, so no row value leaves [pn*T_i - pd*T_i,
pn*T_i].

The branch-and-bound prunes with per-row reachable intervals: entries are
nonnegative, so selecting columns only subtracts, and a branch is dead once
some row can no longer get below the incumbent. Every exact search keeps a
node's row values packed into one int, a w-bit field per row (`_Packing`),
with w fixed per call so that no borrow crosses a field: a child node is
one subtraction of a packed column, the interval rule is two masked tests
on the fields' top bits, and values are unpacked only at a leaf, which the
rule admits only when it beats the incumbent. Each search is one loop over
an explicit stack, not a recursion: per depth it keeps the packed values of
the admitted node and the count or color tried there, plus one upper gate
(the mass later depths can still subtract, plus the incumbent's bar), so a
node costs a few int operations and no Python call. The weighted search
pays only the tests that can fail: a descent's first child selects nothing
more, so it is its parent and goes straight to the upper gate, and the size
and lower tests run only where a count advances.

One search routine serves the weighted solver in two modes, always over
merged duplicate columns (only the selection count within an
identical-column group matters): the value search finds the optimum, and
feasibility searches, each stopping at the first selection within the
optimum, rebuild the witness column by column in original order, each over
the groups of the columns after the one being fixed. Most of them fail at
their root, so two masked tests decide the root before any grouping: the
lower test, and the upper test against the packed mass of every later
column (`_lex_least`). Every search reads its groups off one column order,
by descending mass, sorted once per call. That keeps the documented
tie-break: the lexicographically smallest optimal x. A new incumbent is
unpacked in place and shifts the bars of the interval rule; no search
rebuilds them.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, islice
from operator import add, lshift, not_, sub

from .errors import CapExceededError, DimensionMismatchError, InputError
from .matrices import RatMatrix, check_blocks, check_selection, stack_vertical
from .rational import format_rational

DEFAULT_CAP = 24

ORACLE_KINDS = ("exact", "greedy", "local-search")


@dataclass(frozen=True)
class OracleConfig:
    """How to answer weighted-discrepancy queries.

    kind "exact" runs the branch-and-bound (refusing more than 2^cap
    leaves, `check_search`); "greedy" runs one seeded descent;
    "local-search" restarts descents until the budget is spent, each move
    and each restart costing one unit.
    """

    kind: str = "exact"
    budget: int = 2000
    seed: int = 0
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.kind not in ORACLE_KINDS:
            raise InputError(f"unknown oracle kind {self.kind!r}")
        if self.budget < 1:
            raise InputError("budget must be >= 1")
        check_search(1, 0, self.cap)  # one leaf fits every cap but a negative one


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


class OdiscResult(WdiscResult):
    """A `WdiscResult` for a coloring; its JSON form carries no node count."""

    def to_json_dict(self) -> dict:
        data = super().to_json_dict()
        del data["nodes"]
        return data


def _check_probability(p: Fraction) -> Fraction:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError(f"p must lie in [0, 1], got {p}")
    return p


def eval_weighted(matrix: RatMatrix, p: Fraction, x) -> Fraction:
    """Exact max over rows of |row . (p*1 - x)|."""
    p = _check_probability(p)
    x = check_selection(x, matrix.cols)
    pn, pd = p.numerator, p.denominator
    best = max(abs(pn * sum(row) - pd * sum(compress(row, x))) for row in matrix.nums)
    return Fraction(best, pd * matrix.den)


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

    Each color class is a 0/1 selection, so color s contributes the weighted
    objective of block s at p = 1/k. With k identical blocks this is the
    plain multicolor discrepancy of the coloring; with one block (k = 1) the
    argument is identically zero.
    """
    blocks = check_blocks(blocks)
    k = len(blocks)
    chi = _check_coloring(chi, blocks[0].cols, k)
    share = Fraction(1, k)
    return max(eval_weighted(block, share, [c == s for c in chi]) for s, block in enumerate(blocks, 1))


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


def spaced_ones(stride: int, count: int) -> int:
    """sum of 2^(stride*i) over i < count: one set bit every `stride` bits.

    It is (2^(stride*count) - 1) / (2^stride - 1), the geometric series, so
    it costs one shift and one division, not `count` additions of ever
    longer ints.
    """
    return ((1 << stride * count) - 1) // ((1 << stride) - 1)


def pack_at(values, offsets) -> int:
    """sum of values[i] << offsets[i] over the sequence `values`, for
    non-decreasing `offsets`, which may run past `values`.

    Summing the shifted values one by one copies the growing total once
    per value. So neighbours are joined first, v + (w << (o' - o)) at
    offset o, then the pairs, and so on, until at most 16 remain to sum:
    every bit is copied O(log n) times.
    """
    if len(values) > 16:
        values = list(values)
        offsets = list(islice(offsets, len(values)))
        while len(values) > 16:
            if len(values) % 2:
                values.append(0)
                offsets.append(offsets[-1])
            values = [low + (high << upper - lower) for low, high, lower, upper
                      in zip(values[::2], values[1::2], offsets[::2], offsets[1::2])]
            offsets = offsets[::2]
    return sum(map(lshift, values, offsets))


class _Packing:
    """Row vectors of one exact search packed into one int, w bits per row.

    Field i of a packed value vector holds v_i + 2^(w-1), so the vector is the
    int sum_i (v_i + 2^(w-1)) * 2^(w*i), and a packed column or remaining mass
    holds its plain entries. A child node is then one subtraction of a packed
    column. A packing of `rows` fields under `bound` has 2^(w-1) > bound: if
    every row value the search meets lies in [start_i - mass_i, start_i], for
    the root values `start`, the columns' entries in row i summing to mass_i,
    and the initial incumbent is `limit`, then
    bound = 2 * max_i(|start_i| + mass_i) + limit keeps every field of the
    expressions below in [0, 2^w), and no borrow crosses between fields.

    The row-interval rule: entries are nonnegative, so selecting only
    subtracts, and row i of a node with values v and remaining mass R ends in
    [v_i - R_i, v_i]. A node is admitted under incumbent `limit` >= 1 while
    every row can still end below it, -limit < v_i and v_i - R_i < limit.
    Packed, with low = (limit - 1) * ones and high = limit * ones, that is two
    masked tests, (P + low) & top == top and (P - R - high) & top == 0: a
    field's top bit says whether it is at least 2^(w-1). The search loops
    apply the rule inline. Each keeps one gate per depth, R + high for the
    mass R the later depths can still subtract, so the upper test is one
    subtraction and one mask. When the incumbent falls from b to b', low and
    every gate fall by (b - b') * ones, so an update shifts the bars it has
    and never rebuilds them from the masses. A test runs only where it can
    fail: a child whose values equal its parent's, as at a `_search`
    descent, passes the lower test with its parent, and only a subtraction
    can newly fail it.

    The field offsets w*i are kept as a range, `shifts`, so a packing over
    many rows takes no memory per row: `pack` shifts each entry by its
    offset and sums (`pack_at`), and `worst` unpacks every field and takes the larger
    of the max field's and the min field's distance from 2^(w-1). `ones`
    is built in closed form (`spaced_ones`), in time linear in its bits.
    """

    __slots__ = ("width", "shifts", "ones", "top")

    def __init__(self, rows: int, bound: int):
        self.width = bound.bit_length() + 1
        self.shifts = range(0, self.width * rows, self.width)  # field i's offset, w*i
        self.ones = spaced_ones(self.width, rows)
        self.top = self.ones << (self.width - 1)

    @classmethod
    def scaled(cls, sums, pn: int, pd: int, limit: int) -> "_Packing":
        """The packing of the weighted objective at p = pn/pd over a matrix
        of integer numerators B with row sums `sums`, T_i = sum_j B_ij, from
        the initial incumbent `limit`.

        There start_i = pn*T_i and column j subtracts pd*B_ij from row i, so
        mass_i = pd*T_i. Entries are nonnegative, so
        |start_i| + mass_i = (pn + pd)*T_i, and the bound is
        2*(pn + pd)*max_i T_i + limit: the row sums alone fix w, and no
        scaled column is built to find it.
        """
        return cls(len(sums), 2 * (pn + pd) * max(sums) + limit)

    def pack(self, column) -> int:
        """A column or mass vector, one plain field per row."""
        return pack_at(column, self.shifts)

    def pack_values(self, values) -> int:
        return self.pack(values) + self.top

    def worst(self, packed: int) -> int:
        """max |v_i| of packed row values: the fields hold v_i + 2^(w-1)."""
        mask = (1 << self.width) - 1
        fields = [(packed >> shift) & mask for shift in self.shifts]
        half = 1 << (self.width - 1)
        return max(max(fields) - half, half - min(fields))


def _group_columns(columns, order, after):
    """Merge identical columns among the indices above `after` into
    (column, its indices ascending), groups in order of first appearance in
    `order`. With `order` all indices by descending mass, ties by index,
    that is groups by descending mass, ties by first index: dropping a
    group's first member can move it behind a group of equal mass."""
    members = {}
    for j in order:
        if j > after:
            members.setdefault(columns[j], []).append(j)
    return list(members.items())


def _search(packing, groups, values, limit, first):
    """Least max |row value| below `limit` over selections of the merged
    columns `groups`, from packed row values `values`; with `first`, the
    first selection found below `limit` instead.

    Only how many columns of an identical group are selected matters, so the
    search branches on each group's count 0, 1, ..., groups in the given
    order (descending mass), and admits a branch only while some completion
    can beat the incumbent. An admitted leaf has every |row| below the
    incumbent, so it becomes the new one, and the search ends once a
    `first` search has its selection or the incumbent reaches 0.

    One loop walks the tree depth first with explicit per-depth state: the
    packed values of the admitted node at each depth and the count tried
    there. Each depth keeps its upper gate, the packed mass of the groups
    after it plus the high bar, so a child's upper test is one subtraction
    and one mask. A new incumbent is unpacked in place, and the low bar and
    the gates shift down by its drop times `ones` (see `_Packing`).

    Each step pays only the tests that can fail. The root counts as a node
    and takes one lower test before the loop; its upper test is left to the
    depth-0 children, since selecting only subtracts. A descent from an
    admitted node at depth d to count 0 at depth d + 1 selects nothing, so
    the child is the node itself: it has passed the lower test under the
    same incumbent, count 0 never exceeds a group's size, and only the
    upper gate, which leaves group d out of the mass, is new. The size and
    lower tests run only after a count advances, one more column of the
    group subtracted. Where they fail, the search resumes the next count of
    the deepest depth above whose group still has a count to try: a stack,
    `pending`, holds the depths on the current path that a descent left
    with their count below their group's size, so the depths whose group is
    spent are skipped without a step. It ends once the stack is empty.
    Returns (value, selected, nodes): `selected` lists the chosen indices,
    each group's 1s on its latest indices, and is None when no selection
    gets below `limit`.
    """
    if not groups:
        value = packing.worst(values)
        return (value, [], 1) if value < limit else (limit, None, 1)
    width, shifts, ones, top = packing.width, packing.shifts, packing.ones, packing.top
    cols = [col for col, _members in groups]
    sizes = [len(members) for _col, members in groups]
    last = len(cols) - 1
    low = (limit - 1) * ones
    gates = [limit * ones] * len(cols)  # gates[d]: the packed mass of the groups after d, plus high
    for d in range(last, 0, -1):
        gates[d - 1] = gates[d] + sizes[d] * cols[d]
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    best, found, nodes = limit, None, 1
    if (values + low) & top != top:
        return best, found, nodes
    node = [values] * len(cols)  # node[d]: the admitted child at depth d, counts[d] of its group selected
    counts = [0] * len(cols)
    pending = []  # the depths above d whose group has a count left, deepest last
    push, pop = pending.append, pending.pop
    d, count, child = 0, 0, values
    while True:
        # `child`, count `count` of group d, has passed the size and lower tests.
        if not (child - gates[d]) & top:
            nodes += 1
            counts[d] = count
            if d < last:
                if count < sizes[d]:
                    push(d)
                node[d] = child
                d += 1
                count = 0
                continue
            fields = [(child >> shift) & mask for shift in shifts]
            value = max(max(fields) - half, half - min(fields))
            found = counts[:]
            if first or not value:
                best = value
                break
            drop = (best - value) * ones
            best = value
            low -= drop
            gates = [gate - drop for gate in gates]
        # Next count of group d, unless the group is spent or a row is at or
        # below -limit, where more of the group lowers it further; else the
        # next count of the deepest pending depth that passes the lower test.
        count += 1
        if count <= sizes[d]:
            child -= cols[d]
            if (child + low) & top == top:
                continue
        while pending:
            d = pop()
            count = counts[d] + 1
            child = node[d] - cols[d]
            if (child + low) & top == top:
                break
        else:
            break  # no depth has a count left: the search is over
    if found is None:
        return best, None, nodes
    selected = []
    for (_col, members), count in zip(groups, found):
        selected.extend(members[len(members) - count:])
    return best, selected, nodes


def _lex_least(packing, columns, order, start, target, selected):
    """Lexicographically smallest x whose max |row value| is at most `target`,
    the optimum, given one optimal selection `selected`.

    `known` stays an optimal selection that agrees with the fixed prefix.
    Where known[d] is 0, x_d = 0 is fixed at once. Where it is 1, a `first`
    search with x_d = 0 over the groups of columns d+1, ..., read off the
    search's column `order` (`_group_columns`), decides: on success x_d = 0
    and its selection becomes the tail of `known`, otherwise x_d = 1.

    Most such searches fail at their root, so the root is decided first,
    before any grouping, by two masked tests under limit = target + 1: the
    lower test, and the upper test against the packed mass S of every
    column after d (`after`, suffix sums built once per call). If either
    fails, the search would have returned no selection after one node, so
    one node is counted and x_d = 1 is fixed. Proof: where the lower test
    fails, `_search` returns before its loop. Where the upper test fails,
    some row i has v_i - S_i >= limit: that row cannot get below the limit
    even with every later column selected. A depth-0 child selects c <= |G|
    columns of the first group G, and its gate leaves out of the mass
    exactly that group, S - |G|*G, so the row its gate tests is
    v_i - c*G_i - (S_i - |G|*G_i) >= v_i - S_i >= limit. So every depth-0
    child fails its gate and counts no node, and the search ends with its
    root alone.
    """
    m = len(columns)
    known = [0] * m
    for j in selected:
        known[j] = 1
    top, ones = packing.top, packing.ones
    low = target * ones
    # after[d]: the packed mass of columns d, ..., m - 1, plus high
    after = list(accumulate(reversed(columns), initial=(target + 1) * ones))[::-1]
    values = start
    nodes = 0
    for d in range(m):
        if not known[d]:
            continue
        if (values + low) & top != top or (values - after[d + 1]) & top:
            nodes += 1
            values -= columns[d]
            continue
        groups = _group_columns(columns, order, d)
        _value, tail, searched = _search(packing, groups, values, target + 1, True)
        nodes += searched
        if tail is None:
            values -= columns[d]
        else:
            known[d:] = [0] * (m - d)
            for j in tail:
                known[j] = 1
    return tuple(known), nodes


def check_search(k: int, m: int, cap: int) -> None:
    """Refuse an exact search over k^m leaves (k choices at each of m levels:
    2^m selections, k^m colorings or allocations) when k^m > 2^cap; callers
    that know k and m before building their input check it first.

    Decided exactly without building 2^cap: with b = bit_length(k),
    2^(m(b-1)) <= k^m < 2^(mb) settles powers of two and caps outside these
    bounds; between them m * log2(k) in floats settles caps beyond its
    rounding error, and k^m is built only for the rest. A negative cap is
    a bad argument, not a bound some search could meet: `InputError`.
    """
    if cap < 0:
        raise InputError(f"cap must be >= 0, got {cap}")
    low = m * (k.bit_length() - 1)
    refused = low > cap
    if k & (k - 1) and low <= cap < low + m:
        estimate = m * math.log2(k)
        near = abs(estimate - cap) <= estimate * 1e-9
        refused = (k**m - 1).bit_length() > cap if near else estimate > cap
    if refused:
        raise CapExceededError(f"search over {k}^{m} leaves exceeds cap 2^{cap}")


def wdisc_exact(matrix: RatMatrix, p: Fraction, cap: int = DEFAULT_CAP) -> WdiscResult:
    """Exact minimum of ||A(p*1 - x)||_inf over x in {0,1}^m.

    Exhaustive-equivalent branch and bound over merged duplicate columns in
    two phases. The value search finds the optimum, its first leaf the empty
    selection. The lexicographically smallest optimal x is then fixed column
    by column: x_d = 0 whenever some completion of the prefix with x_d = 0
    still attains the optimum, which a feasibility search decides unless the
    optimal selection at hand already has x_d = 0. nodes_explored sums the
    nodes of both phases. Refuses more than 2^cap selections.
    """
    p = _check_probability(p)
    check_search(2, matrix.cols, cap)
    pn, pd = p.numerator, p.denominator
    sums = list(map(sum, matrix.nums))
    limit = pn * max(sums) + 1
    packing = _Packing.scaled(sums, pn, pd, limit)
    columns = list(zip(*matrix.nums))
    masses = list(map(sum, columns))
    order = sorted(range(matrix.cols), key=masses.__getitem__, reverse=True)  # stable: ties by index
    packed = [pd * packing.pack(col) for col in columns]
    root = packing.pack_values([pn * total for total in sums])
    value, selected, nodes_value = _search(packing, _group_columns(packed, order, -1), root, limit, False)
    witness, nodes_witness = _lex_least(packing, packed, order, root, value, selected)
    return WdiscResult(
        value=Fraction(value, matrix.den * pd),
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
    nodes[0], m + |ones| * |zeros| per move: one per flip and one per pair
    swap considered. Each move takes the first candidate, in scan order
    (flips by column, then swaps by (one, zero) column pair), whose max
    |row value| is strictly below the best score so far, so runs are
    reproducible.

    A candidate beats the best score s exactly when every one of its row
    values v has -s < v < s, so it is tested row by row on plain ints, worst
    row first, and dropped at the first row outside that interval. Every
    dropped candidate provably scores >= s and could never have been taken,
    so the moves and the tie-break are those of the full scan. Only a
    candidate inside on every row has its exact score computed, which
    becomes the new s. On the worst row a swap of one column a for zero
    column b moves the value to base - B, where base adds a's entry to it
    and B is b's entry, so its test is base - s < B < base + s, with both
    bounds fixed per a until s falls.

    The ascending lists of the one and zero columns, and the row order by
    descending |value|, are built once per call and kept across moves: an
    accepted move updates the lists by remove and insort, and the row
    order is re-sorted in place, nearly sorted already.
    """
    n = len(values)
    m = len(columns)
    ones = list(compress(range(m), x))
    zeros = list(compress(range(m), map(not_, x)))
    order = list(range(n))
    used = 0
    while used < budget:
        order.sort(key=list(map(abs, values)).__getitem__, reverse=True)
        worst = order[0]
        rest = order[1:]
        value_worst = values[worst]
        best_score = abs(value_worst)
        below = -best_score
        best_move = None
        nodes[0] += m + len(ones) * len(zeros)
        for j in range(m):
            col = columns[j]
            if x[j]:
                if not below < value_worst + col[worst] < best_score:
                    continue
                for i in rest:
                    if not below < values[i] + col[i] < best_score:
                        break
                else:
                    best_score = max(map(abs, map(add, values, col)))
                    below = -best_score
                    best_move = (j,)
            else:
                if not below < value_worst - col[worst] < best_score:
                    continue
                for i in rest:
                    if not below < values[i] - col[i] < best_score:
                        break
                else:
                    best_score = max(map(abs, map(sub, values, col)))
                    below = -best_score
                    best_move = (j,)
        zeros_worst = [(b, columns[b][worst]) for b in zeros]
        for a in ones:
            ca = columns[a]
            base = value_worst + ca[worst]
            lo = base - best_score
            hi = base + best_score
            for b, cb_worst in zeros_worst:
                if not lo < cb_worst < hi:
                    continue
                cb = columns[b]
                for i in rest:
                    if not below < values[i] + ca[i] - cb[i] < best_score:
                        break
                else:
                    best_score = max(map(abs, map(sub, map(add, values, ca), cb)))
                    below = -best_score
                    best_move = (a, b)
                    lo = base - best_score
                    hi = base + best_score
        if best_move is None:
            break
        if len(best_move) == 1:
            j = best_move[0]
            if x[j]:
                values[:] = map(add, values, columns[j])
                ones.remove(j)
                insort(zeros, j)
            else:
                values[:] = map(sub, values, columns[j])
                zeros.remove(j)
                insort(ones, j)
            x[j] ^= 1
        else:
            a, b = best_move
            values[:] = map(sub, map(add, values, columns[a]), columns[b])
            ones.remove(a)
            insort(zeros, a)
            zeros.remove(b)
            insort(ones, b)
            x[a], x[b] = 0, 1
        used += 1
    return used


def _draw_threshold(p: Fraction) -> float:
    """The smallest double t >= p, so that for every double r, r < t holds
    exactly when r < p.

    If r < p then r < p <= t; if r >= p then r >= t, since t is the least
    double >= p. Int division rounds correctly, so pn / pd is the double
    nearest p. When it is >= p it is that least double, as a smaller one
    >= p would be nearer p. When it lies below p the next double up is
    >= p, else it would be nearer p, and nothing lies between the two.
    Every p in [0, 1] works, 0 and 1 included; a p that underflows to 0.0
    gets the least positive double.
    """
    t = p.numerator / p.denominator
    if Fraction(t) < p:
        t = math.nextafter(t, math.inf)
    return t


def wdisc_heuristic(matrix: RatMatrix, p: Fraction, config: OracleConfig = OracleConfig(kind="local-search")) -> WdiscResult:
    """Upper-bounding local search for the weighted discrepancy.

    Random restarts initialize each column to 1 with probability p, then
    steepest descent over bit flips and pair swaps runs to a local minimum.
    "greedy" stops after the first descent; "local-search" restarts until the
    budget is exhausted, each move and each restart costing one unit; "exact"
    is refused. Deterministic for a fixed seed, and the value always equals
    the returned witness re-evaluated exactly.
    """
    if config.kind == "exact":
        raise InputError("wdisc_heuristic runs the greedy or local-search oracle, not exact")
    p = _check_probability(p)
    rng = random.Random(config.seed)
    columns, start, denom = _scale_weighted(matrix, p)
    m = matrix.cols
    threshold = _draw_threshold(p)
    nodes = [0]

    best_scaled = None
    best_x = None
    budget_left = config.budget
    while budget_left > 0:
        # Each bit is 1 iff rng.random() < p, decided exactly by one float
        # comparison with the threshold (see `_draw_threshold`).
        x = [1 if rng.random() < threshold else 0 for _ in range(m)]
        # The selected columns reach zip as a list: CPython unpacks an
        # iterator into a tuple of guessed size and resizes it, and the freed
        # tuples then pile up in its per-size free lists (+1.5 MB peak RSS
        # on the allocate benchmark).
        if 1 in x:
            values = [s - sum(row) for s, row in zip(start, zip(*list(compress(columns, x))))]
        else:
            values = list(start)
        budget_left -= _descent(values, columns, x, budget_left, nodes)
        scaled = max(map(abs, values))
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
        return wdisc_exact(matrix, p, config.cap)
    return wdisc_heuristic(matrix, p, config)


# ---------------------------------------------------------------------------
# Exact multicolor / asymmetric search.
# ---------------------------------------------------------------------------


def previous_equal(keys) -> list:
    """For each position, the last earlier position with an equal key, or -1."""
    last = {}
    previous = []
    for index, key in enumerate(keys):
        previous.append(last.get(key, -1))
        last[key] = index
    return previous


def odisc_exact(blocks, cap: int = DEFAULT_CAP) -> OdiscResult:
    """Exact minimum over all k^m colorings of the asymmetric discrepancy.

    Colorings are explored in one sequential search in mixed-radix order
    (earlier columns more significant, colors ascending) with incremental
    per-color row sums and interval pruning, so the returned witness is the
    lexicographically smallest optimal coloring. Colors with equal blocks
    are interchangeable bundles and columns equal in every block identical
    goods, so the search visits only the colorings that obey the two rules
    of `fairdiv.brute_force_min_c`, whose proof that the lex-least minimizer
    obeys them leaves value and witness unchanged. Refuses more than 2^cap
    colorings. Each block's columns are packed once, over its own rows, and
    shifted into place where a child subtracts them, so memory is linear in k.
    """
    blocks = check_blocks(blocks)
    k = len(blocks)
    check_search(k, blocks[0].cols, cap)
    offsets = list(accumulate((block.rows for block in blocks), initial=0))
    stacked = stack_vertical(blocks)
    columns = list(zip(*stacked.nums))
    sums = list(map(sum, stacked.nums))
    best, chi, nodes = _odisc_dfs(columns, sums, offsets, previous_equal(blocks), previous_equal(columns))
    return OdiscResult(value=Fraction(best, stacked.den * k), witness=chi, nodes_explored=nodes, exact=True)


def _odisc_dfs(columns, sums, offsets, opener, twin):
    """Search colorings of the stacked blocks, block s holding rows
    offsets[s] to offsets[s + 1] - 1, in the weighted objective at p = 1/k:
    `columns` hold the stacked integer numerators B, `sums` each row sum T,
    and the scaled search starts at T and subtracts k*B, so that the
    packing is `_Packing.scaled` with pn = 1 and pd = k. Returns (scaled
    value, coloring, nodes).

    A coloring subtracts from row r only the columns of its block's color,
    so every value lies in [T - k*T, T]; the incumbent starts above
    k * max T, where every coloring beats it, and the root is admitted.
    Color c + 1 waits for a column in opener[c], the previous color with an
    equal block, and column d starts at the color of twin[d], the previous
    column equal to it (see `odisc_exact`). Each block's columns are packed
    once, over its rows alone and unshifted, into one table per block; a
    child shifts its color's column to the block's fields where it subtracts
    it. So no table spans the rows above a block, and memory is linear in k.

    One loop walks the tree depth first, keeping per depth the packed values
    of the node being branched and, in chi, the color tried; as in
    `_search`, a new incumbent is unpacked in place and shifts the low bar
    and the upper gates down by its drop. Every child tried counts as a
    node, admitted or not, until the incumbent is 0.
    """
    k = len(opener)
    limit = k * max(sums) + 1
    packing = _Packing.scaled(sums, 1, k, limit)
    pack, width, field_shifts, ones, top = packing.pack, packing.width, packing.shifts, packing.ones, packing.top
    m = len(columns)
    # tables[c]: the columns of color c + 1's block, packed unshifted
    tables = [tuple(k * pack(col[lo:hi]) for col in columns) for lo, hi in zip(offsets, offsets[1:])]
    shifts = [width * lo for lo in offsets]
    root = packing.pack_values(sums)
    low = (limit - 1) * ones
    gates = [limit * ones] * m  # gates[d]: the packed mass of the columns after d, plus high
    for d in range(m - 1, 0, -1):
        gates[d - 1] = gates[d] + k * pack(columns[d])
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    best, witness, nodes = limit, None, 1
    node = [root] * m  # node[d]: the admitted node whose column d is being colored
    chi = [0] * m
    sizes = [0] * k  # sizes[c]: the columns above depth d colored c + 1
    last = m - 1
    d, color = 0, 0
    while True:
        while color < k and opener[color] >= 0 and not sizes[opener[color]]:
            color += 1
        if color == k:
            if not d:
                break
            d -= 1
            color = chi[d]
            sizes[color - 1] -= 1
            continue
        nodes += 1
        child = node[d] - (tables[color][d] << shifts[color])
        color += 1
        if (child + low) & top != top or (child - gates[d]) & top:
            continue
        chi[d] = color
        if d == last:
            fields = [(child >> shift) & mask for shift in field_shifts]
            value = max(max(fields) - half, half - min(fields))
            witness = tuple(chi)
            if not value:
                best = value
                break
            drop = (best - value) * ones
            best = value
            low -= drop
            gates = [gate - drop for gate in gates]
            continue
        sizes[color - 1] += 1
        d += 1
        node[d] = child
        color = chi[twin[d]] - 1 if twin[d] >= 0 else 0
    return best, witness, nodes
