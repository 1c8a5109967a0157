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
one subtraction of a packed column, and every node is kept offset by the
incumbent's low bar, so the interval rule is two masked tests on the
fields' top bits, the lower one a single mask. Values are unpacked only at
a leaf, which the rule admits only when it beats the incumbent, and every
search unpacks through one reader per row count (`_unpacker`): the first
HEAD = 16 fields in locals and the rest in a loop, compiled on first use
and bound to a packing's width once, on its first unpack. No search
recurses: per depth each keeps the packed values of the admitted node and
the count or color tried there, plus one upper gate (the mass later depths
can still subtract, plus the incumbent's bars), so a node costs a few int
operations and no Python call. The k-color search keeps that state in
lists, one loop over an explicit stack. The weighted search runs a kernel
generated per search depth and compiled once per process (`_kernel`): one
nested `while` loop per group, with each depth's state, column and size in
local variables, so a step reads and writes no list. It pays only the
tests that can fail: a descent's first child selects nothing more, so it
is its parent and goes straight to the upper gate, and the size and lower
tests run only where a count advances.

One search routine serves the weighted solver in two modes, always over
merged duplicate columns (only the selection count within an
identical-column group matters): the value search finds the optimum, and
feasibility searches, each stopping at the first selection within the
optimum, rebuild the witness column by column in original order, each over
the groups of the columns after the one being fixed, through the value
search's kernel (a search over fewer groups runs it with pass-through
levels after its own, entered only by the selection it finds, so one call
compiles at most one kernel). Most of them fail at their root, so two
masked tests decide the root first: the lower test, and the upper test
against the packed mass of every later column (`_lex_least`), and only
a search that survives them groups its columns. Every search reads its
groups off one column order, by descending mass, sorted once per call.
That keeps the documented tie-break: the lexicographically smallest
optimal x. A new incumbent is unpacked in place and shifts the live nodes
and the gates of the interval rule; no search rebuilds them.

The heuristic oracle's steepest descent (`_descent`) is a generated kernel
too, one per row count up to HEAD = 16 rows, compiled once per process.
Each scan ranks the rows by |value| and unpacks the first HEAD of them,
index and value, into locals, so every flip and swap test is one chained
comparison over locals, worst row first; rows past HEAD are tested in a
loop inside the same kernel, and a taller matrix runs the HEAD-row kernel.
A scan tests only the candidates that move the worst row toward 0, the
only ones that can win, and counts m + |ones| * |zeros| nodes all the
same. Moves, scan order, tie-break and node counts match the independent
reference, `naive_descent` in tests/naive.py.

A scan's move depends on the selection alone, not on the descent that
reached it (`_descent` proves it), so each local search over at most 16
columns keeps one memo from every selection its descents have scanned to
the move that scan took, or to "local minimum". A restart that reaches a
scanned selection recalls the move without ranking a row or testing a
candidate; the moves and node counts stay those of the full scans. The
memo lives for one `wdisc_heuristic` call and holds at most 2^16 entries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, compress, islice
from operator import lshift, mul

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
    With low = (limit - 1) * ones and high = limit * ones, the searches keep
    every packed node P offset by the low bar, X = P + low, from the root to
    every leaf, so the rule is two masked tests, X & top == top (the lower
    test, one mask) and (X - h) & top == 0 for h = R + high + low: a field's
    top bit says whether it is at least 2^(w-1). X - h is P - R - high, so
    field i of X holds v_i + limit - 1 + 2^(w-1) and field i of X - h
    holds v_i - R_i - limit + 2^(w-1). With |v_i| <= |start_i| + mass_i,
    R_i <= mass_i and limit at most the initial incumbent, both lie in
    [2^(w-1) - bound, 2^(w-1) + bound] and every field of the gate h,
    R_i + 2 * limit - 1, in [0, 2^(w-1) + bound]: all inside [0, 2^w), so
    no borrow crosses a field. X and X - h are the very sums, P + low and
    P - R - high, that the same tests on unshifted nodes form, so the
    offset needs no wider field.

    The searches apply the rule inline, `_search` in its generated kernel
    and `_odisc_dfs` in its loop. Each keeps one gate per depth, h for the
    mass R the later depths can still subtract, so the upper test is one
    subtraction and one mask. When the incumbent falls from b to b', low
    falls by (b - b') * ones, so every node on the live path shifts down by
    that drop and every gate by twice it: an update shifts what it has and
    never rebuilds a node or a gate from the masses. A test runs only where
    it can fail: a child whose values equal its parent's, as at a `_search`
    descent, passes the lower test with its parent, and only a subtraction
    can newly fail it. A leaf's values are X - low, which `worst` unpacks.

    The field offsets w*i are kept as a range, `shifts`, so a packing over
    many rows takes no memory per row: `pack` shifts each entry by its
    offset and sums (`pack_at`). `ones` is built in closed form
    (`spaced_ones`), in time linear in its bits. `worst` is the packing's
    reader, bound on first use: a packing that is never unpacked, as in
    `fairdiv._zero_round`, builds none.
    """

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

    @cached_property
    def worst(self):
        """The function from packed row values to max |v_i|: the fields
        hold v_i + 2^(w-1). It is `_unpacker`'s reader for this packing's
        row count, bound to its width once, so every search over the
        packing calls the same function."""
        rows = len(self.shifts)
        return _unpacker(min(rows, _UNPACK_HEAD))(self.width, rows)


def _group_columns(columns, order, after):
    """Merge identical columns among the indices above `after` into a dict
    from each column to its indices ascending, groups in order of first
    appearance in `order`. With `order` all indices by descending mass,
    ties by index, that is groups by descending mass, ties by first index:
    dropping a group's first member can move it behind a group of equal
    mass."""
    members = {}
    for j in order:
        if j > after:
            members.setdefault(columns[j], []).append(j)
    return members


_NESTED_LOOPS = 20  # CPython compiles at most 20 statically nested loops in one function


def _kernel_source(depth: int) -> str:
    """Python source of `_search`'s loop over `depth` groups. It depends on
    `depth` alone and holds no data.

    Group d is one `while` loop, nested in group d - 1's, with locals for
    its node `v<d>`, stored offset by the low bar (see `_Packing`), the
    count `c<d>` tried, its gate `g<d>`, column `k<d>` and size `s<d>`.
    Count 0 is the node the loop is entered with, so it goes straight to
    the gate; each later count subtracts the column once more and takes the
    lower test, one mask, and the loop ends where the group is spent or
    that test fails. An admitted node enters the next group's loop, and one
    in the last group is a new incumbent.

    CPython compiles at most 20 nested loops in one function, so groups
    a, ..., a + 19 form function `_levels_<a>`, for a = 0, 20, ...; each
    but the last enters the next from its innermost admitted node. A
    function takes that node, the incumbent, the low bar and the node count,
    and the gates `afters` at the search's start: each depth's mass after
    it plus the high and low bars then, 2 * low + ones, which afters[-1],
    the last depth's, holds alone. `_levels_0` runs from the start and
    takes its gates as they are; a later function adds to each how far
    the bars have fallen since, 2 * low + ones - afters[-1]. It returns
    (incumbent, low bar, nodes, found): `found`
    holds the counts of its groups and all later ones at its last new
    incumbent, or None if it found none. A new incumbent returns at once
    where the search stops, else it shifts the low bar and the function's
    nodes by the drop and its gates by twice the drop; a caller that gets
    `found` back shifts its own nodes and gates the same way.
    """
    lines = []
    for start in range(0, depth, _NESTED_LOOPS):
        stop = min(start + _NESTED_LOOPS, depth)
        levels = range(start, stop)
        counts = ", ".join(f"c{d}" for d in levels)
        if not start:  # entered once, at the search's start
            gates = [f"    {', '.join(f'g{d}' for d in levels)}, = afters[:{stop}]"]
        else:  # entered at a node of the previous function, after its drops
            gates = ["    lift = low + low + ones - afters[-1]", *(f"    g{d} = afters[{d}] + lift" for d in levels)]
        lines += [
            f"def _levels_{start}(v, best, low, nodes, first, afters, cols, sizes, ones, top, worst):",
            *gates,
            f"    {', '.join(f'k{d}' for d in levels)}, = cols[{start}:{stop}]",
            f"    {', '.join(f's{d}' for d in levels)}, = sizes[{start}:{stop}]",
            "    found = None",
            f"    v{start} = v",
            f"    c{start} = 0",
        ]
        for d in levels:
            pad = "    " * (2 * (d - start) + 1)
            lines += [
                f"{pad}while True:",
                f"{pad}    if not (v{d} - g{d}) & top:",
                f"{pad}        nodes += 1",
            ]
            inner = pad + "        "
            if d + 1 < stop:
                lines += [f"{inner}v{d + 1} = v{d}", f"{inner}c{d + 1} = 0"]
                continue
            if stop == depth:
                lines += [
                    f"{inner}value = worst(v{d} - low)",
                    f"{inner}found = ({counts},)",
                ]
            else:
                lines += [
                    f"{inner}value, low, nodes, deeper = _levels_{stop}(v{d}, best, low, nodes, first, afters, cols, sizes, ones, top, worst)",
                    f"{inner}if deeper is not None:",
                ]
                inner += "    "
                lines.append(f"{inner}found = ({counts},) + deeper")
            lines += [
                f"{inner}if first or not value:",
                f"{inner}    return value, low, nodes, found",
                f"{inner}drop = (best - value) * ones",
                f"{inner}best = value",
                *([f"{inner}low -= drop"] if stop == depth else []),
                *(f"{inner}v{level} -= drop" for level in levels),
                f"{inner}drop += drop",
                *(f"{inner}g{level} -= drop" for level in levels),
            ]
        for d in reversed(levels):
            pad = "    " * (2 * (d - start) + 2)
            lines += [
                f"{pad}if c{d} == s{d}:",
                f"{pad}    break",
                f"{pad}c{d} += 1",
                f"{pad}v{d} -= k{d}",
                f"{pad}if v{d} & top != top:",
                f"{pad}    break",
            ]
        lines.append("    return best, low, nodes, found")
    return "\n".join(lines) + "\n"


def _compiled(source_of, entry: str):
    """A function from a size to the function `entry` of the Python source
    `source_of(size)`, which it compiles on first use of that size and keeps
    for the process."""

    @cache
    def kernel(size: int):
        namespace = {}
        exec(compile(source_of(size), f"<{source_of.__name__}({size})>", "exec"), namespace)
        return namespace[entry]

    return kernel


_kernel = _compiled(_kernel_source, "_levels_0")  # the search loop over `depth` groups


# HEAD, the fields an incumbent reader unrolls. Fields past HEAD are read in a
# loop in the same reader, so a process compiles at most HEAD + 1 readers, one
# per row count 0, ..., HEAD. Every weighted search of the `exact` benchmark has
# at most 16 rows (3-8 in its random calls, n <= 16 in its certification grid),
# so none of them reads a field in the loop.
_UNPACK_HEAD = 16


def _unpacker_source(rows: int) -> str:
    """Python source of the incumbent reader with `rows` fields unrolled. It
    depends on `rows` alone and holds no data.

    `reader(width, rows)` binds a packing's width: the field mask, 2^(w-1)
    and the offsets w, 2w, ... of the unrolled fields, and, in the
    HEAD-field reader, the offsets of the fields past HEAD. The function it
    returns takes packed row values and keeps the largest and the smallest
    field in locals, `high` and `low`: each unrolled field is read by one
    shift and one mask and compared with them, and the fields past HEAD go
    through the same comparisons in a loop in the same function. It
    returns the larger of their distances from 2^(w-1), which is max |v_i|,
    and a packing of no rows reads 0. A chain of comparisons costs less
    than storing the fields and calling `max` and `min` over them.
    """
    compare = [
        "        if field > high:",
        "            high = field",
        "        elif field < low:",
        "            low = field",
    ]
    lines = [
        "def reader(width, rows):",
        "    mask = (1 << width) - 1",
        "    half = 1 << width - 1",
    ]
    if rows > 1:
        lines.append(f"    {', '.join(f's{i}' for i in range(1, rows))}, = range(width, width * {rows}, width)")
    if rows == _UNPACK_HEAD:
        lines.append(f"    tail = range(width * {rows}, width * rows, width)")
    lines.append("    def worst(packed):")
    if not rows:
        lines.append("        return 0")
    else:
        lines.append("        high = low = packed & mask")
        for i in range(1, rows):
            lines += [f"        field = packed >> s{i} & mask", *compare]
        if rows == _UNPACK_HEAD:
            lines += ["        for shift in tail:", "            field = packed >> shift & mask"]
            lines += ["    " + line for line in compare]
        lines += [
            "        high -= half",
            "        low = half - low",
            "        return high if high > low else low",
        ]
    lines.append("    return worst")
    return "\n".join(lines) + "\n"


_unpacker = _compiled(_unpacker_source, "reader")  # rows 0, ..., _UNPACK_HEAD


def _search(packing, groups, values, limit, first, depth=None):
    """Least max |row value| below `limit` over selections of the merged
    columns `groups` (`_group_columns`), from packed row values `values`;
    with `first`, the first selection found below `limit` instead.

    Only how many columns of an identical group are selected matters, so the
    search branches on each group's count 0, 1, ..., groups in the given
    order (descending mass), and admits a branch only while some completion
    can beat the incumbent. An admitted leaf has every |row| below the
    incumbent, so it becomes the new one, and the search ends once a
    `first` search has its selection or the incumbent reaches 0.

    The walk is a generated kernel (`_kernel`), one nested `while` loop per
    group, with each depth's node, count, gate, column and size in locals.
    Every node is kept offset by the low bar (see `_Packing`), so a child's
    lower test is one mask; a depth's gate is the packed mass of the groups
    after it plus the high and low bars, so its upper test is one
    subtraction and one mask. The masses are one `accumulate` over the
    groups from the last. A new incumbent is read by the packing's reader
    (`_Packing.worst`) in place, and the low bar and the live nodes shift
    down by its drop times `ones`, the gates by twice that.

    Each step pays only the tests that can fail. The root counts as a node
    and takes one lower test before the kernel; its upper test is left to
    the depth-0 children, since selecting only subtracts. A descent from an
    admitted node at depth d to count 0 at depth d + 1 selects nothing, so
    the child is the node itself: it has passed the lower test under the
    same incumbent, count 0 never exceeds a group's size, and only the
    upper gate, which leaves group d out of the mass, is new. The size and
    lower tests run only after a count advances, one more column of the
    group subtracted; where either fails, the depth's loop ends and the
    depth above advances its own count.

    A `first` search over fewer groups than `depth` runs `depth`'s kernel
    with trailing pass-through levels, each of size 0 with no column and
    no mass after it. A node admitted at the last real level has every row
    below the limit, and the same node passes each pass-through level's
    gate, equal to the last real level's, so the first such node is the
    selection found, one node per pass-through level too; those nodes are
    subtracted from the count. No other node enters a pass-through level,
    since the search stops at the selection it finds. So the witness
    searches of `_lex_least` share the value search's kernel and pay
    nothing for the levels they lack until they find a selection. Any
    other search runs the kernel of its own depth.
    Returns (value, selected, nodes): `selected` lists the chosen indices,
    each group's 1s on its latest indices, and is None when no selection
    gets below `limit`.
    """
    worst = packing.worst
    if not groups:
        value = worst(values)
        return (value, [], 1) if value < limit else (limit, None, 1)
    ones, top = packing.ones, packing.top
    low = (limit - 1) * ones
    root = values + low
    if root & top != top:
        return limit, None, 1
    cols = list(groups)
    sizes = list(map(len, groups.values()))
    # afters[d]: the packed mass of the groups after d, plus the high and low bars
    afters = list(accumulate(map(mul, reversed(sizes), reversed(cols)), initial=low + low + ones))[-2::-1]
    pads = depth - len(cols) if first and depth is not None else 0
    if pads:  # trailing pass-through levels: no column and no mass
        cols += [0] * pads
        sizes += [0] * pads
        afters += afters[-1:] * pads
    best, _low, nodes, found = _kernel(len(cols))(root, limit, low, 1, first, afters, cols, sizes, ones, top, worst)
    if found is None:
        return best, None, nodes
    selected = []
    for members, count in zip(groups.values(), found):
        selected.extend(members[len(members) - count:])
    return best, selected, nodes - pads


def _lex_least(packing, columns, order, start, target, selected, depth):
    """Lexicographically smallest x whose max |row value| is at most `target`,
    the optimum, given one optimal selection `selected`.

    `known` stays an optimal selection that agrees with the fixed prefix.
    Where known[d] is 0, x_d = 0 is fixed at once. Where it is 1, a `first`
    search with x_d = 0 over the groups of columns d+1, ..., read off the
    search's column `order` (`_group_columns`), decides: on success x_d = 0
    and its selection becomes the tail of `known`, otherwise x_d = 1.

    Most such searches fail at their root, so the root is decided first,
    before any grouping, by two masked tests under limit = target + 1, on
    the prefix's values kept offset by the low bar (see `_Packing`): the
    lower test, and the upper test against the packed mass S of every
    column after d plus both bars (`after`, suffix sums built once per
    call). If either fails, the search would have returned no selection
    after one node, so one node is counted and x_d = 1 is fixed. Proof:
    where the lower test fails, `_search` returns before its loop. Where
    the upper test fails, some row i has v_i - S_i >= limit: that row
    cannot get below the limit even with every later column selected. A
    depth-0 child selects c <= |G| columns of the first group G, and its
    gate leaves out of the mass exactly that group, S - |G|*G, so the row
    its gate tests is v_i - c*G_i - (S_i - |G|*G_i) >= v_i - S_i >= limit.
    So every depth-0 child fails its gate and counts no node, and the
    search ends with its root alone.

    Every search that runs gets the plain values back, node - low, and
    enters the value search's kernel: its `depth` is the value search's
    number of groups, at least the groups of any later columns.
    """
    m = len(columns)
    known = [0] * m
    for j in selected:
        known[j] = 1
    top, ones = packing.top, packing.ones
    low = target * ones
    # after[d]: the packed mass of columns d, ..., m - 1, plus high and low
    after = list(accumulate(reversed(columns), initial=(2 * target + 1) * ones))[::-1]
    node = start + low
    nodes = 0
    for d in range(m):
        if not known[d]:
            continue
        if node & top != top or (node - after[d + 1]) & top:
            nodes += 1
            node -= columns[d]
            continue
        groups = _group_columns(columns, order, d)
        _value, tail, searched = _search(packing, groups, node - low, target + 1, True, depth)
        nodes += searched
        if tail is None:
            node -= columns[d]
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
    groups = _group_columns(packed, order, -1)
    value, selected, nodes_value = _search(packing, groups, root, limit, False)
    witness, nodes_witness = _lex_least(packing, packed, order, root, value, selected, len(groups))
    return WdiscResult(
        value=Fraction(value, matrix.den * pd),
        witness=witness,
        nodes_explored=nodes_value + nodes_witness,
        exact=True,
    )


# ---------------------------------------------------------------------------
# Heuristic weighted solver.
# ---------------------------------------------------------------------------


# HEAD, the rows a descent kernel unrolls into locals. A candidate is dropped
# at its first row outside the window, rows ranked worst first, so nearly
# every drop falls within the first few ranks and unrolling further rows saves
# nothing measurable, while a kernel's compile time grows with the rows it
# unrolls (1.1-1.9 ms at 16 rows, 95-157 ms at 2,048, Python 3.11 on a
# shared 2-vCPU VM). Rows past HEAD are tested in a loop, so no kernel unrolls
# more than HEAD rows and a process compiles at most HEAD kernels.
_DESCENT_HEAD = 16

# The most columns for which a local search keeps a memo of its scans (see
# `_descent`). Restarts reach scanned selections often only on few columns: on
# the seed-1 `allocate` benchmark pass the memo answers >= 62% of the candidate
# tests at <= 8 columns, 33% at 12, 12% at 16, 3% at 20 and <= 1% from 24 on.
# With scans restricted to the worst row's movers, a memo above 16 columns
# costs 2.6% of those calls' CPU, and dropping it on 13-16 columns costs 7.5%.
# The limit also bounds the memo's memory: one entry per selection, so at most
# 2^16 entries whatever the budget.
_DESCENT_MEMO_COLUMNS = 16

_DESCENT_TEMPLATE = """\
from bisect import insort
from itertools import compress
from operator import add, lshift, not_, sub


def descent(values, columns, x, budget, nodes, memo):
    m = len(columns)
    ones = list(compress(range(m), x))
    zeros = list(compress(range(m), map(not_, x)))
    order = list(range(len(values)))
    if memo is not None:
        key = sum(map(lshift, x, range(m)))
    used = 0
    while used < budget:
        nodes[0] += m + len(ones) * len(zeros)
        best_move = False if memo is None else memo.get(key, False)
        if best_move is False:
            order.sort(key=list(map(abs, values)).__getitem__, reverse=True)
            {ranked}, = order[:{rows}]
            tail = order[{rows}:]
            {read}
            best_score = abs(v0)
            below = -best_score
            best_move = None
            if v0 > 0:
                zeros_worst = [(b, w) for b in zeros if (w := columns[b][r0])]
                for j, _ in zeros_worst:
                    col = columns[j]
                    if {flip_zero}:
                        for i in tail:
                            if not below < values[i] - col[i] < best_score:
                                break
                        else:
                            best_score = max(map(abs, map(sub, values, col)))
                            below = -best_score
                            best_move = (j,)
                swap_ones = ones
            elif v0 < 0:
                swap_ones = [a for a in ones if columns[a][r0]]
                for j in swap_ones:
                    col = columns[j]
                    if {flip_one}:
                        for i in tail:
                            if not below < values[i] + col[i] < best_score:
                                break
                        else:
                            best_score = max(map(abs, map(add, values, col)))
                            below = -best_score
                            best_move = (j,)
                zeros_worst = [(b, columns[b][r0]) for b in zeros]
            else:
                swap_ones = ()
            for a in swap_ones:
                ca = columns[a]
                base = v0 + ca[r0]
                lo = base - best_score
                hi = base + best_score
                for b, cb_worst in zeros_worst:
                    if not lo < cb_worst < hi:
                        continue
                    cb = columns[b]
                    if {swap}:
                        for i in tail:
                            if not below < values[i] + ca[i] - cb[i] < best_score:
                                break
                        else:
                            best_score = max(map(abs, map(sub, map(add, values, ca), cb)))
                            below = -best_score
                            best_move = (a, b)
                            lo = base - best_score
                            hi = base + best_score
            if memo is not None:
                memo[key] = best_move
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
            if memo is not None:
                key ^= 1 << j
        else:
            a, b = best_move
            values[:] = map(sub, map(add, values, columns[a]), columns[b])
            ones.remove(a)
            insort(zeros, a)
            zeros.remove(b)
            insort(ones, b)
            x[a], x[b] = 0, 1
            if memo is not None:
                key ^= 1 << a | 1 << b
        used += 1
    return used
"""


def _descent_source(rows: int) -> str:
    """Python source of `_descent` with the `rows` worst-ranked rows
    unrolled. It depends on `rows` alone and holds no data.

    Each scan unpacks the rank order into locals: the worst row's index r0
    and value v0, the next rows' r1, v1, ..., and `tail`, the rows past
    `rows`. A flip's test is one chained comparison over every unrolled row,
    `below < v0 + col[r0] < best_score and below < v1 + col[r1] < ...`, and
    a swap's, after its worst-row window, over r1 on; only a candidate that
    passes every unrolled row meets the loop over `tail`, empty when the
    matrix has at most `rows` rows.
    """
    ranks = range(rows)

    def window(term, first=0):
        tests = [f"below < {term.format(r=r)} < best_score" for r in ranks[first:]]
        return " and ".join(tests) or "True"

    return _DESCENT_TEMPLATE.format(
        rows=rows,
        ranked=", ".join(f"r{r}" for r in ranks),
        read="\n            ".join(f"v{r} = values[r{r}]" for r in ranks),
        flip_one=window("v{r} + col[r{r}]"),
        flip_zero=window("v{r} - col[r{r}]"),
        swap=window("v{r} + ca[r{r}] - cb[r{r}]", first=1),
    )


_descent_kernel = _compiled(_descent_source, "descent")  # rows 1, ..., _DESCENT_HEAD


def _descent(values, columns, x, budget, nodes, memo=None):
    """Steepest-descent on single-bit flips and 1<->0 pair swaps, in place.

    Returns the number of moves used; nodes[0] gains m + |ones| * |zeros|
    per scan, one per flip and one per pair swap, whether the scan tests
    the candidate or rules it out by sign (below), in the scan that finds
    no move and in a recalled scan too. Each move takes the first
    candidate, in scan order (flips by column, then swaps by (one, zero)
    column pair), whose max |row value| is strictly below the best score
    so far, so runs are reproducible.

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

    Only candidates that move the worst row r0 toward 0 are tested. Let v0
    be its value; s0 = |v0| >= s throughout the scan. Entries are
    nonnegative. If v0 > 0, a one-flip leaves r0 at v0 + c >= s0, and a
    swap selecting a zero-column b with entry 0 in r0 at v0 + c - 0 >= s0,
    as does such a zero-flip. If v0 < 0, symmetrically, a zero-flip leaves
    r0 at v0 - c <= -s0, and a one-flip or swap dropping a one-column with
    entry 0 in r0 at <= -s0. If v0 = 0, s = 0 and nothing passes. Each such
    candidate fails the interval test on r0, so the scan runs its flips
    over the "movers" alone (v0 > 0: the zero-columns with a positive entry
    in r0; v0 < 0: such one-columns), its swaps over ones x movers or
    movers x zeros, and nothing at v0 = 0. Movers stay in ascending order,
    so the candidates tested, in order, are the full scan's minus losers.

    The ascending lists of the one and zero columns, and the row order by
    descending |value|, are built once per call and kept across moves: an
    accepted move updates the lists by remove and insort, and the row
    order is re-sorted in place, nearly sorted already.

    The loop is a kernel generated per row count (`_descent_source`),
    compiled on first use and kept for the process. Each scan unpacks the
    rank order into locals, the worst row's index and value and those of
    the next HEAD - 1 rows (HEAD = `_DESCENT_HEAD`, 16), so a candidate's
    row tests are one chained comparison over locals; rows past HEAD are
    tested in a loop inside the kernel, empty for a matrix of at most HEAD
    rows. Kernels are keyed by min(rows, HEAD), so a process compiles at
    most HEAD of them, each in about 1-2 ms.

    A scan's move depends on the selection x alone, given the root values
    `start` and the columns: the row values are `start` minus the selected
    columns, the one and zero lists are x's in ascending order, so the
    candidates, their scan order and the row values of each are all
    functions of x. A candidate is taken exactly when every one of its rows
    lies strictly inside (-s, s) for the best score s so far, a test no row
    order changes. The row order, which a descent inherits from its earlier
    scans and breaks ties by, decides only at which row a losing candidate
    is dropped, and a swap's worst-row window is that same test on row r0,
    so it too drops only losers. So from the starting
    score max |v_i| on, the sequence of best scores and taken candidates is
    fixed by x, and so is the candidate count m + |ones| * |zeros|.

    Hence `memo`, when given, maps each selection already scanned, as the
    int sum of x_j * 2^j, to the move its scan took, or None at a local
    minimum. A scan looks x up first; on a hit it adds the candidate count
    and applies the recalled move, or stops, without ranking a row or
    testing a candidate, so moves, `used` and node counts are those of the
    full scan. The key is kept only when a memo is given, by XOR at each
    move. A memo is valid for one `start` and one column list, which
    `wdisc_heuristic` shares across the restarts of one local search, and
    only when the caller's values are `start` minus x's columns. Within one
    descent each move lowers the score strictly, so no selection repeats
    and only a later restart can hit; a greedy search, one descent, gets no
    memo, nor a local search over more than `_DESCENT_MEMO_COLUMNS` (16)
    columns, where restarts rarely meet and the memo costs more than it
    saves (see that constant).
    """
    return _descent_kernel(min(len(values), _DESCENT_HEAD))(values, columns, x, budget, nodes, memo)


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
    the returned witness re-evaluated exactly. A local search over at most
    `_DESCENT_MEMO_COLUMNS` columns shares one memo of scanned selections
    across its restarts (see `_descent`).
    """
    if config.kind == "exact":
        raise InputError("wdisc_heuristic runs the greedy or local-search oracle, not exact")
    p = _check_probability(p)
    rng = random.Random(config.seed)
    columns, start, denom = _scale_weighted(matrix, p)
    m = matrix.cols
    threshold = _draw_threshold(p)
    nodes = [0]
    # one descent never revisits a selection, so only restarts can reuse a scan
    memo = {} if config.kind == "local-search" and m <= _DESCENT_MEMO_COLUMNS else None

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
        budget_left -= _descent(values, columns, x, budget_left, nodes, memo)
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
    of the node being branched, offset by the low bar (see `_Packing`), and,
    in chi, the color tried; as in `_search`, a new incumbent is read in
    place by the packing's reader (`_Packing.worst`, the one `_search`
    calls) and shifts the low bar and the live nodes down by its drop, the
    upper gates by twice that. Every child tried counts as a node,
    admitted or not, until the incumbent is 0.
    """
    k = len(opener)
    limit = k * max(sums) + 1
    packing = _Packing.scaled(sums, 1, k, limit)
    pack, width, ones, top, worst = packing.pack, packing.width, packing.ones, packing.top, packing.worst
    m = len(columns)
    # tables[c]: the columns of color c + 1's block, packed unshifted
    tables = [tuple(k * pack(col[lo:hi]) for col in columns) for lo, hi in zip(offsets, offsets[1:])]
    shifts = [width * lo for lo in offsets]
    low = (limit - 1) * ones
    root = packing.pack_values(sums) + low
    gates = [(2 * limit - 1) * ones] * m  # gates[d]: the packed mass of the columns after d, plus high and low
    for d in range(m - 1, 0, -1):
        gates[d - 1] = gates[d] + k * pack(columns[d])
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
        if child & top != top or (child - gates[d]) & top:
            continue
        chi[d] = color
        if d == last:
            value = worst(child - low)
            witness = tuple(chi)
            if not value:
                best = value
                break
            drop = (best - value) * ones
            best = value
            low -= drop
            node = [x - drop for x in node]  # at a leaf every depth's node is live
            drop += drop
            gates = [gate - drop for gate in gates]
            continue
        sizes[color - 1] += 1
        d += 1
        node[d] = child
        color = chi[twin[d]] - 1 if twin[d] >= 0 else 0
    return best, witness, nodes
