"""Group fair division over indivisible goods with additive [0,1] utilities.

Instances hold k groups of agents; an allocation hands each group one bundle
of a partition of the goods. Three approximate fairness notions are checked
exactly: envy-freeness, proportionality, and consensus division, each "up to
c goods". An instance stores its agents once, as the rows of one
`RatMatrix`, group after group, over one least denominator for the whole
instance, read straight from the input text: each distinct utility is
parsed, range-checked and scaled once, and every cell maps through that
table. `FairDivInstance.groups` views them as Fractions for the lemma
check. For additive utilities, removing the c highest-valued goods (as seen
by the evaluating agent) is the best possible removal, so every comparison
reduces to covering a value deficit with a top-c removal. One integer
routine (`_MinC`) does this for every caller: every agent's numerators are
multiplied by k so that utilities, bundle values and the 1/k share are
ints, and its goods are ranked once, so a top-c removal is a scan of that
ranking that stops when the deficit is covered. Every caller and notion
hands it bundle values in one bundle-major table: for each bundle, every
agent's value of its goods, or None while it holds none (worth 0 to
everyone), so only the bundles that hold goods are read.
The same routine bounds c from below on a partial allocation (the unplaced
goods can shrink a deficit by at most their value); checking a given c is
comparing it with the allocation's minimum. The exact minimum over all
allocations runs in rounds. The first settles c = 0: there every
comparison is linear in the placements, so one packed int holds a field per
agent and bundle (one per agent for PROP), a child adds per-good packed
columns, and one masked test admits or prunes it (`_zero_round`). Later
rounds run the bound's branch and bound under doubling limits, each
stopping once it meets the floor the round before proved (`_bound_round`).
Every round skips allocations that are relabellings of one it visits
first: bundles that are interchangeable (every bundle for CD, bundles of
groups with the same agents for EF and PROP) open in index order, and goods
that every agent values the same go to non-decreasing bundles. Both moves
keep c and the lex-least minimizer obeys both rules, so the witness stays
the lex-least one.

The generators build the complement-pair instances whose minimal c is forced
up by the weighted discrepancy of an embedded matrix, each complement as
den - a from the matrix's integer numerators, and the allocator runs
the scale-and-color reduction on the same integers: per agent, goods outside
its kH most valuable are scaled by its kH-th value into [0,1], the per-group
matrices of scaled vectors are colored by the recursive splitter, and H
doubles until the measured asymmetric discrepancy is at most H, at which
point the coloring is a PROP(2H) allocation (verified before returning).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, InputError, VerificationError
from .matrices import RatMatrix, check_cells
from .rational import as_ratio, over_common_denominator, parse_ratios, pos_part
from .recursive_coloring import odisc_color
from .solvers import (
    DEFAULT_CAP,
    OracleConfig,
    _Packing,
    check_search,
    eval_asymmetric,
    pack_at,
    previous_equal,
    spaced_ones,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

NOTION_TAGS = ("EF", "PROP", "CD")


def _check_nesting(groups):
    """Reject anything but a list of groups, each a list of utility lists."""
    if not isinstance(groups, (list, tuple)) or not all(
        isinstance(group, (list, tuple)) and all(isinstance(agent, (list, tuple)) for agent in group)
        for group in groups
    ):
        raise InputError("groups must be a list of groups, each a list of utility lists")


@dataclass(frozen=True)
class FairDivInstance:
    """k groups of additive agents over m goods; utilities in [0, 1].

    `agents` holds one row per agent, group after group (`group_sizes` rows
    each), and one column per good: integer numerators over the least
    common denominator of every utility in the instance, so the form is
    canonical and equal instances compare equal. `from_groups` (from
    values) and `from_json_dict` (from text) both build it through
    `_from_ratios`; `groups` views it as Fractions.
    """

    k: int
    group_sizes: tuple
    m: int
    agents: RatMatrix

    @classmethod
    def from_groups(cls, groups) -> "FairDivInstance":
        """The instance of groups of utility vectors of values `Fraction` accepts."""
        _check_nesting(groups)
        return cls._from_ratios(
            [[[as_ratio(u) for u in agent] for agent in group] for group in groups]
        )

    @classmethod
    def _from_ratios(cls, groups, ratios=None) -> "FairDivInstance":
        """The instance whose groups[i][j][g], agent j of group i's utility
        for good g, is a cell that `ratios` maps to its (numerator, positive
        denominator) pair, or that pair itself when `ratios` is None.

        Each distinct cell is range-checked and scaled once, and the agents'
        rows map their cells through that table. The errors are those of
        checking agent by agent: no group, an empty group, no good, then per
        agent its length and then its first utility outside [0, 1].
        """
        if ratios is None:
            ratios = {u: u for group in groups for agent in group for u in agent}
        if not groups:
            raise InputError("instance needs at least one group")
        sizes = tuple(len(group) for group in groups)
        if any(size == 0 for size in sizes):
            raise InputError("every group needs at least one agent")
        m = len(groups[0][0])
        if m == 0:
            raise InputError("instance needs at least one good")
        outside = {u for u, (a, b) in ratios.items() if a < 0 or a > b}
        agents = [agent for group in groups for agent in group]
        for agent in agents:
            if len(agent) != m:
                raise DimensionMismatchError("agents disagree on the number of goods")
            if outside and not outside.isdisjoint(agent):
                a, b = ratios[next(u for u in agent if u in outside)]
                raise InputError(f"utility {Fraction(a, b)} outside [0, 1]")
        distinct, den = over_common_denominator(list(ratios.values()))
        scaled = dict(zip(ratios, distinct)).__getitem__
        # Rows built at their final size, as in RatMatrix.from_json_dict.
        nums = tuple([tuple(list(map(scaled, agent))) for agent in agents])
        return cls(k=len(groups), group_sizes=sizes, m=m,
                   agents=RatMatrix(rows=len(agents), cols=m, nums=nums, den=den))

    def by_group(self, rows) -> list:
        """`rows`, one per agent in `agents` order, cut into the k groups."""
        starts = itertools.accumulate(self.group_sizes, initial=0)
        return [rows[start:start + size] for start, size in zip(starts, self.group_sizes)]

    @property
    def groups(self) -> tuple:
        """groups[i][j] is agent j of group i's utility vector as Fractions;
        built on each access."""
        return tuple(self.by_group(self.agents.entries))

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "group_sizes": list(self.group_sizes),
            "m": self.m,
            "groups": self.by_group(self.agents.to_json_dict()["entries"]),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FairDivInstance":
        """The instance of a JSON object with "groups" and optionally "k",
        "group_sizes" and "m", which must match the groups.

        Each distinct utility is parsed (`parse_ratios`), range-checked and
        scaled once, and the cells map through that table straight into
        `agents`. The errors are those of reading cell by cell: every cell
        is parsed before any is range-checked, and the checks run in
        `_from_ratios`' order.
        """
        try:
            groups = data["groups"]
        except (KeyError, TypeError) as exc:
            raise InputError("instance JSON needs a groups field") from exc
        _check_nesting(groups)
        flat = itertools.chain.from_iterable
        ratios = parse_ratios(flat(flat(groups)))
        instance = cls._from_ratios(groups, ratios)
        for field in ("k", "group_sizes", "m"):
            if field in data:
                declared = data[field]
                counts = declared if field == "group_sizes" and isinstance(declared, list) else [declared]
                if not all(isinstance(c, int) and not isinstance(c, bool) for c in counts):
                    kind = "a list of JSON integers" if field == "group_sizes" else "a JSON integer"
                    raise InputError(f"instance {field} must be {kind}, got {declared!r}")
                if isinstance(declared, list):
                    declared = tuple(declared)
                if declared != getattr(instance, field):
                    raise InputError(f"declared {field} does not match groups")
        return instance


@dataclass(frozen=True)
class Allocation:
    """Partition of goods 0..m-1 into k bundles (bundle i goes to group i)."""

    bundles: tuple

    @classmethod
    def from_bundles(cls, bundles, m: int) -> "Allocation":
        if not isinstance(bundles, (list, tuple)):
            raise InputError("bundles must be a list of good-index lists")
        seen = [False] * m
        for bundle in bundles:
            if not isinstance(bundle, (list, tuple)):
                raise InputError(f"bundle {bundle!r} is not a list of good indices")
            for g in bundle:
                if not isinstance(g, int) or isinstance(g, bool):
                    raise InputError(f"good index {g!r} is not an integer")
                if not 0 <= g < m:
                    raise InputError(f"good index {g} out of range")
                if seen[g]:
                    raise InputError(f"good {g} allocated twice")
                seen[g] = True
        if not all(seen):
            missing = [g for g, s in enumerate(seen) if not s]
            raise InputError(f"goods not allocated: {missing}")
        return cls(bundles=tuple(tuple(sorted(bundle)) for bundle in bundles))

    def to_json_dict(self) -> dict:
        return {"bundles": [list(bundle) for bundle in self.bundles]}

    @classmethod
    def from_json_dict(cls, data: dict, m: int) -> "Allocation":
        try:
            bundles = data["bundles"]
        except (KeyError, TypeError) as exc:
            raise InputError("allocation JSON needs a bundles field") from exc
        return cls.from_bundles(bundles, m)


@dataclass(frozen=True)
class FairnessNotion:
    tag: str
    c: int

    def __post_init__(self):
        if self.tag not in NOTION_TAGS:
            raise InputError(f"unknown fairness notion {self.tag!r}")
        if self.c < 0:
            raise InputError("c must be nonnegative")


def _values_of(agent, goods) -> Fraction:
    return sum((agent[g] for g in goods), start=_ZERO)


def _check_allocation(instance: FairDivInstance, allocation: Allocation):
    if len(allocation.bundles) != instance.k:
        raise DimensionMismatchError(
            f"allocation has {len(allocation.bundles)} bundles, instance k={instance.k}"
        )
    Allocation.from_bundles(allocation.bundles, instance.m)


def check_fairness(instance: FairDivInstance, allocation: Allocation, notion: FairnessNotion) -> bool:
    """Exactly decide EFc / PROPc / CDc for the allocation.

    Every comparison behind the notion passes with c removals exactly when
    it passes with any larger c, so the allocation passes iff its minimal c
    is at most notion.c.
    """
    return min_c_for_allocation(instance, allocation, notion.tag) <= notion.c


def min_c_for_allocation(instance: FairDivInstance, allocation: Allocation, tag: str) -> int:
    """Smallest c for which the allocation is EFc / PROPc / CDc.

    EFc compares every agent's own bundle against every other bundle with its
    c best goods (per that agent) removed; PROPc compares against the 1/k
    share minus the c best goods outside the bundle; CDc runs the EF
    comparison for every agent in the instance against every ordered bundle
    pair, regardless of the agent's group. The bundle values go into the
    table `_MinC.bound` reads, bundle-major: every agent's value of each
    bundle that holds goods, and None for an empty one, so an allocation
    with few non-empty bundles costs no N x k table.
    """
    core = _MinC(instance, tag)
    _check_allocation(instance, allocation)
    assignment = [0] * instance.m
    for b, bundle in enumerate(allocation.bundles):
        for g in bundle:
            assignment[g] = b
    by_good = list(zip(*[units for _i, units, _share, _ranking in core.agents]))
    values = [list(map(sum, zip(*map(by_good.__getitem__, bundle)))) if bundle else None
              for bundle in allocation.bundles]
    return core.bound(assignment, values, [0] * len(core.agents), instance.m + 1)


def _check_tag(tag: str) -> None:
    if tag not in NOTION_TAGS:
        raise InputError(f"unknown fairness notion {tag!r}")


def _cover(units, ranking, assignment, bundles, deficit, limit, outside=False):
    """Least c whose c most valued goods among those assigned to `bundles`
    (with `outside`, to none of them) sum to at least `deficit`, or `limit`
    once c reaches it.

    `ranking` lists the agent's valued goods best first, so the scan skips
    the other goods and stops as soon as the deficit is covered; no sort
    happens here.
    """
    if deficit <= 0:
        return 0
    c = 0
    for g in ranking:
        if (assignment[g] in bundles) is not outside:  # `in` gives True or False
            c += 1
            deficit -= units[g]
            if deficit <= 0 or c >= limit:
                return c
    raise VerificationError("removal deficit not coverable")


class _MinC:
    """One instance and notion scaled to integers for the min-c routine.

    Each agent's integer numerators are multiplied by k, which scales every
    utility by k times the instance's denominator, so utilities, every
    bundle value and an agent's 1/k share (the plain sum of its numerators)
    are ints.
    `agents[a]` is (group, units, share, ranking) with `ranking` the goods
    agent a values above 0, ordered by (-utility, index): the c best goods
    of any set are its first c members in that order, and agents run
    group after group. Every notion takes bundle values in one table,
    bundle-major: `values[b]` lists every agent's value of the goods in
    bundle b, or is None while b holds none.
    """

    def __init__(self, instance: FairDivInstance, tag: str):
        _check_tag(tag)
        k = instance.k
        self.tag = tag
        self.agents = []
        for i, group in enumerate(instance.by_group(instance.agents.nums)):
            for nums in group:
                units = list(map(k.__mul__, nums))
                # a stable sort: goods of equal utility stay in index order
                ranking = sorted(itertools.compress(range(instance.m), units),
                                 key=units.__getitem__, reverse=True)
                self.agents.append((i, units, sum(nums), ranking))

    def bound(self, assignment, values, remaining, limit):
        """Lower bound on min c over every completion of a partial allocation.

        `assignment[g]` is good g's bundle (-1 while unplaced), `values[b]`
        every agent's value of the goods placed in bundle b (None while b
        holds no good; such a bundle is worth 0 to every agent), and
        `remaining[a]` agent a's value of the unplaced goods. Placing those
        goods lowers a pair's deficit by at most remaining[a] and only adds
        goods to the removal side, which never lowers the c it needs, so
        each pair needs at least the least c whose top-c removal from its
        placed goods covers the deficit minus remaining[a]:

        - EF/CD (own, other): removal from `other`, deficit
          v(other) - v(own); CD takes the worst own, the least-valued bundle.
        - PROP: removal from the placed goods outside the own bundle, those
          assigned neither to it nor to -1, deficit share - v(own).

        Only the bundles that hold goods are read: an empty bundle is never
        an EF/CD `other` with a deficit, and for CD it is the worst bundle
        whenever there is one. With nothing unplaced this is the
        allocation's exact min c. Returns `limit` as soon as one pair
        reaches it.
        """
        need = 0
        if self.tag == "CD":
            # base[a]: agent a's value of the worst bundle (0 while one is empty) and of the unplaced goods
            base = remaining if None in values else list(map(operator.add, map(min, zip(*values)), remaining))
            for other, vals in enumerate(values):
                if vals is not None:
                    for (_i, units, _share, ranking), value, low in zip(self.agents, vals, base):
                        if value > low:
                            c = _cover(units, ranking, assignment, (other,), value - low, limit)
                            if c > need:
                                if c >= limit:
                                    return limit
                                need = c
            return need
        prop = self.tag == "PROP"
        # EF's `other` bundles: those that hold goods
        others = [] if prop else [(b, vals) for b, vals in enumerate(values) if vals is not None]
        for a, ((i, units, share, ranking), slack) in enumerate(zip(self.agents, remaining)):
            own = values[i]
            base = slack if own is None else own[a] + slack
            if prop and share > base:
                c = _cover(units, ranking, assignment, (i, -1), share - base, limit, outside=True)
                if c > need:
                    if c >= limit:
                        return limit
                    need = c
            for other, vals in others:
                if vals[a] > base:
                    c = _cover(units, ranking, assignment, (other,), vals[a] - base, limit)
                    if c > need:
                        if c >= limit:
                            return limit
                        need = c
        return need


def _symmetries(instance: FairDivInstance, tag: str) -> tuple:
    """(columns, opener, twin): columns[g] every agent's numerator of good
    g; opener[b] the previous bundle of b's class of interchangeable bundles
    (-1 for the first) and twin[g] the previous good identical to g (-1 for
    none), the two rules of `brute_force_min_c`. The rows share one
    denominator, so equal sorted rows are equal groups."""
    columns = list(zip(*instance.agents.nums))
    groups = instance.by_group(instance.agents.nums)
    opener = previous_equal([None if tag == "CD" else tuple(sorted(group)) for group in groups])
    return columns, opener, previous_equal(columns)


def _zero_round(instance: FairDivInstance, tag: str, columns, opener, twin):
    """The lex-least canonical allocation with c = 0, as each good's bundle,
    or None when there is none; and the number of children tried.

    At c = 0 every comparison behind the notion is linear in the
    placements. For an agent of group i, let v(b) be its value of the goods
    placed in bundle b, R its value of the unplaced goods and T its total.
    It has one field per bundle, or one in all for PROP:

    - EF: v(o) - v(i) - R for every bundle o (k fields; field i reads -R);
    - PROP: T - k v(i) - k R, k times s - v(i) - R for its 1/k share
      s = T/k (1 field);
    - CD: k v(o) - T for every bundle o (k fields; every agent, whatever
      its group).

    Placing a good the agent values u in bundle b lowers R by u and raises
    v(b) by u, so it adds u(1 + [o = b] - [b = i]) >= 0 to EF field o,
    k u(1 - [b = i]) to the PROP field and k u [o = b] to CD field o: no
    field ever falls along a path. A node with a positive field is pruned,
    and a leaf that is not is returned.

    Proof that this returns the lex-least c = 0 allocation. Prune: a field
    positive at a node stays positive at every leaf below it, where R = 0.
    There a positive EF or PROP field is a deficit that no removal-free
    comparison covers, and a positive CD field gives a bundle worth more
    than T/k, so another is worth less and the bundle values differ: every
    leaf of a pruned subtree has c >= 1. Leaf: with R = 0 and no positive
    field, EF gives v(o) <= v(i) for every o and PROP gives v(i) >= s; the
    k CD fields sum to k T - k T = 0, so none positive means all zero, and
    every bundle is worth T/k: each is c = 0. So the test is exact at a
    leaf. The walk visits the canonical allocations in lex order
    (`brute_force_min_c`'s two rules, stepped as in `_bound_round`), so the
    first leaf admitted is the lex-least canonical allocation with c = 0,
    which is the lex-least allocation with c = 0.

    Packed. All fields go into one int (`solvers._Packing`), agent-major:
    agent a's fields are slots 0, 1, ... of `stride` = w * (fields per
    agent) bits from bit a * stride, field o in slot o. Values are the
    instance's integer numerators, so every field is an int. An EF field
    lies in [-T, T], a PROP or CD field in [-kT, kT], and 2^(w-1) > max T
    (EF) or k max T (PROP, CD); a field f is stored as f + 2^(w-1) - 1, so
    its top bit is set exactly when f > 0, and one masked test decides the
    node. A child is its parent plus a nonnegative delta per field, so no
    carry crosses a field. The deltas are built at the child from per-good
    columns, each agent's u (EF) or k u (PROP, CD) in its first field
    (`cols`) or, for EF, in all of them (`full`), shifted into place as in
    `solvers._odisc_dfs`; for EF and PROP group b's fields are cut out of
    them with one mask per group, as wide as the group ("without group b"):

    - EF: `full` without group b, plus `cols` shifted to slot b.
    - PROP: `cols` without group b.
    - CD: `cols` shifted to slot b.

    Set-up and memory are O(m + k) packed ints: `cols`, `full` and the
    path's nodes hold one per good, and the masks one per group, each as
    wide as its group.
    """
    k = instance.k
    nums = instance.agents.nums
    sums = list(map(sum, nums))
    scale = 1 if tag == "EF" else k
    slots = 1 if tag == "PROP" else k
    packing = _Packing(len(nums) * slots, scale * max(sums))
    width = packing.width
    stride = width * slots
    fill = spaced_ones(width, slots)  # a one in each of an agent's fields
    firsts = range(0, stride * len(nums), stride)  # each agent's first field
    cols = [scale * pack_at(col, firsts) for col in columns]
    # every field starts at -T, and PROP's at T - kT
    root = packing.top - packing.ones - pack_at(sums, firsts) * fill * (k - 1 if tag == "PROP" else 1)
    if tag == "CD":
        def delta(g, b):
            return cols[g] << width * b
    else:
        shifts = [stride * lo for lo in itertools.accumulate(instance.group_sizes, initial=0)]
        masks = [(1 << stride * size) - 1 for size in instance.group_sizes]

        # x - ((x >> shift & mask) << shift) is x without group b's fields
        if tag == "PROP":
            def delta(g, b):
                col, shift = cols[g], shifts[b]
                return col - ((col >> shift & masks[b]) << shift)
        else:
            full = [col * fill for col in cols]

            def delta(g, b):
                whole, shift = full[g], shifts[b]
                return whole - ((whole >> shift & masks[b]) << shift) + (cols[g] << width * b)
    top = packing.top
    m = instance.m
    node = [root] * m  # node[g]: the admitted node whose good g is being placed
    assignment = [-1] * m  # the stack: the bundle tried at each placed good
    sizes = [0] * k
    nodes = 0
    good = 0
    while True:
        b = assignment[good]
        if b >= 0:
            sizes[b] -= 1
            b += 1
        else:
            b = assignment[twin[good]] if twin[good] >= 0 else 0
        while b < k and opener[b] >= 0 and not sizes[opener[b]]:
            b += 1
        if b == k:
            assignment[good] = -1
            if not good:
                return None, nodes
            good -= 1
            continue
        assignment[good] = b
        sizes[b] += 1
        nodes += 1
        child = node[good] + delta(good, b)
        if child & top:
            continue
        if good == m - 1:
            return tuple(assignment), nodes
        good += 1
        node[good] = child


def _bound_round(core: _MinC, by_good, remaining, opener, twin, floor, limit):
    """(c, assignment) of the lex-least canonical allocation of least c
    among those with c < `limit`, given that none has c < `floor`; (limit,
    None) when none has c < `limit`.

    One loop assigns goods in base-k order (good 0 most significant,
    bundles ascending) over the canonical allocations, its stack the
    assignment itself, keeping the bundle values `core.bound` reads in one
    table for every notion: `values[b]`, every agent's value of bundle b's
    goods, or None while b holds none. Placing or removing a good changes
    one entry, by one `map` over the good's column `by_good[g]`. After
    each placement `core.bound` over every completion is computed, scanning
    stops once it reaches the incumbent, which starts at `limit`, and the
    subtree is pruned when it does; at a leaf the same routine gives the
    exact c. Only a strictly smaller c replaces the incumbent, so the last
    one is the lex-least allocation of least c below `limit`. The loop
    stops once the incumbent reaches `floor`: no allocation has a smaller
    c, so the rest of the walk would replace nothing.
    """
    k = len(opener)
    m = len(by_good)
    values = [None] * k  # values[b]: every agent's value of bundle b's goods, None while it holds none
    sizes = [0] * k  # sizes[b]: the goods placed in bundle b
    best_c, best = limit, None
    assignment = [-1] * m
    last = m - 1
    good = 0
    while True:
        b = assignment[good]
        if b >= 0:  # take good out of the bundle it was tried in
            sizes[b] -= 1
            values[b] = list(map(operator.sub, values[b], by_good[good])) if sizes[b] else None
            b += 1
        else:
            b = assignment[twin[good]] if twin[good] >= 0 else 0
        while b < k and opener[b] >= 0 and not sizes[opener[b]]:
            b += 1
        if b == k:  # good is spent: back to good - 1
            assignment[good] = -1
            if not good:
                break
            good -= 1
            continue
        assignment[good] = b
        sizes[b] += 1
        values[b] = by_good[good] if values[b] is None else list(map(operator.add, values[b], by_good[good]))
        c = core.bound(assignment, values, remaining[good + 1], best_c)
        if c >= best_c:
            continue
        if good < last:
            good += 1
        else:
            best_c, best = c, tuple(assignment)
            if best_c <= floor:
                break
    return best_c, best


def brute_force_min_c(
    instance: FairDivInstance,
    tag: str,
    cap: int = DEFAULT_CAP,
) -> tuple:
    """Exact minimum of min_c over all k^m allocations, with its witness.

    The search runs in rounds, each over the allocations in base-k order
    (good 0 most significant, bundles ascending), and returns the
    lex-least minimizer. Round 0 (`_zero_round`) settles c = 0 with one
    packed test per node. Each later round (`_bound_round`) has a floor and
    a limit, (1, 2), then (2, 4), (4, 8) and so on, each floor the limit of
    the round before: it runs the `_MinC.bound` branch and bound from
    incumbent `limit` and stops once the incumbent reaches `floor`. Every
    allocation has c <= m (removing every good passes), so the round whose
    limit exceeds m finds one. More than 2^cap allocations, the leaves of
    the unpruned search, are refused, before anything is built; an unknown
    notion first.

    Proof that the witness is the lex-least minimizer. Round 0 returns the
    lex-least allocation with c = 0 or proves there is none. A round with
    (floor, limit) starts where no allocation has c < floor: round 0 and
    every round before it found none below its limit. Its branch and bound
    prunes only subtrees whose every allocation has c at least the
    incumbent, and replaces the incumbent only with a strictly smaller c,
    so after the whole walk the incumbent would be the lex-least of the
    allocations of least c below `limit`, if any. Stopping once the
    incumbent reaches `floor` changes nothing: no later leaf has c < floor.
    So the first round that finds an allocation returns c* (c* < limit, and
    the minimizers are exactly the allocations of least c below it) with
    the lex-least minimizer.

    Every round visits only canonical allocations under two symmetries that
    keep c:

    - Interchangeable bundles: for CD every bundle (c does not depend on the
      grouping), for EF and PROP the bundles of groups holding the same
      multiset of agents. A bundle of such a class may take a good only
      once the class's previous bundle holds one.
    - Identical goods, valued the same by every agent: a good never goes to
      a lower bundle than the previous good identical to it.

    Relabelling the bundles of a class, or swapping two identical goods,
    turns any allocation into one with the same c. The lex-least member of
    such an orbit obeys both rules: if a bundle held a good before its
    class's previous bundle, swapping the two labels would give a smaller
    allocation (they agree up to that good, which then takes the lower
    label), and if a good sat in a higher bundle than the previous good
    identical to it, swapping the two goods would too. The lex-least
    allocation of a given c (the lex-least minimizer among them) is the
    lex-least member of its orbit, so it is canonical, and a lex-order walk
    over the canonical allocations meets it first: c and the witness are
    those of the full search (and, read for colors and columns, those of
    `solvers.odisc_exact`'s search).
    """
    _check_tag(tag)
    k = instance.k
    check_search(k, instance.m, cap)
    columns, opener, twin = _symmetries(instance, tag)
    best, _nodes = _zero_round(instance, tag, columns, opener, twin)
    c = 0
    if best is None:
        core = _MinC(instance, tag)
        by_good = [tuple(map(k.__mul__, col)) for col in columns]
        remaining = [(0,) * len(core.agents)]
        for units in reversed(by_good):
            remaining.append(tuple(map(operator.add, remaining[-1], units)))
        remaining.reverse()  # remaining[g][a]: agent a's value of goods g..m-1
        floor = 1
        while best is None:
            c, best = _bound_round(core, by_good, remaining, opener, twin, floor, 2 * floor)
            floor *= 2
    witness = [[] for _ in range(k)]
    for good, b in enumerate(best):
        witness[b].append(good)
    return c, Allocation(bundles=tuple(tuple(b) for b in witness))


# ---------------------------------------------------------------------------
# Lower-bound instance generators.
# ---------------------------------------------------------------------------


def _rows_and_complements(amat: RatMatrix) -> list:
    """Every row of `amat` as an agent, then every row's complement 1 - row,
    each utility a (numerator, denominator) pair over amat.den."""
    den = amat.den
    return [[(a, den) for a in row] for row in amat.nums] + [
        [(den - a, den) for a in row] for row in amat.nums
    ]


def _check_counts(*counts) -> None:
    """Refuse a generator count that is not an int: a float, string or bool."""
    for count in counts:
        if not isinstance(count, int) or isinstance(count, bool):
            raise InputError(f"count {count!r} is not an int")


def gen_prop_lb_instance(amat: RatMatrix, k: int, i_star: int, group_sizes) -> FairDivInstance:
    """Complement-pair instance forcing min_c(PROP) up via the matrix rows.

    Groups 1..i_star each embed every row of `amat` and its complement as an
    agent pair; groups after i_star get one all-1 agent. Remaining agent
    slots are filled with all-zero utilities, the least constraining choice.
    More than MAX_CELLS utilities (agents times goods) are refused before
    any agent is built.
    """
    sizes = tuple(group_sizes)
    _check_counts(k, i_star, *sizes)
    if len(sizes) != k or k < 1:
        raise InputError("group_sizes must list k positive sizes")
    if any(s < 1 for s in sizes):
        raise InputError("group sizes must be positive")
    if any(sizes[i] < sizes[i + 1] for i in range(k - 1)):
        raise InputError("group sizes must be sorted descending")
    if not 1 <= i_star <= k:
        raise InputError(f"i_star {i_star} outside 1..{k}")
    n_rows = amat.rows
    if n_rows > sizes[i_star - 1] // 2:
        raise InputError(
            f"matrix rows {n_rows} exceed half the group-{i_star} size {sizes[i_star - 1]}"
        )
    check_cells(sum(sizes) * amat.cols, "instance utilities")
    zero = [(0, 1)] * amat.cols
    pairs = _rows_and_complements(amat)
    heads = [pairs if i < i_star else [[(1, 1)] * amat.cols] for i in range(k)]
    return FairDivInstance._from_ratios([head + [zero] * (size - len(head)) for head, size in zip(heads, sizes)])


def gen_ef_lb_instance(amat: RatMatrix, k: int, group_sizes) -> FairDivInstance:
    """The PROP construction specialized to the first group (i_star = 1)."""
    return gen_prop_lb_instance(amat, k, 1, group_sizes)


def gen_cd_instance(amat: RatMatrix, k: int) -> FairDivInstance:
    """Row/complement agents spread round-robin over k groups.

    Consensus division does not depend on the grouping, so the distribution
    is arbitrary; groups left empty by small matrices get one all-zero agent
    to keep sizes positive. More than MAX_CELLS utilities are refused first.
    """
    _check_counts(k)
    if k < 1:
        raise InputError("k must be >= 1")
    check_cells(max(2 * amat.rows, k) * amat.cols, "instance utilities")
    agents = _rows_and_complements(amat)
    zero = [(0, 1)] * amat.cols
    return FairDivInstance._from_ratios([agents[i::k] or [zero] for i in range(k)])


def check_lemma_prop_to_disc(
    instance: FairDivInstance,
    allocation: Allocation,
    c: int,
    i: int,
    j: int,
    j_comp: int,
) -> tuple:
    """Complement-pair deviation bound: |u(A_i) - u(G)/k| <= c + [|A_i| - m/k]_+.

    Group index i and agent indices j, j_comp are 0-based. Errors out unless
    the two agents really are complements and the allocation really is PROPc;
    under those preconditions the inequality always holds, so `holds` coming
    back False would mean a checker bug.
    """
    _check_allocation(instance, allocation)
    if not 0 <= i < instance.k:
        raise InputError(f"group index {i} out of range")
    group = instance.groups[i]
    if not (0 <= j < len(group) and 0 <= j_comp < len(group)) or j == j_comp:
        raise InputError("agent indices invalid")
    agent = group[j]
    partner = group[j_comp]
    if any(u + v != _ONE for u, v in zip(agent, partner)):
        raise InputError("agents are not complements")
    if not check_fairness(instance, allocation, FairnessNotion("PROP", c)):
        raise InputError(f"allocation is not PROP{c}")
    own = _values_of(agent, allocation.bundles[i])
    share = sum(agent, start=_ZERO) / instance.k
    lhs = abs(own - share)
    rhs = c + pos_part(Fraction(len(allocation.bundles[i])) - Fraction(instance.m, instance.k))
    return lhs, rhs, lhs <= rhs


# ---------------------------------------------------------------------------
# Proportional allocation via asymmetric discrepancy.
# ---------------------------------------------------------------------------


def build_agent_scaling(nums, k: int, h: int) -> list:
    """One agent's row of a round's matrix, as (numerator, denominator) pairs.

    `nums` holds the agent's integer numerators, padded with zeros to at
    least kH goods. Goods rank by (-utility, index); a good among the kH
    top-ranked ones, or of utility 0, scales to 0, and every other good to
    a/s, where s is the numerator of the kH-th ranked good. All numerators
    share the instance's denominator d, so (a/d)/(s/d) = a/s, within [0, 1].
    """
    top = sorted(range(len(nums)), key=lambda g: (-nums[g], g))[: k * h]
    large = set(top)
    scale = nums[top[-1]]
    return [(0, 1) if g in large or a == 0 else (a, scale) for g, a in enumerate(nums)]


def allocate_prop_via_odisc(instance: FairDivInstance, oracle: OracleConfig = OracleConfig()) -> tuple:
    """Compute a PROP(2H) allocation by coloring scaled utility matrices.

    Starting at H = 1, each round pads the goods with zero-value dummies up
    to kH, scales every agent's integer numerators (`build_agent_scaling`),
    colors the per-group matrices of scaled vectors, and measures the
    asymmetric discrepancy of the coloring. If it is at most H the coloring
    (dummies stripped) is returned, after the independent checker confirms
    PROP(2H); otherwise H doubles. Once kH is at least the padded good count
    every scaled vector is zero, so the loop always terminates. Returns (allocation, c, H) with c = 2H.
    """
    k = instance.k
    m = instance.m
    groups = instance.by_group(instance.agents.nums)
    h = 1
    while True:
        padding = (0,) * max(0, k * h - m)
        blocks = [
            RatMatrix._from_ratios([build_agent_scaling(nums + padding, k, h) for nums in group])
            for group in groups
        ]
        coloring, _certificate = odisc_color(blocks, oracle)
        achieved = eval_asymmetric(blocks, coloring)
        if achieved <= h:
            break
        h *= 2
    bundles = [[] for _ in range(k)]
    for good in range(m):
        bundles[coloring[good] - 1].append(good)
    allocation = Allocation(bundles=tuple(tuple(b) for b in bundles))
    if not check_fairness(instance, allocation, FairnessNotion("PROP", 2 * h)):
        raise VerificationError(
            "allocation failed its PROP(2H) verification; this is a bug"
        )
    return allocation, 2 * h, h
