"""Group fair division over indivisible goods with additive [0,1] utilities.

Instances hold k groups of agents; an allocation hands each group one bundle
of a partition of the goods. Three approximate fairness notions are checked
exactly: envy-freeness, proportionality, and consensus division, each "up to
c goods". For additive utilities, removing the c highest-valued goods (as
seen by the evaluating agent) is the best possible removal, so every
comparison reduces to covering an exact rational deficit with a top-c prefix
sum. The minimal c of an allocation is therefore read off those prefixes
directly, and checking a given c is comparing it with that minimum.

The generators build the complement-pair instances whose minimal c is forced
up by the weighted discrepancy of an embedded matrix, and the allocator runs
the scale-and-color reduction: per agent, goods outside her kH most valuable
are scaled by her kH-th value into [0,1], the per-group matrices of scaled
vectors are colored by the recursive splitter, and H doubles until the
measured asymmetric discrepancy is at most H, at which point the coloring is
a PROP(2H) allocation (verified before returning).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InputError,
    VerificationError,
)
from .matrices import RatMatrix
from .rational import format_rational, parse_rational, pos_part
from .recursive_coloring import RecursionConfig, odisc_color
from .solvers import DEFAULT_ENUMERATION_CAP, eval_asymmetric

_ZERO = Fraction(0)
_ONE = Fraction(1)

NOTION_TAGS = ("EF", "PROP", "CD")


@dataclass(frozen=True)
class FairDivInstance:
    """k groups of additive agents over m goods; utilities in [0, 1]."""

    k: int
    group_sizes: tuple
    m: int
    groups: tuple  # groups[i][j] is the utility vector of agent j in group i

    @classmethod
    def from_groups(cls, groups) -> "FairDivInstance":
        parsed = tuple(
            tuple(tuple(Fraction(u) for u in agent) for agent in group)
            for group in groups
        )
        if not parsed:
            raise InputError("instance needs at least one group")
        sizes = tuple(len(group) for group in parsed)
        if any(size == 0 for size in sizes):
            raise InputError("every group needs at least one agent")
        m = len(parsed[0][0])
        if m == 0:
            raise InputError("instance needs at least one good")
        for group in parsed:
            for agent in group:
                if len(agent) != m:
                    raise DimensionMismatchError("agents disagree on the number of goods")
                for u in agent:
                    if u < _ZERO or u > _ONE:
                        raise InputError(f"utility {u} outside [0, 1]")
        return cls(k=len(parsed), group_sizes=sizes, m=m, groups=parsed)

    def agents(self):
        """Yield (group index, agent index, utility vector) over all agents."""
        for i, group in enumerate(self.groups):
            for j, agent in enumerate(group):
                yield i, j, agent

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "group_sizes": list(self.group_sizes),
            "m": self.m,
            "groups": [
                [[format_rational(u) for u in agent] for agent in group]
                for group in self.groups
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FairDivInstance":
        try:
            groups = data["groups"]
        except (KeyError, TypeError) as exc:
            raise InputError("instance JSON needs a groups field") from exc
        instance = cls.from_groups(
            [[[parse_rational(u) for u in agent] for agent in group] for group in groups]
        )
        for field in ("k", "group_sizes", "m"):
            if field in data:
                declared = data[field]
                actual = getattr(instance, field)
                if isinstance(actual, tuple):
                    declared = tuple(declared)
                if declared != actual:
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
    pair, regardless of the agent's group.
    """
    if tag not in NOTION_TAGS:
        raise InputError(f"unknown fairness notion {tag!r}")
    _check_allocation(instance, allocation)
    bundles = allocation.bundles
    agents = list(instance.agents())
    values = [[_values_of(agent, bundle) for bundle in bundles] for _i, _j, agent in agents]
    shares = [sum(agent, start=_ZERO) / instance.k for _i, _j, agent in agents]
    return _min_c_from_state(instance, tag, bundles, values, shares, agents)


def _removal_prefixes(agent, goods):
    """Cumulative best-first removal sums: prefixes[c] = value of the c most
    valued goods (under `agent`) among `goods`."""
    ranked = sorted((agent[g] for g in goods), reverse=True)
    prefixes = [_ZERO]
    for u in ranked:
        prefixes.append(prefixes[-1] + u)
    return prefixes


def _smallest_c(prefixes, deficit):
    """Least c with prefixes[c] >= deficit (deficit is always reachable)."""
    if deficit <= _ZERO:
        return 0
    for c, covered in enumerate(prefixes):
        if covered >= deficit:
            return c
    raise VerificationError("removal deficit not coverable")


def _min_c_from_state(instance, tag, bundles, values, shares, agents):
    """Minimal c for one allocation, given per-agent bundle values and shares.

    Each fairness comparison reduces to covering a value deficit with a
    top-c removal, so the minimal c is the max over agent/bundle pairs of the
    least prefix covering the pair's deficit.
    """
    k = instance.k
    need = 0
    if tag == "PROP":
        for a, (i, _j, agent) in enumerate(agents):
            outside = [g for b in range(k) if b != i for g in bundles[b]]
            prefixes = _removal_prefixes(agent, outside)
            need = max(need, _smallest_c(prefixes, shares[a] - values[a][i]))
        return need
    for a, (i, _j, agent) in enumerate(agents):
        own_range = range(k) if tag == "CD" else (i,)
        for other in range(k):
            prefixes = None
            for own in own_range:
                if own == other:
                    continue
                deficit = values[a][other] - values[a][own]
                if deficit <= _ZERO:
                    continue
                if prefixes is None:
                    prefixes = _removal_prefixes(agent, bundles[other])
                need = max(need, _smallest_c(prefixes, deficit))
    return need


def brute_force_min_c(
    instance: FairDivInstance,
    tag: str,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple:
    """Exact minimum of min_c over all k^m allocations, with its witness.

    One sequential search enumerates allocations as base-k assignment vectors
    (good 0 most significant), keeping per-agent bundle values incrementally
    and stopping at the first allocation with c = 0; the witness is the
    lexicographically least minimizer.
    """
    if tag not in NOTION_TAGS:
        raise InputError(f"unknown fairness notion {tag!r}")
    k = instance.k
    m = instance.m
    total = k**m
    if total > cap:
        raise CapExceededError(f"k^m = {total} exceeds enumeration cap {cap}")

    bundles = [[] for _ in range(k)]
    agents = list(instance.agents())
    values = [[_ZERO] * k for _ in agents]
    shares = [sum(agent, start=_ZERO) / k for _i, _j, agent in agents]
    assignment = [0] * m
    best = [None, None]

    def descend(good):
        if best[0] == 0:
            return
        if good == m:
            c = _min_c_from_state(instance, tag, bundles, values, shares, agents)
            if best[0] is None or c < best[0]:
                best[0] = c
                best[1] = tuple(assignment)
            return
        for b in range(k):
            bundles[b].append(good)
            assignment[good] = b
            for a, (_i, _j, agent) in enumerate(agents):
                values[a][b] += agent[good]
            descend(good + 1)
            bundles[b].pop()
            for a, (_i, _j, agent) in enumerate(agents):
                values[a][b] -= agent[good]

    descend(0)
    witness = [[] for _ in range(k)]
    for good, b in enumerate(best[1]):
        witness[b].append(good)
    return best[0], Allocation(bundles=tuple(tuple(b) for b in witness))


# ---------------------------------------------------------------------------
# Lower-bound instance generators.
# ---------------------------------------------------------------------------


def _complement(row) -> tuple:
    return tuple(_ONE - u for u in row)


def gen_prop_lb_instance(amat: RatMatrix, k: int, i_star: int, group_sizes) -> FairDivInstance:
    """Complement-pair instance forcing min_c(PROP) up via the matrix rows.

    Groups 1..i_star each embed every row of `amat` and its complement as an
    agent pair; groups after i_star get one all-1 agent. Remaining agent
    slots are filled with all-zero utilities, the least constraining choice.
    """
    sizes = tuple(int(s) for s in group_sizes)
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
    m = amat.cols
    zero = (_ZERO,) * m
    ones = (_ONE,) * m
    groups = []
    for i in range(k):
        if i < i_star:
            agents = [tuple(row) for row in amat.entries]
            agents += [_complement(row) for row in amat.entries]
        else:
            agents = [ones]
        agents += [zero] * (sizes[i] - len(agents))
        groups.append(agents)
    return FairDivInstance.from_groups(groups)


def gen_ef_lb_instance(amat: RatMatrix, k: int, group_sizes) -> FairDivInstance:
    """The PROP construction specialized to the first group (i_star = 1)."""
    return gen_prop_lb_instance(amat, k, 1, group_sizes)


def gen_cd_instance(amat: RatMatrix, k: int) -> FairDivInstance:
    """Row/complement agents spread round-robin over k groups.

    Consensus division does not depend on the grouping, so the distribution
    is arbitrary; groups left empty by small matrices get one all-zero agent
    to keep sizes positive.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    agents = [tuple(row) for row in amat.entries]
    agents += [_complement(row) for row in amat.entries]
    groups = [[] for _ in range(k)]
    for idx, agent in enumerate(agents):
        groups[idx % k].append(agent)
    zero = (_ZERO,) * amat.cols
    for group in groups:
        if not group:
            group.append(zero)
    return FairDivInstance.from_groups(groups)


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


@dataclass(frozen=True)
class AgentScaling:
    """Per-agent split of goods into "large" and scaled "small" ones.

    large_goods: the agent's kH most valued goods (ties to lower index).
    top_goods:   her 2H most valued, the candidate removal set.
    scale:       smallest utility among the large goods.
    scaled:      per-good vector, 0 on large goods, u/scale elsewhere
                 (0/0 = 0), always within [0, 1].
    """

    large_goods: tuple
    top_goods: tuple
    scale: Fraction
    scaled: tuple


def build_agent_scaling(utilities, k: int, h: int) -> AgentScaling:
    """Rank goods for one agent and scale the small ones by the kH-th value."""
    utilities = list(utilities)
    m = len(utilities)
    order = sorted(range(m), key=lambda g: (-utilities[g], g))
    large = order[: min(k * h, m)]
    top = order[: min(2 * h, m)]
    large_set = set(large)
    scale = min((utilities[g] for g in large), default=_ZERO)
    scaled = []
    for g in range(m):
        if g in large_set or utilities[g] == _ZERO:
            scaled.append(_ZERO)
        else:
            scaled.append(utilities[g] / scale)
    return AgentScaling(
        large_goods=tuple(sorted(large)),
        top_goods=tuple(sorted(top)),
        scale=scale,
        scaled=tuple(scaled),
    )


def allocate_prop_via_odisc(
    instance: FairDivInstance, config: RecursionConfig = RecursionConfig()
) -> tuple:
    """Compute a PROP(2H) allocation by coloring scaled utility matrices.

    Starting at H = 1, each round pads the goods with zero-value dummies up
    to kH, builds every agent's scaling, colors the per-group matrices of
    scaled vectors, and measures the asymmetric discrepancy of the coloring.
    If it is at most H the coloring (dummies stripped) is returned, after the
    independent checker confirms PROP(2H); otherwise H doubles. Once kH is at
    least the padded good count every scaled vector is zero, so the loop
    always terminates. Returns (allocation, c, H) with c = 2H.
    """
    k = instance.k
    m = instance.m
    h = 1
    while True:
        m_pad = max(m, k * h)
        blocks = []
        for group in instance.groups:
            rows = []
            for agent in group:
                padded = list(agent) + [_ZERO] * (m_pad - m)
                rows.append(build_agent_scaling(padded, k, h).scaled)
            blocks.append(RatMatrix.from_rows(rows))
        coloring, _certificate = odisc_color(blocks, config)
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
