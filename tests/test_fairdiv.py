import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disclab import (
    Allocation,
    CapExceededError,
    FairDivInstance,
    FairnessNotion,
    InputError,
    OracleConfig,
    RatMatrix,
    allocate_prop_via_odisc,
    brute_force_min_c,
    build_stacked,
    check_fairness,
    check_lemma_prop_to_disc,
    gen_cd_instance,
    gen_ef_lb_instance,
    gen_prop_lb_instance,
    min_c_for_allocation,
    wdisc_exact,
)
from disclab import fairdiv, matrices, rational
from disclab.fairdiv import NOTION_TAGS, _MinC, _cover, build_agent_scaling

from naive import (
    best_removal,
    naive_agent_scaling,
    naive_is_cd,
    naive_is_ef,
    naive_is_prop,
    naive_min_c,
)

EXACT = OracleConfig(kind="exact")
LOCAL = OracleConfig(kind="local-search", budget=400, seed=0)


def three_good_instance():
    """One all-1/all-0 complement pair in group 1, an all-1 agent in group 2."""
    return FairDivInstance.from_groups([
        [[1, 1, 1], [0, 0, 0]],
        [[1, 1, 1]],
    ])


def random_instance(rng, k=None, m=None, sizes=None):
    k = k or rng.randint(2, 3)
    m = m or rng.randint(2, 6)
    sizes = sizes or [rng.randint(1, 2) for _ in range(k)]
    groups = []
    for size in sizes:
        agents = []
        for _ in range(size):
            agent = []
            for _ in range(m):
                den = rng.randint(1, 4)
                agent.append(Fraction(rng.randint(0, den), den))
            agents.append(agent)
        groups.append(agents)
    return FairDivInstance.from_groups(groups)


def random_allocation(rng, instance):
    bundles = [[] for _ in range(instance.k)]
    for g in range(instance.m):
        bundles[rng.randrange(instance.k)].append(g)
    return Allocation.from_bundles(bundles, instance.m)


def test_check_fairness_pinned():
    even = FairDivInstance.from_groups([[[1, 1]], [[1, 1]]])
    alloc = Allocation.from_bundles([[0], [1]], 2)
    assert check_fairness(even, alloc, FairnessNotion("EF", 0))

    inst = three_good_instance()
    alloc = Allocation.from_bundles([[0, 1], [2]], 3)
    assert not check_fairness(inst, alloc, FairnessNotion("EF", 0))
    assert check_fairness(inst, alloc, FairnessNotion("EF", 1))

    # no allocation of 3 goods is PROP0 here: both groups need value 3/2
    for bits in product((0, 1), repeat=3):
        bundles = [[g for g in range(3) if bits[g] == b] for b in range(2)]
        allocation = Allocation.from_bundles(bundles, 3)
        assert not check_fairness(inst, allocation, FairnessNotion("PROP", 0))


def test_fairness_notion_validation():
    with pytest.raises(InputError):
        FairnessNotion("EFX", 0)
    with pytest.raises(InputError):
        FairnessNotion("EF", -1)


def test_top_removal_is_optimal():
    """The ranked scan finds the least c whose best removal covers a deficit
    (vs all removal subsets), and stops at its limit."""
    rng = random.Random(6)
    for _ in range(40):
        m = rng.randint(1, 8)
        agent = [Fraction(rng.randint(0, 4), 4) for _ in range(m)]
        inst = FairDivInstance.from_groups([[agent], [[0] * m]])
        _i, units, _share, ranking = _MinC(inst, "EF").agents[0]
        scale = next((units[g] / agent[g] for g in range(m) if agent[g]), Fraction(1))
        goods = tuple(g for g in range(m) if rng.random() < 0.7)
        assignment = [0 if g in goods else -1 for g in range(m)]
        total = sum((agent[g] for g in goods), start=Fraction(0))
        removed = [total - best_removal(agent, goods, c) for c in range(len(goods) + 1)]
        for deficit in range(-1, sum(units[g] for g in goods) + 1):
            expected = next(c for c, covered in enumerate(removed) if covered * scale >= deficit)
            assert _cover(units, ranking, assignment, (0,), deficit, m + 1) == expected
            limit = rng.randint(1, m + 1)
            assert _cover(units, ranking, assignment, (0,), deficit, limit) == min(expected, limit)


def test_check_fairness_matches_subset_semantics():
    """The top-c checker agrees with the definition's exists-a-set form."""
    rng = random.Random(900)
    for _ in range(25):
        inst = random_instance(rng, m=rng.randint(2, 5))
        alloc = random_allocation(rng, inst)
        for c in range(0, inst.m + 1):
            bundles = alloc.bundles
            assert check_fairness(inst, alloc, FairnessNotion("EF", c)) == naive_is_ef(inst, bundles, c)
            assert check_fairness(inst, alloc, FairnessNotion("PROP", c)) == naive_is_prop(inst, bundles, c)
            assert check_fairness(inst, alloc, FairnessNotion("CD", c)) == naive_is_cd(inst, bundles, c)


def test_min_c_examples():
    zeros = FairDivInstance.from_groups([[[0, 0]], [[0, 0]]])
    alloc = Allocation.from_bundles([[0, 1], []], 2)
    assert min_c_for_allocation(zeros, alloc, "PROP") == 0

    inst = three_good_instance()
    assert min_c_for_allocation(inst, Allocation.from_bundles([[0, 1], [2]], 3), "EF") == 1
    assert min_c_for_allocation(inst, Allocation.from_bundles([[0, 1, 2], []], 3), "EF") == 3


def test_min_c_matches_linear_scan():
    rng = random.Random(52)
    for _ in range(20):
        inst = random_instance(rng)
        alloc = random_allocation(rng, inst)
        for tag in ("EF", "PROP", "CD"):
            assert min_c_for_allocation(inst, alloc, tag) == naive_min_c(inst, alloc.bundles, tag)


def test_brute_force_pinned():
    even = FairDivInstance.from_groups([[[1, 1]], [[1, 1]]])
    c, witness = brute_force_min_c(even, "EF")
    assert c == 0

    inst = three_good_instance()
    c, witness = brute_force_min_c(inst, "EF")
    assert c == 1
    c, witness = brute_force_min_c(inst, "PROP")
    assert c == 1
    assert min_c_for_allocation(inst, witness, "PROP") == 1


def test_brute_force_depth_is_not_bounded_by_recursion():
    """One group of 1,200 goods has one allocation, past Python's default
    recursion limit in depth: every good goes to bundle 0, c = 0."""
    inst = FairDivInstance.from_groups([[[1] * 1200]])
    for tag in ("EF", "PROP", "CD"):
        c, witness = brute_force_min_c(inst, tag)
        assert (c, witness.bundles) == (0, (tuple(range(1200)),)), tag


def test_brute_force_witness_is_lex_least():
    """Witness equals the first minimizer in base-k assignment order."""
    rng = random.Random(71)
    for _ in range(10):
        inst = random_instance(rng, m=rng.randint(2, 4))
        tag = rng.choice(("EF", "PROP", "CD"))
        c_star, witness = brute_force_min_c(inst, tag)
        for assignment in product(range(inst.k), repeat=inst.m):
            bundles = [[g for g in range(inst.m) if assignment[g] == b] for b in range(inst.k)]
            allocation = Allocation.from_bundles(bundles, inst.m)
            c = naive_min_c(inst, allocation.bundles, tag)
            assert c >= c_star
            if c == c_star:
                assert allocation == witness
                break


UTILITIES = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)])


@st.composite
def small_instances(draw):
    """k <= 3, m <= 5; few distinct utilities so values tie, and agents that
    value nothing at all."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    agent = st.one_of(st.just([Fraction(0)] * m), st.lists(UTILITIES, min_size=m, max_size=m))
    groups = draw(st.lists(st.lists(agent, min_size=1, max_size=2), min_size=k, max_size=k))
    return FairDivInstance.from_groups(groups)


def lex_order_scan(inst, tag):
    """(c, bundles) of the first minimizer in base-k assignment order, by the
    subset-enumerating reference."""
    best = None
    for assignment in product(range(inst.k), repeat=inst.m):
        bundles = tuple(tuple(g for g in range(inst.m) if assignment[g] == b) for b in range(inst.k))
        c = naive_min_c(inst, bundles, tag)
        if best is None or c < best[0]:
            best = (c, bundles)
        if c == 0:
            break
    return best


@settings(max_examples=150, deadline=None)
@given(small_instances(), st.sampled_from(NOTION_TAGS))
def test_brute_force_matches_lex_order_scan(inst, tag):
    """(c, witness) equals the first minimizer of a lex-order scan with the
    subset-enumerating reference."""
    c_star, witness = brute_force_min_c(inst, tag)
    assert (c_star, witness.bundles) == lex_order_scan(inst, tag)


@st.composite
def symmetric_instances(draw):
    """k <= 3 copies of one group, or one group plus k - 1 copies of another,
    over m <= 5 goods drawn from a pool of at most 3 columns, so that
    interchangeable bundles and identical goods both occur."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    pool = draw(st.integers(1, 3))
    columns = draw(st.lists(st.integers(0, pool - 1), min_size=m, max_size=m))
    group = st.lists(st.lists(UTILITIES, min_size=pool, max_size=pool), min_size=1, max_size=2)
    first = draw(group)
    copied = draw(group) if draw(st.booleans()) else first
    groups = [first] + [copied] * (k - 1)
    return FairDivInstance.from_groups(
        [[[agent[q] for q in columns] for agent in agents] for agents in groups]
    )


@settings(max_examples=300, deadline=None)
@given(symmetric_instances(), st.sampled_from(NOTION_TAGS))
def test_brute_force_matches_lex_order_scan_under_symmetry(inst, tag):
    """The search over canonical allocations only still returns the lex-order
    scan's (c, witness) when bundles are interchangeable and goods repeat."""
    c_star, witness = brute_force_min_c(inst, tag)
    assert (c_star, witness.bundles) == lex_order_scan(inst, tag)


def assert_canonical(inst, tag, allocation):
    """Identical goods (equal utility for every agent) sit in non-decreasing
    bundles, and the bundles of each interchangeable class (all of them for
    CD, groups with the same agents for EF and PROP) open in index order."""
    agents = [agent for group in inst.groups for agent in group]
    bundle_of = {g: b for b, bundle in enumerate(allocation.bundles) for g in bundle}
    for g in range(inst.m):
        for later in range(g + 1, inst.m):
            if all(agent[g] == agent[later] for agent in agents):
                assert bundle_of[g] <= bundle_of[later]
    opened = [min(bundle, default=inst.m) for bundle in allocation.bundles]
    classes = {}
    for b, group in enumerate(inst.groups):
        classes.setdefault(None if tag == "CD" else tuple(sorted(group)), []).append(b)
    for members in classes.values():
        firsts = [opened[b] for b in members]
        assert firsts == sorted(firsts)


def test_brute_force_reaches_stacked_w2_at_m18():
    """Stacked W_2 at p = 1/18 (9 copies of each column, m = 18), goods in a
    fixed shuffled order, k = 2: every notion's minimum is 1, its witness
    re-checks to 1 and is canonical under both symmetries."""
    amat = build_stacked(Fraction(1, 18), 2).matrix
    order = list(range(amat.cols))
    random.Random(18).shuffle(order)
    amat = amat.restrict_columns(order)
    assert amat.cols == 18
    instances = {
        "EF": gen_ef_lb_instance(amat, 2, (4, 1)),
        "PROP": gen_prop_lb_instance(amat, 2, 1, (4, 1)),
        "CD": gen_cd_instance(amat, 2),
    }
    for tag, inst in instances.items():
        c_star, witness = brute_force_min_c(inst, tag)
        assert c_star == 1
        assert min_c_for_allocation(inst, witness, tag) == 1
        assert_canonical(inst, tag, witness)


def test_brute_force_ignores_agent_order_within_a_group(monkeypatch):
    """Groups 0 and 2 hold the same two agents: listed in either order, their
    bundles stay interchangeable for EF and PROP, so the search makes as many
    bound calls and returns the same (c, witness)."""
    first = [Fraction(1), Fraction(1, 2), Fraction(1, 3), 0, Fraction(2, 3)]
    second = [Fraction(1, 4), 1, 0, Fraction(1, 2), Fraction(1, 2)]
    ones = [1] * 5
    calls = []
    bound = _MinC.bound
    monkeypatch.setattr(_MinC, "bound", lambda core, *args: calls.append(1) or bound(core, *args))
    for tag in ("EF", "PROP"):
        runs = []
        for last in ([first, second], [second, first]):
            calls.clear()
            inst = FairDivInstance.from_groups([[first, second], [ones], last])
            runs.append((brute_force_min_c(inst, tag), len(calls)))
        assert runs[0] == runs[1], tag


def bound_values(core, bundles):
    """The table `_MinC.bound` reads, bundle-major: for each bundle, every
    agent's value of its goods, or None for a bundle that holds no good."""
    return [[sum(units[g] for g in bundle) for _i, units, _s, _r in core.agents] if bundle else None
            for bundle in bundles]


def test_brute_force_leaf_matches_public_checker():
    """The integer routine with nothing unplaced and the public min-c both
    equal the subset-enumerating reference; on a partial allocation the
    routine is a lower bound on every completion."""
    rng = random.Random(62)
    for _ in range(12):
        inst = random_instance(rng, m=rng.randint(2, 4))
        exact = {}
        for assignment in product(range(inst.k), repeat=inst.m):
            bundles = [[g for g in range(inst.m) if assignment[g] == b] for b in range(inst.k)]
            allocation = Allocation.from_bundles(bundles, inst.m)
            for tag in ("EF", "PROP", "CD"):
                core = _MinC(inst, tag)
                values = bound_values(core, bundles)
                expected = naive_min_c(inst, bundles, tag)
                exact[tag, assignment] = expected
                zeros = [0] * len(core.agents)
                assert core.bound(list(assignment), values, zeros, inst.m + 1) == expected
                assert min_c_for_allocation(inst, allocation, tag) == expected
        for tag in ("EF", "PROP", "CD"):
            core = _MinC(inst, tag)
            for placed in range(inst.m):
                for prefix in product(range(inst.k), repeat=placed):
                    assignment = list(prefix) + [-1] * (inst.m - placed)
                    values = bound_values(core, [[g for g in range(placed) if prefix[g] == b]
                                                 for b in range(inst.k)])
                    remaining = [sum(units[placed:]) for _i, units, _s, _r in core.agents]
                    bound = core.bound(assignment, values, remaining, inst.m + 1)
                    completions = [c for (t, full), c in exact.items()
                                   if t == tag and full[:placed] == prefix]
                    assert bound <= min(completions)


def test_ef_implies_prop_and_cd_implies_ef():
    rng = random.Random(33)
    for _ in range(30):
        inst = random_instance(rng)
        alloc = random_allocation(rng, inst)
        for c in range(0, inst.m + 1):
            if check_fairness(inst, alloc, FairnessNotion("EF", c)):
                assert check_fairness(inst, alloc, FairnessNotion("PROP", c))
            if check_fairness(inst, alloc, FairnessNotion("CD", c)):
                assert check_fairness(inst, alloc, FairnessNotion("EF", c))


def test_gen_prop_instance_pinned():
    amat = RatMatrix.from_rows([[1, 1, 1]])
    inst = gen_prop_lb_instance(amat, 2, 1, (2, 1))
    assert inst.group_sizes == (2, 1)
    assert inst.groups[0][0] == (1, 1, 1)
    assert inst.groups[0][1] == (0, 0, 0)
    assert inst.groups[1][0] == (1, 1, 1)

    w2 = RatMatrix.from_rows([[1, 1], [1, 0]])
    inst = gen_prop_lb_instance(w2, 2, 1, (4, 1))
    assert inst.groups[0][0] == (1, 1)
    assert inst.groups[0][1] == (1, 0)
    assert inst.groups[0][2] == (0, 0)
    assert inst.groups[0][3] == (0, 1)

    inst = gen_prop_lb_instance(RatMatrix.from_rows([[1, 0]]), 3, 2, (2, 2, 1))
    assert inst.groups[0][0] == (1, 0) and inst.groups[0][1] == (0, 1)
    assert inst.groups[1][0] == (1, 0)
    assert inst.groups[2][0] == (1, 1)


def test_gen_instance_validation():
    amat = RatMatrix.from_rows([[1, 1]])
    with pytest.raises(InputError):
        gen_prop_lb_instance(amat, 2, 3, (2, 1))
    with pytest.raises(InputError):
        gen_prop_lb_instance(amat, 2, 1, (1, 1))  # needs 2n' <= n_1
    with pytest.raises(InputError):
        gen_prop_lb_instance(amat, 2, 1, (1, 2))  # not descending


def test_gen_ef_matches_prop_at_istar_one():
    amat = RatMatrix.from_rows([[1, 1, 1]])
    assert gen_ef_lb_instance(amat, 2, (2, 1)) == gen_prop_lb_instance(amat, 2, 1, (2, 1))


def test_gen_cd_instance():
    w2 = RatMatrix.from_rows([[1, 1], [1, 0]])
    inst = gen_cd_instance(w2, 2)
    flat = [agent for group in inst.groups for agent in group]
    assert sorted(flat) == sorted([(1, 1), (1, 0), (0, 0), (0, 1)])

    inst = gen_cd_instance(RatMatrix.from_rows([[1, 1]]), 2)
    flat = [agent for group in inst.groups for agent in group]
    assert sorted(flat) == [(0, 0), (1, 1)]

    # all-1 row over 3 goods: consensus division needs at least one removal
    inst = gen_cd_instance(RatMatrix.from_rows([[1, 1, 1]]), 2)
    c, _ = brute_force_min_c(inst, "CD")
    assert c >= 1

    # groups stay nonempty even when k exceeds the agent count
    inst = gen_cd_instance(RatMatrix.from_rows([[1, 0]]), 5)
    assert all(size >= 1 for size in inst.group_sizes)


def test_generators_refuse_counts_that_are_not_ints():
    """A float size is not truncated, a numeral string is not parsed, and a
    bool is not a group count."""
    w2 = RatMatrix.from_rows([[1, 1], [1, 0]])
    for k, i_star, sizes in ((2, 1, (4.9, 1)), (2, 1, ("4", "1")), (2.0, 1, (4, 1)), (2, True, (4, 1))):
        with pytest.raises(InputError, match="is not an int"):
            gen_prop_lb_instance(w2, k, i_star, sizes)
    with pytest.raises(InputError, match="is not an int"):
        gen_ef_lb_instance(w2, 2, (4, Fraction(1)))
    for k in (True, 2.0, "2"):
        with pytest.raises(InputError, match="is not an int"):
            gen_cd_instance(w2, k)


def test_generators_refuse_utilities_before_building():
    """Agents times goods over the cell cap are refused before any agent is
    listed (tracemalloc)."""
    w2 = RatMatrix.from_rows([[1, 1], [1, 0]])
    for call, cells in (
        (lambda: gen_cd_instance(w2, 100_000_000), 200_000_000),
        (lambda: gen_cd_instance(w2, 2_097_153), 4_194_306),
        (lambda: gen_prop_lb_instance(w2, 2, 1, (100_000_000, 1)), 200_000_002),
        (lambda: gen_ef_lb_instance(w2, 2, (2_097_152, 1)), 4_194_306),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match=f"^instance utilities {cells} exceed cap 4194304$"):
                call()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, cells


def test_lemma_pinned():
    inst = FairDivInstance.from_groups([
        [[1, 0], [0, 1]],
        [[0, 0]],
    ])
    alloc = Allocation.from_bundles([[0], [1]], 2)
    lhs, rhs, holds = check_lemma_prop_to_disc(inst, alloc, 1, 0, 0, 1)
    assert (lhs, rhs, holds) == (Fraction(1, 2), 1, True)

    zeros = FairDivInstance.from_groups([[[0, 0], [1, 1]], [[0, 0]]])
    # the all-0/all-1 agents are complements; any PROP0 allocation works
    alloc = Allocation.from_bundles([[0, 1], []], 2)
    lhs, rhs, holds = check_lemma_prop_to_disc(zeros, alloc, 0, 0, 0, 1)
    assert lhs == 0 and holds

    inst = three_good_instance()
    alloc = Allocation.from_bundles([[0, 1], [2]], 3)
    c = min_c_for_allocation(inst, alloc, "PROP")
    lhs, rhs, holds = check_lemma_prop_to_disc(inst, alloc, c, 0, 0, 1)
    assert rhs == c + Fraction(1, 2)
    assert holds


def test_lemma_rejects_bad_preconditions():
    inst = three_good_instance()
    alloc = Allocation.from_bundles([[0, 1], [2]], 3)
    with pytest.raises(InputError):
        check_lemma_prop_to_disc(inst, alloc, 1, 1, 0, 0)  # same agent twice
    with pytest.raises(InputError):
        check_lemma_prop_to_disc(inst, alloc, 0, 0, 0, 1)  # not PROP0
    not_comp = FairDivInstance.from_groups([[[1, 0], [1, 0]], [[0, 0]]])
    with pytest.raises(InputError):
        check_lemma_prop_to_disc(not_comp, alloc.from_bundles([[0], [1]], 2), 1, 0, 0, 1)


def test_lemma_sweep_over_all_prop_allocations():
    """The inequality holds for every PROPc allocation of the pair instance."""
    inst = three_good_instance()
    for assignment in product(range(2), repeat=3):
        bundles = [[g for g in range(3) if assignment[g] == b] for b in range(2)]
        alloc = Allocation.from_bundles(bundles, 3)
        c = min_c_for_allocation(inst, alloc, "PROP")
        lhs, rhs, holds = check_lemma_prop_to_disc(inst, alloc, c, 0, 0, 1)
        assert holds


def test_prop_impossibility_tracks_wdisc():
    """min_c(PROP) > (i*/k) * wdisc - 1 on generated instances."""
    amat = RatMatrix.from_rows([[1, 1, 1]])
    inst = gen_prop_lb_instance(amat, 2, 1, (2, 1))
    delta = wdisc_exact(amat, Fraction(1, 2)).value
    c_star, _ = brute_force_min_c(inst, "PROP")
    assert c_star == 1
    assert c_star > Fraction(1, 2) * delta - 1

    w2 = RatMatrix.from_rows([[1, 1], [1, 0]])
    for k, i_star, sizes in ((2, 1, (4, 1)), (2, 2, (4, 4)), (3, 1, (4, 1, 1))):
        inst = gen_prop_lb_instance(w2, k, i_star, sizes)
        delta = wdisc_exact(w2, Fraction(1, k)).value
        c_star, _ = brute_force_min_c(inst, "PROP")
        assert c_star > Fraction(i_star, k) * delta - 1


def test_ef_impossibility_tracks_wdisc():
    amat = RatMatrix.from_rows([[1, 1, 1]])
    inst = gen_ef_lb_instance(amat, 2, (2, 1))
    delta = wdisc_exact(amat, Fraction(1, 2)).value
    c_star, _ = brute_force_min_c(inst, "EF")
    assert c_star == 1
    assert c_star > delta / 2 - 1


def test_allocate_all_zero_utilities():
    inst = FairDivInstance.from_groups([[[0, 0, 0]], [[0, 0, 0]]])
    allocation, c, h = allocate_prop_via_odisc(inst, EXACT)
    assert h == 1 and c == 2
    assert check_fairness(inst, allocation, FairnessNotion("PROP", 0))


def test_allocate_two_singletons():
    inst = FairDivInstance.from_groups([[[1, 0]], [[0, 1]]])
    allocation, c, h = allocate_prop_via_odisc(inst, EXACT)
    assert h == 1 and c == 2
    assert check_fairness(inst, allocation, FairnessNotion("PROP", c))


def test_allocate_exact_oracle_desk_scale():
    rng = random.Random(500)
    inst = random_instance(rng, k=3, m=20, sizes=(2, 2, 1))
    allocation, c, h = allocate_prop_via_odisc(inst, EXACT)
    assert check_fairness(inst, allocation, FairnessNotion("PROP", c))
    assert c == 2 * h


def test_allocate_random_instances_verify():
    rng = random.Random(321)
    for _ in range(15):
        inst = random_instance(rng, m=rng.randint(2, 12))
        allocation, c, h = allocate_prop_via_odisc(inst, LOCAL)
        assert check_fairness(inst, allocation, FairnessNotion("PROP", c))


def test_agent_scaling():
    # utilities 1, 1/2, 1/2, 1/4, 0: numerators over 4
    scaled = build_agent_scaling([4, 2, 2, 1, 0], k=2, h=1)
    # kH = 2 large goods, ties to the lowest index (goods 0 and 1); the
    # scale is the 2nd ranked numerator, 2 (utility 1/2)
    assert scaled == [(0, 1), (0, 1), (2, 2), (1, 2), (0, 1)]
    assert [Fraction(a, b) for a, b in scaled] == [0, 0, 1, Fraction(1, 2), 0]
    assert all(0 <= a <= b for a, b in scaled)

    # 0/0 = 0 convention when the scale collapses
    assert build_agent_scaling([0] * 4, k=2, h=1) == [(0, 1)] * 4


@st.composite
def scaling_cases(draw):
    """(utilities, k, h) for one agent: tied and zero utilities, all-zero
    agents, mixed denominators, and kH from below m to well above it."""
    m = draw(st.integers(1, 8))
    utility = st.one_of(UTILITIES, st.fractions(min_value=0, max_value=1, max_denominator=12))
    agent = draw(st.one_of(st.just([Fraction(0)] * m), st.lists(utility, min_size=m, max_size=m)))
    return agent, draw(st.integers(1, 4)), draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(scaling_cases())
def test_agent_scaling_matches_naive(case):
    """The integer scaling of an agent's numerators, padded with dummies to
    kH goods as the allocator pads them, is the Fraction definition, and
    gives the same canonical matrix row."""
    utilities, k, h = case
    inst = FairDivInstance.from_groups([[utilities]])
    padding = max(0, k * h - inst.m)
    scaled = build_agent_scaling(inst.agents.nums[0] + (0,) * padding, k, h)
    expected = naive_agent_scaling(list(utilities) + [Fraction(0)] * padding, k, h)
    assert tuple(Fraction(a, b) for a, b in scaled) == expected
    assert RatMatrix._from_ratios([scaled]) == RatMatrix.from_rows([expected])


def allocations_of(inst):
    """Strategy: allocations of the instance's goods to its k bundles."""
    return st.lists(st.integers(0, inst.k - 1), min_size=inst.m, max_size=inst.m).map(
        lambda assignment: Allocation.from_bundles(
            [[g for g, b in enumerate(assignment) if b == i] for i in range(inst.k)], inst.m
        )
    )


@settings(max_examples=150, deadline=None)
@given(small_instances(), st.data())
def test_check_fairness_monotone_in_c(inst, data):
    """check_fairness fails below one c and passes from it on, and that c is
    min_c_for_allocation."""
    allocation = data.draw(allocations_of(inst))
    for tag in NOTION_TAGS:
        passes = [check_fairness(inst, allocation, FairnessNotion(tag, c)) for c in range(inst.m + 2)]
        least = passes.index(True)
        assert passes == [False] * least + [True] * (len(passes) - least)
        assert least == min_c_for_allocation(inst, allocation, tag)


@st.composite
def rational_instances(draw):
    """k <= 3, m <= 5, utilities any rationals in [0, 1] with denominators up
    to 10^30."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    utility = st.fractions(min_value=0, max_value=1, max_denominator=10**30)
    agent = st.lists(utility, min_size=m, max_size=m)
    return FairDivInstance.from_groups(
        draw(st.lists(st.lists(agent, min_size=1, max_size=3), min_size=k, max_size=k))
    )


@settings(max_examples=150, deadline=None)
@given(rational_instances(), st.data())
def test_json_round_trip_is_exact(inst, data):
    """Instances and allocations survive JSON text unchanged, and dumping
    what was read back gives the same text."""
    text = json.dumps(inst.to_json_dict())
    back = FairDivInstance.from_json_dict(json.loads(text))
    assert back == inst
    assert json.dumps(back.to_json_dict()) == text

    allocation = data.draw(allocations_of(inst))
    text = json.dumps(allocation.to_json_dict())
    back = Allocation.from_json_dict(json.loads(text), inst.m)
    assert back == allocation
    assert json.dumps(back.to_json_dict()) == text


def test_instance_json_reads_each_distinct_cell_once(monkeypatch):
    """Spellings of one utility build one instance, an int beside its string
    builds, and a bool or a float cell beside an equal int is still refused:
    the reader parses each distinct string once, keyed by its text."""

    def read(groups):
        return FairDivInstance.from_json_dict({"groups": groups})

    half = FairDivInstance.from_groups([[[Fraction(1, 2)] * 4], [[Fraction(1, 2), 1, 0, 1]]])
    assert read([[["1/2", "2/4", " 1/2 ", "3/6"]], [["1/2", "1", 0, 1]]]) == half
    assert read([[[1, "1"]]]) == FairDivInstance.from_groups([[[1, 1]]])
    for groups, kind in (([[[1, True]]], "bool"), ([[[1]], [[1.0]]], "float"), ([[[0, False]]], "bool")):
        with pytest.raises(InputError) as caught:
            read(groups)
        assert str(caught.value) == f"expected rational string, got {kind}", groups

    parsed = []
    parse_ratio = rational.parse_ratio
    monkeypatch.setattr(rational, "parse_ratio", lambda cell: parsed.append(cell) or parse_ratio(cell))
    assert read([[["1/2", "2/4"]] * 50, [["2/4", "1/2"]] * 50]) == read([[["1/2", "1/2"]] * 50] * 2)
    assert parsed == ["1/2", "2/4", "1/2"]


def test_instance_json_scales_each_distinct_utility_once(monkeypatch):
    """An instance file is read without RatMatrix._from_ratios, with one
    over_common_denominator call over its distinct utilities."""
    groups = [[["1/2", "2/4", "1/3"], ["1", "0", "1/3"]], [["1/6", "1", "1/2"]]]
    expected = FairDivInstance.from_groups([[[Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)], [1, 0, Fraction(1, 3)]],
                                            [[Fraction(1, 6), 1, Fraction(1, 2)]]])

    def refuse(_rows):
        raise AssertionError("a second scaling pass")

    monkeypatch.setattr(RatMatrix, "_from_ratios", refuse)
    scaled = []
    over = rational.over_common_denominator
    for module in (rational, matrices, fairdiv):
        monkeypatch.setattr(module, "over_common_denominator", lambda pairs: scaled.append(list(pairs)) or over(pairs))
    instance = FairDivInstance.from_json_dict({"groups": groups})
    assert instance == expected
    assert instance.agents.nums == ((3, 3, 2), (6, 0, 2), (1, 6, 3)) and instance.agents.den == 6
    assert scaled == [[(1, 2), (2, 4), (1, 3), (1, 1), (0, 1), (1, 6)]]


@pytest.mark.parametrize("groups, error", [
    # agent 2 (group 0) is too short before agent 3 is out of range
    ([[["1", "0"], ["1"]], [["3/2", "0"]]], "agents disagree on the number of goods"),
    # agent 1 is out of range before agent 2 is too short
    ([[["0", "5/4"], ["1"]], [["3/2", "0"]]], "utility 5/4 outside [0, 1]"),
    # within an agent, its first utility out of range in good order
    ([[["1", "-1/2", "3/2"]]], "utility -1/2 outside [0, 1]"),
    ([[["1", "0"]], [["1", "6/4", "2"]]], "agents disagree on the number of goods"),
    ([[["1", "0"]], [["0", "6/4"]], [["1"]]], "utility 3/2 outside [0, 1]"),
])
def test_instance_errors_keep_agent_order(groups, error):
    """Per agent in order: its length, then its first utility outside [0, 1]."""
    with pytest.raises(InputError) as caught:
        FairDivInstance.from_json_dict({"groups": groups})
    assert str(caught.value) == error


def test_brute_force_bound_calls_pinned(monkeypatch):
    """The min-c search visits the same nodes: the count of _MinC.bound
    calls, and of the children the packed zero round tries, on
    complement-pair and random instances is pinned."""
    calls = []
    bound = _MinC.bound
    monkeypatch.setattr(_MinC, "bound", lambda core, *args: calls.append(1) or bound(core, *args))
    tried = []
    zero_round = fairdiv._zero_round

    def counted(*args):
        found, nodes = zero_round(*args)
        tried.append(nodes)
        return found, nodes

    monkeypatch.setattr(fairdiv, "_zero_round", counted)
    amat = build_stacked(Fraction(1, 10), 2).matrix
    pairs = {"EF": gen_ef_lb_instance(amat, 2, (4, 1)), "PROP": gen_prop_lb_instance(amat, 2, 1, (4, 1)),
             "CD": gen_cd_instance(amat, 2)}
    rng = random.Random(24)
    instances = [random_instance(rng, m=rng.randint(3, 7)) for _ in range(12)]
    for tag, pinned, zero in (("EF", 12, 66), ("PROP", 12, 66), ("CD", 12, 37)):
        calls.clear()
        tried.clear()
        assert brute_force_min_c(pairs[tag], tag)[0] == 1
        assert (len(calls), sum(tried)) == (pinned, zero), tag
    for tag, pinned, zero in (("EF", 61, 223), ("PROP", 19, 297), ("CD", 187, 55)):
        calls.clear()
        tried.clear()
        for instance in instances:
            brute_force_min_c(instance, tag)
        assert (len(calls), sum(tried)) == (pinned, zero), tag


def test_zero_round_builds_no_reader(monkeypatch):
    """The packed zero round builds a `_Packing` but never unpacks one, so
    `fd minc` compiles and binds no incumbent reader: with the reader
    factory made to raise, min c runs on complement-pair and random
    instances for every notion, and no reader is compiled."""
    from disclab import solvers

    rounds = []
    zero_round = fairdiv._zero_round
    monkeypatch.setattr(fairdiv, "_zero_round", lambda *args: rounds.append(1) or zero_round(*args))
    solvers._unpacker.cache_clear()
    monkeypatch.setattr(solvers, "_unpacker", mock.Mock(side_effect=AssertionError("a reader was built")))
    amat = build_stacked(Fraction(1, 10), 2).matrix
    instances = [gen_ef_lb_instance(amat, 2, (4, 1)), gen_prop_lb_instance(amat, 2, 1, (4, 1)), gen_cd_instance(amat, 2)]
    rng = random.Random(35)
    instances += [random_instance(rng, m=rng.randint(3, 6)) for _ in range(6)]
    for instance in instances:
        for tag in NOTION_TAGS:
            brute_force_min_c(instance, tag)
    assert len(rounds) == len(instances) * len(NOTION_TAGS)
    monkeypatch.undo()
    assert solvers._unpacker.cache_info().currsize == 0


def first_zero_allocation(inst, tag):
    """The zero round's answer as bundles, or None."""
    columns, opener, twin = fairdiv._symmetries(inst, tag)
    found, _nodes = fairdiv._zero_round(inst, tag, columns, opener, twin)
    if found is None:
        return None
    return tuple(tuple(g for g in range(inst.m) if found[g] == b) for b in range(inst.k))


@st.composite
def four_bundle_instances(draw):
    """k = 4 groups of one or two agents over m <= 4 goods, each group a
    copy of the one before or not: either four copies of one column, which
    one bundle each can share out with c = 0, or goods drawn from a pool of
    at most m columns."""
    copies = draw(st.booleans())
    m = 4 if copies else draw(st.integers(1, 4))
    pool = 1 if copies else draw(st.integers(1, m))
    columns = draw(st.lists(st.integers(0, pool - 1), min_size=m, max_size=m))
    group = st.lists(st.lists(UTILITIES, min_size=pool, max_size=pool), min_size=1, max_size=2)
    groups = [draw(group)]
    for _ in range(3):
        groups.append(groups[-1] if draw(st.booleans()) else draw(group))
    return FairDivInstance.from_groups(
        [[[agent[q] for q in columns] for agent in agents] for agents in groups]
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_instances(), symmetric_instances(), four_bundle_instances()),
       st.sampled_from(NOTION_TAGS))
@example(FairDivInstance.from_groups([[[Fraction(1, 3)] * 4, [1] * 4]] * 4), "CD")
@example(FairDivInstance.from_groups([[[1] * 4], [[Fraction(1, 2)] * 4]] * 2), "EF")
def test_zero_round_finds_the_first_c0_allocation(inst, tag):
    """The packed zero round returns the lex-order scan's first allocation
    with c = 0, or nothing when no allocation has c = 0, at k <= 3 and at
    k = 4."""
    c, bundles = lex_order_scan(inst, tag)
    assert first_zero_allocation(inst, tag) == (bundles if c == 0 else None)


def test_brute_force_stacked_w16_cd():
    """Stacked W_16 at p = 1/2 as a CD instance over k = 2: the rounds
    reach c = 4 through (1, 2), (2, 4) and (4, 8), with the witness of the
    single branch and bound they replace."""
    inst = gen_cd_instance(build_stacked(Fraction(1, 2), 16).matrix, 2)
    c, witness = brute_force_min_c(inst, "CD")
    assert (c, witness.bundles) == (4, ((0, 1, 2, 3, 4, 5, 8, 9), (6, 7, 10, 11, 12, 13, 14, 15)))


def one_agent_per_group(k, m, seed):
    rng = random.Random(seed)
    return FairDivInstance.from_groups(
        [[[Fraction(rng.randint(0, b), b) for b in (rng.randint(1, 6) for _ in range(m))]] for _ in range(k)]
    )


@pytest.mark.parametrize("tag", ["EF", "CD"])
def test_brute_force_many_groups_stays_fast(tag):
    """k = 256 groups of one agent over m = 3 goods: the zero round packs
    256 (EF) or 256 (CD) fields per agent into ints built from O(m + k)
    pieces, so the search takes well under a second (0.01-0.04 s on Python
    3.11); a table of packed deltas per good and bundle would hold 768 ints
    of 65,536 fields each. Its answer re-checks with the public checker."""
    inst = one_agent_per_group(256, 3, 7)
    started = time.process_time()
    c, witness = brute_force_min_c(inst, tag)
    assert time.process_time() - started < 5
    assert c == 1
    assert min_c_for_allocation(inst, witness, tag) == 1
    assert first_zero_allocation(inst, tag) is None


def test_brute_force_refuses_before_building(monkeypatch):
    """An unknown notion is refused first, then more than 2^cap
    allocations, before the integer core or any packed column is built."""
    built = []
    monkeypatch.setattr(_MinC, "__init__", lambda core, *args: built.append(1))
    monkeypatch.setattr(fairdiv, "_zero_round", lambda *args: built.append(1))
    inst = FairDivInstance.from_groups([[[1, 0] * 15] * 3, [[0, 1] * 15] * 3])
    with pytest.raises(InputError, match="unknown fairness notion 'XX'"):
        brute_force_min_c(inst, "XX")
    for tag in NOTION_TAGS:
        with pytest.raises(CapExceededError):
            brute_force_min_c(inst, tag)
    assert not built


def test_min_c_core_memory_is_linear_in_k():
    """The PROP bound keeps no table of the bundles outside each bundle: at
    k = 2,048 groups of one agent, building the integer core peaks under
    4 MB of traced memory (0.9 MB on Python 3.11; k tuples of the k - 1
    other bundles took 152 MB). Nor does any notion keep every agent's
    value of every bundle, only of the bundles that hold goods: the PROP
    min-c search and the checker for every notion each peak under 4 MB too
    (1.3 and 0.8 MB on Python 3.11; an N x k table of bundle values took
    35.0 MB and, for the EF and CD checks of goods 0 and 1 in the first two
    bundles, 38.2 MB)."""
    inst = one_agent_per_group(2048, 2, 3)
    witness = brute_force_min_c(inst, "PROP")[1]
    split = Allocation.from_bundles([[0], [1]] + [[]] * 2046, 2)
    for call in (lambda: _MinC(inst, "PROP"), lambda: brute_force_min_c(inst, "PROP"),
                 lambda: min_c_for_allocation(inst, witness, "PROP"),
                 lambda: min_c_for_allocation(inst, split, "EF"), lambda: min_c_for_allocation(inst, split, "CD")):
        tracemalloc.start()
        try:
            call()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def test_generated_instance_memory_is_one_matrix():
    """A CD instance of stacked W_8 (p = 1/3) over 20,000 groups, almost all
    one all-zero agent, is built and written as JSON in under 12 MB of
    traced memory (6.9 MB on Python 3.11): its agents are one matrix over
    one denominator, with no numerator tuple and denominator kept per agent
    beside it (17.0 MB)."""
    amat = build_stacked(Fraction(1, 3), 8).matrix
    tracemalloc.start()
    try:
        gen_cd_instance(amat, 20_000).to_json_dict()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


def test_instance_json_round_trip():
    inst = three_good_instance()
    data = inst.to_json_dict()
    assert data["groups"][0][0] == ["1", "1", "1"]
    assert FairDivInstance.from_json_dict(data) == inst

    alloc = Allocation.from_bundles([[0, 2], [1]], 3)
    assert Allocation.from_json_dict(alloc.to_json_dict(), 3) == alloc


def test_allocation_validation():
    with pytest.raises(InputError):
        Allocation.from_bundles([[0], [0]], 2)
    with pytest.raises(InputError):
        Allocation.from_bundles([[0], []], 2)
    with pytest.raises(InputError):
        Allocation.from_bundles([[0, 3], [1]], 3)
    for bad in ([[True], [1]], [["0"], [1]], [[0.0], [1]], [0, [1]], "01"):
        with pytest.raises(InputError):
            Allocation.from_bundles(bad, 2)


def test_instance_validation():
    with pytest.raises(InputError):
        FairDivInstance.from_groups([[[2, 0]]])
    with pytest.raises(InputError):
        FairDivInstance.from_groups([[]])
    with pytest.raises(InputError):
        FairDivInstance.from_groups([])
