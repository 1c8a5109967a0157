import gc
import math
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    CapExceededError,
    DimensionMismatchError,
    FairDivInstance,
    InputError,
    OracleConfig,
    RatMatrix,
    WdiscResult,
    brute_force_min_c,
    build_stacked,
    eval_asymmetric,
    eval_weighted,
    odisc_color,
    odisc_exact,
    oracle_solve,
    stack_horizontal,
    wdisc_exact,
    wdisc_heuristic,
)

from disclab import solvers
from disclab.matrices import stack_vertical
from disclab.solvers import (
    _Packing,
    _descent,
    _draw_threshold,
    _group_columns,
    _search,
    check_search,
    pack_at,
    spaced_ones,
)

from conftest import (
    ENTRIES,
    WIDE,
    WIDE_ENTRIES,
    odisc_blocks,
    partly_identical_blocks,
    pooled_matrices,
    random_01_matrix,
    random_rational_matrix,
)
from naive import naive_asymmetric, naive_descent, naive_odisc, naive_wdisc, naive_wdisc_heuristic


def test_eval_weighted_pinned(w2):
    assert eval_weighted(w2, Fraction(1, 2), (1, 0)) == Fraction(1, 2)
    assert eval_weighted(w2, Fraction(1, 3), (0, 1)) == Fraction(1, 3)
    assert eval_weighted(w2, Fraction(0), (0, 0)) == 0


def test_eval_weighted_validation(w2):
    with pytest.raises(DimensionMismatchError):
        eval_weighted(w2, Fraction(1, 2), (1, 0, 0))
    with pytest.raises(InputError):
        eval_weighted(w2, Fraction(3, 2), (1, 0))
    with pytest.raises(InputError):
        eval_weighted(w2, Fraction(1, 2), (2, 0))


def test_eval_asymmetric_pinned(w2):
    assert eval_asymmetric([w2, w2], (1, 2)) == Fraction(1, 2)
    assert eval_asymmetric([w2, w2], (1, 1)) == 1  # color 2 empty
    assert eval_asymmetric([w2], (1, 1)) == 0      # k = 1 forces the zero vector


def test_eval_asymmetric_validation(w2, w4):
    with pytest.raises(DimensionMismatchError):
        eval_asymmetric([w2, w4], (1, 2))
    with pytest.raises(InputError):
        eval_asymmetric([w2, w2], (1, 3))


def test_block_lists_refused(w2, w4):
    """Every k-block entry point refuses an empty block list and blocks of
    different widths."""
    calls = (
        lambda blocks: eval_asymmetric(blocks, (1, 1)),
        odisc_exact,
        odisc_color,
    )
    for call in calls:
        with pytest.raises(InputError, match="need at least one block"):
            call([])
        with pytest.raises(DimensionMismatchError, match="column counts differ: 4 vs 2"):
            call([w2, w4])


def test_wdisc_exact_pinned(w2):
    assert wdisc_exact(w2, Fraction(1, 2)).value == Fraction(1, 2)
    result = wdisc_exact(w2, Fraction(1, 3))
    assert result.value == Fraction(1, 3)
    assert result.witness == (0, 1)
    stacked = stack_horizontal(w2, 2)
    result = wdisc_exact(stacked, Fraction(1, 5))
    assert result.value == Fraction(2, 5)
    assert result.witness == (0, 0, 0, 1)


def test_wdisc_exact_width_cap(w4):
    wide = stack_horizontal(w4, 7)  # 28 columns
    with pytest.raises(CapExceededError):
        wdisc_exact(wide, Fraction(1, 2))
    assert wdisc_exact(wide, Fraction(1, 2), cap=28).exact


def test_wdisc_exact_matches_naive_enumeration():
    """Branch-and-bound equals full enumeration: value and tie-broken witness."""
    rng = random.Random(42)
    for trial in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 9)
        if trial % 2:
            matrix = random_01_matrix(rng, rows, cols)
        else:
            matrix = random_rational_matrix(rng, rows, cols)
        p = Fraction(rng.randint(0, 6), 6)
        value, witness = naive_wdisc(matrix, p)
        result = wdisc_exact(matrix, p)
        assert result.value == value
        assert result.witness == witness
        assert result.exact


def test_wdisc_witness_reevaluates_to_value():
    rng = random.Random(7)
    for _ in range(30):
        matrix = random_rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 10))
        p = Fraction(rng.randint(1, 5), rng.randint(5, 9))
        result = wdisc_exact(matrix, p)
        assert eval_weighted(matrix, p, result.witness) == result.value


def test_wdisc_exact_leaves_nothing_for_the_collector(w4):
    """The searches are module-level functions, not closures that refer to
    themselves, so a call creates no reference cycles: a full
    collection right after it finds nothing to free. Covers wdisc_exact,
    odisc_exact, brute_force_min_c and odisc_color."""
    calls = []
    for seed in range(3):
        rng = random.Random(seed)
        matrix = RatMatrix.from_rows(
            [[Fraction(rng.randint(0, 4), 4) for _ in range(16)] for _ in range(6)]
        )
        calls.append(lambda matrix=matrix: wdisc_exact(matrix, Fraction(1, 2)))
    calls.append(lambda: odisc_exact([w4] * 3))
    instance = FairDivInstance.from_groups(
        [[[1, Fraction(1, 2), 0, Fraction(1, 3), 1]],
         [[0, 1, 1, Fraction(1, 2), 0]],
         [[Fraction(1, 4), Fraction(1, 4), 1, 0, 1]]]
    )
    calls.append(lambda: brute_force_min_c(instance, "CD"))
    rng = random.Random(7)
    for _ in range(3):
        blocks = [random_rational_matrix(rng, 2, 6) for _ in range(3)]
        calls.append(lambda blocks=blocks: odisc_color(blocks))
    counts = []
    for call in calls:
        gc.collect()
        gc.disable()
        try:
            call()
            counts.append(gc.collect())
        finally:
            gc.enable()
    assert counts == [0] * len(calls), counts


def test_wdisc_symmetry_under_p_flip():
    rng = random.Random(11)
    for _ in range(25):
        matrix = random_rational_matrix(rng, rng.randint(1, 3), rng.randint(1, 8))
        p = Fraction(rng.randint(0, 7), 7)
        assert wdisc_exact(matrix, p).value == wdisc_exact(matrix, 1 - p).value


def test_wdisc_heuristic_contract(w2):
    result = wdisc_heuristic(w2, Fraction(1, 2), OracleConfig(kind="local-search", budget=50, seed=3))
    assert not result.exact
    assert result.value <= 1  # trivial bound: m * max entry
    assert eval_weighted(w2, Fraction(1, 2), result.witness) == result.value

    # must find the global optimum on a 4-point space
    result = wdisc_heuristic(w2, Fraction(1, 3), OracleConfig(kind="local-search", budget=100, seed=7))
    assert result.value == Fraction(1, 3)


def test_wdisc_heuristic_refuses_the_exact_kind(w2):
    """The exact oracle is `wdisc_exact`; the heuristic does not run a
    local search in its name."""
    with pytest.raises(InputError, match="not exact"):
        wdisc_heuristic(w2, Fraction(1, 3), OracleConfig(kind="exact"))


def test_wdisc_heuristic_never_below_exact(w4):
    rng = random.Random(23)
    for _ in range(20):
        matrix = random_rational_matrix(rng, rng.randint(1, 3), rng.randint(1, 8))
        p = Fraction(rng.randint(1, 4), rng.randint(4, 9))
        exact = wdisc_exact(matrix, p).value
        for kind in ("greedy", "local-search"):
            heur = wdisc_heuristic(matrix, p, OracleConfig(kind=kind, budget=200, seed=5))
            assert heur.value >= exact

    stacked = stack_horizontal(w4, 2)
    exact = wdisc_exact(stacked, Fraction(1, 4)).value
    heur = wdisc_heuristic(stacked, Fraction(1, 4), OracleConfig(kind="local-search", budget=500, seed=1))
    assert heur.value == exact  # finds the optimum here, and never goes below


def _descent_case_matrix(rng):
    """Small matrix with duplicate columns, tied entries and sometimes an all-zero row."""
    rows = rng.randint(1, 4)
    palette = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]
    distinct = [[rng.choice(palette) for _ in range(rows)] for _ in range(rng.randint(1, 8))]
    columns = [rng.choice(distinct) for _ in range(rng.randint(1, 14))]
    entries = [[col[i] for col in columns] for i in range(rows)]
    if rng.random() < 0.3:
        entries.insert(rng.randint(0, rows), [Fraction(0)] * len(columns))
    return RatMatrix.from_rows(entries)


def test_wdisc_heuristic_matches_naive_descent():
    rng = random.Random(31)
    for p in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(1, 5), Fraction(1, 10**400)):
        for kind in ("greedy", "local-search"):
            for budget in (1, 64, 300):
                for seed in range(3):
                    matrix = _descent_case_matrix(rng)
                    heur = wdisc_heuristic(matrix, p, OracleConfig(kind=kind, budget=budget, seed=seed))
                    expected = naive_wdisc_heuristic(matrix, p, kind, budget, seed)
                    assert (heur.value, heur.witness, heur.nodes_explored) == expected


def test_descent_matches_naive_descent_move_for_move():
    """At allocate scale (up to 8 rows, 40 columns) the one/zero lists and
    the row order `_descent` keeps across moves stay in step with x and the
    row values. Columns repeat a few distinct ones from a small palette,
    scaled by 6, and the row values are those of p = pn/6, so candidate
    scores and |row values| tie; the starting x is all 0, all 1 or random,
    and the budgets 1, 2 and 7 cut descents short before the last one runs
    to its local minimum."""
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 8)
        m = rng.randint(1, 40)
        distinct = [[rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)] for _ in range(rng.randint(1, 8))]
        columns = [rng.choice(distinct) for _ in range(m)]
        pn = rng.randint(1, 5)
        fill = rng.choice((0, 1, None))
        x = [rng.randint(0, 1) if fill is None else fill for _ in range(m)]
        values = [
            pn * sum(col[i] for col in columns) - 6 * sum(col[i] for col, bit in zip(columns, x) if bit)
            for i in range(n)
        ]
        columns = [[6 * entry for entry in col] for col in columns]
        fast = (list(values), list(x), [0])
        slow = (list(values), list(x), [0])
        for budget in (1, 2, 7, 10**6):
            used = _descent(fast[0], columns, fast[1], budget, fast[2])
            assert used == naive_descent(slow[0], columns, slow[1], budget, slow[2])
            assert fast == slow


def test_draw_threshold_decides_each_draw_exactly():
    """r < t agrees with r < p at and around t, where a rounded threshold
    would not; Python compares floats with Fractions exactly."""
    cases = (
        Fraction(0),
        Fraction(1),
        Fraction(1, 3),  # the nearest double lies below
        Fraction(1, 5),  # the nearest double lies above
        Fraction(1, 10**400),  # underflows to 0.0
        Fraction(2**53 - 1, 2**53) + Fraction(1, 2**80),
    )
    for p in cases:
        t = _draw_threshold(p)
        assert Fraction(t) >= p
        for r in (t, math.nextafter(t, 0), math.nextafter(t, 1)):
            if 0 <= r < 1:
                assert (r < t) == (r < p), (p, r)


def test_wdisc_heuristic_deterministic(w4):
    stacked = stack_horizontal(w4, 2)
    config = OracleConfig(kind="local-search", budget=300, seed=99)
    first = wdisc_heuristic(stacked, Fraction(1, 3), config)
    second = wdisc_heuristic(stacked, Fraction(1, 3), config)
    assert first == second


def test_oracle_dispatch(w2):
    exact = oracle_solve(w2, Fraction(1, 2), OracleConfig(kind="exact"))
    assert exact.exact and exact.value == Fraction(1, 2)
    wide = stack_horizontal(w2, 15)  # 30 columns
    with pytest.raises(CapExceededError):
        oracle_solve(wide, Fraction(1, 2), OracleConfig(kind="exact"))
    heur = oracle_solve(w2, Fraction(1, 2), OracleConfig(kind="greedy"))
    assert not heur.exact


def test_odisc_exact_pinned(w2):
    result = odisc_exact([w2, w2])
    assert result.value == Fraction(1, 2)
    assert result.exact
    assert eval_asymmetric([w2, w2], result.witness) == result.value

    # k copies of the 1 x k all-ones matrix: a permutation coloring is perfect
    for k in (2, 3, 4):
        ones = RatMatrix.from_rows([[1] * k])
        result = odisc_exact([ones] * k)
        assert result.value == 0
        assert sorted(result.witness) == list(range(1, k + 1))

    single = odisc_exact([w2])
    assert single.value == 0 and single.witness == (1, 1)


def test_odisc_exact_cap(w2):
    with pytest.raises(CapExceededError):
        odisc_exact([w2, w2], cap=1)


def peak_bytes(call, error):
    """The tracemalloc peak of `call()`, which must raise `error`."""
    tracemalloc.start()
    try:
        with pytest.raises(error):
            call()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_odisc_exact_refuses_before_stacking(w2):
    """100,000 blocks over 2 columns are 100,000^2 leaves: refused before
    the 200,000-row stack is built."""
    blocks = [w2] * 100_000
    assert peak_bytes(lambda: odisc_exact(blocks), CapExceededError) < 5_000_000


def test_odisc_exact_many_colors_set_up_fast():
    """8,192 copies of [[1]] are 8,192 leaves: each color's packed column is
    built from its own block's row, so the set-up is not cubic in k, and
    only color 1 opens at the one depth, so it packs one column, not one
    per color spanning the rows up to its block."""
    blocks = [RatMatrix.from_rows([[1]])] * 8192
    tracemalloc.start()
    try:
        started = time.process_time()
        result = odisc_exact(blocks)
        elapsed = time.process_time() - started
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.value, result.witness, result.nodes_explored) == (Fraction(8191, 8192), (1,), 2)
    assert elapsed < 5
    assert peak < 5_000_000


def test_odisc_exact_many_copies_of_w2_stay_small(w2):
    """4,096 copies of W_2 are 4,096^2 = 2^24 leaves, the default cap: one
    packed table per block keeps the peak linear in k, under 5 MB."""
    tracemalloc.start()
    try:
        result = odisc_exact([w2] * 4096)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.value, result.witness, result.nodes_explored) == (Fraction(4095, 4096), (1, 2), 4)
    assert peak < 5_000_000


def test_odisc_result_json_has_no_nodes(w2):
    """A coloring result is a WdiscResult whose JSON form drops the node
    count; the count itself is still kept."""
    result = odisc_exact([w2] * 3)
    assert isinstance(result, WdiscResult)
    assert list(result.to_json_dict()) == ["value", "witness", "exact"]
    assert result.to_json_dict() == {"value": "2/3", "witness": [1, 2], "exact": True}
    assert result.nodes_explored == 4
    assert result != WdiscResult(result.value, result.witness, result.nodes_explored, result.exact)


def test_odisc_exact_many_distinct_colors_pack_each_block_once():
    """4,096 distinct one-row blocks [[(i + 1)/4096]]: each block's column is
    packed over its own row and shifted to its fields only where a child
    subtracts it, so the tables hold 4,096 one-field columns and memory
    grows linearly with k."""
    k = 4096
    blocks = [RatMatrix.from_rows([[Fraction(i + 1, k)]]) for i in range(k)]
    tracemalloc.start()
    try:
        result = odisc_exact(blocks)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.value, result.witness, result.nodes_explored) == (Fraction(1, k), (1,), k + 1)
    assert peak < 5_000_000


def test_check_search_builds_no_power_far_from_the_cap():
    """2,000,001^(10^6) has about 20.93 million bits, far from a cap of
    20.9 million: refused without building the 2.6 MB power."""
    peak = peak_bytes(lambda: check_search(2_000_001, 10**6, 20_900_000), CapExceededError)
    assert peak < 1_000_000


def test_check_search_decides_leaves_exactly():
    """k^m leaves are refused iff k^m > 2^cap, at every boundary; a
    negative cap is a usage error whatever the search."""
    for k in range(1, 18):
        for m in range(0, 9):
            for cap in (-2, -1):
                with pytest.raises(InputError, match="cap must be >= 0"):
                    check_search(k, m, cap)
            for cap in range(0, 40):
                refused = Fraction(k**m) > Fraction(2) ** cap
                if refused:
                    with pytest.raises(CapExceededError, match=f"{k}\\^{m} leaves"):
                        check_search(k, m, cap)
                else:
                    check_search(k, m, cap)
    check_search(3, 10**6, 10**9)  # 2^cap is never built


def test_odisc_matches_naive():
    rng = random.Random(77)
    for _ in range(25):
        k = rng.randint(1, 3)
        cols = rng.randint(1, 5)
        blocks = [random_01_matrix(rng, rng.randint(1, 2), cols) for _ in range(k)]
        value, chi = naive_odisc(blocks)
        result = odisc_exact(blocks)
        assert result.value == value
        assert result.witness == chi
        assert eval_asymmetric(blocks, result.witness) == result.value


@settings(max_examples=200, deadline=None)
@given(pooled_matrices(4, 8),
       st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(1)]))
def test_wdisc_exact_matches_naive_property(matrix, p):
    result = wdisc_exact(matrix, p)
    assert (result.value, result.witness) == naive_wdisc(matrix, p)


@settings(max_examples=100, deadline=None)
@given(pooled_matrices(4, 12),
       st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(1)]))
def test_wdisc_exact_duplicate_heavy_matches_naive_property(matrix, p):
    """Up to 12 columns from a pool of at most three, so some witness
    rebuilds find a completion with x_d = 0 and rewrite their optimal
    selection."""
    result = wdisc_exact(matrix, p)
    assert (result.value, result.witness) == naive_wdisc(matrix, p)


def test_wdisc_exact_matches_naive_on_stacked_w():
    for n in (2, 4):
        for den in range(2, 9):
            p = Fraction(1, den)
            matrix = build_stacked(p, n).matrix
            result = wdisc_exact(matrix, p)
            assert (result.value, result.witness) == naive_wdisc(matrix, p), (n, p)


def test_wdisc_exact_matches_naive_on_stacked_w8():
    """n = 8 at p = 1/2 .. 1/5: 8 rows and 8 or 16 columns."""
    for den in range(2, 6):
        p = Fraction(1, den)
        matrix = build_stacked(p, 8).matrix
        result = wdisc_exact(matrix, p)
        assert (result.value, result.witness) == naive_wdisc(matrix, p), p


@settings(max_examples=200, deadline=None)
@given(odisc_blocks())
def test_odisc_exact_matches_naive_property(blocks):
    result = odisc_exact(blocks)
    assert (result.value, result.witness) == naive_odisc(blocks)


@settings(max_examples=150, deadline=None)
@given(partly_identical_blocks())
def test_odisc_exact_partly_identical_blocks_match_naive_property(blocks):
    """Blocks such as [B, C, B] and repeated stacked columns: a color opens
    only after the previous color with an equal block, and a column takes no
    lower color than its previous twin, with naive's value and witness."""
    result = odisc_exact(blocks)
    assert (result.value, result.witness) == naive_odisc(blocks)


WIDE_P = st.sampled_from(
    [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, WIDE), Fraction(WIDE - 1, WIDE), Fraction(2**65, 3**45)]
)


@settings(max_examples=150, deadline=None)
@given(pooled_matrices(4, 8, WIDE_ENTRIES), WIDE_P)
def test_wdisc_exact_wide_fields_match_naive_property(matrix, p):
    result = wdisc_exact(matrix, p)
    assert (result.value, result.witness) == naive_wdisc(matrix, p)


@settings(max_examples=100, deadline=None)
@given(odisc_blocks(WIDE_ENTRIES))
def test_odisc_exact_wide_fields_match_naive_property(blocks):
    result = odisc_exact(blocks)
    assert (result.value, result.witness) == naive_odisc(blocks)


@pytest.mark.parametrize("entries", [ENTRIES, WIDE_ENTRIES], ids=["mixed", "wide"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_eval_asymmetric_matches_naive_property(entries, data):
    """Any coloring, not only optimal ones, over blocks with mixed
    denominators and denominators above 2^64."""
    blocks = data.draw(odisc_blocks(entries))
    k, m = len(blocks), blocks[0].cols
    chi = data.draw(st.lists(st.integers(1, k), min_size=m, max_size=m))
    assert eval_asymmetric(blocks, chi) == naive_asymmetric([block.entries for block in blocks], chi)


# (n, 1/p): (value, nodes_explored) of wdisc_exact on the stacked construction.
STACKED_NODES = {
    (8, 2): ("1", 44), (8, 3): ("2/3", 132), (8, 4): ("1", 70), (8, 5): ("6/5", 179),
    (8, 6): ("1", 70), (8, 7): ("9/7", 119), (8, 8): ("1", 70),
    (16, 2): ("1", 776), (16, 3): ("4/3", 1555), (16, 4): ("1", 3586), (16, 5): ("6/5", 8494),
    (16, 6): ("1", 4396), (16, 7): ("10/7", 9905), (16, 8): ("1", 4655),
}


def test_wdisc_exact_nodes_pinned_on_stacked_w():
    """The search tree does not move: node counts of both phases on the
    stacked construction, n = 8 and 16 at p = 1/2 .. 1/8, stay as pinned."""
    for (n, den), (value, nodes) in STACKED_NODES.items():
        p = Fraction(1, den)
        result = wdisc_exact(build_stacked(p, n).matrix, p, cap=64)
        assert (result.value, result.nodes_explored) == (Fraction(value), nodes), (n, den)


# Seeded matrices of 3-8 rows and 12-20 columns, entries in multiples of 1/2,
# 1/3 or 1/4, about a third of the columns copies of earlier ones, p cycling
# through 1/2 .. 7/8: (p, value, witness, nodes_explored) of wdisc_exact,
# trial by trial. Every trial's witness rebuild runs feasibility searches
# that fail at the root, every child of the root refused.
RANDOM_WDISC_NODES = [
    ("1/2", "3/8", "0000001011111", 321),
    ("5/8", "11/32", "01001001111110101011", 5973),
    ("2/3", "1/9", "00100111001111111", 409),
    ("3/4", "1/12", "10111111001111", 196),
    ("4/5", "1/3", "111111100111", 246),
    ("7/8", "9/32", "1110111111101", 148),
    ("1/2", "1/4", "01011000001110111100", 1482),
    ("5/8", "11/24", "0010011101011111", 315),
    ("2/3", "1/2", "00011111101111", 221),
    ("3/4", "1/4", "0010110111111011111", 223),
    ("4/5", "4/15", "110101111101111", 230),
    ("7/8", "3/32", "10110110111111110", 458),
]


def test_wdisc_exact_pinned_on_random_matrices():
    """The search tree does not move off the construction either: value,
    witness and node count on random matrices with duplicated columns."""
    rng = random.Random(2025)
    for trial, (p, value, witness, nodes) in enumerate(RANDOM_WDISC_NODES):
        rows, cols, den = rng.randint(3, 8), rng.randint(12, 20), rng.choice((2, 3, 4))
        columns = []
        for _ in range(cols):
            if columns and rng.random() < 0.3:
                columns.append(rng.choice(columns))
            else:
                columns.append([Fraction(rng.randint(0, den), den) for _ in range(rows)])
        matrix = RatMatrix.from_rows(list(zip(*columns)))
        result = wdisc_exact(matrix, Fraction(p))
        expected = (Fraction(value), tuple(map(int, witness)), nodes)
        assert (result.value, result.witness, result.nodes_explored) == expected, trial
        assert eval_weighted(matrix, Fraction(p), result.witness) == result.value


def test_wdisc_exact_regroups_the_columns_after_each_fixed_one():
    """Columns 0 and 2 are distinct with one mass and column 3 is a copy of
    column 0. The value search takes group {0, 3} before {2}; once x_0 is
    fixed, the feasibility search over columns 1, ... takes {2} before {3},
    the group's first index now the later one. Value, witness and node
    count as pinned."""
    half = Fraction(1, 2)
    matrix = RatMatrix.from_rows([[1, half, 1, 1], [half, half, 1, half], [1, 1, 1, 1], [1, 0, half, 1]])
    result = wdisc_exact(matrix, Fraction(1, 5))
    assert (result.value, result.witness, result.nodes_explored) == (half, (0, 0, 0, 1), 9)


def test_search_refuses_a_root_below_the_floor():
    """A root with a row at or below -limit is refused before the loop: no
    selection, one node. One above the floor is admitted, and its empty
    selection is the optimum, since the column only lowers the -3 row."""
    packing = _Packing(2, 12)  # 2 * max(|2| + 1, |-3| + 1) + 4
    groups = [(packing.pack((1, 1)), [0])]
    assert _search(packing, groups, packing.pack_values((2, -3)), 3, True) == (3, None, 1)
    assert _search(packing, groups, packing.pack_values((2, -3)), 4, False) == (3, [], 2)


def _lex_least_by_search(packing, columns, order, start, target, selected):
    """The witness rebuild with no root test: a `first` search over the
    groups after every open column, as `_lex_least` is documented to equal."""
    m = len(columns)
    known = [0] * m
    for j in selected:
        known[j] = 1
    values, nodes = start, 0
    for d in range(m):
        if not known[d]:
            continue
        _value, tail, searched = _search(packing, _group_columns(columns, order, d), values, target + 1, True)
        nodes += searched
        if tail is None:
            values -= columns[d]
        else:
            known[d:] = [0] * (m - d)
            for j in tail:
                known[j] = 1
    return tuple(known), nodes


@st.composite
def duplicated_columns(draw):
    """Matrices drawn as for RANDOM_WDISC_NODES: each column a copy of an
    earlier one or fresh entries a/den."""
    rows = draw(st.integers(1, 6))
    den = draw(st.sampled_from((1, 2, 3, 4)))
    fresh = st.lists(st.integers(0, den), min_size=rows, max_size=rows)
    columns = []
    for _ in range(draw(st.integers(1, 12))):
        if columns and draw(st.booleans()):
            columns.append(draw(st.sampled_from(columns)))
        else:
            columns.append([Fraction(a, den) for a in draw(fresh)])
    return RatMatrix.from_rows(list(zip(*columns)))


@settings(max_examples=200, deadline=None)
@given(duplicated_columns(),
       st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(5, 6), Fraction(1)]))
def test_lex_least_root_tests_match_a_search_per_open_column_property(matrix, p):
    """`_lex_least` decides a witness search at its root where either masked
    test fails; witness and node count equal those of a `first` search run
    for every open column, on the arguments `wdisc_exact` gives."""
    lex_least = solvers._lex_least
    rebuilt = []

    def checked(*args):
        result = lex_least(*args)
        assert result == _lex_least_by_search(*args)
        rebuilt.append(result)
        return result

    with mock.patch.object(solvers, "_lex_least", checked):
        result = wdisc_exact(matrix, p)
    assert [witness for witness, _nodes in rebuilt] == [result.witness]


def _column_formula_width(nums, pn, pd, limit):
    """w from the scaled columns: 2^(w-1) > 2 * max_i(|start_i| + mass_i) +
    limit, with start_i = pn * T_i and mass_i the sum of the pd * B_ij."""
    start = [pn * sum(row) for row in nums]
    columns = [[pd * b for b in col] for col in zip(*nums)]
    mass = [sum(col[i] for col in columns) for i in range(len(nums))]
    return (2 * max(abs(v) + r for v, r in zip(start, mass)) + limit).bit_length() + 1


def _packing_widths(solve, *args):
    """The widths of the packings `solve(*args)` builds."""
    widths = []

    class Recorded(_Packing):
        __slots__ = ()

        def __init__(self, rows, bound):
            super().__init__(rows, bound)
            widths.append(self.width)

    with mock.patch.object(solvers, "_Packing", Recorded):
        solve(*args)
    return widths


def _check_wdisc_width(matrix, p):
    limit = p.numerator * max(map(sum, matrix.nums)) + 1
    assert _packing_widths(wdisc_exact, matrix, p) == [_column_formula_width(matrix.nums, p.numerator, p.denominator, limit)]


def _check_odisc_width(matrix):
    """k - 1 copies of `matrix` over its mirror image, at p = 1/k."""
    mirrored = RatMatrix.from_rows([row[::-1] for row in matrix.entries])
    for k in (1, 2, 3):
        blocks = [matrix] * (k - 1) + [mirrored]
        nums = stack_vertical(blocks).nums
        limit = k * max(map(sum, nums)) + 1
        assert _packing_widths(odisc_exact, blocks) == [_column_formula_width(nums, 1, k, limit)]


@pytest.mark.parametrize("rows", [
    [[0]], [[1]], [[Fraction(1, WIDE)]], [[Fraction(WIDE - 1, WIDE)]],
    [[1, Fraction(1, 2), 0, 1]], [[Fraction(3, 2**67 + 5), 1, Fraction(1, WIDE)]],
    [[1, Fraction(1, 3)], [Fraction(2, 3), 0], [1, 1]],
])
def test_row_sum_width_equals_the_column_formula(rows):
    """`_Packing.scaled` takes w from the row sums alone. It equals the
    column formula for `wdisc_exact` at every p, and for `odisc_exact` at
    p = 1/k with its incumbent bound k * max T + 1, on 1x1 and one-row
    matrices, at p = 0 and p = 1, with denominators above 2^64."""
    matrix = RatMatrix.from_rows(rows)
    for p in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(WIDE - 1, WIDE), Fraction(2**65, 3**45)):
        _check_wdisc_width(matrix, p)
    _check_odisc_width(matrix)


@settings(max_examples=100, deadline=None)
@given(pooled_matrices(4, 6, WIDE_ENTRIES), WIDE_P)
def test_row_sum_width_equals_the_column_formula_property(matrix, p):
    _check_wdisc_width(matrix, p)
    _check_odisc_width(matrix)


# (k, n): (value, nodes_explored) of odisc_exact on k copies of the stacked
# construction at p = 1/k, the (k, n) pairs `certify multicolor-lb` solves
# under the default cap.
STACKED_ODISC_NODES = {
    (2, 2): ("1/2", 4), (3, 2): ("2/3", 4), (4, 2): ("1/2", 17), (5, 2): ("4/5", 17),
    (6, 2): ("1/2", 40), (7, 2): ("6/7", 40), (8, 2): ("1/2", 72),
    (2, 4): ("1", 12), (3, 4): ("2/3", 17), (4, 4): ("1", 86), (5, 4): ("4/5", 127),
    (2, 8): ("1", 48), (3, 8): ("4/3", 247), (2, 16): ("1", 804),
}

# Seeded non-identical blocks, k = 2, 3, 4 over 5, 6, 7 columns, entries in
# {0, 1/3, 2/3, 1}: (value, nodes_explored) of odisc_exact, trial by trial.
RANDOM_ODISC_NODES = [("1/3", 37), ("2/9", 175), ("1/4", 717), ("1/6", 15), ("1/9", 328), ("1/3", 1401)]


# Seeded blocks of 1-3 rows each, so every color's block sits at its own
# row offset, k = 5, 6, 7 over 5, 6 columns, entries in {0, 1/3, 2/3, 1}:
# (value, witness, nodes_explored) of odisc_exact, trial by trial.
MANY_COLOR_ODISC = [
    ("2/5", (1, 2, 3, 5, 4), 491),
    ("5/18", (5, 3, 1, 4, 2, 6), 3205),
    ("8/21", (1, 4, 4, 2, 5), 638),
    ("1/5", (4, 2, 3, 5, 1, 1), 511),
    ("7/18", (1, 5, 2, 3, 1), 1495),
    ("3/7", (1, 2, 1, 3, 4, 7), 2577),
]


def test_odisc_exact_nodes_pinned():
    """The multicolor search tree does not move: node counts on k identical
    stacked blocks, whose columns repeat from k = 4 on, on non-identical
    random blocks, and where the incumbent reaches 0 and the search ends."""
    for (k, n), (value, nodes) in STACKED_ODISC_NODES.items():
        matrix = build_stacked(Fraction(1, k), n).matrix
        result = odisc_exact([matrix] * k)
        assert (result.value, result.nodes_explored) == (Fraction(value), nodes), (k, n)
    rng = random.Random(2024)
    for trial, (value, nodes) in enumerate(RANDOM_ODISC_NODES):
        k, cols = 2 + trial % 3, 5 + trial % 3
        blocks = [
            RatMatrix.from_rows(
                [[Fraction(rng.randint(0, 3), 3) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
            )
            for _ in range(k)
        ]
        result = odisc_exact(blocks)
        assert (result.value, result.nodes_explored) == (Fraction(value), nodes), trial
    for k, nodes in ((3, 8), (4, 14)):
        assert odisc_exact([RatMatrix.from_rows([[1] * k])] * k).nodes_explored == nodes
    split = odisc_exact([RatMatrix.from_rows([[1, 1, 0, 0]]), RatMatrix.from_rows([[1, 0, 1, 0]])])
    assert (split.value, split.witness, split.nodes_explored) == (0, (1, 2, 2, 1), 11)


def test_odisc_exact_many_colors_of_distinct_heights_pinned():
    """Five to seven distinct blocks, each shifted to its own fields: value,
    witness and nodes do not move."""
    rng = random.Random(2025)
    for trial, (value, witness, nodes) in enumerate(MANY_COLOR_ODISC):
        k, cols = 5 + trial % 3, 5 + trial % 2
        blocks = [
            RatMatrix.from_rows(
                [[Fraction(rng.randint(0, 3), 3) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
            )
            for _ in range(k)
        ]
        assert len(set(blocks)) == k, trial
        result = odisc_exact(blocks)
        assert (result.value, result.witness, result.nodes_explored) == (Fraction(value), witness, nodes), trial
        assert eval_asymmetric(blocks, witness) == result.value, trial


def test_multicolor_at_least_weighted():
    """k-coloring cannot beat the one-sided weighted relaxation at p = 1/k."""
    rng = random.Random(13)
    for _ in range(40):
        k = rng.choice((2, 3))
        matrix = random_01_matrix(rng, rng.randint(1, 3), rng.randint(1, 6))
        colored = odisc_exact([matrix] * k).value
        weighted = wdisc_exact(matrix, Fraction(1, k)).value
        assert colored >= weighted


def test_result_json_shapes(w2):
    data = wdisc_exact(w2, Fraction(1, 3)).to_json_dict()
    assert data == {"value": "1/3", "witness": [0, 1], "exact": True, "nodes": data["nodes"]}
    assert isinstance(data["nodes"], int)
    result = odisc_exact([w2, w2])
    data = result.to_json_dict()
    assert data == {"value": "1/2", "witness": list(result.witness), "exact": True}
    assert result.nodes_explored > 0
    assert odisc_exact([w2]).nodes_explored == 3  # k = 1: one path, m + 1 nodes


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**40), 2**40), max_size=80), st.data())
def test_pack_at_is_the_plain_sum(values, data):
    """pack_at joins neighbours pairwise past 16 values; the result is the
    plain sum of shifted values for any ints and non-decreasing offsets,
    also when the offsets run past the values."""
    offsets = sorted(data.draw(st.lists(st.integers(0, 3000), min_size=len(values), max_size=len(values) + 3)))
    assert pack_at(values, offsets) == sum(v << o for v, o in zip(values, offsets))
    stride = data.draw(st.integers(1, 64))
    expected = sum(v << stride * i for i, v in enumerate(values))
    assert pack_at(tuple(values), range(0, stride * (len(values) + 2), stride)) == expected


@pytest.mark.parametrize("stride, count", [(1, 0), (1, 1), (1, 70), (7, 3), (31, 40), (64, 5), (200, 9)])
def test_spaced_ones_is_the_geometric_sum(stride, count):
    assert spaced_ones(stride, count) == sum(1 << stride * i for i in range(count))
    assert _Packing(count, (1 << stride - 1) - 1).ones == spaced_ones(stride, count)
