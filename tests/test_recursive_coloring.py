import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    InputError,
    OracleConfig,
    eval_asymmetric,
    odisc_color,
    reference_bound,
    stack_vertical,
)

from conftest import ENTRIES, WIDE_ENTRIES, odisc_blocks, random_01_matrix, random_rational_matrix

EXACT = OracleConfig(kind="exact")


def measured_color_value(blocks, coloring, color):
    k = len(blocks)
    share = Fraction(1, k)
    sel = [1 if c == color else 0 for c in coloring]
    return max(
        abs(sum(e * (share - s) for e, s in zip(row, sel)))
        for row in blocks[color - 1].entries
    )


def test_base_case_single_color(w2):
    coloring, cert = odisc_color([w2], EXACT)
    assert coloring == (1, 1)
    assert cert.bounds == (0,)
    assert eval_asymmetric([w2], coloring) == 0


def test_two_color_pinned(w2):
    coloring, cert = odisc_color([w2, w2], EXACT)
    # oracle on the 4x2 concatenation at p = 1/2 measures 1/2
    assert cert.oracle_value == Fraction(1, 2)
    assert cert.k1 == 1 and cert.k2 == 1
    assert cert.bounds == (Fraction(1, 2), Fraction(1, 2))
    assert eval_asymmetric([w2, w2], coloring) <= Fraction(1, 2)


def test_three_color_bounds_hold(w2):
    blocks = [w2, w2, w2]
    coloring, cert = odisc_color(blocks, EXACT)
    assert cert.k1 == 1 and cert.k2 == 2
    for color in (1, 2, 3):
        assert measured_color_value(blocks, coloring, color) <= cert.bound_for(color)


def test_partition_property(w4):
    blocks = [w4, w4, w4, w4, w4]
    coloring, cert = odisc_color(blocks, EXACT)
    assert len(coloring) == w4.cols
    assert all(1 <= c <= 5 for c in coloring)

    def check_node(node):
        if node.low is None:
            return
        assert set(node.low.columns) | set(node.high.columns) == set(node.columns)
        assert set(node.low.columns) & set(node.high.columns) == set()
        check_node(node.low)
        check_node(node.high)

    assert cert.columns == tuple(range(w4.cols))
    check_node(cert)


def test_certificate_soundness_random():
    """Measured per-color discrepancy never exceeds its telescoped bound."""
    rng = random.Random(2024)
    for trial in range(60):
        k = rng.randint(2, 5)
        cols = rng.randint(1, 8)
        blocks = [
            random_rational_matrix(rng, rng.randint(1, 3), cols)
            if trial % 2
            else random_01_matrix(rng, rng.randint(1, 3), cols)
            for _ in range(k)
        ]
        coloring, cert = odisc_color(blocks, EXACT)
        assert sorted(cert.bounds) == sorted(cert.bounds)  # bounds exist per color
        for color in range(1, k + 1):
            measured = measured_color_value(blocks, coloring, color)
            assert measured <= cert.bound_for(color)
        assert eval_asymmetric(blocks, coloring) <= max(cert.bounds)


def test_oracle_domination_step():
    """Per split, each block's norm at the oracle's x is at most the oracle value."""
    rng = random.Random(17)
    for _ in range(20):
        k = rng.randint(2, 4)
        cols = rng.randint(2, 7)
        blocks = [random_01_matrix(rng, rng.randint(1, 2), cols) for _ in range(k)]
        _, cert = odisc_color(blocks, EXACT)

        def check(node, lo):
            if node.low is None or not node.columns:
                return
            p = Fraction(node.k1, node.k1 + node.k2)
            left = set(node.low.columns)
            x = [1 if j in left else 0 for j in node.columns]
            for s in range(node.color_lo, node.color_hi + 1):
                block = blocks[s - 1].restrict_columns(node.columns)
                norm = max(
                    abs(sum(e * (p - b) for e, b in zip(row, x)))
                    for row in block.entries
                )
                assert norm <= node.oracle_value
            check(node.low, lo)
            check(node.high, lo)

        check(cert, 1)


def test_unused_colors_are_legal():
    """A block that attracts no columns still gets a sound (zero-scope) bound."""
    rng = random.Random(9)
    ones = random_01_matrix(rng, 1, 1)
    blocks = [ones, ones, ones, ones]
    coloring, cert = odisc_color(blocks, EXACT)
    assert len(coloring) == 1
    for color in range(1, 5):
        assert measured_color_value(blocks, coloring, color) <= cert.bound_for(color)


def test_determinism(w4):
    rng = random.Random(88)
    blocks = [random_rational_matrix(rng, 2, 6) for _ in range(3)]
    config = OracleConfig(kind="local-search", budget=150, seed=5)
    first = odisc_color(blocks, config)
    second = odisc_color(blocks, config)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_heuristic_oracle_certificates_still_sound():
    rng = random.Random(404)
    for _ in range(15):
        k = rng.randint(2, 4)
        cols = rng.randint(2, 10)
        blocks = [random_rational_matrix(rng, 2, cols) for _ in range(k)]
        config = OracleConfig(kind="local-search", budget=100, seed=1)
        coloring, cert = odisc_color(blocks, config)
        for color in range(1, k + 1):
            assert measured_color_value(blocks, coloring, color) <= cert.bound_for(color)


ORACLES = [EXACT, OracleConfig(kind="local-search", budget=50, seed=3)]


@pytest.mark.parametrize("oracle", ORACLES, ids=["exact", "local-search"])
@pytest.mark.parametrize("entries", [ENTRIES, WIDE_ENTRIES], ids=["mixed", "wide"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_certificate_soundness_property(entries, oracle, data):
    """Every color's measured value is within its certificate bound, on
    blocks with mixed denominators and denominators above 2^64."""
    blocks = data.draw(odisc_blocks(entries))
    coloring, cert = odisc_color(blocks, oracle)
    for color in range(1, len(blocks) + 1):
        assert measured_color_value(blocks, coloring, color) <= cert.bound_for(color)


def test_certificate_json_shape(w2):
    _, cert = odisc_color([w2, w2, w2], EXACT)
    data = cert.to_json_dict()
    assert set(data) == {"colors", "k1", "oracle_value", "bounds", "low", "high"}
    assert data["colors"] == [1, 3]
    assert len(data["bounds"]) == 3
    assert "low" not in data["low"]  # leaf


def test_reference_bound():
    assert reference_bound(1, 10) == 0
    assert reference_bound(4, 1) == Fraction(100) * Fraction(1, 2)
    r = reference_bound(2, 4)
    truth = 100 * (1 - 1 / 2**0.5) * 2
    assert truth <= float(r) < truth + 1e-6
    with pytest.raises(InputError):
        reference_bound(0, 1)


def test_oracle_on_concatenation_uses_k1_fraction(w2, w4):
    """The split weight is k1/k, an exact rational even for odd k."""
    blocks = [w2, w2, w2]
    _, cert = odisc_color(blocks, EXACT)
    stacked = stack_vertical(blocks)
    from disclab import wdisc_exact

    oracle = wdisc_exact(stacked, Fraction(1, 3))
    assert cert.oracle_value == oracle.value
