import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from disclab import RatMatrix, hadamard_sylvester, lift_w


@pytest.fixture(scope="session")
def w2():
    return lift_w(hadamard_sylvester(1))


@pytest.fixture(scope="session")
def w4():
    return lift_w(hadamard_sylvester(2))


def random_01_matrix(rng: random.Random, rows: int, cols: int) -> RatMatrix:
    entries = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
    # avoid the all-zero degenerate matrix: flip one deterministic entry
    if all(all(e == 0 for e in row) for row in entries):
        entries[0][0] = 1
    return RatMatrix.from_rows(entries)


def random_rational_matrix(rng: random.Random, rows: int, cols: int, max_den: int = 6) -> RatMatrix:
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            den = rng.randint(1, max_den)
            row.append(Fraction(rng.randint(0, den), den))
        entries.append(row)
    return RatMatrix.from_rows(entries)


ENTRIES = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)])

# Denominators above 2^64, so the searches' packed row fields are wider
# than a machine word.
WIDE = 2**70 + 1
WIDE_ENTRIES = st.sampled_from(
    [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, WIDE), Fraction(WIDE - 1, WIDE), Fraction(3, 2**67 + 5)]
)


@st.composite
def pooled_matrices(draw, max_rows, max_cols, entries=ENTRIES):
    """Columns drawn from a pool of at most three, so duplicates and ties occur."""
    rows = draw(st.integers(1, max_rows))
    pool = draw(st.lists(st.lists(entries, min_size=rows, max_size=rows), min_size=1, max_size=3))
    columns = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_cols))
    return RatMatrix.from_rows([[col[i] for col in columns] for i in range(rows)])


@st.composite
def odisc_blocks(draw, entries=ENTRIES):
    """k <= 3 blocks over m <= 5 columns: k copies of one block, or k drawn
    independently (which may still coincide)."""
    k = draw(st.integers(1, 3))
    first = draw(pooled_matrices(2, 5, entries))
    if draw(st.booleans()):
        return [first] * k
    cols = first.cols
    block = st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=2)
    return [first] + [RatMatrix.from_rows(draw(block)) for _ in range(k - 1)]


@st.composite
def partly_identical_blocks(draw, entries=ENTRIES):
    """k <= 4 blocks over m <= 5 columns, each drawn from a pool of at most
    two, so some colors share a block and others need not. Every pool block
    takes its columns from its own pool of three in one shared pattern, so
    columns equal in the pattern are equal in every block, and so in the
    stack."""
    k = draw(st.integers(1, 4))
    pattern = draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))
    pool = []
    for _ in range(draw(st.integers(1, 2))):
        rows = draw(st.integers(1, 2))
        columns = draw(st.lists(st.lists(entries, min_size=rows, max_size=rows), min_size=3, max_size=3))
        pool.append(RatMatrix.from_rows([[columns[j][i] for j in pattern] for i in range(rows)]))
    return draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
