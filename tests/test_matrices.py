import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    CapExceededError,
    DimensionMismatchError,
    InputError,
    RatMatrix,
    SignMatrix,
    format_rational,
    hadamard_sylvester,
    lift_w,
    stack_horizontal,
    stack_vertical,
    transfer_z,
)

from naive import naive_sylvester


def test_order_one_is_identity_case():
    h = hadamard_sylvester(0)
    assert h.order == 1
    assert h.entries == ((1,),)


def test_order_two_base_block():
    h = hadamard_sylvester(1)
    assert h.entries == ((1, 1), (1, -1))


def test_order_four_orthogonality_by_direct_multiplication():
    h = hadamard_sylvester(2)
    assert h.entries == (
        (1, 1, 1, 1),
        (1, -1, 1, -1),
        (1, 1, -1, -1),
        (1, -1, -1, 1),
    )
    for i in range(4):
        for j in range(4):
            dot = sum(a * b for a, b in zip(h.entries[i], h.entries[j]))
            assert dot == (4 if i == j else 0)


@pytest.mark.parametrize("log2", [0, 1, 2, 3, 4, 5, 6])
def test_orthogonality_all_orders(log2):
    assert hadamard_sylvester(log2).check_orthogonal()


@pytest.mark.parametrize("log2", range(8))
def test_sylvester_matches_definition(log2):
    """H[i][j] = (-1)^popcount(i & j): the entries, the JSON text and W all
    read the definition, and each row's int holds n bits, none in row 0."""
    n = 1 << log2
    h = hadamard_sylvester(log2)
    expected = naive_sylvester(log2)
    assert h.entries == expected
    assert h.to_json_dict() == {"rows": n, "cols": n, "entries": [[str(e) for e in row] for row in expected]}
    w_nums = tuple(tuple((1 + e) // 2 for e in row) for row in expected)
    assert lift_w(h) == RatMatrix(rows=n, cols=n, nums=w_nums, den=1)
    assert h.rows[0] == 0
    assert all(0 <= row < 1 << n for row in h.rows)


def sign_rows(entries):
    """One int per row of +1/-1 entries, bit j set where entry j is -1."""
    return tuple(sum(1 << j for j, e in enumerate(row) if e == -1) for row in entries)


def test_orthogonality_refuses_malformed_rows():
    """A wrong row count, a negative row and a row with a bit at or above n
    each fail the check, though every pair of their rows XORs to n/2 bits."""
    h4 = hadamard_sylvester(2)
    assert SignMatrix(order=4, rows=h4.rows).check_orthogonal()
    assert not SignMatrix(order=4, rows=h4.rows[:3]).check_orthogonal()
    assert not SignMatrix(order=2, rows=(0,)).check_orthogonal()
    assert not SignMatrix(order=2, rows=(-2, 2)).check_orthogonal()
    assert not SignMatrix(order=2, rows=(4, 6)).check_orthogonal()
    assert not SignMatrix(order=2, rows=(1 << 5, 2 | 1 << 5)).check_orthogonal()


@pytest.mark.parametrize("log2", [1, 2, 3, 5])
def test_one_flipped_entry_is_not_orthogonal(log2):
    """Flipping any one entry changes that row's product with every other
    row by 2, so the check fails, and the reader refuses the matrix."""
    h = hadamard_sylvester(log2)
    rng = random.Random(log2)
    for _ in range(4):
        i, j = rng.randrange(h.order), rng.randrange(h.order)
        rows = [list(row) for row in h.entries]
        rows[i][j] = -rows[i][j]
        flipped = SignMatrix(order=h.order, rows=sign_rows(rows))
        assert not flipped.check_orthogonal()
        with pytest.raises(InputError, match="not pairwise orthogonal"):
            SignMatrix.from_json_dict(flipped.to_json_dict())


def test_orthogonality_matches_direct_products():
    """On random sign matrices of orders 1 to 8, the XOR count agrees with
    H * H^T == order * I computed entry by entry."""
    rng = random.Random(14)
    for _ in range(300):
        n = rng.choice([1, 2, 3, 4, 8])
        base = hadamard_sylvester(n.bit_length() - 1).entries if n & (n - 1) == 0 else None
        rows = [list(row) for row in base] if base and rng.random() < 0.5 else [
            [rng.choice((1, -1)) for _ in range(n)] for _ in range(n)]
        if base and rng.random() < 0.5:
            rows[rng.randrange(n)] = [-a for a in rows[rng.randrange(n)]]
        direct = all(sum(a * b for a, b in zip(rows[i], rows[j])) == (n if i == j else 0)
                     for i in range(n) for j in range(n))
        matrix = SignMatrix(order=n, rows=sign_rows(rows))
        assert matrix.check_orthogonal() == direct


def test_first_row_and_column_all_ones():
    h = hadamard_sylvester(4)
    assert all(e == 1 for e in h.entries[0])
    assert all(row[0] == 1 for row in h.entries)


def test_order_cap():
    with pytest.raises(CapExceededError):
        hadamard_sylvester(21)
    with pytest.raises(CapExceededError):
        hadamard_sylvester(12)
    with pytest.raises(InputError):
        hadamard_sylvester(-1)


def test_lift_w_small_orders(w2, w4):
    assert lift_w(hadamard_sylvester(0)).entries == ((Fraction(1),),)
    assert w2.entries == ((1, 1), (1, 0))
    assert w4.entries == (
        (1, 1, 1, 1),
        (1, 0, 1, 0),
        (1, 1, 0, 0),
        (1, 0, 0, 1),
    )


@pytest.mark.parametrize("log2", [1, 2, 3, 4, 5])
def test_lift_w_ones_count(log2):
    # first row all ones, every other row exactly n/2 ones
    n = 1 << log2
    w = lift_w(hadamard_sylvester(log2))
    assert sum(sum(row) for row in w.entries) == n * (n + 1) // 2
    assert sum(w.entries[0]) == n
    for row in w.entries[1:]:
        assert sum(row) == n // 2


def test_stack_horizontal(w2, w4):
    assert stack_horizontal(w2, 1).entries == w2.entries
    doubled = stack_horizontal(w2, 2)
    assert doubled.rows == 2 and doubled.cols == 4
    assert doubled.entries == ((1, 1, 1, 1), (1, 0, 1, 0))
    tripled = stack_horizontal(w4, 3)
    assert tripled.cols == 12
    assert [row[4] for row in tripled.entries] == [row[0] for row in w4.entries]
    # 4 x 4 x 262,145 cells: refused from the shape alone, before any row is built
    with pytest.raises(CapExceededError, match="stacked cells 4194320 exceed cap 4194304"):
        stack_horizontal(w4, 262_145)
    with pytest.raises(InputError):
        stack_horizontal(w4, 0)


def test_stack_vertical(w2, w4):
    assert stack_vertical([w2]).entries == w2.entries
    stacked = stack_vertical([w2, w2])
    assert stacked.rows == 4 and stacked.cols == 2
    assert stacked.entries == ((1, 1), (1, 0), (1, 1), (1, 0))
    with pytest.raises(DimensionMismatchError):
        stack_vertical([w2, w4])


def test_stack_vertical_refuses_cells_before_building():
    """1,025 blocks of one 4,096-column row are 4,198,400 cells, over the
    cell cap: refused before a stacked row is built (tracemalloc)."""
    wide = RatMatrix.from_rows([[1] * 4096])
    blocks = [wide] * 1025
    assert stack_vertical(blocks[:1024]).rows == 1024
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="stacked cells 4198400 exceed cap 4194304"):
            stack_vertical(blocks)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_transfer_z_examples():
    assert transfer_z((1, 0, 0, 1), 2, 2) == (1, 1)
    assert transfer_z((0, 1), 2, 1) == (0, 1)
    assert transfer_z((1, 1, 1, 0), 2, 2) == (2, 1)
    with pytest.raises(DimensionMismatchError, match="selection length 3 != cols 4"):
        transfer_z((1, 0, 0), 2, 2)


def test_transfer_z_identity_pinned_values(w2):
    # A(p*1 - x) = W(p*t*1 - z), evaluated exactly at p = 1/5, t = 2
    p = Fraction(1, 5)
    stacked = stack_horizontal(w2, 2)

    def sides(x):
        z = transfer_z(x, 2, 2)
        lhs = [sum(e * (p - b) for e, b in zip(row, x)) for row in stacked.entries]
        rhs = [sum(e * (p * 2 - v) for e, v in zip(row, z)) for row in w2.entries]
        return lhs, rhs

    lhs, rhs = sides((1, 0, 0, 1))
    assert lhs == rhs == [Fraction(-6, 5), Fraction(-3, 5)]
    lhs, rhs = sides((1, 1, 1, 0))
    assert lhs == rhs == [Fraction(-11, 5), Fraction(-8, 5)]


@pytest.mark.parametrize("log2", [1, 2, 3])
@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
def test_transfer_z_identity_random(log2, t, p):
    rng = random.Random(1000 * log2 + 10 * t + p.denominator)
    n = 1 << log2
    w = lift_w(hadamard_sylvester(log2))
    stacked = stack_horizontal(w, t)
    for _ in range(20):
        x = tuple(rng.randint(0, 1) for _ in range(n * t))
        z = transfer_z(x, n, t)
        assert all(0 <= v <= t for v in z)
        lhs = [sum(e * (p - b) for e, b in zip(row, x)) for row in stacked.entries]
        rhs = [sum(e * (p * t - v) for e, v in zip(row, z)) for row in w.entries]
        assert lhs == rhs


def test_rat_matrix_validation():
    with pytest.raises(InputError):
        RatMatrix.from_rows([[Fraction(3, 2)]])
    with pytest.raises(InputError):
        RatMatrix.from_rows([[Fraction(-1, 2)]])
    with pytest.raises(DimensionMismatchError):
        RatMatrix.from_rows([[0, 1], [1]])
    with pytest.raises(InputError):
        RatMatrix.from_rows([])


def test_rat_matrix_json_round_trip(w4):
    data = w4.to_json_dict()
    text = json.dumps(data)
    again = RatMatrix.from_json_dict(json.loads(text))
    assert again == w4

    fancy = RatMatrix.from_rows([[Fraction(1, 3), Fraction(2, 7)], [0, 1]])
    assert RatMatrix.from_json_dict(fancy.to_json_dict()) == fancy
    assert fancy.to_json_dict()["entries"][0] == ["1/3", "2/7"]


def json_matrix(entries):
    return RatMatrix.from_json_dict({"rows": len(entries), "cols": len(entries[0]), "entries": entries})


def test_rat_matrix_json_reads_each_distinct_cell_once():
    """Spellings of one value build one matrix, an int beside its string
    builds, and a bool or a float cell beside an equal int is still refused:
    the reader's table keys strings by their text, not by value."""
    assert json_matrix([["1/2", "2/4", " 1/2 ", "3/6"]]) == json_matrix([["1/2"] * 4])
    assert json_matrix([["1/2", "2/4", " 1/2 ", "3/6"]]) == RatMatrix.from_rows([[Fraction(1, 2)] * 4])
    assert json_matrix([[1, "1"]]) == RatMatrix.from_rows([[1, 1]])
    mixed = [[Fraction(1, 3), 0], [Fraction(2, 3), 0]]
    assert json_matrix([["1/3", 0], [Fraction(2, 3), "0"]]) == RatMatrix.from_rows(mixed)
    for entries, kind in (([[1, True]], "bool"), ([[1, 1.0]], "float"), ([[0, False]], "bool")):
        with pytest.raises(InputError) as caught:
            json_matrix(entries)
        assert str(caught.value) == f"expected rational string, got {kind}", entries


def test_rat_matrix_json_errors_name_the_first_faulty_cell():
    """Every cell is parsed before any is range-checked, so a parse error
    wins over an earlier range error, and each error names the first faulty
    cell in row-major order, whether or not its text recurs."""
    for entries, message in (
        ([["3/2", "x"]], "not a rational: 'x'"),
        ([["3/2", "1"], ["x", "1/0"]], "not a rational: 'x'"),
        ([["1", "1/0"], ["x", "1/0"]], "zero denominator: '1/0'"),
        ([["1", "7/4", "2"], ["2", "7/4", "0"]], "entry 7/4 outside [0, 1]"),
        ([["1", 3], ["2", "3"]], "entry 3 outside [0, 1]"),
        ([["0", "1"], ["-1/2", "2"]], "entry -1/2 outside [0, 1]"),
    ):
        with pytest.raises(InputError) as caught:
            json_matrix(entries)
        assert str(caught.value) == message, entries


def test_sign_matrix_json_round_trip():
    h = hadamard_sylvester(2)
    data = h.to_json_dict()
    assert data["entries"][1] == ["1", "-1", "1", "-1"]
    assert SignMatrix.from_json_dict(data) == h
    data["entries"][0][0] = "0"
    with pytest.raises(InputError):
        SignMatrix.from_json_dict(data)
    # each distinct cell is read once: every spelling of +-1 reads alike
    h2 = hadamard_sylvester(1)
    assert json_sign_matrix([["1", "2/2"], [" 1 ", "-3/3"]]) == h2
    assert json_sign_matrix([[1, "1"], [1, -1]]) == h2


def json_sign_matrix(entries):
    return SignMatrix.from_json_dict({"rows": len(entries), "cols": len(entries[0]), "entries": entries})


def test_sign_matrix_json_errors_come_in_reading_order():
    """The shape and the order are refused before any cell is parsed; then
    every cell is parsed before any is checked to be +-1, and each error
    names the first faulty cell in row-major order."""
    for data, message in (
        ({"rows": 2, "cols": 3, "entries": [["x", "1", "1"], ["1", "1", "1"]]}, "sign matrix must be square"),
        ({"rows": 3, "cols": 3, "entries": [["1", "1", "1"], ["1", "x", "1"], ["1", "1", "1"]]},
         "order 3 is not a power of two"),
        ({"rows": 0, "cols": 0, "entries": []}, "order 0 is not a power of two"),
    ):
        with pytest.raises(InputError) as caught:
            SignMatrix.from_json_dict(data)
        assert str(caught.value) == message, data
    for entries, message in (
        ([["0", "1"], ["1", "x"]], "not a rational: 'x'"),
        ([["1", "1/0"], ["0", "1"]], "zero denominator: '1/0'"),
        ([["0", True], ["1", 1]], "expected rational string, got bool"),
        ([["0", 1.0], ["1", 1]], "expected rational string, got float"),
        ([["1", "2"], ["0", "2"]], "sign matrix entry '2' is not +-1"),
        ([["1", 1], [0, "0"]], "sign matrix entry 0 is not +-1"),
        ([["1", "1/2"], ["1", "-1"]], "sign matrix entry '1/2' is not +-1"),
        ([["1", "1"], ["1", "1"]], "sign matrix rows are not pairwise orthogonal"),
    ):
        with pytest.raises(InputError) as caught:
            json_sign_matrix(entries)
        assert str(caught.value) == message, entries


def test_restrict_columns(w4):
    sub = w4.restrict_columns([2, 0])
    assert sub.cols == 2
    assert sub.entries[1] == (Fraction(1), Fraction(1))
    with pytest.raises(InputError):
        w4.restrict_columns([])
    with pytest.raises(InputError):
        w4.restrict_columns([9])


@st.composite
def rational_rows(draw, cols):
    """Rows of Fractions in [0, 1] over a few shared denominators, so cells
    repeat denominators, with all-zero and all-one rows mixed in."""
    dens = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    cell = st.sampled_from(dens).flatmap(lambda d: st.integers(0, d).map(lambda a: Fraction(a, d)))
    row = st.one_of(
        st.just([Fraction(0)] * cols),
        st.just([Fraction(1)] * cols),
        st.lists(cell, min_size=cols, max_size=cols),
    )
    return draw(st.lists(row, min_size=1, max_size=4))


@st.composite
def representation_cases(draw):
    cols = draw(st.integers(1, 5))
    rows = draw(rational_rows(cols))
    more = draw(rational_rows(cols))
    keep = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=6))
    copies = draw(st.integers(1, 3))
    return rows, more, keep, copies


@settings(max_examples=200, deadline=None)
@given(representation_cases())
def test_rat_matrix_representation_property(case):
    """Integers over one least common denominator: every constructor gives the
    matrix `from_rows` gives for the same Fractions, so equal matrices compare
    equal, and the entries and the JSON text are exact."""
    rows, more, keep, copies = case
    matrix = RatMatrix.from_rows(rows)
    assert matrix.entries == tuple(tuple(row) for row in rows)
    data = matrix.to_json_dict()
    assert data["entries"] == [[format_rational(cell) for cell in row] for row in rows]
    assert RatMatrix.from_json_dict(json.loads(json.dumps(data))) == matrix
    assert matrix.restrict_columns(keep) == RatMatrix.from_rows([[row[j] for j in keep] for row in rows])
    assert stack_vertical([matrix, RatMatrix.from_rows(more)]) == RatMatrix.from_rows(rows + more)
    assert stack_horizontal(matrix, copies) == RatMatrix.from_rows([row * copies for row in rows])
