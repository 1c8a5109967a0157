import math
from fractions import Fraction

import pytest

from disclab import InputError, format_rational, parse_rational, pos_part, sqrt_lower, sqrt_upper


@pytest.mark.parametrize("text,expected", [
    ("1/3", Fraction(1, 3)),
    ("-7/2", Fraction(-7, 2)),
    ("4", Fraction(4)),
    ("0", Fraction(0)),
    ("2/4", Fraction(1, 2)),
    (" 3/6\n", Fraction(1, 2)),
    (5, Fraction(5)),
])
def test_parse(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("bad", [
    "", "a/b", "1/0", "1.5.2", None,
    True, False, "1e-1", "0.5", 0.5, "+1", "1/-2", "1 / 2", "1_000", "\u0663",
])
def test_parse_rejects(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_parse_print_round_trip():
    # canonical form: parse -> print -> parse is the identity
    for num in range(-12, 13):
        for den in range(1, 9):
            value = Fraction(num, den)
            assert parse_rational(format_rational(value)) == value


def test_format_integers_without_slash():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 1)) == "-3"
    assert format_rational(Fraction(3, 7)) == "3/7"


def test_pos_part():
    assert pos_part(Fraction(-5, 3)) == 0
    assert pos_part(Fraction(5, 3)) == Fraction(5, 3)
    assert pos_part(Fraction(0)) == 0


def test_sqrt_bounds_bracket_truth():
    for value in [Fraction(2), Fraction(3), Fraction(7, 64), Fraction(63, 64), Fraction(123, 17)]:
        lo, hi = sqrt_lower(value), sqrt_upper(value)
        assert lo * lo <= value <= hi * hi
        assert hi - lo < Fraction(1, 10**9)


def test_sqrt_exact_on_squares():
    assert sqrt_lower(Fraction(1, 64)) == Fraction(1, 8)
    assert sqrt_upper(Fraction(1, 64)) == Fraction(1, 8)
    assert sqrt_lower(Fraction(4)) == 2
    assert sqrt_lower(Fraction(9, 4)) == Fraction(3, 2)


def test_sqrt_relative_error_from_below():
    # relative error < 1e-9, always from below
    for n in [2, 3, 5, 17, 1023]:
        approx = sqrt_lower(Fraction(n))
        assert approx * approx <= n
        assert float(approx) > math.sqrt(n) * (1 - 1e-9)


def test_sqrt_rejects_negative():
    with pytest.raises(InputError):
        sqrt_lower(Fraction(-1))
