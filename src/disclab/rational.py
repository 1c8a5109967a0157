"""Exact rational scalars and the square-root approximations used in reports.

Certification arithmetic in this package is exact and arbitrary precision,
so no overflow handling is needed anywhere. Input text is parsed straight
into integer pairs (`parse_ratio`, or `parse_ratios` once per distinct
cell of a file), which `over_common_denominator` turns into integer
numerators over one least denominator (a `RatMatrix`, which also holds a
`FairDivInstance`'s agents); Fractions appear in reports, in the checkers
and where a caller asks for them. Square roots of non-square rationals are
irrational; where a bound involves one, the comparison itself is done on
squares and these helpers only produce one-sided rational approximations
for reporting.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import CapExceededError, InputError

Rational = Fraction

#: Denominator scale for the one-sided sqrt approximations below. Gives
#: relative error < 1e-12 for arguments >= 1/scale^2, far inside every
#: tolerance stated in this package (1e-9 for bounds, 1e-6 for references).
_SQRT_SCALE = 10**12

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_ratio(text) -> tuple:
    """Parse "a/b" or "a" (also bare ints and Fractions, not bools) into the
    integer pair (a, b) as written, b > 0: "2/4" gives (2, 4).

    Decimals, exponents, signs on the denominator and JSON booleans are
    rejected: the exchange format is integer numerator over integer
    denominator, nothing else. A numeral longer than Python's integer
    string-conversion limit is refused as input, not read.
    """
    if isinstance(text, str):
        match = _RATIONAL.fullmatch(text.strip())
        if match is None:
            raise InputError(f"not a rational: {text!r}")
        num, den = match.groups()
        try:
            num = int(num)
            den = 1 if den is None else int(den)
        except ValueError:
            raise InputError(f"a numeral has more than {sys.get_int_max_str_digits()} digits") from None
        if den == 0:
            raise InputError(f"zero denominator: {text!r}")
        return num, den
    if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
        return text.numerator, text.denominator
    raise InputError(f"expected rational string, got {type(text).__name__}")


def parse_ratios(cells) -> dict:
    """The (a, b) pair of every distinct cell of `cells`, keyed by the cell,
    in order of first appearance.

    Input files hold few distinct strings, so a string cell is parsed once,
    keyed by its text: "2/4" and "1/2" are two keys of equal value. Any
    other cell goes through `parse_ratio` on its own before it joins the
    table by value: 1, true and 1.0 hash equal, so a true or a 1.0 beside a
    1 is still refused. Every cell is parsed here, before a caller checks
    any range, and an error names the first faulty cell in `cells`' order.
    """
    ratios = {}
    for cell in cells:
        if isinstance(cell, str):
            if cell not in ratios:
                ratios[cell] = parse_ratio(cell)
        else:
            ratios.setdefault(cell, parse_ratio(cell))
    return ratios


def parse_rational(text) -> Fraction:
    """`parse_ratio` as a canonical Fraction."""
    if isinstance(text, Fraction):
        return text
    return Fraction(*parse_ratio(text))


def as_ratio(value) -> tuple:
    """(numerator, denominator) of anything `Fraction` accepts, lowest terms."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, value.denominator


def over_common_denominator(pairs) -> tuple:
    """(nums, den) with pairs[i] == nums[i] / den and den least.

    `pairs` holds (numerator, positive denominator) pairs in any terms. The
    lcm of their denominators scales them to integers, and one gcd with it
    brings the form to lowest terms, so "2/4" and 1/2 give the same.
    """
    den = math.lcm(*{b for _a, b in pairs})
    nums = [a * (den // b) for a, b in pairs]
    common = math.gcd(den, *nums)
    if common == 1:
        return tuple(nums), den
    return tuple([a // common for a in nums]), den // common


def format_ratio(num: int, den: int) -> str:
    """Render num/den (den > 0) in lowest terms: "a/b", or "a" when b is 1.

    A part longer than Python's integer string-conversion limit cannot be
    rendered; that is a budget exceeded, not a crash."""
    common = math.gcd(num, den)
    try:
        if common == den:
            return str(num // den)
        return f"{num // common}/{den // common}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise CapExceededError(f"a rational with more than {limit} digits cannot be printed") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "a/b", or "a" when the denominator is 1."""
    value = Fraction(value)
    return format_ratio(value.numerator, value.denominator)


def pos_part(value: Fraction) -> Fraction:
    """Clamp below at zero: max(0, value)."""
    zero = Fraction(0)
    return value if value > zero else zero


def _sqrt_floor(value: Fraction) -> tuple:
    """(root, den, exact) with root/den <= sqrt(value) < (root + 1)/den,
    and root/den == sqrt(value) when `exact` (value a rational square).

    sqrt(a/b) = sqrt(a*b)/b, and isqrt floors. A non-square scales the
    denominator by _SQRT_SCALE, for relative error below 1/_SQRT_SCALE.
    """
    value = Fraction(value)
    if value < 0:
        raise InputError("sqrt of negative value")
    a, b = value.numerator, value.denominator
    root = math.isqrt(a * b)
    if root * root == a * b:
        return root, b, True
    return math.isqrt(a * b * _SQRT_SCALE * _SQRT_SCALE), b * _SQRT_SCALE, False


def sqrt_lower(value: Fraction) -> Fraction:
    """Largest-practical rational r with r <= sqrt(value).

    Exact when `value` is a square of a rational; otherwise within relative
    error 1/_SQRT_SCALE from below. Sound for use as a certified lower bound.
    """
    root, den, _exact = _sqrt_floor(value)
    return Fraction(root, den)


def sqrt_upper(value: Fraction) -> Fraction:
    """Smallest-practical rational r with r >= sqrt(value); exact on squares."""
    root, den, exact = _sqrt_floor(value)
    return Fraction(root if exact else root + 1, den)
