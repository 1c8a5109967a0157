"""Exact rational scalars and the square-root approximations used in reports.

Certification arithmetic in this package is exact: Fractions at the edges,
integers over one common denominator inside (`RatMatrix`), both arbitrary
precision, so no overflow handling is needed anywhere. Square roots of non-square rationals are irrational; where a
bound involves one, the comparison itself is done on squares and these helpers
only produce one-sided rational approximations for reporting.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputError

Rational = Fraction

#: Denominator scale for the one-sided sqrt approximations below. Gives
#: relative error < 1e-12 for arguments >= 1/scale^2, far inside every
#: tolerance stated in this package (1e-9 for bounds, 1e-6 for references).
_SQRT_SCALE = 10**12

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text) -> Fraction:
    """Parse "a/b" or "a" (also bare ints, not bools) into a canonical Fraction.

    Decimals, exponents, signs on the denominator and JSON booleans are
    rejected: the exchange format is integer numerator over integer
    denominator, nothing else.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise InputError(f"expected rational string, got {type(text).__name__}")
    stripped = text.strip()
    if _RATIONAL.fullmatch(stripped) is None:
        raise InputError(f"not a rational: {text!r}")
    try:
        return Fraction(stripped)
    except ZeroDivisionError as exc:
        raise InputError(f"zero denominator: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "a/b", or "a" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def pos_part(value: Fraction) -> Fraction:
    """Clamp below at zero: max(0, value)."""
    zero = Fraction(0)
    return value if value > zero else zero


def sqrt_lower(value: Fraction) -> Fraction:
    """Largest-practical rational r with r <= sqrt(value).

    Exact when `value` is a square of a rational; otherwise within relative
    error 1/_SQRT_SCALE from below. Sound for use as a certified lower bound.
    """
    value = Fraction(value)
    if value < 0:
        raise InputError("sqrt of negative value")
    if value == 0:
        return Fraction(0)
    # sqrt(a/b) = sqrt(a*b)/b; isqrt floors, which is the direction we need.
    a, b = value.numerator, value.denominator
    root = math.isqrt(a * b)
    if root * root == a * b:
        return Fraction(root, b)
    scaled = math.isqrt(a * b * _SQRT_SCALE * _SQRT_SCALE)
    return Fraction(scaled, b * _SQRT_SCALE)


def sqrt_upper(value: Fraction) -> Fraction:
    """Smallest-practical rational r with r >= sqrt(value); exact on squares."""
    value = Fraction(value)
    if value < 0:
        raise InputError("sqrt of negative value")
    if value == 0:
        return Fraction(0)
    a, b = value.numerator, value.denominator
    root = math.isqrt(a * b)
    if root * root == a * b:
        return Fraction(root, b)
    scaled = math.isqrt(a * b * _SQRT_SCALE * _SQRT_SCALE)
    return Fraction(scaled + 1, b * _SQRT_SCALE)
