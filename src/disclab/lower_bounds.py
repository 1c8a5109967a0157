"""Hadamard stacked lower-bound construction and its exact certification.

The construction concatenates t = floor(1/(2p)) copies of W = (1 + H)/2 for a
Sylvester H, which forces the weighted discrepancy of the result above
sqrt(n-1)/8 at every p. Square roots are irrational, so every pass/fail
decision here compares squares: a certificate asserts value^2 >= (n-1)/64
exactly, and the rational `bound` fields are one-sided approximations used
for reporting only.

Two bound variants exist because the headline constant (sqrt(n-1)/16, any n)
and the power-of-two constant proved directly (sqrt(n-1)/8) differ by the
rounding-to-power-of-two step; neither is derived from the other here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import compress
from operator import mul

from .errors import InputError
from .matrices import RatMatrix, check_cells, hadamard_sylvester, lift_w, require_power_of_two, stack_horizontal
from .rational import format_rational, sqrt_lower
from .solvers import DEFAULT_CAP, check_search, odisc_exact, wdisc_exact

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class StackedConstruction:
    """t copies of W side by side, with the certified-lower-bound claim."""

    n: int
    p: Fraction
    t: int
    matrix: RatMatrix
    delta: Fraction  # rational lower approximation of sqrt(n-1)/8

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": format_rational(self.p),
            "t": self.t,
            "rows": self.matrix.rows,
            "cols": self.matrix.cols,
            "delta": format_rational(self.delta),
        }


@dataclass(frozen=True)
class CertReport:
    """Outcome of one certification run; `passed` is decided exactly."""

    construction: StackedConstruction
    exact_value: Fraction
    bound: Fraction
    passed: bool
    witness: tuple
    k: int = 0
    weighted_value: Fraction = None

    def to_json_dict(self) -> dict:
        data = {
            "construction": self.construction.to_json_dict(),
            "exact_value": format_rational(self.exact_value),
            "bound": format_rational(self.bound),
            "pass": self.passed,
            "witness": list(self.witness),
        }
        if self.k:
            data["k"] = self.k
            data["weighted_value"] = format_rational(self.weighted_value)
        return data


def stacked_shape(p: Fraction, n: int) -> tuple:
    """(p, t) of the stacked instance for weight p and order n, built or not.

    p above 1/2 is mirrored to 1 - p first (the weighted discrepancy is
    symmetric under that swap); afterwards t = floor(1/(2p)) guarantees
    1/4 <= p*t <= 1/2. The width n*t is known here, so callers check their
    caps before any cell is built. The one size limit is the cell limit:
    more than MAX_CELLS cells (n*n*t) are refused here for the same reason,
    and since t >= 1 that also refuses every order beyond the largest
    Sylvester order.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise InputError(f"p must lie strictly between 0 and 1, got {p}")
    require_power_of_two(n)
    if p > _HALF:
        p = 1 - p
    t = int(Fraction(1, 2) / p)  # floor of 1/(2p) for positive rationals
    check_cells(n * n * t)
    return p, t


def build_stacked(p: Fraction, n: int) -> StackedConstruction:
    """Assemble the stacked instance for weight p and power-of-two order n,
    with p and t = floor(1/(2p)) as `stacked_shape` gives them."""
    p, t = stacked_shape(p, n)
    w = lift_w(hadamard_sylvester(n.bit_length() - 1))
    matrix = stack_horizontal(w, t)
    assert Fraction(1, 4) <= p * t <= _HALF
    return StackedConstruction(n=n, p=p, t=t, matrix=matrix, delta=lb_value(n, "proof"))


def check_hadamard_lemma(w: RatMatrix, z) -> tuple:
    """Evaluate ||Wz||_2^2 against (n/4) * sum of z_i^2 over i >= 2.

    Returns (lhs, rhs, holds) as exact values; W's entries may be any
    rationals in [0, 1] and z's any rationals. Wz is computed on W's integer
    numerators, in integers when z's entries are ints, and divided by W's
    denominator once; when most of z is zero, as for a unit vector, only the
    columns of its nonzero coordinates enter, added one column at a time, so
    the check costs O(n) rather than O(n^2). The first coordinate is the all-ones row/column direction
    and is excluded from the right-hand side.
    """
    if w.rows != w.cols:
        raise InputError("lemma check needs a square matrix")
    require_power_of_two(w.rows)
    z = [v if isinstance(v, int) else Fraction(v) for v in z]
    if len(z) != w.cols:
        raise InputError(f"vector length {len(z)} != order {w.rows}")
    nonzero = list(compress(range(len(z)), z))
    if 2 * len(nonzero) < len(z):
        image = [0] * w.rows
        for i in nonzero:
            zi = z[i]
            image = [v + row[i] * zi for v, row in zip(image, w.nums)]
    else:
        image = [sum(map(mul, row, z)) for row in w.nums]
    lhs = Fraction(sum(v * v for v in image), w.den * w.den)
    rhs = Fraction(w.rows * sum(v * v for v in z[1:]), 4)
    return lhs, rhs, lhs >= rhs


def lb_value(n: int, variant: str) -> Fraction:
    """Certified-from-below rational approximation of the lower bound.

    "statement": sqrt(n-1)/16 for any n >= 1. "proof": sqrt(n-1)/8, defined
    for power-of-two n only. Exact whenever n-1 is a perfect square times a
    square denominator; otherwise within relative error 1e-12, always below.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if variant == "statement":
        return sqrt_lower(Fraction(n - 1, 256))
    if variant == "proof":
        require_power_of_two(n)
        return sqrt_lower(Fraction(n - 1, 64))
    raise InputError(f"unknown variant {variant!r}")


def certify_wdisc_lb(p: Fraction, n: int, cap: int = DEFAULT_CAP) -> CertReport:
    """Exactly certify wdisc of the stacked construction against sqrt(n-1)/8.

    Runs the exact solver on the construction and decides the comparison on
    squares: pass iff value^2 >= (n-1)/64. Intended for n <= 8 where the
    exhaustive-equivalent search finishes in seconds. More than 2^cap
    selections of the n*t columns are refused before the construction is
    built.
    """
    _p, t = stacked_shape(p, n)
    check_search(2, n * t, cap)
    construction = build_stacked(p, n)
    result = wdisc_exact(construction.matrix, construction.p, cap)
    passed = result.value * result.value >= Fraction(n - 1, 64)
    return CertReport(
        construction=construction,
        exact_value=result.value,
        bound=construction.delta,
        passed=passed,
        witness=result.witness,
    )


def check_multicolor_k(k: int) -> None:
    """Refuse fewer than two colors: the chain runs at p = 1/k, inside (0, 1)."""
    if k < 2:
        raise InputError("multicolor certification needs k >= 2")


def certify_multicolor_lb(k: int, n: int, cap: int = DEFAULT_CAP) -> CertReport:
    """Certify the multicolor chain odisc >= wdisc >= sqrt(n-1)/8 at p = 1/k.

    The color-1 class of any k-coloring is a selection, so the weighted
    certificate at p = 1/k (`certify_wdisc_lb`) carries over: this runs it,
    solves the k-color problem exactly on k copies of its construction, and
    passes iff that certificate passes and the k-color value is at least its
    weighted value, both decided in exact arithmetic. Intended for n <= 4
    where k^(n*t) enumeration is immediate; more than 2^cap colorings, or k
    copies over the cell limit of a stack, are refused before anything is
    built. Both searches run under `cap`, and the weighted one, over
    2^(n*t) <= k^(n*t) selections, is never refused once the coloring search
    was admitted.
    """
    check_multicolor_k(k)
    _p, t = stacked_shape(Fraction(1, k), n)
    check_search(k, n * t, cap)
    check_cells(k * n * n * t)
    weighted = certify_wdisc_lb(Fraction(1, k), n, cap)
    colored = odisc_exact([weighted.construction.matrix] * k, cap)
    return replace(
        weighted,
        exact_value=colored.value,
        passed=weighted.passed and colored.value >= weighted.exact_value,
        witness=colored.witness,
        k=k,
        weighted_value=weighted.exact_value,
    )
