"""Recursive color-splitting with an exact per-color certificate.

Colors are split in half, a weighted-discrepancy oracle balances the columns
between the halves (weight = fraction of colors going left), and each half
recurses on its own column subset. Every internal split contributes the
measured oracle value d to the final per-color bounds: a color in the left
half inherits its child bound plus d/k1, one in the right half plus d/k2.
Because the oracle runs on the vertical concatenation of all blocks in scope,
d dominates each individual block's norm, which is what makes the telescoped
bound sound; the accumulated bounds are exact rationals, independent of the
non-constructive constant in the existence statement they mirror.

Column subsets keep their global indices through the recursion, so the final
coloring needs no index translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .matrices import check_blocks, stack_vertical
from .rational import format_rational, sqrt_lower, sqrt_upper
from .solvers import OracleConfig, oracle_solve

_ZERO = Fraction(0)
# Reporting constant of `reference_bound`: the 100-times-oracle-constant
# convention with the unknown oracle constant taken as 1.
_ZETA = 100


@dataclass(frozen=True)
class RecursionCertificate:
    """One node of the splitting tree with its telescoped per-color bounds.

    Colors lo..hi (inclusive, 1-based) are in scope together with the global
    column indices `columns`. Leaves have k1 = k2 = 0 and bound 0; internal
    nodes carry the measured oracle value and both children.
    """

    color_lo: int
    color_hi: int
    columns: tuple
    k1: int
    k2: int
    oracle_value: Fraction
    low: "RecursionCertificate"
    high: "RecursionCertificate"
    bounds: tuple

    def bound_for(self, color: int) -> Fraction:
        if not self.color_lo <= color <= self.color_hi:
            raise InputError(f"color {color} outside {self.color_lo}..{self.color_hi}")
        return self.bounds[color - self.color_lo]

    def to_json_dict(self) -> dict:
        data = {
            "colors": [self.color_lo, self.color_hi],
            "k1": self.k1,
            "oracle_value": format_rational(self.oracle_value),
            "bounds": [format_rational(b) for b in self.bounds],
        }
        if self.low is not None:
            data["low"] = self.low.to_json_dict()
            data["high"] = self.high.to_json_dict()
        return data


def odisc_color(blocks, oracle: OracleConfig = OracleConfig()) -> tuple:
    """Color columns against per-color matrices; returns (coloring, certificate).

    The certificate is sound against the same evaluation the solvers use:
    for every color s, ||A^s((1/k) * 1 - indicator(coloring == s))||_inf is
    at most certificate.bound_for(s), exactly. Unused colors are legal; an
    empty scope contributes zero everywhere.
    """
    blocks = check_blocks(blocks)
    assignment = [0] * blocks[0].cols
    certificate = _split(blocks, oracle, assignment, 1, len(blocks), tuple(range(len(assignment))))
    return tuple(assignment), certificate


def _split(blocks, oracle, assignment, lo: int, hi: int, columns: tuple) -> RecursionCertificate:
    """Color `columns` with colors lo..hi into `assignment`; returns the
    certificate of this subtree."""
    width = hi - lo + 1
    if width == 1:
        for j in columns:
            assignment[j] = lo
        return RecursionCertificate(
            color_lo=lo,
            color_hi=hi,
            columns=columns,
            k1=0,
            k2=0,
            oracle_value=_ZERO,
            low=None,
            high=None,
            bounds=(_ZERO,),
        )
    k1 = width // 2
    k2 = width - k1
    if columns:
        stacked = stack_vertical([blocks[s - 1] for s in range(lo, hi + 1)])
        sub = stacked.restrict_columns(columns)
        result = oracle_solve(sub, Fraction(k1, width), oracle)
        d = result.value
        left_cols = tuple(j for j, bit in zip(columns, result.witness) if bit)
        right_cols = tuple(j for j, bit in zip(columns, result.witness) if not bit)
    else:
        d = _ZERO
        left_cols = ()
        right_cols = ()
    low = _split(blocks, oracle, assignment, lo, lo + k1 - 1, left_cols)
    high = _split(blocks, oracle, assignment, lo + k1, hi, right_cols)
    bounds = tuple(b + d / k1 for b in low.bounds) + tuple(
        b + d / k2 for b in high.bounds
    )
    return RecursionCertificate(
        color_lo=lo,
        color_hi=hi,
        columns=columns,
        k1=k1,
        k2=k2,
        oracle_value=d,
        low=low,
        high=high,
        bounds=bounds,
    )


def reference_bound(k: int, n1: int) -> Fraction:
    """Rational upper approximation of 100 * (1 - 1/sqrt(k)) * sqrt(n1).

    Reporting-only companion to the certificate (the underlying existence
    constant is unknown, so this never decides pass/fail). Exact when both
    square roots are rational, otherwise within 1e-6 from above.
    """
    if k < 1 or n1 < 1:
        raise InputError("k and n1 must be >= 1")
    if k == 1:
        return _ZERO
    return _ZETA * (sqrt_upper(Fraction(n1)) - sqrt_lower(Fraction(n1 * k)) / k)
