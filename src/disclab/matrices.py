"""Dense exact matrices and the Hadamard-derived building blocks.

Two matrix kinds live here: `SignMatrix` (entries +1/-1 of power-of-two
order with pairwise orthogonal rows, held as one int of sign bits per row,
which Sylvester doubling, the orthogonality check, W and the JSON reader and
writer all read) and `RatMatrix` (entries in [0, 1]; rows play the role of
hyperedges or agents, columns of vertices or goods). Both are immutable
after construction and safe to share across threads.

`RatMatrix` holds integer numerators over one least common denominator,
scaled once where the matrix is read (`from_rows` from values, each cell,
and `from_json_dict` from text, each distinct cell) and kept by every helper
here, so the searches read integers straight off `nums` and `den`.
Fractions appear only in range-error messages and through
`RatMatrix.entries`.

Indices are 0-based everywhere in this package, including the JSON formats.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, DimensionMismatchError, InputError
from .rational import as_ratio, format_ratio, over_common_denominator, parse_ratios

#: Largest Sylvester order built, as a power of two. Memory grows with the
#: n^2 cells: on Python 3.11 `construct w` peaks at 39 MB at order 2^10 and
#: 105 MB at 2^11. Larger orders are refused before any cell is built.
MAX_LOG2_ORDER = 11
#: The one cell limit of a stack, horizontal or vertical: the cells of the
#: largest Sylvester order. `check_cells` refuses a larger stack before any
#: cell is built.
MAX_CELLS = 4**MAX_LOG2_ORDER
#: A sign-matrix bit ("0" for +1, "1" for -1) as a value, as JSON text and as a W byte.
_SIGN_VALUE = {"0": 1, "1": -1}
_SIGN_TEXT = {"0": "1", "1": "-1"}
_W_CELL = bytes.maketrans(b"01", b"\x01\x00")


def require_power_of_two(n: int) -> None:
    """Refuse an order n that is not a power of two (1, 2, 4, ...)."""
    if n < 1 or n & (n - 1) != 0:
        raise InputError(f"order {n} is not a power of two")


@dataclass(frozen=True)
class SignMatrix:
    """Square +1/-1 matrix H of power-of-two order with orthogonal rows, held
    as one int per row: bit b of rows[i] is set exactly where H[i][b] is -1."""

    order: int
    rows: tuple

    def _bits(self, row: int) -> str:
        return format(row, f"0{self.order}b")[::-1]  # the row's bits as "0"/"1", column 0 first

    @property
    def entries(self) -> tuple:
        """The entries as +1/-1 ints, one tuple per row; built on each access."""
        return tuple(tuple(map(_SIGN_VALUE.__getitem__, self._bits(row))) for row in self.rows)

    def check_orthogonal(self) -> bool:
        """Verify H * H^T == order * I exactly.

        Two rows of n signs have product n - 2d, for the d places where
        they differ, the set bits of their XOR. So the diagonal is n, and
        rows i != j are orthogonal exactly when (r_i ^ r_j).bit_count() is
        n/2: O(n^2) XORs of n-bit ints. A row outside [0, 2^n) fails.
        """
        n, rows = self.order, self.rows
        if len(rows) != n or not all(0 <= row < 1 << n for row in rows):
            return False
        half = set() if n % 2 else {n // 2}  # rows of odd length never have product 0
        return all(
            set(map(int.bit_count, map(row.__xor__, rows[i + 1:]))) <= half
            for i, row in enumerate(rows)
        )

    def to_json_dict(self) -> dict:
        return {
            "rows": self.order,
            "cols": self.order,
            "entries": [list(map(_SIGN_TEXT.__getitem__, self._bits(row))) for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SignMatrix":
        """Refuse a bad order before any cell is parsed, and any parse error before a cell not +-1."""
        order, cols, raw = _read_matrix_dict(data)
        if order != cols:
            raise InputError("sign matrix must be square")
        require_power_of_two(order)
        bit = {}
        for cell, (a, b) in parse_ratios(itertools.chain.from_iterable(raw)).items():
            if abs(a) != b:
                raise InputError(f"sign matrix entry {cell!r} is not +-1")
            bit[cell] = "1" if a < 0 else "0"
        rows = tuple(int("".join(map(bit.__getitem__, reversed(row))), 2) for row in raw)
        matrix = cls(order=order, rows=rows)
        if not matrix.check_orthogonal():
            raise InputError("sign matrix rows are not pairwise orthogonal")
        return matrix


@dataclass(frozen=True)
class RatMatrix:
    """Dense matrix with every entry in [0, 1], stored exactly as integer
    numerators `nums` (one tuple per row) over one positive denominator `den`.

    `den` is the least common denominator of the entries, so the form is
    canonical and equal matrices compare equal. Every constructor keeps it.
    """

    rows: int
    cols: int
    nums: tuple
    den: int

    @classmethod
    def from_rows(cls, rows) -> "RatMatrix":
        """The matrix of rows of values `Fraction` accepts."""
        return cls._from_ratios([[as_ratio(cell) for cell in row] for row in rows])

    @classmethod
    def _from_ratios(cls, rows) -> "RatMatrix":
        """The matrix of rows of (numerator, positive denominator) pairs."""
        n = len(rows)
        if n == 0:
            raise InputError("matrix needs at least one row")
        m = len(rows[0])
        if m == 0:
            raise InputError("matrix needs at least one column")
        for row in rows:
            if len(row) != m:
                raise DimensionMismatchError("ragged rows")
            _check_range(row)
        flat, den = over_common_denominator([cell for row in rows for cell in row])
        nums = tuple(flat[start:start + m] for start in range(0, n * m, m))
        return cls(rows=n, cols=m, nums=nums, den=den)

    @property
    def entries(self) -> tuple:
        """The entries as Fractions, one tuple per row; built on each access."""
        den = self.den
        return tuple(tuple(Fraction(a, den) for a in row) for row in self.nums)

    def restrict_columns(self, columns) -> "RatMatrix":
        """Submatrix keeping `columns` (a nonempty index sequence) in order."""
        cols = tuple(columns)
        if not cols:
            raise InputError("empty column selection")
        for j in cols:
            if not 0 <= j < self.cols:
                raise InputError(f"column index {j} out of range")
        nums = [[row[j] for j in cols] for row in self.nums]
        common = math.gcd(self.den, *(a for row in nums for a in row))
        return RatMatrix(
            rows=self.rows,
            cols=len(cols),
            nums=tuple(tuple(a // common for a in row) for row in nums),
            den=self.den // common,
        )

    def to_json_dict(self) -> dict:
        # one string per distinct numerator, not per cell
        label = functools.cache(lambda a: format_ratio(a, self.den))
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(map(label, row)) for row in self.nums],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RatMatrix":
        """The matrix of a JSON object with "rows", "cols" and "entries".

        Each distinct cell is parsed (`parse_ratios`), range-checked and
        scaled once, and the cells map through that table. The errors are
        those of reading cell by cell: every cell is parsed before any is
        range-checked, and each error names the first faulty cell in
        row-major order.
        """
        rows, cols, raw = _read_matrix_dict(data)
        ratios = parse_ratios(itertools.chain.from_iterable(raw))
        if not ratios:
            return cls._from_ratios(raw)  # no cell: refused for its missing rows or columns
        _check_range(ratios.values())
        distinct, den = over_common_denominator(list(ratios.values()))
        scaled = dict(zip(ratios, distinct))
        # Each row reaches tuple() as a list, so it is built at its final
        # size. One grown from an iterator is resized, and the freed rows
        # would then pile up in CPython's per-size tuple free lists.
        nums = tuple([tuple(list(map(scaled.__getitem__, row))) for row in raw])
        return cls(rows=rows, cols=cols, nums=nums, den=den)


def _check_range(pairs) -> None:
    """Refuse the first (numerator, positive denominator) pair outside [0, 1]."""
    for a, b in pairs:
        if a < 0 or a > b:
            raise InputError(f"entry {Fraction(a, b)} outside [0, 1]")


def _read_matrix_dict(data: dict):
    if not isinstance(data, dict):
        raise InputError("matrix JSON must be an object")
    try:
        rows, cols, raw = data["rows"], data["cols"], data["entries"]
    except KeyError as exc:
        raise InputError("matrix JSON needs rows, cols, entries") from exc
    for name, count in (("rows", rows), ("cols", cols)):
        if not isinstance(count, int) or isinstance(count, bool):
            raise InputError(f"matrix {name} must be a JSON integer, got {count!r}")
    if not isinstance(raw, list) or len(raw) != rows:
        raise InputError("entry row count does not match rows")
    for row in raw:
        if not isinstance(row, list) or len(row) != cols:
            raise InputError("entry column count does not match cols")
    return rows, cols, raw


def hadamard_sylvester(log2_order: int) -> SignMatrix:
    """Sylvester-doubled +1/-1 matrix of order 2**log2_order.

    The order-1 case is [[+1]]; each doubling maps H to [[H, H], [H, -H]].
    First row and first column are all +1, and rows are pairwise orthogonal.
    """
    if log2_order < 0:
        raise InputError("log2_order must be nonnegative")
    if log2_order > MAX_LOG2_ORDER:
        raise CapExceededError(f"log2_order {log2_order} exceeds cap {MAX_LOG2_ORDER}")
    rows = [0]
    for level in range(log2_order):
        width = 1 << level
        flip = (1 << width) - 1
        rows = [row | row << width for row in rows] + [row | (flip ^ row) << width for row in rows]
    return SignMatrix(order=1 << log2_order, rows=tuple(rows))


def lift_w(matrix: SignMatrix) -> RatMatrix:
    """Shift a sign matrix into 0/1 entries: (1 + H_ij) / 2, 1 where the bit is clear."""
    return RatMatrix(
        rows=matrix.order,
        cols=matrix.order,
        nums=tuple([tuple(matrix._bits(row).encode().translate(_W_CELL)) for row in matrix.rows]),
        den=1,
    )


def check_cells(cells: int, what: str = "stacked cells") -> None:
    """Refuse more than MAX_CELLS cells, a stack's or those of `what`;
    callers check before building it."""
    if cells > MAX_CELLS:
        raise CapExceededError(f"{what} {cells} exceed cap {MAX_CELLS}")


def stack_horizontal(matrix: RatMatrix, copies: int) -> RatMatrix:
    """Concatenate `copies` copies of `matrix` side by side."""
    if copies < 1:
        raise InputError("copies must be >= 1")
    check_cells(matrix.rows * matrix.cols * copies)
    return RatMatrix(
        rows=matrix.rows,
        cols=matrix.cols * copies,
        nums=tuple(row * copies for row in matrix.nums),
        den=matrix.den,
    )


def check_blocks(blocks) -> list:
    """`blocks` as a list, refused unless non-empty with one column count."""
    blocks = list(blocks)
    if not blocks:
        raise InputError("need at least one block")
    cols = blocks[0].cols
    for block in blocks[1:]:
        if block.cols != cols:
            raise DimensionMismatchError(f"column counts differ: {block.cols} vs {cols}")
    return blocks


def stack_vertical(blocks) -> RatMatrix:
    """Concatenate matrices top to bottom; all must share a column count."""
    blocks = check_blocks(blocks)
    check_cells(sum(block.rows for block in blocks) * blocks[0].cols)
    den = math.lcm(*(block.den for block in blocks))
    nums = tuple(tuple(den // block.den * a for a in row) for block in blocks for row in block.nums)
    return RatMatrix(rows=len(nums), cols=blocks[0].cols, nums=nums, den=den)


def check_selection(x, cols: int) -> tuple:
    """`x` as a tuple, refused unless it is a 0/1 vector of length `cols`."""
    x = tuple(x)
    if len(x) != cols:
        raise DimensionMismatchError(f"selection length {len(x)} != cols {cols}")
    for bit in x:
        if bit not in (0, 1):
            raise InputError("selection entries must be 0 or 1")
    return x


def transfer_z(x, n: int, t: int) -> tuple:
    """Collapse a selection over t stacked copies into per-column multiplicities.

    For x of length n*t over the stacked matrix A = [W | ... | W], returns z
    with z_i = sum over copies of the bit for column i, so that
    A(p*1 - x) == W(p*t*1 - z) holds identically for every p.
    """
    x = check_selection(x, n * t)
    return tuple(sum(x[i + n * j] for j in range(t)) for i in range(n))
