"""Dense exact matrices and the Hadamard-derived building blocks.

Two matrix kinds live here: `SignMatrix` (entries +1/-1, pairwise orthogonal
rows, orders that are powers of two via Sylvester doubling) and `RatMatrix`
(entries are Fractions in [0, 1]; rows play the role of hyperedges or agents,
columns of vertices or goods). Both are immutable after construction and safe
to share across threads.

Indices are 0-based everywhere in this package, including the JSON formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, DimensionMismatchError, InputError
from .rational import format_rational, parse_rational

#: Largest Sylvester order built, as a power of two. Cells are Python objects,
#: so `construct w` peaks at about 150 MB at order 2^10 and four times that at
#: 2^11; larger orders are refused before any cell is built.
MAX_LOG2_ORDER = 11
DEFAULT_WIDTH_CAP = 1_000_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SignMatrix:
    """Square +1/-1 matrix of power-of-two order with orthogonal rows."""

    order: int
    entries: tuple

    def check_orthogonal(self) -> bool:
        """Verify H * H^T == order * I exactly."""
        n = self.order
        for i in range(n):
            for j in range(i, n):
                dot = sum(a * b for a, b in zip(self.entries[i], self.entries[j]))
                if dot != (n if i == j else 0):
                    return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "rows": self.order,
            "cols": self.order,
            "entries": [[str(e) for e in row] for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SignMatrix":
        rows, cols, raw = _read_matrix_dict(data)
        if rows != cols:
            raise InputError("sign matrix must be square")
        entries = []
        for row in raw:
            parsed = []
            for cell in row:
                value = parse_rational(cell)
                if value not in (1, -1):
                    raise InputError(f"sign matrix entry {cell!r} is not +-1")
                parsed.append(int(value))
            entries.append(tuple(parsed))
        matrix = cls(order=rows, entries=tuple(entries))
        if rows & (rows - 1) != 0 or rows == 0:
            raise InputError(f"sign matrix order {rows} is not a power of two")
        if not matrix.check_orthogonal():
            raise InputError("sign matrix rows are not pairwise orthogonal")
        return matrix


@dataclass(frozen=True)
class RatMatrix:
    """Dense matrix of Fractions, every entry in [0, 1]."""

    rows: int
    cols: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows) -> "RatMatrix":
        parsed = tuple(
            tuple(Fraction(cell) for cell in row) for row in rows
        )
        n = len(parsed)
        if n == 0:
            raise InputError("matrix needs at least one row")
        m = len(parsed[0])
        if m == 0:
            raise InputError("matrix needs at least one column")
        for row in parsed:
            if len(row) != m:
                raise DimensionMismatchError("ragged rows")
            for cell in row:
                if cell < _ZERO or cell > _ONE:
                    raise InputError(f"entry {cell} outside [0, 1]")
        return cls(rows=n, cols=m, entries=parsed)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def restrict_columns(self, columns) -> "RatMatrix":
        """Submatrix keeping `columns` (a nonempty index sequence) in order."""
        cols = tuple(columns)
        if not cols:
            raise InputError("empty column selection")
        for j in cols:
            if not 0 <= j < self.cols:
                raise InputError(f"column index {j} out of range")
        return RatMatrix(
            rows=self.rows,
            cols=len(cols),
            entries=tuple(tuple(row[j] for j in cols) for row in self.entries),
        )

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[format_rational(e) for e in row] for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RatMatrix":
        rows, cols, raw = _read_matrix_dict(data)
        matrix = cls.from_rows([[parse_rational(cell) for cell in row] for row in raw])
        if matrix.rows != rows or matrix.cols != cols:
            raise InputError("declared dimensions do not match entries")
        return matrix


def _read_matrix_dict(data: dict):
    if not isinstance(data, dict):
        raise InputError("matrix JSON must be an object")
    try:
        rows = int(data["rows"])
        cols = int(data["cols"])
        raw = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("matrix JSON needs rows, cols, entries") from exc
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
    block = [[1]]
    for _ in range(log2_order):
        block = [row + row for row in block] + [
            row + [-e for e in row] for row in block
        ]
    return SignMatrix(order=1 << log2_order, entries=tuple(tuple(r) for r in block))


def lift_w(matrix: SignMatrix) -> RatMatrix:
    """Shift a sign matrix into 0/1 entries: (1 + H_ij) / 2 entrywise."""
    return RatMatrix.from_rows(
        [[(1 + e) // 2 for e in row] for row in matrix.entries]
    )


def stack_horizontal(matrix: RatMatrix, copies: int, width_cap: int = DEFAULT_WIDTH_CAP) -> RatMatrix:
    """Concatenate `copies` copies of `matrix` side by side."""
    if copies < 1:
        raise InputError("copies must be >= 1")
    if matrix.cols * copies > width_cap:
        raise CapExceededError(
            f"stacked width {matrix.cols * copies} exceeds cap {width_cap}"
        )
    return RatMatrix(
        rows=matrix.rows,
        cols=matrix.cols * copies,
        entries=tuple(row * copies for row in matrix.entries),
    )


def stack_vertical(blocks) -> RatMatrix:
    """Concatenate matrices top to bottom; all must share a column count."""
    blocks = list(blocks)
    if not blocks:
        raise InputError("need at least one block")
    cols = blocks[0].cols
    for block in blocks[1:]:
        if block.cols != cols:
            raise DimensionMismatchError(
                f"column counts differ: {block.cols} vs {cols}"
            )
    entries = tuple(row for block in blocks for row in block.entries)
    return RatMatrix(rows=len(entries), cols=cols, entries=entries)


def transfer_z(x, n: int, t: int) -> tuple:
    """Collapse a selection over t stacked copies into per-column multiplicities.

    For x of length n*t over the stacked matrix A = [W | ... | W], returns z
    with z_i = sum over copies of the bit for column i, so that
    A(p*1 - x) == W(p*t*1 - z) holds identically for every p.
    """
    x = tuple(x)
    if len(x) != n * t:
        raise DimensionMismatchError(f"selection length {len(x)} != {n}*{t}")
    for bit in x:
        if bit not in (0, 1):
            raise InputError("selection entries must be 0 or 1")
    return tuple(sum(x[i + n * j] for j in range(t)) for i in range(n))
