"""Exact rational dense linear algebra: matrices, rank-3 tensors, products.

Scalars at every interface are `fractions.Fraction`; every operation here
is exact and no tolerance parameter exists anywhere in the package.
Dimensions in this problem domain are tiny (graded components of dimension
0..6), so storage is dense and the algorithms are the straightforward cubic
ones.  `add_scaled` is the one loop that scales and sums rows, of
`Fraction`s or of ints: `Matrix.__matmul__`, `Matrix.apply`, `rref`'s
elimination and `algebra._plane_sum` call it on `Fraction` rows, and
`orbifold._in_span`, the orbifold's one span test (closure and the unit),
on int rows.
`Matrix.det` keeps its own elimination, because it is the independent
oracle that `inverse` is tested against.  `Matrix.inverse` is the right
half of `rref` of ``[M | I]`` (M is singular when a pivot falls in the
right half), and `nonzero_entries` is the one walk over a block's nonzero
entries, for int images and saved algebra documents alike.

Hot loops that only multiply, add and compare table entries run on an
*int image* instead (`int_image`): every block of a table is scaled by the
table's common denominator D, the lcm of its entries' denominators, and
kept as the list of its nonzero entries with int numerators.  A product of
k entries from tables over D_1..D_k is then the exact value times
D_1*...*D_k, so two such expressions are compared exactly once both are
brought to the same total scale, and a value is recovered as
``Fraction(x, scale)``.

Rows convert between the two forms in one place each way: `int_rows`
turns `Fraction` rows into int rows over s, the lcm of their
denominators, and `fraction_rows` turns int rows over a scale back into
tuple rows of exact values, each zero the shared `ZERO`.  The orbifold,
the evaluator's piece matrices, `algebra.pairing_matrix` and the int
sides of witnesses (`report.descaled`) call them.  Three loops keep their
own form, because each measured slower through the two helpers:
`int_image` keeps only the nonzero entries with their indices (through
`int_rows`, `certify` lost 3 of 3 benchmark pairs); `tqft.RunningMap.matrix`
fills a zero grid from sparse rows (densified for `fraction_rows`, `fuzz`
lost 3 of 3 pairs, about 8% fewer jobs/s); and `algebra._derive` interns
one `Fraction` per distinct coproduct numerator (without that memo,
`derive` ran 10-15% slower on the rescaled algebras).

The row laws read an image through `batch_columns`, whose columns are
lists of ints running over one grade.  A `factor` keys the nonzero
entries of such a table by the index a law sums over, and `contract` sums
the products of two factors into a *row*: a dict from a position (the
padded index digits of a case and of its side) to an int column.  The
work is in proportion to the nonzero products, however large the grades,
and every product of two columns is one list-level operation over the
whole grade.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, SingularMatrix

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

_SCALAR_RE = re.compile(r"^([+-]?\d+)(?:/(0*[1-9]\d*))?$")


def scalar_from_string(text: str) -> Fraction:
    """Parse a scalar literal, either "p" or "p/q" in decimal digits, q > 0."""
    match = _SCALAR_RE.match(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    return Fraction(int(num), int(den or 1))


def format_scalar(value: Fraction) -> str:
    return str(value)


def as_vector(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def basis_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


class Matrix:
    """Dense matrix of exact rationals, immutable after construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence]):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("matrix dimensions must be non-negative")
        grid = tuple(tuple(Fraction(x) for x in row) for row in data)
        if len(grid) != rows or any(len(row) != cols for row in grid):
            raise DimensionMismatch(f"expected a {rows}x{cols} entry grid")
        self.rows = rows
        self.cols = cols
        self.data = grid

    @classmethod
    def _wrap(cls, rows: int, cols: int, data: tuple) -> "Matrix":
        # Internal fast path: data must already be a tuple grid of Fractions.
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "Matrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._wrap(
            n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._wrap(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: dict) -> "Matrix":
        """The matrix with the given (i, j) entries and zeros elsewhere;
        `Fraction` values are stored as they are, others converted."""
        grid = [[ZERO] * cols for _ in range(rows)]
        for (i, j), value in entries.items():
            grid[i][j] = value if type(value) is Fraction else Fraction(value)
        return cls._wrap(rows, cols, tuple(map(tuple, grid)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {self.data!r})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        odata, cols = other.data, other.cols
        grid = tuple(tuple(add_scaled([ZERO] * cols, arow, odata)) for arow in self.data)
        return Matrix._wrap(self.rows, cols, grid)

    def transpose(self) -> "Matrix":
        columns = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return Matrix._wrap(self.cols, self.rows, columns)

    def kron(self, other: "Matrix") -> "Matrix":
        # Left factor is the most significant index of the product.
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        out = []
        for arow in self.data:
            for brow in other.data:
                row = []
                for a in arow:
                    if a:
                        row.extend(a * b for b in brow)
                    else:
                        row.extend(ZERO for _ in brow)
                out.append(tuple(row))
        return Matrix._wrap(rows, cols, tuple(out))

    def apply(self, vec: Vector) -> Vector:
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(add_scaled([ZERO] * self.rows, vec, zip(*self.data)))

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        work = [list(row) for row in self.data]
        result = ONE
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                return ZERO
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                result = -result
            p = work[col][col]
            result *= p
            for r in range(col + 1, n):
                f = work[r][col] / p
                if f:
                    work[r] = [x - f * y for x, y in zip(work[r], work[col])]
        return result

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        joined = tuple(row + unit for row, unit in zip(self.data, Matrix.identity(n).data))
        reduced, pivots = rref(Matrix._wrap(n, 2 * n, joined))
        if any(col >= n for col in pivots):
            raise SingularMatrix(f"matrix of size {n} has zero determinant")
        return Matrix._wrap(n, n, tuple(row[n:] for row in reduced.data))


def add_scaled(out: list, weights: Iterable, rows: Iterable) -> list:
    """Add ``c * row`` into `out` for each pair (c, row) of `weights` and
    `rows` taken in step, skipping zero weights and zero entries; returns
    `out`.  The one loop that scales and sums rows, of `Fraction`s or of
    ints."""
    for c, row in zip(weights, rows):
        if c:
            for p, v in enumerate(row):
                if v:
                    out[p] += c * v
    return out


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns (least-index pivots)."""
    work = [list(row) for row in m.data]
    pivots: list[int] = []
    r = 0
    for col in range(m.cols):
        if r == m.rows:
            break
        pivot = next((i for i in range(r, m.rows) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        p = work[r][col]
        if p != ONE:
            work[r] = [x / p for x in work[r]]
        prow = work[r]
        for i in range(m.rows):
            if i != r and work[i][col]:
                add_scaled(work[i], (-work[i][col],), (prow,))
        pivots.append(col)
        r += 1
    return Matrix._wrap(m.rows, m.cols, tuple(tuple(row) for row in work)), tuple(pivots)


class Tensor3:
    """Dense rank-3 tensor of exact rationals indexed (i, j, k)."""

    __slots__ = ("dim0", "dim1", "dim2", "data")

    def __init__(self, dim0: int, dim1: int, dim2: int, data: Sequence):
        grid = tuple(tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in data)
        if (
            len(grid) != dim0
            or any(len(plane) != dim1 for plane in grid)
            or any(len(row) != dim2 for plane in grid for row in plane)
        ):
            raise DimensionMismatch(f"expected a {dim0}x{dim1}x{dim2} entry grid")
        self.dim0 = dim0
        self.dim1 = dim1
        self.dim2 = dim2
        self.data = grid

    @classmethod
    def _wrap(cls, dim0: int, dim1: int, dim2: int, data: tuple) -> "Tensor3":
        t = object.__new__(cls)
        t.dim0 = dim0
        t.dim1 = dim1
        t.dim2 = dim2
        t.data = data
        return t

    @classmethod
    def zeros(cls, dim0: int, dim1: int, dim2: int) -> "Tensor3":
        return cls._wrap(
            dim0, dim1, dim2, tuple(tuple((ZERO,) * dim2 for _ in range(dim1)) for _ in range(dim0))
        )

    @classmethod
    def from_entries(cls, dim0: int, dim1: int, dim2: int, entries: dict) -> "Tensor3":
        """As `Matrix.from_entries`, with (i, j, k) entries."""
        grid = [[[ZERO] * dim2 for _ in range(dim1)] for _ in range(dim0)]
        for (i, j, k), value in entries.items():
            grid[i][j][k] = value if type(value) is Fraction else Fraction(value)
        return cls._wrap(
            dim0, dim1, dim2, tuple(tuple(tuple(row) for row in plane) for plane in grid)
        )

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.dim0, self.dim1, self.dim2)

    def __getitem__(self, index: tuple[int, int, int]) -> Fraction:
        i, j, k = index
        return self.data[i][j][k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dims == other.dims and self.data == other.data

    def __repr__(self) -> str:
        return f"Tensor3({self.dim0}x{self.dim1}x{self.dim2})"


def nonzero_entries(block) -> list[tuple]:
    """The nonzero entries of a Tensor3, Matrix or vector in row-major
    order, as (*index, value)."""
    if isinstance(block, Tensor3):
        return [
            (i, j, k, v)
            for i, plane in enumerate(block.data)
            for j, row in enumerate(plane)
            for k, v in enumerate(row)
            if v
        ]
    if isinstance(block, Matrix):
        return [(i, j, v) for i, row in enumerate(block.data) for j, v in enumerate(row) if v]
    return [(i, v) for i, v in enumerate(block) if v]


def int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """`Fraction` rows as int rows over s, the lcm of their denominators (1
    when there are no entries); returns (int rows, s)."""
    s = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (s // x.denominator) for x in row] for row in rows], s


def fraction_rows(rows: Iterable[Iterable[int]], scale: int) -> tuple[Vector, ...]:
    """Int rows over `scale` as the tuple rows of their exact values, each
    zero the shared `ZERO`."""
    return tuple(tuple(Fraction(x, scale) if x else ZERO for x in row) for row in rows)


def int_image(blocks: Mapping) -> tuple[dict, int]:
    """The int image of a table: its blocks (Tensor3s, Matrices or
    vectors) over their common denominator D, the lcm of every entry's
    denominator.  Each block becomes the list of its nonzero entries in
    row-major order as (*index, numerator), where the entry's value is
    numerator / D; returns (image, D).  Keys holding one block object share
    one scan and one entry list (`blocks` keeps every id alive)."""
    entries = {}  # block id -> its nonzero entries
    for block in blocks.values():
        if id(block) not in entries:
            entries[id(block)] = nonzero_entries(block)
    scale = math.lcm(*(e[-1].denominator for block in entries.values() for e in block))
    images = {
        at: [(*e[:-1], e[-1].numerator * (scale // e[-1].denominator)) for e in block]
        for at, block in entries.items()
    }
    return {key: images[id(block)] for key, block in blocks.items()}, scale


def padded_index(index: Sequence[int], pad: int) -> int:
    """The position that `index` spells in row-major order when every digit
    is padded to `pad`."""
    t = 0
    for q in index:
        t = t * pad + q
    return t


def batch_columns(image: Mapping, n: int, first: bool = False) -> list[list]:
    """The int image of a table keyed by pairs (x, y) in 0..n-1, read across
    one key: ``out[x]`` lists ``(*index, column)`` for every index at which
    some block (x, y) is nonzero, the column holding that entry of block
    (x, y) for every y; with `first`, ``out[y]`` runs over x instead."""
    cells: list[dict] = [{} for _ in range(n)]
    for (x, y), entries in image.items():
        fixed, at = (y, x) if first else (x, y)
        for *index, v in entries:
            column = cells[fixed].get(tuple(index))
            if column is None:
                column = cells[fixed][tuple(index)] = [0] * n
            column[at] = v
    return [[(*index, column) for index, column in sorted(c.items())] for c in cells]


def factor(entries: Iterable, axis: int, strides: Sequence[int]) -> dict:
    """Nonzero entries ``(*index, value)``, of an int image block (int
    values) or of `batch_columns` (column values), keyed by their index
    digit `axis`: ``{digit: [(offset, value)]}``, where the offset weighs
    the other digits, in order, by `strides`."""
    out: dict = {}
    for *index, value in entries:
        key = index.pop(axis)
        out.setdefault(key, []).append((sum(map(mul, index, strides)), value))
    return out


def moved(f: Mapping, order: Sequence[int]) -> dict:
    """A factor of columns with each column reordered by `order`."""
    return {
        key: [(o, list(map(c.__getitem__, order))) for o, c in entries]
        for key, entries in f.items()
    }


def _scaled(scale: int, column: list) -> list:
    return column if scale == 1 else [scale * x for x in column]


def _product(a: list, b: list) -> list:
    return list(map(mul, a, b))


def contract(left: Mapping, right: Mapping, scale: int = 1) -> dict:
    """The row of ``scale * a * b`` summed at position ``u + w`` over every
    (u, a) in left[m] and (w, b) in right[m], for the keys m the two
    factors share; a is an int or a column and b a column.  Zero columns
    are left out, so two rows are equal exactly when their entries are."""
    out: dict = {}
    for key, lefts in left.items():
        rights = right.get(key)
        if rights:
            for u, a in lefts:
                times = _scaled if type(a) is int else _product
                for w, b in rights:
                    term, old = times(a, b), out.get(u + w)
                    out[u + w] = term if old is None else list(map(add, old, term))
    return {t: _scaled(scale, c) for t, c in out.items() if any(c)}


def column_row(
    entries: Iterable, pad: int, scale: int = 1, order: Sequence[int] | None = None
) -> dict:
    """The row of `batch_columns` entries, each column reordered by `order`
    when given and times `scale`, at the position that their index spells
    with every digit padded to `pad`."""
    out = {}
    for *index, c in entries:
        moved_column = c if order is None else list(map(c.__getitem__, order))
        out[padded_index(index, pad)] = _scaled(scale, moved_column)
    return out


def regroup(row: Mapping, size: int) -> dict:
    """A row read as a factor keyed by ``position // size``, at offset
    ``position % size``."""
    out: dict = {}
    for t, column in row.items():
        key, offset = divmod(t, size)
        out.setdefault(key, []).append((offset, column))
    return out


def format_matrix(m: Matrix) -> list[str]:
    """Aligned row strings for terminal output."""
    if m.rows == 0 or m.cols == 0:
        return [f"[ ] ({m.rows}x{m.cols})"]
    cells = [[format_scalar(x) for x in row] for row in m.data]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    return [
        "[ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]" for row in cells
    ]


def matrix_literal(m: Matrix) -> str:
    """Compact single-line matrix form used in witnesses."""
    return "[" + ", ".join("[" + ", ".join(format_scalar(x) for x in row) + "]" for row in m.data) + "]"


def vector_literal(v: Vector) -> str:
    return "(" + ", ".join(format_scalar(x) for x in v) + ")"
