"""The invariant subalgebra of a graded Frobenius algebra.

Averaging over the conjugation action projects onto the invariants (valid
because the scalars have characteristic zero).  The invariant basis is the
reduced row echelon form of the projector image with least-index pivots,
so serialization and tests see a deterministic basis.

Vectors of the total space are flat tuples over all graded components,
concatenated in element-index order; `_offsets` places each grade.

The certification runs on int rows at one scale.  The basis becomes int
rows B over s, the lcm of its denominators (`exactlin.int_rows`, the one
conversion from `Fraction` rows; `exactlin.fraction_rows` is the one
back, for the projector, the invariant algebra and every coordinate and
text built below).  Each product v_i v_j is one
int vector W over s^2 d_p, summed on the int image of the product
(`algebra.table_image`, over d_p).  The basis is reduced, so the
coordinates of W are its entries at the pivots, and W lies in the span
exactly when sum_m W[p_m] B_m == s W: `_in_span`, the one span test.
Commutativity and associativity read those numerators, over s^2 d_p, and
the unit law compares int vectors over one scale as well.  `Fraction`s are
built only for the basis, the invariant algebra and the witnesses
(`report.descaled`).  The projector reads the action's int image, and the
trace check reads the invariant algebra's `algebra.inverted_pairings`.

The last entry certifies that the basis is invariant: every phi_k fixes
every basis row, each side an int vector over s d_a summed on the action's
int image over the row's grade parts.  A vector v that every phi_k fixes
has P v = v for the average P of the phi_k, so it lies in the image of P,
the span of the basis; once every basis row is fixed too, that span is
exactly the space every phi_k fixes, whether or not the phi_k form an
action.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import GFrobeniusAlgebra, frobenius_untwisted, inverted_pairings, table_image
from .errors import check_budget
from .exactlin import (
    Matrix,
    Tensor3,
    Vector,
    add_scaled,
    fraction_rows,
    int_rows,
    rref,
    vector_literal,
)
from .report import CheckReport, Witness, descaled, failing, first_failure, passing, renderer


def _offsets(a: GFrobeniusAlgebra) -> tuple[tuple[int, ...], int]:
    offsets = []
    total = 0
    for d in a.dims:
        offsets.append(total)
        total += d
    return tuple(offsets), total


def _component(a: GFrobeniusAlgebra, offsets, vec: Vector, g: int) -> Vector:
    start = offsets[g]
    return tuple(vec[start : start + a.dims[g]])


def _int_parts(a: GFrobeniusAlgebra, offsets, row: list[int]) -> list[tuple[int, list[int]]]:
    """The nonzero grade components of an int total-space row, as
    (grade, component) pairs in element order."""
    parts = ((g, row[offsets[g] : offsets[g] + a.dims[g]]) for g in a.group.elements())
    return [(g, part) for g, part in parts if any(part)]


def _times(a: GFrobeniusAlgebra, offsets, total: int, xs, ys) -> list[int]:
    """The int total-space product of two int rows given by their grade
    parts, summed on the int image of the product: over the rows' scales
    times d_p, the image's scale."""
    image, _ = table_image(a, "product")
    table = a.group.table
    out = [0] * total
    for g, x in xs:
        row = table[g]
        for h, y in ys:
            base = offsets[row[h]]
            for i, j, p, v in image[(g, h)]:
                xi = x[i]
                if xi:
                    yj = y[j]
                    if yj:
                        out[base + p] += xi * yj * v
    return out


def _image_basis(m: Matrix) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Echelonized basis of the column space, with its pivot coordinates."""
    reduced, pivots = rref(m.transpose())
    basis = tuple(reduced.data[r] for r in range(len(pivots)))
    return basis, pivots


def _in_span(
    rows: Sequence[list[int]], s: int, pivots: Sequence[int], w: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """The coordinates of an int vector w over any scale t in the reduced
    int rows over s with these pivots (w at the pivots, over t), and the
    two sides of its span test, s w and the span of the coordinates, both
    over s t: they agree exactly when w lies in the span."""
    coords = [w[p] for p in pivots]
    return coords, [s * x for x in w], add_scaled([0] * len(w), coords, rows)


def invariant_projector(a: GFrobeniusAlgebra) -> Matrix:
    """The averaging projector over the whole conjugation action: the
    action blocks of every k, summed on the int image of the action into
    one total x total grid, then divided by n * d_a."""
    group = a.group
    offsets, total = _offsets(a)
    action, d_a = table_image(a, "action")
    grid = [[0] * total for _ in range(total)]
    for (k, g), entries in action.items():
        row0, col0 = offsets[group.conj(k, g)], offsets[g]
        for i, j, v in entries:
            grid[row0 + i][col0 + j] += v
    return Matrix._wrap(total, total, fraction_rows(grid, group.order * d_a))


class OrbifoldAlgebra:
    """The invariant subalgebra, certified as an ordinary Frobenius algebra;
    `trivial` is that algebra over the trivial group, as the file format
    saves it."""

    __slots__ = ("basis", "trivial", "certification")

    def __init__(self, basis, trivial, certification):
        self.basis = basis
        self.trivial = trivial
        self.certification = certification

    @property
    def dimension(self) -> int:
        return len(self.basis)


def orbifold_algebra(a: GFrobeniusAlgebra) -> OrbifoldAlgebra:
    """Restrict the algebra to its invariants and certify the result.

    The certification report covers closure of the product, commutativity,
    associativity, unit membership and the unit law, nondegeneracy of the
    restricted trace pairing, and invariance of the basis under every k.
    Products and a unit that leave the invariant span are zero-filled, so
    that every entry is still computed.  Row-reducing the total x total
    projector is cubic in the total dimension, and so are the d^3
    associativity cases (d <= total), so total^3 is checked against the
    work budget before anything is built.
    """
    group = a.group
    offsets, total = _offsets(a)
    check_budget(total**3, "units of orbifold work")
    basis, pivots = _image_basis(invariant_projector(a))
    d = len(basis)
    rows, s = int_rows(basis)
    parts = [_int_parts(a, offsets, row) for row in rows]
    _, d_p = table_image(a, "product")
    inside = "a vector inside the invariant span"

    # v_i v_j is W / d_o with d_o = s^2 d_p, and its coordinates are W at
    # the pivots, over the same scale: products[i][j]
    d_o = s * s * d_p
    products: list[list[list[int]]] = []
    closure = []  # every product is needed below, so all cases are built
    for i in range(d):
        products.append([])
        for j in range(d):
            w = _times(a, offsets, total, parts[i], parts[j])
            coords, lhs, spanned = _in_span(rows, s, pivots, w)
            products[i].append(coords if lhs == spanned else [0] * d)
            closure.append(((i, j), lhs, spanned))

    # commutativity compares the coordinate numerators; associativity sums
    # over the coordinates m of v_i v_j on the left and of v_j v_k on the
    # right, over d_o^2
    constants = [[[(m, c) for m, c in enumerate(w) if c] for w in row] for row in products]

    def associativity():
        for i, left in enumerate(constants):
            for j, ij in enumerate(left):
                middle = constants[j]
                for k in range(d):
                    lhs = [0] * d
                    for m, c in ij:
                        for p, v in constants[m][k]:
                            lhs[p] += c * v
                    rhs = [0] * d
                    for m, c in middle[k]:
                        for p, v in left[m]:
                            rhs[p] += c * v
                    yield (i, j, k), lhs, rhs

    # the unit is invariant, so it must lie in the span and act as identity;
    # both tests compare int vectors over d_u * s * d_p
    e = group.identity
    (unit,), d_u = int_rows((a.unit,))
    unit_total = [0] * total
    unit_total[offsets[e] : offsets[e] + len(unit)] = unit
    unit_coords, unit_lhs, unit_spanned = _in_span(rows, s, pivots, unit_total)
    if unit_lhs != unit_spanned:
        unit_coords = [0] * d
    unit_parts = [(e, unit)]

    def unit_law():
        yield None, [d_p * x for x in unit_lhs], [d_p * x for x in unit_spanned]
        for j, row in enumerate(rows):
            yield j, _times(a, offsets, total, unit_parts, parts[j]), [d_u * d_p * x for x in row]

    def render_unit(j, lhs, rhs) -> Witness:
        if j is None:
            return Witness((("vector", "unit"),), vector_literal(lhs), inside)
        return Witness((("j", str(j)),), vector_literal(lhs), vector_literal(rhs))

    commuting = (
        ((i, j), products[i][j], products[j][i]) for i in range(d) for j in range(i + 1, d)
    )
    outside = renderer(("i", "j"), str, vector_literal, lambda _: inside)
    pairs = renderer(("i", "j"), str, vector_literal)
    triples = renderer(("i", "j", "k"), str, vector_literal)
    entries = [
        first_failure("orbifold-closure", closure, descaled(outside, s * d_o)),
        first_failure("orbifold-commutativity", commuting, descaled(pairs, d_o)),
        first_failure("orbifold-associativity", associativity(), descaled(triples, d_o * d_o)),
        first_failure("orbifold-unit", unit_law(), descaled(render_unit, d_u * s * d_p)),
    ]

    # restricted trace: evaluate on the identity component only
    trace_coords = tuple(a.trace_of(_component(a, offsets, v, e)) for v in basis)
    product_tensor = Tensor3._wrap(d, d, d, tuple(fraction_rows(row, d_o) for row in products))
    unit_exact = fraction_rows((unit_coords,), d_u)[0]
    trivial = frobenius_untwisted(d, product_tensor, unit_exact, trace_coords)
    name = "orbifold-trace-nondegenerate"
    if inverted_pairings(trivial)[0][1] is not None:
        entries.append(passing(name))
    else:
        entries.append(failing(name, (("gram", "determinant"),), "0", "nonzero determinant"))

    # every phi_k fixes every basis row: phi_k(v_i), summed on the action's
    # int image over the row's grade parts, against d_a v_i, over s d_a
    action, d_a = table_image(a, "action")
    fixed_rows = [[d_a * x for x in row] for row in rows]

    def invariance():
        for k in group.elements():
            for i, row_parts in enumerate(parts):
                moved = [0] * total
                for g, part in row_parts:
                    base = offsets[group.conj(k, g)]
                    for p, j, v in action[(k, g)]:
                        moved[base + p] += v * part[j]
                yield (k, i), moved, fixed_rows[i]

    def render_fixed(context, lhs, rhs) -> Witness:
        k, i = context
        names = (("k", group.name(k)), ("i", str(i)))
        return Witness(names, vector_literal(lhs), vector_literal(rhs))

    entries.append(
        first_failure("orbifold-invariance", invariance(), descaled(render_fixed, s * d_a))
    )
    return OrbifoldAlgebra(basis=basis, trivial=trivial, certification=CheckReport(tuple(entries)))
