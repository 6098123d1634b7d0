"""Case-at-a-time law checks: the reference the row checks are compared with.

Each law here is a generator yielding its cases as ``(context, lhs, rhs)``
one at a time, in the loop order that defines the law's witness, and
`report.first_failure` reports the first case whose sides differ.  The
package evaluates the same laws a row at a time (see the "Law checks"
section of `gtqft.algebra`); `test_row_laws.py` asserts that the two give
equal reports on every single-entry mutation of a few small algebras.
The laws that the package checks case by case on its `Fraction` tables
(`unit-laws`, the action laws on single blocks, `trace-invariance` and
`pairing-nondegenerate`) are kept here too, the single-block ones on int
images with their own `_int_vector`, so that `check_axioms` below is the
whole report of the case-at-a-time design.  The pairings, handle elements
and the right side of the torus identity are built here in `Fraction`
arithmetic from basis vectors and one `apply_product` per basis pair,
independently of the package's `pairing_matrix` and `handle_element`.
`derive_coproducts` is the two-formula `Fraction` derive that the
package's int-image `derive` is compared with, and `orbifold_reference`
the `Fraction` orbifold route that its int rows are compared with.
`sector_change_of_basis` is the check the orbifold no longer makes: the
centralizer-invariant sectors at the class representatives mapped onto
the invariant basis and back; the tests hold it as the reference that the
invariance entry loses no verdict of.  `action_on_dual_basis_check`
is a law the package does not check at all; the tests and goldens use it as
an oracle for the derived dual bases.  `cerf_reference` is the surface table
compared as `Matrix` values, word by word, where the package compares the
words' running maps.
"""

from __future__ import annotations

import itertools

from gtqft.algebra import _group_renderer, frobenius_untwisted, inverted_pairings
from gtqft.cobordism import case_label_count, cerf_case_words
from gtqft.errors import CoproductMismatch, DimensionMismatch
from gtqft.exactlin import (
    ZERO,
    Matrix,
    Tensor3,
    add_scaled,
    basis_vector,
    format_scalar,
    int_image,
    matrix_literal,
    vector_literal,
)
from gtqft.groups import conjugacy
from gtqft.orbifold import _component, _image_basis, _offsets, invariant_projector
from gtqft.report import (
    CheckEntry,
    CheckReport,
    Witness,
    descaled,
    failing,
    first_failure,
    passing,
    renderer,
)
from gtqft.tqft import Evaluator


def _int_vector(v) -> tuple[list[int], int]:
    """A vector as dense int numerators over its common denominator."""
    image, scale = int_image({0: v})
    out = [0] * len(v)
    for i, x in image[0]:
        out[i] = x
    return out, scale


def _int_times(entries, x, y, size: int) -> list[int]:
    """Product of the dense int vectors x and y through the nonzero entries
    (i, j, p, numerator) of one product block of an int image."""
    out = [0] * size
    for i, j, p, v in entries:
        xi = x[i]
        if xi:
            yj = y[j]
            if yj:
                out[p] += xi * yj * v
    return out


def _int_apply(entries, x, size: int) -> list[int]:
    """A matrix block of an int image, entries (i, j, numerator), applied
    to the dense int vector x."""
    out = [0] * size
    for i, j, v in entries:
        xj = x[j]
        if xj:
            out[i] += v * xj
    return out


def zero_vector(n: int):
    return (ZERO,) * n


def vector_add(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def pairing_matrix(a, g) -> Matrix:
    """Gram matrix of the trace pairing between grades g and g^-1, one
    product of basis vectors per entry."""
    gi = a.group.inv(g)
    rows = []
    for i in range(a.dims[g]):
        bi = basis_vector(a.dims[g], i)
        row = []
        for j in range(a.dims[gi]):
            bj = basis_vector(a.dims[gi], j)
            row.append(a.trace_of(a.apply_product(g, gi, bi, bj)))
        rows.append(tuple(row))
    return Matrix(a.dims[g], a.dims[gi], rows)


def handle_element(a, dual, x, y):
    """The handle contribution for (x, y): the sum over i of y acting on
    basis vector i of grade x times column i of `dual`."""
    group = a.group
    moved_grade, xi = group.conj(y, x), group.inv(x)
    grade = group.mul(moved_grade, xi)
    act_columns, dual_columns = a.action[(y, x)].transpose().data, dual.transpose().data
    out = zero_vector(a.dims[grade])
    for i in range(a.dims[x]):
        product = a.apply_product(moved_grade, xi, act_columns[i], dual_columns[i])
        out = vector_add(out, product)
    return grade, out


def derive_coproducts(a) -> dict:
    """The coproducts of `a`, entry by entry in `Fraction` arithmetic by
    both one-sided formulas (basis_c times the dual basis of h on the
    right, the dual basis of g times basis_c on the left), cross-asserted:
    CoproductMismatch names the first differing entry.  The dual bases are
    the inverses of this module's pairings, so a degenerate pairing raises
    DimensionMismatch or SingularMatrix."""
    group = a.group
    n = group.order
    dual_bases = {g: pairing_matrix(a, g).inverse() for g in range(n)}
    coproducts = {}
    for g in range(n):
        for h in range(n):
            gh = group.mul(g, h)
            dgh, dg, dh = a.dims[gh], a.dims[g], a.dims[h]
            right, dual_h = a.product[(gh, group.inv(h))].data, dual_bases[h].data
            left, dual_g = a.product[(group.inv(g), gh)].data, dual_bases[g].data
            grid = []
            for c in range(dgh):
                plane = []
                for i in range(dg):
                    row = []
                    for j in range(dh):
                        v1 = sum((r[i] * d[j] for r, d in zip(right[c], dual_h)), ZERO)
                        v2 = sum((d[i] * p[c][j] for d, p in zip(dual_g, left)), ZERO)
                        if v1 != v2:
                            raise CoproductMismatch(
                                "coproduct formulas disagree for grades "
                                f"({group.name(g)}, {group.name(h)}) at entry "
                                f"({c}, {i}, {j}): {v1} vs {v2}; the input violates "
                                "the algebra laws"
                            )
                        row.append(v1)
                    plane.append(row)
                grid.append(plane)
            coproducts[(g, h)] = Tensor3(dgh, dg, dh, grid)
    return coproducts


def check_axioms(a) -> CheckReport:
    group = a.group
    n = group.order
    e = group.identity
    dims = a.dims
    mul, conj, inv = group.mul, group.conj, group.inv
    P, d_p = int_image(a.product)
    A, d_a = int_image(a.action)
    unit, d_u = _int_vector(a.unit)
    trace, d_t = _int_vector(a.trace)
    bases = [[[int(q == i) for q in range(d)] for i in range(d)] for d in dims]
    pairings = {}

    def grid(k, g, factor=1):
        out = [[0] * dims[g] for _ in range(dims[conj(k, g)])]
        for i, j, v in A[(k, g)]:
            out[i][j] = v * factor
        return out

    def identity(d, factor):
        return [[factor if i == j else 0 for j in range(d)] for i in range(d)]

    def scaled(v, c):
        return v if c == 1 else [c * x for x in v]

    def associativity():
        for g in range(n):
            for h in range(n):
                gh = mul(g, h)
                first = P[(g, h)]
                for k in range(n):
                    hk = mul(h, k)
                    left, inner, right = P[(gh, k)], P[(h, k)], P[(g, hk)]
                    size = dims[mul(gh, k)]
                    for i, bi in enumerate(bases[g]):
                        for j, bj in enumerate(bases[h]):
                            via_left = _int_times(first, bi, bj, dims[gh])
                            for l, bl in enumerate(bases[k]):
                                yield (
                                    (g, h, k, i, j, l),
                                    _int_times(left, via_left, bl, size),
                                    _int_times(right, bi, _int_times(inner, bj, bl, dims[hk]), size),
                                )

    def unit_laws():
        for g in range(n):
            for j, bj in enumerate(bases[g]):
                sj = scaled(bj, d_u * d_p)
                yield (g, j, "left"), _int_times(P[(e, g)], unit, bj, dims[g]), sj
                yield (g, j, "right"), _int_times(P[(g, e)], bj, unit, dims[g]), sj

    def action_of_identity():
        for g in range(n):
            yield (g,), grid(e, g), identity(dims[g], d_a)

    def action_homomorphism():
        targets = {key: grid(*key, d_a) for key in A}
        for k in range(n):
            for l in range(n):
                kl = mul(k, l)
                for g in range(n):
                    composed = [[0] * dims[g] for _ in range(dims[conj(kl, g)])]
                    for i, m, v in A[(k, conj(l, g))]:
                        for m2, j, w in A[(l, g)]:
                            if m == m2:
                                composed[i][j] += v * w
                    yield (k, l, g), composed, targets[(kl, g)]

    def action_automorphism():
        # the unit check of k is over d_a * d_u and the products over
        # d_p * d_a^2; both are brought to d_u * d_p * d_a^2
        for k in range(n):
            fixed = _int_apply(A[(k, e)], unit, dims[e])
            yield (k,), scaled(fixed, d_p * d_a), scaled(unit, d_p * d_a * d_a)
            for g in range(n):
                kg = conj(k, g)
                moved = [_int_apply(A[(k, g)], bi, dims[kg]) for bi in bases[g]]
                for h in range(n):
                    gh, kh = mul(g, h), conj(k, h)
                    product, act_gh, act_h = P[(g, h)], A[(k, gh)], A[(k, h)]
                    moved_product, size = P[(kg, kh)], dims[conj(k, gh)]
                    for i, bi in enumerate(bases[g]):
                        for j, bj in enumerate(bases[h]):
                            lhs = _int_apply(act_gh, _int_times(product, bi, bj, dims[gh]), size)
                            rhs = _int_times(
                                moved_product, moved[i], _int_apply(act_h, bj, dims[kh]), size
                            )
                            yield (k, g, h, i, j), scaled(lhs, d_a * d_u), scaled(rhs, d_u)

    def trivial_on_own_grade():
        for g in range(n):
            yield (g,), grid(g, g), identity(dims[g], d_a)

    def trace_invariance():
        for h in range(n):
            for t, bt in enumerate(bases[e]):
                moved = _int_apply(A[(h, e)], bt, dims[e])
                yield (h, t), sum(x * y for x, y in zip(trace, moved)), d_a * trace[t]

    def nondegenerate():
        for g in range(n):
            yield (g, "dim"), dims[g], dims[inv(g)]
            theta = pairings[g] = pairing_matrix(a, g)
            yield (g, "det"), theta.det() != ZERO, True

    def render_degenerate(context, lhs, rhs) -> Witness:
        g, kind = context
        where = (("g", group.name(g)),)
        if kind == "dim":
            return Witness(where, f"dim {lhs}", f"dim {rhs} of the inverse grade")
        return Witness(where, "det 0", "nonzero determinant")

    def twisted_commutativity():
        for g in range(n):
            for h in range(n):
                tw = conj(g, h)
                product, twisted, act_h = P[(g, h)], P[(tw, g)], A[(g, h)]
                size = dims[mul(g, h)]
                moved = [_int_apply(act_h, bj, dims[tw]) for bj in bases[h]]
                for i, bi in enumerate(bases[g]):
                    for j, bj in enumerate(bases[h]):
                        yield (
                            (g, h, i, j),
                            scaled(_int_times(product, bi, bj, size), d_a),
                            _int_times(twisted, moved[j], bi, size),
                        )

    def torus_identity():
        duals = {g: theta.inverse() for g, theta in pairings.items()}
        for g in range(n):
            for h in range(n):
                hi = inv(h)
                ghi = conj(g, hi)
                _, lhs = handle_element(a, duals[g], g, h)
                rhs = zero_vector(dims[mul(h, ghi)])
                for i in range(dims[h]):
                    moved = a.action[(g, hi)].apply(duals[h].transpose().data[i])
                    bi = basis_vector(dims[h], i)
                    rhs = vector_add(rhs, a.apply_product(h, ghi, bi, moved))
                yield (g, h), lhs, rhs

    def law(name, cases, keys, left=vector_literal, right=None, scale=None):
        render = _group_renderer(group, keys, left, right)
        return first_failure(name, cases, render if scale is None else descaled(render, scale))

    entries = [
        law("product-associativity", associativity(), ("g", "h", "k", "i", "j", "l"), scale=d_p * d_p),
        law("unit-laws", unit_laws(), ("g", "j", "side"), scale=d_u * d_p),
        law(
            "action-of-identity",
            action_of_identity(),
            ("g",),
            lambda _: "action block of the identity element",
            lambda _: "identity matrix",
            scale=d_a,
        ),
        law("action-homomorphism", action_homomorphism(), ("k", "l", "g"), matrix_literal, scale=d_a * d_a),
        law(
            "action-automorphism",
            action_automorphism(),
            ("k", "g", "h", "i", "j"),
            scale=d_u * d_p * d_a * d_a,
        ),
        law(
            "action-trivial-on-own-grade",
            trivial_on_own_grade(),
            ("g",),
            matrix_literal,
            lambda _: "identity matrix",
            scale=d_a,
        ),
        law("trace-invariance", trace_invariance(), ("h", "t"), format_scalar, scale=d_t * d_a),
        first_failure("pairing-nondegenerate", nondegenerate(), render_degenerate),
        law("twisted-commutativity", twisted_commutativity(), ("g", "h", "i", "j"), scale=d_p * d_a),
    ]
    if entries[-2].passed:
        entries.append(law("torus-identity", torus_identity(), ("g", "h")))
    else:
        blocked = (("blocked", "degenerate pairing; identity not evaluated"),)
        entries.append(failing("torus-identity", blocked, "", ""))
    return CheckReport(tuple(entries))


def check_frobenius_diagram(a, d) -> CheckReport:
    group = a.group
    n = group.order
    dims = a.dims
    P, d_p = int_image(a.product)
    C, d_c = int_image(d.coproducts)

    def cases():
        for g in range(n):
            for h in range(n):
                gh = group.mul(g, h)
                for k in range(n):
                    hk = group.mul(h, k)
                    lhs = {}
                    for i, x, p, v in P[(g, h)]:
                        for c, x2, b, w in C[(h, k)]:
                            if x == x2:
                                key = (g, h, k, i, c, p, b)
                                lhs[key] = lhs.get(key, 0) + v * w
                    rhs = {}
                    for i, c, q, v in P[(g, hk)]:
                        for q2, p, b, w in C[(gh, k)]:
                            if q == q2:
                                key = (g, h, k, i, c, p, b)
                                rhs[key] = rhs.get(key, 0) + v * w
                    for i in range(dims[g]):
                        for c in range(dims[hk]):
                            for p in range(dims[gh]):
                                for b in range(dims[k]):
                                    key = (g, h, k, i, c, p, b)
                                    yield key, lhs.get(key, 0), rhs.get(key, 0)

    render = _group_renderer(group, ("g", "h", "k", "i", "c", "p", "b"), format_scalar)
    return CheckReport((first_failure("frobenius-relation", cases(), descaled(render, d_p * d_c)),))


def check_cocommutativity(a, d) -> CheckReport:
    group = a.group
    n = group.order
    dims = a.dims
    A, d_a = int_image(a.action)
    C, d_c = int_image(d.coproducts)

    def cases():
        for g in range(n):
            for h in range(n):
                tw = group.conj(g, h)
                lhs = {(g, h, c, i, j): d_a * w for c, i, j, w in C[(tw, g)]}
                rhs = {}
                for i, b, v in A[(g, h)]:
                    for c, j, b2, w in C[(g, h)]:
                        if b == b2:
                            key = (g, h, c, i, j)
                            rhs[key] = rhs.get(key, 0) + v * w
                for c in range(dims[group.mul(g, h)]):
                    for i in range(dims[tw]):
                        for j in range(dims[g]):
                            key = (g, h, c, i, j)
                            yield key, lhs.get(key, 0), rhs.get(key, 0)

    render = _group_renderer(group, ("g", "h", "c", "i", "j"), format_scalar)
    return CheckReport((first_failure("twisted-cocommutativity", cases(), descaled(render, d_a * d_c)),))


def orbifold_associativity(orb) -> CheckEntry:
    """The `orbifold-associativity` entry of an orbifold algebra, from its
    (zero-filled) structure constants."""
    d = orb.dimension
    t = orb.trivial.product[(0, 0)]
    return _orbifold_associativity({(i, j): t.data[i][j] for i in range(d) for j in range(d)}, d)


def _orbifold_associativity(products, d: int) -> CheckEntry:
    constants, d_o = int_image(products)

    def associativity():
        for i in range(d):
            for j in range(d):
                ij = constants[(i, j)]
                for k in range(d):
                    lhs = [0] * d
                    for m, c in ij:
                        for p, v in constants[(m, k)]:
                            lhs[p] += c * v
                    rhs = [0] * d
                    for m, c in constants[(j, k)]:
                        for p, v in constants[(i, m)]:
                            rhs[p] += c * v
                    yield (i, j, k), lhs, rhs

    triples = descaled(renderer(("i", "j", "k"), str, vector_literal), d_o * d_o)
    return first_failure("orbifold-associativity", associativity(), triples)


def _grade_parts(a, offsets, vec) -> list:
    """The nonzero grade components of a total-space vector, as
    (grade, component) pairs in element order."""
    parts = ((g, _component(a, offsets, vec, g)) for g in a.group.elements())
    return [(g, part) for g, part in parts if any(part)]


def _product_parts(a, xs, ys) -> list:
    """Grade parts of the product of two vectors given by their grade parts:
    one `apply_product` per pair of nonzero grades."""
    mul = a.group.mul
    return [(mul(g, h), a.apply_product(g, h, x, y)) for g, x in xs for h, y in ys]


def _total_vector(offsets, total: int, parts) -> tuple:
    """The total-space vector of (grade, component) pairs; components of
    one grade add up."""
    out = [ZERO] * total
    for g, part in parts:
        base = offsets[g]
        for i, v in enumerate(part):
            if v:
                out[base + i] += v
    return tuple(out)


def _span_coordinates(basis, pivots, vec) -> tuple[tuple, tuple]:
    """Coordinates of `vec` in an echelonized basis (its entries at the
    pivots), and the vector they span; the two vectors agree exactly when
    `vec` lies in the span."""
    coords = tuple(vec[p] for p in pivots)
    return coords, tuple(add_scaled([ZERO] * len(vec), coords, basis))


def _coordinates(basis, pivots, vec) -> tuple | None:
    """Coordinates of `vec` in an echelonized basis; None if outside the span."""
    coords, spanned = _span_coordinates(basis, pivots, vec)
    return coords if spanned == tuple(vec) else None


def sector_change_of_basis(a) -> tuple[Matrix, Matrix] | str:
    """The sector change of basis in `Fraction`s: each sector basis is
    row-reduced from its own diagonal block of the projector, spread over
    its class by `Matrix.apply` of the action blocks and read in the
    invariant basis (`expand`); each invariant vector's representative
    parts are read in the sector bases (`restrict`).  Returns the mutually
    inverse (expand, restrict), or the text of the first way it fails."""
    group = a.group
    offsets, total = _offsets(a)
    projector = invariant_projector(a)
    inv_basis, inv_pivots = _image_basis(projector)
    classes = conjugacy(group)

    sector_bases = []
    sector_pivots = []
    for rep in classes.representatives:
        start, stop = offsets[rep], offsets[rep] + a.dims[rep]
        block = tuple(row[start:stop] for row in projector.data[start:stop])
        basis, pivots = _image_basis(Matrix._wrap(stop - start, stop - start, block))
        sector_bases.append(basis)
        sector_pivots.append(pivots)

    expand_cols = []
    for ci, rep in enumerate(classes.representatives):
        movers: dict[int, int] = {}
        for k in group.elements():
            movers.setdefault(group.conj(k, rep), k)
        for w in sector_bases[ci]:
            moved = [(h, a.action[(movers[h], rep)].apply(w)) for h in sorted(movers)]
            full = _total_vector(offsets, total, moved)
            coords = _coordinates(inv_basis, inv_pivots, full)
            if coords is None:
                return f"class expansion leaves the invariant span: {vector_literal(full)}"
            expand_cols.append(coords)

    dim_inv = len(inv_basis)
    dim_sec = len(expand_cols)
    expand = Matrix(dim_sec, dim_inv, expand_cols).transpose()

    restrict_cols = []
    for v in inv_basis:
        coords = []
        for ci, rep in enumerate(classes.representatives):
            part = _component(a, offsets, v, rep)
            sector = _coordinates(sector_bases[ci], sector_pivots[ci], part)
            if sector is None:
                return f"restriction leaves the invariant span: {vector_literal(part)}"
            coords.extend(sector)
        restrict_cols.append(tuple(coords))
    restrict = Matrix(dim_inv, dim_sec, restrict_cols).transpose()

    if dim_sec != dim_inv or restrict @ expand != Matrix.identity(dim_sec):
        return "sector change of basis failed to invert"
    return expand, restrict


def orbifold_reference(a):
    """The certification and the invariant algebra of `orbifold_algebra(a)`,
    with closure, commutativity, the unit law and invariance computed in
    `Fraction`s: every product of two invariant basis vectors is one
    `apply_product` per pair of their nonzero grades, and its coordinates
    and span come from `_span_coordinates`; each basis vector is moved by
    `Matrix.apply` of the action blocks of its nonzero grades.  The
    projector, the basis and the trace pairing are the package's own.
    Returns (certification, trivial algebra)."""
    group = a.group
    offsets, total = _offsets(a)
    basis, pivots = _image_basis(invariant_projector(a))
    d = len(basis)
    parts = [_grade_parts(a, offsets, v) for v in basis]
    inside = "a vector inside the invariant span"

    products = {}
    closure = []
    for i in range(d):
        for j in range(d):
            w = _total_vector(offsets, total, _product_parts(a, parts[i], parts[j]))
            coords, spanned = _span_coordinates(basis, pivots, w)
            products[(i, j)] = coords if spanned == w else (ZERO,) * d
            closure.append(((i, j), w, spanned))

    e = group.identity
    unit_parts = [(e, a.unit)]
    unit_total = _total_vector(offsets, total, unit_parts)
    unit_coords, unit_spanned = _span_coordinates(basis, pivots, unit_total)
    if unit_spanned != unit_total:
        unit_coords = (ZERO,) * d

    def unit_law():
        yield None, unit_total, unit_spanned
        for j, vj in enumerate(basis):
            yield j, _total_vector(offsets, total, _product_parts(a, unit_parts, parts[j])), vj

    def render_unit(j, lhs, rhs) -> Witness:
        if j is None:
            return Witness((("vector", "unit"),), vector_literal(lhs), inside)
        return Witness((("j", str(j)),), vector_literal(lhs), vector_literal(rhs))

    commuting = (
        ((i, j), products[(i, j)], products[(j, i)]) for i in range(d) for j in range(i + 1, d)
    )
    entries = [
        first_failure(
            "orbifold-closure", closure, renderer(("i", "j"), str, vector_literal, lambda _: inside)
        ),
        first_failure("orbifold-commutativity", commuting, renderer(("i", "j"), str, vector_literal)),
        _orbifold_associativity(products, d),
        first_failure("orbifold-unit", unit_law(), render_unit),
    ]

    trace_coords = tuple(a.trace_of(_component(a, offsets, v, e)) for v in basis)
    product_tensor = Tensor3._wrap(
        d, d, d, tuple(tuple(products[(i, j)] for j in range(d)) for i in range(d))
    )
    trivial = frobenius_untwisted(d, product_tensor, unit_coords, trace_coords)
    name = "orbifold-trace-nondegenerate"
    if inverted_pairings(trivial)[0][1] is not None:
        entries.append(passing(name))
    else:
        entries.append(failing(name, (("gram", "determinant"),), "0", "nonzero determinant"))

    def invariance():
        for k in group.elements():
            for i, v in enumerate(basis):
                moved = [(group.conj(k, g), a.action[(k, g)].apply(x)) for g, x in parts[i]]
                yield (k, str(i)), _total_vector(offsets, total, moved), v

    fixed = _group_renderer(group, ("k", "i"), vector_literal)
    entries.append(first_failure("orbifold-invariance", invariance(), fixed))
    return CheckReport(tuple(entries)), trivial


def action_on_dual_basis_check(a, d) -> CheckReport:
    """Conjugation equivariance of the diagonal dual-basis sums.

    Applying the action of h to both legs of the grade-g diagonal sum must
    give the diagonal sum of grade h*g*h^-1: the basis-independent form of
    aligning dual bases along conjugation.
    """
    group = a.group

    def cases():
        for g in group.elements():
            gi = group.inv(g)
            for h in group.elements():
                moved = a.action[(h, g)] @ d.euler[g] @ a.action[(h, gi)].transpose()
                yield (g, h), moved, d.euler[group.conj(h, g)]

    render = _group_renderer(group, ("g", "h"), matrix_literal)
    return CheckReport((first_failure("dual-basis-equivariance", cases(), render),))


def cerf_reference(a, case) -> CheckReport:
    """`cerf_check(a, case, all_labels=True)` on matrices: every word of the
    row at every labelling, in lexicographic order, evaluated to its `Matrix`
    by `Evaluator.__call__`, and each alternative compared with the first
    word's `Matrix`.  One entry per alternative, with its first failing
    labelling as witness."""
    group, ev = a.group, Evaluator(a)
    witnesses: dict[int, Witness] = {}
    alternatives = 0
    for labelling in itertools.product(group.elements(), repeat=case_label_count(case)):
        values = [ev(w) for w in cerf_case_words(group, case, labelling)]
        alternatives = len(values) - 1
        for j, value in enumerate(values[1:], start=1):
            if j not in witnesses and value != values[0]:
                where = (("labels", ", ".join(map(group.name, labelling))), ("alternative", str(j)))
                witnesses[j] = Witness(where, matrix_literal(value), matrix_literal(values[0]))
    return CheckReport(
        tuple(
            CheckEntry(f"cerf-{case}-alt{j}", j not in witnesses, witnesses.get(j))
            for j in range(1, alternatives + 1)
        )
    )
