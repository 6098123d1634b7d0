"""Graded Frobenius algebras over a finite group: data, laws, derived maps.

Storage conventions
-------------------
For a group G with elements indexed 0..n-1, an algebra holds:

* ``dims[g]``: dimension of the graded component attached to element g;
* ``product[(g, h)]``: a rank-3 tensor of shape
  ``(dims[g], dims[h], dims[g*h])``; entry (i, j, p) is the coefficient of
  basis vector p of the g*h component in the product of basis vector i
  (grade g) with basis vector j (grade h);
* ``action[(k, g)]``: the matrix of the conjugation automorphism attached
  to k, restricted to grade g and landing in grade k*g*k^-1, of shape
  ``(dims[k g k^-1], dims[g])``; column j is the image of basis vector j;
* ``unit``: coordinates of the unit inside the identity component;
* ``trace``: the trace functional on the identity component.

The grading is structural: a product coefficient outside the g*h component
is not representable, and out-of-range indices in input documents are
rejected as shape errors.

Dual bases pair on the left: the dual basis of grade g lives in grade g^-1
and satisfies trace(basis_i * dual_j) = delta_ij.  The derived coproduct
into grades (g, h) is computed by both equivalent one-sided formulas
(multiply by the dual basis of h on the right, or by the dual basis of g on
the left) and the two results are cross-asserted entrywise.

Law checks
----------
Each law is a small generator that yields its cases as
``(context, lhs, rhs)`` in a fixed loop order; ``context`` is the tuple of
raw element and basis indices of the case.  `report.first_failure` stops
at the first case whose sides differ and only then renders the witness:
every int in the context is named through the group (basis indices
included, so index 0 reads as the identity's name) and both sides are
formatted as exact literals.  A law over several kinds of case yields
contexts that a single renderer tells apart, such as the unit check of
each k in ``action-automorphism`` (context ``(k,)``) before that k's
product cases (``(k, g, h, i, j)``).

The laws read the tables through their int images (`exactlin.int_image`):
the product over D_P, the action over D_A, the unit over D_U, the trace
over D_T and the coproducts over D_C, each the lcm of its table's
denominators, so group and rich algebras have every D equal to 1.  A side
that multiplies k table entries is the exact value times the product of
their k denominators; the side with fewer factors is multiplied by the
missing ones, so that both sides of a case are at one total scale S
(associativity D_P^2 on both sides; twisted commutativity, the action
automorphism and twisted cocommutativity multiply their left side by D_A;
Frobenius is D_P*D_C on both sides).  Since x = y exactly when S*x = S*y,
the comparison is still exact, and `report.descaled` renders a witness as
``Fraction(x, S)``, the same bytes as a side computed in `Fraction`
arithmetic.  Nondegeneracy and the torus identity read the pairings and
their inverses, which are computed per grade rather than per case, and
stay in `Fraction` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    CoproductMismatch,
    DegeneratePairing,
    SchemaError,
    ShapeError,
    SingularMatrix,
)
from .exactlin import (
    ONE,
    ZERO,
    Matrix,
    Tensor3,
    Vector,
    as_vector,
    basis_vector,
    format_scalar,
    int_image,
    matrix_literal,
    scalar_from_string,
    vector_add,
    vector_literal,
    zero_vector,
)
from .groups import FiniteGroup, builtin, builtin_from_string, load_group, save_group
from .report import CheckReport, Witness, descaled, failing, first_failure, renderer


class GFrobeniusAlgebra:
    """Shape-validated graded algebra data; laws are checked separately.

    Nothing mutates an algebra after it is built, so `derive` stores its
    result on the instance and every later call reuses it.
    """

    __slots__ = ("group", "dims", "product", "action", "unit", "trace", "_derived")

    def __init__(
        self,
        group: FiniteGroup,
        dims: Sequence[int],
        product: Mapping[tuple[int, int], Tensor3],
        action: Mapping[tuple[int, int], Matrix],
        unit: Sequence,
        trace: Sequence,
    ):
        n = group.order
        dims = tuple(int(d) for d in dims)
        if len(dims) != n:
            raise ShapeError(f"got {len(dims)} dimensions for {n} group elements")
        if any(d < 0 for d in dims):
            raise ShapeError("component dimensions must be non-negative")

        full_product: dict[tuple[int, int], Tensor3] = {}
        for g in range(n):
            for h in range(n):
                want = (dims[g], dims[h], dims[group.mul(g, h)])
                tensor = product.get((g, h))
                if tensor is None:
                    tensor = Tensor3.zeros(*want)
                elif tensor.dims != want:
                    raise ShapeError(
                        f"product tensor for ({group.name(g)}, {group.name(h)}) has shape "
                        f"{tensor.dims}, expected {want}"
                    )
                full_product[(g, h)] = tensor

        full_action: dict[tuple[int, int], Matrix] = {}
        for k in range(n):
            for g in range(n):
                target = group.conj(k, g)
                want_rows, want_cols = dims[target], dims[g]
                block = action.get((k, g))
                if block is None:
                    block = Matrix.zeros(want_rows, want_cols)
                elif block.rows != want_rows or block.cols != want_cols:
                    raise ShapeError(
                        f"action block for ({group.name(k)}, {group.name(g)}) has shape "
                        f"{block.rows}x{block.cols}, expected {want_rows}x{want_cols}"
                    )
                full_action[(k, g)] = block

        unit = as_vector(unit)
        trace = as_vector(trace)
        de = dims[group.identity]
        if len(unit) != de:
            raise ShapeError(f"unit vector has length {len(unit)}, expected {de}")
        if len(trace) != de:
            raise ShapeError(f"trace covector has length {len(trace)}, expected {de}")

        self.group = group
        self.dims = dims
        self.product = full_product
        self.action = full_action
        self.unit = unit
        self.trace = trace
        self._derived = None

    def dim(self, g: int) -> int:
        return self.dims[g]

    def apply_product(self, g: int, h: int, x: Vector, y: Vector) -> Vector:
        """Multiply a grade-g vector by a grade-h vector; lands in grade g*h."""
        t = self.product[(g, h)]
        out = [ZERO] * t.dim2
        for i, xi in enumerate(x):
            if not xi:
                continue
            plane = t.data[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                row = plane[j]
                for p, v in enumerate(row):
                    if v:
                        out[p] += c * v
        return tuple(out)

    def apply_action(self, k: int, g: int, x: Vector) -> Vector:
        """Apply the conjugation automorphism of k to a grade-g vector."""
        m = self.action[(k, g)]
        return m.apply(x)

    def trace_of(self, x: Vector) -> Fraction:
        """Evaluate the trace functional on an identity-component vector."""
        return sum((t * v for t, v in zip(self.trace, x) if v), ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GFrobeniusAlgebra):
            return NotImplemented
        return (
            self.group == other.group
            and self.dims == other.dims
            and self.product == other.product
            and self.action == other.action
            and self.unit == other.unit
            and self.trace == other.trace
        )

    def __repr__(self) -> str:
        return f"GFrobeniusAlgebra(order={self.group.order}, dims={self.dims})"


def group_algebra(group: FiniteGroup) -> GFrobeniusAlgebra:
    """The group algebra with its canonical graded Frobenius structure.

    Every component is one-dimensional, delta_g * delta_h = delta_gh, the
    conjugation action permutes the deltas and the trace sends delta_e to 1.
    """
    n = group.order
    dims = (1,) * n
    one_cell = Tensor3(1, 1, 1, (((ONE,),),))
    one_block = Matrix.identity(1)
    product = {(g, h): one_cell for g in range(n) for h in range(n)}
    action = {(k, g): one_block for k in range(n) for g in range(n)}
    return GFrobeniusAlgebra(group, dims, product, action, (ONE,), (ONE,))


def frobenius_untwisted(dim: int, product, unit, trace) -> GFrobeniusAlgebra:
    """Wrap an ordinary algebra-with-trace as the trivial-group case.

    `product` is a rank-3 structure-constant tensor (or nested lists) of
    shape (dim, dim, dim).  Whether the data actually satisfies the algebra
    laws is established by `check_axioms`, not here.
    """
    group = builtin("cyclic", 1)
    tensor = product if isinstance(product, Tensor3) else Tensor3(dim, dim, dim, product)
    return GFrobeniusAlgebra(
        group,
        (dim,),
        {(0, 0): tensor},
        {(0, 0): Matrix.identity(dim)},
        unit,
        trace,
    )


def dual_numbers_algebra() -> GFrobeniusAlgebra:
    """The two-dimensional algebra k[x]/(x^2) with basis (1, x) and trace x -> 1."""
    product = Tensor3.from_entries(2, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    return frobenius_untwisted(2, product, unit=(1, 0), trace=(0, 1))


# ---------------------------------------------------------------------------
# File format


def _scalar_from_json(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: boolean is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return scalar_from_string(value)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    raise SchemaError(f"{where}: scalar values must be strings like \"p/q\" or integers")


def _element_index(group: FiniteGroup, value, where: str) -> int:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: element references must be name strings")
    if value not in group.names:
        raise SchemaError(f"{where}: unknown element name {value!r}")
    return group.index(value)


def _int_field(entry, key, where) -> int:
    value = entry.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}: field {key!r} must be an integer index")
    return value


def load_algebra(doc) -> GFrobeniusAlgebra:
    """Build a shape-validated algebra from a parsed JSON document.

    Omitted product/action entries are zero.  The laws are *not* checked
    here; run `check_axioms` on the result.
    """
    if not isinstance(doc, dict):
        raise SchemaError("algebra document must be an object")

    group_field = doc.get("group")
    if isinstance(group_field, str):
        group = builtin_from_string(group_field)
    elif isinstance(group_field, dict):
        group = load_group(group_field)
    else:
        raise SchemaError('algebra "group" must be a builtin string or an inline group')

    n = group.order
    dims_field = doc.get("dims")
    if not isinstance(dims_field, dict):
        raise SchemaError('algebra "dims" must be an object mapping element names to sizes')
    dims = [0] * n
    for name, value in dims_field.items():
        g = _element_index(group, name, "dims")
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise SchemaError(f"dims[{name!r}] must be a non-negative integer")
        dims[g] = value

    product_entries: dict[tuple[int, int], dict[tuple[int, int, int], Fraction]] = {}
    raw_product = doc.get("product", [])
    if not isinstance(raw_product, list):
        raise SchemaError('algebra "product" must be a list of entries')
    for pos, entry in enumerate(raw_product):
        where = f"product[{pos}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: entries must be objects")
        g = _element_index(group, entry.get("g"), where)
        h = _element_index(group, entry.get("h"), where)
        i = _int_field(entry, "i", where)
        j = _int_field(entry, "j", where)
        k = _int_field(entry, "k", where)
        value = _scalar_from_json(entry.get("value"), where)
        gh = group.mul(g, h)
        if not 0 <= i < dims[g] or not 0 <= j < dims[h]:
            raise ShapeError(
                f"{where}: basis index ({i}, {j}) outside components of dimension "
                f"({dims[g]}, {dims[h]})"
            )
        if not 0 <= k < dims[gh]:
            raise ShapeError(
                f"{where}: target index {k} lands outside the {group.name(gh)} component "
                f"of dimension {dims[gh]}"
            )
        cell = product_entries.setdefault((g, h), {})
        if (i, j, k) in cell:
            raise SchemaError(f"{where}: duplicate product coordinate")
        cell[(i, j, k)] = value

    action_entries: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {}
    raw_action = doc.get("action", [])
    if not isinstance(raw_action, list):
        raise SchemaError('algebra "action" must be a list of entries')
    for pos, entry in enumerate(raw_action):
        where = f"action[{pos}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: entries must be objects")
        k = _element_index(group, entry.get("k"), where)
        g = _element_index(group, entry.get("g"), where)
        i = _int_field(entry, "i", where)
        j = _int_field(entry, "j", where)
        value = _scalar_from_json(entry.get("value"), where)
        target = group.conj(k, g)
        if not 0 <= i < dims[target]:
            raise ShapeError(
                f"{where}: row index {i} lands outside the {group.name(target)} component "
                f"of dimension {dims[target]}"
            )
        if not 0 <= j < dims[g]:
            raise ShapeError(
                f"{where}: column index {j} outside a component of dimension {dims[g]}"
            )
        cell = action_entries.setdefault((k, g), {})
        if (i, j) in cell:
            raise SchemaError(f"{where}: duplicate action coordinate")
        cell[(i, j)] = value

    de = dims[group.identity]
    raw_unit = doc.get("unit", [])
    raw_trace = doc.get("trace", [])
    if not isinstance(raw_unit, list) or len(raw_unit) != de:
        raise SchemaError(f'algebra "unit" must be a list of {de} scalars')
    if not isinstance(raw_trace, list) or len(raw_trace) != de:
        raise SchemaError(f'algebra "trace" must be a list of {de} scalars')
    unit = tuple(_scalar_from_json(v, f"unit[{i}]") for i, v in enumerate(raw_unit))
    trace = tuple(_scalar_from_json(v, f"trace[{i}]") for i, v in enumerate(raw_trace))

    product = {
        (g, h): Tensor3.from_entries(dims[g], dims[h], dims[group.mul(g, h)], cell)
        for (g, h), cell in product_entries.items()
    }
    action = {}
    for (k, g), cell in action_entries.items():
        target = group.conj(k, g)
        grid = [[ZERO] * dims[g] for _ in range(dims[target])]
        for (i, j), value in cell.items():
            grid[i][j] = value
        action[(k, g)] = Matrix(dims[target], dims[g], grid)

    return GFrobeniusAlgebra(group, dims, product, action, unit, trace)


def save_algebra(a: GFrobeniusAlgebra) -> dict:
    """Serialize an algebra to the JSON document format (inline group)."""
    group = a.group
    n = group.order
    product = []
    for g in range(n):
        for h in range(n):
            t = a.product[(g, h)]
            for i in range(t.dim0):
                for j in range(t.dim1):
                    for k in range(t.dim2):
                        value = t.data[i][j][k]
                        if value:
                            product.append(
                                {
                                    "g": group.name(g),
                                    "h": group.name(h),
                                    "i": i,
                                    "j": j,
                                    "k": k,
                                    "value": format_scalar(value),
                                }
                            )
    action = []
    for k in range(n):
        for g in range(n):
            m = a.action[(k, g)]
            for i in range(m.rows):
                for j in range(m.cols):
                    value = m.data[i][j]
                    if value:
                        action.append(
                            {
                                "k": group.name(k),
                                "g": group.name(g),
                                "i": i,
                                "j": j,
                                "value": format_scalar(value),
                            }
                        )
    return {
        "group": save_group(group),
        "dims": {group.name(g): a.dims[g] for g in range(n)},
        "product": product,
        "action": action,
        "unit": [format_scalar(v) for v in a.unit],
        "trace": [format_scalar(v) for v in a.trace],
    }


# ---------------------------------------------------------------------------
# Derived structure


class DerivedStructure:
    """Pairings, dual bases, coproducts and handle elements of an algebra.

    * ``pairings[g]``: the Gram matrix of trace(x*y) for x in grade g and
      y in grade g^-1; its matrix is also the component-wise isomorphism
      onto the linear dual of grade g^-1 induced by the trace.
    * ``dual_bases[g]``: columns express the dual basis of grade g in the
      stored basis of grade g^-1 (the inverse of ``pairings[g]``).
    * ``coproducts[(g, h)]``: tensor of shape
      (dims[g*h], dims[g], dims[h]); entry (c, i, j) is the coefficient of
      basis_i x basis_j in the coproduct of basis_c.
    * ``euler[g]``: the diagonal sum basis_i x dual_i of grade g paired
      with grade g^-1, stored as a dims[g] x dims[g^-1] matrix.

    `derive` hands one structure to every caller on an algebra, so the four
    mappings are read-only views.
    """

    __slots__ = ("pairings", "dual_bases", "coproducts", "euler")

    def __init__(self, pairings, dual_bases, coproducts, euler):
        self.pairings = MappingProxyType(pairings)
        self.dual_bases = MappingProxyType(dual_bases)
        self.coproducts = MappingProxyType(coproducts)
        self.euler = MappingProxyType(euler)


def pairing_matrix(a: GFrobeniusAlgebra, g: int) -> Matrix:
    """Gram matrix of the trace pairing between grades g and g^-1."""
    gi = a.group.inv(g)
    rows = []
    for i in range(a.dims[g]):
        bi = basis_vector(a.dims[g], i)
        row = []
        for j in range(a.dims[gi]):
            bj = basis_vector(a.dims[gi], j)
            row.append(a.trace_of(a.apply_product(g, gi, bi, bj)))
        rows.append(tuple(row))
    return Matrix._wrap(a.dims[g], a.dims[gi], tuple(rows))


def derive(a: GFrobeniusAlgebra) -> DerivedStructure:
    """Dual bases, coproducts and handle elements from the trace pairing.

    Requires every pairing to be nondegenerate; raises DegeneratePairing
    otherwise.  The coproduct for each grade pair is computed by both
    one-sided formulas and cross-asserted, so downstream code may rely on
    either reading.  The structure is computed once per algebra and then
    returned from the algebra itself; a failed derive is not stored, so it
    raises again on every call.
    """
    if a._derived is not None:
        return a._derived
    group = a.group
    n = group.order
    pairings: dict[int, Matrix] = {}
    dual_bases: dict[int, Matrix] = {}
    euler: dict[int, Matrix] = {}
    for g in range(n):
        gi = group.inv(g)
        theta = pairing_matrix(a, g)
        if theta.rows != theta.cols:
            raise DegeneratePairing(
                group.name(g),
                f"component dimensions differ: {theta.rows} vs {theta.cols}",
            )
        try:
            dual = theta.inverse()
        except SingularMatrix:
            raise DegeneratePairing(group.name(g), "pairing matrix is singular") from None
        pairings[g] = theta
        dual_bases[g] = dual
        euler[g] = dual.transpose()

    coproducts: dict[tuple[int, int], Tensor3] = {}
    for g in range(n):
        for h in range(n):
            gh = group.mul(g, h)
            dgh, dg, dh = a.dims[gh], a.dims[g], a.dims[h]
            right = a.product[(gh, group.inv(h))]  # lands in grade g
            dual_h = dual_bases[h]
            left = a.product[(group.inv(g), gh)]  # lands in grade h
            dual_g = dual_bases[g]
            grid = []
            for c in range(dgh):
                plane = []
                for i in range(dg):
                    row = []
                    for j in range(dh):
                        # multiply basis_c by the dual basis of h on the right
                        v1 = sum(
                            (
                                right.data[c][b][i] * dual_h.data[b][j]
                                for b in range(dual_h.rows)
                            ),
                            ZERO,
                        )
                        # multiply basis_c by the dual basis of g on the left
                        v2 = sum(
                            (
                                dual_g.data[b][i] * left.data[b][c][j]
                                for b in range(dual_g.rows)
                            ),
                            ZERO,
                        )
                        if v1 != v2:
                            raise CoproductMismatch(
                                "coproduct formulas disagree for grades "
                                f"({group.name(g)}, {group.name(h)}) at entry "
                                f"({c}, {i}, {j}): {v1} vs {v2}; the input violates "
                                "the algebra laws"
                            )
                        row.append(v1)
                    plane.append(tuple(row))
                grid.append(tuple(plane))
            coproducts[(g, h)] = Tensor3._wrap(dgh, dg, dh, tuple(grid))

    a._derived = DerivedStructure(pairings, dual_bases, coproducts, euler)
    return a._derived


def handle_element(a: GFrobeniusAlgebra, dual: Matrix, x: int, y: int) -> tuple[int, Vector]:
    """The handle contribution for the pair (x, y): act with y on each basis
    vector of grade x and multiply by its dual partner, the columns of
    `dual`, the dual-basis matrix of grade x.  Returns the grade (the
    commutator y x y^-1 x^-1) and the element."""
    group = a.group
    moved_grade, xi = group.conj(y, x), group.inv(x)
    grade = group.mul(moved_grade, xi)
    act = a.action[(y, x)]
    out = zero_vector(a.dims[grade])
    for i in range(a.dims[x]):
        product = a.apply_product(moved_grade, xi, act.column_vector(i), dual.column_vector(i))
        out = vector_add(out, product)
    return grade, out


# ---------------------------------------------------------------------------
# Law checking (see "Law checks" above)


def _group_renderer(group: FiniteGroup, keys: Sequence[str], left=str, right=None):
    """Witness renderer naming int context values through the group and
    anything else with str."""
    return renderer(keys, lambda v: group.name(v) if isinstance(v, int) else str(v), left, right)


def _int_vector(v: Vector) -> tuple[list[int], int]:
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


def check_axioms(a: GFrobeniusAlgebra) -> CheckReport:
    """Exhaustively verify the defining laws on all basis and group elements.

    Failures are report entries (with the first counterexample), never
    exceptions.  The torus identity needs dual bases, so it is reported as
    blocked when some pairing is degenerate.
    """
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
    pairings: dict[int, Matrix] = {}

    def grid(k, g, factor=1):
        """The dense action block of (k, g), times `factor`."""
        out = [[0] * dims[g] for _ in range(dims[conj(k, g)])]
        for i, j, v in A[(k, g)]:
            out[i][j] = v * factor
        return out

    def identity(d, factor):
        return [[factor if i == j else 0 for j in range(d)] for i in range(d)]

    def scaled(v, c):
        return v if c == 1 else [c * x for x in v]

    def associativity():  # over d_p^2
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

    def unit_laws():  # over d_u * d_p
        for g in range(n):
            for j, bj in enumerate(bases[g]):
                sj = scaled(bj, d_u * d_p)
                yield (g, j, "left"), _int_times(P[(e, g)], unit, bj, dims[g]), sj
                yield (g, j, "right"), _int_times(P[(g, e)], bj, unit, dims[g]), sj

    def action_of_identity():  # over d_a
        for g in range(n):
            yield (g,), grid(e, g), identity(dims[g], d_a)

    def action_homomorphism():  # over d_a^2
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
        # multiplicative (over d_p * d_a^2), and fixes the unit (over
        # d_a * d_u, checked first for each k)
        for k in range(n):
            yield (k,), _int_apply(A[(k, e)], unit, dims[e]), scaled(unit, d_a)
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
                            yield (k, g, h, i, j), scaled(lhs, d_a), rhs

    def trivial_on_own_grade():  # over d_a
        for g in range(n):
            yield (g,), grid(g, g), identity(dims[g], d_a)

    def trace_invariance():  # over d_t * d_a
        for h in range(n):
            for t, bt in enumerate(bases[e]):
                moved = _int_apply(A[(h, e)], bt, dims[e])
                yield (h, t), sum(x * y for x, y in zip(trace, moved)), d_a * trace[t]

    def nondegenerate():
        # each grade's pairing is built once, here, and reused by the torus
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

    def twisted_commutativity():  # over d_p * d_a
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
                    moved = a.apply_action(g, hi, duals[h].column_vector(i))
                    bi = basis_vector(dims[h], i)
                    rhs = vector_add(rhs, a.apply_product(h, ghi, bi, moved))
                yield (g, h), lhs, rhs

    def law(name, cases, keys, left=vector_literal, right=None, scale=None):
        render = _group_renderer(group, keys, left, right)
        return first_failure(name, cases, render if scale is None else descaled(render, scale))

    def automorphism_scale(context):
        return d_a * d_u if len(context) == 1 else d_p * d_a * d_a

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
        law(
            "action-homomorphism",
            action_homomorphism(),
            ("k", "l", "g"),
            matrix_literal,
            scale=d_a * d_a,
        ),
        law(
            "action-automorphism",
            action_automorphism(),
            ("k", "g", "h", "i", "j"),
            scale=automorphism_scale,
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
        law(
            "twisted-commutativity",
            twisted_commutativity(),
            ("g", "h", "i", "j"),
            scale=d_p * d_a,
        ),
    ]
    if entries[-2].passed:
        entries.append(law("torus-identity", torus_identity(), ("g", "h")))
    else:
        blocked = (("blocked", "degenerate pairing; identity not evaluated"),)
        entries.append(failing("torus-identity", blocked, "", ""))
    return CheckReport(tuple(entries))


def check_frobenius_diagram(a: GFrobeniusAlgebra, d: DerivedStructure) -> CheckReport:
    """Product and coproduct exchange: (m x 1)(1 x D) = D m on all grade triples.

    Both sides are evaluated on the int images of the product and of the
    coproducts of `d`, over d_p * d_c."""
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
                    # (m x 1)(1 x D) and D m of the whole grade triple, keyed by case
                    lhs: dict[tuple, int] = {}
                    for i, x, p, v in P[(g, h)]:
                        for c, x2, b, w in C[(h, k)]:
                            if x == x2:
                                key = (g, h, k, i, c, p, b)
                                lhs[key] = lhs.get(key, 0) + v * w
                    rhs: dict[tuple, int] = {}
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
    entry = first_failure("frobenius-relation", cases(), descaled(render, d_p * d_c))
    return CheckReport((entry,))


def check_cocommutativity(a: GFrobeniusAlgebra, d: DerivedStructure) -> CheckReport:
    """Twisted cocommutativity: conjugate-then-swap rewrites the coproduct.

    Both sides are evaluated on the int images of the action and of the
    coproducts of `d`, over d_a * d_c."""
    group = a.group
    n = group.order
    dims = a.dims
    A, d_a = int_image(a.action)
    C, d_c = int_image(d.coproducts)

    def cases():
        for g in range(n):
            for h in range(n):
                tw = group.conj(g, h)
                # same source grade: tw * g = g * h
                lhs = {(g, h, c, i, j): d_a * w for c, i, j, w in C[(tw, g)]}
                rhs: dict[tuple, int] = {}
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
    entry = first_failure("twisted-cocommutativity", cases(), descaled(render, d_a * d_c))
    return CheckReport((entry,))


def action_on_dual_basis_check(a: GFrobeniusAlgebra, d: DerivedStructure) -> CheckReport:
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
