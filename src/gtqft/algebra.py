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
the left) and the two results are cross-asserted entrywise.  `derive` sums
both formulas on the int images of the product and of the dual bases (see
below), and builds `Fraction`s only for the coproduct tensors it stores.

Law checks
----------
Every law walks its cases in one fixed loop order, and its witness is the
first case in that order whose two sides differ (README, "Law checks").
Each case has a context: the tuple of raw element and basis indices that
locates it.  Only the failing case is rendered: every int in its context
is named through the group (basis indices included, so index 0 reads as
the identity's name) and both sides are formatted as exact literals.

The laws over n^2 or n^3 grade tuples run a *row* at a time
(through `law`).  A row fixes the outer indices of the law,
for example (g, h) for associativity, and holds both sides of every case
below them at once.  Each side maps a position, the padded basis indices
of a case followed by the coordinates of its side, to an int column that
runs over the next group element, the row's batch index (k for
associativity).  Every grade is padded to the largest dimension D, and a
row keeps only its nonzero columns, so padded positions (zero on both
sides) never appear and never differ; a row's case count is that of its
real positions.  A side is built by `exactlin.contract`, which sums the
products of two `exactlin.factor`s: the nonzero entries of a table, read
across one grade by `exactlin.batch_columns` and keyed by the index the
law sums over.  Where a law moves a grade, a factor's columns are
reindexed through rows of ``group.table`` or of the conjugation
(`exactlin.moved`).  The work is in proportion to the nonzero products,
and each product of two columns is one list-level operation over the
whole group.  `law` hands the rows to `report.first_failure` as cases
and is the one reader of their counts; the two sides of a row are
compared with one ``!=``.  Only on a mismatch does `report.row_locator`
take the earliest differing case in the loop order (batch index first,
then the basis indices) and cut out its context and exact sides, the
same values a case-at-a-time loop would give, so every witness keeps its
bytes.

One rule splits the work: the rows run on the int images of the tables,
and every other law reads the `Fraction` tables one case at a time through
`report.first_failure`.  Those are the laws over single blocks (unit laws,
the action laws on one block, trace invariance) and the nondegeneracy of
the pairings; ``action-automorphism`` puts the unit check of each k,
context ``(k,)`` and computed on the tables, before the rows (k, g) of that
k.  Each pairing is built and inverted once per algebra
(`inverted_pairings`): the one nondegeneracy decision, which `derive`, the
torus identity and the orbifold's trace check read too.  The torus
identity runs only when every pairing is nondegenerate, a row g at a time
along h, like the seven other row laws.

The rows and `derive` read the tables through their int images
(`exactlin.int_image`), each built once per table and kept on its owner
(`table_image`, `dual_image`): the product over D_P, the action over D_A,
the dual bases of all grades over D_dual and the coproducts over D_C, each
the lcm of its table's denominators, so group and rich algebras have every
D equal to 1.  The rows read an image's columns (`table_columns`), also
built once per table and direction and kept on its owner.  A side that
multiplies k table entries is the exact value times the product of their k
denominators; the side with fewer factors is multiplied by the missing
ones, so that both sides of a case are at one total scale S (associativity
D_P^2 on both sides; twisted commutativity, the action automorphism and
twisted cocommutativity multiply their left side by D_A; Frobenius is
D_P*D_C and the torus identity D_P*D_A*D_dual on both sides; both coproduct
formulas are at D_P*D_dual).
Since x = y exactly when S*x = S*y, the comparison is still exact, and
`report.row_locator` gives a witness's sides as ``Fraction(x, S)``, the
same bytes as a side computed in `Fraction` arithmetic.
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
    UnknownElement,
    check_budget,
)
from .exactlin import (
    ONE,
    ZERO,
    Matrix,
    Tensor3,
    Vector,
    add_scaled,
    as_vector,
    basis_vector,
    format_scalar,
    batch_columns,
    contract,
    factor,
    fraction_rows,
    int_image,
    int_rows,
    matrix_literal,
    column_row,
    moved,
    nonzero_entries,
    regroup,
    scalar_from_string,
    vector_literal,
)
from .groups import FiniteGroup, builtin, builtin_from_string, load_group, save_group
from .report import (
    CheckReport,
    Witness,
    failing,
    first_failure,
    renderer,
    row_locator,
)


class GFrobeniusAlgebra:
    """Shape-validated graded algebra data; laws are checked separately.

    Nothing mutates an algebra after it is built, so ``_built`` keeps each
    table derived from it once built (`_once`): the `derive` structure, the
    `inverted_pairings`, the `table_image` of ``product`` and ``action``
    and their `table_columns`, the `dual_image`, and the evaluator's piece,
    layer and kernel form (``forms``) caches, which fill as words need them.

    Blocks are immutable, so equal blocks may be one object (`load_algebra`,
    `group_algebra`, and one zero block per shape for missing keys), and
    `exactlin.int_image` and the kernel forms work once per distinct object.
    """

    __slots__ = ("group", "dims", "product", "action", "unit", "trace", "_built")

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
        dims = tuple(dims)
        if len(dims) != n:
            raise ShapeError(f"got {len(dims)} dimensions for {n} group elements")
        if any(type(d) is not int or d < 0 for d in dims):
            raise ShapeError("component dimensions must be non-negative integers")

        T, inv = group.table, group.inverse
        zeros: dict[tuple, Tensor3 | Matrix] = {}  # shape -> its one zero block
        full_product: dict[tuple[int, int], Tensor3] = {}
        for g in range(n):
            for h in range(n):
                want = (dims[g], dims[h], dims[T[g][h]])
                tensor = product.get((g, h))
                if tensor is None:
                    tensor = zeros.get(want) or zeros.setdefault(want, Tensor3.zeros(*want))
                elif tensor.dims != want:
                    raise ShapeError(
                        f"product tensor for ({group.name(g)}, {group.name(h)}) has shape "
                        f"{tensor.dims}, expected {want}"
                    )
                full_product[(g, h)] = tensor

        full_action: dict[tuple[int, int], Matrix] = {}
        for k in range(n):
            for g in range(n):
                want_rows, want_cols = dims[T[T[k][g]][inv[k]]], dims[g]
                block = action.get((k, g))
                if block is None:
                    want = (want_rows, want_cols)
                    block = zeros.get(want) or zeros.setdefault(want, Matrix.zeros(*want))
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
        self._built: dict = {}

    def apply_product(self, g: int, h: int, x: Vector, y: Vector) -> Vector:
        """Multiply a grade-g vector by a grade-h vector; lands in grade g*h."""
        weights = [[xi * yj if yj else ZERO for yj in y] if xi else () for xi in x]
        return _plane_sum(self.product[(g, h)], weights)

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


def _plane_sum(t: Tensor3, weights) -> Vector:
    """The sum of ``weights[i][j]`` times row (i, j) of the product tensor
    `t`, one `add_scaled` per plane i; a zero or missing weight adds
    nothing."""
    out = [ZERO] * t.dim2
    for plane, plane_weights in zip(t.data, weights):
        add_scaled(out, plane_weights, plane)
    return tuple(out)


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
    try:
        return group.index(value)
    except UnknownElement:
        raise SchemaError(f"{where}: unknown element name {value!r}") from None


def _int_field(entry, key, where) -> int:
    value = entry.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}: field {key!r} must be an integer index")
    return value


def load_algebra(doc) -> GFrobeniusAlgebra:
    """Build a shape-validated algebra from a parsed JSON document.

    Omitted product/action entries are zero.  The laws are *not* checked
    here; run `check_axioms` on the result.  A document whose blocks would
    hold more cells than the work budget raises BudgetExceeded before any
    block is built.  Blocks of equal shape and entries load as one object.

    The entries are read in one pass.  Each distinct scalar literal is
    parsed once, and equal values ("1/2" and "2/4", 1 and "1") become one
    canonical `Fraction`, which the blocks store as it is.  A plainly valid
    field (an int index, a known name string, a literal seen before) is
    taken inline; any other goes through the helper that names its fault,
    in the same field order, so every error keeps its type, its message and
    its place in the document.
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
    # every block is filled densely, so count the cells of the product
    # blocks (g, h) and the action blocks (h, g) before reading any entry
    T, conj = group.table, group.conj
    cells = sum(
        dims[g] * (dims[h] * dims[T[g][h]] + dims[conj(h, g)]) for g in range(n) for h in range(n)
    )
    check_budget(cells, "table cells")

    literals: dict = {}  # str or int literal -> its canonical value
    canonical: dict[Fraction, Fraction] = {}

    def scalar(raw, where: str) -> Fraction:
        value = _scalar_from_json(raw, where)
        value = canonical.setdefault(value, value)
        if type(raw) is str or type(raw) is int:
            literals[raw] = value
        return value

    names = group._index  # name -> element, read without a call per field
    product_entries: dict[tuple[int, int], dict[tuple[int, int, int], Fraction]] = {}
    raw_product = doc.get("product", [])
    if not isinstance(raw_product, list):
        raise SchemaError('algebra "product" must be a list of entries')
    for pos, entry in enumerate(raw_product):
        if not isinstance(entry, dict):
            raise SchemaError(f"product[{pos}]: entries must be objects")
        get = entry.get
        g, h, i, j, k, value = get("g"), get("h"), get("i"), get("j"), get("k"), get("value")
        g = names.get(g) if type(g) is str else None
        if g is None:
            g = _element_index(group, get("g"), f"product[{pos}]")
        h = names.get(h) if type(h) is str else None
        if h is None:
            h = _element_index(group, get("h"), f"product[{pos}]")
        if type(i) is not int:
            i = _int_field(entry, "i", f"product[{pos}]")
        if type(j) is not int:
            j = _int_field(entry, "j", f"product[{pos}]")
        if type(k) is not int:
            k = _int_field(entry, "k", f"product[{pos}]")
        value = literals.get(value) if type(value) is str or type(value) is int else None
        if value is None:
            value = scalar(get("value"), f"product[{pos}]")
        gh = T[g][h]
        if not 0 <= i < dims[g] or not 0 <= j < dims[h]:
            raise ShapeError(
                f"product[{pos}]: basis index ({i}, {j}) outside components of dimension "
                f"({dims[g]}, {dims[h]})"
            )
        if not 0 <= k < dims[gh]:
            raise ShapeError(
                f"product[{pos}]: target index {k} lands outside the {group.name(gh)} "
                f"component of dimension {dims[gh]}"
            )
        cell = product_entries.setdefault((g, h), {})
        if (i, j, k) in cell:
            raise SchemaError(f"product[{pos}]: duplicate product coordinate")
        cell[(i, j, k)] = value

    action_entries: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {}
    raw_action = doc.get("action", [])
    if not isinstance(raw_action, list):
        raise SchemaError('algebra "action" must be a list of entries')
    for pos, entry in enumerate(raw_action):
        if not isinstance(entry, dict):
            raise SchemaError(f"action[{pos}]: entries must be objects")
        get = entry.get
        k, g, i, j, value = get("k"), get("g"), get("i"), get("j"), get("value")
        k = names.get(k) if type(k) is str else None
        if k is None:
            k = _element_index(group, get("k"), f"action[{pos}]")
        g = names.get(g) if type(g) is str else None
        if g is None:
            g = _element_index(group, get("g"), f"action[{pos}]")
        if type(i) is not int:
            i = _int_field(entry, "i", f"action[{pos}]")
        if type(j) is not int:
            j = _int_field(entry, "j", f"action[{pos}]")
        value = literals.get(value) if type(value) is str or type(value) is int else None
        if value is None:
            value = scalar(get("value"), f"action[{pos}]")
        target = conj(k, g)
        if not 0 <= i < dims[target]:
            raise ShapeError(
                f"action[{pos}]: row index {i} lands outside the {group.name(target)} "
                f"component of dimension {dims[target]}"
            )
        if not 0 <= j < dims[g]:
            raise ShapeError(
                f"action[{pos}]: column index {j} outside a component of dimension {dims[g]}"
            )
        cell = action_entries.setdefault((k, g), {})
        if (i, j) in cell:
            raise SchemaError(f"action[{pos}]: duplicate action coordinate")
        cell[(i, j)] = value

    de = dims[group.identity]
    raw_unit = doc.get("unit", [])
    raw_trace = doc.get("trace", [])
    if not isinstance(raw_unit, list) or len(raw_unit) != de:
        raise SchemaError(f'algebra "unit" must be a list of {de} scalars')
    if not isinstance(raw_trace, list) or len(raw_trace) != de:
        raise SchemaError(f'algebra "trace" must be a list of {de} scalars')
    unit = tuple(scalar(v, f"unit[{i}]") for i, v in enumerate(raw_unit))
    trace = tuple(scalar(v, f"trace[{i}]") for i, v in enumerate(raw_trace))

    # one block per distinct shape and cell, keyed before any block is
    # built; equal values are one object, so no Fraction is hashed here
    blocks: dict[tuple, Tensor3 | Matrix] = {}

    def interned(build, shape: tuple, cell: dict):
        key = (shape, frozenset(zip(cell, map(id, cell.values()))))
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = build(*shape, cell)
        return block

    product = {
        (g, h): interned(Tensor3.from_entries, (dims[g], dims[h], dims[T[g][h]]), cell)
        for (g, h), cell in product_entries.items()
    }
    action = {
        (k, g): interned(Matrix.from_entries, (dims[conj(k, g)], dims[g]), cell)
        for (k, g), cell in action_entries.items()
    }

    return GFrobeniusAlgebra(group, dims, product, action, unit, trace)


def save_algebra(a: GFrobeniusAlgebra) -> dict:
    """Serialize an algebra to the JSON document format (inline group)."""
    group = a.group
    n = group.order
    # blocks in table order (g-major, as __init__ fills them), entries row-major
    product = [
        {"g": group.name(g), "h": group.name(h), "i": i, "j": j, "k": k, "value": format_scalar(v)}
        for (g, h), t in a.product.items()
        for i, j, k, v in nonzero_entries(t)
    ]
    action = [
        {"k": group.name(k), "g": group.name(g), "i": i, "j": j, "value": format_scalar(v)}
        for (k, g), m in a.action.items()
        for i, j, v in nonzero_entries(m)
    ]
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
    """Pairings, coproducts and Euler matrices of an algebra.

    * ``pairings[g]``: the Gram matrix of trace(x*y) for x in grade g and
      y in grade g^-1; its matrix is also the component-wise isomorphism
      onto the linear dual of grade g^-1 induced by the trace.
    * ``coproducts[(g, h)]``: tensor of shape
      (dims[g*h], dims[g], dims[h]); entry (c, i, j) is the coefficient of
      basis_i x basis_j in the coproduct of basis_c.
    * ``euler[g]``: the diagonal sum basis_i x dual_i of grade g paired
      with grade g^-1, a dims[g] x dims[g^-1] matrix: the transpose of the
      inverse of ``pairings[g]``, whose columns are the dual basis of g.

    `derive` hands one structure to every caller on an algebra, so the three
    mappings are read-only views.  ``_built`` keeps the int image of
    ``coproducts`` (`table_image`) and its `table_columns` on this
    structure, not on the algebra, so a structure built by hand is checked
    on its own coproducts.
    """

    __slots__ = ("pairings", "coproducts", "euler", "_built")

    def __init__(self, pairings, coproducts, euler):
        self.pairings = MappingProxyType(pairings)
        self.coproducts = MappingProxyType(coproducts)
        self.euler = MappingProxyType(euler)
        self._built: dict = {}


def _once(owner, key, build):
    """The table `key` derived from `owner`: ``build()`` on first use, kept
    in ``owner._built`` and read from there afterwards.  A build that
    raises stores nothing, so it raises again on every call."""
    if key not in owner._built:
        owner._built[key] = build()
    return owner._built[key]


def table_image(owner, name: str) -> tuple[dict, int]:
    """The int image of the table attribute `name` of `owner`, built once."""
    return _once(owner, name, lambda: int_image(getattr(owner, name)))


def table_columns(owner, name: str, n: int, first: bool = False) -> list[list]:
    """``exactlin.batch_columns(image, n, first)`` of the int image
    ``table_image(owner, name)``, built once per direction and kept on
    `owner` beside the image."""
    return _once(
        owner, (name, first), lambda: batch_columns(table_image(owner, name)[0], n, first)
    )


def pairing_matrix(a: GFrobeniusAlgebra, g: int) -> Matrix:
    """Gram matrix of the trace pairing between grades g and g^-1: entry
    (i, j) is the trace of row (i, j) of ``product[(g, g^-1)]``, which is
    the product basis_i * basis_j.  Summed over the nonzero entries of the
    product's int image against the trace's int row, then divided once."""
    gi = a.group.inv(g)
    image, d_p = table_image(a, "product")
    (trace,), d_t = int_rows((a.trace,))
    grid = [[0] * a.dims[gi] for _ in range(a.dims[g])]
    for i, j, p, v in image[(g, gi)]:
        grid[i][j] += v * trace[p]
    return Matrix._wrap(a.dims[g], a.dims[gi], fraction_rows(grid, d_p * d_t))


def inverted_pairings(a: GFrobeniusAlgebra) -> dict[int, tuple[Matrix, Matrix | None]]:
    """Per grade g, the `pairing_matrix` and its inverse, built once per
    algebra.  The inverse is None when the pairing is not square or is
    singular: the one nondegeneracy decision."""

    def build():
        out = {}
        for g in range(a.group.order):
            theta = pairing_matrix(a, g)
            try:
                out[g] = theta, theta.inverse() if theta.rows == theta.cols else None
            except SingularMatrix:
                out[g] = theta, None
        return out

    return _once(a, "pairings", build)


def derive(a: GFrobeniusAlgebra) -> DerivedStructure:
    """Pairings, coproducts and Euler matrices from the trace pairing.

    Requires every pairing to be nondegenerate (`inverted_pairings`);
    raises DegeneratePairing otherwise.  The coproduct for each grade pair
    is computed by both one-sided formulas, exactly on int images, and
    cross-asserted entrywise, so downstream code may rely on either
    reading.  The structure is computed once per algebra (`_once`); a
    failed derive is not stored, so it raises again on every call.
    """
    return _once(a, "derive", lambda: _derive(a))


def dual_image(a: GFrobeniusAlgebra) -> tuple[dict, int]:
    """The int image of the dual bases of every grade, over one common
    denominator, built once per algebra.  Requires every pairing to be
    nondegenerate (`inverted_pairings`)."""
    return _once(
        a, "duals", lambda: int_image({g: d for g, (_, d) in inverted_pairings(a).items()})
    )


def _derive(a: GFrobeniusAlgebra) -> DerivedStructure:
    group = a.group
    n, T, inv = group.order, group.table, group.inverse
    inverted = inverted_pairings(a)
    for g, (theta, dual) in inverted.items():
        if dual is None:
            reason = "pairing matrix is singular"
            if theta.rows != theta.cols:
                reason = f"component dimensions differ: {theta.rows} vs {theta.cols}"
            raise DegeneratePairing(group.name(g), reason)
    pairings = {g: theta for g, (theta, _) in inverted.items()}
    euler = {g: dual.transpose() for g, (_, dual) in inverted.items()}

    # both formulas over d_p * d_dual; the dual basis of a grade keyed by
    # its row, the index each formula sums over
    P_image, d_p = table_image(a, "product")
    D_image, d_dual = dual_image(a)
    scale = d_p * d_dual
    duals = [factor(D_image[g], 0, (1,)) for g in range(n)]
    values: dict[int, Fraction] = {}  # one Fraction per distinct numerator
    tensors: dict[tuple, Tensor3] = {}  # one Tensor3 per distinct shape and entries

    def value(x: int) -> Fraction:
        if x not in values:
            values[x] = Fraction(x, scale)
        return values[x]

    def nonzero(sums: dict) -> tuple:
        return tuple(sorted(item for item in sums.items() if item[1]))

    coproducts: dict[tuple[int, int], Tensor3] = {}
    for g in range(n):
        for h in range(n):
            gh = T[g][h]
            # basis_c times the dual basis of h on the right lands in grade
            # g, the dual basis of g times basis_c on the left in grade h
            right: dict[tuple[int, int, int], int] = {}
            for c, r, i, v in P_image[(gh, inv[h])]:
                for j, w in duals[h].get(r, ()):
                    right[(c, i, j)] = right.get((c, i, j), 0) + v * w
            left: dict[tuple[int, int, int], int] = {}
            for s, c, j, v in P_image[(inv[g], gh)]:
                for i, w in duals[g].get(s, ()):
                    left[(c, i, j)] = left.get((c, i, j), 0) + w * v
            entries = nonzero(right)
            if entries != nonzero(left):
                c, i, j = key = min(
                    k for k in right.keys() | left.keys() if right.get(k, 0) != left.get(k, 0)
                )
                raise CoproductMismatch(
                    "coproduct formulas disagree for grades "
                    f"({group.name(g)}, {group.name(h)}) at entry ({c}, {i}, {j}): "
                    f"{value(right.get(key, 0))} vs {value(left.get(key, 0))}; "
                    "the input violates the algebra laws"
                )
            shape = (a.dims[gh], a.dims[g], a.dims[h])
            tensor = tensors.get((shape, entries))
            if tensor is None:
                dgh, dg, dh = shape
                grid = [[[ZERO] * dh for _ in range(dg)] for _ in range(dgh)]
                for (c, i, j), x in entries:
                    grid[c][i][j] = value(x)
                data = tuple(tuple(map(tuple, plane)) for plane in grid)
                tensor = tensors[(shape, entries)] = Tensor3._wrap(dgh, dg, dh, data)
            coproducts[(g, h)] = tensor

    return DerivedStructure(pairings, coproducts, euler)


def handle_element(a: GFrobeniusAlgebra, euler: Matrix, x: int, y: int) -> tuple[int, Vector]:
    """The handle contribution for the pair (x, y): act with y on each basis
    vector of grade x and multiply by its dual partner, the rows of
    `euler`, the Euler matrix of grade x (``derive(a).euler[x]``).  That is
    the sum of pairs[i][j] * basis_i * basis_j over grades
    (y x y^-1, x^-1), where pairs is ``action[(y, x)] @ euler``.  Returns
    the grade (the commutator y x y^-1 x^-1) and the element."""
    group = a.group
    moved_grade, xi = group.conj(y, x), group.inv(x)
    pairs = a.action[(y, x)] @ euler
    return group.mul(moved_grade, xi), _plane_sum(a.product[(moved_grade, xi)], pairs.data)


# ---------------------------------------------------------------------------
# Law checking (see "Law checks" above)


def _group_renderer(group: FiniteGroup, keys: Sequence[str], left=str, right=None):
    """Witness renderer naming int context values through the group and
    anything else with str."""
    return renderer(keys, lambda v: group.name(v) if isinstance(v, int) else str(v), left, right)


def law(group, name, cases, keys, left=vector_literal, right=None, locate=None):
    """The entry of law `name` from its cases, naming context ints through
    `group`.  With `locate`, `cases` are rows ``(context, count, lhs, rhs)``
    of `count` real cases each, compared whole, and the first differing
    row is rendered through ``locate(context, lhs, rhs)``."""
    render = _group_renderer(group, keys, left, right)
    if locate is None:
        return first_failure(name, cases, render)
    rows = ((context, lhs, rhs) for context, _count, lhs, rhs in cases)
    return first_failure(name, rows, lambda *row: render(*locate(*row)))


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
    T, conj, inv = group.table, group.conj, group.inv
    D = max(dims, default=0)
    D2, D3, de, total = D * D, D**3, dims[e], sum(dims)
    P_image, d_p = table_image(a, "product")
    A_image, d_a = table_image(a, "action")
    # over_right[x]: the entries of P[(x, y)] as columns over y; over_left[y]:
    # of P[(x, y)] over x; acts[k]: of A[(k, g)] over g
    over_right = table_columns(a, "product", n)
    over_left = table_columns(a, "product", n, first=True)
    acts = table_columns(a, "action", n)
    conj_by = [[conj(k, g) for g in range(n)] for k in range(n)]
    # A[(k, g)][b, j] along g keyed by b, with j at stride D: the action on
    # the last leg of the automorphism and the twisted commutativity
    acts_by_b = [factor(cols, 0, (D,)) for cols in acts]
    # P[(x, y)][i, j, p] along y keyed by p, with i, j at strides D^2, D:
    # the inner product of the associativity and of the automorphism
    right_by_p = [factor(cols, 2, (D2, D)) for cols in over_right]
    # P[(x, y)][i, j, p] along x keyed by i, with j, p at strides D^2, 1:
    # the twisted commutativity and the handle elements of the torus
    left_by_i = [factor(cols, 0, (D2, 1)) for cols in over_left]

    def associativity():  # over d_p^2; row (g, h) along k, positions (i, j, l, p)
        firsts = {key: factor(entries, 2, (D3, D2)) for key, entries in P_image.items()}
        lefts = [factor(cols, 0, (D, 1)) for cols in over_right]
        rights = [factor(cols, 1, (D3, 1)) for cols in over_right]
        for g in range(n):
            for h in range(n):
                # (b_i b_j) b_l sums over m in grade gh, b_i (b_j b_l) over m in grade hk
                lhs = contract(firsts[(g, h)], lefts[T[g][h]])
                rhs = contract(right_by_p[h], moved(rights[g], T[h]))
                yield (g, h), dims[g] * dims[h] * total, lhs, rhs

    def unit_laws():
        for g in range(n):
            for j in range(dims[g]):
                b_j = basis_vector(dims[g], j)
                yield (g, j, "left"), a.apply_product(e, g, a.unit, b_j), b_j
                yield (g, j, "right"), a.apply_product(g, e, b_j, a.unit), b_j

    def action_of_identity():
        for g in range(n):
            yield (g,), a.action[(e, g)], Matrix.identity(dims[g])

    def action_homomorphism():  # over d_a^2; row (k, l) along g, positions (i, j)
        outers = [factor(cols, 1, (D,)) for cols in acts]
        inners = [factor(cols, 0, (1,)) for cols in acts]
        targets = [column_row(cols, D, d_a) for cols in acts]
        for k in range(n):
            for l in range(n):
                # the block of k on grade lgl^-1 after the block of l on grade g
                lhs = contract(moved(outers[k], conj_by[l]), inners[l])
                yield (k, l), n, lhs, targets[T[k][l]]

    def action_automorphism():
        # multiplicative (over d_p * d_a^2; row (k, g) along h, positions
        # (i, j, p)), and fixes the unit (on the tables, checked first for
        # each k)
        acted = [factor(cols, 1, (1,)) for cols in acts]
        firsts = [factor(cols, 0, (D3, 1)) for cols in over_right]
        blocks = {key: factor(entries, 0, (D2,)) for key, entries in A_image.items()}
        for k in range(n):
            yield (k,), 1, a.action[(k, e)].apply(a.unit), a.unit
            for g in range(n):
                # k acting on b_i b_j, summed over q in grade gh
                lhs = contract(moved(acted[k], T[g]), right_by_p[g], d_a)
                # (k b_i)(k b_j): k b_i has coordinates x in grade kgk^-1 and
                # k b_j coordinates b in grade khk^-1
                half = contract(blocks[(k, g)], moved(firsts[conj_by[k][g]], conj_by[k]))
                rhs = contract(regroup(half, D3), acts_by_b[k])
                yield (k, g), dims[g] * total, lhs, rhs

    def trivial_on_own_grade():
        for g in range(n):
            yield (g,), a.action[(g, g)], Matrix.identity(dims[g])

    def trace_invariance():
        for h in range(n):
            for t in range(de):
                b_t = basis_vector(de, t)
                yield (h, t), a.trace_of(a.action[(h, e)].apply(b_t)), a.trace[t]

    def nondegenerate():
        # a square matrix has det != 0 exactly when it is invertible
        for g in range(n):
            yield (g, "dim"), dims[g], dims[inv(g)]
            yield (g, "det"), inverted_pairings(a)[g][1] is not None, True

    def render_degenerate(context, lhs, rhs) -> Witness:
        g, kind = context
        where = (("g", group.name(g)),)
        if kind == "dim":
            return Witness(where, f"dim {lhs}", f"dim {rhs} of the inverse grade")
        return Witness(where, "det 0", "nonzero determinant")

    def twisted_commutativity():  # over d_p * d_a; row g along h, positions (i, j, p)
        for g in range(n):
            # (g b_j) b_i sums over b in grade ghg^-1
            rhs = contract(moved(left_by_i[g], conj_by[g]), acts_by_b[g])
            yield (g,), dims[g] * total, column_row(over_right[g], D, d_a), rhs

    def torus_identity(D_image):  # over d_p * d_a * d_dual; row g along h, positions p
        def pairs(entries):
            """Entries (x, y, value) as a factor keyed by the pair x*D + y."""
            return {x * D + y: [(0, v)] for x, y, v in entries}

        acted_on = table_columns(a, "action", n, first=True)  # A[(h, g)] along h
        conjugates = list(zip(*conj_by))  # conjugates[g][h] = h g h^-1
        # P[(h, g h^-1 g^-1)] along h, for each g
        diagonal = batch_columns(
            {(g, h): P_image[(h, conj(g, inv(h)))] for g in range(n) for h in range(n)}, n
        )
        duals = factor(batch_columns({(0, h): D_image[h] for h in range(n)}, n)[0], 1, (D,))
        for g in range(n):
            # the handle element of (g, h): sum over a, i, b of
            # A[(h, g)][a, i] D_g[b, i] P[(hgh^-1, g^-1)][a, b, p]
            handles = moved(left_by_i[inv(g)], conjugates[g])
            by_bi = contract(factor(acted_on[g], 0, (D,)), handles)
            lhs = contract(pairs(D_image[g]), regroup(by_bi, D))
            # basis_i of grade h times g acting on dual_i of grade h: sum over
            # i, a, r of D_h[r, i] A[(g, h^-1)][a, r] P[(h, g h^-1 g^-1)][i, a, p]
            by_ar = contract(duals, factor(diagonal[g], 0, (D2, 1)))
            rhs = contract(moved(pairs(acts[g]), group.inverse), regroup(by_ar, D))
            yield (g,), n, lhs, rhs

    def vector_of(target):
        """Side shape of vector cases landing in grade target(context, k)."""
        return lambda context, k: (dims[target(context, k)],)

    automorphism_products = row_locator(
        D, 3, vector_of(lambda c, h: conj_by[c[0]][T[c[1]][h]]), d_p * d_a * d_a
    )

    def automorphism_cases(context, lhs, rhs):
        if len(context) == 1:  # the unit check of k, exact already
            return context, lhs, rhs
        return automorphism_products(context, lhs, rhs)

    entries = [
        law(
            group,
            "product-associativity",
            associativity(),
            ("g", "h", "k", "i", "j", "l"),
            locate=row_locator(D, 4, vector_of(lambda c, k: T[T[c[0]][c[1]]][k]), d_p * d_p),
        ),
        law(group, "unit-laws", unit_laws(), ("g", "j", "side")),
        law(
            group,
            "action-of-identity",
            action_of_identity(),
            ("g",),
            lambda _: "action block of the identity element",
            lambda _: "identity matrix",
        ),
        law(
            group,
            "action-homomorphism",
            action_homomorphism(),
            ("k", "l", "g"),
            matrix_literal,
            locate=row_locator(
                D, 2, lambda c, g: (dims[conj_by[T[c[0]][c[1]]][g]], dims[g]), d_a * d_a
            ),
        ),
        law(
            group,
            "action-automorphism",
            action_automorphism(),
            ("k", "g", "h", "i", "j"),
            locate=automorphism_cases,
        ),
        law(
            group,
            "action-trivial-on-own-grade",
            trivial_on_own_grade(),
            ("g",),
            matrix_literal,
            lambda _: "identity matrix",
        ),
        law(group, "trace-invariance", trace_invariance(), ("h", "t"), format_scalar),
        first_failure("pairing-nondegenerate", nondegenerate(), render_degenerate),
        law(
            group,
            "twisted-commutativity",
            twisted_commutativity(),
            ("g", "h", "i", "j"),
            locate=row_locator(D, 3, vector_of(lambda c, h: T[c[0]][h]), d_p * d_a),
        ),
    ]
    if entries[-2].passed:
        D_image, d_dual = dual_image(a)
        entries.append(
            law(
                group,
                "torus-identity",
                torus_identity(D_image),
                ("g", "h"),
                locate=row_locator(
                    D,
                    1,
                    vector_of(lambda c, h: T[conj_by[h][c[0]]][inv(c[0])]),
                    d_p * d_a * d_dual,
                ),
            )
        )
    else:
        blocked = (("blocked", "degenerate pairing; identity not evaluated"),)
        entries.append(failing("torus-identity", blocked, "", ""))
    return CheckReport(tuple(entries))


def check_frobenius_diagram(a: GFrobeniusAlgebra, d: DerivedStructure) -> CheckReport:
    """Product and coproduct exchange: (m x 1)(1 x D) = D m on all grade triples.

    Both sides are evaluated on the int images of the product and of the
    coproducts of `d`, over d_p * d_c, a row (g, h) at a time along k."""
    group = a.group
    n = group.order
    dims, T = a.dims, group.table
    D = max(dims, default=0)
    D2, D3 = D * D, D**3
    P_image, d_p = table_image(a, "product")
    _, d_c = table_image(d, "coproducts")
    products, splits = table_columns(a, "product", n), table_columns(d, "coproducts", n)
    # positions (i, c, p, b); the left side sums over x in grade h, the
    # right side over q in grade ghk
    firsts = {key: factor(entries, 1, (D3, D)) for key, entries in P_image.items()}
    split_by_x = [factor(cols, 1, (D2, 1)) for cols in splits]
    products_by_q = [factor(cols, 2, (D3, D2)) for cols in products]
    split_by_q = [factor(cols, 0, (D, 1)) for cols in splits]
    # the real (c, b) pairs of a row (g, h) over all k
    split_sizes = [sum(dims[T[h][k]] * dims[k] for k in range(n)) for h in range(n)]

    def rows():
        for g in range(n):
            for h in range(n):
                gh = T[g][h]
                lhs = contract(firsts[(g, h)], split_by_x[h])
                rhs = contract(moved(products_by_q[g], T[h]), split_by_q[gh])
                yield (g, h), dims[g] * dims[gh] * split_sizes[h], lhs, rhs

    keys = ("g", "h", "k", "i", "c", "p", "b")
    locate = row_locator(D, 4, lambda context, k: (), d_p * d_c)
    entry = law(group, "frobenius-relation", rows(), keys, format_scalar, locate=locate)
    return CheckReport((entry,))


def check_cocommutativity(a: GFrobeniusAlgebra, d: DerivedStructure) -> CheckReport:
    """Twisted cocommutativity: conjugate-then-swap rewrites the coproduct.

    Both sides are evaluated on the int images of the action and of the
    coproducts of `d`, over d_a * d_c, a row g at a time along h."""
    group = a.group
    n = group.order
    dims, T, conj = a.dims, group.table, group.conj
    D = max(dims, default=0)
    _, d_a = table_image(a, "action")
    _, d_c = table_image(d, "coproducts")
    acts, splits = table_columns(a, "action", n), table_columns(d, "coproducts", n)
    merged = table_columns(d, "coproducts", n, first=True)
    # positions (c, i, j); the right side sums over b in grade h
    acts_by_b = [factor(cols, 1, (D,)) for cols in acts]
    splits_by_b = [factor(cols, 2, (D * D, 1)) for cols in splits]

    def rows():
        for g in range(n):
            order = [conj(g, h) for h in range(n)]
            # same source grade: (ghg^-1) * g = g * h
            rhs = contract(acts_by_b[g], splits_by_b[g])
            count = dims[g] * sum(dims[T[g][h]] * dims[order[h]] for h in range(n))
            yield (g,), count, column_row(merged[g], D, d_a, order), rhs

    keys = ("g", "h", "c", "i", "j")
    locate = row_locator(D, 3, lambda context, h: (), d_a * d_c)
    entry = law(group, "twisted-cocommutativity", rows(), keys, format_scalar, locate=locate)
    return CheckReport((entry,))
