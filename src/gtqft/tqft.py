"""Evaluation of surface words into exact linear maps, and the machine
checks that the value of a surface does not depend on how it is cut.

Index flattening: a boundary signature (c1, .., cr) maps to the tensor
product of the attached graded components, flattened with the leftmost
circle as the most significant index (the same convention as the Kronecker
product in exactlin).  Any single consistent choice would do, but matrix
equality across decompositions requires fixing one.

Evaluation is leg-wise and in exact ints: the running map is kept as one
sparse row of int entries per index of the current signature, over one
int scale that the whole map is divided by, and each piece of a layer is
applied only to the legs it touches, so a layer of width w over components
of dimension d costs about d^(w+1) rather than the d^(2w) of its
whole-layer matrix.  A piece's entries are ints over one denominator, the
lcm of their denominators (`exactlin.int_rows`, the one conversion from
`Fraction` rows); a layer's scale is the product of its pieces'
denominators, and a word's scale the product of its layers' scales, so on
group and rich algebras every scale is 1 and no scaling work is done.
A piece whose matrix is c * I for some c != 0 (every piece of an algebra
with one-dimensional grades, such as a twisted group algebra) is not
applied: c * I on some legs is c times the whole map, so the numerators of
a word's such pieces multiply into one int factor, which multiplies the
rows once, and their denominators go into the scale; the identity, c = 1,
costs nothing.  A word's value is one `RunningMap`, which owns both
equality and division.  No row of a running map holds an exact zero, so
two running maps of one signature and scale are equal exactly when their
rows are; over different scales they are compared entry by entry,
cross-multiplied.  `RunningMap.matrix` is the one place that divides: it
builds the Fraction `Matrix` of the word's value, with the word's `dom`
and `cod` as its signatures, filling a zero grid from the sparse rows
itself (densified rows through `exactlin.fraction_rows` measured slower
on `fuzz`).  `cerf` applies the words of a labelling to one identity map
on their common domain, one per domain dimension shared by all
labellings, compares them as running maps and builds a `Matrix` only to
print a witness.  The functoriality
probe multiplies running maps in row form too, and returns the word's value as
a `RunningMap` with its witness, both from one forward pass, so the fuzz
loop evaluates each word once and compares its rewrite as running maps.
The probe skips a split whose suffix and prefix rows are the same objects
as those of the split after it, which a layer of identities leaves so:
its product was just multiplied and agreed.  The value it returns keeps
every prefix, and a rewrite is evaluated from its splice, the first layer
it does not share with the word, starting at the prefix there.
`Evaluator.layer_matrix` (the Kronecker product of a layer's pieces) is
kept as the independent whole-layer reference path that the tests compare
against; the fuzz tensor check likewise compares with `Matrix.kron`.

Closed surfaces: a genus-h labelling (a1, b1, .., ah, bh) is flat when the
left-to-right product of the commutators b*a*b^-1*a^-1 is the identity;
any other labelling raises FlatnessViolation.  The handle attached to
(a, b) contributes `algebra.handle_element`: act with b on each basis
vector of grade a and multiply by its dual.  The invariant is the trace of
the product of all handle contributions, cross-checked against the explicit
word for genus at most two.  No global normalisation (no 1/|G| weight) is
applied; weighting belongs to callers.

Every function here takes the algebra, not its derived structure:
`derive` computes its pairings, dual bases and coproducts once per
algebra, and every later evaluator, check and closed invariant on it
reuses them.  Three functions of `algebra` take more: the diagram checks
`check_frobenius_diagram(a, d)` and `check_cocommutativity(a, d)` take the
derived structure, and `handle_element(a, euler, x, y)`, which
`closed_invariant` calls, takes an Euler matrix read from it.  The piece
matrices are stored on the algebra as well, in one cache that every
`Evaluator` on it shares and that fills piece by piece as words need them.
Kernel forms are kept per distinct block object (of a `cyl`, `merge` or
`split`) or per dimensions (of an `id` or `swap`), and pieces share them.
Each layer is compiled once per algebra and direction, next to the pieces:
its plan holds its scale, the factor of its c * I pieces, and the
strides and kernel terms of its other pieces, so a layer that recurs costs
no piece lookups.  A layer of identity pieces (every layer of a group
algebra) gets the one shared plan that applies nothing, and a layer of
c * I pieces its own plan, each stored for both directions at its first
compile, so it is never compiled transposed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import GFrobeniusAlgebra, _once, derive, handle_element
from .cobordism import (
    Cobordism,
    Piece,
    PieceKind,
    cap,
    case_label_count,
    cerf_case_words,
    cup,
    cyl,
    id_piece,
    merge,
    split,
)
from .errors import EngineError, FlatnessViolation, SignatureMismatch, check_budget
from .exactlin import ZERO, Matrix, Tensor3, int_rows, matrix_literal
from .groups import FiniteGroup
from .report import CheckEntry, CheckReport, Witness, first_failure


# A running map is a list of rows, one per index of the current signature,
# over one positive int scale: a row is a dict from column to the nonzero
# int numerators of its entries, the map being the rows divided by the
# scale.  Rows are shared between maps and never mutated.
_ZERO_ROW: dict = {}


def _identity_rows(n: int) -> list[dict]:
    return [{i: 1} for i in range(n)]


class RunningMap:
    """A word's value in row form: `rows` over `scale`, one row per index of
    the word's codomain over the `cols` columns of its domain.  Two are
    equal exactly when their matrices are: rows hold no zeros, so at one
    scale they compare as dicts, and over two scales entry by entry,
    cross-multiplied.  `matrix()` is the one place the evaluator divides."""

    __slots__ = ("rows", "cols", "scale")

    def __init__(self, rows: list[dict], cols: int, scale: int):
        self.rows, self.cols, self.scale = rows, cols, scale

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunningMap):
            return NotImplemented
        if self.cols != other.cols:
            return False
        if self.scale == other.scale:
            return self.rows == other.rows
        scale, other_scale = self.scale, other.scale
        return len(self.rows) == len(other.rows) and all(
            r.keys() == o.keys() and all(x * other_scale == o[j] * scale for j, x in r.items())
            for r, o in zip(self.rows, other.rows)
        )

    def matrix(self) -> Matrix:
        """The value as a Fraction `Matrix`, each entry divided by the scale."""
        grid = []
        for row in self.rows:
            dense = [ZERO] * self.cols
            for j, x in row.items():
                dense[j] = Fraction(x, self.scale)
            grid.append(tuple(dense))
        return Matrix._wrap(len(self.rows), self.cols, tuple(grid))


class ProbedMap(RunningMap):
    """A word's value as the functoriality probe leaves it: a `RunningMap`
    that also keeps the word and, for k = 0, 1, .., n, the rows and scale
    of its first k layers, so that `Evaluator.running_map` can evaluate a
    word that shares its first layers from the first layer that differs."""

    __slots__ = ("word", "prefixes")

    def __init__(self, word: Cobordism, prefixes: list[tuple[list[dict], int]], cols: int):
        rows, scale = prefixes[-1]
        super().__init__(rows, cols, scale)
        self.word, self.prefixes = word, prefixes


def _apply_piece(rows: list[dict], terms, left: int, src: int, right: int) -> list[dict]:
    """Apply a piece to the middle index of rows grouped as (left, src,
    right).  `terms[o]` lists the (input index, int coefficient) pairs of
    the piece's nonzero entries in output row o, all over the piece's
    denominator, which the caller multiplies into the running map's scale."""
    if src * right == 0:
        return [_ZERO_ROW] * (left * len(terms) * right)
    out: list[dict] = []
    extend = out.extend
    for base in range(0, left * src * right, src * right):
        for row_terms in terms:
            if not row_terms:
                extend([_ZERO_ROW] * right)
            elif len(row_terms) == 1:
                m, c = row_terms[0]
                block = rows[base + m * right : base + (m + 1) * right]
                extend(block if c == 1 else [{j: c * x for j, x in r.items()} for r in block])
            else:
                for r in range(base, base + right):
                    acc: dict = {}
                    for m, c in row_terms:
                        for j, x in rows[r + m * right].items():
                            acc[j] = acc.get(j, 0) + c * x
                    # the one place a sum can cancel: running rows hold no zeros
                    out.append({j: x for j, x in acc.items() if x} if 0 in acc.values() else acc)
    return out


def merge_matrix(t: Tensor3) -> Matrix:
    """A product tensor (i, j, p) as the matrix of its merging map: row p,
    column i * dim1 + j, the two input legs flattened left-major."""
    grid = tuple(
        tuple(t.data[i][j][p] for i in range(t.dim0) for j in range(t.dim1)) for p in range(t.dim2)
    )
    return Matrix._wrap(t.dim2, t.dim0 * t.dim1, grid)


def split_matrix(t: Tensor3) -> Matrix:
    """A coproduct tensor (c, i, j) as the matrix of its splitting map: row
    i * dim2 + j, the two output legs flattened left-major, column c."""
    grid = tuple(
        tuple(t.data[c][i][j] for c in range(t.dim0)) for i in range(t.dim1) for j in range(t.dim2)
    )
    return Matrix._wrap(t.dim1 * t.dim2, t.dim0, grid)


class _PieceMatrix(Matrix):
    """A piece's matrix together with its kernel form.

    `terms[o]` lists the (input index, coefficient) pairs of the nonzero
    entries in row o, and `transposed[i]` does the same for column i; the
    coefficients are ints over `denominator`, the lcm of the entries'
    denominators.  A square matrix c * I with c != 0 (the identity and a
    0 x 0 block among them) has no terms: its `factor`, the int numerator
    of c over `denominator`, is folded into the running map instead of
    applied, since c * I on some legs is c times the whole map.  Any other
    matrix has factor None.
    """

    __slots__ = ("terms", "transposed", "denominator", "factor")

    def __init__(self, m: Matrix):
        self.rows, self.cols, self.data = m.rows, m.cols, m.data
        grid, self.denominator = int_rows(m.data)
        n = m.rows
        c = grid[0][0] if n == m.cols > 0 else 1  # a 0 x 0 block is the identity
        if n == m.cols and c and grid == [[c if i == j else 0 for j in range(n)] for i in range(n)]:
            self.factor, self.terms, self.transposed = c, None, None
            return
        self.factor = None
        self.terms = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in grid)
        self.transposed = tuple(
            tuple((i, grid[i][j]) for i in range(m.rows) if grid[i][j]) for j in range(m.cols)
        )


# The plan of a layer whose pieces are all identities, shared by every such
# layer (every layer of a group algebra): scale 1, factor 1 and no steps.
_IDENTITY_PLAN = (1, 1)


class Evaluator:
    """Evaluates words over one algebra, reading the per-piece matrices and
    the compiled layers from the caches that every evaluator on that
    algebra shares."""

    def __init__(self, algebra: GFrobeniusAlgebra):
        self.algebra = algebra
        self.derived = derive(algebra)
        self._pieces: dict[Piece, _PieceMatrix] = _once(algebra, "pieces", dict)
        # form key -> the kernel form its pieces share
        self._forms: dict[tuple, _PieceMatrix] = _once(algebra, "forms", dict)
        # layer -> its plan, one map per direction: (forward, transposed)
        self._layers: tuple[dict, dict] = _once(algebra, "layers", lambda: ({}, {}))

    def signature_dimension(self, signature) -> int:
        dim = 1
        for g in signature:
            dim *= self.algebra.dims[g]
        return dim

    def piece_matrix(self, piece: Piece) -> _PieceMatrix:
        cached = self._pieces.get(piece)
        if cached is not None:
            return cached
        a = self.algebra
        kind, labels = piece.kind, piece.labels
        # form key: the block read, by id (the algebra keeps it alive), or
        # else the label dimensions
        if kind is PieceKind.CYL:
            g, k = labels
            block = a.action[(k, g)]
        elif kind is PieceKind.MERGE:
            block = a.product[labels]
        elif kind is PieceKind.SPLIT:
            block = self.derived.coproducts[labels]
        else:
            block = None
        key = (kind, *(a.dims[g] for g in labels)) if block is None else (kind, id(block))
        out = self._forms.get(key)
        if out is None:
            if kind is PieceKind.ID:
                out = Matrix.identity(a.dims[labels[0]])
            elif kind is PieceKind.CYL:
                out = block
            elif kind is PieceKind.MERGE:
                out = merge_matrix(block)
            elif kind is PieceKind.SPLIT:
                out = split_matrix(block)
            elif kind is PieceKind.CAP:
                out = Matrix._wrap(len(a.unit), 1, tuple((v,) for v in a.unit))
            elif kind is PieceKind.CUP:
                out = Matrix._wrap(1, len(a.trace), (a.trace,))
            else:  # SWAP
                g, h = labels
                dg, dh = a.dims[g], a.dims[h]
                flips = {(j * dg + i, i * dh + j): 1 for i in range(dg) for j in range(dh)}
                out = Matrix.from_entries(dh * dg, dg * dh, flips)
            out = self._forms[key] = _PieceMatrix(out)
        self._pieces[piece] = out
        return out

    def _compile_layer(self, layer, transposed: bool) -> tuple:
        """A layer's plan, stored for the next use: the product of its
        pieces' denominators, the product of the factors of its c * I
        pieces, then `(terms, left, src, right)` for each other piece, in
        the order they are applied.  A layer of identity pieces stores the
        shared identity plan, and a layer of c * I pieces (its own
        transpose) its one plan, for both directions at once, so neither is
        ever compiled transposed."""
        mats = [self.piece_matrix(piece) for piece in layer]
        # a plain loop: `all` over a generator costs a frame per new layer
        for m in mats:
            if m.factor != 1 or m.denominator != 1:
                break
        else:  # identities, each over denominator 1
            self._layers[0][layer] = self._layers[1][layer] = _IDENTITY_PLAN
            return _IDENTITY_PLAN
        # (source dimension, target dimension, terms) of each piece
        ops = (
            [(m.rows, m.cols, m.transposed) for m in mats]
            if transposed
            else [(m.cols, m.rows, m.terms) for m in mats]
        )
        right = [1] * len(ops)
        for i in range(len(ops) - 1, 0, -1):
            right[i - 1] = right[i] * ops[i][0]
        scale = factor = left = 1
        steps = []
        for m, (src, dst, terms), r in zip(mats, ops, right):
            scale *= m.denominator
            if terms is None:
                factor *= m.factor
            else:
                steps.append((terms, left, src, r))
            left *= dst
        plan = self._layers[transposed][layer] = (scale, factor, *steps)
        if not steps:
            self._layers[not transposed][layer] = plan
        return plan

    def _apply_layers(
        self, rows: list[dict], layers, transposed: bool = False
    ) -> tuple[list[dict], int]:
        """Apply layers, in the order given, to a running map, each piece to
        its own legs only; returns the new rows and the product of the
        layers' scales, by which the map's scale grows.  The factors of
        the layers' c * I pieces multiply the rows once, at the end.

        Transposed, the rows index a layer's codomain and the transposed
        pieces carry them back to its domain, so that the running map is a
        transposed suffix of a word.
        """
        plans = self._layers[transposed]
        scale = factor = 1
        for layer in layers:
            plan = plans.get(layer) or self._compile_layer(layer, transposed)
            if plan is not _IDENTITY_PLAN:
                scale *= plan[0]
                factor *= plan[1]
                for terms, left, src, right in plan[2:]:
                    rows = _apply_piece(rows, terms, left, src, right)
        if factor != 1:  # never 0, so the rows still hold no zeros
            rows = [{j: factor * x for j, x in row.items()} for row in rows]
        return rows, scale

    def _start(self, word: Cobordism) -> list[dict]:
        """The identity rows on the word's domain, from which its layers apply."""
        if word.group != self.algebra.group:
            raise SignatureMismatch("word and algebra use different groups")
        return _identity_rows(self.signature_dimension(word.dom))

    def running_map(self, word: Cobordism, probed: ProbedMap | None = None) -> RunningMap:
        """The word's value in row form: ``ev(word)`` before the division.

        Given the probe's value of a word with the same group and domain on
        this algebra, the word is evaluated from the splice, the first layer
        it does not share with that word (layers compare by identity): from
        the probed prefix there, only the layers after it are applied.
        Layers apply one at a time and deterministically, so the value is
        the same as from the first layer.
        """
        splice = 0
        if probed is None or (probed.word.group, probed.word.dom) != (word.group, word.dom):
            rows, scale = self._start(word), 1
        else:
            for mine, theirs in zip(word.layers, probed.word.layers):
                if mine is not theirs:
                    break
                splice += 1
            rows, scale = probed.prefixes[splice]
        rows, s = self._apply_layers(rows, word.layers[splice:])
        return RunningMap(rows, self.signature_dimension(word.dom), scale * s)

    def __call__(self, word: Cobordism) -> Matrix:
        return self.running_map(word).matrix()

    def layer_matrix(self, layer) -> Matrix:
        """Whole-layer matrix, the Kronecker product of the layer's pieces:
        the reference the leg-wise kernel is tested against."""
        out = None
        for piece in layer:
            m = self.piece_matrix(piece)
            out = m if out is None else out.kron(m)
        return Matrix.identity(1) if out is None else out


def evaluate(a: GFrobeniusAlgebra, word: Cobordism) -> Matrix:
    """Value of a surface word: each piece applied to its own legs, layer
    after layer along the word."""
    return Evaluator(a)(word)


# ---------------------------------------------------------------------------
# Well-definedness checks

def cerf_check(
    a: GFrobeniusAlgebra,
    case: str,
    labels=None,
    all_labels: bool = False,
) -> CheckReport:
    """Evaluate every alternative decomposition of a move case and demand
    exact equality, for one labelling or exhaustively over all in
    lexicographic order; each word is evaluated once, and alternatives are
    compared as running maps, which hold no zeros.

    One report entry per alternative word (compared against the first),
    carrying the first failing labelling as witness.  Exhaustively, more
    labellings than the work budget raise BudgetExceeded before any word is
    built.
    """
    group = a.group
    if all_labels:
        count = case_label_count(case)
        check_budget(group.order**count, "labellings")
        labellings = itertools.product(group.elements(), repeat=count)
    else:
        labellings = [tuple(labels or ())]
    ev = Evaluator(a)
    witnesses: dict[int, Witness] = {}
    alternatives = 0
    starts: dict[int, list[dict]] = {}  # domain dimension -> its identity rows
    for labelling in labellings:
        words = cerf_case_words(group, case, labelling)
        # the table is proved at import to give a row's words one domain, so
        # one identity map is the start of every word; rows are never
        # mutated, so labellings whose domains have one dimension share it
        dim = ev.signature_dimension(words[0].dom)
        start = starts.get(dim)
        if start is None:
            start = starts[dim] = ev._start(words[0])
        values = []
        for w in words:
            rows, scale = ev._apply_layers(start, w.layers)
            values.append(RunningMap(rows, len(start), scale))
        alternatives = len(values) - 1
        first = values[0]
        for j, value in enumerate(values[1:], start=1):
            if j not in witnesses and value != first:
                where = (("labels", ", ".join(map(group.name, labelling))), ("alternative", str(j)))
                sides = (matrix_literal(side.matrix()) for side in (value, first))
                witnesses[j] = Witness(where, *sides)
    entries = tuple(
        CheckEntry(f"cerf-{case}-alt{j}", j not in witnesses, witnesses.get(j))
        for j in range(1, alternatives + 1)
    )
    return CheckReport(entries)


# ---------------------------------------------------------------------------
# Closed surfaces


def _flatness_defect(group: FiniteGroup, holonomies) -> tuple[list[tuple[int, int]], int]:
    if len(holonomies) % 2 != 0:
        raise FlatnessViolation("holonomies must come in pairs (a_i, b_i)")
    pairs = list(zip(holonomies[0::2], holonomies[1::2]))
    product = group.identity
    for x, y in pairs:
        commutator = group.mul(
            group.mul(y, x), group.mul(group.inv(y), group.inv(x))
        )
        product = group.mul(product, commutator)
    return pairs, product


def _flat_pairs(group: FiniteGroup, holonomies) -> list[tuple[int, int]]:
    """The (a_i, b_i) pairs of a flat labelling; FlatnessViolation if the
    labelling is not flat."""
    pairs, defect = _flatness_defect(group, holonomies)
    if defect != group.identity:
        raise FlatnessViolation(f"commutator product is {group.name(defect)}, not the identity")
    return pairs


def closed_surface_word(group: FiniteGroup, holonomies) -> Cobordism:
    """An explicit cap/split/cyl/merge/cup word for the closed genus-h
    surface with the given flat holonomies."""
    pairs = _flat_pairs(group, holonomies)
    layers: list[tuple] = [(cap(),)]
    current = group.identity
    for x, y in pairs:
        moved = group.conj(y, x)
        xi = group.inv(x)
        layers.append((id_piece(current), cap()))
        layers.append((id_piece(current), split(x, xi)))
        layers.append((id_piece(current), cyl(x, y), id_piece(xi)))
        layers.append((merge(current, moved), id_piece(xi)))
        step = group.mul(current, moved)
        layers.append((merge(step, xi),))
        current = group.mul(step, xi)
    layers.append((cup(),))
    # flat: the legs close back to the identity before the cup
    return Cobordism._typed(group, tuple(layers), (), ())


def closed_invariant(a: GFrobeniusAlgebra, holonomies) -> Fraction:
    """The value of the closed labelled surface of genus len(holonomies)/2.

    Computed as the trace of the product of handle contributions; for genus
    at most two the result is cross-checked against direct evaluation of an
    explicit word built from the elementary pieces.
    """
    group = a.group
    pairs = _flat_pairs(group, holonomies)
    euler = derive(a).euler
    vec = a.unit
    grade = group.identity
    for x, y in pairs:
        handle_grade, handle = handle_element(a, euler[x], x, y)
        vec = a.apply_product(grade, handle_grade, vec, handle)
        grade = group.mul(grade, handle_grade)
    value = a.trace_of(vec)
    if len(pairs) <= 2:
        word = closed_surface_word(group, holonomies)
        by_word = evaluate(a, word).data[0][0]
        if by_word != value:
            raise EngineError(
                f"handle formula gives {value} but the explicit word gives {by_word}"
            )
    return value


def hom_count_oracle(group: FiniteGroup, genus: int) -> int:
    """Count flat labellings of the closed genus-h surface by brute force,
    i.e. 2h-tuples whose commutator product is the identity; more tuples
    than the work budget raise BudgetExceeded."""
    if genus < 0:
        raise ValueError("genus must be non-negative")
    check_budget(group.order ** (2 * genus), "tuples")
    count = 0
    for tup in itertools.product(group.elements(), repeat=2 * genus):
        _, defect = _flatness_defect(group, tup)
        if defect == group.identity:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Functoriality probes


def _times(suffix_rows: list[dict], prefix_rows: list[dict], count: int) -> list[dict]:
    """The `count` rows of S @ P from the rows of S transposed and of P,
    over the product of their scales."""
    out: list[dict] = [{} for _ in range(count)]
    for s_row, p_row in zip(suffix_rows, prefix_rows):
        for c, x in s_row.items():
            acc = out[c]
            for j, y in p_row.items():
                acc[j] = acc.get(j, 0) + x * y
    # the sums can cancel: running rows hold no zeros
    return [{j: x for j, x in row.items() if x} if 0 in row.values() else row for row in out]


def word_functoriality_witness(
    ev: Evaluator, word: Cobordism
) -> tuple[ProbedMap, Witness | None]:
    """The word's value as a `RunningMap`, equal to ``ev.running_map(word)``,
    and the first split at which it differs from suffix times prefix, or
    None when all agree; the split after the last layer cannot fail and is
    not checked.

    The value comes from the probe's own forward pass, so the word is
    evaluated once, and it is a `ProbedMap` that keeps every prefix, from
    which `Evaluator.running_map` evaluates a rewrite of the word.
    Prefixes grow by applying layers from the left, suffixes by applying
    transposed layers from the right, both as running maps in row form,
    and each split multiplies the two in that form, so no `Matrix` is
    built unless a witness is printed.  A split whose suffix rows and
    prefix rows are the same objects as those of the split after it (a
    layer of identities left both as they were) has the product just
    multiplied and agreed, and is skipped.
    """
    rows = ev._start(word)
    dim_dom, scale = len(rows), 1
    prefixes = [(rows, scale)]  # the rows and scale of the first 0, 1, .., n layers
    for layer in word.layers:
        rows, s = ev._apply_layers(rows, (layer,))
        scale *= s
        prefixes.append((rows, scale))
    value = ProbedMap(word, prefixes, dim_dom)

    def splits():
        # A layer has one scale in both directions, so every suffix times
        # prefix is over the word's scale, and the rows compare as they are.
        suffix_rows = _identity_rows(len(rows))  # rows of the transposed suffix
        drawn = None, None  # the suffix and prefix rows last multiplied
        for i in range(len(word.layers) - 1, -1, -1):
            suffix_rows, _ = ev._apply_layers(suffix_rows, (word.layers[i],), transposed=True)
            prefix_rows = prefixes[i][0]
            if suffix_rows is drawn[0] and prefix_rows is drawn[1]:
                continue
            drawn = suffix_rows, prefix_rows
            yield i, _times(suffix_rows, prefix_rows, len(rows)), rows

    def render(i, *sides) -> Witness:
        where = (("split-after-layer", str(i)), ("word", word.to_text()))
        maps = (RunningMap(r, dim_dom, scale) for r in sides)
        return Witness(where, *(matrix_literal(m.matrix()) for m in maps))

    return value, first_failure("functoriality", splits(), render).witness
