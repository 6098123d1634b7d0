import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtqft.errors import DimensionMismatch, SingularMatrix
from gtqft.exactlin import (
    ONE,
    ZERO,
    Matrix,
    add_scaled,
    fraction_rows,
    int_rows,
    rref,
    scalar_from_string,
)

F = Fraction


def leibniz_det(m: Matrix) -> Fraction:
    """Independent determinant oracle: permutation-sum expansion."""
    n = m.rows
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = F(sign)
        for i in range(n):
            term *= m.data[i][perm[i]]
        total += term
    return total


small_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


def square_matrices(n):
    return st.lists(
        st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix.from_rows)


def gauss_jordan_inverse(m: Matrix) -> Matrix:
    """Reference inverse: the Gauss-Jordan loop `Matrix.inverse` ran on
    [M | I] before it became `rref` of [M | I]."""
    n = m.rows
    work = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m.data)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise SingularMatrix(f"matrix of size {n} has zero determinant")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
        p = work[col][col]
        if p != ONE:
            work[col] = [x / p for x in work[col]]
        prow = work[col]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], prow)]
    return Matrix(n, n, [row[n:] for row in work])


def dense_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reference row reduction: the dense elimination `rref` ran before it
    called `add_scaled`, subtracting f times the whole pivot row."""
    work = [list(row) for row in m.data]
    pivots = []
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
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], prow)]
        pivots.append(col)
        r += 1
    return Matrix(m.rows, m.cols, work), tuple(pivots)


# About half of the entries are zero, so the kernel's zero skips are taken.
sparse_fractions = st.tuples(st.booleans(), small_fractions).map(
    lambda pair: pair[1] if pair[0] else F(0)
)


def sparse_grids(rows, cols):
    return st.lists(
        st.lists(sparse_fractions, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def product_inputs(draw):
    """Sparse A (n x k) and B (k x m) and a vector of length k, sizes 0..4."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    vec = tuple(draw(st.lists(sparse_fractions, min_size=k, max_size=k)))
    return Matrix(n, k, draw(sparse_grids(n, k))), Matrix(k, m, draw(sparse_grids(k, m))), vec


@st.composite
def rref_inputs(draw):
    """A sparse rectangular matrix of size 0..5 x 0..5, made rank-deficient
    on purpose by a row that combines two others or by a zero column."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    data = draw(sparse_grids(rows, cols))
    kinds = ["random"] + (["zero-column"] if rows and cols else [])
    kinds += ["combined-row"] if rows > 2 else []
    kind = draw(st.sampled_from(kinds))
    if kind == "zero-column":
        col = draw(st.integers(0, cols - 1))
        for row in data:
            row[col] = F(0)
    elif kind == "combined-row":
        a, b, dst = draw(st.permutations(range(rows)))[:3]
        c, d = draw(small_fractions), draw(small_fractions)
        data[dst] = [c * x + d * y for x, y in zip(data[a], data[b])]
    return Matrix(rows, cols, data)


@st.composite
def inverse_inputs(draw):
    """A square matrix of size 0..5 and whether it was made singular on
    purpose, by repeating a row or by zeroing a column."""
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n))
    kinds = ["random"] + (["zero-column"] if n else []) + (["repeated-row"] if n > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "zero-column":
        col = draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = F(0)
    elif kind == "repeated-row":
        src, dst = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[dst] = list(rows[src])
    return Matrix(n, n, rows), kind != "random"


class TestTranspose:
    @pytest.mark.parametrize("rows,cols", [(2, 3), (3, 1), (0, 3), (3, 0), (0, 0)])
    def test_entries_and_shape(self, rows, cols):
        m = Matrix(rows, cols, [[F(i * cols + j, 7) for j in range(cols)] for i in range(rows)])
        t = m.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert all(t.data[j][i] == m.data[i][j] for i in range(rows) for j in range(cols))
        assert len(t.data) == cols and all(len(row) == rows for row in t.data)
        assert t.transpose() == m


class TestScalar:
    def test_parse_forms(self):
        assert scalar_from_string("3") == F(3)
        assert scalar_from_string("-2/4") == F(-1, 2)

    @pytest.mark.parametrize("bad", ["1.5", "a", "1/0x", "", "1/-2", "1/0", "3/00"])
    def test_rejects_non_rational(self, bad):
        with pytest.raises(ValueError):
            scalar_from_string(bad)

    @pytest.mark.parametrize(
        "text,value",
        [
            ("+3", F(3)),
            ("007/010", F(7, 10)),
            (" 2/3 ", F(2, 3)),
            ("3\n", F(3)),
            ("-0", F(0)),
            ("\u0661", F(1)),
        ],
    )
    def test_accepted_literals(self, text, value):
        # signs, leading zeros, surrounding whitespace and Unicode decimal
        # digits in the numerator
        assert scalar_from_string(text) == value

    @pytest.mark.parametrize("bad", ["\u0661/\u0662", "1_000", "1e3"])
    def test_rejected_literals(self, bad):
        # the denominator's first nonzero digit is ASCII; no separators, no
        # exponents
        with pytest.raises(ValueError):
            scalar_from_string(bad)


class TestConversions:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 12)), max_size=4)))
    def test_round_trip(self, rows):
        ints, s = int_rows(rows)
        # s clears every denominator, and no s / q for a prime q does
        entries = [x for row in rows for x in row]
        assert all((x * s).denominator == 1 for x in entries)
        primes = [q for q in range(2, s + 1) if s % q == 0 and all(q % r for r in range(2, q))]
        assert all(any((x * (s // q)).denominator != 1 for x in entries) for q in primes)
        assert all(type(x) is int for row in ints for x in row)
        back = fraction_rows(ints, s)
        assert back == tuple(map(tuple, rows))
        assert all(x is ZERO for row in back for x in row if not x)

    @pytest.mark.parametrize("rows", [(), ((),), ((), ())])
    def test_no_entries_have_scale_one(self, rows):
        assert int_rows(rows) == ([[] for _ in rows], 1)


class TestInverse:
    def test_identity(self):
        assert Matrix.identity(2).inverse() == Matrix.identity(2)

    def test_involution(self):
        flip = Matrix.from_rows([[0, 1], [1, 0]])
        assert flip.inverse() == flip

    def test_unitriangular(self):
        m = Matrix.from_rows([[1, 1], [0, 1]])
        inv = m.inverse()
        assert inv == Matrix.from_rows([[1, -1], [0, 1]])
        assert m @ inv == Matrix.identity(2)
        assert inv @ m == Matrix.identity(2)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            Matrix.from_rows([[1, 2], [2, 4]]).inverse()

    def test_zero_by_zero(self):
        assert Matrix.identity(0).inverse() == Matrix.identity(0)

    def test_non_square_rejected(self):
        for rows, cols in [(2, 3), (3, 2), (0, 1), (1, 0)]:
            with pytest.raises(DimensionMismatch):
                Matrix.zeros(rows, cols).inverse()

    def test_singular_message(self):
        with pytest.raises(SingularMatrix, match="^matrix of size 3 has zero determinant$"):
            Matrix.from_rows([[1, 2, 3], [0, 0, 0], [4, 5, 6]]).inverse()

    @settings(max_examples=200, deadline=None)
    @given(inverse_inputs())
    def test_agrees_with_gauss_jordan_reference(self, case):
        m, singular = case
        try:
            expected = gauss_jordan_inverse(m)
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                m.inverse()
        else:
            assert not singular
            assert m.inverse() == expected

    @settings(max_examples=60)
    @given(square_matrices(3))
    def test_agrees_with_determinant_oracle(self, m):
        det = leibniz_det(m)
        assert m.det() == det
        if det == 0:
            with pytest.raises(SingularMatrix):
                m.inverse()
        else:
            inv = m.inverse()
            assert m @ inv == Matrix.identity(3)
            assert inv @ m == Matrix.identity(3)


class TestProducts:
    def test_add_scaled_accumulates_in_place(self):
        out = [F(1), ZERO, ZERO]
        rows = [(F(1), ZERO, F(2)), (F(5), F(5), F(5)), (ZERO, F(3), F(-1))]
        assert add_scaled(out, (F(1, 2), ZERO, F(2)), rows) is out
        assert out == [F(3, 2), F(6), F(-1)]

    @settings(max_examples=200, deadline=None)
    @given(product_inputs())
    def test_matmul_agrees_with_the_triple_sum(self, case):
        a, b, _ = case
        ad, bd = a.data, b.data
        expected = [
            [sum((ad[i][l] * bd[l][j] for l in range(a.cols)), ZERO) for j in range(b.cols)]
            for i in range(a.rows)
        ]
        assert a @ b == Matrix(a.rows, b.cols, expected)

    @settings(max_examples=200, deadline=None)
    @given(product_inputs())
    def test_apply_agrees_with_row_dot_products(self, case):
        a, _, vec = case
        expected = tuple(sum((x * v for x, v in zip(row, vec)), ZERO) for row in a.data)
        assert a.apply(vec) == expected

    def test_shapes_are_checked(self):
        with pytest.raises(DimensionMismatch):
            Matrix.zeros(2, 3) @ Matrix.zeros(2, 3)
        with pytest.raises(DimensionMismatch):
            Matrix.zeros(2, 3).apply((ONE, ONE))


class TestKron:
    def test_identity_blocks(self):
        assert Matrix.identity(2).kron(Matrix.identity(3)) == Matrix.identity(6)

    def test_scalar_factor(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        s = Matrix.from_rows([[F(1, 2)]])
        halved = Matrix.from_rows([[F(1, 2), 1], [F(3, 2), 2]])
        assert a.kron(s) == halved
        assert s.kron(a) == halved

    def test_applies_factorwise(self):
        a = Matrix.from_rows([[1, 2], [0, 1]])
        b = Matrix.from_rows([[3], [1]])
        v = (F(2), F(-1))
        w = (F(5),)
        vw = tuple(x * y for x in v for y in w)
        av = a.apply(v)
        bw = b.apply(w)
        expected = tuple(x * y for x in av for y in bw)
        assert a.kron(b).apply(vw) == expected

    @settings(max_examples=30)
    @given(square_matrices(2), square_matrices(2), square_matrices(2))
    def test_associative_up_to_flattening(self, a, b, c):
        assert a.kron(b).kron(c) == a.kron(b.kron(c))


class TestRref:
    def test_pivots_and_rank(self):
        m = Matrix.from_rows([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
        reduced, pivots = rref(m)
        assert pivots == (0, 1)
        assert reduced.data[2] == (F(0), F(0), F(0))

    def test_already_reduced(self):
        m = Matrix.identity(3)
        reduced, pivots = rref(m)
        assert reduced == m and pivots == (0, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(rref_inputs())
    def test_agrees_with_dense_elimination(self, m):
        reduced, pivots = rref(m)
        assert (reduced, pivots) == dense_rref(m)
