import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtqft.errors import DimensionMismatch, SingularMatrix
from gtqft.exactlin import ONE, ZERO, Matrix, rref, scalar_from_string

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


class TestKron:
    def test_identity_blocks(self):
        assert Matrix.identity(2).kron(Matrix.identity(3)) == Matrix.identity(6)

    def test_scalar_factor(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        s = Matrix.from_rows([[F(1, 2)]])
        assert a.kron(s) == a.scale(F(1, 2))
        assert s.kron(a) == a.scale(F(1, 2))

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
