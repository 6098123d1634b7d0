import itertools
import random
from fractions import Fraction

import pytest

from gtqft import (
    Cobordism,
    FiniteGroup,
    GFrobeniusAlgebra,
    builtin,
    frobenius_untwisted,
    group_algebra,
)
from gtqft.cobordism import _flip
from gtqft.exactlin import Matrix, Tensor3


def compose(c1: Cobordism, c2: Cobordism) -> Cobordism:
    """c2 glued after c1; the word's own type check rejects signatures
    that do not match."""
    return Cobordism(c1.group, c1.layers + c2.layers, domain=c1.dom)


def dual(c: Cobordism) -> Cobordism:
    """The word reversed: layers run backwards and every piece is flipped."""
    group = c.group
    return Cobordism(group, _flip(c.layers, group.conj, group.inv), domain=c.cod)


def dual_numbers_algebra() -> GFrobeniusAlgebra:
    """The two-dimensional algebra k[x]/(x^2) with basis (1, x) and trace x -> 1."""
    product = Tensor3.from_entries(2, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    return frobenius_untwisted(2, product, unit=(1, 0), trace=(0, 1))


def dual_number_group_algebra(group) -> GFrobeniusAlgebra:
    """Group algebra tensored with the dual numbers: every grade is
    two-dimensional with basis (delta_g * 1, delta_g * x), which exercises
    genuinely non-scalar blocks in every downstream computation."""
    n = group.order
    cell = Tensor3.from_entries(2, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    block = Matrix.identity(2)
    product = {(g, h): cell for g in range(n) for h in range(n)}
    action = {(k, g): block for k in range(n) for g in range(n)}
    return GFrobeniusAlgebra(group, (2,) * n, product, action, (1, 0), (0, 1))


def rescaled_algebra(a: GFrobeniusAlgebra, seed: int) -> GFrobeniusAlgebra:
    """The isomorphic algebra on the basis c_b * b, with one seeded positive
    rational c_b per basis vector b, so that most of its structure
    constants are no longer integers."""
    rng = random.Random(seed)
    group = a.group
    scale = [
        tuple(Fraction(rng.randint(1, 5), rng.randint(2, 5)) for _ in range(a.dims[g]))
        for g in group.elements()
    ]
    product = {}
    for (g, h), t in a.product.items():
        cg, ch, cgh = scale[g], scale[h], scale[group.mul(g, h)]
        grid = [
            [
                [cg[i] * ch[j] * t.data[i][j][p] / cgh[p] for p in range(t.dim2)]
                for j in range(t.dim1)
            ]
            for i in range(t.dim0)
        ]
        product[(g, h)] = Tensor3(t.dim0, t.dim1, t.dim2, grid)
    action = {}
    for (k, g), m in a.action.items():
        cs, ct = scale[g], scale[group.conj(k, g)]
        grid = [[cs[j] * m.data[i][j] / ct[i] for j in range(m.cols)] for i in range(m.rows)]
        action[(k, g)] = Matrix(m.rows, m.cols, grid)
    ce = scale[group.identity]
    unit = tuple(u / c for u, c in zip(a.unit, ce))
    trace = tuple(t * c for t, c in zip(a.trace, ce))
    return GFrobeniusAlgebra(group, a.dims, product, action, unit, trace)


def twisted_group_algebra(cover, z: str) -> GFrobeniusAlgebra:
    """The twisted group algebra Q^theta[G] of G = cover / {e, z}, for a
    central element z of order two (discrete torsion).

    Each coset is named by its least-index element s(a), and the section s
    gives the +-1 cocycle s(a) s(b) = theta(a, b) s(ab).  Then c_a c_b =
    theta(a, b) c_ab, the action is conjugation by c_k, and the unit and
    the trace are both 1 on the one-dimensional identity grade.
    """
    zi = cover.index(z)
    assert cover.mul(zi, zi) == cover.identity != zi
    assert all(cover.mul(zi, x) == cover.mul(x, zi) for x in cover.elements())
    section = sorted({min(x, cover.mul(zi, x)) for x in cover.elements()})
    coset = {x: section.index(min(x, cover.mul(zi, x))) for x in cover.elements()}
    table = [[coset[cover.mul(s, t)] for t in section] for s in section]
    group = FiniteGroup([cover.name(s) for s in section], table)
    n, mul, inv = group.order, group.mul, group.inv
    theta = [
        [1 if cover.mul(section[a], section[b]) == section[mul(a, b)] else -1 for b in range(n)]
        for a in range(n)
    ]
    for a, b, c in itertools.product(range(n), repeat=3):
        assert theta[a][b] * theta[mul(a, b)][c] == theta[b][c] * theta[a][mul(b, c)]
    product = {
        (a, b): Tensor3.from_entries(1, 1, 1, {(0, 0, 0): theta[a][b]})
        for a in range(n)
        for b in range(n)
    }
    # c_k c_a c_k^-1, where c_k^-1 = c_{k^-1} / theta(k, k^-1)
    action = {
        (k, a): Matrix.from_rows(
            [[Fraction(theta[k][a] * theta[mul(k, a)][inv(k)], theta[k][inv(k)])]]
        )
        for k in range(n)
        for a in range(n)
    }
    return GFrobeniusAlgebra(group, (1,) * n, product, action, (1,), (1,))


def zero_grade_algebra(group) -> GFrobeniusAlgebra:
    """Dual numbers on the identity grade and zero-dimensional components
    everywhere else, so that words can pass through empty tensor legs."""
    n = group.order
    e = group.identity
    dims = tuple(2 if g == e else 0 for g in range(n))
    cell = Tensor3.from_entries(2, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    product = {
        (g, h): cell if g == h == e else Tensor3.zeros(dims[g], dims[h], dims[group.mul(g, h)])
        for g in range(n)
        for h in range(n)
    }
    action = {(k, g): Matrix.identity(dims[g]) for k in range(n) for g in range(n)}
    return GFrobeniusAlgebra(group, dims, product, action, (1, 0), (0, 1))


def sites(a):
    """Every product, action, unit and trace entry of `a`, zeros included."""
    for key, t in a.product.items():
        for i in range(t.dim0):
            for j in range(t.dim1):
                for p in range(t.dim2):
                    yield "product", key, (i, j, p)
    for key, m in a.action.items():
        for i in range(m.rows):
            for j in range(m.cols):
                yield "action", key, (i, j)
    for kind in ("unit", "trace"):
        for i in range(len(a.unit)):
            yield kind, None, (i,)


def value_at(a, site) -> Fraction:
    """The value of `a` at `site`, one of `sites(a)`."""
    kind, key, index = site
    if kind == "product":
        return a.product[key][index]
    if kind == "action":
        return a.action[key].data[index[0]][index[1]]
    return getattr(a, kind)[index[0]]


def mutated(a, site, value) -> GFrobeniusAlgebra:
    """`a` with the entry at `site` (one of `sites(a)`) set to `value`."""
    kind, key, index = site
    product, action = dict(a.product), dict(a.action)
    vectors = {"unit": list(a.unit), "trace": list(a.trace)}
    if kind == "product":
        t = a.product[key]
        grid = [[list(row) for row in plane] for plane in t.data]
        i, j, p = index
        grid[i][j][p] = Fraction(value)
        product[key] = Tensor3(t.dim0, t.dim1, t.dim2, grid)
    elif kind == "action":
        m = a.action[key]
        grid = [list(row) for row in m.data]
        i, j = index
        grid[i][j] = Fraction(value)
        action[key] = Matrix(m.rows, m.cols, grid)
    else:
        vectors[kind][index[0]] = Fraction(value)
    return GFrobeniusAlgebra(a.group, a.dims, product, action, vectors["unit"], vectors["trace"])


@pytest.fixture(scope="session")
def z2():
    return builtin("cyclic", 2)


@pytest.fixture(scope="session")
def z3():
    return builtin("cyclic", 3)


@pytest.fixture(scope="session")
def z4():
    return builtin("cyclic", 4)


@pytest.fixture(scope="session")
def s3():
    return builtin("symmetric", 3)


@pytest.fixture(scope="session")
def d4():
    return builtin("dihedral", 4)


@pytest.fixture(scope="session")
def q8():
    return builtin("quaternion8")


@pytest.fixture(scope="session")
def trivial_group():
    return builtin("cyclic", 1)


@pytest.fixture(scope="session")
def s3_algebra(s3):
    return group_algebra(s3)


@pytest.fixture(scope="session")
def z2_algebra(z2):
    return group_algebra(z2)


@pytest.fixture(scope="session")
def dual_numbers():
    return dual_numbers_algebra()


@pytest.fixture(scope="session")
def rich_s3(s3):
    return dual_number_group_algebra(s3)


@pytest.fixture(scope="session")
def rescaled_s3(s3_algebra):
    return rescaled_algebra(s3_algebra, 3)


@pytest.fixture(scope="session")
def rescaled_rich_s3(rich_s3):
    return rescaled_algebra(rich_s3, 5)


@pytest.fixture(scope="session")
def zero_grade_z3(z3):
    return zero_grade_algebra(z3)


@pytest.fixture(scope="session")
def twisted_klein(q8):
    return twisted_group_algebra(q8, "n")


@pytest.fixture(scope="session")
def twisted_d4():
    return twisted_group_algebra(builtin("dihedral", 8), "r4")
