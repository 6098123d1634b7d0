"""The int image of the algebra tables, and the exhaustiveness of the law
loops that run on it.

`exactlin.int_image` scales every block of a table by the table's common
denominator D; the laws compare int sides brought to one total scale.  The
property tests check the image against the `Fraction` tables it stands for;
the counting tests check that every law still draws every case, counted
through the real (unpadded) case counts of the rows it hands `law`,
and that each table is imaged, and each pairing built and inverted, once.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtqft.algebra
import gtqft.orbifold
import law_oracle
from conftest import mutated, sites
from gtqft import (
    check_axioms,
    check_cocommutativity,
    check_frobenius_diagram,
    derive,
    frobenius_untwisted,
    group_algebra,
    orbifold_algebra,
)
from gtqft.algebra import law, pairing_matrix
from gtqft.cli import main
from gtqft.exactlin import Matrix, Tensor3, int_image
from gtqft.report import first_failure
from law_oracle import _int_times, _int_vector

F = Fraction

fractions = st.one_of(st.just(F(0)), st.builds(F, st.integers(-7, 7), st.integers(1, 12)))
sizes = st.integers(0, 3)


def tensors():
    return st.tuples(sizes, sizes, sizes).flatmap(
        lambda s: st.lists(fractions, min_size=s[0] * s[1] * s[2], max_size=s[0] * s[1] * s[2]).map(
            lambda flat: Tensor3(
                *s,
                [
                    [[flat[(i * s[1] + j) * s[2] + k] for k in range(s[2])] for j in range(s[1])]
                    for i in range(s[0])
                ],
            )
        )
    )


def matrices():
    return st.tuples(sizes, sizes).flatmap(
        lambda s: st.lists(fractions, min_size=s[0] * s[1], max_size=s[0] * s[1]).map(
            lambda flat: Matrix(*s, [[flat[i * s[1] + j] for j in range(s[1])] for i in range(s[0])])
        )
    )


def vectors():
    return st.lists(fractions, max_size=4).map(tuple)


def dense(block):
    """Every entry of a block with its index, zeros included."""
    if isinstance(block, Tensor3):
        return {
            (i, j, k): v
            for i, plane in enumerate(block.data)
            for j, row in enumerate(plane)
            for k, v in enumerate(row)
        }
    if isinstance(block, Matrix):
        return {(i, j): v for i, row in enumerate(block.data) for j, v in enumerate(row)}
    return {(i,): v for i, v in enumerate(block)}


@settings(max_examples=150, deadline=None)
@given(st.one_of(*(st.lists(kind, max_size=4) for kind in (tensors(), matrices(), vectors()))))
def test_int_image_round_trips(blocks):
    table = dict(enumerate(blocks))
    image, scale = int_image(table)
    denominators = [v.denominator for block in blocks for v in dense(block).values() if v]
    assert scale == math.lcm(*denominators)
    for key, block in table.items():
        entries = image[key]
        assert all(type(e[-1]) is int and e[-1] != 0 for e in entries)
        indices = [e[:-1] for e in entries]
        assert indices == sorted(indices)
        recovered = {index: F(0) for index in dense(block)}
        recovered.update({e[:-1]: F(e[-1], scale) for e in entries})
        assert recovered == dense(block)


@settings(max_examples=150, deadline=None)
@given(st.lists(matrices(), min_size=1, max_size=3), st.lists(st.integers(0, 2), max_size=9))
def test_shared_blocks_image_as_separate_ones(blocks, picks):
    # a table whose keys share block objects images as the same table of
    # separate copies, each scanned on its own
    table = {key: blocks[pick % len(blocks)] for key, pick in enumerate(picks)}
    copies = {key: Matrix._wrap(m.rows, m.cols, m.data) for key, m in table.items()}
    assert int_image(table) == int_image(copies)


@st.composite
def products(draw):
    dim = draw(sizes)
    cube = draw(st.lists(fractions, min_size=dim**3, max_size=dim**3))
    grid = [[[cube[(i * dim + j) * dim + k] for k in range(dim)] for j in range(dim)] for i in range(dim)]
    x = tuple(draw(st.lists(fractions, min_size=dim, max_size=dim)))
    y = tuple(draw(st.lists(fractions, min_size=dim, max_size=dim)))
    return frobenius_untwisted(dim, grid, (0,) * dim, (0,) * dim), x, y


@settings(max_examples=150, deadline=None)
@given(products())
def test_int_product_is_the_fraction_product_scaled(case):
    a, x, y = case
    image, d_p = int_image(a.product)
    (xs, d_x), (ys, d_y) = _int_vector(x), _int_vector(y)
    got = _int_times(image[(0, 0)], xs, ys, a.dims[0])
    assert got == [d_p * d_x * d_y * v for v in a.apply_product(0, 0, x, y)]


ALGEBRA_FIXTURES = [
    "s3_algebra",
    "z2_algebra",
    "dual_numbers",
    "rich_s3",
    "rescaled_s3",
    "rescaled_rich_s3",
    "zero_grade_z3",
    "twisted_klein",
    "twisted_d4",
]


@pytest.mark.parametrize("fixture", ALGEBRA_FIXTURES)
def test_pairing_matrix_is_the_gram_matrix(request, fixture):
    # the pairing on the product's int image against the trace's int row,
    # on the algebra and with each product and trace entry set to -1/2
    base = request.getfixturevalue(fixture)
    algebras = [base] + [
        mutated(base, site, F(-1, 2)) for site in sites(base) if site[0] in ("product", "trace")
    ]
    for a in algebras:
        for g in a.group.elements():
            assert pairing_matrix(a, g) == law_oracle.pairing_matrix(a, g)


# --- every case of every law is drawn -----------------------------------


@pytest.fixture
def drawn(monkeypatch):
    """Law name -> number of real cases the law fed to its driver: one per
    case for `first_failure`, the count each row declares for a row law,
    read where `law` is given the rows."""
    counts: dict[str, int] = {}
    row_laws: set[str] = set()

    def counted(name, items, size):
        for item in items:
            counts[name] = counts.get(name, 0) + size(item)
            yield item

    def counting(name, cases, render):
        if name not in row_laws:  # a row law's rows are counted by `law`
            cases = counted(name, cases, lambda case: 1)
        return first_failure(name, cases, render)

    def counting_law(group, name, cases, keys, *args, locate=None):
        if locate is not None:
            row_laws.add(name)
            cases = counted(name, cases, lambda row: row[1])
        return law(group, name, cases, keys, *args, locate=locate)

    monkeypatch.setattr(gtqft.algebra, "law", counting_law)
    for module in (gtqft.algebra, gtqft.orbifold):
        monkeypatch.setattr(module, "first_failure", counting)
    return counts


# zero_grade_z3 pads its two empty grades to dimension 2 and rescaled_s3
# has scales other than 1 on one-dimensional grades; neither may change a
# count.  The empty twisted sectors of zero_grade_z3 cannot balance the
# handle element of its identity grade, so its torus identity fails in its
# first row and draws no further rows; only that law's count is not
# asserted.
FAILING = {"zero_grade_z3": ("torus-identity",)}


@pytest.mark.parametrize(
    "fixture", ["s3_algebra", "rich_s3", "rescaled_rich_s3", "zero_grade_z3", "rescaled_s3"]
)
def test_every_law_draws_every_case(drawn, request, fixture):
    a = request.getfixturevalue(fixture)
    failing = FAILING.get(fixture, ())
    group, dims = a.group, a.dims
    n, e, total = group.order, group.identity, sum(a.dims)
    g_h = [(g, h) for g in group.elements() for h in group.elements()]
    g_h_k = [(g, h, k) for g, h in g_h for k in group.elements()]
    mul, conj = group.mul, group.conj

    d = derive(a)
    orb = orbifold_algebra(a)
    reports = (
        check_axioms(a),
        check_frobenius_diagram(a, d),
        check_cocommutativity(a, d),
        orb.certification,
    )
    assert tuple(entry.name for report in reports for entry in report.failures()) == failing
    for name in failing:
        del drawn[name]
    m = orb.dimension
    expected = {
        "product-associativity": sum(dims[g] * dims[h] * dims[k] for g, h, k in g_h_k),
        "unit-laws": 2 * total,
        "action-of-identity": n,
        "action-homomorphism": n**3,
        "action-automorphism": n + sum(n * dims[g] * dims[h] for g, h in g_h),
        "action-trivial-on-own-grade": n,
        "trace-invariance": n * dims[e],
        "pairing-nondegenerate": 2 * n,
        "twisted-commutativity": sum(dims[g] * dims[h] for g, h in g_h),
        "torus-identity": n * n,
        "frobenius-relation": sum(
            dims[g] * dims[mul(h, k)] * dims[mul(g, h)] * dims[k] for g, h, k in g_h_k
        ),
        "twisted-cocommutativity": sum(
            dims[mul(g, h)] * dims[conj(g, h)] * dims[g] for g, h in g_h
        ),
        "orbifold-closure": m * m,
        "orbifold-commutativity": m * (m - 1) // 2,
        "orbifold-associativity": m**3,
        "orbifold-unit": 1 + m,
        "orbifold-invariance": n * m,
    }
    assert drawn == {name: count for name, count in expected.items() if name not in failing}


# --- every derived table is built once -------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Counts of the table builders called through the package: the ids of
    the tables passed to `int_image`, which only `gtqft.algebra` calls (the
    orbifold reads its images through `table_image`), and the
    `pairing_matrix`, `Matrix.inverse` and `Matrix.det` calls."""
    calls = {"int_image": [], "pairing_matrix": 0, "inverse": 0, "det": 0}

    def imaging(blocks):
        calls["int_image"].append(id(blocks))
        return int_image(blocks)

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(gtqft.algebra, "int_image", imaging)
    monkeypatch.setattr(
        gtqft.algebra, "pairing_matrix", counted("pairing_matrix", gtqft.algebra.pairing_matrix)
    )
    monkeypatch.setattr(Matrix, "inverse", counted("inverse", Matrix.inverse))
    monkeypatch.setattr(Matrix, "det", counted("det", Matrix.det))
    return calls


S3_GROUP_ALGEBRA = ["--group", "symmetric:3", "--algebra", "builtin:group-algebra"]


def test_check_builds_each_table_once(builds, capsys):
    assert main(["check", *S3_GROUP_ALGEBRA]) == 0
    # the product, the action, the dual bases and the coproducts, one image each
    assert len(builds["int_image"]) == len(set(builds["int_image"])) == 4
    # each of the six grades' pairings is built and inverted once
    assert (builds["pairing_matrix"], builds["inverse"], builds["det"]) == (6, 6, 0)


def test_orbifold_reads_the_one_nondegeneracy_decision(builds, capsys):
    assert main(["orbifold", *S3_GROUP_ALGEBRA]) == 0
    # the action and the product, read through `table_image`; the invariant
    # structure constants are the product's numerators and need no image,
    # and the invariant algebra's pairing reads the product image that the
    # orbifold hands over from those numerators
    assert len(builds["int_image"]) == len(set(builds["int_image"])) == 2
    # the invariant algebra's one pairing, and no determinant
    assert (builds["pairing_matrix"], builds["inverse"], builds["det"]) == (1, 1, 0)


def test_derive_after_check_reuses_the_pairings(builds, s3):
    a = group_algebra(s3)
    assert check_axioms(a).passed
    built = dict(builds)
    derive(a)
    assert (builds["pairing_matrix"], builds["inverse"]) == (
        built["pairing_matrix"],
        built["inverse"],
    )
