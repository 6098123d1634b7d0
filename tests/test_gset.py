"""G-set algebras: passing fixtures whose action blocks leave the diagonal.

The G-set algebra of an action of G on a finite set X (`conftest.gset_algebra`)
is the Dijkgraaf-Witten algebra of the action groupoid X//G.  Its action
blocks are permutation matrices that move basis vectors between fixed
points, so the twisted laws, the `cyl` pieces and the orbifold projector
run on off-diagonal blocks of an algebra that passes every check.  Two
oracles come from the G-set alone: the orbifold's dimension is the number
of G-orbits on the pairs (g, x) with g x = x, and the torus with commuting
holonomies (x, y) evaluates to the number of points that x and y both fix.
"""

import pytest

from gtqft import (
    GFrobeniusAlgebra,
    Matrix,
    cerf_check,
    check_axioms,
    check_cocommutativity,
    check_frobenius_diagram,
    closed_invariant,
    derive,
    orbifold_algebra,
)
from conftest import conjugation_action, point_action

LAWS = [
    "product-associativity",
    "unit-laws",
    "action-of-identity",
    "action-homomorphism",
    "action-automorphism",
    "action-trivial-on-own-grade",
    "trace-invariance",
    "pairing-nondegenerate",
    "twisted-commutativity",
    "torus-identity",
]

# fixture, its action, dims in element order (e, p021, p102, p120, p201,
# p210), orbifold dimension, and the laws that fail with the action block
# (p021, p102) doubled
GSETS = [
    (
        "s3_on_points",
        point_action,
        (3, 1, 1, 0, 0, 1),
        2,
        ["action-homomorphism", "action-automorphism"],
    ),
    (
        "s3_by_conjugation",
        conjugation_action,
        (6, 2, 2, 3, 3, 2),
        8,
        ["action-homomorphism", "action-automorphism", "twisted-commutativity", "torus-identity"],
    ),
]


def fixed_by(act, *elements) -> list[int]:
    """The points that every one of `elements` fixes."""
    return [x for x in range(len(act[0])) if all(act[g][x] == x for g in elements)]


def inertia_orbits(group, act) -> int:
    """The number of G-orbits on {(g, x) : g x = x} under k (g, x) =
    (k g k^-1, k x)."""
    seen = set()
    orbits = 0
    for g in group.elements():
        for x in fixed_by(act, g):
            if (g, x) not in seen:
                orbits += 1
                seen.update((group.conj(k, g), act[k][x]) for k in group.elements())
    return orbits


def doubled(a: GFrobeniusAlgebra) -> GFrobeniusAlgebra:
    """`a` with the action block (p021, p102) doubled."""
    group = a.group
    key = (group.index("p021"), group.index("p102"))
    action = dict(a.action)
    m = action[key]
    action[key] = Matrix(m.rows, m.cols, [[2 * x for x in row] for row in m.data])
    return GFrobeniusAlgebra(group, a.dims, a.product, action, a.unit, a.trace)


@pytest.mark.parametrize("fixture,action,dims,orbits,broken", GSETS)
class TestGSetAlgebra:
    def test_dims_and_off_diagonal_blocks(self, request, fixture, action, dims, orbits, broken):
        a = request.getfixturevalue(fixture)
        act = action(a.group)
        assert a.dims == dims == tuple(len(fixed_by(act, g)) for g in a.group.elements())
        assert any(
            m.data[i][j]
            for m in a.action.values()
            for i in range(m.rows)
            for j in range(m.cols)
            if i != j
        )

    def test_every_law_passes(self, request, fixture, action, dims, orbits, broken):
        a = request.getfixturevalue(fixture)
        report = check_axioms(a)
        assert [e.name for e in report.entries] == LAWS
        assert report.passed
        d = derive(a)
        assert check_frobenius_diagram(a, d).passed
        assert check_cocommutativity(a, d).passed

    def test_orbifold_counts_inertia_orbits(self, request, fixture, action, dims, orbits, broken):
        a = request.getfixturevalue(fixture)
        orb = orbifold_algebra(a)
        assert orb.certification.passed
        assert orb.dimension == inertia_orbits(a.group, action(a.group)) == orbits

    def test_torus_counts_common_fixed_points(self, request, fixture, action, dims, orbits, broken):
        a = request.getfixturevalue(fixture)
        group, act = a.group, action(a.group)
        pairs = [
            (x, y)
            for x in group.elements()
            for y in group.elements()
            if group.mul(x, y) == group.mul(y, x)
        ]
        assert len(pairs) == 18  # the commuting pairs of S3
        for x, y in pairs:
            assert closed_invariant(a, (x, y)) == len(fixed_by(act, x, y)), (x, y)

    @pytest.mark.parametrize("case", ["cylinder", "twist", "pants", "111"])
    def test_cerf_rows_on_every_labelling(
        self, request, fixture, action, dims, orbits, broken, case
    ):
        report = cerf_check(request.getfixturevalue(fixture), case, all_labels=True)
        assert report.entries and report.passed

    def test_a_doubled_action_block_fails(self, request, fixture, action, dims, orbits, broken):
        bad = doubled(request.getfixturevalue(fixture))
        assert [e.name for e in check_axioms(bad).entries if not e.passed] == broken
        certification = orbifold_algebra(bad).certification
        assert [e.name for e in certification.entries if not e.passed] == [
            "orbifold-closure",
            "orbifold-trace-nondegenerate",
            "orbifold-invariance",
        ]
