"""Twisted group algebras: passing fixtures whose action is not a rescaling.

The twisted group algebra Q^theta[G] (`conftest.twisted_group_algebra`)
satisfies every law, yet conjugation acts by -1 on some grades, so the
twisted laws, the `cyl` pieces and the orbifold projector run on an action
that no positive diagonal rescaling produces.
"""

import pytest

from gtqft import (
    Matrix,
    cerf_check,
    check_axioms,
    check_cocommutativity,
    check_frobenius_diagram,
    conjugacy,
    derive,
    group_algebra,
    orbifold_algebra,
)
from gtqft.cobordism import CERF_CASES

import law_oracle

# fixture, blocks on which the action is -1, orbifold dimension of the
# untwisted group algebra of the same group
TWISTED = [("twisted_klein", 6, 4), ("twisted_d4", 28, 5)]


def regular_class_count(a) -> int:
    """The number of theta-regular conjugacy classes, read from the cocycle
    theta(a, b) = c_a c_b / c_ab and the group table alone: a is regular
    when theta(k, a) = theta(a, k) for every k that commutes with a."""
    group = a.group
    theta = {key: t.data[0][0][0] for key, t in a.product.items()}
    mul = group.mul
    return sum(
        all(theta[(k, r)] == theta[(r, k)] for k in group.elements() if mul(k, r) == mul(r, k))
        for r in conjugacy(group).representatives
    )


@pytest.mark.parametrize("fixture,negative,untwisted", TWISTED)
class TestTwistedGroupAlgebra:
    def test_every_law_passes(self, request, fixture, negative, untwisted):
        a = request.getfixturevalue(fixture)
        assert check_axioms(a).passed
        d = derive(a)
        assert check_frobenius_diagram(a, d).passed
        assert check_cocommutativity(a, d).passed

    def test_action_is_not_a_rescaling(self, request, fixture, negative, untwisted):
        a = request.getfixturevalue(fixture)
        signs = [m.data[0][0] for m in a.action.values()]
        assert sorted(set(signs)) == [-1, 1]
        assert signs.count(-1) == negative

    def test_orbifold_counts_regular_classes(self, request, fixture, negative, untwisted):
        a = request.getfixturevalue(fixture)
        orb = orbifold_algebra(a)
        assert orb.certification.passed
        expand, restrict = law_oracle.sector_change_of_basis(a)
        assert expand @ restrict == Matrix.identity(orb.dimension)
        assert orb.dimension == regular_class_count(a) < untwisted
        assert orbifold_algebra(group_algebra(a.group)).dimension == untwisted


def test_klein_four_cerf_rows_on_every_labelling(twisted_klein):
    for case in CERF_CASES:
        report = cerf_check(twisted_klein, case, all_labels=True)
        assert report.entries and report.passed, case


@pytest.mark.parametrize("case", ["cylinder", "twist", "pants"])
def test_d4_surface_identities_on_every_labelling(twisted_d4, case):
    report = cerf_check(twisted_d4, case, all_labels=True)
    assert report.entries and report.passed
