"""The row-at-a-time law checks against the case-at-a-time reference.

Every product, action, unit and trace entry of six small algebras is set,
one at a time, to 0, 2 and -1.  On each mutation the package's reports
must equal those of `law_oracle`, witnesses included: `check_axioms`, and
where `derive` succeeds `check_frobenius_diagram` and
`check_cocommutativity`, and the orbifold certification.  `derive` itself
must give the coproducts of `law_oracle.derive_coproducts`, or fail with
the same `CoproductMismatch` text, or find a degenerate pairing where the
oracle does.  The algebras cover one-dimensional grades (S3), uniform
two-dimensional grades (rich cyclic:2), grades of different dimensions,
padded to the largest (cyclic:2 with dims e: 1, g1: 2), and tables whose
common denominators are not 1 (rich cyclic:2 on a rescaled basis), so that
witnesses of unit, trace and single-block laws over denominators other
than 1 are compared too.  Two twisted group algebras (discrete torsion on
the Klein four group and on D4) have action blocks of -1, so the twisted
laws run near a passing algebra whose action is not a rescaling; twisted
D4 (130 sites) is mutated only by sign flips, the value -1.
"""

import pytest

import law_oracle
from conftest import (
    dual_number_group_algebra,
    mutated,
    rescaled_algebra,
    sites,
    twisted_group_algebra,
)
from gtqft import (
    GFrobeniusAlgebra,
    builtin,
    check_axioms,
    check_cocommutativity,
    check_frobenius_diagram,
    derive,
    group_algebra,
    orbifold_algebra,
)
from gtqft.errors import CoproductMismatch, DegeneratePairing, DimensionMismatch, SingularMatrix
from gtqft.exactlin import Matrix, Tensor3
from gtqft.report import Witness, first_failure


def mixed_dims_algebra() -> GFrobeniusAlgebra:
    """cyclic:2 with dims e: 1 and g1: 2: the identity grade acts as the
    unit, g1 * g1 pairs the two basis vectors crosswise into the identity
    grade, and the action is trivial.  No algebra with these dimensions
    satisfies every law (associativity on g1 * g1 * g1 fails), so its
    reports exercise failing witnesses beside padded grades."""
    group = builtin("cyclic", 2)
    e, g1 = 0, 1
    dims = (1, 2)
    product = {
        (e, e): Tensor3.from_entries(1, 1, 1, {(0, 0, 0): 1}),
        (e, g1): Tensor3.from_entries(1, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1}),
        (g1, e): Tensor3.from_entries(2, 1, 2, {(0, 0, 0): 1, (1, 0, 1): 1}),
        (g1, g1): Tensor3.from_entries(2, 2, 1, {(0, 1, 0): 1, (1, 0, 0): 1}),
    }
    action = {(k, g): Matrix.identity(dims[g]) for k in (e, g1) for g in (e, g1)}
    return GFrobeniusAlgebra(group, dims, product, action, (1,), (1,))


ALGEBRAS = {
    "s3": lambda: group_algebra(builtin("symmetric", 3)),
    "rich-z2": lambda: dual_number_group_algebra(builtin("cyclic", 2)),
    "mixed-z2": mixed_dims_algebra,
    "rescaled-rich-z2": lambda: rescaled_algebra(dual_number_group_algebra(builtin("cyclic", 2)), 7),
    "twisted-klein": lambda: twisted_group_algebra(builtin("quaternion8"), "n"),
    "twisted-d4": lambda: twisted_group_algebra(builtin("dihedral", 8), "r4"),
}
VALUES = {"twisted-d4": (-1,)}
MUTATIONS = [(name, value) for name in ALGEBRAS for value in VALUES.get(name, (0, 2, -1))]


def derived(coproducts, a):
    """``coproducts(a)``, or the text of its CoproductMismatch, or
    "degenerate" when it finds a pairing that is not invertible."""
    try:
        return coproducts(a)
    except CoproductMismatch as exc:
        return str(exc)
    except (DegeneratePairing, DimensionMismatch, SingularMatrix):
        return "degenerate"


def package_coproducts(a) -> dict:
    return dict(derive(a).coproducts)


@pytest.mark.parametrize("name,value", MUTATIONS)
def test_rows_match_the_case_loops_on_every_mutation(name, value):
    base = ALGEBRAS[name]()
    for site in sites(base):
        a = mutated(base, site, value)
        assert check_axioms(a) == law_oracle.check_axioms(a), site
        coproducts = derived(package_coproducts, a)
        assert coproducts == derived(law_oracle.derive_coproducts, a), site
        if isinstance(coproducts, dict):
            d = derive(a)
            assert check_frobenius_diagram(a, d) == law_oracle.check_frobenius_diagram(a, d), site
            assert check_cocommutativity(a, d) == law_oracle.check_cocommutativity(a, d), site
        orb = orbifold_algebra(a)
        oracle = law_oracle.orbifold_associativity(orb)
        assert orb.certification.entry("orbifold-associativity") == oracle, site


def test_mismatch_in_the_last_real_position_of_a_row(monkeypatch):
    """e * b_1 = 2 b_1 in the mixed algebra breaks associativity first in
    row (g, h) = (e, e), and there only in its last real case
    (k, i, j, l) = (g1, 0, 0, 1); the row's other positions are padding
    (i and j range over the one-dimensional identity grade) or agree."""
    a = mutated(mixed_dims_algebra(), ("product", (0, 1), (0, 1, 1)), 2)

    cases = {}

    def every_case(name, drawn, render):
        cases[name] = list(drawn)
        return first_failure(name, cases[name], render)

    monkeypatch.setattr(law_oracle, "first_failure", every_case)
    oracle = law_oracle.check_axioms(a).entry("product-associativity")
    row = [(context, lhs != rhs) for context, lhs, rhs in cases["product-associativity"]]
    row = [(context, bad) for context, bad in row if context[:2] == (0, 0)]
    assert [context for context, bad in row if bad] == [row[-1][0]] == [(0, 0, 1, 0, 0, 1)]

    entry = check_axioms(a).entry("product-associativity")
    assert entry == oracle
    keys = ("g", "h", "k", "i", "j", "l")
    names = ("e", "e", "g1", "e", "e", "g1")
    assert entry.witness == Witness(tuple(zip(keys, names)), "(0, 2)", "(0, 4)")
