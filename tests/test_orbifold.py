import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

import gtqft.orbifold
import law_oracle
from conftest import mutated, sites, value_at
from gtqft import (
    CheckEntry,
    GFrobeniusAlgebra,
    Matrix,
    Witness,
    builtin,
    check_axioms,
    conjugacy,
    group_algebra,
    load_algebra,
    orbifold_algebra,
    save_algebra,
)
from gtqft.cli import main
from gtqft.exactlin import ZERO, Vector, int_image
from gtqft.orbifold import invariant_projector, _component, _offsets

F = Fraction


def multiply_total(a: GFrobeniusAlgebra, offsets, x: Vector, y: Vector) -> Vector:
    """Product of two total-space vectors using the graded structure."""
    total = len(x)
    out = [ZERO] * total
    for g in a.group.elements():
        xg = _component(a, offsets, x, g)
        if not any(xg):
            continue
        for h in a.group.elements():
            yh = _component(a, offsets, y, h)
            if not any(yh):
                continue
            gh = a.group.mul(g, h)
            piece = a.apply_product(g, h, xg, yh)
            base = offsets[gh]
            for p, v in enumerate(piece):
                if v:
                    out[base + p] += v
    return tuple(out)


CRITERION_GROUPS = [
    ("cyclic", 2),
    ("cyclic", 3),
    ("cyclic", 4),
    ("cyclic", 5),
    ("cyclic", 6),
    ("dihedral", 4),
    ("symmetric", 3),
    ("quaternion8", None),
]


def leibniz_det(m: Matrix) -> Fraction:
    total = F(0)
    n = m.rows
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


class TestProjectInvariants:
    def test_trivial_group_keeps_everything(self, dual_numbers):
        basis = orbifold_algebra(dual_numbers).basis
        assert len(basis) == 2

    def test_s3_dimension_is_class_count(self, s3, s3_algebra):
        basis = orbifold_algebra(s3_algebra).basis
        assert len(basis) == len(conjugacy(s3).classes) == 3

    def test_s3_basis_is_class_sums(self, s3, s3_algebra):
        # oracle: indicator vectors of the brute-force conjugacy classes
        classes = conjugacy(s3).classes
        expected = {
            tuple(F(1) if g in cls else F(0) for g in s3.elements()) for cls in classes
        }
        assert set(orbifold_algebra(s3_algebra).basis) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_abelian_group_keeps_everything(self, n):
        a = group_algebra(builtin("cyclic", n))
        assert len(orbifold_algebra(a).basis) == n

    def test_projector_is_idempotent(self, s3_algebra):
        p = invariant_projector(s3_algebra)
        assert p @ p == p


class TestOrbifoldAlgebra:
    def test_s3_is_class_algebra(self, s3, s3_algebra):
        orb = orbifold_algebra(s3_algebra)
        assert orb.dimension == 3
        assert orb.certification.passed

    @pytest.mark.parametrize(
        "fixture", ["s3_algebra", "rich_s3", "rescaled_s3", "rescaled_rich_s3", "zero_grade_z3"]
    )
    def test_product_matches_total_space_product(self, request, fixture):
        # oracle: multiply invariant basis vectors directly in the parent
        # algebra, grade by grade over the whole total space
        a = request.getfixturevalue(fixture)
        orb = orbifold_algebra(a)
        assert orb.certification.passed
        offsets, _ = _offsets(a)
        for i, vi in enumerate(orb.basis):
            for j, vj in enumerate(orb.basis):
                direct = multiply_total(a, offsets, vi, vj)
                recombined = [F(0)] * len(direct)
                for k in range(orb.dimension):
                    c = orb.trivial.product[(0, 0)][(i, j, k)]
                    if c:
                        for idx, value in enumerate(orb.basis[k]):
                            recombined[idx] += c * value
                assert tuple(recombined) == direct

    def test_trivial_group_returns_same_algebra(self, dual_numbers):
        orb = orbifold_algebra(dual_numbers)
        assert orb.dimension == 2
        assert orb.trivial.product[(0, 0)] == dual_numbers.product[(0, 0)]
        assert orb.trivial.trace == dual_numbers.trace

    @pytest.mark.parametrize("name,param", CRITERION_GROUPS)
    def test_certified_for_builtins(self, name, param):
        group = builtin(name, param)
        orb = orbifold_algebra(group_algebra(group))
        assert orb.certification.passed
        assert orb.dimension == len(conjugacy(group).classes)
        # nondegeneracy double-checked by an independent determinant
        d = orb.dimension
        gram = Matrix(
            d,
            d,
            [
                [
                    sum(
                        (
                            orb.trivial.product[(0, 0)][(i, j, k)] * orb.trivial.trace[k]
                            for k in range(d)
                        ),
                        F(0),
                    )
                    for j in range(d)
                ]
                for i in range(d)
            ],
        )
        assert leibniz_det(gram) != 0

    def test_commutativity_exact(self, q8):
        orb = orbifold_algebra(group_algebra(q8))
        d = orb.dimension
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    assert orb.trivial.product[(0, 0)][(i, j, k)] == orb.trivial.product[(0, 0)][(j, i, k)]

    def test_resulting_algebra_passes_checker(self, s3_algebra):
        triv = orbifold_algebra(s3_algebra).trivial
        assert check_axioms(triv).passed

    def test_trivial_algebra_is_built_once(self, monkeypatch, capsys):
        built = []
        real = gtqft.orbifold.frobenius_untwisted
        monkeypatch.setattr(
            gtqft.orbifold, "frobenius_untwisted", lambda *args: built.append(args) or real(*args)
        )
        argv = ["orbifold", "--group", "symmetric:3", "--algebra", "builtin:group-algebra"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["dims"] == {"e": 3}
        assert len(built) == 1

    def test_rich_algebra_orbifold(self, rich_s3):
        orb = orbifold_algebra(rich_s3)
        assert orb.certification.passed
        assert orb.dimension == 6  # three classes, two dimensions each

    def test_closure_reports_first_product_outside_the_span(self, z4):
        # the action of g1 flips delta_g3 and those of g2, g3 kill it, so the
        # invariants are delta_e, delta_g1, delta_g2, and both products
        # delta_g1 * delta_g2 and delta_g2 * delta_g1 land on delta_g3
        a = group_algebra(z4)
        action = dict(a.action)
        for k, value in ((1, -1), (2, 0), (3, 0)):
            action[(k, 3)] = Matrix.from_rows([[value]])
        broken = GFrobeniusAlgebra(z4, a.dims, a.product, action, a.unit, a.trace)
        orb = orbifold_algebra(broken)
        assert orb.basis == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        entry = orb.certification.entry("orbifold-closure")
        assert not entry.passed
        assert entry.witness.context == (("i", "1"), ("j", "2"))
        assert entry.witness.left == "(0, 0, 0, 1)"
        # the failed products are zero-filled and every later entry still runs
        assert [orb.trivial.product[(0, 0)][(1, 2, k)] for k in range(3)] == [0, 0, 0]
        assert [orb.trivial.product[(0, 0)][(2, 1, k)] for k in range(3)] == [0, 0, 0]
        assert [e.name for e in orb.certification.entries] == [
            "orbifold-closure",
            "orbifold-commutativity",
            "orbifold-associativity",
            "orbifold-unit",
            "orbifold-trace-nondegenerate",
            "orbifold-invariance",
        ]

    @pytest.mark.parametrize(
        "block,witness",
        [
            # the identity acts as 2 on grade p102: the class sum of the
            # transpositions, basis vector 2, is doubled on that grade
            (("e", "p102"), ("e", "2", "(0, 0, 2, 0, 0, 0)", "(0, 0, 1, 0, 0, 0)")),
            # p021 doubles delta_e: every other entry passes
            (("p021", "e"), ("p021", "0", "(2, 0, 0, 0, 0, 0)", "(1, 0, 0, 0, 0, 0)")),
        ],
        ids=["identity-doubles-p102", "p021-doubles-e"],
    )
    def test_non_invariant_basis_is_reported(self, s3, block, witness):
        a = group_algebra(s3)
        action = dict(a.action)
        action[tuple(s3.index(name) for name in block)] = Matrix.from_rows([[2]])
        broken = GFrobeniusAlgebra(s3, a.dims, a.product, action, a.unit, a.trace)
        certification = orbifold_algebra(broken).certification
        assert [e.name for e in certification.failures()] == ["orbifold-invariance"]
        entry = certification.entry("orbifold-invariance")
        k, i, left, right = witness
        assert entry.witness == Witness((("k", k), ("i", i)), left, right)

    @pytest.mark.parametrize(
        "block,error",
        [
            (("e", "s0"), "class expansion leaves the invariant span: (0, 0, 0, 0, 2, 0, 1, 0)"),
            (("r1", "s2"), "restriction leaves the invariant span: (1)"),
        ],
    )
    def test_sector_witness_quotes_the_vector(self, twisted_d4, block, error):
        # one action block of twisted D4 doubled: the sector vector it moves
        # leaves the invariant span, or an invariant vector's representative
        # part leaves its sector, and the sector reference quotes that
        # vector; the orbifold finds a basis vector that the block moves
        group = twisted_d4.group
        key = tuple(group.index(name) for name in block)
        action = dict(twisted_d4.action)
        action[key] = Matrix.from_rows([[2 * x for x in row] for row in action[key].data])
        broken = GFrobeniusAlgebra(
            group, twisted_d4.dims, twisted_d4.product, action, twisted_d4.unit, twisted_d4.trace
        )
        assert law_oracle.sector_change_of_basis(broken) == error
        entry = orbifold_algebra(broken).certification.entry("orbifold-invariance")
        assert not entry.passed and entry.witness.context[0] == ("k", block[0])

    def test_passing_certification_has_six_entries(self, s3_algebra):
        orb = orbifold_algebra(s3_algebra)
        assert len(orb.certification.entries) == 6
        assert orb.certification.entries[-1] == CheckEntry("orbifold-invariance", True)


def _sectors(a: GFrobeniusAlgebra) -> tuple[Matrix, Matrix]:
    """The (expand, restrict) change of basis of the `Fraction` sector
    reference between the sectors and the orbifold's invariant basis."""
    return law_oracle.sector_change_of_basis(a)


class TestSectorIsomorphism:
    def test_trivial_group_identity(self, dual_numbers):
        expand, restrict = _sectors(dual_numbers)
        assert expand == Matrix.identity(2)
        assert restrict == Matrix.identity(2)

    def test_s3_expands_representatives_to_class_sums(self, s3, s3_algebra):
        expand, restrict = _sectors(s3_algebra)
        d = len(conjugacy(s3).classes)
        assert expand @ restrict == Matrix.identity(d)
        assert restrict @ expand == Matrix.identity(d)
        # the invariant basis is exactly the class sums, so expansion of each
        # one-dimensional representative sector hits one basis vector
        assert expand == Matrix.identity(d)

    @pytest.mark.parametrize("name,param", CRITERION_GROUPS)
    def test_round_trip_identity(self, name, param):
        a = group_algebra(builtin(name, param))
        expand, restrict = _sectors(a)
        assert expand.rows == expand.cols  # sector and invariant dims agree
        assert expand @ restrict == Matrix.identity(expand.rows)
        assert restrict @ expand == Matrix.identity(expand.rows)

    def test_rich_round_trip(self, rich_s3):
        expand, restrict = _sectors(rich_s3)
        assert expand @ restrict == Matrix.identity(expand.rows)
        assert restrict @ expand == Matrix.identity(expand.rows)


# --- the int rows against the Fraction route -------------------------------

SAVED_ALGEBRAS = json.loads((Path(__file__).parent / "saved_algebras.json").read_text())
ORACLE_FIXTURES = [
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
MUTATED_FIXTURES = ["rich_s3", "rescaled_rich_s3", "twisted_d4"]
ORBIFOLD_LAWS = (
    "orbifold-closure",
    "orbifold-commutativity",
    "orbifold-associativity",
    "orbifold-unit",
)


def assert_matches_the_fraction_route(a: GFrobeniusAlgebra):
    """Assert that the certification and the saved invariant algebra of `a`
    are those of the `Fraction` route, and that the invariant algebra's
    product int image, which the orbifold hands over, is the one
    `int_image` builds; returns the certification."""
    orb = orbifold_algebra(a)
    certification, trivial = law_oracle.orbifold_reference(a)
    assert repr(orb.certification) == repr(certification)
    assert save_algebra(orb.trivial) == save_algebra(trivial)
    assert orb.trivial._built["product"] == int_image(orb.trivial.product)
    return orb.certification


class TestFractionRoute:
    @pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
    def test_fixture(self, request, fixture):
        assert_matches_the_fraction_route(request.getfixturevalue(fixture))

    @pytest.mark.parametrize("name,param", CRITERION_GROUPS)
    def test_group_algebra(self, name, param):
        assert_matches_the_fraction_route(group_algebra(builtin(name, param)))

    @pytest.mark.parametrize("name", sorted(SAVED_ALGEBRAS))
    def test_saved_algebra(self, name):
        assert_matches_the_fraction_route(load_algebra(SAVED_ALGEBRAS[name]))

    def test_no_invariants(self):
        # a zero-dimensional identity grade and no action: nothing is
        # invariant, and both changes of basis of the sector reference are 0x0
        doc = {"group": "cyclic:2", "dims": {"e": 0, "g1": 1}, "unit": [], "trace": []}
        assert_matches_the_fraction_route(load_algebra(doc))
        for m in law_oracle.sector_change_of_basis(load_algebra(doc)):
            assert (m.rows, m.cols, m.data) == (0, 0, ())

    def test_single_entry_mutations(self, request):
        # every third entry of the product, action, unit and trace tables,
        # so that every table is reached; for each law, whether it failed
        # with a witness over a denominator other than 1
        fractional: dict[str, bool] = {}
        for fixture in MUTATED_FIXTURES:
            base = request.getfixturevalue(fixture)
            for site in itertools.islice(sites(base), 0, None, 3):
                for delta in (F(1), F(-1, 2)):
                    mutant = mutated(base, site, value_at(base, site) + delta)
                    for failure in assert_matches_the_fraction_route(mutant).failures():
                        seen = "/" in failure.witness.left + failure.witness.right
                        fractional[failure.name] = fractional.get(failure.name, False) or seen
        assert all(fractional.get(name) for name in ORBIFOLD_LAWS), fractional

    def test_twisted_action_sweep(self, twisted_d4):
        # every action entry of twisted D4 set to each value: each
        # certification is the Fraction route's, the sector reference fails
        # in each of its three ways, and the orbifold fails wherever it does
        sector_errors: dict[str, int] = {}
        not_invariant = 0
        for site in sites(twisted_d4):
            if site[0] != "action":
                continue
            for value in (F(2), F(-1, 2), F(0), F(1)):
                mutant = mutated(twisted_d4, site, value)
                certification = assert_matches_the_fraction_route(mutant)
                not_invariant += not certification.entry("orbifold-invariance").passed
                error = law_oracle.sector_change_of_basis(mutant)
                if isinstance(error, str):
                    assert not certification.passed, (site, value, error)
                    error = error.split(":")[0]
                    sector_errors[error] = sector_errors.get(error, 0) + 1
        assert sector_errors == {
            "class expansion leaves the invariant span": 28,
            "restriction leaves the invariant span": 28,
            "sector change of basis failed to invert": 118,
        }
        assert not_invariant == 220


# fixture -> its single-entry action mutants (x + 1 and -x/2, or -1/2 for
# x = 0), and how many of them pass the sector reference and every
# orbifold entry but invariance
ACTION_MUTANTS = [("s3_algebra", 72, 10), ("rich_s3", 288, 40), ("twisted_d4", 128, 14)]


@pytest.mark.parametrize("fixture,mutants,hidden", ACTION_MUTANTS)
def test_only_invariance_sees_a_moved_basis(request, fixture, mutants, hidden):
    # the mutants whose action is no action and whose basis, the projector
    # image, is not invariant, while the sectors still map onto it: only
    # the invariance entry fails on them
    base = request.getfixturevalue(fixture)
    drawn = 0
    unseen = []
    for site in sites(base):
        if site[0] != "action":
            continue
        x = value_at(base, site)
        for value in (x + 1, -x / 2 if x else F(-1, 2)):
            mutant = mutated(base, site, value)
            drawn += 1
            failed = {e.name for e in orbifold_algebra(mutant).certification.failures()}
            sectors = law_oracle.sector_change_of_basis(mutant)
            if failed <= {"orbifold-invariance"} and not isinstance(sectors, str):
                unseen.append(failed)
    assert drawn == mutants
    assert unseen == [{"orbifold-invariance"}] * hidden
