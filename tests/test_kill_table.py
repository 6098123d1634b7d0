"""Every check entry can fail, and no field theory check fails on an
algebra that passes every law.

The kill table (see `kill_table`) of three fixtures: the dual-number Z3
algebra and twisted Klein run every Cerf row; the S3 group algebra runs
none, and is here because it is the one fixture with mutants that fail
`orbifold-closure` and `orbifold-trace-nondegenerate`.  The `Fraction`
sector change of basis (`law_oracle.sector_change_of_basis`), which the
orbifold no longer runs, fails on no mutant that the orbifold passes.
"""

import pytest

import law_oracle
from conftest import dual_number_group_algebra, mutated
from gtqft import GFrobeniusAlgebra, check_axioms, load_algebra, save_algebra
from gtqft.cobordism import CERF_CASES
from gtqft.exactlin import Matrix, Tensor3
from kill_table import kills, outcomes

ORBIFOLD = (
    "orbifold-closure",
    "orbifold-commutativity",
    "orbifold-associativity",
    "orbifold-unit",
    "orbifold-trace-nondegenerate",
    "orbifold-invariance",
)


@pytest.fixture(scope="module")
def fixtures(z3, twisted_klein, s3_algebra):
    """Name -> (algebra, the Cerf rows it runs)."""
    return {
        "dual-number-z3": (dual_number_group_algebra(z3), CERF_CASES),
        "twisted-klein": (twisted_klein, CERF_CASES),
        "s3": (s3_algebra, ()),
    }


@pytest.fixture(scope="module")
def tables(fixtures):
    return {name: kills(a, cases) for name, (a, cases) in fixtures.items()}


@pytest.fixture(scope="module")
def laws(fixtures):
    return {entry.name for entry in check_axioms(fixtures["s3"][0]).entries}


def test_every_entry_fails_on_some_mutant(fixtures, tables, laws):
    entries = {
        *laws, "derive", "frobenius-relation", "twisted-cocommutativity",
        *(f"cerf-{case}" for case in CERF_CASES), *ORBIFOLD,
    }
    assert len(laws) == 10
    for a, cases in fixtures.values():
        # each fixture passes every entry it runs, so a failure is the mutant's
        ran = outcomes(a, cases)
        assert all(ran.values()) and set(ran) <= entries
    killed = {name for table in tables.values() for failed in table.values() for name in failed}
    assert entries - killed == set()


def test_shared_blocks_hide_no_mutant(fixtures, tables):
    # a loaded dual-number Z3 holds one object for its nine equal product
    # blocks and one for its nine action blocks; a mutant of one of them
    # must fail the same entries as on the fixture, and as on a copy whose
    # eighteen blocks are all separate objects
    a, cases = fixtures["dual-number-z3"]
    loaded = load_algebra(save_algebra(a))
    assert len({id(t) for t in loaded.product.values()}) == 1
    assert len({id(m) for m in loaded.action.values()}) == 1
    apart = GFrobeniusAlgebra(
        a.group,
        a.dims,
        {key: Tensor3._wrap(*t.dims, t.data) for key, t in a.product.items()},
        {key: Matrix._wrap(m.rows, m.cols, m.data) for key, m in a.action.items()},
        a.unit,
        a.trace,
    )
    assert kills(loaded, cases) == kills(apart, cases) == tables["dual-number-z3"]


def test_no_field_theory_check_fails_where_every_law_holds(tables, laws):
    # the algebra -> field theory half of the theorem
    for name, table in tables.items():
        for mutant, failed in table.items():
            if not failed & laws:
                assert not {
                    entry for entry in failed
                    if entry == "derive" or entry.startswith(("cerf-", "orbifold-"))
                }, (name, mutant, failed)


def test_the_sector_reference_fails_only_where_the_orbifold_does(fixtures, tables):
    caught = 0
    for name, table in tables.items():
        a, _ = fixtures[name]
        for (site, value), failed in table.items():
            if isinstance(law_oracle.sector_change_of_basis(mutated(a, site, value)), str):
                assert failed & set(ORBIFOLD), (name, site, value)
                caught += 1
    assert caught
