import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gtqft import (
    GFrobeniusAlgebra,
    builtin,
    check_axioms,
    check_cocommutativity,
    check_frobenius_diagram,
    derive,
    frobenius_untwisted,
    group_algebra,
    load_algebra,
    save_algebra,
)
import gtqft.algebra
import gtqft.errors
from gtqft.algebra import DerivedStructure, pairing_matrix
from gtqft.errors import (
    BudgetExceeded,
    CoproductMismatch,
    DegeneratePairing,
    SchemaError,
    ShapeError,
)
from gtqft.exactlin import Matrix, Tensor3, basis_vector, batch_columns
from law_oracle import action_on_dual_basis_check, derive_coproducts
from test_row_laws import derived, mixed_dims_algebra, package_coproducts

F = Fraction

# Documents saved before `save_algebra` read its entries through
# `exactlin.nonzero_entries`: blocks in table order, entries row-major.
SAVED_ALGEBRAS = json.loads((Path(__file__).parent / "saved_algebras.json").read_text())

CRITERION_GROUPS = [
    ("cyclic", 1),
    ("cyclic", 2),
    ("cyclic", 3),
    ("cyclic", 4),
    ("cyclic", 5),
    ("cyclic", 6),
    ("dihedral", 3),
    ("dihedral", 4),
    ("symmetric", 3),
    ("quaternion8", None),
]


def trivial_algebra_doc(group_spec="cyclic:2"):
    return {
        "group": group_spec,
        "dims": {"e": 1},
        "product": [{"g": "e", "h": "e", "i": 0, "j": 0, "k": 0, "value": "1"}],
        "action": [
            {"k": "e", "g": "e", "i": 0, "j": 0, "value": "1"},
            {"k": "g1", "g": "e", "i": 0, "j": 0, "value": "1"},
        ],
        "unit": ["1"],
        "trace": ["1"],
    }


class TestLoad:
    def test_trivial_algebra_loads(self):
        # loading is shape-only validation; this document is well-formed
        a = load_algebra(trivial_algebra_doc())
        assert a.dims == (1, 0)
        assert a.unit == (F(1),) and a.trace == (F(1),)
        # concentrating everything at the identity over a larger group breaks
        # the torus law (the empty grade has no dual-basis sum on one side)
        report = check_axioms(a)
        assert not report.entry("torus-identity").passed

    def test_trivial_algebra_over_trivial_group(self):
        doc = trivial_algebra_doc("cyclic:1")
        doc["action"] = [{"k": "e", "g": "e", "i": 0, "j": 0, "value": "1"}]
        a = load_algebra(doc)
        assert check_axioms(a).passed

    def test_entry_outside_target_component(self):
        doc = trivial_algebra_doc()
        # a coefficient for g1*g1 would land in the e component, but the
        # (g1, g1) inputs themselves have dimension zero
        doc["product"].append({"g": "g1", "h": "g1", "i": 0, "j": 0, "k": 0, "value": "1"})
        with pytest.raises(ShapeError):
            load_algebra(doc)

    def test_target_index_out_of_range(self):
        doc = trivial_algebra_doc()
        doc["product"].append({"g": "e", "h": "e", "i": 0, "j": 0, "k": 1, "value": "1"})
        with pytest.raises(ShapeError, match="lands outside"):
            load_algebra(doc)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.update(group=7),
            lambda d: d.update(dims=[1]),
            lambda d: d["product"][0].update(value="1.5"),
            lambda d: d["product"][0].update(g="nope"),
            lambda d: d.update(unit=["1", "2"]),
            lambda d: d["product"].append(dict(d["product"][0])),
        ],
    )
    def test_schema_errors(self, mangle):
        doc = trivial_algebra_doc()
        mangle(doc)
        with pytest.raises(SchemaError):
            load_algebra(doc)

    def test_round_trip_s3(self, s3):
        a = group_algebra(s3)
        assert load_algebra(save_algebra(a)) == a

    def test_round_trip_rich(self, rich_s3):
        assert load_algebra(save_algebra(rich_s3)) == rich_s3

    def test_equal_cells_load_as_one_block(self, s3):
        doc = save_algebra(group_algebra(s3))
        a = load_algebra(doc)
        assert len({id(t) for t in a.product.values()}) == 1
        assert len({id(m) for m in a.action.values()}) == 1
        # the one product entry p021 * p021 set to 2: that block is its own
        # object, and the other 35 are still one
        key = (s3.index("p021"), s3.index("p021"))
        (entry,) = (e for e in doc["product"] if (e["g"], e["h"]) == ("p021", "p021"))
        entry["value"] = "2"
        b = load_algebra(doc)
        others = {id(t) for k, t in b.product.items() if k != key}
        assert len(others) == 1 and id(b.product[key]) not in others
        assert b.product[key][(0, 0, 0)] == 2
        assert b.action == a.action

    def test_equal_cells_of_two_shapes_load_as_two_blocks(self):
        # the cell {(0, 0): 1} on the one-dimensional grade e and on the
        # two-dimensional grade g1
        doc = trivial_algebra_doc()
        doc["dims"] = {"e": 1, "g1": 2}
        doc["action"] = [
            {"k": k, "g": g, "i": 0, "j": 0, "value": "1"} for k in ("e", "g1") for g in ("e", "g1")
        ]
        a = load_algebra(doc)
        assert a.action[(0, 0)] is a.action[(1, 0)]
        assert a.action[(0, 1)] is a.action[(1, 1)] is not a.action[(0, 0)]
        assert a.action[(0, 1)] == Matrix.from_rows([[1, 0], [0, 0]])

    def test_missing_blocks_of_one_shape_are_one_zero_block(self, s3):
        a = GFrobeniusAlgebra(s3, (1,) * 6, {}, {}, (1,), (1,))
        assert len({id(t) for t in a.product.values()}) == 1
        assert len({id(m) for m in a.action.values()}) == 1
        assert a.product[(0, 0)] == Tensor3.zeros(1, 1, 1)
        assert a.action[(0, 0)] == Matrix.zeros(1, 1)

    @pytest.mark.parametrize("name", sorted(SAVED_ALGEBRAS))
    def test_saved_documents_round_trip(self, name):
        assert save_algebra(load_algebra(SAVED_ALGEBRAS[name])) == SAVED_ALGEBRAS[name]

    def test_saved_entry_order_is_pinned(self, rescaled_rich_s3):
        """Blocks of different shapes (mixed-z2) and non-integer entries
        (rescaled-rich-s3) keep their saved order and bytes."""
        saved = {"mixed-z2": mixed_dims_algebra(), "rescaled-rich-s3": rescaled_rich_s3}
        for name, a in saved.items():
            assert json.dumps(save_algebra(a)) == json.dumps(SAVED_ALGEBRAS[name]), name
            assert load_algebra(save_algebra(a)) == a


# One bad field in the second entry of "product" or "action" on
# `entry_error_doc`: (table, field, value or MISSING, error, message).  A
# field is replaced, a MISSING one deleted; field None replaces the whole
# entry, and "duplicate" repeats it.
MISSING = object()
NAMES = 'element references must be name strings'
SCALARS = 'scalar values must be strings like "p/q" or integers'
ENTRY_ERRORS = [
    ("product", None, 5, SchemaError, "product[1]: entries must be objects"),
    *[
        ("product", field, bad, SchemaError, f"product[1]: {NAMES}")
        for field in ("g", "h")
        for bad in (MISSING, 3, ["e"])
    ],
    ("product", "g", "zz", SchemaError, "product[1]: unknown element name 'zz'"),
    ("product", "h", "zz", SchemaError, "product[1]: unknown element name 'zz'"),
    *[
        ("product", field, bad, SchemaError, f"product[1]: field {field!r} must be an integer index")
        for field in ("i", "j", "k")
        for bad in (MISSING, True, 1.0, "1")
    ],
    ("product", "i", 2, ShapeError,
     "product[1]: basis index (2, 0) outside components of dimension (2, 2)"),
    ("product", "j", 2, ShapeError,
     "product[1]: basis index (1, 2) outside components of dimension (2, 2)"),
    ("product", "k", 2, ShapeError,
     "product[1]: target index 2 lands outside the e component of dimension 1"),
    ("product", "value", MISSING, SchemaError, f"product[1]: {SCALARS}"),
    ("product", "value", True, SchemaError, "product[1]: boolean is not a scalar"),
    ("product", "value", 1.0, SchemaError, f"product[1]: {SCALARS}"),
    ("product", "value", ["1"], SchemaError, f"product[1]: {SCALARS}"),
    ("product", "value", "1.5", SchemaError, "product[1]: not a rational literal: '1.5'"),
    ("product", "value", "1/0", SchemaError, "product[1]: not a rational literal: '1/0'"),
    ("product", "duplicate", None, SchemaError, "product[2]: duplicate product coordinate"),
    ("action", None, 5, SchemaError, "action[1]: entries must be objects"),
    *[
        ("action", field, bad, SchemaError, f"action[1]: {NAMES}")
        for field in ("k", "g")
        for bad in (MISSING, 3, ["e"])
    ],
    ("action", "k", "zz", SchemaError, "action[1]: unknown element name 'zz'"),
    ("action", "g", "zz", SchemaError, "action[1]: unknown element name 'zz'"),
    *[
        ("action", field, bad, SchemaError, f"action[1]: field {field!r} must be an integer index")
        for field in ("i", "j")
        for bad in (MISSING, True, 1.0, "1")
    ],
    ("action", "i", 2, ShapeError,
     "action[1]: row index 2 lands outside the g1 component of dimension 2"),
    ("action", "j", 2, ShapeError,
     "action[1]: column index 2 outside a component of dimension 2"),
    ("action", "value", MISSING, SchemaError, f"action[1]: {SCALARS}"),
    ("action", "value", True, SchemaError, "action[1]: boolean is not a scalar"),
    ("action", "value", 1.0, SchemaError, f"action[1]: {SCALARS}"),
    ("action", "value", ["1"], SchemaError, f"action[1]: {SCALARS}"),
    ("action", "value", "1.5", SchemaError, "action[1]: not a rational literal: '1.5'"),
    ("action", "value", "1/0", SchemaError, "action[1]: not a rational literal: '1/0'"),
    ("action", "duplicate", None, SchemaError, "action[2]: duplicate action coordinate"),
]


def entry_error_doc():
    """cyclic:2 with dims (1, 2); the first entry of each table has the int
    value 1, so a later True or 1.0 meets a parsed literal equal to it."""
    return {
        "group": "cyclic:2",
        "dims": {"e": 1, "g1": 2},
        "product": [
            {"g": "e", "h": "e", "i": 0, "j": 0, "k": 0, "value": 1},
            {"g": "g1", "h": "g1", "i": 1, "j": 0, "k": 0, "value": "1/2"},
        ],
        "action": [
            {"k": "e", "g": "e", "i": 0, "j": 0, "value": 1},
            {"k": "g1", "g": "g1", "i": 1, "j": 0, "value": "1/2"},
        ],
        "unit": ["1"],
        "trace": ["1"],
    }


class TestLoadErrors:
    """Each bad field of an entry raises its own error type and message,
    and the first fault in document order is the one reported."""

    @pytest.mark.parametrize("table,field,bad,error,message", ENTRY_ERRORS)
    def test_one_bad_field(self, table, field, bad, error, message):
        doc = entry_error_doc()
        entries = doc[table]
        if field is None:
            entries[1] = bad
        elif field == "duplicate":
            entries.append(dict(entries[1]))
        elif bad is MISSING:
            del entries[1][field]
        else:
            entries[1][field] = bad
        with pytest.raises(error) as info:
            load_algebra(doc)
        assert type(info.value) is error and str(info.value) == message

    def test_first_field_of_an_entry_first(self):
        doc = entry_error_doc()
        doc["product"][1].update(h="zz", k=True, value="x")
        with pytest.raises(SchemaError, match=r"^product\[1\]: unknown element name 'zz'$"):
            load_algebra(doc)
        doc["product"][1].update(h="g1", i=7)
        with pytest.raises(SchemaError, match=r"^product\[1\]: field 'k' must be"):
            load_algebra(doc)

    def test_first_entry_first(self):
        doc = entry_error_doc()
        doc["product"].append({"g": "e", "h": "e", "i": 0, "j": 0, "k": 0, "value": "1.5"})
        doc["product"][1]["value"] = "1/0"
        doc["action"][0]["value"] = True
        with pytest.raises(SchemaError, match=r"^product\[1\]: not a rational literal: '1/0'$"):
            load_algebra(doc)

    def test_equal_values_load_as_one_block(self):
        # "1/2" and "2/4" are one value, and so are 1 and "1": the blocks
        # (g1, g1) of the four documents are one object in each pair
        spelled = [("1/2", 1), ("2/4", "1"), ("1/2", "1"), ("2/4", 1)]
        loaded = []
        for half, one in spelled:
            doc = entry_error_doc()
            doc["action"] = [
                {"k": k, "g": "g1", "i": 1, "j": 0, "value": v}
                for k, v in (("e", "1/2"), ("g1", half))
            ] + [{"k": k, "g": "g1", "i": 0, "j": 0, "value": one} for k in ("e", "g1")]
            a = load_algebra(doc)
            assert a.action[(0, 1)] is a.action[(1, 1)]
            loaded.append(a.action[(0, 1)])
        assert all(m == Matrix.from_rows([[1, 0], [F(1, 2), 0]]) for m in loaded)

    def test_from_entries_converts_ints_and_keeps_fractions(self):
        half = F(1, 2)
        t = Tensor3.from_entries(1, 1, 2, {(0, 0, 0): 1, (0, 0, 1): half})
        m = Matrix.from_entries(1, 2, {(0, 0): 1, (0, 1): half})
        for row in (t.data[0][0], m.data[0]):
            assert type(row[0]) is F and row[0] == 1
            assert row[1] is half


# whole-document faults, each a SchemaError: (change to trivial_algebra_doc,
# message); also run through `gtqft check --algebra` in test_cli
DOCUMENT_ERRORS = {
    "not-an-object": (lambda d: [d], "algebra document must be an object"),
    "negative-dims": (
        lambda d: {**d, "dims": {"e": -1}},
        "dims['e'] must be a non-negative integer",
    ),
    "product-not-a-list": (
        lambda d: {**d, "product": {}},
        'algebra "product" must be a list of entries',
    ),
    "action-not-a-list": (
        lambda d: {**d, "action": "e"},
        'algebra "action" must be a list of entries',
    ),
    "trace-length": (
        lambda d: {**d, "trace": ["1", "1"]},
        'algebra "trace" must be a list of 1 scalars',
    ),
    "group-names": (
        lambda d: {**d, "group": {"names": "ea", "table": [[0, 1], [1, 0]]}},
        'group "names" must be a list of strings',
    ),
    "group-table": (
        lambda d: {**d, "group": {"names": ["e", "g1"], "table": [0, 1]}},
        'group "table" must be a list of index rows',
    ),
}


class TestDocumentErrors:
    @pytest.mark.parametrize("change,message", DOCUMENT_ERRORS.values(), ids=DOCUMENT_ERRORS.keys())
    def test_document_error(self, change, message):
        with pytest.raises(SchemaError) as info:
            load_algebra(change(trivial_algebra_doc()))
        assert type(info.value) is SchemaError and str(info.value) == message
        assert info.value.category == "parse"


class TestConstructorErrors:
    """`GFrobeniusAlgebra` refuses data of the wrong shape with a
    ShapeError, and converts no dimension: a float or a bool is refused."""

    @pytest.mark.parametrize(
        "change,message",
        [
            (dict(dims=(1,)), "got 1 dimensions for 2 group elements"),
            (dict(dims=(1, 1, 1)), "got 3 dimensions for 2 group elements"),
            (dict(dims=(1, -1)), "component dimensions must be non-negative integers"),
            (dict(dims=(1.7, 1)), "component dimensions must be non-negative integers"),
            (dict(dims=(1, 1.0)), "component dimensions must be non-negative integers"),
            (dict(dims=(True, 1)), "component dimensions must be non-negative integers"),
            (
                dict(product={(0, 1): Tensor3.zeros(1, 1, 2)}),
                "product tensor for (e, g1) has shape (1, 1, 2), expected (1, 1, 1)",
            ),
            (
                dict(action={(1, 0): Matrix.zeros(2, 1)}),
                "action block for (g1, e) has shape 2x1, expected 1x1",
            ),
            (dict(unit=(1, 1)), "unit vector has length 2, expected 1"),
            (dict(trace=()), "trace covector has length 0, expected 1"),
        ],
    )
    def test_shape_error(self, z2_algebra, change, message):
        a = z2_algebra
        data = dict(dims=a.dims, product={}, action={}, unit=a.unit, trace=a.trace)
        data.update(change)
        with pytest.raises(ShapeError) as info:
            GFrobeniusAlgebra(a.group, **data)
        assert type(info.value) is ShapeError and str(info.value) == message
        assert info.value.category == "type"


class TestLoadBudget:
    """The cells of a document's blocks are counted before any entry is
    read or block built.  Only small documents are loaded here: each test
    lowers the work budget below their count and makes building a block
    raise."""

    # product (e, e) and action (e, e), (g1, e); the g1 grade is empty
    CELLS = 3

    @pytest.fixture
    def no_blocks(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a block was built")

        for cls in (Tensor3, Matrix):
            for name in ("__init__", "zeros", "from_entries"):
                monkeypatch.setattr(cls, name, refuse)

    def test_over_the_budget(self, monkeypatch, no_blocks):
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", self.CELLS - 1)
        with pytest.raises(BudgetExceeded, match="^3 table cells exceed the budget of 2$"):
            load_algebra(trivial_algebra_doc())

    def test_before_any_entry_is_read(self, monkeypatch, no_blocks):
        doc = trivial_algebra_doc()
        doc["product"][0]["value"] = "1.5"  # a parse error, had it been read
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", self.CELLS - 1)
        with pytest.raises(BudgetExceeded):
            load_algebra(doc)

    def test_at_the_budget(self, monkeypatch):
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", self.CELLS)
        assert load_algebra(trivial_algebra_doc()).dims == (1, 0)

    def test_action_cells_are_counted(self, monkeypatch, request):
        # product 1 + 4 + 4 + 4 cells and action 1 + 4 + 1 + 4 cells
        doc = save_algebra(mixed_dims_algebra())
        request.getfixturevalue("no_blocks")
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", 22)
        with pytest.raises(BudgetExceeded, match="^23 table cells exceed the budget of 22$"):
            load_algebra(doc)


class TestGroupAlgebra:
    def test_trivial_group(self, trivial_group):
        a = group_algebra(trivial_group)
        assert a.dims == (1,)
        assert a.trace == (F(1),)

    def test_z2_pairing(self, z2):
        a = group_algebra(z2)
        assert a.dims == (1, 1)
        assert a.apply_product(1, 1, (F(1),), (F(1),)) == (F(1),)
        assert pairing_matrix(a, 1) == Matrix.identity(1)

    def test_s3_passes_checker(self, s3_algebra):
        report = check_axioms(s3_algebra)
        assert report.passed, report.failures()

    @pytest.mark.parametrize("name,param", CRITERION_GROUPS)
    def test_all_builtins_pass(self, name, param):
        assert check_axioms(group_algebra(builtin(name, param))).passed


class TestUntwisted:
    def test_ground_field(self):
        a = frobenius_untwisted(1, Tensor3.from_entries(1, 1, 1, {(0, 0, 0): 1}), (1,), (1,))
        assert check_axioms(a).passed

    def test_dual_numbers_pass(self, dual_numbers):
        assert check_axioms(dual_numbers).passed

    def test_dual_numbers_wrong_trace_degenerate(self):
        # trace (1, 0) pairs (1,1)->1, (1,x)->0, (x,x)->0: Gram matrix singular
        product = Tensor3.from_entries(2, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
        a = frobenius_untwisted(2, product, (1, 0), (1, 0))
        gram = pairing_matrix(a, 0)
        assert gram.det() == 0  # independent determinant computation
        report = check_axioms(a)
        assert not report.entry("pairing-nondegenerate").passed
        with pytest.raises(DegeneratePairing):
            derive(a)

    @pytest.mark.xfail(
        raises=IndexError,
        strict=True,
        reason="witnesses name basis indices through group.name (ROADMAP item 1)",
    )
    def test_a_witness_names_a_basis_index_past_the_group(self):
        # x * 1 = 2x breaks associativity over the one-element group, and
        # the witness names basis index 1
        product = Tensor3.from_entries(2, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 2})
        report = check_axioms(frobenius_untwisted(2, product, (1, 0), (0, 1)))
        assert not report.passed


def mutated_group_algebra(group, rng) -> GFrobeniusAlgebra:
    """Randomly perturb one product entry, action entry or unit coordinate."""
    a = group_algebra(group)
    n = group.order
    product = dict(a.product)
    action = dict(a.action)
    unit = a.unit
    kind = rng.choice(["product", "action", "unit"])
    new_value = F(rng.choice([0, 2, -1]))
    if kind == "product":
        g, h = rng.randrange(n), rng.randrange(n)
        product[(g, h)] = Tensor3.from_entries(1, 1, 1, {(0, 0, 0): new_value})
    elif kind == "action":
        k, g = rng.randrange(n), rng.randrange(n)
        action[(k, g)] = Matrix.from_rows([[new_value]])
    else:
        unit = (new_value,)
    return GFrobeniusAlgebra(group, a.dims, product, action, unit, a.trace)


def algebra_fails_somewhere(a) -> bool:
    report = check_axioms(a)
    if not report.passed:
        witnessed = [e for e in report.failures() if e.witness is not None]
        assert witnessed, "failures must carry witnesses"
        return True
    try:
        d = derive(a)
    except (DegeneratePairing, CoproductMismatch):
        return True
    return not (
        check_frobenius_diagram(a, d).passed and check_cocommutativity(a, d).passed
    )


class TestCheckAxioms:
    def test_d4_passes(self, d4):
        assert check_axioms(group_algebra(d4)).passed

    def test_zeroed_product_entry_fails(self, s3):
        a = group_algebra(s3)
        product = dict(a.product)
        product[(1, 2)] = Tensor3.zeros(1, 1, 1)
        broken = GFrobeniusAlgebra(s3, a.dims, product, a.action, a.unit, a.trace)
        report = check_axioms(broken)
        assert not report.passed
        bad = report.failures()[0]
        assert bad.witness is not None and bad.witness.context

    def test_scaled_action_on_own_grade_fails(self, z3):
        a = group_algebra(z3)
        action = dict(a.action)
        action[(1, 1)] = Matrix.from_rows([[2]])
        broken = GFrobeniusAlgebra(z3, a.dims, a.product, action, a.unit, a.trace)
        report = check_axioms(broken)
        assert not report.entry("action-trivial-on-own-grade").passed

    def test_dimension_mismatch_reported_as_pairing_failure(self, z3):
        # grades of g and g^-1 must match for the pairing to be square
        dims = (1, 2, 1)
        product = {(0, 0): Tensor3.from_entries(1, 1, 1, {(0, 0, 0): 1})}
        action = {
            (k, g): Matrix.identity(dims[g]) for k in range(3) for g in range(3)
        }
        a = GFrobeniusAlgebra(z3, dims, product, action, (1,), (1,))
        report = check_axioms(a)
        entry = report.entry("pairing-nondegenerate")
        assert not entry.passed
        assert "dim" in entry.witness.left

    def test_mutation_sensitivity(self, s3):
        rng = random.Random(20260810)
        for _ in range(25):
            assert algebra_fails_somewhere(mutated_group_algebra(s3, rng))


class TestDerive:
    def test_group_algebra_coproduct_is_delta_pair(self, s3):
        a = group_algebra(s3)
        d = derive(a)
        # oracle: delta_gh * delta_{h^-1} = delta_g and delta_{g^-1} * delta_gh = delta_h,
        # so the coproduct of the (one) basis vector has single coefficient 1
        for g in s3.elements():
            for h in s3.elements():
                tensor = d.coproducts[(g, h)]
                assert tensor.dims == (1, 1, 1)
                assert tensor[(0, 0, 0)] == 1

    def test_dual_numbers_coproduct_frozen(self, dual_numbers):
        d = derive(dual_numbers)
        t = d.coproducts[(0, 0)]
        # dual basis of (1, x) is (x, 1): coproduct of 1 is 1*x + x*1, of x is x*x
        assert t.data[0] == ((F(0), F(1)), (F(1), F(0)))
        assert t.data[1] == ((F(0), F(0)), (F(0), F(1)))

    def test_group_algebra_euler_elements(self, s3):
        d = derive(group_algebra(s3))
        for g in s3.elements():
            assert d.euler[g] == Matrix.identity(1)

    def test_computed_once_per_algebra(self, rich_s3):
        assert derive(rich_s3) is derive(rich_s3)

    def test_shared_structure_is_read_only(self, rich_s3):
        d = derive(rich_s3)
        with pytest.raises(TypeError):
            d.coproducts[(0, 0)] = d.coproducts[(1, 1)]

    def test_degenerate_pairing_raises_on_every_call(self):
        product = Tensor3.from_entries(2, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
        a = frobenius_untwisted(2, product, (1, 0), (1, 0))
        for _ in range(3):
            with pytest.raises(DegeneratePairing):
                derive(a)

    def test_pairings_inverse_to_dual_bases(self, rich_s3):
        d = derive(rich_s3)
        for g in rich_s3.group.elements():
            dim = rich_s3.dims[g]
            assert d.pairings[g] @ d.euler[g].transpose() == Matrix.identity(dim)


class TestDiagramChecks:
    def test_s3_frobenius_relation(self, s3_algebra):
        d = derive(s3_algebra)
        assert check_frobenius_diagram(s3_algebra, d).passed

    def test_dual_numbers_frobenius_relation(self, dual_numbers):
        d = derive(dual_numbers)
        assert check_frobenius_diagram(dual_numbers, d).passed

    def test_mutated_coproduct_detected(self, s3_algebra):
        # the columns of the true coproducts are built first; the doctored
        # structure is still checked on its own
        d = derive(s3_algebra)
        assert check_frobenius_diagram(s3_algebra, d).passed
        coproducts = dict(d.coproducts)
        coproducts[(1, 2)] = Tensor3.from_entries(1, 1, 1, {(0, 0, 0): 5})
        doctored = DerivedStructure(d.pairings, coproducts, d.euler)
        report = check_frobenius_diagram(s3_algebra, doctored)
        assert not report.passed
        assert report.failures()[0].witness.context
        assert check_frobenius_diagram(s3_algebra, d).passed

    def test_s3_cocommutativity(self, s3_algebra):
        d = derive(s3_algebra)
        assert check_cocommutativity(s3_algebra, d).passed

    def test_abelian_reduces_to_plain_cocommutativity(self, z4):
        a = group_algebra(z4)
        d = derive(a)
        assert check_cocommutativity(a, d).passed
        # for abelian groups the twisted form is literally the swap equation
        for g in z4.elements():
            for h in z4.elements():
                t = d.coproducts[(g, h)]
                swapped = d.coproducts[(h, g)]
                for c in range(t.dim0):
                    for i in range(t.dim1):
                        for j in range(t.dim2):
                            assert t[(c, i, j)] == swapped[(c, j, i)]

    def test_dual_numbers_coproduct_symmetric(self, dual_numbers):
        d = derive(dual_numbers)
        t = d.coproducts[(0, 0)]
        for c in range(2):
            for i in range(2):
                for j in range(2):
                    assert t[(c, i, j)] == t[(c, j, i)]
        assert check_cocommutativity(dual_numbers, d).passed


class TestTableColumns:
    """`table_columns` builds the columns of each table and direction once,
    on the table's owner."""

    def check(self, a):
        d = derive(a)
        reports = (check_axioms(a), check_frobenius_diagram(a, d), check_cocommutativity(a, d))
        return all(report.passed for report in reports)

    def test_built_once_per_table_and_direction(self, rich_s3, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return batch_columns(*args, **kwargs)

        monkeypatch.setattr(gtqft.algebra, "batch_columns", counted)
        a = load_algebra(save_algebra(rich_s3))  # nothing built on it yet
        assert self.check(a)
        # the product and the action across each key, the coproducts across
        # the first, and the torus identity's two tables of its own; read
        # table by table, the three checks would build 11
        assert len(calls) == 8
        calls.clear()
        assert self.check(a)
        assert len(calls) == 2  # only the torus identity's own tables


class TestDualBasisEquivariance:
    def test_group_algebra_by_construction(self, s3_algebra):
        d = derive(s3_algebra)
        assert action_on_dual_basis_check(s3_algebra, d).passed

    def test_identity_action_fixes_diagonal(self, rich_s3):
        d = derive(rich_s3)
        e = rich_s3.group.identity
        for g in rich_s3.group.elements():
            gi = rich_s3.group.inv(g)
            moved = (
                rich_s3.action[(e, g)] @ d.euler[g] @ rich_s3.action[(e, gi)].transpose()
            )
            assert moved == d.euler[g]

    @pytest.mark.parametrize("name,param", CRITERION_GROUPS)
    def test_all_builtins(self, name, param):
        a = group_algebra(builtin(name, param))
        assert action_on_dual_basis_check(a, derive(a)).passed


class TestCoproductCrossAssert:
    def test_rich_algebra_formulas_agree(self, rich_s3):
        # derive() raises if the two one-sided formulas ever disagree
        derive(rich_s3)

    @pytest.mark.parametrize(
        "fixture", ["s3_algebra", "rich_s3", "rescaled_rich_s3", "zero_grade_z3"]
    )
    def test_fixtures_match_the_fraction_formulas(self, request, fixture):
        a = request.getfixturevalue(fixture)
        assert dict(derive(a).coproducts) == derive_coproducts(a)

    @pytest.mark.parametrize("name", sorted(SAVED_ALGEBRAS))
    def test_saved_algebras_match_the_fraction_formulas(self, name):
        a = load_algebra(SAVED_ALGEBRAS[name])
        assert derived(package_coproducts, a) == derived(derive_coproducts, a)

    def test_disagreement_raises(self, s3):
        # break twisted commutativity so the two formulas separate:
        # make one off-diagonal product entry lopsided
        a = group_algebra(s3)
        product = dict(a.product)
        product[(1, 3)] = Tensor3.from_entries(1, 1, 1, {(0, 0, 0): 7})
        broken = GFrobeniusAlgebra(s3, a.dims, product, a.action, a.unit, a.trace)
        with pytest.raises(CoproductMismatch):
            derive(broken)


def test_basis_vector_shape():
    assert basis_vector(3, 1) == (F(0), F(1), F(0))
