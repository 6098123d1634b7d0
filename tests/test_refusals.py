"""Errors a library caller can reach: each refusal's type, category and exact
message.

A package error carries its category (`gtqft.errors`); a `ValueError` or a
`KeyError` is a caller's misuse of the library, which the CLI would report
as ``internal``.  The constructors decide what an exact scalar is in one
place, `exactlin.exact`, and `FiniteGroup` alone decides that element names
are strings.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from gtqft import (
    CheckReport,
    DimensionMismatch,
    EngineError,
    FiniteGroup,
    GFrobeniusAlgebra,
    Matrix,
    NotAGroup,
    SchemaError,
    ShapeError,
    SignatureMismatch,
    Tensor3,
    builtin,
    evaluate,
    group_algebra,
    hom_count_oracle,
    parse,
    random_cobordism,
    tensor,
)
from gtqft.report import passing


def refused(call, cls, category, message):
    """Assert that `call()` raises exactly a `cls` with this message, whose
    package category is `category`, or which is no package error when
    `category` is None."""
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is cls
    if category is None:
        assert not isinstance(info.value, EngineError)
    else:
        assert info.value.category == category
    assert str(info.value) == message


class TestShapes:
    def test_negative_matrix_dimensions(self):
        refused(
            lambda: Matrix(-1, 0, []),
            DimensionMismatch,
            "type",
            "matrix dimensions must be non-negative",
        )

    def test_a_matrix_grid_of_the_wrong_shape(self):
        refused(
            lambda: Matrix(2, 2, [[1, 0], [0]]),
            DimensionMismatch,
            "type",
            "expected a 2x2 entry grid",
        )

    def test_a_tensor_grid_of_the_wrong_shape(self):
        refused(
            lambda: Tensor3(1, 2, 2, [[[1, 0], [0, 1, 0]]]),
            DimensionMismatch,
            "type",
            "expected a 1x2x2 entry grid",
        )

    def test_the_determinant_of_a_non_square_matrix(self):
        refused(
            lambda: Matrix(1, 2, [[1, 0]]).det(),
            DimensionMismatch,
            "type",
            "determinant of a non-square matrix",
        )


# values that no constructor takes as a scalar
NOT_EXACT = [0.5, True, "1/2", Decimal("0.5")]


def constructors(value):
    """Every constructor that takes scalars, given `value` as one entry."""
    z2 = builtin("cyclic", 2)
    a = group_algebra(z2)
    return {
        "Matrix": lambda: Matrix(1, 2, [[1, value]]),
        "Matrix.from_rows": lambda: Matrix.from_rows([[value]]),
        "Matrix.from_entries": lambda: Matrix.from_entries(1, 1, {(0, 0): value}),
        "Tensor3": lambda: Tensor3(1, 1, 2, [[[value, 0]]]),
        "Tensor3.from_entries": lambda: Tensor3.from_entries(1, 1, 1, {(0, 0, 0): value}),
        "unit": lambda: GFrobeniusAlgebra(z2, a.dims, a.product, a.action, (value,), a.trace),
        "trace": lambda: GFrobeniusAlgebra(z2, a.dims, a.product, a.action, a.unit, (value,)),
    }


class TestScalars:
    @pytest.mark.parametrize("value", NOT_EXACT, ids=lambda x: type(x).__name__)
    @pytest.mark.parametrize("constructor", sorted(constructors(0)))
    def test_a_constructor_refuses_an_inexact_scalar(self, constructor, value):
        refused(
            constructors(value)[constructor],
            ShapeError,
            "type",
            f"scalars must be ints or Fractions, got {type(value).__name__}",
        )

    def test_a_fraction_is_kept_as_it_is(self):
        half = Fraction(1, 2)
        assert Matrix(1, 1, [[half]]).data[0][0] is half


class TestGroupNames:
    @pytest.mark.parametrize("names", [[1, 2.5], ["e", 0], [b"e", b"a"]], ids=repr)
    def test_non_string_names(self, names):
        refused(
            lambda: FiniteGroup(names, [[0, 1], [1, 0]]),
            SchemaError,
            "parse",
            'group "names" must be a list of strings',
        )

    def test_no_names(self):
        refused(
            lambda: FiniteGroup([], []),
            NotAGroup,
            "parse",
            "a group needs at least one element",
        )


class TestWordsAndReports:
    def test_tensor_of_words_over_two_groups(self):
        z2, z3 = builtin("cyclic", 2), builtin("cyclic", 3)
        refused(
            lambda: tensor(parse("id(e)", z2), parse("id(e)", z3)),
            SignatureMismatch,
            "type",
            "cannot tensor words over different groups",
        )

    def test_a_random_word_needs_a_piece(self):
        refused(
            lambda: random_cobordism(builtin("cyclic", 2), 0, 0),
            ValueError,
            None,
            "size_budget must be at least 1",
        )

    def test_evaluating_a_word_over_another_group(self):
        a = group_algebra(builtin("cyclic", 2))
        refused(
            lambda: evaluate(a, parse("id(e)", builtin("cyclic", 3))),
            SignatureMismatch,
            "type",
            "word and algebra use different groups",
        )

    def test_a_negative_genus(self):
        refused(
            lambda: hom_count_oracle(builtin("cyclic", 2), -1),
            ValueError,
            None,
            "genus must be non-negative",
        )

    def test_a_missing_report_entry(self):
        refused(
            lambda: CheckReport((passing("unit-laws"),)).entry("torus-identity"),
            KeyError,
            None,
            "'torus-identity'",
        )
