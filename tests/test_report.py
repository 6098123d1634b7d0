from fractions import Fraction

from gtqft.algebra import law
from gtqft.exactlin import Matrix
from gtqft.groups import builtin
from gtqft.report import CheckEntry, Witness, first_failure, renderer, row_locator


class TestFirstFailure:
    def test_passes_when_every_case_agrees(self):
        cases = [((0,), 1, 1), ((1,), "a", "a")]
        assert first_failure("law", cases, renderer(("x",))) == CheckEntry("law", True)

    def test_empty_law_passes(self):
        assert first_failure("law", iter(()), renderer(("x",))).passed

    def test_reports_first_mismatch_and_draws_no_further_case(self):
        drawn = []

        def cases():
            for i in range(10):
                drawn.append(i)
                yield (i, i + 1), i * i, 2 * i

        entry = first_failure("law", cases(), renderer(("i", "j")))
        assert entry == CheckEntry("law", False, Witness((("i", "1"), ("j", "2")), "1", "2"))
        assert drawn == [0, 1]

    def test_renders_only_the_witness(self):
        rendered = []

        def render(context, lhs, rhs):
            rendered.append(context)
            return Witness((), str(lhs), str(rhs))

        cases = [(i, i, 0 if i < 3 else 1) for i in range(6)]
        entry = first_failure("law", cases, render)
        assert rendered == [1] and entry.witness == Witness((), "1", "0")


class TestRenderer:
    def test_formats_and_names(self):
        render = renderer(("g", "side"), name=lambda v: f"<{v}>", left=repr, right=str.upper)
        witness = render((3, "left"), "x", "abc")
        assert witness == Witness((("g", "<3>"), ("side", "<left>")), "'x'", "ABC")

    def test_short_context_names_a_prefix_of_the_keys(self):
        witness = renderer(("k", "g", "h"))((7,), 1, 2)
        assert witness.context == (("k", "7"),)


class TestLawRows:
    """Rows ``(context, count, lhs, rhs)`` reach `first_failure` through
    `algebra.law`."""

    @staticmethod
    def locate(context, lhs, rhs):
        return context, lhs, rhs

    def test_passes_when_every_row_agrees(self):
        rows = [((0,), 2, [[1, 2]], [[1, 2]]), ((1,), 0, [], [])]
        entry = law(builtin("cyclic", 2), "law", rows, ("g",), locate=self.locate)
        assert entry == CheckEntry("law", True)

    def test_locates_the_first_differing_row_and_draws_no_further_row(self):
        drawn, located = [], []

        def rows():
            for g in range(5):
                drawn.append(g)
                yield (g,), 1, [[g]], [[g if g < 2 else -g]]

        def locate(context, lhs, rhs):
            located.append(context)
            return context, lhs[0][0], rhs[0][0]

        entry = law(builtin("cyclic", 5), "law", rows(), ("g",), str, locate=locate)
        assert entry == CheckEntry("law", False, Witness((("g", "g2"),), "2", "-2"))
        assert drawn == [0, 1, 2] and located == [(2,)]


class TestRowLocator:
    def test_earliest_case_is_by_batch_then_basis_indices(self):
        # pad 2; position t spells (i, p), a basis index and a vector side
        # index; entry e of a column is batch value e; sides of real size 1
        lhs = {0: [0, 0, 5], 2: [0, 7, 0]}
        rhs = {0: [0, 0, 6], 2: [0, 8, 0]}
        locate = row_locator(2, 2, lambda context, e: (1,), 2)
        assert locate(("g",), lhs, rhs) == (("g", 1, 1), (Fraction(7, 2),), (Fraction(4),))

    def test_absent_positions_are_zero(self):
        locate = row_locator(2, 2, lambda c, e: (), 3)
        assert locate((), {1: [0, 3]}, {}) == ((1, 0, 1), Fraction(1), Fraction(0))

    def test_matrix_sides(self):
        # pad 2; position t spells (i, j) of a 2x1 matrix side
        lhs, rhs = {0: [1], 2: [4]}, {0: [1], 2: [9]}
        locate = row_locator(2, 2, lambda c, e: (2, 1), 1)
        exact = Matrix.from_rows([[1], [4]]), Matrix.from_rows([[1], [9]])
        assert locate((5,), lhs, rhs) == ((5, 0), *exact)
