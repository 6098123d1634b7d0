from gtqft.report import CheckEntry, Witness, first_failure, renderer


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
