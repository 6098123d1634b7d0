import itertools
import random
from fractions import Fraction

import pytest

from gtqft import (
    Cobordism,
    PieceKind,
    builtin,
    cap,
    cup,
    Evaluator,
    Matrix,
    cerf_check,
    check_axioms,
    closed_invariant,
    closed_surface_word,
    cyl,
    derive,
    evaluate,
    frobenius_untwisted,
    group_algebra,
    hom_count_oracle,
    id_piece,
    merge,
    parse,
    random_cobordism,
    rewrite_equivalent,
    split,
    swap,
    tensor,
)
import gtqft.algebra
import gtqft.cobordism
import gtqft.errors
from gtqft.cli import main
import gtqft.tqft
from gtqft.algebra import GFrobeniusAlgebra, load_algebra, save_algebra
from gtqft.cobordism import CERF_CASES, cerf_case_words
from gtqft.errors import BudgetExceeded, EngineError, FlatnessViolation, SignatureMismatch
from gtqft.exactlin import matrix_literal
from gtqft.tqft import RunningMap, _identity_rows, word_functoriality_witness
from conftest import compose
from law_oracle import cerf_reference
from test_golden import _MUTATED, algebra_doc

F = Fraction


@pytest.fixture(scope="module")
def mixed_sign_z2():
    """C[Z2] with trace (2, 1): its dual basis has mixed signs, so the
    counit law and other words cancel to exact zeros in running rows."""
    product = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    return frobenius_untwisted(2, product, unit=(1, 0), trace=(2, 1))


# the algebras whose words the kernel tests below evaluate: words of the
# zero-grade one pass through empty legs, and sums of the mixed-sign C[Z2]
# cancel to exact zeros
FIXTURES = (
    "s3_algebra", "rich_s3", "rescaled_s3", "rescaled_rich_s3", "zero_grade_z3",
    "twisted_klein", "twisted_d4", "mixed_sign_z2", "dual_numbers",
)
# the fixtures with structure constants of denominator other than 1: their
# running maps carry scales other than 1
FRACTIONAL = ("rescaled_s3", "rescaled_rich_s3", "mixed_sign_z2")


class TestEvaluate:
    def test_identity_piece(self, rich_s3):
        w = Cobordism(rich_s3.group, ((id_piece(3),),))
        assert evaluate(rich_s3, w) == Matrix.identity(2)

    def test_merge_on_group_algebra(self, s3_algebra):
        w = Cobordism(s3_algebra.group, ((merge(1, 2),),))
        assert evaluate(s3_algebra, w) == Matrix.from_rows([[1]])
        assert w.dom == (1, 2)
        assert w.cod == (s3_algebra.group.mul(1, 2),)

    def test_handle_scalar_on_z2(self, z2_algebra):
        w = parse("cap ; split(g1,g1) ; merge(g1,g1) ; cup", z2_algebra.group)
        # oracle: compose the four one-dimensional maps by hand
        # unit 1 -> delta_e; coproduct delta_e -> delta_g1 x delta_g1;
        # product -> delta_e; trace -> 1
        assert evaluate(z2_algebra, w) == Matrix.from_rows([[1]])

    def test_swap_flips_tensor_factors(self, rich_s3):
        g, h = 1, 3
        w = Cobordism(rich_s3.group, ((swap(g, h),),))
        m = evaluate(rich_s3, w)
        for i in range(2):
            for j in range(2):
                column = i * 2 + j
                row = j * 2 + i
                assert m.data[row][column] == 1

    def test_split_then_trace_is_identity(self, rich_s3):
        # counit law as a word: split off an e-leg and close it
        from gtqft import cup

        g = 4
        group = rich_s3.group
        w = Cobordism(group, ((split(g, group.identity),), (id_piece(g), cup())))
        assert evaluate(rich_s3, w) == Matrix.identity(2)


class TestSphereRelation:
    def test_value_is_trace_of_unit(self, s3_algebra, dual_numbers):
        for a, expected in ((s3_algebra, F(1)), (dual_numbers, F(0))):
            w = parse("cap ; cup", a.group)
            assert evaluate(a, w).data[0][0] == a.trace_of(a.unit) == expected


class TestFunctoriality:
    def test_compose_matches_matrix_product(self, s3_algebra):
        ev = Evaluator(s3_algebra)
        for seed in range(120):
            word = random_cobordism(s3_algebra.group, seed, 7)
            if len(word.layers) < 2:
                continue
            cut = len(word.layers) // 2
            first = Cobordism(s3_algebra.group, word.layers[:cut])
            second = Cobordism(s3_algebra.group, word.layers[cut:])
            left = ev(compose(first, second))
            right = ev(second) @ ev(first)
            assert left == right == ev(word)

    def test_tensor_matches_kron(self, rich_s3):
        ev = Evaluator(rich_s3)
        group = rich_s3.group
        for seed in range(0, 60, 2):
            w1 = random_cobordism(group, seed, 4)
            w2 = random_cobordism(group, seed + 1, 4)
            side_by_side = ev(tensor(w1, w2))
            assert side_by_side == ev(w1).kron(ev(w2))

    def test_prefix_suffix_witness_clean(self, s3_algebra, rich_s3, rescaled_rich_s3):
        # every piece of a group algebra is an identity the kernel skips, so
        # the rich and rescaled algebras exercise the transposed suffixes
        for a, count in ((s3_algebra, 300), (rich_s3, 120), (rescaled_rich_s3, 120)):
            ev = Evaluator(a)
            for seed in range(count):
                word = random_cobordism(a.group, seed, 8)
                value, witness = word_functoriality_witness(ev, word)
                assert (value.matrix(), witness) == (ev(word), None)
                assert value == ev.running_map(word)

    def test_cancelled_entries_are_no_mismatch(self, mixed_sign_z2):
        a = mixed_sign_z2
        ev = Evaluator(a)
        counit = parse("split(e,e) ; cup * id(e)", a.group)
        assert ev(counit) == Matrix.identity(2)
        for word in [counit] + [random_cobordism(a.group, seed, 6) for seed in range(60)]:
            assert word_functoriality_witness(ev, word)[1] is None, word.to_text()

    def test_witness_reports_a_wrong_prefix(self, monkeypatch, rich_s3):
        ev = Evaluator(rich_s3)
        word = parse("split(p021,p021) ; merge(p021,p021)", rich_s3.group)
        double_layer_output(monkeypatch, word.layers[1])
        witness = word_functoriality_witness(ev, word)[1]
        assert witness is not None
        assert dict(witness.context)["split-after-layer"] == "1"

    @pytest.mark.parametrize("name", ["rich_s3", "rescaled_rich_s3"])
    def test_witness_names_the_faulty_layer(self, monkeypatch, request, name):
        # a forward kernel that doubles layer L's output makes every prefix
        # past L and the value wrong, so the first split that fails, walking
        # down from the last layer, is the one just before layer L
        a = request.getfixturevalue(name)
        ev = Evaluator(a)
        cases = []
        for seed in range(40):
            word = random_cobordism(a.group, seed, 8)
            value = kron_reference(ev, word)
            if value != Matrix.zeros(value.rows, value.cols):
                doubled = Matrix.from_rows([[2 * x for x in row] for row in value.data])
                cases.append((word, matrix_literal(value), matrix_literal(doubled)))
        assert len(cases) >= 20
        for word, left, right in cases:
            for index, layer in enumerate(word.layers):
                with monkeypatch.context() as patch:
                    double_layer_output(patch, layer)
                    witness = word_functoriality_witness(ev, word)[1]
                context = (("split-after-layer", str(index)), ("word", word.to_text()))
                assert witness.context == context
                assert (witness.left, witness.right) == (left, right)

    def test_unchanged_splits_are_multiplied_once(self, monkeypatch, s3_algebra):
        # every layer of a group algebra leaves both running maps as they
        # are, so only the first split walking down is multiplied
        ev = Evaluator(s3_algebra)
        calls = [0]
        real = gtqft.tqft._times

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(gtqft.tqft, "_times", counted)
        long_words = 0
        for seed in range(200):
            word = random_cobordism(s3_algebra.group, seed, 8)
            calls[0] = 0
            assert word_functoriality_witness(ev, word)[1] is None
            if len(word.layers) > 1:
                long_words += 1
                assert calls[0] == 1, word.to_text()
        assert long_words >= 100

    def test_a_skipped_split_is_still_checked(self, monkeypatch, rich_s3):
        # layer 1 is all identities, so its split would reuse the product of
        # split 2; a transposed kernel that doubles it returns new rows, and
        # the split is multiplied out and fails with the witness that the
        # probe gave when it multiplied every split
        ev = Evaluator(rich_s3)
        text = "split(p021,p021) ; id(p021) * id(p021) ; merge(p021,p021) ; cyl(e;p021)"
        word = parse(text, rich_s3.group)
        assert word_functoriality_witness(ev, word)[1] is None
        assert ev._layers[1][word.layers[1]] is gtqft.tqft._IDENTITY_PLAN
        double_layer_output(monkeypatch, word.layers[1], transposed=True)
        witness = word_functoriality_witness(ev, word)[1]
        assert witness.context == (("split-after-layer", "1"), ("word", text))
        assert (witness.left, witness.right) == ("[[0, 0], [4, 0]]", "[[0, 0], [2, 0]]")


def double_layer_output(monkeypatch, faulty_layer, transposed: bool = False) -> None:
    """Make the kernel double the output of `faulty_layer` in one direction,
    forward unless `transposed`; the other direction is left as it is."""
    apply_layers = Evaluator._apply_layers
    faulty_direction = transposed

    def doubled(self, rows, layers, transposed=False):
        scale = 1
        for layer in layers:
            rows, s = apply_layers(self, rows, (layer,), transposed)
            scale *= s
            if transposed == faulty_direction and layer is faulty_layer:
                rows = [{j: 2 * x for j, x in row.items()} for row in rows]
        return rows, scale

    monkeypatch.setattr(Evaluator, "_apply_layers", doubled)


def kron_reference(ev: Evaluator, word: Cobordism) -> Matrix:
    """The word's value as the product of its whole-layer Kronecker matrices."""
    total = Matrix.identity(ev.signature_dimension(word.dom))
    for layer in word.layers:
        total = ev.layer_matrix(layer) @ total
    return total


class TestLegwiseKernel:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_matches_kronecker_layers(self, request, name):
        a = request.getfixturevalue(name)
        ev = Evaluator(a)
        words = [random_cobordism(a.group, seed, 9) for seed in range(150)]
        assert any(not w.dom or not w.cod for w in words)  # cap/cup ends occur
        scales = set()
        for word in words:
            running = ev.running_map(word)
            scales.add(running.scale)
            # int entries and no zeros, so that rows of one signature and
            # scale are equal exactly when their matrices are
            rows = running.rows
            assert all(type(x) is int and x != 0 for row in rows for x in row.values()), word.to_text()
            value = running.matrix()
            assert value == kron_reference(ev, word), word.to_text()
            assert all(type(x) is F for row in value.data for x in row)
        # integral algebras never scale; the others do on some words
        assert (scales == {1}) == (name not in FRACTIONAL), scales

    @pytest.mark.parametrize(
        "name",
        ["s3_algebra", "rich_s3", "rescaled_rich_s3", "rescaled_s3", "twisted_klein", "twisted_d4"],
    )
    def test_closed_surfaces_match_kronecker_layers(self, request, name):
        a = request.getfixturevalue(name)
        ev = Evaluator(a)
        for labels in ((0, 0), (1, 1), (3, 0), (1, 1, 3, 3), (2, 4, 0, 5)):
            if max(labels) >= a.group.order:  # the Klein group has four elements
                continue
            try:
                word = closed_surface_word(a.group, labels)
            except FlatnessViolation:
                continue
            assert ev(word) == kron_reference(ev, word)

    def test_empty_middle_legs(self, zero_grade_z3):
        ev = Evaluator(zero_grade_z3)
        text = "id(e) * split(g1,g2) ; id(e) * merge(g1,g2) ; merge(e,e)"
        word = parse(text, zero_grade_z3.group)
        value = ev(word)
        assert value == kron_reference(ev, word) == Matrix.zeros(2, 4)

    def test_prefixes_end_in_the_value(self, rescaled_rich_s3):
        ev = Evaluator(rescaled_rich_s3)
        for seed in range(40):
            word = random_cobordism(rescaled_rich_s3.group, seed, 8)
            cut = len(word.layers) // 2
            head = Cobordism(word.group, word.layers[:cut], domain=word.dom)
            assert ev(head) == kron_reference(ev, head)

    def test_running_maps_are_equal_exactly_when_their_matrices_are(self):
        # zero maps on domains of two sizes, and one map over three scales
        maps = [
            RunningMap([{}], 1, 1), RunningMap([{}], 2, 1),
            RunningMap([{1: 1}], 2, 2), RunningMap([{1: 3}], 2, 6), RunningMap([{1: 3}], 2, 4),
        ]
        for x in maps:
            for y in maps:
                assert (x == y) == (x.matrix() == y.matrix())
        assert sum(x == y for x in maps for y in maps) == len(maps) + 2

    def test_group_algebra_pieces_are_skipped(self, s3_algebra, rich_s3):
        # exact identity pieces cost no arithmetic
        ev = Evaluator(s3_algebra)
        for seed in range(50):
            for layer in random_cobordism(s3_algebra.group, seed, 8).layers:
                assert all(ev.piece_matrix(p).terms is None for p in layer)
        rich = Evaluator(rich_s3)
        assert rich.piece_matrix(id_piece(1)).terms is None
        assert rich.piece_matrix(merge(1, 2)).terms is not None

    def test_identity_plan_exactly_for_identity_layers(self, rich_s3, rescaled_rich_s3):
        # a layer applies nothing exactly when each of its piece matrices is
        # the identity, and a layer of ids around one cylinder that is not
        # applies it to the right legs
        for a in (rich_s3, rescaled_rich_s3):
            ev = Evaluator(_fresh_copy(a))
            n = a.group.order
            pieces = [cap(), cup(), *map(id_piece, range(n))]
            pieces += [f(g, h) for f in (cyl, merge, split, swap) for g in range(n) for h in range(n)]
            matrices = {p: ev.piece_matrix(p) for p in pieces}
            identities = {p: m == Matrix.identity(m.rows) for p, m in matrices.items()}
            layers = [(p,) for p in pieces] + [(id_piece(g), p) for g in range(n) for p in pieces]
            seen = set()
            for layer in layers:
                ev._apply_layers(_identity_rows(ev.layer_matrix(layer).cols), (layer,))
                skipped = ev._layers[0][layer] is gtqft.tqft._IDENTITY_PLAN
                assert skipped == all(identities[p] for p in layer), layer
                seen.add(skipped)
            assert seen == {True, False}
            # every cylinder of rich S3 is an identity, and so is every one of
            # the rescaled algebra that keeps its grade
            moved = [p for p in pieces if p.kind is PieceKind.CYL and not identities[p]]
            assert bool(moved) == (a is rescaled_rich_s3)
            for p in moved:
                g, k = p.labels
                for layer in ((p, id_piece(k)), (id_piece(g), p), (id_piece(k), p, id_piece(g))):
                    whole = ev.layer_matrix(layer)
                    rows, scale = ev._apply_layers(_identity_rows(whole.cols), (layer,))
                    assert RunningMap(rows, whole.cols, scale).matrix() == whole, layer


def _kernel_matrix(m) -> Matrix:
    """A piece's matrix rebuilt from its kernel terms over its denominator."""
    entries = {(o, i): F(x, m.denominator) for o, row in enumerate(m.terms) for i, x in row}
    return Matrix.from_entries(m.rows, m.cols, entries)


def _action_scaled(a: GFrobeniusAlgebra, factors: dict) -> GFrobeniusAlgebra:
    """The algebra with each action block (k, g), named by group elements,
    multiplied by its factor."""
    action = dict(a.action)
    for (k, g), c in factors.items():
        key = (a.group.index(k), a.group.index(g))
        action[key] = Matrix.from_rows([[c * x for x in row] for row in a.action[key].data])
    return GFrobeniusAlgebra(a.group, a.dims, a.product, action, a.unit, a.trace)


class TestScalarPieces:
    """A piece whose matrix is c * I, c != 0, is folded into one factor per
    call of the kernel instead of being applied to rows."""

    @pytest.mark.parametrize("c", [F(2), F(-1), F(3, 4)], ids=["2", "-1", "3/4"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_scalar_blocks_fold(self, c, n):
        block = Matrix.from_rows([[c if i == j else 0 for j in range(n)] for i in range(n)])
        m = gtqft.tqft._PieceMatrix(block)
        assert m.terms is None and m.transposed is None
        assert (m.factor, m.denominator) == (c.numerator, c.denominator)

    def test_identity_and_empty_blocks_fold_to_one(self):
        for n in (0, 1, 2):
            m = gtqft.tqft._PieceMatrix(Matrix.identity(n))
            assert (m.factor, m.denominator, m.terms) == (1, 1, None)

    def test_other_blocks_keep_their_kernel_terms(self, rich_s3):
        ev = Evaluator(_fresh_copy(rich_s3))
        blocks = {
            "zero": Matrix.from_rows([[0]]),
            "diag(1, 2)": Matrix.from_rows([[1, 0], [0, 2]]),
            "cap": ev.piece_matrix(cap()),  # 2 x 1: the unit of a two-dimensional grade
            "swap": ev.piece_matrix(swap(1, 2)),  # the 4 x 4 flip of two legs
        }
        assert (blocks["cap"].rows, blocks["cap"].cols) == (2, 1)
        assert blocks["swap"].rows == blocks["swap"].cols == 4
        for name, block in blocks.items():
            m = gtqft.tqft._PieceMatrix(block)
            assert m.factor is None, name
            assert _kernel_matrix(m) == block, name
            rebuilt = {(o, i): x for i, col in enumerate(m.transposed) for o, x in col}
            assert rebuilt == {(o, i): x for o, row in enumerate(m.terms) for i, x in row}, name

    @pytest.mark.parametrize("name", ["rescaled_s3", "twisted_d4"])
    def test_scalar_layers_apply_no_piece(self, monkeypatch, request, name):
        # every grade is one-dimensional, so every piece is c * I: words
        # evaluate, forward and transposed, with no kernel call
        a = request.getfixturevalue(name)
        ev = Evaluator(_fresh_copy(a))
        calls = [0]
        real = gtqft.tqft._apply_piece

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(gtqft.tqft, "_apply_piece", counted)
        scalar_layers = 0
        for seed in range(60):
            word = random_cobordism(a.group, seed, 8)
            assert ev(word) == kron_reference(ev, word), word.to_text()
            for layer in word.layers:
                whole = ev.layer_matrix(layer)
                rows, scale = ev._apply_layers(_identity_rows(whole.rows), (layer,), transposed=True)
                assert RunningMap(rows, whole.rows, scale).matrix() == whole.transpose(), layer
                plan = ev._layers[0][layer]
                assert ev._layers[1][layer] is plan and len(plan) == 2
                scalar_layers += plan is not gtqft.tqft._IDENTITY_PLAN
        assert calls[0] == 0
        assert scalar_layers > 0

    def test_mixed_layers_match_the_layer_matrix(self, rich_s3):
        # scalar cylinders, 2 * I and 3/4 * I, beside merges and splits
        a = _action_scaled(rich_s3, {("e", "p102"): 2, ("e", "p021"): F(3, 4)})
        ev = Evaluator(a)
        g, h = a.group.index("p102"), a.group.index("p021")
        assert (ev.piece_matrix(cyl(g, 0)).factor, ev.piece_matrix(cyl(h, 0)).denominator) == (2, 4)
        layers = [
            (cyl(g, 0), merge(1, 2)),
            (merge(1, 2), cyl(h, 0)),
            (cyl(g, 0), split(1, 2), cyl(h, 0)),
            (split(2, 3), cyl(g, 0), id_piece(4)),
        ]
        for layer in layers:
            whole = ev.layer_matrix(layer)
            for transposed, expected in ((False, whole), (True, whole.transpose())):
                rows, scale = ev._apply_layers(_identity_rows(expected.cols), (layer,), transposed)
                assert RunningMap(rows, expected.cols, scale).matrix() == expected, layer
                plan = ev._layers[transposed][layer]
                assert len(plan) == 3, layer  # one step, for the merge or split

    def test_a_negative_factor_leaves_nonzero_int_rows(self, twisted_d4):
        ev = Evaluator(_fresh_copy(twisted_d4))
        n = twisted_d4.group.order
        pieces = [f(g, h) for f in (cyl, merge, split) for g in range(n) for h in range(n)]
        negative = [p for p in pieces if ev.piece_matrix(p).factor == -1]
        assert negative
        for p in negative:
            word = Cobordism(twisted_d4.group, ((p,),))
            running = ev.running_map(word)
            assert running.rows and all(
                type(x) is int and x != 0 for row in running.rows for x in row.values()
            )
            assert running.matrix() == kron_reference(ev, word)

    def test_doubled_scalar_block_fails_the_cylinder(self, monkeypatch, rescaled_s3):
        # the negative control of the fold: the identity acting as 2 on p102,
        # a 1 x 1 block that is folded and never applied, fails the cylinder
        # row with the witness of the kernel that applied it
        a = _action_scaled(rescaled_s3, {("e", "p102"): 2})
        assert Evaluator(a).piece_matrix(cyl(a.group.index("p102"), 0)).factor == 2
        monkeypatch.setattr(gtqft.tqft, "_apply_piece", None)
        report = cerf_check(a, "cylinder", all_labels=True)
        assert [e.passed for e in report.entries] == [False] + [True] * 5
        witness = report.entries[0].witness
        assert witness.context == (("labels", "p102"), ("alternative", "1"))
        assert (witness.left, witness.right) == ("[[2]]", "[[1]]")


class TestRewriteEquality:
    def test_values_invariant_under_rewrites(self, rich_s3):
        ev = Evaluator(rich_s3)
        rng = random.Random(99)
        for seed in range(150):
            word = random_cobordism(rich_s3.group, seed, 6)
            rewritten = rewrite_equivalent(word, rng)
            if rewritten is None:
                continue
            assert ev(rewritten) == ev(word)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_rewrites_are_evaluated_from_the_splice(self, monkeypatch, request, name):
        a = request.getfixturevalue(name)
        ev = Evaluator(a)
        rng = random.Random(7)
        cases = []
        for seed in range(150):
            word = random_cobordism(a.group, seed, 9)
            rewritten = rewrite_equivalent(word, rng)
            if rewritten is not None:
                value = word_functoriality_witness(ev, word)[0]
                cases.append((word, rewritten, value, ev.running_map(rewritten)))
        # from here on no word is evaluated from its first layer
        monkeypatch.setattr(Evaluator, "_start", lambda *args: pytest.fail("no splice taken"))
        splices, scales = set(), set()
        for word, rewritten, value, want in cases:
            got = ev.running_map(rewritten, value)
            assert (got.rows, got.cols, got.scale) == (want.rows, want.cols, want.scale)
            assert got == value, rewritten.to_text()
            shared = (x is y for x, y in zip(word.layers, rewritten.layers))
            splice = next(i for i, same in enumerate(shared) if not same)
            splices.add("first" if splice == 0 else "last" if splice == len(word.layers) - 1 else "")
            scales.add(want.scale)
        assert {"first", "last"} <= splices
        assert (scales == {1}) == (name not in FRACTIONAL), scales


def _rows_pass(a, *cases) -> bool:
    return all(cerf_check(a, case, all_labels=True).passed for case in cases)


class TestDehn:
    def test_group_algebra_s3(self, s3_algebra):
        assert _rows_pass(s3_algebra, "cylinder", "twist")

    def test_rich_algebra(self, rich_s3):
        assert _rows_pass(rich_s3, "cylinder", "twist")

    def test_rescaled_rich_algebra(self, rescaled_rich_s3):
        # every action block of rich S3 is the one identity matrix, so its
        # cylinders apply nothing; the rescaled copy's grade-moving
        # cylinders are not identities
        assert _rows_pass(rescaled_rich_s3, "cylinder", "twist")

    def test_doubled_grade_moving_block_fails_the_twist(self, rescaled_rich_s3):
        # the negative control of the rows above: the action of p021 on p102
        # doubled, on an algebra whose other blocks are all distinct
        a = rescaled_rich_s3
        k, g = key = (a.group.index("p021"), a.group.index("p102"))
        assert a.group.conj(k, g) != g
        action = dict(a.action)
        action[key] = Matrix.from_rows([[2 * x for x in row] for row in a.action[key].data])
        doubled = GFrobeniusAlgebra(a.group, a.dims, a.product, action, a.unit, a.trace)
        assert _rows_pass(doubled, "cylinder")
        assert not _rows_pass(doubled, "twist")

    def test_self_cylinder_is_identity(self, rich_s3):
        for g in rich_s3.group.elements():
            w = Cobordism(rich_s3.group, ((cyl(g, g),),))
            assert evaluate(rich_s3, w) == Matrix.identity(rich_s3.dims[g])

    def test_trivial_group_vacuous(self, dual_numbers):
        assert _rows_pass(dual_numbers, "cylinder", "twist")


class TestPants:
    def test_s3(self, s3_algebra):
        assert _rows_pass(s3_algebra, "pants")

    def test_abelian_reduces_to_flip(self, z4):
        assert _rows_pass(group_algebra(z4), "pants")

    def test_rich(self, rich_s3):
        assert _rows_pass(rich_s3, "pants")

    def test_broken_commutativity_detected(self, s3):
        # scaling one action block breaks the twisted-commutation relation
        # between the two pants orderings without touching the coproducts
        a = group_algebra(s3)
        action = dict(a.action)
        action[(1, 0)] = Matrix.from_rows([[2]])
        broken = GFrobeniusAlgebra(s3, a.dims, a.product, action, a.unit, a.trace)
        report = cerf_check(broken, "pants", all_labels=True)
        assert not report.passed
        assert next(e for e in report.entries if not e.passed).witness is not None


class TestCerf:
    @pytest.mark.parametrize("case", ["111", "202", "301", "103"])
    def test_trivial_group_classical_relations(self, dual_numbers, case):
        report = cerf_check(dual_numbers, case, labels=(0, 0, 0, 0))
        assert report.passed

    @pytest.mark.parametrize("case", ["111", "202", "301", "103", "cylinder"])
    def test_rich_algebra_all_labelings(self, rich_s3, case):
        report = cerf_check(rich_s3, case, all_labels=True)
        assert report.passed, [e for e in report.entries if not e.passed]

    @pytest.mark.parametrize("case, labels", [("pants", (1, 2)), ("cylinder", (0,))])
    def test_alternatives_over_different_scales(self, rescaled_rich_s3, case, labels):
        # equal values whose running maps carry different scales are
        # compared by cross-multiplying, not found unequal
        ev = Evaluator(rescaled_rich_s3)
        words = cerf_case_words(rescaled_rich_s3.group, case, labels)
        values = [ev.running_map(word) for word in words]
        assert len({value.scale for value in values}) > 1
        first, *others = (value.matrix() for value in values)
        assert all(m == first for m in others)
        assert cerf_check(rescaled_rich_s3, case, labels=labels).passed

    def test_single_labeling(self, s3_algebra):
        report = cerf_check(s3_algebra, "202", labels=(1, 4, 2, 5))
        assert report.passed

    def test_corrupted_algebra_fails_with_witness(self, s3):
        a = group_algebra(s3)
        action = dict(a.action)
        action[(1, 0)] = Matrix.from_rows([[2]])  # breaks unit/trace coherence
        broken = GFrobeniusAlgebra(s3, a.dims, a.product, action, a.unit, a.trace)
        report = cerf_check(broken, "111", all_labels=True)
        assert not report.passed
        witness = next(e for e in report.entries if not e.passed).witness
        assert witness is not None and witness.context

    def test_mismatched_signatures_are_refused_before_evaluation(self):
        # the words of a labelling share one start map, so a table row must
        # give all its words one (dom, cod); the proof over the free group
        # runs when the row is compiled, before any word is built
        def compile_row(*words):
            parsed = [gtqft.cobordism._Parser(w, str).word() for w in words]
            return gtqft.cobordism._compile("bad", parsed)

        # cyl(a;b) leaves baB, which the id(ab) after it does not take
        mistyped = r"^move case bad word 1: layer 2 expects \('ab',\) but receives \('baB',\)"
        with pytest.raises(SignatureMismatch, match=mistyped):
            compile_row("cyl(a;b)", "cyl(a;b) ; id(ab)")
        # ab and ba: equal in every abelian group, but not in every group
        with pytest.raises(SignatureMismatch, match="^move case bad has words of different sign"):
            compile_row("merge(a,b)", "merge(a,b) ; cyl(ab;b)")
        assert compile_row("merge(a,b) ; cyl(ab;b)", "swap(a,b) ; merge(b,a)")


def _report_or_error(check):
    try:
        return check()
    except EngineError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestCerfReference:
    """The table compares running maps; `law_oracle.cerf_reference`
    compares the words' `Matrix` values, and the two reports must be equal
    on every row, witnesses included."""

    @staticmethod
    def assert_rows_agree(a):
        for case in CERF_CASES:
            report = _report_or_error(lambda: cerf_check(a, case, all_labels=True))
            assert report == _report_or_error(lambda: cerf_reference(a, case)), case

    @pytest.mark.parametrize("name", _MUTATED)
    def test_mutated_algebras(self, name):
        self.assert_rows_agree(load_algebra(algebra_doc(name)))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, request, name):
        self.assert_rows_agree(request.getfixturevalue(name))


class _WordBuilt(Exception):
    pass


def _no_words(*args):
    raise _WordBuilt


class TestCerfBudget:
    """The labelling count is estimated before any word is built: every
    test here makes building a word raise."""

    def test_default_budget(self, monkeypatch):
        # 60**4 labellings of 111, over the 10**7 that also bounds hom_count_oracle
        a = group_algebra(builtin("cyclic", 60))
        monkeypatch.setattr(gtqft.tqft, "cerf_case_words", _no_words)
        with pytest.raises(BudgetExceeded, match="^12960000 labellings exceed the budget of 10000000$"):
            cerf_check(a, "111", all_labels=True)

    def test_a_count_at_the_budget_runs(self, monkeypatch, s3_algebra):
        monkeypatch.setattr(gtqft.tqft, "cerf_case_words", _no_words)
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", 6**4 - 1)
        with pytest.raises(BudgetExceeded):
            cerf_check(s3_algebra, "111", all_labels=True)
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", 6**4)
        with pytest.raises(_WordBuilt):
            cerf_check(s3_algebra, "111", all_labels=True)

    def test_one_labelling_is_not_budgeted(self, monkeypatch, s3_algebra):
        monkeypatch.setattr(gtqft.tqft, "cerf_case_words", _no_words)
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", 0)
        with pytest.raises(_WordBuilt):
            cerf_check(s3_algebra, "111", labels=(1, 2, 3, 0))


# every fixture that passes all laws
PASSING_FIXTURES = [
    "z2_algebra",
    "s3_algebra",
    "dual_numbers",
    "rich_s3",
    "rescaled_s3",
    "rescaled_rich_s3",
    "twisted_klein",
    "twisted_d4",
]


class TestClosedInvariant:
    def test_genus_zero(self, s3_algebra):
        assert closed_invariant(s3_algebra, ()) == 1

    def test_genus_zero_dual_numbers(self, dual_numbers):
        # the sphere sees the trace of the unit, which vanishes here
        assert closed_invariant(dual_numbers, ()) == 0

    def test_group_algebra_commuting_pair(self, s3_algebra):
        group = s3_algebra.group
        for a in group.elements():
            for b in group.elements():
                if group.mul(a, b) == group.mul(b, a):
                    assert closed_invariant(s3_algebra, (a, b)) == 1

    def test_non_flat_rejected(self, s3_algebra):
        group = s3_algebra.group
        a, b = 1, 3
        assert group.mul(a, b) != group.mul(b, a)
        with pytest.raises(FlatnessViolation):
            closed_invariant(s3_algebra, (a, b))

    def test_odd_length_rejected(self, s3_algebra):
        with pytest.raises(FlatnessViolation):
            closed_invariant(s3_algebra, (1,))

    def test_dual_numbers_frozen_values(self, dual_numbers):
        assert closed_invariant(dual_numbers, (0, 0)) == 2
        assert closed_invariant(dual_numbers, (0, 0, 0, 0)) == 0

    def test_word_agrees_with_formula_genus_two(self, rich_s3):
        group = rich_s3.group
        # commuting tuples only; cross-check against the explicit word is on
        labels = (1, 1, 3, 3)
        value = closed_invariant(rich_s3, labels)
        word = closed_surface_word(group, labels)
        assert evaluate(rich_s3, word).data[0][0] == value

    def test_handle_formula_against_the_word(self, s3_algebra):
        # a doubled unit breaks the unit law: the handle formula reads the
        # unit once, the explicit word at each of its two caps
        a = s3_algebra
        doubled = GFrobeniusAlgebra(a.group, a.dims, a.product, a.action, (2,), a.trace)
        with pytest.raises(EngineError) as info:
            closed_invariant(doubled, (0, 0))
        assert type(info.value) is EngineError and info.value.category == "check-failure"
        assert str(info.value) == "handle formula gives 2 but the explicit word gives 4"

    @pytest.mark.parametrize("name", PASSING_FIXTURES)
    def test_no_passing_fixture_fails_the_word_check(self, request, name):
        a = request.getfixturevalue(name)
        assert check_axioms(a).passed
        flat = 0
        for genus in (1, 2):
            for labels in itertools.product(a.group.elements(), repeat=2 * genus):
                try:
                    closed_invariant(a, labels)
                except FlatnessViolation:
                    continue
                flat += 1
        assert flat == sum(hom_count_oracle(a.group, genus) for genus in (1, 2))

    def test_closed_word_signature(self, z2):
        w = closed_surface_word(z2, (1, 1))
        assert w.dom == () and w.cod == ()


class TestHomCountOracle:
    def test_genus_zero(self, q8):
        assert hom_count_oracle(q8, 0) == 1

    def test_s3_genus_one(self, s3):
        # oracle agreement: sum of centralizer sizes counts commuting pairs
        mul, elements = s3.mul, s3.elements()
        by_centralizers = sum(mul(g, k) == mul(k, g) for g in elements for k in elements)
        assert hom_count_oracle(s3, 1) == by_centralizers == 18

    def test_z2_genus_two(self, z2):
        assert hom_count_oracle(z2, 2) == 16

    def test_default_budget_is_the_work_budget(self, monkeypatch, s3):
        # read at call time: the setting that bounds `cerf` bounds this too
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", 35)
        with pytest.raises(BudgetExceeded, match="^36 tuples exceed the budget of 35$"):
            hom_count_oracle(s3, 1)
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", 36)
        assert hom_count_oracle(s3, 1) == 18


class TestPartitionIdentity:
    @pytest.mark.parametrize("spec,genus", [("cyclic:2", 1), ("cyclic:3", 1), ("cyclic:2", 2)])
    def test_sum_over_flat_labelings(self, spec, genus):
        from gtqft import builtin_from_string

        group = builtin_from_string(spec)
        a = group_algebra(group)
        total = F(0)
        count = 0
        for tup in itertools.product(group.elements(), repeat=2 * genus):
            try:
                total += closed_invariant(a, tup)
                count += 1
            except FlatnessViolation:
                continue
        assert total == count == hom_count_oracle(group, genus)


def _fresh_copy(a: GFrobeniusAlgebra) -> GFrobeniusAlgebra:
    """The same algebra data as a new object, with nothing derived yet."""
    return GFrobeniusAlgebra(a.group, a.dims, a.product, a.action, a.unit, a.trace)


class TestSharedDerive:
    def test_second_closed_invariant_does_not_rederive(self, rich_s3, monkeypatch):
        labels = (1, 1, 3, 3)
        first = closed_invariant(rich_s3, labels)
        built = []
        real = gtqft.algebra.pairing_matrix
        monkeypatch.setattr(
            gtqft.algebra, "pairing_matrix", lambda a, g: built.append(g) or real(a, g)
        )
        assert closed_invariant(rich_s3, labels) == first
        assert built == []

    @pytest.mark.parametrize("name", ["rich_s3", "rescaled_rich_s3"])
    def test_values_do_not_depend_on_the_shared_derive(self, request, rich_s3, name):
        a = request.getfixturevalue(name)
        derive(a)
        group = a.group
        for case in ("cylinder", "twist", "pants"):
            report = cerf_check(a, case, all_labels=True)
            assert report == cerf_check(_fresh_copy(a), case, all_labels=True)
        for case, labels in (("111", (1, 2, 3, 0)), ("202", (1, 4, 2, 5))):
            report = cerf_check(a, case, labels=labels)
            assert report.passed
            assert report == cerf_check(_fresh_copy(a), case, labels=labels)
        for labels in ((0, 0), (1, 1), (3, 0), (1, 1, 3, 3)):
            value = closed_invariant(a, labels)
            assert value == closed_invariant(_fresh_copy(a), labels)
            # the rescaling is an isomorphism, so closed values agree with rich
            assert value == closed_invariant(_fresh_copy(rich_s3), labels)


class TestSharedPieces:
    """The piece matrices and the compiled layers are stored on the
    algebra, so every evaluator on it shares them; each test builds its own
    algebra, since a shared fixture would carry the pieces of earlier
    tests."""

    def test_evaluators_on_one_algebra_share_the_pieces(self):
        a = group_algebra(builtin("symmetric", 3))
        first, second = Evaluator(a), Evaluator(a)
        assert first._pieces is second._pieces
        assert first._layers is second._layers
        layer = (merge(1, 2),)
        first(Cobordism(a.group, (layer,)))
        assert merge(1, 2) in second._pieces
        assert layer in second._layers[0]
        fresh = Evaluator(_fresh_copy(a))
        assert fresh._pieces == {}
        assert fresh._layers == ({}, {})

    def test_closed_invariants_build_one_merge_matrix_per_distinct_block(self, monkeypatch):
        # every product block of a group algebra is one object, so its 11
        # merge pieces share one kernel form
        a = group_algebra(builtin("symmetric", 3))
        built = []
        real = gtqft.tqft.merge_matrix
        monkeypatch.setattr(gtqft.tqft, "merge_matrix", lambda t: built.append(t) or real(t))
        flat = 0
        for labels in itertools.product(a.group.elements(), repeat=2):
            try:
                assert closed_invariant(a, labels) == 1
            except FlatnessViolation:
                continue
            flat += 1
        assert flat == 18
        assert len(built) == 1

    @pytest.mark.parametrize("fixture", ["rich_s3", "rescaled_rich_s3"])
    def test_loaded_algebra_builds_one_form_per_distinct_block(
        self, request, monkeypatch, fixture
    ):
        # a loaded algebra holds one object per distinct block, and derive
        # one per distinct coproduct, so a kernel form is built once per
        # distinct piece kind and matrix: all blocks of rich S3 are equal
        # and all of the rescaled copy distinct
        a = load_algebra(save_algebra(request.getfixturevalue(fixture)))
        built = []
        real = gtqft.tqft._PieceMatrix
        monkeypatch.setattr(gtqft.tqft, "_PieceMatrix", lambda m: built.append(m) or real(m))
        ev = Evaluator(a)
        for seed in range(40):
            ev(random_cobordism(a.group, seed, 8))
        for case in ("cylinder", "twist", "pants"):
            assert cerf_check(a, case, all_labels=True).passed
        forms = {(piece.kind, m.rows, m.cols, m.data) for piece, m in ev._pieces.items()}
        assert len(built) == len(forms) < len(ev._pieces)
        assert {piece.kind for piece in ev._pieces} == set(PieceKind)

    def test_group_algebra_layers_compile_to_nothing(self, monkeypatch, capsys):
        compiled = []  # the evaluator and direction of each compile
        real = Evaluator._compile_layer

        def recorded(ev, layer, transposed):
            compiled.append((ev, transposed))
            return real(ev, layer, transposed)

        monkeypatch.setattr(Evaluator, "_compile_layer", recorded)
        a = group_algebra(builtin("symmetric", 3))
        ev = Evaluator(a)
        for seed in range(50):
            word = random_cobordism(a.group, seed, 8)
            assert word_functoriality_witness(ev, word) == (ev.running_map(word), None)
        argv = ["--group", "quaternion8", "--algebra", "builtin:group-algebra", "--budget", "8"]
        assert main(["fuzz", *argv, "--seed", "3", "--count", "200"]) == 0
        assert capsys.readouterr().out.startswith("fuzz: 200 words")
        # each layer is compiled once, forward, for both directions
        assert compiled and not any(transposed for _, transposed in compiled)
        caches = {id(ev._layers): ev._layers for ev, _ in compiled}
        assert len(caches) == 2
        for forward, transposed in caches.values():
            assert forward.keys() == transposed.keys()
            # scale 1, factor 1 and no steps: every plan is the one shared
            # identity plan
            plans = [*forward.values(), *transposed.values()]
            assert all(plan is gtqft.tqft._IDENTITY_PLAN for plan in plans)
        assert gtqft.tqft._IDENTITY_PLAN == (1, 1)

    def test_forward_and_transposed_plans_are_kept_apart(self, rich_s3):
        ev = Evaluator(_fresh_copy(rich_s3))
        layer = (id_piece(0), merge(1, 2))
        piece = ev.piece_matrix(merge(1, 2))  # 2 x 4, after an identity leg of 2
        forward, scale = ev._apply_layers(_identity_rows(8), (layer,))
        transposed, transposed_scale = ev._apply_layers(_identity_rows(4), (layer,), transposed=True)
        assert scale == transposed_scale == 1
        assert ev._layers[0][layer] == (1, 1, (piece.terms, 2, 4, 1))
        assert ev._layers[1][layer] == (1, 1, (piece.transposed, 2, 2, 1))
        whole = ev.layer_matrix(layer)
        assert RunningMap(forward, 8, 1).matrix() == whole
        assert RunningMap(transposed, 4, 1).matrix() == whole.transpose()

    def test_a_compiled_layer_reads_no_piece(self, monkeypatch, rich_s3):
        ev = Evaluator(_fresh_copy(rich_s3))
        words = [random_cobordism(rich_s3.group, seed, 8) for seed in range(30)]
        values = [ev(word) for word in words]
        read = []
        real = Evaluator.piece_matrix
        monkeypatch.setattr(
            Evaluator, "piece_matrix", lambda self, piece: read.append(piece) or real(self, piece)
        )
        assert [ev(word) for word in words] == values
        assert read == []

    @pytest.mark.parametrize(
        "case, calls",
        # the row's words at each of its S3 labellings
        [("cylinder", 7 * 6), ("twist", 5 * 36), ("pants", 2 * 36)],
        ids=["cylinder", "twist", "pants"],
    )
    def test_table_checks_evaluate_each_word_once(self, monkeypatch, case, calls):
        # each word's layers are applied in one call, from the labelling's start
        a = group_algebra(builtin("symmetric", 3))
        count = [0]
        real = Evaluator._apply_layers

        def counted(ev, rows, layers, transposed=False):
            count[0] += 1
            return real(ev, rows, layers, transposed)

        monkeypatch.setattr(Evaluator, "_apply_layers", counted)
        assert cerf_check(a, case, all_labels=True).passed
        assert count[0] == calls

    def test_one_start_per_domain_dimension(self, monkeypatch, zero_grade_z3):
        # rows are never mutated, so the 81 labellings of 202 share one
        # identity start per dimension of their domain (ab, cd): 4 when
        # ab = cd = e, and 0, an empty start, otherwise
        built = []
        real = Evaluator._start

        def counted(ev, word):
            built.append(ev.signature_dimension(word.dom))
            return real(ev, word)

        monkeypatch.setattr(Evaluator, "_start", counted)
        assert cerf_check(zero_grade_z3, "202", all_labels=True).passed
        assert sorted(built) == [0, 4]
