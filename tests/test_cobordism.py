import itertools
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtqft import (
    Cobordism,
    Piece,
    builtin,
    cap,
    rewrite_equivalent,
    cerf_case_words,
    closed_surface_word,
    cup,
    cyl,
    id_piece,
    merge,
    parse,
    random_cobordism,
    split,
    swap,
    tensor,
)
from gtqft.cobordism import (
    CERF_CASES,
    PieceKind,
    _CASE_WORDS,
    _PARSED,
    _Parser,
    _reduce,
    _row_signature,
    _splice,
    case_label_count,
)
from gtqft.errors import FlatnessViolation, ParseError, SignatureMismatch
from conftest import compose, dual

_KEYWORDS = '"id", "cyl", "merge", "split", "cap", "cup" or "swap"'


def power(group, g: int, m: int) -> int:
    """g^m for m >= 0, by m multiplications: the oracle of the twist formula."""
    result = group.identity
    for _ in range(m):
        result = group.mul(result, g)
    return result


class TestParse:
    def test_identity(self, z2):
        w = parse("id(e)", z2)
        assert w.dom == (0,) and w.cod == (0,)

    def test_composite_with_types(self, s3):
        # split, conjugate one leg, merge back after conjugation
        g, k = 3, 1
        gk = s3.conj(k, g)
        text = (
            f"split({s3.name(g)},{s3.name(g)}) ; "
            f"cyl({s3.name(g)};{s3.name(k)}) * id({s3.name(g)}) ; "
            f"merge({s3.name(gk)},{s3.name(g)})"
        )
        w = parse(text, s3)
        assert w.dom == (s3.mul(g, g),)
        assert w.cod == (s3.mul(gk, g),)

    def test_layer_mismatch_reports_both_signatures(self, s3):
        with pytest.raises(SignatureMismatch) as err:
            parse("merge(p021,p102) ; merge(p021,p102)", s3)
        assert "expects" in str(err.value) and "receives" in str(err.value)

    def test_merge_then_split_type_checks_over_abelian(self, z2):
        w = parse("merge(g1,g1) ; split(g1,g1)", z2)
        assert w.dom == (1, 1) and w.cod == (1, 1)

    def test_merge_then_split_needs_commuting_labels(self, s3):
        # b*a differs from a*b here, so the split cannot follow the merge
        with pytest.raises(SignatureMismatch):
            parse("merge(p021,p102) ; split(p102,p021)", s3)

    def test_parse_error_position(self, z2):
        with pytest.raises(ParseError) as err:
            parse("merge(g1", z2)
        assert err.value.line == 1 and err.value.column == 9

    def test_unknown_element(self, z2):
        with pytest.raises(ParseError, match="unknown element"):
            parse("id(zz)", z2)

    def test_unknown_piece(self, z2):
        with pytest.raises(ParseError, match="unknown piece"):
            parse("twist(g1)", z2)

    def test_comments_and_whitespace(self, z2):
        w = parse("# torus\n cap ;\n split(g1,g1) ; merge(g1,g1) ;   cup\n", z2)
        assert w.dom == () and w.cod == ()

    def test_print_parse_round_trip(self, s3):
        w = Cobordism(
            s3,
            (
                (split(1, 3),),
                (cyl(1, 4), id_piece(3)),
                (merge(s3.conj(4, 1), 3),),
            ),
        )
        text = w.to_text()
        assert parse(text, s3) == w
        assert parse(text, s3).to_text() == text

    @settings(max_examples=50)
    @given(st.integers(0, 10_000))
    def test_random_round_trip(self, seed):
        group = builtin("symmetric", 3)
        w = random_cobordism(group, seed, 6)
        assert parse(w.to_text(), group) == w


class TestParseErrors:
    """Messages and positions of every grammar error, pinned."""

    @pytest.mark.parametrize(
        "text,message,line,column,expected",
        [
            ("", "empty word", 1, 1, "a layer"),
            ("cyl(e,e)", "found ','", 1, 6, '";"'),
            ("merge(e;e)", "found ';'", 1, 8, '","'),
            ("cyl(p021;p120)  ; merge(p102 p102)", "found 'p102'", 1, 30, '","'),
            ("id(e", "found end of input", 1, 5, '")"'),
            ("split", "found end of input", 1, 6, '"("'),
            ("cap(e)", "unexpected '('", 1, 4, '";" or end of input'),
            ("id(e) ;\n  twist(e)", "unknown piece 'twist'", 2, 3, _KEYWORDS),
            ("id(e) *", "found end of input", 1, 8, _KEYWORDS),
            ("swap(e,zz)", "unknown element 'zz'", 1, 8, "an element of the group"),
            ("# c\n\tid(e) ;\r id(e) ) ", "unexpected ')'", 2, 17, '";" or end of input'),
            ("id(e)#x\n;\n\n  cup(", "unexpected '('", 4, 6, '";" or end of input'),
        ],
    )
    def test_error(self, s3, text, message, line, column, expected):
        with pytest.raises(ParseError) as err:
            parse(text, s3)
        assert (err.value.line, err.value.column, err.value.expected) == (line, column, expected)
        assert str(err.value) == f"{message} at line {line}, column {column} (expected {expected})"

    def test_keyword_inside_parentheses_is_looked_up_as_an_element(self):
        with pytest.raises(ParseError, match="unknown element 'cap'"):
            parse("id(cap)", builtin("cyclic", 1))


class TestComposeTensor:
    def test_compose_with_identity(self, z2):
        c = parse("merge(g1,g1)", z2)
        idw = Cobordism(z2, (tuple(map(id_piece, c.dom)),))
        assert compose(idw, c).cod == c.cod
        assert compose(c, Cobordism(z2, (tuple(map(id_piece, c.cod)),))).dom == c.dom

    def test_compose_type_error(self, z2):
        c = parse("merge(g1,g1)", z2)
        with pytest.raises(SignatureMismatch):
            compose(c, c)

    def test_compose_split_merge_roundabout(self, s3):
        c1 = Cobordism(s3, ((split(1, 3),),))
        c2 = Cobordism(s3, ((merge(1, 3),),))
        both = compose(c1, c2)
        assert len(both.layers) == 2
        assert both.dom == both.cod == (s3.mul(1, 3),)

    def test_tensor_with_empty_is_identity(self, z2):
        c = parse("split(g1,g1) ; merge(g1,g1)", z2)
        empty = Cobordism(z2, (), domain=())
        assert tensor(c, empty) == c
        assert tensor(empty, c) == c

    def test_tensor_pads_shorter_word(self, z2):
        c1 = parse("split(g1,g1) ; merge(g1,g1)", z2)  # [e] -> [e]
        c2 = parse("id(e)", z2)
        both = tensor(c1, c2)
        assert both.dom == (0, 0)
        assert len(both.layers) == 2
        assert len(both.layers[1]) == 2  # merge plus the padding id

    def test_empty_word_signature(self, z4):
        w = Cobordism(z4, (), domain=(2, 3))
        assert w.dom == w.cod == (2, 3)


class TestInternedPieces:
    def test_one_object_per_kind_and_labels(self):
        assert Piece(PieceKind.CYL, (1, 2)) is Piece(PieceKind.CYL, (1, 2)) is cyl(1, 2)
        assert Piece(PieceKind.CAP) is Piece(PieceKind.CAP, ()) is cap()
        assert cyl(1, 2) is not cyl(2, 1) and merge(1, 2) is not split(1, 2)
        assert pickle.loads(pickle.dumps(swap(3, 4))) is swap(3, 4)
        assert hash(PieceKind.MERGE) == object.__hash__(PieceKind.MERGE)

    def test_repr_and_immutability(self):
        assert repr(cyl(1, 2)) == "Piece(kind=<PieceKind.CYL: 'cyl'>, labels=(1, 2))"
        assert repr(cup()) == "Piece(kind=<PieceKind.CUP: 'cup'>, labels=())"
        with pytest.raises(AttributeError):
            cyl(1, 2).kind = PieceKind.ID
        with pytest.raises(AttributeError):
            del merge(0, 1).labels
        assert cyl(1, 2).kind is PieceKind.CYL and cyl(1, 2).labels == (1, 2)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda s3: Piece(PieceKind.CYL, (1,)), "cyl takes 2 labels, got 1"),
            (lambda s3: Piece(PieceKind.CAP, (0,)), "cap takes 0 labels, got 1"),
            (
                lambda s3: Cobordism(s3, ((id_piece(6),),)),
                "piece label outside the group's element range",
            ),
            (
                # every label is range-checked before any layer boundary
                lambda s3: Cobordism(s3, ((merge(1, 3),), (merge(1, 3),), (cyl(1, -1),))),
                "piece label outside the group's element range",
            ),
            (
                lambda s3: Cobordism(s3, ((merge(1, 3),), (merge(1, 3),))),
                "layer 2 expects [p021, p120] but receives [p210]",
            ),
            (
                lambda s3: Cobordism(s3, ((cap(),), (cup(),), (cup(),))),
                "layer 3 expects [e] but receives []",
            ),
            (
                lambda s3: Cobordism(s3, ((id_piece(1),), (id_piece(2),)), domain=(1, 2)),
                "declared domain [p021, p102] does not match first layer [p021]",
            ),
        ],
    )
    def test_messages(self, s3, build, message):
        with pytest.raises(SignatureMismatch) as err:
            build(s3)
        assert str(err.value) == message

    def test_signature_table_is_per_group(self):
        z4, d2 = builtin("cyclic", 4), builtin("dihedral", 2)
        # g1 * g1 is g2 in Z4 but r1 * r1 is the identity in D2
        assert Cobordism(z4, ((split(1, 1),),)).dom == (2,)
        assert Cobordism(d2, ((split(1, 1),),)).dom == (0,)
        assert z4.signatures[split(1, 1)] == ((2,), (1, 1))
        assert d2.signatures[split(1, 1)] == ((0,), (1, 1))

    def test_out_of_range_on_a_small_group_types_on_a_larger_one(self):
        z2, z4 = builtin("cyclic", 2), builtin("cyclic", 4)
        with pytest.raises(SignatureMismatch, match="outside the group's element range"):
            Cobordism(z2, ((cyl(3, 1),),))
        assert cyl(3, 1) not in z2.signatures
        word = Cobordism(z4, ((cyl(3, 1),),))
        assert word.dom == word.cod == (3,)

    def test_signature_table_is_freed_with_its_group(self):
        group = builtin("dihedral", 3)
        # the checked constructor fills the table; the table's own words skip it
        words = [Cobordism(group, w.layers) for w in cerf_case_words(group, "202", (1, 2, 3, 4))]
        table = group.signatures
        assert len(table) > 0
        del words
        # held by the group's slot, this frame and the call's argument only
        assert sys.getrefcount(table) == 3
        del group
        assert sys.getrefcount(table) == 2


class TestDual:
    def test_involution(self, s3):
        w = Cobordism(
            s3,
            (
                (cap(), id_piece(2)),
                (swap(0, 2),),
                (merge(2, 0),),
                (split(2, 0),),
                (swap(2, 0),),
                (cup(), cyl(2, 4)),
            ),
        )
        assert dual(dual(w)) == w

    @pytest.mark.parametrize("group", [("symmetric", 3), ("dihedral", 4)])
    def test_involution_on_random_words(self, group):
        g = builtin(*group)
        kinds = set()
        for seed in range(300):
            w = random_cobordism(g, seed, 8)
            kinds.update(p.kind for layer in w.layers for p in layer)
            assert dual(dual(w)) == w
        assert kinds == set(PieceKind)

    def test_swaps_boundaries(self, z4):
        w = parse("split(g1,g2) ; cyl(g1;g3) * id(g2)", z4)
        d = dual(w)
        assert d.dom == w.cod and d.cod == w.dom

    def test_piece_flips(self, s3):
        w = Cobordism(s3, ((cyl(1, 3),),))
        d = dual(w)
        assert d.dom == (s3.conj(3, 1),) and d.cod == (1,)


CASES = ["111", "202", "301", "103"]


class TestCaseBuilders:
    @pytest.mark.parametrize("case", CASES)
    def test_alternatives_share_signatures(self, s3, case):
        for labels in itertools.product(range(3), repeat=4):
            words = cerf_case_words(s3, case, labels)
            assert len(words) >= 2
            assert len({w.dom for w in words}) == 1
            assert len({w.cod for w in words}) == 1

    def test_111_signature(self, s3):
        a, b, c, d = 1, 2, 3, 4
        words = cerf_case_words(s3, "111", (a, b, c, d))
        lhs = s3.mul(s3.mul(a, b), s3.mul(c, d))
        rhs = s3.mul(s3.mul(a, d), s3.mul(c, b))
        for w in words:
            assert w.dom == (lhs,)
            assert w.cod == (rhs,)

    def test_202_signature(self, s3):
        a, b, c, d = 2, 5, 1, 3
        words = cerf_case_words(s3, "202", (a, b, c, d))
        for w in words:
            assert w.dom == (s3.mul(a, b), s3.mul(c, d))
            assert w.cod == (s3.mul(c, b), s3.mul(a, d))

    def test_identity_labels_collapse(self, trivial_group):
        words = cerf_case_words(trivial_group, "111", (0, 0, 0, 0))
        assert all(w.dom == (0,) and w.cod == (0,) for w in words)

    def test_103_words_are_duals_of_301(self, s3, d4, q8):
        # the 103 row is compiled as the reverse of the 301 row; `dual` of
        # each 301 word is the oracle, at every labelling
        for group in (s3, d4, q8):
            for labels in itertools.product(range(group.order), repeat=4):
                found = cerf_case_words(group, "103", labels)
                expected = [dual(w) for w in cerf_case_words(group, "301", labels)]
                assert [w.to_text() for w in found] == [w.to_text() for w in expected]
                assert [(w.dom, w.cod) for w in found] == [(w.dom, w.cod) for w in expected]
                assert found == expected

    @pytest.mark.parametrize("case", [case for case in CERF_CASES if case != "103"])
    def test_words_are_the_table_text_folded_through_the_group(self, s3, q8, case):
        # the oracle of the builder's value slots, pickers and interned
        # pieces: each word of the row's text with every label product
        # folded through group.mul, typed by the checked constructor.  103
        # has no text; it is checked against dual of 301 above
        parsed = [_Parser(text, str).word() for text in _CASE_WORDS[case]]
        for group in (s3, q8):
            inverse = {
                g: next(h for h in group.elements() if group.mul(g, h) == group.identity)
                for g in group.elements()
            }
            for labels in itertools.product(group.elements(), repeat=case_label_count(case)):
                letters = {"e": group.identity, **dict(zip("abcd", labels))}
                letters.update(zip("ABCD", (inverse[g] for g in labels)))

                def fold(product: str) -> int:
                    value = group.identity
                    for letter in product:
                        value = group.mul(value, letters[letter])
                    return value

                expected = [
                    Cobordism(group, [
                        [Piece(piece.kind, tuple(map(fold, piece.labels))) for piece in layer]
                        for layer in word
                    ])
                    for word in parsed
                ]
                found = cerf_case_words(group, case, labels)
                assert [(w.layers, w.dom, w.cod) for w in found] == [
                    (w.layers, w.dom, w.cod) for w in expected
                ], labels

    def test_cylinder_case(self, z2):
        assert all(
            w.dom == (1,) and w.cod == (1,) for w in cerf_case_words(z2, "cylinder", (1,))
        )

    def test_label_count_enforced(self, z2):
        with pytest.raises(SignatureMismatch):
            cerf_case_words(z2, "111", (0, 1))
        with pytest.raises(SignatureMismatch):
            cerf_case_words(z2, "nope", (0,))

    def test_label_counts_and_messages(self, z2):
        counts = {case: case_label_count(case) for case in CERF_CASES}
        assert counts == {
            "111": 4, "202": 4, "301": 4, "103": 4,
            "cylinder": 1, "twist": 2, "pants": 2,
        }
        with pytest.raises(SignatureMismatch) as err:
            cerf_case_words(z2, "202", (0, 1, 1))
        assert str(err.value) == "case 202 takes 4 labels, got 3"
        for case in ("nope", "sphere"):
            with pytest.raises(SignatureMismatch) as err:
                case_label_count(case)
            assert str(err.value) == (
                f"unknown move case {case!r}; expected one of "
                "('111', '202', '301', '103', 'cylinder', 'twist', 'pants')"
            )

    @pytest.mark.parametrize("case", CERF_CASES)
    def test_alternatives_share_signatures_over_d4(self, case):
        d4 = builtin("dihedral", 4)
        n = case_label_count(case)
        labellings = itertools.product(range(d4.order), repeat=n)
        for labels in itertools.islice(labellings, 0, None, 17 if n == 4 else 1):
            words = cerf_case_words(d4, case, labels)
            assert len({(w.dom, w.cod) for w in words}) == 1
            assert [parse(w.to_text(), d4) for w in words] == words

    @pytest.mark.parametrize("case", _PARSED)
    def test_no_two_words_of_a_row_coincide(self, case):
        # an id piece evaluates to the identity, so words that differ only
        # by layers of ids, or by label products equal in the free group,
        # are one map in every field theory and the row checks nothing.
        # Compared over the free group, not at a labelling: at one, twist
        # words coincide whenever the label a is an involution
        def essence(word):
            return tuple(
                tuple((piece.kind, tuple(map(_reduce, piece.labels))) for piece in layer)
                for layer in word
                if any(piece.kind is not PieceKind.ID for piece in layer)
            )

        words = [essence(word) for word in _PARSED[case]]
        assert len(set(words)) == len(words)


class TestTwistedConjugator:
    def test_formula_and_normal_form(self, s3):
        # twist word n + m is the cylinder from g labelled k, twisted n
        # times at its outgoing and m times at its incoming circle
        for g in range(s3.order):
            for k in range(s3.order):
                h = s3.conj(k, g)
                words = cerf_case_words(s3, "twist", (g, k))
                for n in range(3):
                    for m in range(3):
                        ((piece,),) = words[n + m].layers
                        twisted = s3.mul(s3.mul(power(s3, h, n), k), power(s3, g, m))
                        assert piece == cyl(g, twisted)
                        assert s3.conj(twisted, g) == h
                        # the double coset <h> k <g> is the coset k <g>
                        assert twisted == s3.mul(k, power(s3, g, n + m))

    def test_pants_words(self, s3):
        for g in range(s3.order):
            for h in range(s3.order):
                twisted, crossed = cerf_case_words(s3, "pants", (g, h))
                assert twisted.layers == ((merge(g, h),), (cyl(s3.mul(g, h), h),))
                assert crossed.layers == ((swap(g, h),), (merge(h, g),))


class TestRandomWords:
    def test_budget_one_single_piece(self, z4):
        for seed in range(30):
            w = random_cobordism(z4, seed, 1)
            assert len(w.layers) == 1
            assert len(w.layers[0]) == 1

    def test_deterministic(self, s3):
        first = random_cobordism(s3, 42, 8)
        second = random_cobordism(s3, 42, 8)
        assert first == second

    def test_thousand_words_type_check(self, s3):
        for seed in range(1000):
            w = random_cobordism(s3, seed, 8)
            # re-validating through the constructor replays the layer checks
            rebuilt = Cobordism(s3, w.layers)
            assert rebuilt.dom == w.dom and rebuilt.cod == w.cod
            assert sum(len(layer) for layer in w.layers) <= 8

    def test_budget_respected(self, s3):
        for seed in range(200):
            w = random_cobordism(s3, seed, 5)
            assert 1 <= sum(len(layer) for layer in w.layers) <= 5


def _rewrite_oracle(word, rng):
    """`rewrite_equivalent` with its gadgets written out piece by piece, as
    it was before it read them from the table of surface identities."""
    group = word.group
    e = group.identity
    sites = [
        (li, pi, piece.kind)
        for li, layer in enumerate(word.layers)
        for pi, piece in enumerate(layer)
        if piece.kind in (PieceKind.ID, PieceKind.CYL, PieceKind.MERGE)
    ]
    if not sites:
        return None
    layer_index, piece_index, kind = sites[rng.randrange(len(sites))]
    piece = word.layers[layer_index][piece_index]

    def spliced(*gadget):
        return _splice(word, layer_index, piece_index, gadget)

    if kind is PieceKind.ID:
        (g,) = piece.labels
        choice = rng.choice(["trivial-cylinder", "self-cylinder", "unit", "counit"])
        if choice == "trivial-cylinder":
            return spliced((cyl(g, e),))
        if choice == "self-cylinder":
            return spliced((cyl(g, g),))
        if choice == "unit":
            return spliced((id_piece(g), cap()), (merge(g, e),))
        return spliced((split(g, e),), (id_piece(g), cup()))
    if kind is PieceKind.CYL:
        g, k = piece.labels
        n, m = rng.randrange(3), rng.randrange(3)
        h = group.conj(k, g)
        return spliced((cyl(g, group.mul(group.mul(power(group, h, n), k), power(group, g, m))),))
    # merge: route through the opposite ordering and conjugate back
    g, h = piece.labels
    return spliced((swap(g, h),), (merge(h, g),), (cyl(group.mul(h, g), group.inv(h)),))


class TestRewriteEquivalent:
    def test_matches_hand_written_gadgets(self, s3, d4, q8):
        replaced = set()
        for group in (s3, d4, q8):
            rng, oracle_rng = random.Random(11), random.Random(11)
            for seed in range(1000):
                w = random_cobordism(group, seed, 1 + seed % 12)
                rewritten = rewrite_equivalent(w, rng)
                assert rewritten == _rewrite_oracle(w, oracle_rng)
                assert rng.getstate() == oracle_rng.getstate()
                if rewritten is not None:
                    replaced.add(len(rewritten.layers) - len(w.layers))
        # one-layer (cylinder), two-layer (unit, counit) and three-layer
        # (merge) gadgets all occur
        assert replaced == {0, 1, 2}

    def test_preserves_boundaries(self, s3):
        rng = random.Random(3)
        for seed in range(200):
            w = random_cobordism(s3, seed, 7)
            rewritten = rewrite_equivalent(w, rng)
            if rewritten is None:
                continue
            assert rewritten.dom == w.dom and rewritten.cod == w.cod

    def test_merge_reordering_site(self, s3):
        w = Cobordism(s3, ((merge(1, 3),),))
        rng = random.Random(0)
        rewritten = rewrite_equivalent(w, rng)
        assert rewritten is not None
        assert rewritten.dom == (1, 3)
        assert rewritten.cod == w.cod

    def test_no_site_returns_none(self, z2):
        w = Cobordism(z2, ((cap(),), (cup(),)))
        assert rewrite_equivalent(w, random.Random(0)) is None


def test_swap_signature(z4):
    w = Cobordism(z4, ((swap(1, 2),),))
    assert w.dom == (1, 2) and w.cod == (2, 1)


_GROUPS = {
    "s3": ("symmetric", 3), "d4": ("dihedral", 4), "q8": ("quaternion8",), "c5": ("cyclic", 5),
}


@pytest.mark.parametrize("name", _GROUPS)
class TestTypedByConstruction:
    """The builders that know a word's type skip the check; each of their
    words must equal the checked word of its layers and domain, in layers,
    dom and cod (a word of no layers is typed by its domain alone)."""

    @staticmethod
    def assert_checked(word):
        checked = Cobordism(word.group, word.layers, domain=word.dom)
        assert (checked.layers, checked.dom, checked.cod) == (word.layers, word.dom, word.cod)

    def test_cerf_words_on_every_seventh_labelling(self, name):
        group = builtin(*_GROUPS[name])
        for case in CERF_CASES:
            labellings = itertools.product(range(group.order), repeat=case_label_count(case))
            for labels in itertools.islice(labellings, 0, None, 7):
                for word in cerf_case_words(group, case, labels):
                    self.assert_checked(word)

    def test_random_words_and_their_rewrites(self, name):
        group = builtin(*_GROUPS[name])
        rng = random.Random(5)
        for seed in range(2000):
            word = random_cobordism(group, seed, 1 + seed % 12)
            self.assert_checked(word)
            rewritten = rewrite_equivalent(word, rng)
            if rewritten is not None:
                self.assert_checked(rewritten)

    def test_tensor_pairs(self, name):
        group = builtin(*_GROUPS[name])
        words = [random_cobordism(group, seed, 1 + seed % 6) for seed in range(20)]
        words += [Cobordism(group, ()), Cobordism(group, (), domain=(1,))]
        for c1, c2 in itertools.product(words, repeat=2):
            self.assert_checked(tensor(c1, c2))

    def test_closed_surface_words_of_genus_one_and_two(self, name):
        group = builtin(*_GROUPS[name])
        built = 0
        for genus in (1, 2):
            for labels in itertools.product(range(group.order), repeat=2 * genus):
                try:
                    word = closed_surface_word(group, labels)
                except FlatnessViolation:
                    continue
                self.assert_checked(word)
                built += 1
        assert built > group.order


def test_gadget_rows_have_the_boundaries_of_their_pieces():
    # over the free group, so `_splice` keeps the word's dom and cod in every group:
    # cylinder words replace id(a), twist words cyl(a;b), and the pants word
    # followed by cyl(ba;B) replaces merge(a,b)
    assert _row_signature("cylinder", _PARSED["cylinder"]) == (("a",), ("a",))
    assert _row_signature("twist", _PARSED["twist"]) == (("a",), ("baB",))
    assert _row_signature("pants", _PARSED["pants"]) == (("a", "b"), ("ba",))
