"""Combinatorial surface words over a finite group.

A cobordism is a word: a sequence of layers, each layer a parallel list of
elementary pieces.  Boundary circles carry group-element labels (their
holonomies) and are listed left to right.  Adjacent layers must agree:
the output signature of one layer is the input signature of the next.

Elementary pieces and their boundary types (e is the group identity):

    id(g)       [g] -> [g]
    cyl(g;k)    [g] -> [k g k^-1]      conjugating cylinder
    merge(g,h)  [g, h] -> [g h]        pair of pants, two in
    split(g,h)  [g h] -> [g, h]        pair of pants, two out
    cap         [] -> [e]              disk creating a circle
    cup         [e] -> []              disk closing a circle
    swap(g,h)   [g, h] -> [h, g]       crossing

Text grammar (whitespace insignificant, "#" starts a line comment):

    word  := layer (";" layer)*
    layer := piece ("*" piece)*
    piece := "id(" elt ")" | "cyl(" elt ";" elt ")" | "merge(" elt "," elt ")"
           | "split(" elt "," elt ")" | "cap" | "cup" | "swap(" elt "," elt ")"

Element names come from the active group; the piece keywords are reserved
at the start of a piece but remain usable as element names inside
parentheses.

Pieces are interned, and each group's signature table holds the (dom, cod)
of every piece seen over it: a word's type check reads one entry per piece.
The check runs on the routes for words from outside: `parse`, the public
`Cobordism(...)` and so the shrink candidates of the fuzz minimizer, each
of which raises SignatureMismatch on a mistyped word.  The package's own
builders make words that are well typed by construction and pass their
(dom, cod) to `Cobordism._typed`, which does not check: `cerf_case_words`
(below), `random_cobordism`, which tracks the signature as it draws,
`rewrite_equivalent`, whose gadgets have the boundary of the piece they
replace, `tensor`, which sets two typed words side by side, and
`tqft.closed_surface_word`, built only for flat labellings, whose legs
close back to the identity.

The surface identities are one table of words in this grammar whose
elements are label products: `ab` is the product of labels a and b, read
left to right; a, b, c, d are the case's labels, A, B, C, D their inverses
and e the identity.  Each row lists alternative words of one surface,
which every field theory sends to the same map.  "111", "202" and "301"
take four labels, "cylinder" one, and "twist" and "pants" two; "103" is
compiled at import as the reverse of "301", by the piece flip `_flip` over
label products (the inverse of a product is the reversed string with its
case swapped).  `cerf_case_words` builds a row's words,
`cerf --case` (`tqft.cerf_check`) compares the words of every row, and
`rewrite_equivalent` replaces a piece by a word of the cylinder, twist or
pants row.

Each row is proved typed once, at import, over the free group on a, b, c,
d: every layer boundary of every word, reduced there, chains, and all the
row's words share one (dom, cod); otherwise the import raises
SignatureMismatch.  A boundary equal over the free group is equal under
every labelling in every group, since a labelling is a homomorphism from
it, so no word of the table can fail the per-labelling check, which is
skipped.  The row's (dom, cod) is read from value slots once per
labelling and shared by all its words.
"""

from __future__ import annotations

import enum
import random
import re
from functools import partial
from operator import itemgetter
from typing import Sequence

from .errors import ParseError, SignatureMismatch, UnknownElement
from .groups import FiniteGroup

Signature = tuple[int, ...]


class PieceKind(enum.Enum):
    __hash__ = object.__hash__  # members are singletons

    ID = "id"
    CYL = "cyl"
    MERGE = "merge"
    SPLIT = "split"
    CAP = "cap"
    CUP = "cup"
    SWAP = "swap"


# kind -> (label count, separator between its labels in the text grammar)
_GRAMMAR = {
    PieceKind.ID: (1, ","),
    PieceKind.CYL: (2, ";"),
    PieceKind.MERGE: (2, ","),
    PieceKind.SPLIT: (2, ","),
    PieceKind.CAP: (0, ","),
    PieceKind.CUP: (0, ","),
    PieceKind.SWAP: (2, ","),
}

# kind -> labels -> the one Piece with them
_PIECES: dict[PieceKind, dict[tuple[int, ...], Piece]] = {kind: {} for kind in PieceKind}


class Piece:
    """An elementary piece, interned: `Piece(kind, labels)` returns the one
    immutable object with those fields, so pieces compare and hash by
    identity.  The table words label pieces by product strings instead."""

    __slots__ = ("kind", "labels")

    def __new__(cls, kind: PieceKind, labels: tuple[int, ...] = ()):
        piece = _PIECES[kind].get(labels)
        if piece is None:
            count = _GRAMMAR[kind][0]
            if len(labels) != count:
                raise SignatureMismatch(f"{kind.value} takes {count} labels, got {len(labels)}")
            piece = _PIECES[kind][labels] = object.__new__(cls)
            object.__setattr__(piece, "kind", kind)
            object.__setattr__(piece, "labels", labels)
        return piece

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Piece, (self.kind, self.labels)

    def __repr__(self) -> str:
        return f"Piece(kind={self.kind!r}, labels={self.labels!r})"

    def text(self, group: FiniteGroup) -> str:
        if not self.labels:
            return self.kind.value
        separator = _GRAMMAR[self.kind][1]
        return f"{self.kind.value}({separator.join(map(group.name, self.labels))})"


# kind -> the (dom, cod) of its piece with labels g, as in the table above
_BOUNDARY = {
    PieceKind.ID: lambda group, g: (g, g),
    PieceKind.CYL: lambda group, g: (g[:1], (group.conj(g[1], g[0]),)),
    PieceKind.MERGE: lambda group, g: (g, (group.mul(g[0], g[1]),)),
    PieceKind.SPLIT: lambda group, g: ((group.mul(g[0], g[1]),), g),
    PieceKind.CAP: lambda group, g: ((), (group.identity,)),
    PieceKind.CUP: lambda group, g: ((group.identity,), ()),
    PieceKind.SWAP: lambda group, g: (g, (g[1], g[0])),
}


def _signature(group: FiniteGroup, piece: Piece) -> tuple[Signature, Signature]:
    """The (dom, cod) of a piece over the group, from the group's signature
    table, filled after a label range check when the group first sees it."""
    entry = group.signatures.get(piece)
    if entry is None:
        if any(not 0 <= lab < group.order for lab in piece.labels):
            raise SignatureMismatch("piece label outside the group's element range")
        entry = group.signatures[piece] = _BOUNDARY[piece.kind](group, piece.labels)
    return entry


def id_piece(g: int) -> Piece:
    return Piece(PieceKind.ID, (g,))


def cyl(g: int, k: int) -> Piece:
    return Piece(PieceKind.CYL, (g, k))


def merge(g: int, h: int) -> Piece:
    return Piece(PieceKind.MERGE, (g, h))


def split(g: int, h: int) -> Piece:
    return Piece(PieceKind.SPLIT, (g, h))


def cap() -> Piece:
    return Piece(PieceKind.CAP)


def cup() -> Piece:
    return Piece(PieceKind.CUP)


def swap(g: int, h: int) -> Piece:
    return Piece(PieceKind.SWAP, (g, h))


def _format_signature(group: FiniteGroup, sig: Signature) -> str:
    return "[" + ", ".join(group.name(g) for g in sig) + "]"


def _walk(layers, boundary, mismatch, dom=None) -> tuple[tuple, tuple]:
    """The (dom, cod) of `layers`, each piece's read by `boundary`: all
    layers are summed, then each must start where the one before ends (the
    first at `dom`, if given), or `mismatch(n, expects, receives)` is raised
    for layer n, counted from 1."""
    bounds = []
    for layer in layers:
        layer_dom = layer_cod = ()
        for piece in layer:
            entry = boundary(piece)
            layer_dom += entry[0]
            layer_cod += entry[1]
        bounds.append((layer_dom, layer_cod))
    first = bounds[0][0] if bounds else dom or ()
    current = first if dom is None else dom
    for n, (layer_dom, layer_cod) in enumerate(bounds, 1):
        if layer_dom != current:
            raise mismatch(n, layer_dom, current)
        current = layer_cod
    return first, current


class Cobordism:
    """A well-typed word of layers.  Immutable after construction.

    `Cobordism(group, layers)` checks the type: each piece's labels lie in
    the group, each layer's domain is the codomain of the one before, and
    the first layer's domain is the declared `domain`, if any; a mistyped
    word raises SignatureMismatch.  The package's own builders know the
    type from how they build a word and pass it to `Cobordism._typed`,
    which does not check.
    """

    __slots__ = ("group", "layers", "dom", "cod")

    def __init__(
        self,
        group: FiniteGroup,
        layers: Sequence[Sequence[Piece]],
        domain: Signature | None = None,
    ):
        layers = tuple(map(tuple, layers))

        def mismatch(n: int, expects: Signature, receives: Signature) -> SignatureMismatch:
            expects, receives = (_format_signature(group, sig) for sig in (expects, receives))
            return SignatureMismatch(  # at layer 1, only a declared domain can differ
                f"declared domain {receives} does not match first layer {expects}" if n == 1
                else f"layer {n} expects {expects} but receives {receives}"
            )

        domain = None if domain is None else tuple(domain)
        dom, cod = _walk(layers, partial(_signature, group), mismatch, domain)
        self.group = group
        self.layers = layers
        self.dom = dom
        self.cod = cod

    @classmethod
    def _typed(cls, group: FiniteGroup, layers, dom: Signature, cod: Signature) -> Cobordism:
        """The word of `layers`, a tuple of tuples, from `dom` to `cod`,
        without the type check: for builders whose words are well typed by
        construction, at those signatures."""
        word = object.__new__(cls)
        word.group, word.layers, word.dom, word.cod = group, layers, dom, cod
        return word

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cobordism):
            return NotImplemented
        return self.group == other.group and self.layers == other.layers and self.dom == other.dom

    def __repr__(self) -> str:
        return f"Cobordism({_format_signature(self.group, self.dom)} -> " + (
            f"{_format_signature(self.group, self.cod)}, {len(self.layers)} layers)"
        )

    def to_text(self) -> str:
        return " ; ".join(
            " * ".join(piece.text(self.group) for piece in layer) for layer in self.layers
        )


def tensor(c1: Cobordism, c2: Cobordism) -> Cobordism:
    """Place two words side by side; the shorter is padded with id layers."""
    if c1.group != c2.group:
        raise SignatureMismatch("cannot tensor words over different groups")
    group = c1.group
    depth = max(len(c1.layers), len(c2.layers))

    def padded(c: Cobordism) -> list[tuple[Piece, ...]]:
        layers = list(c.layers)
        pad = tuple(id_piece(g) for g in c.cod)
        while len(layers) < depth:
            layers.append(pad)
        return layers

    layers = tuple([a + b for a, b in zip(padded(c1), padded(c2))])
    return Cobordism._typed(group, layers, c1.dom + c2.dom, c1.cod + c2.cod)


_FLIPPED_KIND = {
    PieceKind.MERGE: PieceKind.SPLIT, PieceKind.SPLIT: PieceKind.MERGE,
    PieceKind.CAP: PieceKind.CUP, PieceKind.CUP: PieceKind.CAP,
}


def _flip(layers, conj, inv) -> tuple[tuple[Piece, ...], ...]:
    """The layers read backwards: in reverse order, merge <-> split, cap <->
    cup, cylinders conjugating back and swaps exchanging their labels, where
    `conj(k, g)` is k g k^-1 and `inv` the inverse of whatever labels are."""

    def flip(piece: Piece) -> Piece:
        kind, labels = piece.kind, piece.labels
        if kind is PieceKind.CYL:
            g, k = labels
            return cyl(conj(k, g), inv(k))
        if kind is PieceKind.SWAP:
            return swap(labels[1], labels[0])
        return Piece(_FLIPPED_KIND.get(kind, kind), labels)

    return tuple(tuple(map(flip, layer)) for layer in reversed(layers))


# ---------------------------------------------------------------------------
# Parsing


_PUNCT = ";*(),"
_TOKEN = re.compile(r"[;*(),]|[^\s;*(),#]+")


def _tokenize(text: str):
    """The (kind, text, line, column) of every token outside comments; kind
    is "name" or the punctuation mark itself."""
    tokens = []
    for line, source in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(source.partition("#")[0]):
            token = m.group()
            tokens.append((token if token in _PUNCT else "name", token, line, m.start() + 1))
    return tokens


_PIECE_KEYWORDS = '"id", "cyl", "merge", "split", "cap", "cup" or "swap"'
# keyword -> (kind, label count, separator)
_KEYWORD_GRAMMAR = {kind.value: (kind, *grammar) for kind, grammar in _GRAMMAR.items()}


class _Parser:
    """Reads the word grammar; `lookup` turns an element name into a label."""

    def __init__(self, text: str, lookup):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.lookup = lookup
        self.end_line = text.count("\n") + 1
        self.end_col = len(text) - (text.rfind("\n") + 1) + 1

    def error(self, message: str, expected: str) -> ParseError:
        tok = self.peek()
        line, col = (self.end_line, self.end_col) if tok is None else tok[2:]
        return ParseError(message, line, col, expected)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str, expected: str):
        tok = self.peek()
        if tok is None or tok[0] != kind:
            found = "end of input" if tok is None else repr(tok[1])
            raise self.error(f"found {found}", expected)
        self.pos += 1
        return tok

    def element(self):
        tok = self.take("name", "an element name")
        try:
            return self.lookup(tok[1])
        except UnknownElement:
            raise ParseError(
                f"unknown element {tok[1]!r}", tok[2], tok[3], "an element of the group"
            ) from None

    def piece(self) -> Piece:
        tok = self.take("name", _PIECE_KEYWORDS)
        if tok[1] not in _KEYWORD_GRAMMAR:
            raise ParseError(f"unknown piece {tok[1]!r}", tok[2], tok[3], _PIECE_KEYWORDS)
        kind, count, separator = _KEYWORD_GRAMMAR[tok[1]]
        labels = []
        if count:
            self.take("(", '"("')
            labels.append(self.element())
            for _ in range(count - 1):
                self.take(separator, f'"{separator}"')
                labels.append(self.element())
            self.take(")", '")"')
        return Piece(kind, tuple(labels))

    def word(self) -> list[tuple[Piece, ...]]:
        layers = [self.layer()]
        while (tok := self.peek()) is not None:
            if tok[0] != ";":
                raise self.error(f"unexpected {tok[1]!r}", '";" or end of input')
            self.pos += 1
            layers.append(self.layer())
        return layers

    def layer(self) -> tuple[Piece, ...]:
        pieces = [self.piece()]
        while (tok := self.peek()) is not None and tok[0] == "*":
            self.pos += 1
            pieces.append(self.piece())
        return tuple(pieces)


def parse(text: str, group: FiniteGroup) -> Cobordism:
    """Parse and type-check a surface word against the given group."""
    parser = _Parser(text, group.index)
    if not parser.tokens:
        raise ParseError("empty word", 1, 1, "a layer")
    return Cobordism(group, parser.word())


# ---------------------------------------------------------------------------
# Cerf move cases

# case -> its alternative words; each label is a product of the case's
# labels a, b, c, d, their inverses A, B, C, D and the identity e
_CASE_WORDS = {
    # one handle between a single input and a single output circle
    "111": (
        "split(ab,cd) ; cyl(ab;b) * cyl(cd;d) ; merge(ba,dc) ; cyl(badc;B)",
        "cyl(abcd;d) ; split(da,bc) ; cyl(da;D) * cyl(bc;c) ; merge(ad,cb)",
    ),
    # four-holed sphere: the vertical cut in both critical orders and the
    # two horizontal cuts
    "202": (
        "merge(ab,cd) ; cyl(abcd;A) ; split(bc,da) ; cyl(bc;c) * cyl(da;a)",
        "cyl(ab;A) * cyl(cd;C) ; merge(ba,dc) ; cyl(badc;c) ; split(cb,ad)",
        "id(ab) * split(cA,ad) ; cyl(ab;A) * cyl(cA;A) * id(ad) ; merge(ba,Ac) * id(ad)"
        " ; cyl(bc;c) * id(ad)",
        "cyl(ab;b) * id(cd) ; split(bc,Ca) * id(cd) ; cyl(bc;c) * cyl(Ca;c) * id(cd)"
        " ; id(cb) * merge(aC,cd)",
    ),
    # three inputs merged into one output, in all four bracketings
    "301": (
        "merge(ab,cA) * id(dC) ; cyl(abcA;A) * cyl(dC;C) ; merge(bc,Cd)",
        "id(ab) * merge(cA,dC) ; cyl(ab;A) * cyl(cAdC;C) ; merge(ba,Ad)",
        "cyl(ab;A) * cyl(cA;A) * cyl(dC;C) ; id(ba) * merge(Ac,Cd) ; merge(ba,Ad)",
        "cyl(ab;A) * cyl(cA;A) * cyl(dC;C) ; merge(ba,Ac) * id(Cd) ; merge(bc,Cd)",
    ),
    "cylinder": (
        "id(a)", "cyl(a;e)", "cyl(a;a)", "id(a) * cap ; merge(a,e)", "cap * id(a) ; merge(e,a)",
        "split(a,e) ; id(a) * cup", "split(e,a) ; cup * id(a)",
    ),
    # the cylinder from a labelled b, twisted n times at its outgoing and m
    # times at its incoming circle, is labelled h^n b a^m = b a^(n+m) with
    # h = b a b^-1: word j is twisted j times in all
    "twist": ("cyl(a;b)", "cyl(a;ba)", "cyl(a;baa)", "cyl(a;baaa)", "cyl(a;baaaa)"),
    # the two boundary orderings of a pair of pants: merging then twisting
    # by the second input's label, and merging after a crossing
    "pants": ("merge(a,b) ; cyl(ab;b)", "swap(a,b) ; merge(b,a)"),
}

CERF_CASES = ("111", "202", "301", "103", "cylinder", "twist", "pants")

_LABEL_LETTERS = "abcd"


def _picker(indices: list[int]):
    """The function taking a tuple to the tuple of its items at `indices`."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


def _inverse(x: str) -> str:
    """The inverse of a label product: the reversed string, case swapped."""
    return x[::-1].swapcase()


def _reduce(x: str) -> str:
    """A label product reduced over the free group on a, b, c, d: each e
    dropped and each letter next to its inverse cancelled; "" is e."""
    out: list[str] = []
    for c in x:
        if c == "e":
            continue
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


class _FreeGroup:
    """The free group on the label letters, on reduced label products: the
    part of `FiniteGroup` that `_BOUNDARY` reads."""

    identity = ""

    @staticmethod
    def mul(g: str, h: str) -> str:
        return _reduce(g + h)

    @staticmethod
    def conj(k: str, g: str) -> str:
        return _reduce(k + g + _inverse(k))


def _row_signature(case: str, parsed: list[list[tuple[Piece, ...]]]):
    """The one (dom, cod) of a table row's words over the free group, as
    tuples of reduced label products; SignatureMismatch unless every layer
    of every word chains there and all words share it."""

    def boundary(piece: Piece):
        return _BOUNDARY[piece.kind](_FreeGroup, tuple(map(_reduce, piece.labels)))

    signatures = set()
    for index, word in enumerate(parsed):
        where = f"move case {case} word {index}"
        signatures.add(_walk(word, boundary, lambda n, expects, receives: SignatureMismatch(
            f"{where}: layer {n} expects {expects} but receives {receives} over the free group"
        )))
    if len(signatures) != 1:
        raise SignatureMismatch(
            f"move case {case} has words of different signatures: {sorted(signatures)}"
        )
    return signatures.pop()


def _compile(case: str, parsed: list[list[tuple[Piece, ...]]]):
    """One case's parsed words, read once into slots that a labelling fills.

    Value slots hold e, the labels, their inverses, then the label
    products: step (i, j) fills the next slot with slot i times slot j.
    A piece is its kind's intern table, its kind and a picker of value
    slots, a layer a picker of pieces and a word a picker of layers.  The
    row's dom and cod, proved over the free group by `_row_signature`, are
    pickers of value slots too, so every word of a labelling shares them;
    the last item is the label count.
    """
    dom, cod = (tuple(x or "e" for x in sig) for sig in _row_signature(case, parsed))
    layers = {x: i for i, x in enumerate(dict.fromkeys(x for word in parsed for x in word))}
    pieces = {p: i for i, p in enumerate(dict.fromkeys(p for layer in layers for p in layer))}
    products = {x for p in pieces for x in p.labels}
    letters = "".join(sorted({c.lower() for x in products for c in x} - {"e"}))
    assert _LABEL_LETTERS.startswith(letters)
    slot = {x: i for i, x in enumerate("e" + letters + letters.upper())}
    steps = []
    prefixes = {x[:n] for x in products | {*dom, *cod} for n in range(2, len(x) + 1)}
    for x in sorted(prefixes, key=len):
        steps.append((slot[x[:-1]], slot[x[-1]]))
        slot[x] = len(slot)
    return (
        tuple(steps),
        tuple((_PIECES[p.kind], p.kind, _picker([slot[x] for x in p.labels])) for p in pieces),
        tuple(_picker([pieces[p] for p in layer]) for layer in layers),
        tuple(_picker([layers[layer] for layer in word]) for word in parsed),
        _picker([slot[x] for x in dom]),
        _picker([slot[x] for x in cod]),
        len(letters),
    )


_PARSED = {case: [_Parser(w, str).word() for w in words] for case, words in _CASE_WORDS.items()}
# 103: each 301 word reversed
_PARSED["103"] = [_flip(w, lambda k, g: k + g + _inverse(k), _inverse) for w in _PARSED["301"]]
# every row is proved typed over the free group here, before any word is built
_COMPILED = {case: _compile(case, words) for case, words in _PARSED.items()}


def case_label_count(case: str) -> int:
    if case not in CERF_CASES:
        raise SignatureMismatch(f"unknown move case {case!r}; expected one of {CERF_CASES}")
    return _COMPILED[case][-1]


def _slot_values(group: FiniteGroup, steps, labels: tuple[int, ...]) -> tuple[int, ...]:
    """The value slots of a compiled case at `labels`: e, the labels, their
    inverses, then one product per step."""
    table, inverse = group.table, group.inverse
    value = [group.identity, *labels, *[inverse[x] for x in labels]]
    for i, j in steps:
        value.append(table[value[i]][value[j]])
    return tuple(value)


def _pieces_at(piece_rows, value: tuple[int, ...]) -> tuple[Piece, ...]:
    """The compiled pieces at the value slots, each read from its kind's
    intern table and built only when the table does not hold it yet."""
    return tuple([
        table.get(labels) or Piece(kind, labels)
        for table, kind, labels_of in piece_rows
        for labels in (labels_of(value),)
    ])


def _case_word(group: FiniteGroup, case: str, labels: tuple[int, ...], index: int):
    """The layers of word `index` of table row `case` at `labels`, unchecked;
    only that word's pieces are built."""
    steps, piece_rows, layer_rows, word_rows = _COMPILED[case][:4]
    value = _slot_values(group, steps, labels)
    return tuple([
        _pieces_at(pieces_of(piece_rows), value)
        for pieces_of in word_rows[index](layer_rows)
    ])


def cerf_case_words(group: FiniteGroup, case: str, labels: Sequence[int]) -> list[Cobordism]:
    """Alternative decompositions of one surface, as words to compare.

    Every word in the returned list shares the same domain and codomain
    signature; a field theory must send them all to the same linear map.
    Cases "111", "202", "301" and "103" are the two-critical-point surfaces
    with labelled holonomy arcs; "cylinder" covers the birth/death
    insertions of caps and cups; "twist" twists a cylinder's boundary
    circles and "pants" reorders a merge's inputs.
    """
    want = case_label_count(case)
    labels = tuple(labels)
    if len(labels) != want:
        raise SignatureMismatch(f"case {case} takes {want} labels, got {len(labels)}")
    steps, piece_rows, layer_rows, word_rows, dom_of, cod_of, _ = _COMPILED[case]
    value = _slot_values(group, steps, labels)
    pieces = _pieces_at(piece_rows, value)
    layers = tuple([pieces_of(pieces) for pieces_of in layer_rows])
    dom, cod = dom_of(value), cod_of(value)
    return [Cobordism._typed(group, layers_of(layers), dom, cod) for layers_of in word_rows]


# ---------------------------------------------------------------------------
# Evaluation-preserving rewrites


def _splice(word: Cobordism, layer_index: int, piece_index: int, gadget) -> Cobordism:
    """Replace one piece by a gadget of one or more layers with the same
    boundary; the sibling pieces run through the later gadget layers as
    identities."""
    group = word.group
    layer = word.layers[layer_index]
    left = layer[:piece_index]
    right = layer[piece_index + 1 :]
    new_layers = [left + gadget[0] + right]
    if len(gadget) > 1:
        left_ids = tuple(id_piece(g) for p in left for g in _signature(group, p)[1])
        right_ids = tuple(id_piece(g) for p in right for g in _signature(group, p)[1])
        new_layers += [left_ids + gadget_layer + right_ids for gadget_layer in gadget[1:]]
    layers = word.layers[:layer_index] + tuple(new_layers) + word.layers[layer_index + 1 :]
    return Cobordism._typed(group, layers, word.dom, word.cod)


def rewrite_equivalent(word: Cobordism, rng: random.Random) -> Cobordism | None:
    """Apply one random local rewrite that cannot change the word's value.

    The rewrite replaces one piece by a table word with the same boundary:
    an id by `cylinder` word 1, 2, 3 or 5 (the trivial or self-conjugating
    cylinder, or a cap/merge unit or split/cup counit pair), a cylinder by
    a `twist` word (up to two twists at each boundary circle), and a merge
    by the crossed `pants` word followed by the cylinder that undoes its
    twist.  Each rewrite is an identity of the evaluation for every algebra
    satisfying the laws, so fuzzing may assert equality.  Returns None when
    the word offers no rewrite site.
    """
    group = word.group
    sites = [
        (li, pi, piece.kind)
        for li, layer in enumerate(word.layers)
        for pi, piece in enumerate(layer)
        if piece.kind in (PieceKind.ID, PieceKind.CYL, PieceKind.MERGE)
    ]
    if not sites:
        return None
    layer_index, piece_index, kind = sites[rng.randrange(len(sites))]
    labels = word.layers[layer_index][piece_index].labels
    if kind is PieceKind.ID:
        gadget = _case_word(group, "cylinder", labels, rng.choice((1, 2, 3, 5)))
    elif kind is PieceKind.CYL:
        gadget = _case_word(group, "twist", labels, rng.randrange(3) + rng.randrange(3))
    else:
        g, h = labels
        gadget = _case_word(group, "pants", labels, 1) + ((cyl(group.mul(h, g), group.inv(h)),),)
    return _splice(word, layer_index, piece_index, gadget)


# ---------------------------------------------------------------------------
# Random generation

_MAX_WIDTH = 5  # no random word's layer boundary has more legs


def random_cobordism(group: FiniteGroup, seed: int, size_budget: int) -> Cobordism:
    """Deterministic pseudo-random well-typed word with at most
    `size_budget` pieces.  Used as a fuzzing source; the same seed always
    yields the same word.
    """
    if size_budget < 1:
        raise ValueError("size_budget must be at least 1")
    rng = random.Random(seed)
    n = group.order
    e = group.identity
    budget = size_budget
    layers: list[tuple[Piece, ...]] = []

    if budget >= 2 and rng.random() < 0.2:
        layers.append((cap(),))
        budget -= 1
        dom: Signature = ()
        sig: Signature = (e,)
    else:
        dom = sig = (rng.randrange(n),)

    while budget >= len(sig) and sig:
        pieces: list[Piece] = []
        out: list[int] = []
        i = 0
        while i < len(sig):
            g = sig[i]
            rest = len(sig) - i
            slack = budget - len(pieces) - rest
            if (
                slack >= 1
                and len(out) + rest < _MAX_WIDTH
                and rng.random() < 0.08
            ):
                piece = cap()
            else:
                options = ["id", "cyl"]
                if g == e:
                    options.append("cup")
                if i + 1 < len(sig):
                    options.extend(["merge", "swap"])
                if len(out) + rest + 1 <= _MAX_WIDTH:
                    options.append("split")
                choice = rng.choice(options)
                if choice == "id":
                    piece = id_piece(g)
                elif choice == "cyl":
                    piece = cyl(g, rng.randrange(n))
                elif choice == "cup":
                    piece = cup()
                elif choice == "split":
                    g1 = rng.randrange(n)
                    piece = split(g1, group.mul(group.inv(g1), g))
                else:  # merge or swap: takes the next leg too
                    h = sig[i + 1]
                    piece = merge(g, h) if choice == "merge" else swap(g, h)
                    i += 1
                i += 1
            pieces.append(piece)
            out.extend(_signature(group, piece)[1])
        layers.append(tuple(pieces))
        budget -= len(pieces)
        sig = tuple(out)
        if rng.random() < 0.25:
            break

    # each layer consumes every leg of `sig` and leaves the legs of `out`
    return Cobordism._typed(group, tuple(layers), dom, sig)
