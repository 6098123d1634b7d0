"""Finite groups as validated multiplication tables.

Elements are referenced by index internally and by name in file formats.
Builtin families use a documented deterministic ordering with the identity
first (see `builtin`).

Every group, builtin or user-given, is validated on one path,
`FiniteGroup`, and only by checks that can fail on their own.  The names
must be strings, distinct and at least one.  Each row is read once: its
length, its entries (plain ints), and that it is a permutation of 0..n-1,
which leaves no entry out of range.  Then come a two-sided identity and
associativity.  Columns are not checked: Latin rows, a two-sided identity
and associativity make a group, and a group's columns are permutations, so
a table with a repeated column entry fails the identity or the
associativity check.  `load_group` checks only the document's shape: an
object whose names are a list and whose table is a list of lists.  A
builtin cyclic or dihedral table of n elements is checked against the work
budget (n^2 cells) before it is built; a user table is input already.

Associativity is decided by Light's test (Clifford and Preston, *The
Algebraic Theory of Semigroups* I, 1961, section 1.2): the elements s with
(x s) y = x (s y) for all x and y form a submagma, so the law holds
everywhere once it holds for each s of a generating set.  The generators are
picked greedily, each the least element that right products from the
identity by the earlier ones do not reach, so a group of order n needs at
most log2(n) of them and the test costs O(n^2 |S|) lookups in place of n^3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotAGroup, SchemaError, UnknownElement, UnknownGroup, check_budget


class FiniteGroup:
    """A finite group given by element names and an index multiplication table.

    Construction validates the group laws (rows that are permutations, a
    two-sided identity, associativity) and locates identity and inverses.
    Instances are immutable and freely shareable, except for `signatures`,
    the table of piece boundaries that `gtqft.cobordism` fills lazily.
    """

    __slots__ = ("names", "table", "identity", "inverse", "_index", "signatures")

    def __init__(self, names, table):
        names = tuple(names)
        n = len(names)
        if n == 0:
            raise NotAGroup("a group needs at least one element")
        if not all(isinstance(x, str) for x in names):
            raise SchemaError('group "names" must be a list of strings')
        if len(set(names)) != n:
            raise NotAGroup("duplicate element names")
        if len(table) != n:
            raise NotAGroup(f"table has {len(table)} rows for {n} elements")
        full = frozenset(range(n))
        rows = []
        for i, row in enumerate(table):
            row = tuple(row)
            if len(row) != n:
                raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
            if set(map(type, row)) != {int}:  # plain ints: no bools, floats or strings
                raise SchemaError("group table entries must be integers")
            # n ints holding each of 0..n-1 once: no entry is out of range
            if frozenset(row) != full:
                raise NotAGroup(f"row {i} ({names[i]}) is not a permutation")
            rows.append(row)
        table = tuple(rows)
        columns = tuple(zip(*table))

        # a two-sided identity's row and column both read 0..n-1
        plain = tuple(range(n))
        identity = next((i for i in range(n) if table[i] == columns[i] == plain), None)
        if identity is None:
            raise NotAGroup("no two-sided identity element")

        for s in _generators(table, identity):
            row_s = table[s]
            for x in range(n):
                row_x = table[x]
                if table[row_x[s]] != tuple(map(row_x.__getitem__, row_s)):
                    y = next(y for y in range(n) if table[row_x[s]][y] != row_x[row_s[y]])
                    raise NotAGroup(
                        f"associativity fails at ({names[x]}, {names[s]}, {names[y]})"
                    )

        # each Latin row holds the identity once, at the right inverse; in
        # a group a right inverse is also the left one
        inverse = tuple(row.index(identity) for row in table)

        self.names = names
        self.table = table
        self.identity = identity
        self.inverse = inverse
        self._index = {name: i for i, name in enumerate(names)}
        self.signatures: dict = {}

    @property
    def order(self) -> int:
        return len(self.names)

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, k: int, g: int) -> int:
        """k g k^-1."""
        return self.table[self.table[k][g]][self.inverse[k]]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(f"element {name!r} is not in the group") from None

    def name(self, i: int) -> str:
        return self.names[i]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.names == other.names and self.table == other.table

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, names={self.names!r})"


def _generators(table, identity: int) -> list[int]:
    """Greedy generators of a Latin table: each is the least element that
    right products from `identity` by the earlier ones do not reach."""
    n = len(table)
    reached = [False] * n
    reached[identity] = True
    elements = [identity]
    generators: list[int] = []
    for s in range(n):
        if reached[s]:
            continue
        generators.append(s)
        # the reached elements times s, then every new element times every
        # generator, until nothing new is reached
        fresh = []
        for x in elements:
            y = table[x][s]
            if not reached[y]:
                reached[y] = True
                fresh.append(y)
        while fresh:
            x = fresh.pop()
            elements.append(x)
            for g in generators:
                y = table[x][g]
                if not reached[y]:
                    reached[y] = True
                    fresh.append(y)
    return generators


@dataclass(frozen=True)
class ConjugacyData:
    """Conjugacy classes and their least-index representatives."""

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]


def conjugacy(group: FiniteGroup) -> ConjugacyData:
    """Brute-force conjugacy classes, each represented by its least element
    index, which makes downstream basis orderings deterministic."""
    n = group.order
    seen = [False] * n
    classes = []
    for g in range(n):
        if seen[g]:
            continue
        orbit = sorted({group.conj(k, g) for k in range(n)})
        for x in orbit:
            seen[x] = True
        classes.append(tuple(orbit))
    return ConjugacyData(tuple(classes), tuple(c[0] for c in classes))


def _cyclic(n: int) -> FiniteGroup:
    names = ["e"] + [f"g{i}" for i in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(names, table)


def _dihedral(n: int) -> FiniteGroup:
    # r_i r_j = r_{i+j}; r_i s_j = s_{i+j}; s_i r_j = s_{i-j}; s_i s_j = r_{i-j}.
    names = ["e"] + [f"r{i}" for i in range(1, n)] + [f"s{i}" for i in range(n)]
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            table[i][j] = (i + j) % n
            table[i][n + j] = n + (i + j) % n
            table[n + i][j] = n + (i - j) % n
            table[n + i][n + j] = (i - j) % n
    return FiniteGroup(names, table)


def _symmetric(n: int) -> FiniteGroup:
    # Elements are permutations of 0..n-1 in lexicographic order of their
    # one-line form, so the identity comes first.  Composition is
    # (p * q)(x) = p(q(x)).
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    names = ["e"] + ["p" + "".join(str(x) for x in p) for p in perms[1:]]
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(names, table)


def _quaternion8() -> FiniteGroup:
    # Unit quaternions (1, -1, i, -i, j, -j, k, -k) as 4-tuples (a, b, c, d)
    # for a + bi + cj + dk, multiplied by the Hamilton product; "n" prefixes
    # the negatives.
    names = ["e", "n", "i", "ni", "j", "nj", "k", "nk"]
    units = [tuple(s * (x == axis) for x in range(4)) for axis in range(4) for s in (1, -1)]

    def times(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    table = [[units.index(times(p, q)) for q in units] for p in units]
    return FiniteGroup(names, table)


def builtin(name: str, parameter: int | None = None) -> FiniteGroup:
    """A named builtin group: cyclic n, dihedral n, symmetric n<=5, quaternion8."""
    if name == "cyclic":
        if parameter is None or parameter < 1:
            raise UnknownGroup(f"cyclic needs a positive order, got {parameter!r}")
        check_budget(parameter**2, "group table cells")
        return _cyclic(parameter)
    if name == "dihedral":
        if parameter is None or parameter < 1:
            raise UnknownGroup(f"dihedral needs a positive parameter, got {parameter!r}")
        check_budget((2 * parameter) ** 2, "group table cells")
        return _dihedral(parameter)
    if name == "symmetric":
        if parameter is None or not 1 <= parameter <= 5:
            raise UnknownGroup(f"symmetric supports degrees 1..5, got {parameter!r}")
        return _symmetric(parameter)
    if name == "quaternion8":
        if parameter is not None:
            raise UnknownGroup("quaternion8 takes no parameter")
        return _quaternion8()
    raise UnknownGroup(f"unknown builtin group {name!r}")


def builtin_from_string(spec: str) -> FiniteGroup:
    """Resolve a builtin group from a CLI-style string like "cyclic:4"."""
    if ":" in spec:
        name, _, raw = spec.partition(":")
        try:
            parameter = int(raw)
        except ValueError:
            raise UnknownGroup(f"bad builtin parameter in {spec!r}") from None
        return builtin(name, parameter)
    return builtin(spec)


def load_group(doc) -> FiniteGroup:
    """Build a group from a parsed JSON document {"names": [...], "table": [[...]]}."""
    if not isinstance(doc, dict):
        raise SchemaError("group document must be an object")
    names = doc.get("names")
    table = doc.get("table")
    if not isinstance(names, list):
        raise SchemaError('group "names" must be a list of strings')
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise SchemaError('group "table" must be a list of index rows')
    return FiniteGroup(names, table)


def save_group(group: FiniteGroup) -> dict:
    return {"names": list(group.names), "table": [list(row) for row in group.table]}
