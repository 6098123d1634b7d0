import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtqft.errors
import gtqft.groups
from gtqft import FiniteGroup, builtin, builtin_from_string, conjugacy
from gtqft.cli import main
from gtqft.errors import (
    BudgetExceeded,
    EngineError,
    NotAGroup,
    SchemaError,
    UnknownElement,
    UnknownGroup,
)
from gtqft.groups import load_group, save_group

BUILTINS = [
    ("cyclic", 1),
    ("cyclic", 2),
    ("cyclic", 5),
    ("cyclic", 6),
    ("dihedral", 3),
    ("dihedral", 4),
    ("symmetric", 3),
    ("symmetric", 4),
    ("quaternion8", None),
]


def compose_perms(p, q):
    return tuple(p[q[x]] for x in range(len(p)))


def cubic_associativity_failure(table):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc), or
    None: the direct n^3 check that Light's test in `FiniteGroup` is
    compared with."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


def loops(n, rng=None):
    """Every Latin square of order n with identity 0 (a loop), by
    backtracking cell by cell; with `rng`, in a random order."""
    table = [[0] * n for _ in range(n)]
    table[0] = list(range(n))
    for i in range(n):
        table[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(at):
        if at == len(cells):
            yield [list(row) for row in table]
            return
        i, j = cells[at]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        candidates = [x for x in range(n) if x not in used]
        if rng is not None:
            rng.shuffle(candidates)
        for x in candidates:
            table[i][j] = x
            yield from fill(at + 1)

    return fill(0)


def relabeled(table, perm):
    """The table with element x renamed perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def assert_light_agrees(table):
    """`FiniteGroup` accepts the Latin table with an identity exactly when
    the cubic check does, and a rejection names a failing triple."""
    names = [f"x{i}" for i in range(len(table))]
    if cubic_associativity_failure(table) is None:
        assert FiniteGroup(names, table).table == tuple(map(tuple, table))
        return
    with pytest.raises(NotAGroup, match=r"^associativity fails at \(x\d+, x\d+, x\d+\)$") as info:
        FiniteGroup(names, table)
    x, s, y = (int(w.strip(" x()")) for w in str(info.value).split("at ")[1].split(","))
    assert table[table[x][s]][y] != table[x][table[s][y]]


class TestFromTable:
    def test_z2(self):
        g = FiniteGroup(["e", "a"], [[0, 1], [1, 0]])
        assert g.identity == 0
        assert g.inv(1) == 1

    def test_bad_row_rejected(self):
        with pytest.raises(NotAGroup):
            FiniteGroup(["e", "a"], [[0, 1], [1, 1]])

    def test_no_identity_rejected(self):
        # Latin square whose only left identity is not a right identity
        with pytest.raises(NotAGroup, match="identity"):
            FiniteGroup(["a", "b", "c"], [[0, 1, 2], [2, 0, 1], [1, 2, 0]])

    # rows/columns are permutations but (1*1)*2 != 1*(1*2)
    NON_ASSOCIATIVE = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]

    def test_non_associative_rejected(self):
        table = self.NON_ASSOCIATIVE
        with pytest.raises(NotAGroup, match=r"^associativity fails at \(a, a, b\)$"):
            FiniteGroup(list("eabcd"), table)
        assert cubic_associativity_failure(table) == (1, 1, 2)

    def test_s3_from_permutation_composition(self):
        # independent construction: compose permutations directly
        perms = sorted(itertools.permutations(range(3)))
        table = [
            [perms.index(compose_perms(p, q)) for q in perms] for p in perms
        ]
        g = FiniteGroup([str(p) for p in perms], table)
        assert g.order == 6
        assert g == FiniteGroup(g.names, g.table)
        assert builtin("symmetric", 3).table == g.table


def group_oracle(table):
    """(identity, inverses) when a table whose rows are permutations is a
    group by the checks `FiniteGroup` no longer makes (Latin columns) and
    the ones it does (a two-sided identity, associativity, here cubic), or
    None when it is not a group."""
    n = len(table)
    if any(sorted(column) != list(range(n)) for column in zip(*table)):
        return None
    identities = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not identities or cubic_associativity_failure(table) is not None:
        return None
    (e,) = identities
    inverses = tuple(next(y for y in range(n) if table[x][y] == e == table[y][x]) for x in range(n))
    return e, inverses


def assert_oracle_agrees(table):
    """`FiniteGroup` accepts the table exactly when the oracle calls it a
    group, with the oracle's identity and inverses, and refuses it
    otherwise with a parse error."""
    names = [f"x{i}" for i in range(len(table))]
    expected = group_oracle(table)
    if expected is None:
        with pytest.raises(EngineError) as info:
            FiniteGroup(names, table)
        assert info.value.category == "parse"
        return False
    g = FiniteGroup(names, table)
    assert (g.identity, g.inverse) == expected
    assert g.table == tuple(map(tuple, table))
    return True


class TestDeletedChecks:
    """`FiniteGroup` checks neither the range of an entry nor that columns
    are permutations: a row of n ints that is a permutation of 0..n-1
    holds no out-of-range entry, and a table with Latin rows, a two-sided
    identity and associativity is a group, whose columns are permutations.
    The oracle checks the columns as well and must agree."""

    def test_every_table_of_permutation_rows_up_to_order_3(self):
        groups = {}
        for n in range(1, 4):
            perms = [list(p) for p in itertools.permutations(range(n))]
            for rows in itertools.product(perms, repeat=n):
                groups[n] = groups.get(n, 0) + assert_oracle_agrees([list(r) for r in rows])
        # the labelled tables of Z1, Z2 and Z3: n! / |Aut(Zn)| of each
        assert groups == {1: 1, 2: 2, 3: 3}

    @pytest.mark.parametrize("n", [4, 5])
    def test_seeded_sample(self, n):
        # random permutation rows (almost never a group), the groups of
        # order n relabelled, and those with two entries of one row
        # swapped: Latin rows with a repeated column entry
        rng = random.Random(n)
        groups = [builtin("cyclic", n).table]
        if n == 4:
            groups.append([[a ^ b for b in range(4)] for a in range(4)])
        accepted = 0
        for _ in range(2000):
            assert_oracle_agrees([rng.sample(range(n), n) for _ in range(n)])
            perm = rng.sample(range(n), n)
            table = relabeled(rng.choice(groups), perm)
            accepted += assert_oracle_agrees(table)
            row = rng.choice(table)
            a, b = rng.sample(range(n), 2)
            row[a], row[b] = row[b], row[a]
            assert not assert_oracle_agrees(table)
        assert accepted == 2000

    @pytest.mark.parametrize(
        "table,error,message",
        [
            ([[0, 1], [1, 2]], NotAGroup, "row 1 (a) is not a permutation"),
            ([[0, -1], [1, 0]], NotAGroup, "row 0 (e) is not a permutation"),
            ([[0, 1.9], [1, 0]], SchemaError, "group table entries must be integers"),
            ([[0, True], [1, 0]], SchemaError, "group table entries must be integers"),
            ([[0, "1"], [1, 0]], SchemaError, "group table entries must be integers"),
            ([[0, 1.0], [1, 0]], SchemaError, "group table entries must be integers"),
            # int() of each entry reads this as Z2
            ([[0, 1.9], [True, "0"]], SchemaError, "group table entries must be integers"),
            # each row is read once, in order: a fault of an earlier row first
            ([[0, 0], [1.5, 0]], NotAGroup, "row 0 (e) is not a permutation"),
            ([[0], [1.5, 0]], NotAGroup, "row 0 has length 1, expected 2"),
            ([[0, 1], [1.5, 0]], SchemaError, "group table entries must be integers"),
        ],
    )
    def test_refused_entries(self, table, error, message):
        with pytest.raises(error) as info:
            FiniteGroup(["e", "a"], table)
        assert type(info.value) is error and str(info.value) == message
        assert info.value.category == "parse"

    @pytest.mark.parametrize(
        "table,message",
        [
            # Z3 with the last two entries of row b swapped: column a reads
            # (a, b, a), and Light's test refuses it
            ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "associativity fails at (a, a, a)"),
            # column a reads (e, a, a), and no element is a two-sided identity
            ([[1, 0, 2], [0, 1, 2], [2, 1, 0]], "no two-sided identity element"),
        ],
    )
    def test_repeated_column_entry(self, table, message):
        assert group_oracle(table) is None
        with pytest.raises(NotAGroup) as info:
            FiniteGroup(["e", "a", "b"], table)
        assert str(info.value) == message


class TestLightsTest:
    """Associativity over greedy generators against the cubic check."""

    @pytest.mark.parametrize(
        "name,params",
        [("cyclic", range(1, 31)), ("dihedral", range(1, 13)), ("symmetric", range(1, 6))],
    )
    def test_builtins(self, name, params):
        # `builtin` builds through `FiniteGroup`, so Light's test accepted
        for param in params:
            assert cubic_associativity_failure(builtin(name, param).table) is None

    def test_quaternion8(self):
        assert cubic_associativity_failure(builtin("quaternion8").table) is None

    def test_every_loop_up_to_order_5(self):
        # the 1 + 1 + 1 + 4 + 56 reduced Latin squares of orders 1..5, of
        # which 1 + 1 + 1 + 4 + 6 are groups
        verdicts = {}
        for n in range(1, 6):
            for table in loops(n):
                assert_light_agrees(table)
                group = cubic_associativity_failure(table) is None
                verdicts[n, group] = verdicts.get((n, group), 0) + 1
        assert verdicts == {
            (1, True): 1, (2, True): 1, (3, True): 1, (4, True): 4, (5, True): 6, (5, False): 50,
        }

    def test_nucleus_generated_first(self):
        # Z2^3 x the five-element loop of test_non_associative_rejected,
        # indexed so that Z2^3 x {e} comes first: the first three greedy
        # generators lie in the middle nucleus, where (x s) y = x (s y)
        # holds, and only a generator from the loop factor sees the failure
        loop = TestFromTable.NON_ASSOCIATIVE
        table = [
            [(loop[l][m] << 3) | (g ^ h) for m in range(5) for h in range(8)]
            for l in range(5)
            for g in range(8)
        ]
        assert cubic_associativity_failure(table) is not None
        assert_light_agrees(table)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_random_loops(self, n, seed):
        rng = random.Random(seed)
        table = next(loops(n, rng))
        perm = list(range(n))
        rng.shuffle(perm)  # the identity anywhere, and other generators
        assert_light_agrees(relabeled(table, perm))

    @pytest.mark.parametrize("seed", range(20))
    def test_groups_with_one_intercalate_swapped(self, seed):
        # a 2x2 subsquare off the identity's row and column with its two
        # symbols swapped: still a Latin table with an identity, and (for
        # these seeds) never associative
        rng = random.Random(seed)
        group = builtin(*rng.choice([("dihedral", 4), ("quaternion8", None), ("cyclic", 8)]))
        table = [list(row) for row in group.table]
        n = len(table)
        swaps = [
            (r1, r2, c1, c2)
            for r1, r2 in itertools.combinations(range(1, n), 2)
            for c1, c2 in itertools.combinations(range(1, n), 2)
            if table[r1][c1] == table[r2][c2] and table[r1][c2] == table[r2][c1]
        ]
        r1, r2, c1, c2 = rng.choice(swaps)
        table[r1][c1], table[r1][c2] = table[r1][c2], table[r1][c1]
        table[r2][c1], table[r2][c2] = table[r2][c2], table[r2][c1]
        perm = list(range(n))
        rng.shuffle(perm)
        assert cubic_associativity_failure(table) is not None
        assert_light_agrees(relabeled(table, perm))


class TestBuiltin:
    def test_trivial(self):
        g = builtin("cyclic", 1)
        assert g.order == 1 and g.identity == 0

    def test_symmetric_3(self):
        assert builtin("symmetric", 3).order == 6

    def test_quaternion_class_count(self):
        g = builtin("quaternion8")
        data = conjugacy(g)
        assert g.order == 8
        assert len(data.classes) == 5

    def test_quaternion_table(self):
        # the elements are 1, -1, i, -i, j, -j, k, -k, with ij = k, jk = i, ki = j
        g = builtin("quaternion8")
        assert g.names == ("e", "n", "i", "ni", "j", "nj", "k", "nk")
        assert [list(row) for row in g.table] == [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [1, 0, 3, 2, 5, 4, 7, 6],
            [2, 3, 1, 0, 6, 7, 5, 4],
            [3, 2, 0, 1, 7, 6, 4, 5],
            [4, 5, 7, 6, 1, 0, 2, 3],
            [5, 4, 6, 7, 0, 1, 3, 2],
            [6, 7, 4, 5, 3, 2, 1, 0],
            [7, 6, 5, 4, 2, 3, 0, 1],
        ]

    @pytest.mark.parametrize("name,param", BUILTINS)
    def test_identity_first(self, name, param):
        g = builtin(name, param)
        assert g.identity == 0
        assert g.names[0] == "e"

    def test_unknown(self):
        for spec, message in [
            ("sporadic:1", "unknown builtin group 'sporadic'"),
            ("symmetric:6", "symmetric supports degrees 1..5, got 6"),
            ("cyclic:x", "bad builtin parameter in 'cyclic:x'"),
            ("cyclic:0", "cyclic needs a positive order, got 0"),
            ("cyclic", "cyclic needs a positive order, got None"),
            ("dihedral:-1", "dihedral needs a positive parameter, got -1"),
            ("quaternion8:8", "quaternion8 takes no parameter"),
        ]:
            with pytest.raises(UnknownGroup) as info:
                builtin_from_string(spec)
            assert str(info.value) == message and info.value.category == "parse"

    def test_from_string(self):
        assert builtin_from_string("dihedral:4").order == 8
        assert builtin_from_string("quaternion8").order == 8

    @pytest.mark.parametrize("name,param", BUILTINS)
    def test_inverse_antihomomorphism(self, name, param):
        g = builtin(name, param)
        for a in g.elements():
            for b in g.elements():
                assert g.inv(g.mul(a, b)) == g.mul(g.inv(b), g.inv(a))


class TestBuiltinBudget:
    """A builtin cyclic or dihedral table is estimated, n^2 cells for n
    elements, before it is built.  Only the estimate is tested: the budget
    is lowered, and building a table raises."""

    @pytest.fixture
    def no_tables(self, monkeypatch):
        def refuse(parameter):
            raise AssertionError("a table was built")

        monkeypatch.setattr(gtqft.groups, "_cyclic", refuse)
        monkeypatch.setattr(gtqft.groups, "_dihedral", refuse)

    @pytest.mark.parametrize(
        "spec,cells", [("cyclic:4", 16), ("dihedral:2", 16), ("dihedral:3", 36)]
    )
    def test_over_the_budget(self, monkeypatch, no_tables, spec, cells):
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", cells - 1)
        with pytest.raises(BudgetExceeded) as info:
            builtin_from_string(spec)
        message = f"{cells} group table cells exceed the budget of {cells - 1}"
        assert str(info.value) == message and info.value.category == "budget"

    @pytest.mark.parametrize("spec,order", [("cyclic:4", 4), ("dihedral:2", 4)])
    def test_at_the_budget(self, monkeypatch, spec, order):
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", order * order)
        assert builtin_from_string(spec).order == order

    def test_parameters_are_checked_first(self, monkeypatch, no_tables):
        # (-3)^2 and (2 * -3)^2 cells would exceed the budget
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", 0)
        for name in ("cyclic", "dihedral"):
            with pytest.raises(UnknownGroup):
                builtin(name, -3)

    def test_the_cli_exits_with_a_budget_error(self, monkeypatch, no_tables, capsys):
        monkeypatch.setattr(gtqft.errors, "WORK_BUDGET", 15)
        status = main(["check", "--group", "cyclic:4", "--algebra", "builtin:group-algebra"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error: category=budget 16 group table cells exceed the budget of 15\n"


class TestConjugacy:
    def test_trivial_group(self):
        data = conjugacy(builtin("cyclic", 1))
        assert data.classes == ((0,),)

    def test_s3_class_sizes(self):
        # oracle: brute-force conjugation over all pairs
        g = builtin("symmetric", 3)
        orbits = {}
        for x in g.elements():
            orbit = frozenset(g.conj(k, x) for k in g.elements())
            orbits[orbit] = len(orbit)
        assert sorted(orbits.values()) == [1, 2, 3]
        data = conjugacy(g)
        assert sorted(len(c) for c in data.classes) == [1, 2, 3]

    def test_s3_transposition_centralizer(self):
        g = builtin("symmetric", 3)
        transposition = g.index("p021")
        # oracle: direct commutation test
        commuting = [k for k in g.elements() if g.mul(k, transposition) == g.mul(transposition, k)]
        assert len(commuting) == 2
        (orbit,) = [c for c in conjugacy(g).classes if transposition in c]
        assert len(orbit) * len(commuting) == g.order

    @pytest.mark.parametrize("name,param", BUILTINS)
    def test_counting_identity(self, name, param):
        g = builtin(name, param)
        data = conjugacy(g)
        assert sum(len(c) for c in data.classes) == g.order
        for x in g.elements():
            size = next(len(c) for c in data.classes if x in c)
            commuting = [k for k in g.elements() if g.mul(k, x) == g.mul(x, k)]
            assert size * len(commuting) == g.order
        for c, rep in zip(data.classes, data.representatives):
            assert rep == min(c)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_relabeling_invariance(self, seed):
        g = builtin("dihedral", 4)
        perm = list(range(g.order))
        random.Random(seed).shuffle(perm)
        inverse = [0] * g.order
        for i, p in enumerate(perm):
            inverse[p] = i
        names = [g.names[inverse[i]] for i in range(g.order)]
        table = [
            [perm[g.table[inverse[i]][inverse[j]]] for j in range(g.order)]
            for i in range(g.order)
        ]
        shuffled = FiniteGroup(names, table)
        e = shuffled.identity
        for a in shuffled.elements():
            assert shuffled.mul(a, shuffled.inv(a)) == shuffled.mul(shuffled.inv(a), a) == e
        original = sorted(len(c) for c in conjugacy(g).classes)
        relabeled = sorted(len(c) for c in conjugacy(shuffled).classes)
        assert original == relabeled


class TestSerialization:
    def test_round_trip(self):
        g = builtin("dihedral", 3)
        doc = save_group(g)
        assert load_group(doc) == g

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([], "group document must be an object"),
            ({"names": "ea", "table": [[0]]}, 'group "names" must be a list of strings'),
            ({"names": ["e", 1], "table": [[0]]}, 'group "names" must be a list of strings'),
            ({"table": [[0]]}, 'group "names" must be a list of strings'),
            ({"names": ["e"], "table": [0]}, 'group "table" must be a list of index rows'),
            ({"names": ["e"], "table": ((0,),)}, 'group "table" must be a list of index rows'),
            ({"names": ["e"]}, 'group "table" must be a list of index rows'),
            # the document's shape is checked before `FiniteGroup` reads the names
            ({"names": [1], "table": [0]}, 'group "table" must be a list of index rows'),
        ],
    )
    def test_document_errors(self, doc, message):
        with pytest.raises(SchemaError) as info:
            load_group(doc)
        assert type(info.value) is SchemaError and str(info.value) == message
        assert info.value.category == "parse"

    @pytest.mark.parametrize(
        "names,table,message",
        [
            ([], [], "a group needs at least one element"),
            (["e", "e"], [[0, 1], [1, 0]], "duplicate element names"),
            (["e", "a"], [[0, 1]], "table has 1 rows for 2 elements"),
            (["e", "a"], [[0, 1], [1, 0], [0, 1]], "table has 3 rows for 2 elements"),
            (["e", "a"], [[0, 1], [1, 0, 1]], "row 1 has length 3, expected 2"),
            (["e", "a"], [[0], [1, 0]], "row 0 has length 1, expected 2"),
        ],
    )
    def test_table_shape_errors(self, names, table, message):
        with pytest.raises(NotAGroup) as info:
            FiniteGroup(names, table)
        assert type(info.value) is NotAGroup and str(info.value) == message
        assert info.value.category == "parse"

    def test_unknown_element_lookup(self):
        g = builtin("cyclic", 2)
        with pytest.raises(UnknownElement):
            g.index("zz")
