import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtqft import FiniteGroup, builtin, builtin_from_string, conjugacy
from gtqft.errors import NotAGroup, UnknownElement, UnknownGroup
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
        with pytest.raises(UnknownGroup):
            builtin("sporadic", 1)
        with pytest.raises(UnknownGroup):
            builtin("symmetric", 6)
        with pytest.raises(UnknownGroup):
            builtin_from_string("cyclic:x")

    def test_from_string(self):
        assert builtin_from_string("dihedral:4").order == 8
        assert builtin_from_string("quaternion8").order == 8

    @pytest.mark.parametrize("name,param", BUILTINS)
    def test_inverse_antihomomorphism(self, name, param):
        g = builtin(name, param)
        for a in g.elements():
            for b in g.elements():
                assert g.inv(g.mul(a, b)) == g.mul(g.inv(b), g.inv(a))


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

    def test_unknown_element_lookup(self):
        g = builtin("cyclic", 2)
        with pytest.raises(UnknownElement):
            g.index("zz")
