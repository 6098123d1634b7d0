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

    def test_non_associative_rejected(self):
        # rows/columns are permutations but (1*1)*2 != 1*(1*2)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAGroup, match="associativity"):
            FiniteGroup(list("eabcd"), table)

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
