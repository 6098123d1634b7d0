"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact rational equality; there are no tolerances
anywhere.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import itertools
import random
from fractions import Fraction

from gtqft import (
    Evaluator,
    builtin,
    cerf_check,
    check_axioms,
    check_cocommutativity,
    check_frobenius_diagram,
    closed_invariant,
    closed_surface_word,
    conjugacy,
    derive,
    evaluate,
    group_algebra,
    hom_count_oracle,
    orbifold_algebra,
    random_cobordism,
)
from gtqft.cobordism import Cobordism, cyl
from gtqft.errors import FlatnessViolation
from gtqft.exactlin import Matrix, basis_vector
from gtqft.tqft import word_functoriality_witness

import law_oracle
from conftest import dual_numbers_algebra
from test_algebra import algebra_fails_somewhere, mutated_group_algebra

F = Fraction

CRITERION_GROUPS = [
    ("cyclic", 2),
    ("cyclic", 3),
    ("cyclic", 4),
    ("cyclic", 5),
    ("cyclic", 6),
    ("symmetric", 3),
    ("dihedral", 4),
    ("quaternion8", None),
]


def criterion_algebras():
    algebras = [group_algebra(builtin(name, param)) for name, param in CRITERION_GROUPS]
    algebras.append(dual_numbers_algebra())
    return algebras


def announce(number: int, description: str, ok: bool):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")


def test_criterion_1_axiom_suite():
    ok = True
    for a in criterion_algebras():
        reports = [check_axioms(a)]
        d = derive(a)
        reports.append(check_frobenius_diagram(a, d))
        reports.append(check_cocommutativity(a, d))
        ok = ok and all(r.passed for r in reports)
    announce(1, "axiom, diagram and cocommutativity checks pass exactly", ok)
    assert ok


def test_criterion_2_coproduct_consistency():
    ok = True
    for a in criterion_algebras():
        group = a.group
        d = derive(a)
        duals = {g: euler.transpose() for g, euler in d.euler.items()}
        for g in group.elements():
            for h in group.elements():
                gh = group.mul(g, h)
                tensor = d.coproducts[(g, h)]
                for c in range(a.dims[gh]):
                    bc = basis_vector(a.dims[gh], c)
                    # first reading: multiply by the dual basis of h on the right
                    first = [
                        a.apply_product(
                            gh, group.inv(h), bc, duals[h].transpose().data[j]
                        )
                        for j in range(a.dims[h])
                    ]
                    # second reading: multiply by the dual basis of g on the left
                    second = [
                        a.apply_product(
                            group.inv(g), gh, duals[g].transpose().data[i], bc
                        )
                        for i in range(a.dims[g])
                    ]
                    for i in range(a.dims[g]):
                        for j in range(a.dims[h]):
                            ok = ok and first[j][i] == tensor[(c, i, j)] == second[i][j]
    # for group algebras the coproduct of each delta is the matching delta pair
    for name, param in CRITERION_GROUPS:
        a = group_algebra(builtin(name, param))
        d = derive(a)
        for key, tensor in d.coproducts.items():
            ok = ok and tensor[(0, 0, 0)] == 1
    announce(2, "both coproduct readings agree entrywise", ok)
    assert ok


def test_criterion_3_mutation_sensitivity():
    rng = random.Random(8128)
    s3 = builtin("symmetric", 3)
    trials = 25
    ok = all(algebra_fails_somewhere(mutated_group_algebra(s3, rng)) for _ in range(trials))
    announce(3, f"{trials} random structure mutations are all detected", ok)
    assert ok


def test_criterion_4_well_definedness():
    ok = True
    for a in criterion_algebras():
        for case in ("cylinder", "twist", "pants"):
            ok = ok and cerf_check(a, case, all_labels=True).passed
        for g in a.group.elements():
            value = evaluate(a, Cobordism(a.group, ((cyl(g, g),),)))
            ok = ok and value == Matrix.identity(a.dims[g])
    announce(4, "cylinder twists and pants orderings are well defined", ok)
    assert ok


def test_criterion_5_cerf_cases():
    ok = True
    for spec in ("symmetric:3", "cyclic:4"):
        name, _, param = spec.partition(":")
        a = group_algebra(builtin(name, int(param)))
        for case in ("111", "202", "301", "103"):
            report = cerf_check(a, case, all_labels=True)
            ok = ok and report.passed
    announce(5, "all decompositions agree for every labelling (S3 and Z4)", ok)
    assert ok


def test_criterion_6_orbifold():
    expected_dims = {("symmetric", 3): 3, ("quaternion8", None): 5}
    ok = True
    for name, param in CRITERION_GROUPS:
        group = builtin(name, param)
        a = group_algebra(group)
        orb = orbifold_algebra(a)
        ok = ok and orb.certification.passed
        ok = ok and orb.dimension == len(conjugacy(group).classes)
        if (name, param) in expected_dims:
            ok = ok and orb.dimension == expected_dims[(name, param)]
        expand, restrict = law_oracle.sector_change_of_basis(a)
        ok = ok and expand @ restrict == Matrix.identity(orb.dimension)
        ok = ok and restrict @ expand == Matrix.identity(orb.dimension)
    announce(6, "invariant subalgebras are Frobenius with class-count dimension", ok)
    assert ok


def test_criterion_7_partition_function_cross_check():
    ok = True
    for spec in ("cyclic:2", "cyclic:3", "symmetric:3"):
        name, _, param = spec.partition(":")
        group = builtin(name, int(param))
        a = group_algebra(group)
        for genus in (1, 2):
            total = F(0)
            flat = 0
            for labels in itertools.product(group.elements(), repeat=2 * genus):
                try:
                    value = closed_invariant(a, labels)
                except FlatnessViolation:
                    continue
                flat += 1
                total += value
                # the handle formula is cross-checked against the explicit
                # word inside closed_invariant for genus <= 2; make one
                # external comparison as well
                if flat == 1:
                    word_value = evaluate(a, closed_surface_word(group, labels))
                    ok = ok and word_value.data[0][0] == value
            oracle = hom_count_oracle(group, genus)
            ok = ok and total == oracle == flat
            if spec == "symmetric:3" and genus == 1:
                ok = ok and oracle == 18
    announce(7, "summed invariants equal brute-force flat-labelling counts", ok)
    assert ok


def test_criterion_8_trivial_group_regression():
    a = dual_numbers_algebra()
    genus_one = closed_invariant(a, (0, 0))
    genus_two = closed_invariant(a, (0, 0, 0, 0))
    ok = genus_one == 2 and genus_two == 0
    announce(8, "dual numbers give 2 at genus one and 0 at genus two", ok)
    assert ok


def test_criterion_9_fuzzing():
    group = builtin("symmetric", 3)
    a = group_algebra(group)
    ev = Evaluator(a)
    count = 10_000
    budget = 8
    ok = True
    seeds = []
    rng = random.Random(2026)
    for _ in range(count):
        seeds.append(rng.getrandbits(32))
    for seed in seeds:
        word = random_cobordism(group, seed, budget)
        total_pieces = sum(len(layer) for layer in word.layers)
        ok = ok and 1 <= total_pieces <= budget
        ok = ok and word_functoriality_witness(ev, word)[1] is None
        if not ok:
            break
    # determinism: replaying a sample of seeds reproduces identical words
    for seed in seeds[:200]:
        ok = ok and random_cobordism(group, seed, budget) == random_cobordism(
            group, seed, budget
        )
    announce(9, f"{count} random words satisfy functoriality and type safety", ok)
    assert ok
