"""The kill table: which check entries fail on each single-entry mutant.

A mutant is an algebra with one product, action, unit or trace entry x
(one of `conftest.sites`) set to x + 1 or to -x/2 (-1/2 when x = 0), so
every site is moved twice and never to its own value.  The entries are
the ten laws of `check_axioms`, `derive`, `frobenius-relation` and
`twisted-cocommutativity`, one `cerf-<case>` per Cerf row compared over
all labellings, and the six orbifold certification entries.  The last
two need `derive`, and the Cerf rows evaluate the split piece from it, so
none of them runs on a mutant whose `derive` fails.

A check that no mutant fails checks nothing on that algebra; a mutant
that fails a Cerf row, `derive` or the orbifold while it passes every law
would break the algebra -> field theory half of the theorem.
"""

from fractions import Fraction

from conftest import mutated, sites, value_at
from gtqft import (
    cerf_check,
    check_axioms,
    check_cocommutativity,
    check_frobenius_diagram,
    derive,
    orbifold_algebra,
)
from gtqft.cobordism import CERF_CASES
from gtqft.errors import CoproductMismatch, DegeneratePairing, DimensionMismatch, SingularMatrix


def outcomes(a, cases=CERF_CASES) -> dict[str, bool]:
    """Entry name -> passed, for every entry that runs on `a`."""
    passed = {entry.name: entry.passed for entry in check_axioms(a).entries}
    try:
        d = derive(a)
    except (CoproductMismatch, DegeneratePairing, DimensionMismatch, SingularMatrix):
        passed["derive"] = False
    else:
        passed["derive"] = True
        for report in (check_frobenius_diagram(a, d), check_cocommutativity(a, d)):
            passed.update((entry.name, entry.passed) for entry in report.entries)
        for case in cases:
            passed[f"cerf-{case}"] = cerf_check(a, case, all_labels=True).passed
    passed.update((e.name, e.passed) for e in orbifold_algebra(a).certification.entries)
    return passed


def kills(algebra, cases=CERF_CASES) -> dict[tuple, frozenset[str]]:
    """(site, value) -> the entries that fail on that mutant of `algebra`."""
    table = {}
    for site in sites(algebra):
        x = value_at(algebra, site)
        for value in (x + 1, -x / 2 if x else Fraction(-1, 2)):
            passed = outcomes(mutated(algebra, site, value), cases)
            table[site, value] = frozenset(name for name, ok in passed.items() if not ok)
    return table
