"""Byte-exact outputs of the commands and the law checks.

Each case builds an algebra (a builtin one, or a saved one with a few
entries overwritten so that a chosen law fails), runs one CLI command or
library check on it, and compares the exit status, stdout and stderr (or
the full report) with `golden_outputs.json`.  The mutations are chosen so
that every law of `check_axioms`, `frobenius-relation`,
`twisted-cocommutativity`, the dual-basis check and every orbifold
certification entry shows a real witness somewhere.  The surface
identities (the cylinder, twist and pants rows among them) are pinned
through `cerf --all-labels` on every mutated algebra; the library goldens
are the `dual-basis` oracle of `law_oracle` and the orbifold certification.
Two passing twisted group algebras, whose action is -1 on some blocks, pin
`check`, `derive`, `orbifold` and those `cerf` rows.

Regenerate the file only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import (  # noqa: E402
    dual_number_group_algebra,
    rescaled_algebra,
    twisted_group_algebra,
)
from gtqft import (  # noqa: E402
    builtin_from_string,
    cerf_case_words,
    check_axioms,
    derive,
    group_algebra,
    orbifold_algebra,
    save_algebra,
)
from gtqft.algebra import load_algebra  # noqa: E402
from gtqft.cli import main  # noqa: E402
from gtqft.cobordism import CERF_CASES  # noqa: E402
from gtqft.errors import EngineError  # noqa: E402
from law_oracle import action_on_dual_basis_check  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")

# the odd permutations of S3: the sign character is -1 on them
_ODD = ("p021", "p102", "p210")
_S3 = ("e", "p021", "p102", "p120", "p201", "p210")


def _sign_edits(dim: int) -> tuple:
    """Scale the action of each odd permutation by -1 off the identity
    grade: still a homomorphism fixing the unit, but not multiplicative."""
    return tuple(
        ("action", k, g, i, i, "-1") for k in _ODD for g in _S3 if g != "e" for i in range(dim)
    )


# name -> (base algebra, group, entry edits)
ALGEBRAS = {
    "s3": ("group", "symmetric:3", ()),
    "rich-s3": ("rich", "symmetric:3", ()),
    "rescaled-rich-s3": ("rescaled-rich", "symmetric:3", ()),
    "assoc": ("group", "symmetric:3", (("product", "p021", "p021", 0, 0, 0, "2"),)),
    "unit-left": ("group", "symmetric:3", (("unit", ["2"]),)),
    "unit-right": ("group", "symmetric:3", (("product", "p021", "e", 0, 0, 0, "2"),)),
    "action-identity": ("group", "symmetric:3", (("action", "e", "p102", 0, 0, "2"),)),
    "action-moves-unit": ("group", "symmetric:3", (("action", "p021", "e", 0, 0, "2"),)),
    "sign": ("group", "symmetric:3", _sign_edits(1)),
    # the unit check of a late k must not overtake the products of an early k
    "sign-late-unit": (
        "group", "symmetric:3", _sign_edits(1) + (("action", "p201", "e", 0, 0, "2"),),
    ),
    "trace-zero": ("group", "symmetric:3", (("trace", ["0"]),)),
    "dims-mismatch": ("group", "cyclic:3", (("zero-grade", "g2"),)),
    "twisted": ("group", "symmetric:3", (("product", "p021", "p102", 0, 0, 0, "2"),)),
    "frobenius": ("group", "cyclic:3", (("product", "g1", "g1", 0, 0, 0, "1/2"),)),
    "rich-half": ("rich", "symmetric:3", (("action", "p021", "p021", 1, 1, "1/2"),)),
    "rich-offdiag": ("rich", "symmetric:3", (("action", "p021", "p102", 0, 1, "1"),)),
    "rich-sign": ("rich", "symmetric:3", _sign_edits(2)),
    "rich-swap": (
        "rich",
        "cyclic:2",
        tuple(("action", "g1", "e", i, j, "1" if i != j else "0") for i in (0, 1) for j in (0, 1)),
    ),
    # invariant basis delta_0, delta_1, delta_2; products (1,2) and (2,1) leave it
    "closure": (
        "group",
        "cyclic:4",
        (
            ("action", "g1", "g3", 0, 0, "-1"),
            ("action", "g2", "g3", 0, 0, "0"),
            ("action", "g3", "g3", 0, 0, "0"),
        ),
    ),
}


def _rescaled_twin(name: str) -> tuple:
    """The mutation `name` on the rescaled twin of its base algebra: each
    edit value other than 0 becomes a factor on the saved entry, except
    where the mutation sets an entry that is zero (no factor reaches it)."""
    kind, spec, edits = ALGEBRAS[name]

    def factor(value):
        if isinstance(value, list):
            return [factor(v) for v in value]
        return value if value == "0" else f"*{value}"

    if name not in ("rich-offdiag", "rich-swap"):
        edits = tuple((*e[:-1], factor(e[-1])) for e in edits)
    return (f"rescaled-{kind}", spec, edits)


_UNMUTATED = ("s3", "rich-s3", "rescaled-rich-s3")
for _name in [name for name in ALGEBRAS if name not in (*_UNMUTATED, "dims-mismatch")]:
    ALGEBRAS[f"rescaled-{_name}"] = _rescaled_twin(_name)
# the smallest change of a product table over its common denominator
ALGEBRAS["rescaled-step"] = ("rescaled-group", "symmetric:3", (("step", "p021", "p102", 0, 0, 0),))
ALGEBRAS["rescaled-rich-step"] = ("rescaled-rich", "symmetric:3", (("step", "p120", "p120", 1, 0, 1),))
# twisted group algebras cover / <z> (discrete torsion): the action is -1 on
# some blocks; not mutated and without rescaled twins
ALGEBRAS["twisted-klein"] = ("twisted", "quaternion8/n", ())
ALGEBRAS["twisted-d4"] = ("twisted", "dihedral:8/r4", ())
_TWISTED = ("twisted-klein", "twisted-d4")


def _edited(old: str, new: str) -> str:
    return str(Fraction(old) * Fraction(new[1:])) if new.startswith("*") else new


def algebra_doc(name: str) -> dict:
    kind, spec, edits = ALGEBRAS[name]
    cover, _, z = spec.partition("/")
    group = builtin_from_string(cover)
    if kind == "group":
        a = group_algebra(group)
    elif kind == "rich":
        a = dual_number_group_algebra(group)
    elif kind == "twisted":
        a = twisted_group_algebra(group, z)
    elif kind == "rescaled-group":
        a = rescaled_algebra(group_algebra(group), 3)
    else:
        a = rescaled_algebra(dual_number_group_algebra(group), 5)
    doc = save_algebra(a)
    for edit in edits:
        op, args = edit[0], edit[1:]
        if op in ("unit", "trace"):
            doc[op] = [_edited(old, new) for old, new in zip(doc[op], args[0])]
        elif op == "step":
            d_p = math.lcm(*(Fraction(e["value"]).denominator for e in doc["product"]))
            where = dict(zip(("g", "h", "i", "j", "k"), args))
            (match,) = [e for e in doc["product"] if all(e[key] == v for key, v in where.items())]
            match["value"] = str(Fraction(match["value"]) + Fraction(1, d_p))
        elif op == "zero-grade":
            (gone,) = args
            doc["dims"][gone] = 0

            def touches(e):
                gh = group.name(group.mul(group.index(e["g"]), group.index(e["h"])))
                return gone in (e["g"], e["h"], gh)

            doc["product"] = [e for e in doc["product"] if not touches(e)]
            doc["action"] = [e for e in doc["action"] if e["g"] != gone]
        else:
            keys = ("g", "h", "i", "j", "k") if op == "product" else ("k", "g", "i", "j")
            where = dict(zip(keys, args[:-1]))
            entries = doc[op]
            match = [e for e in entries if all(e[key] == v for key, v in where.items())]
            if match:
                match[0]["value"] = _edited(match[0]["value"], args[-1])
            else:
                entries.append({**where, "value": args[-1]})
    return doc


S3_WORDS = (
    "split(p210,e) ; swap(p210,e) ; id(e) * id(p210) ; cyl(e;p120) * split(e,p210)",
    "split(p120,p120) ; cap * cap * merge(p120,p120)",
)

# case name -> (algebra, argv after the algebra source); "{fmt}" is filled
CLI_CASES: dict[str, tuple[str, tuple[str, ...]]] = {}
for _alg in ALGEBRAS:
    CLI_CASES[f"check-{_alg}"] = (_alg, ("check",))
for _alg in ("s3", "rich-s3", "rescaled-rich-s3", "frobenius", "trace-zero", *_TWISTED):
    CLI_CASES[f"derive-{_alg}"] = (_alg, ("derive",))
_ORBIFOLD_MUTATIONS = ("unit-left", "unit-right", "sign", "trace-zero", "rich-swap", "twisted", "closure")
for _alg in (
    "s3", "rich-s3", "rescaled-rich-s3", *_TWISTED, *_ORBIFOLD_MUTATIONS,
    *(f"rescaled-{m}" for m in _ORBIFOLD_MUTATIONS),
):
    CLI_CASES[f"orbifold-{_alg}"] = (_alg, ("orbifold",))
for _alg in ("s3", "rich-s3", "rescaled-rich-s3", "rich-half"):
    for _n, _word in enumerate(S3_WORDS):
        CLI_CASES[f"eval-{_alg}-{_n}"] = (_alg, ("eval", "--cobordism", _word))
CLI_CASES["cerf-s3-301"] = ("s3", ("cerf", "--case", "301", "--labels", "p021,p102,p120,e"))
CLI_CASES["cerf-rich-half-202"] = (
    "rich-half", ("cerf", "--case", "202", "--labels", "p021,p021,p102,e"),
)
CLI_CASES["cerf-frobenius-111-all"] = ("frobenius", ("cerf", "--case", "111", "--all-labels"))
CLI_CASES["cerf-sign-103"] = ("sign", ("cerf", "--case", "103", "--labels", "p021,p102,p120,p201"))
# the surface identities on every mutated algebra, plain and rescaled
_LIBRARY_MUTATIONS = (
    "sign", "rich-sign", "rich-half", "rich-offdiag", "action-identity",
    "action-moves-unit", "rich-swap", "unit-right", "closure",
)
_MUTATED = (*_LIBRARY_MUTATIONS, *(f"rescaled-{m}" for m in _LIBRARY_MUTATIONS))
for _alg, _case in (
    ("s3", "twist"), ("s3", "pants"),
    *((m, c) for m in (*_MUTATED, *_TWISTED) for c in ("twist", "cylinder", "pants")),
):
    CLI_CASES[f"cerf-{_alg}-{_case}-all"] = (_alg, ("cerf", "--case", _case, "--all-labels"))

LIBRARY_CHECKS = {
    "dual-basis": lambda a: action_on_dual_basis_check(a, derive(a)),
    "orbifold": lambda a: orbifold_algebra(a).certification,
}
LIBRARY_CASES = {f"{check}-{alg}": (alg, check) for alg in _MUTATED for check in LIBRARY_CHECKS}

# move case -> its S3 labels
WORD_CASES = {
    f"words-{case}": {
        "cylinder": ("p120",), "twist": ("p120", "p021"), "pants": ("p021", "p120"),
    }.get(case, ("p021", "p102", "p120", "p201"))
    for case in CERF_CASES
}


def run_case(case: str, tmp: Path) -> dict:
    if case in WORD_CASES:
        s3 = builtin_from_string("symmetric:3")
        labels = tuple(s3.index(name) for name in WORD_CASES[case])
        return {"words": [w.to_text() for w in cerf_case_words(s3, case[len("words-"):], labels)]}
    if case in LIBRARY_CASES:
        alg, check = LIBRARY_CASES[case]
        a = load_algebra(algebra_doc(alg))
        try:
            return {"report": repr(LIBRARY_CHECKS[check](a))}
        except EngineError as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
    base, fmt = case.rsplit("-", 1)
    alg, argv = CLI_CASES[base]
    path = tmp / f"{alg}.json"
    path.write_text(json.dumps(algebra_doc(alg)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([*argv, "--algebra", str(path), "--format", fmt])
    return {
        "status": status,
        "stdout": out.getvalue().replace(str(tmp), "<tmp>"),
        "stderr": err.getvalue().replace(str(tmp), "<tmp>"),
    }


ALL_CASES = sorted(
    [f"{case}-{fmt}" for case in CLI_CASES for fmt in ("human", "records")]
    + list(LIBRARY_CASES)
    + list(WORD_CASES)
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_case_is_pinned(golden):
    assert sorted(golden) == ALL_CASES


@pytest.mark.parametrize("case", ALL_CASES)
def test_golden_output(golden, tmp_path, case):
    assert run_case(case, tmp_path) == golden[case]


@pytest.mark.parametrize("alg", ["rescaled-step", "rescaled-rich-step"])
def test_smallest_product_step_is_caught(alg):
    a = load_algebra(algebra_doc(alg))
    assert not check_axioms(a).entry("product-associativity").passed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {case: run_case(case, Path(tmp)) for case in ALL_CASES}
    GOLDEN_PATH.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} cases to {GOLDEN_PATH}")
