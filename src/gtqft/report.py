"""Structured pass/fail reports carrying first-counterexample witnesses.

One driver, `first_failure`, runs every exhaustive law check: it draws the
law's cases as ``(context, lhs, rhs)`` in a fixed order, where ``context``
is the raw data that locates the case (group element and basis indices,
not yet names), and turns the first case with ``lhs != rhs`` into a
failing `CheckEntry`; names and exact literals are built by the law's
renderer once, at the first mismatch, never per case.  A check that needs
every case computed anyway (the orbifold builds its whole product table)
may pass a list instead of a generator.

Rows are a source of cases that `algebra.law` adapts to that driver.  A
row ``(context, count, lhs, rhs)`` fixes the outer indices of a law (its
``context``) and holds the ``count`` real cases below it.  ``lhs`` and
``rhs`` map positions to int columns: a position spells the remaining
basis and side indices, each padded to one size per law, and a column
runs over the row's batch index, the first index below the context.  Only
nonzero columns are kept, so padded positions, which are zero on both
sides, never appear.  Whole rows are compared with one ``!=``; only on a
mismatch does the law's ``locate`` (usually a `row_locator`) map the
differing entries back to the earliest case in the law's loop order and
cut out that case's context and exact sides, the same values the
case-at-a-time loop would have yielded.

A law evaluated on int images (see `exactlin.int_image`) has int sides
already brought to one common scale; `row_locator` and `descaled` turn
them into the exact values ``Fraction(x, scale)``, the same bytes as sides
computed in `Fraction` arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactlin import Matrix, fraction_rows, padded_index


@dataclass(frozen=True)
class Witness:
    """The first counterexample found by a check.

    `context` names the group elements and basis indices involved, in a
    stable order; `left` and `right` are the two values that should have
    agreed, already formatted as exact strings.
    """

    context: tuple[tuple[str, str], ...]
    left: str
    right: str


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    witness: Witness | None = None


@dataclass(frozen=True)
class CheckReport:
    entries: tuple[CheckEntry, ...] = ()

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def merge(self, other: "CheckReport") -> "CheckReport":
        return CheckReport(self.entries + other.entries)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def passing(name: str) -> CheckEntry:
    return CheckEntry(name=name, passed=True)


def failing(name: str, context: Sequence[tuple[str, str]], left: str, right: str) -> CheckEntry:
    return CheckEntry(
        name=name, passed=False, witness=Witness(tuple(context), str(left), str(right))
    )


Render = Callable[[object, object, object], Witness]


def first_failure(
    name: str, cases: Iterable[tuple[object, object, object]], render: Render
) -> CheckEntry:
    """The entry of law `name`: failing with ``render(context, lhs, rhs)``
    of the first case whose sides differ, passing when every case agrees.
    Cases after the first mismatch are never drawn."""
    for context, lhs, rhs in cases:
        if lhs != rhs:
            return CheckEntry(name, False, render(context, lhs, rhs))
    return CheckEntry(name, True)


Locate = Callable[[tuple, object, object], tuple[object, object, object]]


def row_locator(
    pad: int, digits: int, shape: Callable[[tuple, int], tuple[int, ...]], scale: int
) -> Locate:
    """`locate` for rows that map positions to int columns, an absent
    position standing for a zero column.  A position spells `digits` index
    digits in row-major order, each padded to `pad`: a case's basis
    indices followed by its side indices.  Entry e of a column belongs to
    batch value e, so the case is ``(*context, e, *basis indices)``.
    ``shape(context, e)`` gives the real side dimensions of the row's
    cases at e: () for a scalar, (size,) for a vector, (rows, cols) for a
    matrix.  Returns the earliest differing case in the order
    (e, *basis indices), with its context and both sides as exact values
    over `scale`, the row's total scale."""

    def spelled(t: int) -> list[int]:
        out = []
        for _ in range(digits):
            t, q = divmod(t, pad)
            out.append(q)
        return out[::-1]

    def locate(context, lhs, rhs):
        zero = [0] * len(next(iter({**rhs, **lhs}.values())))
        cases = []
        for t in lhs.keys() | rhs.keys():
            for e, (x, y) in enumerate(zip(lhs.get(t, zero), rhs.get(t, zero))):
                if x != y:
                    cases.append((e, *spelled(t)[: digits - len(shape(context, e))]))
        e, *index = min(cases)
        size = shape(context, e)

        def at(row, side):
            return row.get(padded_index((*index, *side), pad), zero)[e]

        def side(row):
            if not size:
                return at(row, ())
            if len(size) == 1:
                return [at(row, (p,)) for p in range(size[0])]
            rows, cols = size
            return [[at(row, (i, j)) for j in range(cols)] for i in range(rows)]

        return (*context, e, *index), _over(side(lhs), scale), _over(side(rhs), scale)

    return locate


def renderer(
    keys: Sequence[str],
    name: Callable[[object], str] = str,
    left: Callable[[object], str] = str,
    right: Callable[[object], str] | None = None,
) -> Render:
    """A renderer pairing `keys` with the context values passed through
    `name`, and formatting the sides with `left` and `right` (default
    `left`).  A context shorter than `keys` names only its prefix."""
    right = left if right is None else right

    def render(context, lhs, rhs) -> Witness:
        return Witness(tuple((k, name(v)) for k, v in zip(keys, context)), left(lhs), right(rhs))

    return render


def _over(side, scale: int):
    """The exact value an int law side over `scale` stands for: a scalar,
    a vector (list) or a matrix (list of row lists)."""
    if isinstance(side, int):
        return Fraction(side, scale)
    if side and isinstance(side[0], list):
        return Matrix._wrap(len(side), len(side[0]), fraction_rows(side, scale))
    return fraction_rows((side,), scale)[0]


def descaled(render: Render, scale: int) -> Render:
    """`render` of the exact values of int sides over `scale`."""

    def render_exact(context, lhs, rhs) -> Witness:
        return render(context, _over(lhs, scale), _over(rhs, scale))

    return render_exact
