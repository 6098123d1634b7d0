"""Seeded input generators for the benchmark.

Every algebra built here is derived from a builtin group.  "Rich" algebras
are group algebras tensored with the dual numbers k[x]/(x^2), so every
grade is two-dimensional.  A rescaling replaces each basis vector b by
c_b * b for a positive rational c_b; the result is isomorphic to its source,
so it passes every law, but its structure constants are no longer integers.
A mutation changes one product entry, action entry or unit coordinate of a
group algebra, which breaks at least one law.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gtqft import GFrobeniusAlgebra, builtin_from_string, group_algebra
from gtqft.exactlin import Matrix, Tensor3

# Small numerators and denominators keep the cost of a rescaled algebra
# close to that of its source at every seed, while making most entries
# non-integers.
_RESCALE_CHOICES = tuple(
    Fraction(p, q) for p in range(1, 6) for q in range(2, 6) if Fraction(p, q).denominator > 1
)


def rich_algebra(group) -> GFrobeniusAlgebra:
    """The group algebra tensored with the dual numbers, basis
    (delta_g * 1, delta_g * x) in every grade, trace picking the x part."""
    n = group.order
    cell = Tensor3.from_entries(2, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    block = Matrix.identity(2)
    product = {(g, h): cell for g in range(n) for h in range(n)}
    action = {(k, g): block for k in range(n) for g in range(n)}
    return GFrobeniusAlgebra(group, (2,) * n, product, action, (1, 0), (0, 1))


def base_algebra(kind: str, spec: str) -> GFrobeniusAlgebra:
    """The "group" or "rich" algebra over the builtin group `spec`."""
    group = builtin_from_string(spec)
    if kind == "group":
        return group_algebra(group)
    if kind == "rich":
        return rich_algebra(group)
    raise ValueError(f"unknown algebra kind {kind!r}")


def rescaled(a: GFrobeniusAlgebra, rng: random.Random) -> GFrobeniusAlgebra:
    """The isomorphic algebra on the basis c_b * b, one seeded positive
    rational c_b per basis vector b."""
    group = a.group
    n = group.order
    scale = [tuple(rng.choice(_RESCALE_CHOICES) for _ in range(a.dims[g])) for g in range(n)]
    product = {}
    for (g, h), t in a.product.items():
        cg, ch, cgh = scale[g], scale[h], scale[group.mul(g, h)]
        product[(g, h)] = Tensor3(
            t.dim0,
            t.dim1,
            t.dim2,
            [
                [
                    [cg[i] * ch[j] * t.data[i][j][p] / cgh[p] for p in range(t.dim2)]
                    for j in range(t.dim1)
                ]
                for i in range(t.dim0)
            ],
        )
    action = {}
    for (k, g), m in a.action.items():
        cs, ct = scale[g], scale[group.conj(k, g)]
        grid = [[cs[j] * m.data[i][j] / ct[i] for j in range(m.cols)] for i in range(m.rows)]
        action[(k, g)] = Matrix(m.rows, m.cols, grid)
    ce = scale[group.identity]
    unit = tuple(u / c for u, c in zip(a.unit, ce))
    trace = tuple(t * c for t, c in zip(a.trace, ce))
    return GFrobeniusAlgebra(group, a.dims, product, action, unit, trace)


def mutated_group_algebra(group, rng: random.Random) -> GFrobeniusAlgebra:
    """The group algebra with one product entry, action entry or unit
    coordinate replaced by 0, 2 or -1 (each differs from the original 1)."""
    a = group_algebra(group)
    n = group.order
    product = dict(a.product)
    action = dict(a.action)
    unit = a.unit
    kind = rng.choice(["product", "action", "unit"])
    new_value = Fraction(rng.choice([0, 2, -1]))
    if kind == "product":
        g, h = rng.randrange(n), rng.randrange(n)
        product[(g, h)] = Tensor3.from_entries(1, 1, 1, {(0, 0, 0): new_value})
    elif kind == "action":
        k, g = rng.randrange(n), rng.randrange(n)
        action[(k, g)] = Matrix.from_rows([[new_value]])
    else:
        unit = (new_value,)
    return GFrobeniusAlgebra(group, a.dims, product, action, unit, a.trace)


def flat_labellings(group, genus: int) -> list[tuple[int, ...]]:
    """Every 2g-tuple (a1, b1, .., ag, bg) whose product of commutators
    b*a*b^-1*a^-1 is the identity, in lexicographic order."""
    out = []

    def extend(prefix, product):
        if len(prefix) == 2 * genus:
            if product == group.identity:
                out.append(prefix)
            return
        for x in group.elements():
            for y in group.elements():
                comm = group.mul(group.mul(y, x), group.mul(group.inv(y), group.inv(x)))
                extend(prefix + (x, y), group.mul(product, comm))

    extend((), group.identity)
    return out
