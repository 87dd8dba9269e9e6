"""Divisor-class counts and the box product.

For a set A and a point x, the vector of interest counts elements of A by
their divisor class relative to x:

    count[m] = #{a in A : (x - a, M) = m},   m | M.

The box product of two such vectors,

    <A[x], B[y]> = sum_m count_A[m] * count_B[m] / phi(M/m),

is an exact rational that equals 1 at every point pair (x, y) exactly when
evaluated on the two tiles of a tiling.  The same quantity scaled by phi(M)
counts dilation triples: the number of (a, b, r) with r coprime to M and
r(a - x) + (b - y) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .zm_core import Residue, TileSet, ZmContext, _same_context


@dataclass(frozen=True)
class DivisorCounts:
    """Counts of one tile's elements by divisor class relative to a base point."""

    owner: TileSet
    base: Residue
    counts: dict[int, int]

    def __getitem__(self, m: int) -> int:
        return self.counts.get(m, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _base_value(ctx: ZmContext, x) -> int:
    if isinstance(x, Residue):
        if x.context != ctx:
            raise InputError(f"base point lives in Z_{x.context.M}, tile in Z_{ctx.M}")
        return x.value
    return int(x) % ctx.M


def divisor_counts(A: TileSet, x) -> DivisorCounts:
    """count[m] = #{a in A : (x - a, M) = m}."""
    ctx = A.context
    xv = _base_value(ctx, x)
    gcds = ctx.gcd_table
    counts: dict[int, int] = {}
    for a in A.members:
        m = gcds[(xv - a) % ctx.M]
        counts[m] = counts.get(m, 0) + 1
    return DivisorCounts(A, ctx.residue(xv), counts)


def box_product(A: TileSet, B: TileSet, x, y) -> Fraction:
    """<A[x], B[y]> as an exact rational; equals 1 on tilings."""
    ctx = _same_context(A, B)
    ca = divisor_counts(A, x).counts
    cb = divisor_counts(B, y).counts
    total = Fraction(0)
    for m, na in ca.items():
        nb = cb.get(m)
        if nb:
            total += Fraction(na * nb, ctx.phi_table[ctx.M // m])
    return total


def _count_rows(T: TileSet) -> list[list[int]]:
    """Per base point: divisor-class counts indexed like ctx.divisors."""
    ctx = T.context
    index = {d: k for k, d in enumerate(ctx.divisors)}
    gcds = ctx.gcd_table
    members = T.members
    rows = []
    for x in range(ctx.M):
        row = [0] * len(index)
        for a in members:
            row[index[gcds[x - a]]] += 1
        rows.append(row)
    return rows


def box_product_all_ones(t) -> bool:
    """Whole-grid check that <A[x], B[y]> = 1 for every (x, y).

    Integer arithmetic throughout: phi(M/m) divides phi(M) for every m | M,
    so the target becomes sum_m w[m]*countA*countB = phi(M) with integer
    weights w[m] = phi(M)/phi(M/m).  The product at (x, y) depends only on
    the count rows of x and y, so each distinct pair of rows is checked once.
    """
    ctx = t.context
    phi_m = ctx.phi_table[ctx.M]
    weights = [phi_m // ctx.phi_table[ctx.M // d] for d in ctx.divisors]
    rows_a = set(map(tuple, _count_rows(t.A)))
    rows_b = set(map(tuple, _count_rows(t.B)))
    # Fold the weights into the A rows once; each pair is then a dot product.
    packed = [[w * c for w, c in zip(weights, row)] for row in rows_a]
    for row_a in packed:
        sparse = [(k, wc) for k, wc in enumerate(row_a) if wc]
        for row_b in rows_b:
            if sum(wc * row_b[k] for k, wc in sparse) != phi_m:
                return False
    return True
