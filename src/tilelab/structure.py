"""Divisor-class counts, the box product, and saturating sets.

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
from typing import Optional

from .errors import InputError, InvariantViolationError
from .zm_core import Residue, TileSet, ZmContext, _same_context

@dataclass(frozen=True)
class DivisorCounts:
    """Counts of one tile's elements by divisor class relative to a base point."""

    owner: TileSet
    base: Residue
    counts: dict[int, int]
    restriction: Optional[TileSet] = None

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


def divisor_counts(A: TileSet, x, restriction: Optional[TileSet] = None) -> DivisorCounts:
    """count[m] = #{a in A (and the restriction, if given): (x - a, M) = m}."""
    ctx = A.context
    xv = _base_value(ctx, x)
    members = A.members
    if restriction is not None:
        members = A.intersect(restriction).members
    gcds = ctx.gcd_table
    counts: dict[int, int] = {}
    for a in members:
        m = gcds[(xv - a) % ctx.M]
        counts[m] = counts.get(m, 0) + 1
    return DivisorCounts(A, ctx.residue(xv), counts, restriction)


def box_product(A: TileSet, B: TileSet, x, y,
                restrict_a: Optional[TileSet] = None,
                restrict_b: Optional[TileSet] = None) -> Fraction:
    """<A[x], B[y]> as an exact rational; equals 1 on tilings."""
    ctx = _same_context(A, B)
    ca = divisor_counts(A, x, restrict_a).counts
    cb = divisor_counts(B, y, restrict_b).counts
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


def dilation_count_identity(A: TileSet, B: TileSet, x, y) -> tuple[int, int]:
    """Two counts of the triples (a, b, r), r coprime to M, r(a-x)+(b-y)=0.

    The left count enumerates r directly; the right count groups pairs by
    divisor class, contributing phi(M)/phi(M/m) per matched pair.  The two
    must agree for any (A, B); on a tiling both equal phi(M).
    """
    ctx = _same_context(A, B)
    xv = _base_value(ctx, x)
    yv = _base_value(ctx, y)
    M = ctx.M
    bmask = B.mask
    lhs = 0
    for r in ctx.units:
        for a in A.members:
            b = (yv - r * (a - xv)) % M
            if bmask >> b & 1:
                lhs += 1
    phi_m = ctx.phi_table[M]
    ca = divisor_counts(A, xv).counts
    cb = divisor_counts(B, yv).counts
    rhs = 0
    for m, na in ca.items():
        nb = cb.get(m)
        if nb:
            rhs += phi_m // ctx.phi_table[M // m] * na * nb
    if lhs != rhs:
        raise InvariantViolationError(
            f"dilation count mismatch at (x={xv}, y={yv}): {lhs} != {rhs}")
    return lhs, rhs


def saturating_pair_sets(A: TileSet, B: TileSet, x, y) -> tuple[TileSet, TileSet]:
    """(A_{x,y}, B_{y,x}): elements whose divisor class to the base point
    is matched by some element on the other side."""
    ctx = _same_context(A, B)
    xv = _base_value(ctx, x)
    yv = _base_value(ctx, y)
    gcds = ctx.gcd_table
    classes_a = {gcds[(xv - a) % ctx.M] for a in A.members}
    classes_b = {gcds[(yv - b) % ctx.M] for b in B.members}
    sat_a = TileSet(ctx, (a for a in A.members
                          if gcds[(xv - a) % ctx.M] in classes_b))
    sat_b = TileSet(ctx, (b for b in B.members
                          if gcds[(yv - b) % ctx.M] in classes_a))
    return sat_a, sat_b


def saturating_set(A: TileSet, B: TileSet, x) -> TileSet:
    """A_x = {a in A : (x - a, M) in Div(B)} = union of A_{x,b} over b."""
    from .tiling import div_set

    ctx = _same_context(A, B)
    xv = _base_value(ctx, x)
    db = div_set(B)
    gcds = ctx.gcd_table
    return TileSet(ctx, (a for a in A.members if gcds[(xv - a) % ctx.M] in db))


def satset_dilation_equiv(A: TileSet, B: TileSet, x, y, a: int, b: int) -> bool:
    """True when (x-a, M) = (y-b, M).

    This is the pairing criterion for a and b to sit in A_{x,y} and B_{y,x}
    through each other, and it holds exactly when some r coprime to M solves
    x - a = r(y - b).
    """
    ctx = _same_context(A, B)
    if not A.mask >> (a % ctx.M) & 1:
        raise InputError(f"{a} is not an element of A")
    if not B.mask >> (b % ctx.M) & 1:
        raise InputError(f"{b} is not an element of B")
    xv = _base_value(ctx, x)
    yv = _base_value(ctx, y)
    return ctx.gcd_table[(xv - a) % ctx.M] == ctx.gcd_table[(yv - b) % ctx.M]
