"""Divisor-class count rows and the box product.

For a set A and a point x, the count row of x counts elements of A by
their divisor class relative to x:

    row[m] = #{a in A : (x - a, M) = m},   m | M,

indexed like ctx.divisors.  The box product of two such rows,

    <A[x], B[y]> = sum_m row_A[m] * row_B[m] / phi(M/m),

is an exact rational that equals 1 at every point pair (x, y) exactly when
evaluated on the two tiles of a tiling.  phi(M/m) divides phi(M), so
phi(M) <A[x], B[y]> = sum_m w[m] row_A[m] row_B[m] is an integer with
weights w[m] = phi(M)/phi(M/m); it counts dilation triples: the number of
(a, b, r) with r coprime to M and r(a - x) + (b - y) = 0.
"""

from __future__ import annotations

from fractions import Fraction

from .zm_core import TileSet, ZmContext, _same_context


def _weights(ctx: ZmContext) -> list[int]:
    """w[m] = phi(M)/phi(M/m), indexed like ctx.divisors."""
    phi_m = ctx.phi_table[ctx.M]
    return [phi_m // ctx.phi_table[ctx.M // d] for d in ctx.divisors]


def _count_rows(T: TileSet, points) -> list[list[int]]:
    """Per point x in [0, M): divisor-class counts of T relative to x,
    indexed like ctx.divisors."""
    ctx = T.context
    index = {d: k for k, d in enumerate(ctx.divisors)}
    gcds = ctx.gcd_table
    members = T.members
    rows = []
    for x in points:
        row = [0] * len(index)
        for a in members:
            row[index[gcds[x - a]]] += 1
        rows.append(row)
    return rows


def box_product(A: TileSet, B: TileSet, x: int, y: int) -> Fraction:
    """<A[x], B[y]> as an exact rational, base points read mod M; equals 1
    on tilings."""
    ctx = _same_context(A, B)
    (row_a,) = _count_rows(A, [x % ctx.M])
    (row_b,) = _count_rows(B, [y % ctx.M])
    total = sum(w * na * nb for w, na, nb in zip(_weights(ctx), row_a, row_b))
    return Fraction(total, ctx.phi_table[ctx.M])


def box_product_all_ones(t) -> bool:
    """Whole-grid check that <A[x], B[y]> = 1 for every (x, y), in the
    integer form sum_m w[m]*countA*countB = phi(M).

    The product at (x, y) depends only on the count rows of x and y, so
    each distinct pair of rows is checked once.
    """
    ctx = t.context
    phi_m = ctx.phi_table[ctx.M]
    weights = _weights(ctx)
    points = range(ctx.M)
    rows_a = set(map(tuple, _count_rows(t.A, points)))
    rows_b = set(map(tuple, _count_rows(t.B, points)))
    # Fold the weights into the A rows once; each pair is then a dot product.
    packed = [[w * c for w, c in zip(weights, row)] for row in rows_a]
    for row_a in packed:
        sparse = [(k, wc) for k, wc in enumerate(row_a) if wc]
        for row_b in rows_b:
            if sum(wc * row_b[k] for k, wc in sparse) != phi_m:
                return False
    return True
