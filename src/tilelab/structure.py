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

The whole-grid check runs on packed integers: the rows of every point
come from one product of polynomials evaluated at X = 2^w (_count_rows),
and each distinct A row is compared with all distinct B rows at once, the
B rows packed per divisor column (box_product_all_ones).  The product at a
single pair of points counts its two rows member by member (box_product).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING

from .zm_core import TileSet, ZmContext, _packed_indicator, _same_context

if TYPE_CHECKING:
    from fractions import Fraction


_FIELD = 8 * array("Q").itemsize     # bits per packed field, at least 64


def _weights(ctx: ZmContext) -> list[int]:
    """w[m] = phi(M)/phi(M/m), indexed like ctx.divisors."""
    phi_m = ctx.phi_table[ctx.M]
    return [phi_m // ctx.phi_table[ctx.M // d] for d in ctx.divisors]


@lru_cache(maxsize=8)   # 3 M D nbytes bytes each
def _class_polys(ctx: ZmContext, nbytes: int) -> int:
    """(1 + X^M) C_m(X) for every divisor m, with C_m(X) the sum of X^v
    over the v in [0, M) with (v, M) = m, at X = 2^(8 nbytes): one block of
    3M fields per divisor, indexed like ctx.divisors."""
    M = ctx.M
    index = {d: i for i, d in enumerate(ctx.divisors)}
    packed = bytearray(3 * M * nbytes * len(index))
    for v, d in enumerate(ctx.gcd_table):
        start = (3 * M * index[d] + v) * nbytes
        packed[start] = packed[start + M * nbytes] = 1
    return int.from_bytes(packed, "little")


def _count_rows(T: TileSet) -> list[tuple[int, ...]]:
    """Per point x in [0, M): divisor-class counts of T relative to x,
    indexed like ctx.divisors.

    With P(X) the sum of X^t over T, the coefficient of X^(M + x) in
    P(X) (1 + X^M) C_m(X) is #{t : (x - t, M) = m}, the count of class m
    at x: a t <= x meets c = x - t in X^M C_m(X), a t > x meets
    c = M + x - t in C_m(X).  Each coefficient of the product counts every
    t at most once, so it is at most |T|, below 2^w with w = 8 nbytes: no
    field carries, and the blocks of 3M fields, each holding a product of
    degree below 3M, do not overlap.  The counts are read as bytes, fields
    M to 2M of each block.
    """
    ctx = T.context
    nbytes, indicator = _packed_indicator(T)       # 2^w > |T|
    size = ctx.M * nbytes
    product = indicator * _class_polys(ctx, nbytes)
    data = product.to_bytes(3 * size * len(ctx.divisors), "little")
    cols = [data[start:start + size]
            for start in range(size, len(data), 3 * size)]
    if nbytes > 1:
        cols = [[int.from_bytes(col[v:v + nbytes], "little")
                 for v in range(0, size, nbytes)] for col in cols]
    return list(zip(*cols))


def box_product(A: TileSet, B: TileSet, x: int, y: int) -> Fraction:
    """<A[x], B[y]> as an exact rational, base points read mod M; equals 1
    on tilings.  Each member a of A adds w[m] row_B[m] for its class
    m = (x - a, M), which sums to sum_m w[m] row_A[m] row_B[m]."""
    from fractions import Fraction  # here: no CLI command needs it
    ctx = _same_context(A, B)
    M, gcds, phi = ctx.M, ctx.gcd_table, ctx.phi_table
    x, y = x % M, y % M
    row_b = Counter(gcds[y - b] for b in B.members)
    total = sum(phi[M] // phi[M // m] * row_b[m]
                for m in (gcds[x - a] for a in A.members))
    return Fraction(total, phi[M])


def box_product_all_ones(t) -> bool:
    """Whole-grid check that <A[x], B[y]> = 1 for every (x, y), in the
    integer form sum_m w[m]*countA*countB = phi(M).

    The product at (x, y) depends only on the count rows of x and y, so
    each distinct pair of rows is checked once.  The distinct B rows j go
    into one integer per divisor m, with row j's count of class m in field
    j of W bits, written as an array of W-bit items; an A row then gives
    every pair's sum at once, in the fields of sum_m w[m] countA[m] col_m.
    A field's sum is at most phi(M) |A| |B|, as w[m] <= phi(M) and
    sum_m countA[m] countB[m] <= |A| |B|, so with 2^W > phi(M) (|A| |B| + 1)
    no field carries, and the sums all equal phi(M) exactly when the packed
    value equals phi(M) in every field.  As phi(M) < 2^16 and
    |A| |B| <= M^2 <= 2^32 for M <= MAX_M, the bound is below 2^49, so
    items of W >= 64 bits fit every M.
    """
    ctx = t.context
    phi_m = ctx.phi_table[ctx.M]
    rows_b = set(_count_rows(t.B))
    cols_b = [int.from_bytes(array("Q", col), sys.byteorder)
              for col in zip(*rows_b)]
    target = phi_m * (((1 << _FIELD * len(rows_b)) - 1)
                      // ((1 << _FIELD) - 1))
    weights = _weights(ctx)
    for row_a in set(_count_rows(t.A)):
        total = 0
        for w, c, col in zip(weights, row_a, cols_b):
            if c:
                total += w * c * col
        if total != target:
            return False
    return True
