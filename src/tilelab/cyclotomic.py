"""Cyclotomic divisibility of mask polynomials, by the cuboid criterion.

A tile A gets the mask polynomial A(X) = sum_{a in A} X^a (degree < M by
construction).  The s-th cyclotomic polynomial Phi_s divides A(X) exactly or
not at all, and for s | M that is decided on integers alone, no floats and
no polynomial division anywhere:

  Phi_s | A(X)  <=>  c * prod_{p | s} (1 - X^{s/p}) = 0  in Z[X] / (X^s - 1),

where c(X) is A(X) folded mod X^s - 1, i.e. the counts c[x] = #{a in A :
a = x mod s}.  Every s-th root of unity of order below s is a root of some
1 - X^{s/p}, and X^s - 1 is squarefree, so the product vanishes exactly when
the primitive ones are roots of A.  Applying the difference operators one
prime at a time to the count vector leaves the signed vertex sums of the
s-cuboids of A; Phi_s | A(X) when all of them are zero.  This is the cuboid
criterion of Laba and Londner, "Combinatorial and harmonic-analytic methods
for integer tilings", Forum Math. Pi 10 (2022), resting on de Bruijn (1953)
and Lam and Leung, "On vanishing sums of roots of unity", J. Algebra 224
(2000).

The polynomials are evaluated at X = 2^w, one packed integer per tile, with
a field of w bits per residue; w is the least multiple of 8 with
2^w > |A|.  The indicator of A packs into M fields; the counts mod s are
the sum of the p slices of w*s bits of the counts mod s*p, and no field
carries, since a count is at most |A|.  Each operator 1 - X^d is
P - (P << w*d), and reducing mod X^s - 1 becomes reducing mod
N = 2^(w*s) - 1, by adding the bits above w*s to the bits below.  None of
the masks N, slice offsets, fold sources or cuboid shifts depends on the
tile beyond w, so they come from one plan per (M, w), built on first use
and shared by every tile of that modulus and field width.

The test is exact because every coefficient of the cyclic result R is at
most |A| in absolute value.  The coefficient of X^x in R is the signed sum
of c[x - sum_{p in S} s/p] over the sets S of primes of s, and these are
counts at pairwise distinct residues mod s: if two sets S != T gave
congruent sums, take q in one and not the other, with q^e exactly dividing
s; every s/p with p != q is divisible by q^e and s/q is not, so the two
sums differ mod q^e, hence mod s.  A sum of counts at distinct residues is
at most |A|, so every |r_x| <= 2^w - 1.  The coefficients also sum to
R(1) = c(1) * prod (1 - 1) = 0, as s > 1 has a prime.  |R(2^w)| could
reach N = (2^w - 1) * sum_{x < s} 2^(w x) only with every r_x equal to
2^w - 1, or every r_x to -(2^w - 1), and those do not sum to 0; so
|R(2^w)| < N, and the packed value is 0 mod N exactly when R(2^w) = 0.
That forces R = 0: the lowest nonzero r_x would be divisible by 2^w,
yet 0 < |r_x| < 2^w.

The two classical conditions on a tile, with S_A the set of prime powers
s | M whose Phi_s divides the mask:

  T1:  A(1) = prod_{s in S_A} Phi_s(1)
  T2:  s_1, ..., s_k in S_A powers of distinct primes  =>  Phi_{s_1...s_k} | A

Both are decided once per profile, T2 on the divisor lattice: every s > 1
dividing M whose prime-power parts p^{v_p(s)} all lie in S_A has Phi_s | A.
Those s are exactly the products above, or single members of S_A, which
divide the mask.  The plan lists Phi_s(1) for every prime power s | M and
the prime-power parts of every s | M with two or more primes, so S_A is the
hits among the prime powers, T1 compares |A| with the product of their
Phi_s(1), and T2 asks that every listed s whose parts all lie in S_A be a
hit.  Profiles are memoized per TileSet, in a bounded cache.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError
from .zm_core import (TileSet, ZmContext, _packed_indicator,
                      prime_factorization)


def phi_at_one(s: int) -> int:
    """Phi_s(1): p for prime powers p^alpha, 1 for s with >= 2 prime factors."""
    if s <= 1:
        raise InputError(f"index must be > 1, got {s}")
    primes = prime_factorization(s)
    return primes[0][0] if len(primes) == 1 else 1


def divides_mask(s: int, A: TileSet) -> bool:
    """Whether Phi_s(X) | A(X), for s | M, s != 1, A nonempty."""
    M = A.context.M
    if s <= 1 or M % s:
        raise InputError(f"index {s} must divide M={M} and exceed 1")
    if not len(A):
        raise InputError("empty tile has the zero mask; divisibility is vacuous")
    return s in cyclo_profile(A).divisors_of_mask


class CycloProfile(NamedTuple):
    """Which cyclotomics divide a tile's mask."""

    divisors_of_mask: frozenset[int]   # {s | M, s > 1 : Phi_s | A(X)}
    s_set: frozenset[int]              # the prime-power members (S_A)
    t1: bool
    t2: bool


@lru_cache(maxsize=None)
def _cuboid_plan(ctx: ZmContext, w: int) -> tuple:
    """Everything cyclo_profile needs that depends on (M, w) alone:

      folds:  per divisor s > 1 of M, descending, (s, src, cuts, N, w*s,
              shifts): the counts mod s are cut from the fold at plan index
              src (-1, the packed indicator, at s = M) at the bit offsets
              cuts = w*s*j, 1 <= j < p, for the least prime p with s*p | M;
              N = 2^(w*s) - 1; shifts = w*s/q for every prime q | s;
      powers: {prime power s: Phi_s(1)};
      mixed:  (s, prime-power parts of s) for every s with >= 2 primes."""
    M = ctx.M
    order = ctx.divisors[:0:-1]
    index = {s: i for i, s in enumerate(order)}
    folds, powers, mixed = [], {}, []
    for s in order:
        width = w * s
        p = next((p for p, _ in ctx.primes if M % (s * p) == 0), 1)
        src = index[s * p] if s < M else -1
        primes = prime_factorization(s)
        folds.append((s, src, tuple(width * j for j in range(1, p)),
                      (1 << width) - 1, width,
                      tuple(width // q for q, _ in primes)))
        if len(primes) == 1:
            powers[s] = phi_at_one(s)
        else:
            mixed.append((s, tuple(q ** e for q, e in primes)))
    return tuple(folds), powers, tuple(mixed)


@lru_cache(maxsize=4096)
def cyclo_profile(A: TileSet) -> CycloProfile:
    """Every s | M, s > 1, with Phi_s | A(X): the packed cuboid test above."""
    if not len(A):
        raise InputError("cannot profile the empty tile")
    nbytes, indicator = _packed_indicator(A)
    plan, powers, mixed = _cuboid_plan(A.context, 8 * nbytes)
    folds = [0] * len(plan) + [indicator]   # folds[-1]: the indicator
    hits = []
    for i, (s, src, cuts, low, width, shifts) in enumerate(plan):
        above = folds[src]
        fold = above & low              # low = N, and the low w*s bits
        for cut in cuts:
            fold += above >> cut & low
        folds[i] = fold
        for shift in shifts:
            fold -= fold << shift
        while fold >> width:            # fold mod N, ending in [0, N]
            fold = (fold >> width) + (fold & low)
        if fold == 0 or fold == low:
            hits.append(s)
    hits = frozenset(hits)
    s_set = hits.intersection(powers)
    t1 = len(A) == math.prod(powers[s] for s in s_set)
    t2 = all(s in hits for s, parts in mixed if s_set.issuperset(parts))
    return CycloProfile(hits, s_set, t1, t2)


def check_T1(A: TileSet) -> bool:
    """|A| = prod Phi_s(1) over s in S_A."""
    return cyclo_profile(A).t1


def check_T2(A: TileSet) -> bool:
    """Products of S_A members with pairwise distinct primes divide the mask."""
    return cyclo_profile(A).t2
