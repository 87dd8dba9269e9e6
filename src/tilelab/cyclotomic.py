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

The two classical conditions on a tile, with S_A the set of prime powers
s | M whose Phi_s divides the mask:

  T1:  A(1) = prod_{s in S_A} Phi_s(1)
  T2:  s_1, ..., s_k in S_A powers of distinct primes  =>  Phi_{s_1...s_k} | A

Profiles are memoized per TileSet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .zm_core import TileSet, prime_factorization


def phi_at_one(s: int) -> int:
    """Phi_s(1): p for prime powers p^alpha, 1 for s with >= 2 prime factors."""
    if s <= 1:
        raise InputError(f"index must be > 1, got {s}")
    fac = prime_factorization(s)
    return fac[0][0] if len(fac) == 1 else 1


def divides_mask(s: int, A: TileSet) -> bool:
    """Whether Phi_s(X) | A(X), for s | M, s != 1, A nonempty."""
    M = A.context.M
    if s <= 1 or M % s:
        raise InputError(f"index {s} must divide M={M} and exceed 1")
    if not len(A):
        raise InputError("empty tile has the zero mask; divisibility is vacuous")
    return s in cyclo_profile(A).divisors_of_mask


@dataclass(frozen=True)
class CycloProfile:
    """Which cyclotomics divide a tile's mask."""

    divisors_of_mask: frozenset[int]   # {s | M, s > 1 : Phi_s | A(X)}
    s_set: frozenset[int]              # the prime-power members (S_A)


@lru_cache(maxsize=None)
def _cuboid_steps(s: int) -> tuple[int, ...]:
    """s/p for every prime p | s: the edge lengths of an s-cuboid."""
    return tuple(s // p for p, _ in prime_factorization(s))


def _cuboid_vanishes(members: tuple[int, ...], s: int) -> bool:
    """Phi_s | A(X): fold A mod s, difference along every s/p, test for zero."""
    counts = [0] * s
    for a in members:
        counts[a % s] += 1
    for step in _cuboid_steps(s):
        # (1 - X^step) * counts: entry x loses entry x - step, cyclically
        counts = [c - d for c, d in zip(counts, counts[-step:] + counts[:-step])]
        if not any(counts):   # the remaining operators keep it zero
            return True
    return False


@lru_cache(maxsize=1 << 18)
def cyclo_profile(A: TileSet) -> CycloProfile:
    if not len(A):
        raise InputError("cannot profile the empty tile")
    hits = [s for s in A.context.divisors
            if s > 1 and _cuboid_vanishes(A.members, s)]
    s_set = frozenset(s for s in hits if len(prime_factorization(s)) == 1)
    return CycloProfile(frozenset(hits), s_set)


def check_T1(A: TileSet) -> bool:
    """|A| = prod Phi_s(1) over s in S_A."""
    prod = 1
    for s in cyclo_profile(A).s_set:
        prod *= phi_at_one(s)
    return len(A) == prod


def check_T2(A: TileSet) -> bool:
    """Products of S_A members with pairwise distinct primes divide the mask."""
    profile = cyclo_profile(A)
    by_prime: dict[int, list[int]] = {}
    for s in sorted(profile.s_set):
        by_prime.setdefault(prime_factorization(s)[0][0], []).append(s)
    groups = list(by_prime.values())
    for k in range(2, len(groups) + 1):
        for chosen in itertools.combinations(groups, k):
            for powers in itertools.product(*chosen):
                product = 1
                for s in powers:
                    product *= s
                if product not in profile.divisors_of_mask:
                    return False
    return True
