"""Exact arithmetic and geometry of Z_M.

Everything downstream works inside a fixed cyclic group Z_M with
M = p_1^{n_1} * ... * p_K^{n_K}.  A ZmContext precomputes the factorization,
divisor lattice, Euler phi values, per-residue CRT coordinates, plus a gcd
table so that (x - y, M) lookups are O(1).  Residues are plain ints in
[0, M).  Directions are 0-based indices into the ascending prime list.

Geometry is arithmetic on residues: the plane Pi(x, p_j^alpha) is
{y : p_j^alpha | y - x}, equivalently the y whose direction-j coordinate is
congruent to x's mod p_j^alpha, and the fiber of x in direction j is
{x + k M/p_j}.  Sets of residues are TileSets, stored both as a sorted tuple
and as a bitmask with one bit per residue.

The context owns the mask geometry (translates, fiber_union, full_fibers),
so the doubled mask and its stray bits above M stay here.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import ContextMismatchError, InputError


def prime_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization, ((p, exponent), ...) with p ascending."""
    if n < 1:
        raise InputError(f"positive integer required, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in prime_factorization(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def radical_quotient(n: int) -> int:
    """N / prod(p | N): the largest D with D * rad(N) = N.  D(12)=2, D(30)=1."""
    rad = 1
    for p, _ in prime_factorization(n):
        rad *= p
    return n // rad


def _divisors_of(factorization: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    divs = [1]
    for p, e in factorization:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


class ZmContext:
    """Immutable bundle of everything precomputable about Z_M.  Equality,
    hash and repr use M alone, so the kernels' lru_cache keys stay cheap."""

    __slots__ = ("M", "primes", "divisors", "phi_table", "gcd_table",
                 "coord_tables", "full_mask")

    M: int
    primes: tuple[tuple[int, int], ...]      # ((p, n), ...) ascending
    divisors: tuple[int, ...]                # all divisors of M, ascending
    phi_table: dict[int, int]                # d | M  ->  phi(d)
    gcd_table: tuple[int, ...]               # v -> gcd(v, M), v in [0, M)
    coord_tables: tuple[tuple[int, ...], ...]  # per direction: v -> pi_j(v)
    full_mask: int

    def __init__(self, M, primes, divisors, phi_table, gcd_table,
                 coord_tables, full_mask):
        fields = (M, primes, divisors, phi_table, gcd_table, coord_tables,
                  full_mask)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("ZmContext is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return isinstance(other, ZmContext) and other.M == self.M

    def __hash__(self):
        return hash(("ZmContext", self.M))

    def __repr__(self):
        return f"ZmContext(M={self.M})"

    def check_direction(self, i: int) -> tuple[int, int]:
        if not 0 <= i < len(self.primes):
            raise InputError(f"direction {i} out of range for M={self.M}")
        return self.primes[i]

    def translates(self, mask: int, shifts: Iterable[int]) -> int:
        """The union of the translates mask + s over the shifts s in [0, M]:
        the OR of rotate(mask, s), the cyclic shift of bit v to (v + s) mod
        M.  The lane mask | mask << M holds the mask twice, so bits [0, M)
        of lane >> (M - s) are rotate(mask, s); full_mask cuts off the rest."""
        M = self.M
        lane = mask | mask << M
        out = 0
        for s in shifts:
            out |= lane >> (M - s)
        return out & self.full_mask

    def fiber_union(self, mask: int, direction: int) -> int:
        """The union of the fibers v + k M/p (k < p) of the v in mask: its
        translates by the multiples of M/p."""
        step = self.M // self.primes[direction][0]
        return self.translates(mask, range(0, self.M, step))

    def full_fibers(self, mask: int, direction: int) -> int:
        """Mask of the v in mask whose whole fiber v + k M/p (k < p) lies in
        it: the AND of the mask with its p - 1 rotations by -k M/p."""
        p, _ = self.primes[direction]
        step = self.M // p
        lane = mask | mask << self.M    # lane >> s: rotate(mask, -s) below M
        full = mask
        for k in range(1, p):
            full &= lane >> (k * step)
        return full


# Largest supported modulus.  A context holds several M-length tables and
# tiles are M-bit masks, so the bound is checked before anything is built.
MAX_M = 1 << 16


@lru_cache(maxsize=None)
def factorize(M: int) -> ZmContext:
    """Build (and memoize) the context for Z_M, 1 <= M <= MAX_M."""
    if M > MAX_M:
        raise InputError(f"modulus exceeds MAX_M = {MAX_M}")
    if M < 1:
        raise InputError(f"modulus must be >= 1, got {M}")
    primes = prime_factorization(M)
    divisors = _divisors_of(primes)
    phi_table = {d: euler_phi(d) for d in divisors}
    gcd_table = tuple(math.gcd(v, M) for v in range(M))
    coord_tables = []
    for q in (p**n for p, n in primes):
        inv = pow(M // q, -1, q)
        coord_tables.append(tuple((v % q) * inv % q for v in range(M)))
    return ZmContext(M, primes, divisors, phi_table, gcd_table,
                     tuple(coord_tables), (1 << M) - 1)


@lru_cache(maxsize=None)
def _class_bits(ctx: ZmContext) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(cbit, masks) over divisor indices i (d = ctx.divisors[i]):
    cbit[v] = 1 << i for (v, M) = d, v in [0, M), and masks[i] the bitmask
    of {v in [1, M) : (v, M) = d} (empty for d = M).  One table per
    context, shared by every caller."""
    index = {d: i for i, d in enumerate(ctx.divisors)}
    masks = [0] * len(index)
    for v in range(1, ctx.M):
        masks[index[ctx.gcd_table[v]]] |= 1 << v
    return (tuple(1 << index[g] for g in ctx.gcd_table), tuple(masks))


def _same_context(a, b) -> ZmContext:
    if a.context != b.context:
        raise ContextMismatchError(
            f"mixed moduli {a.context.M} and {b.context.M}")
    return a.context


class TileSet:
    """An immutable set of residues of Z_M, with a bitmask mirror.

    Membership, subset and translation tests run on the mask; ordered
    iteration uses the sorted member tuple.  The slot div holds Div(T) as
    divisor-index bits: from the pair search that built the tile, or from
    the first tiling.div_bits call (None until then).
    """

    __slots__ = ("context", "members", "mask", "div")

    def __init__(self, context: ZmContext, members: Iterable[int]):
        raw = list(members)
        ordered = tuple(sorted(set(map(operator.index, raw))))
        M = context.M
        if ordered and (ordered[0] < 0 or ordered[-1] >= M):
            bad = next(v for v in raw if not 0 <= v < M)   # first in input
            raise InputError(f"residue {bad} outside [0, {M})")
        seen = 0
        for v in ordered:
            seen |= 1 << v
        _set_context(self, context)
        _set_mask(self, seen)
        _set_members(self, ordered)
        _set_div(self, None)

    @classmethod
    def from_mask(cls, context: ZmContext, mask: int) -> "TileSet":
        if mask < 0 or mask > context.full_mask:
            raise InputError("mask outside the residue range")
        return cls._from_parts(context, mask, _mask_members(mask), None)

    @classmethod
    def _from_parts(cls, context: ZmContext, mask: int,
                    members: tuple[int, ...], div: int | None) -> "TileSet":
        """The tile whose bitmask is mask and whose ascending member tuple
        is members, unchecked: callers that hold both (the searches in
        tiling, and its JSON parser once each member is validated) pass
        them as they are.  div is the div slot: Div bits or None."""
        ts = object.__new__(cls)
        _set_context(ts, context)
        _set_mask(ts, mask)
        _set_members(ts, members)
        _set_div(ts, div)
        return ts

    def __setattr__(self, *_):
        raise AttributeError("TileSet is immutable")

    def __len__(self):
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.context.M and self.mask >> v & 1

    def __eq__(self, other):
        return (isinstance(other, TileSet)
                and other.context == self.context
                and other.mask == self.mask)

    def __hash__(self):
        return hash((self.context.M, self.mask))

    def __repr__(self):
        return f"TileSet(M={self.context.M}, {{{', '.join(map(str, self.members))}}})"

    def dilate(self, r: int) -> "TileSet":
        """{r*a mod M}; may have fewer elements when gcd(r, M) > 1."""
        ctx = self.context
        return TileSet(ctx, ((r * a) % ctx.M for a in self.members))


# The slot descriptors' own setters: they fill a slot without going through
# the immutability guard in __setattr__, and cost less than object.__setattr__.
_set_context = TileSet.context.__set__
_set_mask = TileSet.mask.__set__
_set_members = TileSet.members.__set__
_set_div = TileSet.div.__set__


def _packed_indicator(T: TileSet) -> tuple[int, int]:
    """(nbytes, sum of X^t over T at X = 2^w): w = 8 nbytes, the least
    multiple of 8 with 2^w > |T|, so a count up to |T| fits one field."""
    nbytes = max(1, (len(T).bit_length() + 7) // 8)
    packed = bytearray(T.context.M * nbytes)
    for t in T.members:
        packed[t * nbytes] = 1
    return nbytes, int.from_bytes(packed, "little")


def _mask_members(mask: int) -> tuple[int, ...]:
    """The set bits of a nonnegative mask, ascending: O(M + |members|)."""
    bits = bin(mask)[:1:-1]      # bits[v] is bit v
    find = bits.find
    out = []
    v = find("1")
    while v >= 0:
        out.append(v)
        v = find("1", v + 1)
    return tuple(out)

