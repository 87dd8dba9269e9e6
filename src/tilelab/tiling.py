"""Tilings A + B = Z_M and the three verification routes.

A pair (A, B) tiles when every residue has exactly one representation a + b.
Equivalent formulations, all implemented and kept in agreement:

  direct:      the sumset covers every residue exactly once
  divisor:     |A||B| = M and Div(A) & Div(B) = {M}, where
               Div(A) = {(a - a', M) : a, a' in A}, read off the
               difference mask OR_a rotate(A, -a) class by class and
               kept on the tile as divisor-index bits (div_bits)
  cyclotomic:  |A||B| = M and every Phi_s with s | M, s > 1 divides
               A(X) or B(X)

Also here: coprime-dilation invariance (r with gcd(r, |A|) = 1 maps tilings
to tilings), dilation stabilizers, and exhaustive complement / tiling search
with divisor-exclusion pruning.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from types import GeneratorType
from typing import Iterator, Sequence

from .cyclotomic import cyclo_profile
from .errors import (InputError, InvariantViolationError, NotATilingError,
                     TheoremViolationError)
from .zm_core import (TileSet, ZmContext, _class_bits, _same_context,
                      _set_div, factorize)


class Tiling:
    """A verified (unless check=False) pair A + B = Z_M."""

    __slots__ = ("context", "A", "B", "_decomp")

    def __init__(self, A: TileSet, B: TileSet, check: bool = True):
        ctx = _same_context(A, B)
        if check and not verify_direct(A, B):
            raise NotATilingError(
                f"not a tiling of Z_{ctx.M}: A={A.members} B={B.members}")
        _set_context(self, ctx)
        _set_A(self, A)
        _set_B(self, B)
        _set_decomp(self, None)

    @classmethod
    def _from_parts(cls, ctx: ZmContext, A: TileSet, B: TileSet) -> "Tiling":
        """The pair (A, B) of tiles of ctx, unchecked: for callers that
        already hold two tiles of one context (the pair search, swapped)."""
        t = object.__new__(cls)
        _set_context(t, ctx)
        _set_A(t, A)
        _set_B(t, B)
        _set_decomp(t, None)
        return t

    def __setattr__(self, *_):
        raise AttributeError("Tiling is immutable")

    def __eq__(self, other):
        return (isinstance(other, Tiling) and other.context == self.context
                and other.A == self.A and other.B == self.B)

    def __hash__(self):
        return hash((self.context.M, self.A.mask, self.B.mask))

    def __repr__(self):
        return f"Tiling(M={self.context.M}, A={list(self.A)}, B={list(self.B)})"

    @property
    def decomp(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Arrays (a_of, b_of): z = a_of[z] + b_of[z] is the representation."""
        got = self._decomp
        if got is None:
            M = self.context.M
            a_of = [-1] * M
            b_of = [-1] * M
            for a in self.A:
                for b in self.B:
                    z = (a + b) % M
                    if a_of[z] >= 0:
                        raise InvariantViolationError(
                            f"double cover at {z}: {a_of[z]}+{b_of[z]} and {a}+{b}")
                    a_of[z] = a
                    b_of[z] = b
            if -1 in a_of:
                raise InvariantViolationError(
                    f"residue {a_of.index(-1)} uncovered; not a tiling")
            got = (tuple(a_of), tuple(b_of))
            _set_decomp(self, got)
        return got

    def swapped(self) -> "Tiling":
        return Tiling._from_parts(self.context, self.B, self.A)


# Slot setters that bypass the immutability guard (see zm_core.TileSet).
_set_context = Tiling.context.__set__
_set_A = Tiling.A.__set__
_set_B = Tiling.B.__set__
_set_decomp = Tiling._decomp.__set__


def verify_direct(A: TileSet, B: TileSet) -> bool:
    """Exact-cover check on bitmasks."""
    ctx = _same_context(A, B)
    if len(A) * len(B) != ctx.M:
        return False
    covered = 0
    for a in A:
        shifted = ctx.rotate(B.mask, a)
        if shifted & covered:
            return False
        covered |= shifted
    return covered == ctx.full_mask


def div_bits(A: TileSet) -> int:
    """Div(A) as divisor-index bits (bit i for ctx.divisors[i], see
    _class_bits), with the bit of M whenever A is nonempty.

    d < M is in Div(A) exactly when A's difference mask, the union of its
    translates by -a, a in A, meets the class {v : (v, M) = d}.  Read once
    per tile object and kept in its div slot; the pair search fills it.
    """
    bits = A.div
    if bits is None:
        bits = 0
        if len(A):
            ctx = A.context
            diff = ctx.translates(A.mask, [ctx.M - a for a in A.members])
            cbit, masks = _class_bits(ctx)
            bits = cbit[0]              # the bit of M = (0, M)
            for i, cls in enumerate(masks):
                if diff & cls:
                    bits |= 1 << i
        _set_div(A, bits)
    return bits


@lru_cache(maxsize=None)
def _orbit_reach(ctx: ZmContext, k: int) -> tuple[int, ...]:
    """Per divisor index i, the divisor-index bits j of the classes
    d_j = d_i gcd(g, M/d_i) that the divisors g < M coprime to k send d_i
    to (d_i = ctx.divisors[i]): D ints of D bits, D = len(ctx.divisors).
    d_j is read as cbit[d_j mod M], so d_j = M reads as the bit of M."""
    cbit = _class_bits(ctx)[0]
    admissible = [g for g in ctx.divisors[:-1] if math.gcd(g, k) == 1]
    table = []
    for d in ctx.divisors:
        bits = 0
        for g in admissible:
            bits |= cbit[d * math.gcd(g, ctx.M // d) % ctx.M]
        table.append(bits)
    return tuple(table)


def verify_sands(A: TileSet, B: TileSet) -> bool:
    """|A||B| = M plus divisor exclusion: Div(A) and Div(B) share only M."""
    ctx = _same_context(A, B)
    if len(A) * len(B) != ctx.M:
        return False
    # both hold M, the last divisor
    return div_bits(A) & div_bits(B) == 1 << len(ctx.divisors) - 1


def verify_cyclotomic(A: TileSet, B: TileSet) -> bool:
    """|A||B| = M plus: every Phi_s, s | M, s > 1, divides one of the masks."""
    ctx = _same_context(A, B)
    if len(A) * len(B) != ctx.M:
        return False
    da = cyclo_profile(A).divisors_of_mask
    db = cyclo_profile(B).divisors_of_mask
    return all(s in da or s in db for s in ctx.divisors if s > 1)


def tijdeman_orbit_check(t: Tiling) -> bool:
    """rA + B must tile for every r in [1, M) with gcd(r, |A|) = 1.

    A collapse (|rA| < |A|) or a failed cover for an admissible r would
    contradict the dilation theorem; both raise TheoremViolationError.

    With |A||B| = M, |A| divides M, so r is admissible exactly when
    g = gcd(r, M) is coprime to |A|, and the classes g met are the divisors
    g < M of M.  The differences rx, x in A - A, have (rx, M) = d gcd(r, M/d)
    = d gcd(g, M/d) for d = (x, M), so hit, the OR of _orbit_reach over
    the classes d < M in Div(A), holds every (rx, M) with x != 0 over every
    admissible r.  If hit holds M, some admissible r sends two members of A
    together: a collapse, checked literally below.  Otherwise no r
    collapses A, and if Div(B) meets no class in hit, (rA - rA) meets
    (B - B) only in 0 for every admissible r, so the M sums ra + b are
    distinct and rA + B tiles: the elementary direction of Sands'
    criterion, not the theorem being checked.  In every other case the
    literal loop below runs, and the first failing r and its message are
    those it has always reported.
    """
    ctx = t.context
    M = ctx.M
    k = len(t.A)
    if k * len(t.B) == M:
        reach = _orbit_reach(ctx, k)
        top = len(reach) - 1              # the index of M, the last divisor
        below = div_bits(t.A) & ~(1 << top)
        hit = 0
        while below:
            low = below & -below
            hit |= reach[low.bit_length() - 1]
            below ^= low
        if not hit >> top and not hit & div_bits(t.B):
            return True
    for r in range(1, M):
        if math.gcd(r, k) != 1:
            continue
        rA = t.A.dilate(r)
        if len(rA) != k:
            raise TheoremViolationError(
                f"dilation r={r} collapsed A={t.A.members} to {rA.members}")
        if not verify_direct(rA, t.B):
            raise TheoremViolationError(
                f"dilation r={r} broke the tiling: rA={rA.members}")
    return True


def dilation_stabilizer(ctx: ZmContext, x: int, x_prime: int) -> tuple[int, ...]:
    """All r coprime to M with r*x = x'; requires x, x' in [0, M) and
    (x, M) = (x', M).

    With m = (x, M), r x = x' (mod M) exactly when r (x/m) = x'/m (mod M/m),
    and x/m is a unit mod M/m, so the answer is the coprime residues of the
    grid r0 + (M/m)Z, r0 = (x'/m)(x/m)^-1 mod M/m.  It has exactly
    phi(M)/phi(M/m) elements, which is asserted.
    """
    for v in (x, x_prime):
        if not 0 <= v < ctx.M:
            raise InputError(f"residue {v} outside [0, {ctx.M})")
    m = ctx.gcd_table[x]
    if ctx.gcd_table[x_prime] != m:
        raise InputError(
            f"(x, M) = {m} but (x', M) = {ctx.gcd_table[x_prime]}")
    step = ctx.M // m
    r0 = x_prime // m * pow(x // m, -1, step) % step
    hits = tuple(r for r in range(r0, ctx.M, step) if ctx.gcd_table[r] == 1)
    expected = ctx.phi_table[ctx.M] // ctx.phi_table[step]
    if len(hits) != expected:
        raise InvariantViolationError(
            f"stabilizer of ({x}->{x_prime}) has {len(hits)} "
            f"elements, expected {expected}")
    return hits


def iter_complements(A: TileSet, normalize: bool = True,
                     limit: int | None = None) -> Iterator[TileSet]:
    """Stream complements of A in deterministic search order (the first
    `limit` if given; a negative limit is an InputError).

    Backtracking on the lowest uncovered residue; a candidate b is cut as
    soon as (b - b', M) lands in Div(A) \\ {M} for some placed b', which also
    rules out sumset collisions.
    """
    if limit is not None and limit < 0:
        raise InputError(f"limit must be at least 0, got {limit}")
    ctx = A.context
    M = ctx.M
    k = len(A)
    if k == 0 or M % k:
        return
    target = M // k
    div_a = div_bits(A)
    forb = 0
    for i, cls in enumerate(_class_bits(ctx)[1]):
        if div_a >> i & 1:      # the class of M is empty
            forb |= cls
    Amask = A.mask
    fb = forb | 1               # bit 0 carries b itself into blocked
    full = ctx.full_mask
    members = A.members
    from_parts = TileSet._from_parts
    B: list[int] = []

    def walk(covered: int, blocked: int, Bmask: int):
        if covered == full:
            yield from_parts(ctx, Bmask, tuple(sorted(B)), None)
            return
        if len(B) == target:
            return
        z = (~covered & (covered + 1)).bit_length() - 1
        for a in members:
            b = (z - a) % M
            if (blocked >> b) & 1:
                continue
            B.append(b)
            # rotate(x, b) for b in [0, M), as in _pair_dfs
            yield walk(covered | (((Amask << b) | (Amask >> (M - b))) & full),
                       blocked | (((fb << b) | (fb >> (M - b))) & full),
                       Bmask | 1 << b)
            B.pop()

    if normalize:
        B.append(0)
        root = walk(Amask, fb, 1)
    else:
        root = walk(0, 0, 0)
    yield from itertools.islice(_run_search(root), limit)


def find_complements(A: TileSet, limit: int | None = None) -> list[TileSet]:
    """All complements with 0 in B (first `limit` in search order if given),
    sorted."""
    out = list(iter_complements(A, limit=limit))
    out.sort(key=lambda ts: ts.members)
    return out


def _run_search(root) -> Iterator:
    """Depth-first driver for searches whose steps yield either a result or
    a child search (a generator).  A child runs to exhaustion on an explicit
    stack before its parent resumes, so results come in the order nested
    `yield from` would give, without one interpreter frame per level."""
    stack = [root]
    while stack:
        for item in stack[-1]:
            if type(item) is GeneratorType:
                stack.append(item)
                break
            yield item
        else:
            stack.pop()


def iter_tilings(ctx: ZmContext) -> Iterator[Tiling]:
    """Stream every tiling with 0 in both tiles.

    Deterministic DFS, each tiling exactly once: the branch taken at the
    lowest uncovered residue z pins which pair (a, b) represents z, so two
    branches can never converge to the same pair.  B + A = Z_M exactly
    when A + B = Z_M, so only the splits |A| <= |B| are searched.  Order:
    split pairs {(d, M/d), (M/d, d)} by the smaller size d, ascending;
    within a pair, search order of (d, M/d), each tiling followed by its
    swap; a square split in plain search order.  Not globally
    lexicographic; use enumerate_tilings for the canonical ordering.
    """
    for d in ctx.divisors:
        e = ctx.M // d
        if d == e:
            yield from _pair_dfs(ctx, d, e)
        elif d < e:
            for t in _pair_dfs(ctx, d, e):
                yield t
                yield t.swapped()


def _pair_dfs(ctx: ZmContext, dA: int, dB: int):
    """Pair search for one size split, run by _run_search; see iter_tilings.

    State per step: bitmasks for members, coverage, and "blocked" residues.
    blockedA contains A's members plus every v with (v - a, M) in Div(B)\\{M}
    for some placed a (divisor exclusion; it also subsumes sumset-collision
    pruning).  blockedB_refl mirrors blockedB through v -> -v, which is sound
    to maintain by symmetric updates because each divisor class mask is
    invariant under negation.

    The difference classes met so far, divA and divB, are bit sets over
    divisor indices (see _class_bits): bit i stands for ctx.divisors[i].  The
    classes of a new member v against a side W are the OR of cbit[v - w] over
    w in W, indexed without a reduction mod M: v - w lies in (-M, M), a
    negative index reads cbit[M + v - w], and (M - x, M) = (x, M).  Both
    start at the bit of M, which no class of two distinct members holds, so
    at a leaf they are Div(A) and Div(B).  A leaf builds its tiles from the
    masks, member lists and Div bits it holds.

    Rotations are written out: ctx.rotate(x, k) is
    ((x << k) | (x >> (M - k))) & full for k in [0, M], and a reflected
    shift by -k is the shift by M - k.  Neither k = 0 nor k = M needs a
    branch, because every mask here holds only M bits: then x >> M is 0
    and x << M is cut off by full, so both ends give x itself.
    """
    M = ctx.M
    full = ctx.full_mask
    cbit, class_masks = _class_bits(ctx)
    tile = TileSet._from_parts
    tiling = Tiling._from_parts
    A = [0]
    B = [0]

    def walk(state):
        (Amask, Bmask, covered, divA, divB, forbA, forbB,
         blockedA, blockedB, blockedB_refl) = state
        if covered == full:
            yield tiling(ctx, tile(ctx, Amask, tuple(sorted(A)), divA),
                         tile(ctx, Bmask, tuple(sorted(B)), divB))
            return
        z = (~covered & (covered + 1)).bit_length() - 1
        na, nb = len(A), len(B)

        # existing a, new b = z - a
        if nb < dB:
            for a in A:
                b = (z - a) % M
                if not (blockedB >> b) & 1:
                    gB = 0
                    for w in B:
                        gB |= cbit[b - w]
                    yield walk(place(state, None, 0, b, gB))
                    B.pop()
        # existing b, new a = z - b
        if na < dA:
            for b in B:
                a = (z - b) % M
                if not (blockedA >> a) & 1:
                    gA = 0
                    for w in A:
                        gA |= cbit[a - w]
                    yield walk(place(state, a, gA, None, 0))
                    A.pop()
        # both new, a + b = z
        if na < dA and nb < dB:
            cand = full & ~blockedA & ~((blockedB_refl << z)
                                        | (blockedB_refl >> (M - z)))
            while cand:
                bit = cand & -cand
                a = bit.bit_length() - 1
                cand ^= bit
                b = (z - a) % M
                # blocked masks cleared a against divB and b against divA;
                # the fresh-vs-fresh difference classes still need a check
                gA = 0
                for w in A:
                    gA |= cbit[a - w]
                gB = 0
                for w in B:
                    gB |= cbit[b - w]
                if gA & gB:
                    continue
                yield walk(place(state, a, gA, b, gB))
                A.pop()
                B.pop()

    def place(state, a, gA, b, gB):
        """Push a and/or b onto A and B, given the class bits gA of a against
        A and gB of b against B; the caller pops them again."""
        (Amask, Bmask, covered, divA, divB, forbA, forbB, blockedA,
         blockedB, blockedB_refl) = state
        # b first, so a's coverage update sees the final Bmask.  forb | 1
        # blocks the new member itself: no class mask holds bit 0.
        if b is not None:
            newd = gB & ~divB
            B.append(b)
            Bmask |= 1 << b
            covered |= ((Amask << b) | (Amask >> (M - b))) & full
            fb = forbB | 1
            blockedB |= ((fb << b) | (fb >> (M - b))) & full
            blockedB_refl |= ((fb << (M - b)) | (fb >> b)) & full
            if newd:
                divB |= newd
                grow = 0
                while newd:
                    low = newd & -newd
                    grow |= class_masks[low.bit_length() - 1]
                    newd ^= low
                if grow:
                    forbA |= grow
                    spread = 0
                    for w in A:
                        spread |= (grow << w) | (grow >> (M - w))
                    blockedA |= spread & full
        if a is not None:
            newd = gA & ~divA
            A.append(a)
            Amask |= 1 << a
            covered |= ((Bmask << a) | (Bmask >> (M - a))) & full
            fa = forbA | 1
            blockedA |= ((fa << a) | (fa >> (M - a))) & full
            if newd:
                divA |= newd
                grow = 0
                while newd:
                    low = newd & -newd
                    grow |= class_masks[low.bit_length() - 1]
                    newd ^= low
                if grow:
                    forbB |= grow
                    spread = refl = 0
                    for w in B:
                        spread |= (grow << w) | (grow >> (M - w))
                        refl |= (grow << (M - w)) | (grow >> w)
                    blockedB |= spread & full
                    blockedB_refl |= refl & full
        return (Amask, Bmask, covered, divA, divB, forbA, forbB,
                blockedA, blockedB, blockedB_refl)

    m = cbit[0]     # the bit of M = (0, M)
    yield from _run_search(walk((1, 1, 1, m, m, 0, 0, 1, 1, 1)))


def enumerate_tilings(ctx: ZmContext) -> list[Tiling]:
    """Every tiling with 0 in both tiles, sorted by (A, B).

    Complete; exponentially many for composite M much beyond ~40, so prefer
    iter_tilings / sample_tilings for sweeps at that scale.
    """
    out = list(iter_tilings(ctx))
    out.sort(key=lambda t: (t.A.members, t.B.members))
    return out


def sample_tilings(ctx: ZmContext, cap: int) -> list[Tiling]:
    """Deterministic stratified prefix of the tilings with 0 in both tiles:
    round-robin over size splits up to cap.  Unlike iter_tilings it also
    searches (M/d, d) for d < M/d: the swaps of the first tilings of
    (d, M/d) are not the first tilings of (M/d, d), and these prefixes fix
    the output of `sweep --limit`."""
    streams = [_pair_dfs(ctx, d, ctx.M // d) for d in ctx.divisors]
    out: list[Tiling] = []
    while streams and len(out) < cap:
        still = []
        for stream in streams:
            nxt = next(stream, None)
            if nxt is None:
                continue
            out.append(nxt)
            still.append(stream)
            if len(out) >= cap:
                break
        streams = still
    return out


def tiling_to_json(t: Tiling) -> dict:
    return {"M": t.context.M, "A": list(t.A), "B": list(t.B)}


def tiling_from_json(obj: dict, check: bool = True) -> Tiling:
    """Parse {"M":…, "A":[…], "B":[…]}; check=False defers tiling-ness."""
    A, B = _tiles_from_json(obj, ("A", "B"))
    return Tiling(A, B, check=check)


def _tiles_from_json(obj: dict, names: Sequence[str]) -> list[TileSet]:
    """The tiles obj[name] of Z_obj["M"], one per name, strictly validated:
    M a positive integer, members distinct integers in [0, M)."""
    if not isinstance(obj, dict):
        raise InputError("tiling JSON must be an object")
    try:
        M = obj["M"]
    except KeyError:
        raise InputError("missing field M") from None
    if not isinstance(M, int) or isinstance(M, bool) or M < 1:
        raise InputError(f"M must be a positive integer, got {M!r}")
    ctx = factorize(M)
    tiles = []
    for name in names:
        if name not in obj:
            raise InputError(f"missing field {name}")
        raw = obj[name]
        if not isinstance(raw, list):
            raise InputError(f"{name} must be a list")
        seen = set()
        for idx, v in enumerate(raw):
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"{name}[{idx}] = {v!r} is not an integer")
            if not 0 <= v < M:
                raise InputError(f"{name}[{idx}] = {v} outside [0, {M})")
            if v in seen:
                raise InputError(f"{name}[{idx}] = {v} is a duplicate")
            seen.add(v)
        tiles.append(TileSet(ctx, raw))
    return tiles
