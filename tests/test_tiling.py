import collections
import functools
import itertools
import math
import random
import re

import pytest

import tilelab as tl
import tilelab.tiling
from tilelab.errors import (ContextMismatchError, InputError,
                             TheoremViolationError)
from tilelab.tiling import (_orbit_reach, _run_search, tiling_to_json,
                            tiling_from_json)
from tilelab.zm_core import ZmContext, _class_bits

from conftest import (corpus, digit_tilings, div_set, oracle_tilings,
                      perfbench_workloads, unchecked_pairs)


def T(M, A, B, check=True):
    ctx = tl.factorize(M)
    return tl.Tiling(tl.TileSet(ctx, A), tl.TileSet(ctx, B), check=check)


@functools.lru_cache(maxsize=None)
def gcd_class_masks(ctx):
    """divisor d -> bitmask of {v in [1, M) : (v, M) = d}, by math.gcd."""
    masks = dict.fromkeys(ctx.divisors, 0)
    for v in range(1, ctx.M):
        masks[math.gcd(v, ctx.M)] |= 1 << v
    return masks


def test_class_bits_match_the_gcd_classes():
    for M in range(1, 121):
        ctx = tl.factorize(M)
        cbit, masks = _class_bits(ctx)
        assert masks == tuple(gcd_class_masks(ctx).values())
        assert cbit == tuple(1 << ctx.divisors.index(math.gcd(v, M))
                             for v in range(M))


def literal_div(A):
    """Div(A) by the pair loop; gcd(0, M) = M puts M in exactly when A is
    nonempty."""
    gcd = A.context.gcd_table
    M = A.context.M
    return {gcd[(a - a2) % M] for a in A for a2 in A}


class TestVerifiers:
    def test_direct_examples(self):
        c4 = tl.factorize(4)
        assert tl.verify_direct(tl.TileSet(c4, [0, 1]), tl.TileSet(c4, [0, 2]))
        assert not tl.verify_direct(tl.TileSet(c4, [0, 2]), tl.TileSet(c4, [0, 2]))
        c9 = tl.factorize(9)
        assert tl.verify_direct(tl.TileSet(c9, [0, 1, 2]), tl.TileSet(c9, [0, 3, 6]))

    def test_direct_matches_literal_cover(self):
        """verify_direct against its definition: the sums a + b mod M are
        exactly 0..M-1, once each.  Digit tilings up to Z_65520 and each
        with one member of A moved off A (same sizes, an overlap or a new
        tiling); pairs that cover Z_M but are too large; an empty A."""
        pairs = [(t.A, t.B)
                 for t in unchecked_pairs(600, seed=12, moduli=(1, 120))]
        rng = random.Random(33)
        for M, count in ((720, 6), (5040, 4), (65520, 2)):
            ctx = tl.factorize(M)
            for t in digit_tilings(M, count, seed=M):
                gone = rng.choice(t.A.members)
                new = rng.choice([v for v in range(M) if v not in t.A])
                moved = tl.TileSet(ctx, {*t.A, new} - {gone})
                pairs += [(t.A, t.B), (t.B, t.A), (moved, t.B)]
            spare = next(v for v in range(M) if v not in t.B)
            pairs += [(tl.TileSet(ctx, range(M)), tl.TileSet(ctx, [0, 1])),
                      (t.A, tl.TileSet(ctx, [*t.B, spare])),
                      (tl.TileSet(ctx, []), t.B)]
        pairs.append((tl.TileSet(tl.factorize(1), []),
                      tl.TileSet(tl.factorize(1), [0])))
        verdicts = collections.Counter()
        for A, B in pairs:
            M = A.context.M
            sums = sorted((a + b) % M for a in A for b in B)
            literal = sums == list(range(M))
            assert tl.verify_direct(A, B) == literal, (A, B)
            verdicts[literal] += 1
        assert verdicts == {True: 260, False: 386}

    def test_div_set_examples(self):
        ctx = tl.factorize(12)
        assert div_set(tl.TileSet(ctx, [0, 1, 5])) == frozenset({1, 4, 12})
        assert div_set(tl.TileSet(ctx, [0, 4, 8])) == frozenset({4, 12})
        assert div_set(tl.TileSet(ctx, [0])) == frozenset({12})

    def test_div_set_matches_literal_pair_loop(self):
        tiles = [tile for t in oracle_tilings() for tile in (t.A, t.B)]
        tiles += [tile for t in unchecked_pairs(300, seed=10, moduli=(1, 60))
                  for tile in (t.A, t.B)]
        tiles += [tl.TileSet(tl.factorize(12), []),
                  tl.TileSet(tl.factorize(1), []),
                  tl.TileSet(tl.factorize(1), [0])]
        rng = random.Random(720)
        for M in (720, 5040, 65520):
            ctx = tl.factorize(M)
            tiles += [tl.TileSet(ctx, rng.sample(range(M), rng.randint(2, 60)))
                      for _ in range(20)]
        for A in tiles:
            held = A.div      # the search's bits, or None before a first read
            assert div_set(A) == literal_div(A), A
            assert held in (None, A.div) and A.div == tl.div_bits(A), A

    def test_sands_examples(self):
        ctx = tl.factorize(12)
        A, B = tl.TileSet(ctx, [0, 1, 6, 7]), tl.TileSet(ctx, [0, 4, 8])
        assert div_set(A) == frozenset({1, 6, 12})
        assert tl.verify_sands(A, B)
        c4 = tl.factorize(4)
        assert not tl.verify_sands(tl.TileSet(c4, [0, 2]), tl.TileSet(c4, [0, 2]))
        c9 = tl.factorize(9)
        assert tl.verify_sands(tl.TileSet(c9, [0, 1, 2]), tl.TileSet(c9, [0, 3, 6]))

    def test_cyclotomic_examples(self):
        c4 = tl.factorize(4)
        assert tl.verify_cyclotomic(tl.TileSet(c4, [0, 1]), tl.TileSet(c4, [0, 2]))
        ctx = tl.factorize(12)
        assert tl.verify_cyclotomic(tl.TileSet(ctx, [0, 1, 6, 7]),
                                    tl.TileSet(ctx, [0, 4, 8]))
        c9 = tl.factorize(9)
        assert not tl.verify_cyclotomic(tl.TileSet(c9, [0, 1, 2]),
                                        tl.TileSet(c9, [0, 1, 2]))

    @pytest.mark.parametrize("M", [4, 8, 9])
    def test_three_way_agreement_exhaustive(self, M):
        # all size-compatible pairs through 0; the acceptance suite scales this up
        ctx = tl.factorize(M)
        rest = list(range(1, M))
        for da in ctx.divisors:
            db = M // da
            for A in itertools.combinations(rest, da - 1):
                TA = tl.TileSet(ctx, (0,) + A)
                for B in itertools.combinations(rest, db - 1):
                    TB = tl.TileSet(ctx, (0,) + B)
                    d = tl.verify_direct(TA, TB)
                    assert tl.verify_sands(TA, TB) == d
                    assert tl.verify_cyclotomic(TA, TB) == d


class TestTiling:
    def test_rejects_non_tiling(self):
        with pytest.raises(InputError):
            T(4, [0, 2], [0, 2])

    @pytest.mark.parametrize("check", [True, False])
    def test_rejects_mixed_contexts(self, check):
        A = tl.TileSet(tl.factorize(4), [0, 1])
        B = tl.TileSet(tl.factorize(8), [0, 2])
        with pytest.raises(ContextMismatchError, match="4 and 8"):
            tl.Tiling(A, B, check=check)

    def test_decomp_round_trip(self):
        t = T(12, [0, 1, 6, 7], [0, 4, 8])
        a_of, b_of = t.decomp
        for z in range(12):
            assert (a_of[z] + b_of[z]) % 12 == z
            assert a_of[z] in t.A.members and b_of[z] in t.B.members

    def test_swapped(self):
        t = T(9, [0, 1, 2], [0, 3, 6])
        s = t.swapped()
        assert s.A.members == (0, 3, 6) and s.B.members == (0, 1, 2)


def brute_tilings(M):
    ctx = tl.factorize(M)
    rest = list(range(1, M))
    found = set()
    for da in ctx.divisors:
        db = M // da
        for A in itertools.combinations(rest, da - 1):
            TA = tl.TileSet(ctx, (0,) + A)
            for B in itertools.combinations(rest, db - 1):
                TB = tl.TileSet(ctx, (0,) + B)
                if tl.verify_direct(TA, TB):
                    found.add((TA.members, TB.members))
    return found


class TestEnumeration:
    def test_trivial_moduli(self):
        c1 = tl.factorize(1)
        assert [(t.A.members, t.B.members) for t in tl.enumerate_tilings(c1)] \
            == [((0,), (0,))]
        c5 = tl.factorize(5)
        assert [(t.A.members, t.B.members) for t in tl.enumerate_tilings(c5)] \
            == [((0,), (0, 1, 2, 3, 4)), ((0, 1, 2, 3, 4), (0,))]

    def test_m4_contents(self):
        got = {(t.A.members, t.B.members) for t in corpus(4)}
        assert ((0, 1), (0, 2)) in got
        assert ((0, 3), (0, 2)) in got
        assert len(got) == 6

    @pytest.mark.parametrize("M", [4, 6, 8, 9, 10, 12])
    def test_against_brute_force(self, M):
        got = {(t.A.members, t.B.members) for t in corpus(M)}
        assert got == brute_tilings(M)

    def test_known_census(self):
        assert len(corpus(12)) == 194
        assert len(corpus(16)) == 578

    def test_sorted_and_duplicate_free(self):
        keys = [(t.A.members, t.B.members) for t in corpus(12)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_sample_is_deterministic_subset(self):
        ctx = tl.factorize(12)
        s1 = tl.sample_tilings(ctx, 50)
        s2 = tl.sample_tilings(ctx, 50)
        assert [(t.A.members, t.B.members) for t in s1] \
            == [(t.A.members, t.B.members) for t in s2]
        assert len(s1) == 50
        full = {(t.A.members, t.B.members) for t in corpus(12)}
        assert all((t.A.members, t.B.members) in full for t in s1)


# The frozenset pair search the bit-class _pair_dfs replaced, kept unchanged as
# its oracle: difference classes as sets of divisors, leaf tiles built by the
# checked TileSet constructor.


def literal_rotate(ctx):
    """The cyclic shift of an M-bit mask by k: bit v -> bit (v + k) mod M."""
    M, full = ctx.M, ctx.full_mask

    def rotate(x, k):
        k %= M
        return ((x << k) | (x >> (M - k))) & full
    return rotate


def literal_pair_dfs(ctx, dA, dB):
    M = ctx.M
    full = ctx.full_mask
    rotate = literal_rotate(ctx)
    gcds = ctx.gcd_table
    class_masks = gcd_class_masks(ctx)
    A = [0]
    B = [0]

    def walk(state):
        (Amask, Bmask, covered, divA, divB, forbA, forbB,
         blockedA, blockedB, blockedB_refl) = state
        if covered == full:
            yield tl.Tiling(tl.TileSet(ctx, A), tl.TileSet(ctx, B), check=False)
            return
        z = (~covered & (covered + 1)).bit_length() - 1
        na, nb = len(A), len(B)
        if nb < dB:
            for a in A:
                b = (z - a) % M
                if not (blockedB >> b) & 1:
                    yield walk(place(state, None, b))
                    B.pop()
        if na < dA:
            for b in B:
                a = (z - b) % M
                if not (blockedA >> a) & 1:
                    yield walk(place(state, a, None))
                    A.pop()
        if na < dA and nb < dB:
            cand = full & ~blockedA & ~rotate(blockedB_refl, z)
            while cand:
                bit = cand & -cand
                a = bit.bit_length() - 1
                cand ^= bit
                b = (z - a) % M
                gA = frozenset(gcds[(a - w) % M] for w in A)
                gB = frozenset(gcds[(b - w) % M] for w in B)
                if gA & gB:
                    continue
                yield walk(place(state, a, b))
                A.pop()
                B.pop()

    def place(state, a, b):
        (Amask, Bmask, covered, divA, divB, forbA, forbB, blockedA,
         blockedB, blockedB_refl) = state
        if b is not None:
            newd = frozenset(gcds[(b - w) % M] for w in B) - divB
            B.append(b)
            Bmask |= 1 << b
            covered |= rotate(Amask, b)
            blockedB |= rotate(forbB, b) | (1 << b)
            blockedB_refl |= rotate(forbB, -b) | (1 << (-b % M))
            if newd:
                divB = divB | newd
                grow = 0
                for d in newd:
                    grow |= class_masks[d]
                if grow:
                    forbA |= grow
                    for w in A:
                        blockedA |= rotate(grow, w)
        if a is not None:
            newd = frozenset(gcds[(a - w) % M] for w in A) - divA
            A.append(a)
            Amask |= 1 << a
            covered |= rotate(Bmask, a)
            blockedA |= rotate(forbA, a) | (1 << a)
            if newd:
                divA = divA | newd
                grow = 0
                for d in newd:
                    grow |= class_masks[d]
                if grow:
                    forbB |= grow
                    for w in B:
                        blockedB |= rotate(grow, w)
                        blockedB_refl |= rotate(grow, -w)
        return (Amask, Bmask, covered, divA, divB, forbA, forbB,
                blockedA, blockedB, blockedB_refl)

    yield from _run_search(walk((1, 1, 1, frozenset(), frozenset(),
                                 0, 0, 1, 1, 1)))


def assert_immutable(obj):
    for name in obj.__slots__:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def assert_checked_tile(tile):
    """tile agrees with the checked constructor on its own members, in the
    one shared context of its modulus, and cannot be changed."""
    assert tile.context is tl.factorize(tile.context.M), tile
    want = tl.TileSet(tile.context, list(tile.members))
    assert tile.mask == want.mask and tile.members == want.members, tile
    assert hash(tile) == hash(want) and tile == want, tile
    assert_immutable(tile)


def assert_checked_tiling(t):
    """t, built unchecked by a search, is the object the checked
    constructor builds: same context, tiles, equality and hash; immutable;
    its decomposition builds; swapping twice gives it back."""
    assert t.context is tl.factorize(t.context.M), t
    assert t.A.context is t.context and t.B.context is t.context, t
    want = tl.Tiling(t.A, t.B, check=True)
    assert t == want and hash(t) == hash(want), t
    assert_immutable(t)
    a_of, b_of = t.decomp
    assert len(a_of) == len(b_of) == t.context.M, t
    back = t.swapped().swapped()
    assert back == t and hash(back) == hash(t), t
    assert_checked_tile(t.A)
    assert_checked_tile(t.B)


def assert_same_tilings(got, want):
    """Two tiling streams agree item by item: order, members and masks,
    and each tiling got is a whole, checked Tiling whose tiles the search
    handed the Div bits of the literal pair loop."""
    count = 0
    for g, w in itertools.zip_longest(got, want):
        assert g is not None and w is not None, count
        for tile in (g.A, g.B):
            assert tile.div is not None, (count, tile)
            assert div_set(tile) == literal_div(tile), (count, tile)
        assert (g.A.members, g.B.members) == (w.A.members, w.B.members), count
        assert (g.A.mask, g.B.mask) == (w.A.mask, w.B.mask), count
        assert_checked_tiling(g)
        count += 1
    return count


class TestPairDfsOracle:
    def test_complete_corpora_match_literal_dfs(self):
        total = 0
        for M in range(1, 31):
            ctx = tl.factorize(M)
            for d in ctx.divisors:
                total += assert_same_tilings(
                    tilelab.tiling._pair_dfs(ctx, d, M // d),
                    literal_pair_dfs(ctx, d, M // d))
        assert total == sum(len(corpus(M)) for M in range(1, 31))

    @pytest.mark.parametrize("M, cap", [(60, 3000), (900, 400)])
    def test_sample_prefixes_match_literal_dfs(self, M, cap, monkeypatch):
        ctx = tl.factorize(M)
        got = tl.sample_tilings(ctx, cap)
        monkeypatch.setattr(tilelab.tiling, "_pair_dfs", literal_pair_dfs)
        want = tl.sample_tilings(ctx, cap)
        assert len(got) == cap
        assert assert_same_tilings(got, want) == cap

    def test_stream_is_every_split_once(self):
        """iter_tilings searches only the splits |A| <= |B| and yields each
        tiling of a non-square split with its swap: as a multiset it is
        still every split's search, each tiling once, and every tile it
        yields carries the Div bits of the literal pair loop.  M = 1..32
        covers the squares 4, 9, 16 and 25."""
        for M in range(1, 33):
            ctx = tl.factorize(M)
            want = collections.Counter(
                (t.A.mask, t.B.mask) for d in ctx.divisors
                for t in tilelab.tiling._pair_dfs(ctx, d, M // d))
            got = collections.Counter()
            div_of = {}
            for t in tl.iter_tilings(ctx):
                got[t.A.mask, t.B.mask] += 1
                for tile in (t.A, t.B):
                    if tile.mask not in div_of:
                        div_of[tile.mask] = sum(
                            1 << ctx.divisors.index(d)
                            for d in literal_div(tile))
                    assert tile.div == div_of[tile.mask], (M, tile)
            assert got == want, M
            assert set(got.values()) == {1}, M


class TestDivBits:
    def test_orbit_check_reads_the_bits_the_search_handed_over(
            self, monkeypatch):
        def refuse(ctx, mask, shifts):
            raise AssertionError(f"translates called on mask {mask:#x}")

        tilings = corpus(24)
        monkeypatch.setattr(ZmContext, "translates", refuse)
        for t in tilings:
            for tt in (t, t.swapped()):
                assert tl.tijdeman_orbit_check(tt)
        assert len(tilings) == 13250

    def test_search_tiles_keep_their_identity(self):
        ctx = tl.factorize(24)
        for t in itertools.islice(tl.iter_tilings(ctx), 0, None, 97):
            for tile in (t.A, t.B):
                fresh = tl.TileSet(ctx, tile.members)
                assert fresh.div is None and tile.div is not None
                assert tile == fresh and hash(tile) == hash(fresh)
                assert tl.div_bits(fresh) == tile.div


class TestComplements:
    def test_examples(self):
        c4 = tl.factorize(4)
        assert [B.members for B in tl.find_complements(tl.TileSet(c4, [0, 1]))] \
            == [(0, 2)]
        c9 = tl.factorize(9)
        assert [B.members for B in tl.find_complements(tl.TileSet(c9, [0, 1, 2]))] \
            == [(0, 3, 6)]
        assert tl.find_complements(tl.TileSet(c4, [0, 1, 2])) == []

    def test_unnormalized(self):
        c4 = tl.factorize(4)
        got = [B.members for B in
               tl.iter_complements(tl.TileSet(c4, [0, 1]), normalize=False)]
        assert got == [(0, 2), (1, 3)]

    def test_limit_stops_stream(self):
        ctx = tl.factorize(12)
        A = tl.TileSet(ctx, [0, 6])
        all_b = tl.find_complements(A)
        capped = tl.find_complements(A, limit=2)
        assert len(all_b) > 2
        assert capped == all_b[:2]

    def test_limit_zero_and_negative(self):
        A = tl.TileSet(tl.factorize(12), [0, 6])
        assert tl.find_complements(A, limit=0) == []
        assert list(tl.iter_complements(A, limit=0)) == []
        with pytest.raises(InputError, match="limit"):
            tl.find_complements(A, limit=-1)

    def test_every_result_tiles(self):
        ctx = tl.factorize(12)
        A = tl.TileSet(ctx, [0, 1, 6, 7])
        for B in tl.iter_complements(A):
            assert tl.verify_direct(A, B)


# The complement search before its leaves were built from the mask it
# carries, kept unchanged (without the limit) as the oracle.


def literal_complements(A, normalize):
    ctx = A.context
    M = ctx.M
    k = len(A)
    if k == 0 or M % k:
        return
    target = M // k
    class_masks = gcd_class_masks(ctx)
    forb = 0
    for d in div_set(A) - {M}:
        forb |= class_masks[d]
    Amask = A.mask
    full = ctx.full_mask
    rotate = literal_rotate(ctx)
    members = A.members
    B = []

    def walk(covered, blocked):
        if covered == full:
            yield tl.TileSet(ctx, B)
            return
        if len(B) == target:
            return
        z = (~covered & (covered + 1)).bit_length() - 1
        for a in members:
            b = (z - a) % M
            if (blocked >> b) & 1:
                continue
            B.append(b)
            yield walk(covered | rotate(Amask, b),
                       blocked | rotate(forb, b) | (1 << b))
            B.pop()

    if normalize:
        B.append(0)
        root = walk(Amask, forb | 1)
    else:
        root = walk(0, 0)
    yield from _run_search(root)


def request_pool_tiles():
    """The A tiles of the benchmark's complement requests (perfbench's
    pinned pool at Z_72, Z_84, Z_120)."""
    workloads = perfbench_workloads()
    pool = workloads.request_pool()
    return [tl.TileSet(tl.factorize(M), t["A"])
            for M in workloads.COMPLEMENT_MODULI for t in pool[M]]


class TestComplementsOracle:
    def assert_same_complements(self, A, normalize, limit):
        got = list(tl.iter_complements(A, normalize=normalize, limit=limit))
        want = list(itertools.islice(literal_complements(A, normalize), limit))
        assert [B.members for B in got] == [B.members for B in want], A
        assert [B.mask for B in got] == [B.mask for B in want], A
        for B in got:
            assert_checked_tile(B)
        return len(got)

    def test_every_corpus_tile_matches_literal_search(self):
        tiles = {}
        for M in range(1, 25):
            for t in corpus(M):
                tiles[t.A] = tiles[t.B] = None
        found = {True: 0, False: 0}
        for A in tiles:
            for normalize in (True, False):
                found[normalize] += self.assert_same_complements(
                    A, normalize, None)
        assert len(tiles) == 9729
        assert found == {True: 21329, False: 120475}

    def test_request_pool_tiles_match_literal_search(self):
        tiles = request_pool_tiles()
        assert len(tiles) == 39
        found = sum(self.assert_same_complements(A, normalize, 4)
                    for A in tiles for normalize in (True, False))
        assert found == 257


def two_prime_sizes(M):
    """The sizes 1 < k < M, k | M, with at most two distinct primes."""
    return [k for k in tl.factorize(M).divisors[1:-1]
            if len(tl.prime_factorization(k)) <= 2]


def coven_meyerowitz_sample():
    """Subsets A of Z_M with 0 in A and |A| in two_prime_sizes(M): every one
    for 2 <= M <= 16, in combinations order, then 1,500 seeded draws at
    Z_24 and then at Z_36."""
    for M in range(2, 17):
        ctx = tl.factorize(M)
        for k in two_prime_sizes(M):
            for rest in itertools.combinations(range(1, M), k - 1):
                yield tl.TileSet(ctx, (0,) + rest)
    rng = random.Random(19)
    for M in (24, 36):
        ctx, sizes = tl.factorize(M), two_prime_sizes(M)
        for _ in range(1500):
            k = rng.choice(sizes)
            yield tl.TileSet(ctx, [0] + rng.sample(range(1, M), k - 1))


class TestCovenMeyerowitz:
    """A has a complement in Z_M exactly when (T1) and (T2) hold, for |A|
    with at most two distinct prime factors.  Coven and Meyerowitz, "Tiling
    the integers with translates of one finite set", J. Algebra 212 (1999):
    by Theorem A, (T1) and (T2) give a complement of period lcm(S_A), which
    divides M; by Theorem B1 a tile satisfies (T1), and by Theorem B2 it
    satisfies (T2) when |A| has at most two prime factors.  This checks the
    complement search's "no" answers, and (T1) and (T2) on sets that do not
    tile."""

    def test_complement_exists_iff_t1_and_t2(self):
        counts = collections.Counter()
        for A in coven_meyerowitz_sample():
            t1, t2 = tl.check_T1(A), tl.check_T2(A)
            tiles = bool(tl.find_complements(A, limit=1))
            assert tiles == (t1 and t2), A
            part = "exhaustive" if A.context.M <= 16 else "seeded"
            counts[part, "sets"] += 1
            counts[part, "tiles"] += tiles
            counts[part, "t1 not t2"] += t1 and not t2
        assert counts == {
            ("exhaustive", "sets"): 10642, ("exhaustive", "tiles"): 573,
            ("exhaustive", "t1 not t2"): 24,
            ("seeded", "sets"): 3000, ("seeded", "tiles"): 565,
            ("seeded", "t1 not t2"): 14}


class TestDilation:
    def test_dilate_examples(self):
        c4 = tl.factorize(4)
        rA = tl.TileSet(c4, [0, 1]).dilate(3)
        assert rA.members == (0, 3)
        assert tl.verify_direct(rA, tl.TileSet(c4, [0, 2]))
        c9 = tl.factorize(9)
        rA = tl.TileSet(c9, [0, 1, 2]).dilate(2)
        assert rA.members == (0, 2, 4)
        assert tl.verify_direct(rA, tl.TileSet(c9, [0, 3, 6]))

    def test_dilate_identity(self):
        ctx = tl.factorize(12)
        A = tl.TileSet(ctx, [0, 1, 6, 7])
        assert A.dilate(1).members == A.members

    def test_orbit_check_worked(self):
        assert tl.tijdeman_orbit_check(T(4, [0, 1], [0, 2]))
        assert tl.tijdeman_orbit_check(T(9, [0, 1, 2], [0, 3, 6]))

    def test_orbit_check_corpus(self):
        for t in corpus(12):
            assert tl.tijdeman_orbit_check(t)


# The literal orbit check, kept as the oracle for the library's divisor-class
# form: dilate A by every admissible r and check the collapse and the cover.


def literal_orbit_check(t):
    k = len(t.A)
    for r in range(1, t.context.M):
        if math.gcd(r, k) != 1:
            continue
        rA = t.A.dilate(r)
        if len(rA) != k:
            raise TheoremViolationError(
                f"dilation r={r} collapsed A={t.A.members} to {rA.members}")
        if not tl.verify_direct(rA, t.B):
            raise TheoremViolationError(
                f"dilation r={r} broke the tiling: rA={rA.members}")
    return True


def orbit_outcome(check, t):
    """The return value, or the message of the TheoremViolationError."""
    try:
        return check(t)
    except TheoremViolationError as exc:
        return f"raised: {exc}"


class TestOrbitOracle:
    def test_corpora_match_literal_loop(self):
        for t in oracle_tilings():
            for tt in (t, t.swapped()):
                assert tl.tijdeman_orbit_check(tt) is True
                assert literal_orbit_check(tt) is True, tt

    def test_unchecked_pairs_match_literal_loop(self):
        raised = unequal_sizes = sized_raised = sized_collapsing = 0
        for t in unchecked_pairs(1500, seed=4, moduli=(12, 72)):
            want = orbit_outcome(literal_orbit_check, t)
            assert orbit_outcome(tl.tijdeman_orbit_check, t) == want, t
            raised += want is not True
            if len(t.A) * len(t.B) != t.context.M:
                unequal_sizes += 1
                continue
            # pairs the reach table decides: a rejection and a collapse
            # bit must both reach the oracle comparison above
            sized_raised += want is not True
            k = len(t.A)
            sized_collapsing += any(
                len(t.A.dilate(r)) < k for r in range(1, t.context.M)
                if math.gcd(r, k) == 1)
        assert raised > 900 and unequal_sizes > 400
        assert sized_raised > 0 and sized_collapsing > 0

    def test_degenerate_tiles_match_literal_loop(self):
        ctx = tl.factorize(12)
        empty, zero = tl.TileSet(ctx, []), tl.TileSet(ctx, [0])
        full = tl.TileSet(ctx, range(12))
        for A, B in ((empty, full), (full, empty), (empty, empty),
                     (zero, zero), (full, full), (zero, full)):
            t = tl.Tiling(A, B, check=False)
            assert (orbit_outcome(tl.tijdeman_orbit_check, t)
                    == orbit_outcome(literal_orbit_check, t))

    def test_dilated_divisor_identity(self):
        def dilate_div(D, r, M):
            """{(r x, M) : (x, M) in D}, as (x, M) = d gives
            (r x, M) = d (r, M/d)."""
            return {d * math.gcd(r, M // d) for d in D}

        tiles = {}
        for t in oracle_tilings():
            tiles[t.A] = tiles[t.B] = None
        for A in tiles:
            M = A.context.M
            D = div_set(A)
            for r in range(1, M):
                rA = A.dilate(r)
                if len(rA) == len(A):
                    assert dilate_div(D, r, M) == div_set(rA), (A, r)
                else:
                    assert M in dilate_div(D - {M}, r, M), (A, r)

    def test_real_tilings_never_fall_back(self, monkeypatch):
        calls = []
        real = tilelab.tiling.verify_direct

        def counting(A, B):
            calls.append((A, B))
            return real(A, B)

        monkeypatch.setattr(tilelab.tiling, "verify_direct", counting)
        for M in (20, 24, 27):   # the corpora of perfbench's orbit workload
            for t in corpus(M):
                for tt in (t, t.swapped()):
                    assert tl.tijdeman_orbit_check(tt)
        assert calls == []
        with pytest.raises(TheoremViolationError):
            tl.tijdeman_orbit_check(T(4, [0, 2], [0, 2], check=False))
        assert len(calls) == 1


def test_orbit_reach_matches_literal_dilations():
    """Bit j of entry i: (r d_i, M) = d_j for some r in [1, M) coprime to
    k; and each entry holds divisor-index bits only."""
    for M in range(1, 73):
        ctx = tl.factorize(M)
        index = {d: i for i, d in enumerate(ctx.divisors)}
        for k in ctx.divisors:
            units = [r for r in range(1, M) if math.gcd(r, k) == 1]
            want = tuple(
                functools.reduce(int.__or__, (1 << index[math.gcd(r * d, M)]
                                              for r in units), 0)
                for d in ctx.divisors)
            reach = _orbit_reach(ctx, k)
            assert reach == want, (M, k)
            assert all(entry < 1 << len(ctx.divisors) for entry in reach)


class TestDilationStabilizer:
    def test_examples(self):
        ctx = tl.factorize(12)
        assert tl.dilation_stabilizer(ctx, 2, 10) == (5, 11)
        assert tl.dilation_stabilizer(ctx, 1, 1) == (1,)
        c9 = tl.factorize(9)
        assert tl.dilation_stabilizer(c9, 3, 6) == (2, 5, 8)

    def test_mismatched_gcds_rejected(self):
        ctx = tl.factorize(12)
        with pytest.raises(InputError):
            tl.dilation_stabilizer(ctx, 2, 3)

    def test_out_of_range_rejected(self):
        ctx = tl.factorize(12)
        for x, xp in ((12, 0), (0, 12), (-1, 11), (11, -1), (1, 25)):
            with pytest.raises(InputError, match="outside"):
                tl.dilation_stabilizer(ctx, x, xp)

    @pytest.mark.parametrize("M", [12, 36])
    def test_cardinality_and_lattice_form(self, M):
        ctx = tl.factorize(M)
        units = [r for r in range(1, M) if math.gcd(r, M) == 1]
        for x in range(M):
            m = math.gcd(x, M)
            for xp in range(M):
                if math.gcd(xp, M) != m:
                    continue
                stab = tl.dilation_stabilizer(ctx, x, xp)
                if not stab:
                    continue
                assert len(stab) == ctx.phi_table[M] // tl.euler_phi(M // m)
                r0 = stab[0]
                lattice = {r for r in units if (r - r0) % (M // m) == 0}
                assert set(stab) == lattice

    def test_matches_unit_scan(self):
        """The closed form against the literal scan over the units, on every
        valid (x, x') of Z_1..Z_60."""
        pairs = 0
        for M in range(1, 61):
            ctx = tl.factorize(M)
            for x in range(M):
                for xp in range(M):
                    if ctx.gcd_table[x] != ctx.gcd_table[xp]:
                        continue
                    scan = tuple(r for r in range(M) if ctx.gcd_table[r] == 1
                                 and r * x % M == xp)
                    assert tl.dilation_stabilizer(ctx, x, xp) == scan, (M, x, xp)
                    pairs += 1
        assert pairs == sum(tl.euler_phi(d) ** 2 for M in range(1, 61)
                            for d in tl.factorize(M).divisors)


class TestJson:
    def test_round_trip(self):
        t = T(12, [0, 1, 6, 7], [0, 4, 8])
        obj = tiling_to_json(t)
        assert obj == {"M": 12, "A": [0, 1, 6, 7], "B": [0, 4, 8]}
        back = tiling_from_json(obj)
        assert back.A.members == t.A.members and back.B.members == t.B.members

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            tiling_from_json({"M": 12, "A": [0, 1]})
        with pytest.raises(InputError):
            tiling_from_json({"M": 12, "A": [0, 1], "B": [0, 12]})
        # the first fault in input order, and A before B
        for A, B, message in (
                ([0, 3, 3, True], [0], "A[2] = 3 is a duplicate"),
                ([0, True, 12], [0, 0], "A[1] = True is not an integer"),
                ([0, 12, 3, 3], [0, 0], "A[1] = 12 outside [0, 12)"),
                ([0, 1.0], [0, 12], "A[1] = 1.0 is not an integer"),
                ([0, 1], [0, 0], "B[1] = 0 is a duplicate"),
                ([0, -1], [0, 0], "A[1] = -1 outside [0, 12)")):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                tiling_from_json({"M": 12, "A": A, "B": B})

    def test_non_tiling_rejected_unless_unchecked(self):
        obj = {"M": 4, "A": [0, 2], "B": [0, 2]}
        with pytest.raises(InputError):
            tiling_from_json(obj)
        t = tiling_from_json(obj, check=False)
        assert not tl.verify_direct(t.A, t.B)
