import math
import random
import timeit

import pytest
from hypothesis import given, strategies as st

import tilelab as tl
from tilelab.errors import InputError
from tilelab.zm_core import MAX_M, _mask_members

from conftest import crt_value, literal_full_fibers


def coords_of(ctx, x):
    return tuple(t[x] for t in ctx.coord_tables)


def brute_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestFactorize:
    def test_144(self):
        ctx = tl.factorize(144)
        assert ctx.primes == ((2, 4), (3, 2))
        assert ctx.phi_table[144] == 48

    def test_900(self):
        assert tl.factorize(900).primes == ((2, 2), (3, 2), (5, 2))

    def test_one(self):
        ctx = tl.factorize(1)
        assert ctx.primes == ()
        assert ctx.divisors == (1,)

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            tl.factorize(0)

    def test_above_max_m_rejected(self):
        with pytest.raises(InputError, match="MAX_M"):
            tl.factorize(MAX_M + 1)
        assert tl.factorize(MAX_M).primes == ((2, 16),)

    @pytest.mark.parametrize("M", [1, 2, 12, 36, 60, 144, 900])
    def test_phi_table_against_brute_force(self, M):
        ctx = tl.factorize(M)
        for d in ctx.divisors:
            assert ctx.phi_table[d] == brute_phi(d)
        assert sum(ctx.phi_table[d] for d in ctx.divisors) == M

    @pytest.mark.parametrize("M", [12, 60, 144])
    def test_crt_basis_coprime(self, M):
        """M_j = M/p_j^{n_j} is prime to p_j, and its coordinates are the
        unit vector e_j."""
        ctx = tl.factorize(M)
        for j, (p, n) in enumerate(ctx.primes):
            Mj = M // p**n
            assert math.gcd(Mj, p) == 1
            assert coords_of(ctx, Mj) == tuple(
                int(i == j) for i in range(len(ctx.primes)))


def test_radical_quotient():
    assert tl.radical_quotient(12) == 2
    assert tl.radical_quotient(900) == 30
    for p in (2, 3, 5, 7, 11):
        assert tl.radical_quotient(p) == 1


def test_euler_phi_matches_brute_force():
    for n in range(1, 80):
        assert tl.euler_phi(n) == brute_phi(n)


class TestCoords:
    def test_worked_values(self):
        ctx = tl.factorize(12)
        assert coords_of(ctx, 7) == (1, 1)
        assert coords_of(ctx, 0) == (0, 0)
        assert crt_value(ctx, (0, 0)) == 0
        assert coords_of(tl.factorize(9), 5) == (5,)

    def test_projection_table_direction_zero(self):
        # first coordinate is the pi_0 projection: value mod 4 times 3^{-1} mod 4
        ctx = tl.factorize(12)
        seen = {x: ctx.coord_tables[0][x] for x in (0, 1, 6, 7)}
        assert seen == {0: 0, 1: 3, 6: 2, 7: 1}

    @pytest.mark.parametrize("M", [2, 9, 12, 36, 60])
    def test_round_trip_bijection(self, M):
        ctx = tl.factorize(M)
        images = set()
        for x in range(M):
            coords = coords_of(ctx, x)
            assert all(0 <= c < p**n for c, (p, n) in zip(coords, ctx.primes))
            assert crt_value(ctx, coords) == x
            images.add(coords)
        assert len(images) == M

    @given(st.sampled_from([4, 6, 9, 12, 16, 36, 60, 144, 900, 27900, 65520]),
           st.data())
    def test_round_trip_property(self, M, data):
        ctx = tl.factorize(M)
        x = data.draw(st.integers(min_value=0, max_value=M - 1))
        assert crt_value(ctx, coords_of(ctx, x)) == x


class TestGeometry:
    def test_plane_is_coordinate_congruence(self):
        """p^alpha | y - x exactly when the direction coordinates of x and y
        agree mod p^alpha: the identity every plane test in splitting and
        reduction reads off the coordinate tables."""
        for M in (12, 36, 72):
            ctx = tl.factorize(M)
            coords = [coords_of(ctx, x) for x in range(M)]
            for nu, (p, n) in enumerate(ctx.primes):
                for alpha in range(n + 1):
                    q = p ** alpha
                    for x in range(M):
                        for y in range(M):
                            assert (((y - x) % q == 0)
                                    == ((coords[y][nu] - coords[x][nu]) % q
                                        == 0))


def literal_translates(ctx, members, shifts):
    """The union of the translates members + s on sets, as a mask."""
    return sum(1 << v for v in {(a + s) % ctx.M
                                for a in members for s in shifts})


def literal_fiber_union(ctx, members, direction):
    """The union of the direction fibers of the members, as a mask."""
    p = ctx.primes[direction][0]
    return literal_translates(ctx, members,
                              [k * ctx.M // p for k in range(p)])


class TestMaskGeometry:
    """translates, fiber_union and full_fibers against set oracles: no bit
    that a shift carries past M survives, at either end of [0, M]."""

    def assert_geometry(self, ctx, mask, shifts):
        T = tl.TileSet.from_mask(ctx, mask)
        assert (ctx.translates(mask, shifts)
                == literal_translates(ctx, T.members, shifts)), (
            ctx.M, mask, shifts)
        for d in range(len(ctx.primes)):
            assert (ctx.fiber_union(mask, d)
                    == literal_fiber_union(ctx, T.members, d)), (ctx.M, mask, d)
            assert ctx.full_fibers(mask, d) == literal_full_fibers(T, d), (
                ctx.M, mask, d)

    def test_random_masks(self):
        rng = random.Random(7)
        for M in range(1, 61):
            ctx = tl.factorize(M)
            for _ in range(20):
                mask = rng.getrandbits(M)
                shifts = rng.sample(range(M + 1), rng.randint(0, M + 1))
                self.assert_geometry(ctx, mask, shifts)

    def test_shift_ends_and_extreme_masks(self):
        """Shifts 0 and M are the identity; the empty and full masks are
        fixed by every translate and every fiber operation."""
        rng = random.Random(8)
        for M in range(1, 61):
            ctx = tl.factorize(M)
            mask = rng.getrandbits(M)
            assert ctx.translates(mask, [0]) == mask
            assert ctx.translates(mask, [M]) == mask
            assert ctx.translates(mask, []) == 0
            for m in (0, ctx.full_mask):
                self.assert_geometry(ctx, m, [0, M] + rng.sample(range(M), 1))
                assert ctx.translates(m, range(M + 1)) == m
                for d in range(len(ctx.primes)):
                    assert ctx.fiber_union(m, d) == ctx.full_fibers(m, d) == m

    def test_sparse_masks_at_a_large_modulus(self):
        """M = 65520 = 2^4 3^2 5 7 13: sparse masks, some holding whole
        fibers, for every direction."""
        ctx = tl.factorize(65520)
        M = ctx.M
        rng = random.Random(9)
        for direction in range(len(ctx.primes)):
            p = ctx.primes[direction][0]
            for _ in range(3):
                points = rng.sample(range(M), 12)
                mask = sum(1 << v for v in points)
                for v in points[:3]:
                    mask |= sum(1 << ((v + k * M // p) % M) for k in range(p))
                shifts = [0, M] + rng.sample(range(M), 5)
                self.assert_geometry(ctx, mask, shifts)
                assert ctx.full_fibers(mask, direction)


class TestTileSet:
    def test_mask_matches_members(self):
        ctx = tl.factorize(12)
        A = tl.TileSet(ctx, [7, 0, 1, 6])
        assert A.members == (0, 1, 6, 7)
        assert A.mask == (1 << 0) | (1 << 1) | (1 << 6) | (1 << 7)
        assert len(A) == 4

    def test_members_validated(self):
        ctx = tl.factorize(12)
        with pytest.raises(InputError):
            tl.TileSet(ctx, [0, 12])

    def assert_literal(self, ctx, items):
        """TileSet(ctx, items) against literal_tileset: mask and members,
        or the InputError message.  items is a list, passed as it is and
        as a generator."""
        try:
            want = literal_tileset(ctx, iter(items))
        except InputError as exc:
            for given in (items, iter(items)):
                with pytest.raises(InputError) as got:
                    tl.TileSet(ctx, given)
                assert str(got.value) == str(exc), items
            return
        for given in (items, iter(items)):
            T = tl.TileSet(ctx, given)
            assert (T.mask, T.members) == want, items
            assert type(T.members) is tuple
            assert all(type(v) is int for v in T.members), items

    def test_matches_the_literal_constructor(self):
        """Duplicates, any order, bools and out-of-range residues, at
        every position, on small and large moduli."""
        rng = random.Random(29)
        for M in (1, 2, 3, 12, 24, 30, 360, 720, 4099):
            ctx = tl.factorize(M)
            for _ in range(60):
                items = [rng.randrange(M) for _ in range(rng.randint(0, 12))]
                items += rng.sample(items, min(len(items), rng.randint(0, 3)))
                if rng.random() < 0.3:
                    items += [True, False][:rng.randint(1, 2)]
                if rng.random() < 0.3:
                    bad = rng.choice([-1, -M, M, M + 1, 2 * M, -(2**70), 2**70])
                    items.insert(rng.randint(0, len(items)), bad)
                    if rng.random() < 0.5:   # a second one, later or earlier
                        items.insert(rng.randint(0, len(items)), -1 - bad)
                rng.shuffle(items)
                self.assert_literal(ctx, items)
            self.assert_literal(ctx, [])
            self.assert_literal(ctx, [M - 1, 0, M - 1])
            self.assert_literal(ctx, [M, -1])
            self.assert_literal(ctx, [-1, M])
        self.assert_literal(tl.factorize(1), [True])

    def test_dense_tiles_match_the_literal_constructor(self):
        ctx = tl.factorize(MAX_M)
        rng = random.Random(65536)
        self.assert_literal(ctx, list(range(0, MAX_M, 2)))
        dense = [v for v in range(MAX_M) if rng.random() < 0.9]
        rng.shuffle(dense)
        self.assert_literal(ctx, dense + dense[:100])
        self.assert_literal(ctx, dense + [MAX_M])


def literal_tileset(ctx, members) -> tuple[int, tuple[int, ...]]:
    """(mask, members) of TileSet(ctx, members) as its constructor built
    them before it sorted the members: a range check and a mask bit per
    item in input order, then the members read off the mask."""
    seen = 0
    for v in members:
        if not 0 <= v < ctx.M:
            raise InputError(f"residue {v} outside [0, {ctx.M})")
        seen |= 1 << v
    return seen, _mask_members(seen)


def shift_loop_members(mask):
    """The set bits of mask, one shift per bit."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


class TestMaskMembers:
    def test_matches_shift_loop(self):
        rng = random.Random(5)
        masks = []
        for M in (1, 2, 3, 30, 64, 65, 720, 4099):
            full = (1 << M) - 1
            masks += [0, full, 1 << (M - 1), 1]
            for density in (0.02, 0.5, 0.98):
                masks += [sum(1 << v for v in range(M) if rng.random() < density)
                          for _ in range(5)]
        for mask in masks:
            assert _mask_members(mask) == shift_loop_members(mask), hex(mask)

    def test_dense_tile_is_linear(self):
        """A dense tile of the largest modulus: the members are read off
        the mask in O(M), not with one whole-mask shift per member, and
        the constructor sorts them without a bit walk."""
        ctx = tl.factorize(MAX_M)
        members = range(0, MAX_M, 2)
        mask = tl.TileSet(ctx, members).mask
        for build in (lambda: tl.TileSet(ctx, members),
                      lambda: tl.TileSet.from_mask(ctx, mask)):
            best = min(timeit.repeat(build, number=1, repeat=3))
            assert build().members == tuple(members)
            assert best < 0.1, best
