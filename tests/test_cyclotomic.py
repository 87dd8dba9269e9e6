import itertools
import math
import random
from functools import lru_cache

import pytest
import sympy

import tilelab as tl
from tilelab.cyclotomic import (phi_at_one, divides_mask, cyclo_profile,
                                check_T1, check_T2)
from tilelab.errors import InputError

from conftest import corpus


@lru_cache(maxsize=None)
def sympy_cyclo_coeffs(s):
    """Phi_s from sympy, constant term first."""
    x = sympy.Symbol("x")
    return tuple(int(c) for c in reversed(
        sympy.Poly(sympy.cyclotomic_poly(s, x), x).all_coeffs()))


def division_divides(members, s):
    """Oracle: exact long division of A(X) = sum X^a by sympy's Phi_s."""
    phi = sympy_cyclo_coeffs(s)
    d = len(phi) - 1
    lower = [(j, c) for j, c in enumerate(phi[:-1]) if c]   # Phi_s is monic
    rem = [0] * (max(members) + 1)
    for a in members:
        rem[a] = 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c:
            rem[top] = 0
            for j, pc in lower:
                rem[top - d + j] -= c * pc
    return not any(rem)


def division_profile(A):
    return frozenset(s for s in A.context.divisors
                     if s > 1 and division_divides(A.members, s))


def cuboid_vanishes(members, s):
    """Oracle: fold A mod s into a count list, apply 1 - X^{s/p} for every
    prime p | s cyclically, one list per operator, and test for zero."""
    counts = [0] * s
    for a in members:
        counts[a % s] += 1
    for p, _ in tl.prime_factorization(s):
        step = s // p
        # (1 - X^step) * counts: entry x loses entry x - step, cyclically
        counts = [c - d for c, d in zip(counts, counts[-step:] + counts[:-step])]
    return not any(counts)


def cuboid_profile(A):
    return frozenset(s for s in A.context.divisors
                     if s > 1 and cuboid_vanishes(A.members, s))


def fibered_set(ctx, rng):
    """A random disjoint union of fibers {x + k*M/p}: Phi_M divides its mask."""
    M = ctx.M
    taken = set()
    for _ in range(rng.randint(1, 4)):
        p, _ = rng.choice(ctx.primes)
        x = rng.randrange(M)
        fib = {(x + k * M // p) % M for k in range(p)}
        if not fib & taken:
            taken |= fib
    return taken


def sample_sets(M, count, seed):
    """Seeded subsets of Z_M: random ones, plus fiber unions when M > 1."""
    ctx = tl.factorize(M)
    rng = random.Random(seed)
    out = [{rng.randrange(M) for _ in range(rng.randint(1, M))}
           for _ in range(count)]
    if M > 1:
        out += [fibered_set(ctx, rng) for _ in range(count)]
    return [tl.TileSet(ctx, sorted(members)) for members in out]


class TestCyclotomicPoly:
    """Phi_s by index: sympy's coefficients as the oracle's input, and the
    cuboid kernel against exact division by them."""

    def test_worked_coefficients(self):
        assert sympy_cyclo_coeffs(6) == (1, -1, 1)
        assert sympy_cyclo_coeffs(2) == (1, 1)
        assert sympy_cyclo_coeffs(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("s", list(range(1, 80)) + [105, 144, 255, 400])
    def test_against_sympy(self, s):
        for A in sample_sets(s, 12 if s < 100 else 4, seed=s):
            assert cyclo_profile(A).divisors_of_mask == division_profile(A)

    @pytest.mark.parametrize("n", list(range(1, 121)) + [144, 360, 400])
    def test_product_identity(self, n):
        # X^n - 1 = prod_{e | n} Phi_e, so the subgroup dZ_n, whose mask is
        # (X^n - 1)/(X^d - 1), is divided by Phi_e exactly when e does not
        # divide d.
        ctx = tl.factorize(n)
        for d in ctx.divisors:
            A = tl.TileSet(ctx, range(0, n, d))
            assert cyclo_profile(A).divisors_of_mask == frozenset(
                e for e in ctx.divisors if d % e)

    def test_degree_is_phi(self):
        for s in range(1, 100):
            assert len(sympy_cyclo_coeffs(s)) - 1 == tl.euler_phi(s)


class TestCuboidDifferential:
    """The cuboid profile equals the division oracle tile for tile."""

    def test_complete_corpora_up_to_24(self):
        for M in range(1, 25):
            tiles = {tile for t in corpus(M) for tile in (t.A, t.B)}
            for A in tiles:
                assert cyclo_profile(A).divisors_of_mask == \
                    division_profile(A), A

    @pytest.mark.parametrize("M,count", [(72, 40), (360, 12), (720, 6),
                                         (2520, 3)])
    def test_seeded_large_moduli(self, M, count):
        for A in sample_sets(M, count, seed=M):
            assert cyclo_profile(A).divisors_of_mask == division_profile(A), A


def width_sizes(M):
    """Sizes just below, at and above each power of two up to M: the packed
    field width of a tile changes at some of them, whatever M's prime count."""
    return sorted({n for e in range(M.bit_length())
                   for n in (2**e - 1, 2**e, 2**e + 1) if 1 <= n <= M})


def structured_sets(ctx, size, rng):
    """Tiles of one size with large folded counts: a random subset of the
    subgroup dZ_M for the largest divisor d that leaves room, and a random
    union of cosets of the order-e subgroup (M/e)Z_M, padded to size."""
    M = ctx.M
    d = max(d for d in ctx.divisors if M // d >= size)
    sub = rng.sample(range(0, M, d), size)
    e = rng.choice([e for e in ctx.divisors if e <= size])
    cosets = rng.sample(range(M // e), size // e)
    union = {x + k * (M // e) for x in cosets for k in range(e)}
    rest = [x for x in range(M) if x not in union]
    union |= set(rng.sample(rest, size - len(union)))
    return [tl.TileSet(ctx, sub), tl.TileSet(ctx, union)]


# 255 is the largest size with one-byte fields (2^8 > |A|) and 256 the least
# with two; 127 and 128 were that edge for the older 2^w > 2|A|.
EDGE_SIZES = (127, 128, 255, 256)
MAX_M_MODULI = (65536, 30030, 65520)


def one_class_tiles(ctx, size):
    """(s, A) for each s | M with at least two primes and size * s <= M:
    A is size members of one class mod s, which fold to the single count
    |A| mod s."""
    return [(s, tl.TileSet(ctx, range(s - 1, size * s, s)))
            for s in ctx.divisors
            if len(tl.prime_factorization(s)) >= 2 and size * s <= ctx.M]


def width_edge_tiles(M):
    """Tiles of each EDGE_SIZES size: one class mod each s with two primes
    and room for the tile, and structured and random tiles of the size."""
    ctx = tl.factorize(M)
    rng = random.Random(M)
    tiles = []
    for size in EDGE_SIZES:
        tiles += [A for _, A in one_class_tiles(ctx, size)]
        tiles += structured_sets(ctx, size, rng)
        tiles.append(tl.TileSet(ctx, rng.sample(range(M), size)))
    return tiles


def max_m_tiles(M):
    """Half of Z_M, four even residues, and structured tiles of sizes up to
    32,768, on a modulus near MAX_M."""
    ctx = tl.factorize(M)
    rng = random.Random(M)
    tiles = [tl.TileSet(ctx, range(0, M, 2)),
             tl.TileSet(ctx, rng.sample(range(0, M, 2), 4))]
    for size in (4, 1023, 1024, 16383, 16384, 30030, 32768):
        if size <= M:
            tiles += structured_sets(ctx, size, rng)
    return tiles


class TestPackedKernel:
    """The packed profile equals the literal cuboid oracle, on complete
    corpora, at the sizes where the field width changes, and at MAX_M scale."""

    def test_complete_corpora_up_to_30(self):
        for M in range(1, 31):
            ctx = tl.factorize(M)
            tiles = {tile for t in tl.iter_tilings(ctx) for tile in (t.A, t.B)}
            for A in tiles:
                assert cyclo_profile(A).divisors_of_mask == cuboid_profile(A), A

    @pytest.mark.parametrize("M", [16, 48, 720, 2310, 7200])
    def test_width_boundaries(self, M):
        ctx = tl.factorize(M)
        rng = random.Random(M)
        for size in width_sizes(M):
            for A in structured_sets(ctx, size, rng) + sample_sets(M, 1, size):
                assert cyclo_profile(A).divisors_of_mask == cuboid_profile(A), A

    @pytest.mark.parametrize("M", MAX_M_MODULI)
    def test_max_m_scale(self, M):
        for A in max_m_tiles(M):
            assert cyclo_profile(A).divisors_of_mask == cuboid_profile(A), A

    @pytest.mark.parametrize("M, count", [(3840, 22), (7680, 34), (30030, 100),
                                          (46410, 105), (60060, 184),
                                          (65520, 226)])
    def test_one_class_tiles_at_the_width_edge(self, M, count):
        """Tiles inside one class mod s fold to a single count |A|, and the
        cuboid operators spread it to coefficients +-|A|, the most the width
        proof allows: at 255 members a coefficient reaches +-(2^w - 1).
        Each s with at least two primes, and each u > 1 dividing it, against
        the oracle."""
        ctx = tl.factorize(M)
        tiles = 0
        for size in EDGE_SIZES:
            for s, A in one_class_tiles(ctx, size):
                got = cyclo_profile(A).divisors_of_mask
                for u in ctx.divisors:
                    if u > 1 and s % u == 0:
                        assert (u in got) == cuboid_vanishes(A.members, u), (A, u)
                tiles += 1
        assert tiles == count


    @pytest.mark.parametrize("M", [1536, 1920])
    def test_width_edge_sizes_against_division(self, M):
        """Tiles of 127, 128, 255 and 256 members, on both sides of the
        one-byte field width before and after its narrowing to 2^w > |A|:
        one class mod each s with two primes and room for the tile, and
        structured and random tiles of the size, against exact division."""
        tiles = width_edge_tiles(M)
        assert {len(A) for A in tiles} == set(EDGE_SIZES)
        for A in tiles:
            assert cyclo_profile(A).divisors_of_mask == division_profile(A), A


class TestPhiAtOne:
    def test_examples(self):
        assert phi_at_one(8) == 2
        assert phi_at_one(9) == 3
        assert phi_at_one(6) == 1

    def test_rejects_trivial(self):
        with pytest.raises(InputError):
            phi_at_one(1)


def equidistribution(A, p, alpha):
    # Eq-style counting criterion: every p^alpha plane holds 1/p of its parent
    M = A.context.M
    members = set(A.members)
    for y in range(M):
        fine = sum(1 for x in members if (x - y) % p**alpha == 0)
        coarse = sum(1 for x in members if (x - y) % p**(alpha - 1) == 0)
        if fine * p != coarse:
            return False
    return True


class TestDividesMask:
    def test_examples(self):
        c9 = tl.factorize(9)
        A = tl.TileSet(c9, [0, 1, 2])
        assert divides_mask(3, A) is True
        assert divides_mask(9, A) is False
        c12 = tl.factorize(12)
        assert divides_mask(12, tl.TileSet(c12, [0, 1, 6, 7])) is True

    def test_non_divisor_rejected(self):
        c12 = tl.factorize(12)
        A = tl.TileSet(c12, [0, 1])
        with pytest.raises(InputError):
            divides_mask(5, A)
        with pytest.raises(InputError):
            divides_mask(1, A)

    @pytest.mark.parametrize("M", [12, 16, 36, 72])
    def test_prime_power_agreement_with_counting(self, M):
        ctx = tl.factorize(M)
        rng = random.Random(M)
        pool = list(range(M))
        subsets = [rng.sample(pool, rng.randint(1, M - 1)) for _ in range(60)]
        subsets += [[0, 1, 6, 7][:M], list(range(M // 2))]
        for members in subsets:
            A = tl.TileSet(ctx, sorted(set(members)))
            for p, n in ctx.primes:
                for alpha in range(1, n + 1):
                    assert divides_mask(p**alpha, A) == \
                        equidistribution(A, p, alpha)


class TestCycloProfile:
    def test_examples(self):
        c12 = tl.factorize(12)
        prof = cyclo_profile(tl.TileSet(c12, [0, 1, 6, 7]))
        assert prof.divisors_of_mask == frozenset({2, 4, 12})
        assert prof.s_set == frozenset({2, 4})
        c9 = tl.factorize(9)
        prof = cyclo_profile(tl.TileSet(c9, [0, 3, 6]))
        assert prof.divisors_of_mask == frozenset({9})
        assert prof.s_set == frozenset({9})
        c4 = tl.factorize(4)
        prof = cyclo_profile(tl.TileSet(c4, [0, 1]))
        assert prof.divisors_of_mask == frozenset({2})
        assert prof.s_set == frozenset({2})

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            cyclo_profile(tl.TileSet(tl.factorize(12), []))


def literal_t1(A):
    """Oracle: |A| against the product of Phi_s(1) over S_A."""
    prod = 1
    for s in cyclo_profile(A).s_set:
        prod *= phi_at_one(s)
    return len(A) == prod


def literal_t2(A):
    """Oracle: the product enumeration, one member of S_A for each prime of
    every set of two or more primes, each product tested against the mask."""
    profile = cyclo_profile(A)
    by_prime = {}
    for s in sorted(profile.s_set):
        by_prime.setdefault(tl.prime_factorization(s)[0][0], []).append(s)
    groups = list(by_prime.values())
    for k in range(2, len(groups) + 1):
        for chosen in itertools.combinations(groups, k):
            for powers in itertools.product(*chosen):
                if math.prod(powers) not in profile.divisors_of_mask:
                    return False
    return True


def coset_union(ctx, rng):
    """A random disjoint union of cosets of subgroups of random orders."""
    M = ctx.M
    taken = set()
    for _ in range(rng.randint(2, 6)):
        e = rng.choice(ctx.divisors[1:])
        x = rng.randrange(M // e)
        coset = {x + k * (M // e) for k in range(e)}
        if not coset & taken:
            taken |= coset
    return tl.TileSet(ctx, taken)


def progression_sum(ctx, rng):
    """x + {0..p-1}d + {0..q-1}e for two primes p != q of M: Phi_p and Phi_q
    divide its mask when the sum is direct, Phi_pq often does not."""
    M = ctx.M
    (p, _), (q, _) = rng.sample(ctx.primes, 2)
    d, e, x = rng.randrange(1, M), rng.randrange(1, M), rng.randrange(M)
    return tl.TileSet(ctx, {(x + i * d + j * e) % M
                            for i in range(p) for j in range(q)})


def mixed_failures_36():
    """The six-member A with 0 in A, S_A = {4, 9} and Phi_36 not dividing
    A: 36 = 4 * 9 is the only mixed index of Z_36 with its prime-power parts
    in S_A, so (T2) fails at s = M alone.  Phi_9 | A is tested first, on
    the counts mod 9 (equal along each class mod 3), to skip the profile."""
    ctx = tl.factorize(36)
    tiles = []
    for rest in itertools.combinations(range(1, 36), 5):
        counts = [0] * 9
        for v in (0,) + rest:
            counts[v % 9] += 1
        if not counts[:3] == counts[3:6] == counts[6:]:
            continue
        A = tl.TileSet(ctx, (0,) + rest)
        profile = cyclo_profile(A)
        if profile.s_set == {4, 9} and 36 not in profile.divisors_of_mask:
            tiles.append(A)
    return tiles


def assert_t1_t2_oracles(A):
    """S_A against the prime-power filter of the profile's divisors, and
    check_T1 and check_T2 against the literal forms."""
    profile = cyclo_profile(A)
    assert profile.s_set == frozenset(
        s for s in profile.divisors_of_mask
        if len(tl.prime_factorization(s)) == 1), A
    assert check_T1(A) == literal_t1(A), A
    assert check_T2(A) == literal_t2(A), A


def t1_t2_counts(tiles):
    """(tiles, with T1, with S_A over two primes or more, without T2)."""
    return (len(tiles), sum(check_T1(A) for A in tiles),
            sum(len({tl.prime_factorization(s)[0][0]
                     for s in cyclo_profile(A).s_set}) >= 2 for A in tiles),
            sum(not check_T2(A) for A in tiles))


class TestT1T2Oracles:
    """check_T1 and check_T2 read verdicts decided when the profile is built;
    the literal forms above decide them again from the profile's sets."""

    def test_every_tile_up_to_30(self):
        for M in range(1, 31):
            ctx = tl.factorize(M)
            tiles = {tile for t in tl.iter_tilings(ctx) for tile in (t.A, t.B)}
            for A in tiles:
                assert_t1_t2_oracles(A)

    @pytest.mark.parametrize("M,counts", [
        (1536, (18, 5, 0, 0)), (1920, (22, 2, 0, 0)), (3840, (34, 8, 0, 0)),
        (7680, (46, 13, 0, 0)), (30030, (112, 0, 5, 0)),
        (46410, (117, 5, 17, 0)), (60060, (196, 0, 11, 0)),
        (65520, (238, 0, 21, 0))])
    def test_width_edge_tiles(self, M, counts):
        tiles = width_edge_tiles(M)
        for A in tiles:
            assert_t1_t2_oracles(A)
        assert t1_t2_counts(tiles) == counts

    @pytest.mark.parametrize("M,counts", [(65536, (16, 7, 0, 0)),
                                          (30030, (14, 3, 3, 0)),
                                          (65520, (16, 2, 1, 0))])
    def test_max_m_scale(self, M, counts):
        tiles = max_m_tiles(M)
        for A in tiles:
            assert_t1_t2_oracles(A)
        assert t1_t2_counts(tiles) == counts

    def test_failures_at_s_equal_m(self):
        tiles = mixed_failures_36()
        for A in tiles:
            assert_t1_t2_oracles(A)
        assert t1_t2_counts(tiles) == (210, 210, 210, 210)

    def test_failure_at_two_byte_width(self):
        # the CRT product of a Z_36 failure with Z_43: 258 members, so
        # two-byte fields, S_A = {4, 9, 43} and (T2) failing at s = 36 only
        base = (0, 1, 3, 4, 6, 34)
        A = tl.TileSet(tl.factorize(1548), [x for x in range(1548)
                                            if x % 36 in base])
        profile = cyclo_profile(A)
        assert (len(A), profile.s_set) == (258, {4, 9, 43})
        assert 36 not in profile.divisors_of_mask
        assert_t1_t2_oracles(A)
        assert t1_t2_counts([A]) == (1, 1, 1, 1)

    @pytest.mark.parametrize("M,count,t2_false", [(900, 60, 24),
                                                  (2310, 60, 17),
                                                  (27900, 20, 12)])
    def test_seeded_large_moduli(self, M, count, t2_false):
        ctx = tl.factorize(M)
        rng = random.Random(M)
        tiles = sample_sets(M, count, seed=M)
        for _ in range(count):
            tiles += [coset_union(ctx, rng), progression_sum(ctx, rng)]
        tiles += structured_sets(ctx, rng.choice(width_sizes(M)), rng)
        for A in tiles:
            assert_t1_t2_oracles(A)
        assert sum(not check_T2(A) for A in tiles) == t2_false


class TestT1T2:
    def test_t1_examples(self):
        assert check_T1(tl.TileSet(tl.factorize(9), [0, 1, 2])) is True
        assert check_T1(tl.TileSet(tl.factorize(12), [0, 1, 6, 7])) is True
        assert check_T1(tl.TileSet(tl.factorize(4), [0, 1, 2])) is False

    def test_t2_examples(self):
        c12 = tl.factorize(12)
        assert check_T2(tl.TileSet(c12, list(range(6)))) is True
        assert check_T2(tl.TileSet(c12, [0, 1, 6, 7])) is True
        c36 = tl.factorize(36)
        A = tl.TileSet(c36, [0, 1, 2, 12, 13, 14, 24, 25, 26])
        assert cyclo_profile(A).s_set == frozenset({3, 9})
        assert check_T2(A) is True

    @pytest.mark.parametrize("M", [12, 16])
    def test_every_divisor_lands_in_a_tile(self, M):
        for t in corpus(M):
            for s in t.context.divisors:
                if s > 1:
                    assert divides_mask(s, t.A) or divides_mask(s, t.B)

    def test_t1_holds_on_corpus_tiles(self):
        for t in corpus(12):
            assert check_T1(t.A) and check_T1(t.B)
