import math
import random
from fractions import Fraction

import pytest

import tilelab as tl
from tilelab.errors import ContextMismatchError
from tilelab.structure import _count_rows

from conftest import corpus, oracle_tilings, unchecked_pairs


def oracle_counts(A, x):
    out = {}
    for a in A.members:
        m = math.gcd((x - a) % A.context.M, A.context.M) or A.context.M
        out[m] = out.get(m, 0) + 1
    return out


def oracle_box(A, B, x, y):
    M = A.context.M
    ca, cb = oracle_counts(A, x), oracle_counts(B, y)
    return sum(Fraction(ca.get(m, 0) * cb.get(m, 0), tl.euler_phi(M // m))
               for m in A.context.divisors)


def count_row(A, x):
    """structure._count_rows at the single point x, as a {divisor: count}
    dict without zero entries, the shape of oracle_counts."""
    row = _count_rows(A)[x]
    return {m: c for m, c in zip(A.context.divisors, row) if c}


def literal_count_rows(T, points):
    """The count rows of the points, member by member, indexed like
    ctx.divisors: the oracle of the packed _count_rows."""
    ctx = T.context
    index = {d: k for k, d in enumerate(ctx.divisors)}
    rows = []
    for x in points:
        row = [0] * len(index)
        for a in T.members:
            row[index[ctx.gcd_table[x - a]]] += 1
        rows.append(tuple(row))
    return rows


def literal_all_ones(t):
    """box_product_all_ones as a dot product per distinct pair of literal
    rows."""
    ctx = t.context
    phi_m = ctx.phi_table[ctx.M]
    weights = [phi_m // ctx.phi_table[ctx.M // d] for d in ctx.divisors]
    rows_a = set(literal_count_rows(t.A, range(ctx.M)))
    rows_b = set(literal_count_rows(t.B, range(ctx.M)))
    return all(sum(w * a * b for w, a, b in zip(weights, row_a, row_b)) == phi_m
               for row_a in rows_a for row_b in rows_b)


class TestCountRows:
    def test_examples(self):
        c4, c9 = tl.factorize(4), tl.factorize(9)
        for A, x, want in ((tl.TileSet(c4, [0, 1]), 0, {1: 1, 4: 1}),
                           (tl.TileSet(c4, [0, 2]), 0, {2: 1, 4: 1}),
                           (tl.TileSet(c9, [0, 3, 6]), 1, {1: 3})):
            assert count_row(A, x) == want == oracle_counts(A, x)

    def test_total_and_membership_flag(self):
        ctx = tl.factorize(12)
        A = tl.TileSet(ctx, [0, 1, 6, 7])
        for x, row in enumerate(_count_rows(A)):
            assert sum(row) == len(A)
            assert row[ctx.divisors.index(12)] == (1 if x in A.members else 0)

    def test_matches_oracle(self):
        ctx = tl.factorize(12)
        A = tl.TileSet(ctx, [0, 1, 5, 6, 7, 11])
        for x in range(12):
            assert count_row(A, x) == oracle_counts(A, x)

    def test_matches_literal_rows_on_tiles(self):
        """Every distinct tile of the oracle tilings."""
        tiles = {T for t in oracle_tilings() for T in (t.A, t.B)}
        for T in tiles:
            assert _count_rows(T) == literal_count_rows(T, range(T.context.M)), T
        assert len(tiles) > 1000

    def test_matches_literal_rows_on_non_tilings(self):
        """Rows of both sides, and the grid verdict, on pairs that need not
        tile."""
        verdicts = []
        for t in unchecked_pairs(600, seed=19, moduli=(1, 60)):
            for T in (t.A, t.B):
                assert (_count_rows(T)
                        == literal_count_rows(T, range(t.context.M))), T
            want = literal_all_ones(t)
            assert tl.box_product_all_ones(t) is want, t
            verdicts.append(want)
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100

    @pytest.mark.parametrize("A, B, want", [
        (range(256), [0, 256], True),
        (range(256), [0, 2], False),
        ([0, 1], range(0, 512, 2), True),
        ([0, 2], range(0, 512, 2), False),
    ])
    def test_two_byte_fields(self, A, B, want):
        """A tile of 256 members needs fields of two bytes: tilings of Z_512
        and pairs of the same sizes that do not tile.  Against the even
        residues, an odd point counts all 256 in class 1."""
        ctx = tl.factorize(512)
        t = tl.Tiling(tl.TileSet(ctx, A), tl.TileSet(ctx, B), check=False)
        big = t.A if len(t.A) == 256 else t.B
        rows = _count_rows(big)
        assert rows == literal_count_rows(big, range(512))
        assert max(map(max, rows)) == (256 if big is t.B else 128)
        assert tl.box_product_all_ones(t) is want is tl.verify_direct(t.A, t.B)


class TestBoxProduct:
    def test_examples(self):
        c4 = tl.factorize(4)
        A, B = tl.TileSet(c4, [0, 1]), tl.TileSet(c4, [0, 2])
        assert tl.box_product(A, B, 0, 0) == 1
        c9 = tl.factorize(9)
        assert tl.box_product(tl.TileSet(c9, [0, 1, 2]), tl.TileSet(c9, [0, 3, 6]),
                              0, 1) == 1

    def test_non_tiling_witness(self):
        c4 = tl.factorize(4)
        A = tl.TileSet(c4, [0, 2])
        got = tl.box_product(A, A, 0, 0)
        assert got == 2

    def test_base_points_read_mod_m(self):
        t = corpus(12)[5]
        for x, y in ((0, 0), (3, 7), (11, 1)):
            want = tl.box_product(t.A, t.B, x, y)
            assert tl.box_product(t.A, t.B, x + 12, y - 24) == want
            assert tl.box_product(t.A, t.B, x - 12, y + 36) == want

    def test_tiles_of_different_moduli_rejected(self):
        c4, c8 = tl.factorize(4), tl.factorize(8)
        with pytest.raises(ContextMismatchError, match="8"):
            tl.box_product(tl.TileSet(c4, [0, 1]), tl.TileSet(c8, [0, 2]), 0, 0)

    def test_matches_independent_formula(self):
        for t in corpus(12)[::9]:
            for x in range(0, 12, 5):
                for y in range(0, 12, 7):
                    got = tl.box_product(t.A, t.B, x, y)
                    assert got == oracle_box(t.A, t.B, x, y)
                    assert isinstance(got, Fraction)

    def test_all_ones_over_corpus(self):
        for t in corpus(12)[::7]:
            assert tl.box_product_all_ones(t)

    def test_all_ones_matches_literal_grid_on_unchecked_pairs(self):
        rng = random.Random(12)
        outcomes = []
        for _ in range(200):
            ctx = tl.factorize(rng.choice((8, 12)))
            M = ctx.M
            ka = rng.choice(ctx.divisors)
            A = tl.TileSet(ctx, [0] + rng.sample(range(1, M), ka - 1))
            B = tl.TileSet(ctx, [0] + rng.sample(range(1, M), M // ka - 1))
            want = all(tl.box_product(A, B, x, y) == 1
                       for x in range(M) for y in range(M))
            assert tl.box_product_all_ones(tl.Tiling(A, B, check=False)) is want
            outcomes.append(want)
        assert outcomes.count(True) > 20 and outcomes.count(False) > 20


def triple_count(A, B, x, y):
    """#{(a, b, r) : r a unit mod M, r(a - x) + (b - y) = 0}, counted
    literally: each (r, a) fixes b = y - r(a - x)."""
    M = A.context.M
    units = [r for r in range(M) if math.gcd(r, M) == 1]
    return sum((y - r * (a - x)) % M in B for r in units for a in A.members)


class TestDilationCountIdentity:
    """phi(M) <A[x], B[y]> is the number of dilation triples, for any A, B."""

    def check(self, A, B, x, y):
        ctx = A.context
        count = triple_count(A, B, x, y)
        assert ctx.phi_table[ctx.M] * tl.box_product(A, B, x, y) == count
        return count

    def test_examples(self):
        c4 = tl.factorize(4)
        assert self.check(tl.TileSet(c4, [0, 1]), tl.TileSet(c4, [0, 2]),
                          0, 0) == 2
        c9 = tl.factorize(9)
        assert self.check(tl.TileSet(c9, [0, 1, 2]), tl.TileSet(c9, [0, 3, 6]),
                          0, 0) == 6
        c1 = tl.factorize(1)
        assert self.check(tl.TileSet(c1, [0]), tl.TileSet(c1, [0]), 0, 0) == 1

    def test_both_sides_phi_on_corpus(self):
        for t in corpus(12)[::13]:
            for x in (0, 4, 11):
                for y in (0, 7):
                    assert self.check(t.A, t.B, x, y) == t.context.phi_table[12]

    def test_unchecked_pairs_meet_both_outcomes(self):
        rng = random.Random(24)
        hits = []
        for t in unchecked_pairs(150, seed=24, moduli=(4, 24)):
            M = t.context.M
            for _ in range(3):
                count = self.check(t.A, t.B, rng.randrange(M), rng.randrange(M))
                hits.append(count == t.context.phi_table[M])
        assert hits.count(True) > 50 and hits.count(False) > 50
