import math
import random
from fractions import Fraction

import pytest

import tilelab as tl
from tilelab.errors import ContextMismatchError
from tilelab.structure import _count_rows

from conftest import corpus, unchecked_pairs


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
    (row,) = _count_rows(A, [x])
    return {m: c for m, c in zip(A.context.divisors, row) if c}


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
        for x, row in enumerate(_count_rows(A, range(12))):
            assert sum(row) == len(A)
            assert row[ctx.divisors.index(12)] == (1 if x in A.members else 0)

    def test_matches_oracle(self):
        ctx = tl.factorize(12)
        A = tl.TileSet(ctx, [0, 1, 5, 6, 7, 11])
        for x in range(12):
            assert count_row(A, x) == oracle_counts(A, x)


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
