import math
import random
from fractions import Fraction

import pytest

import tilelab as tl

from conftest import corpus


def oracle_counts(A, x, restriction=None):
    pool = A.members if restriction is None else \
        sorted(set(A.members) & set(restriction.members))
    out = {}
    for a in pool:
        m = math.gcd((x - a) % A.context.M, A.context.M) or A.context.M
        out[m] = out.get(m, 0) + 1
    return out


def oracle_box(A, B, x, y):
    M = A.context.M
    ca, cb = oracle_counts(A, x), oracle_counts(B, y)
    return sum(Fraction(ca.get(m, 0) * cb.get(m, 0), tl.euler_phi(M // m))
               for m in A.context.divisors)


class TestDivisorCounts:
    def test_examples(self):
        c4 = tl.factorize(4)
        dc = tl.divisor_counts(tl.TileSet(c4, [0, 1]), c4.residue(0))
        assert dict(dc.counts) == {1: 1, 4: 1}
        dc = tl.divisor_counts(tl.TileSet(c4, [0, 2]), c4.residue(0))
        assert dict(dc.counts) == {2: 1, 4: 1}
        c9 = tl.factorize(9)
        dc = tl.divisor_counts(tl.TileSet(c9, [0, 3, 6]), c9.residue(1))
        assert dict(dc.counts) == {1: 3}

    def test_total_and_membership_flag(self):
        ctx = tl.factorize(12)
        A = tl.TileSet(ctx, [0, 1, 6, 7])
        for x in range(12):
            dc = tl.divisor_counts(A, ctx.residue(x))
            assert sum(dc.counts.values()) == len(A)
            assert dc.counts.get(12, 0) == (1 if x in A.members else 0)

    def test_matches_oracle_with_restriction(self):
        ctx = tl.factorize(12)
        A = tl.TileSet(ctx, [0, 1, 5, 6, 7, 11])
        X = tl.TileSet(ctx, [0, 1, 2, 3, 6])
        for x in range(12):
            dc = tl.divisor_counts(A, ctx.residue(x), X)
            assert dict(dc.counts) == oracle_counts(A, x, X)


class TestBoxProduct:
    def test_examples(self):
        c4 = tl.factorize(4)
        A, B = tl.TileSet(c4, [0, 1]), tl.TileSet(c4, [0, 2])
        assert tl.box_product(A, B, c4.residue(0), c4.residue(0)) == 1
        c9 = tl.factorize(9)
        assert tl.box_product(tl.TileSet(c9, [0, 1, 2]), tl.TileSet(c9, [0, 3, 6]),
                              c9.residue(0), c9.residue(1)) == 1

    def test_non_tiling_witness(self):
        c4 = tl.factorize(4)
        A = tl.TileSet(c4, [0, 2])
        got = tl.box_product(A, A, c4.residue(0), c4.residue(0))
        assert got == 2

    def test_matches_independent_formula(self):
        for t in corpus(12)[::9]:
            for x in range(0, 12, 5):
                for y in range(0, 12, 7):
                    got = tl.box_product(t.A, t.B, t.context.residue(x),
                                         t.context.residue(y))
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


class TestDilationCountIdentity:
    def test_examples(self):
        c4 = tl.factorize(4)
        got = tl.dilation_count_identity(tl.TileSet(c4, [0, 1]),
                                         tl.TileSet(c4, [0, 2]),
                                         c4.residue(0), c4.residue(0))
        assert got == (2, 2)
        c9 = tl.factorize(9)
        got = tl.dilation_count_identity(tl.TileSet(c9, [0, 1, 2]),
                                         tl.TileSet(c9, [0, 3, 6]),
                                         c9.residue(0), c9.residue(0))
        assert got == (6, 6)
        c1 = tl.factorize(1)
        got = tl.dilation_count_identity(tl.TileSet(c1, [0]), tl.TileSet(c1, [0]),
                                         c1.residue(0), c1.residue(0))
        assert got == (1, 1)

    def test_both_sides_phi_on_corpus(self):
        for t in corpus(12)[::13]:
            ctx = t.context
            for x in (0, 4, 11):
                for y in (0, 7):
                    lhs, rhs = tl.dilation_count_identity(
                        t.A, t.B, ctx.residue(x), ctx.residue(y))
                    assert lhs == rhs == ctx.phi_table[12]


class TestSaturatingSets:
    def test_pair_examples(self):
        c4 = tl.factorize(4)
        A, B = tl.TileSet(c4, [0, 1]), tl.TileSet(c4, [0, 2])
        SA, SB = tl.saturating_pair_sets(A, B, c4.residue(0), c4.residue(0))
        assert SA.members == (0,) and SB.members == (0,)
        c9 = tl.factorize(9)
        SA, SB = tl.saturating_pair_sets(tl.TileSet(c9, [0, 1, 2]),
                                         tl.TileSet(c9, [0, 3, 6]),
                                         c9.residue(0), c9.residue(0))
        assert SA.members == (0,) and SB.members == (0,)

    def test_members_when_x_in_A_y_in_B(self):
        # the m=M classes always match each other
        for t in corpus(12)[::17]:
            ctx = t.context
            a, b = t.A.members[0], t.B.members[-1]
            SA, SB = tl.saturating_pair_sets(t.A, t.B, ctx.residue(a),
                                             ctx.residue(b))
            assert a in SA.members and b in SB.members

    def test_restricted_product_saturates(self):
        for t in corpus(12)[::11]:
            ctx = t.context
            for x in (0, 3, 10):
                for y in (0, 5):
                    SA, SB = tl.saturating_pair_sets(t.A, t.B, ctx.residue(x),
                                                     ctx.residue(y))
                    got = tl.box_product(t.A, t.B, ctx.residue(x),
                                         ctx.residue(y),
                                         restrict_a=SA, restrict_b=SB)
                    assert got == 1

    def test_saturating_set_examples(self):
        c4 = tl.factorize(4)
        A, B = tl.TileSet(c4, [0, 1]), tl.TileSet(c4, [0, 2])
        assert tl.saturating_set(A, B, c4.residue(0)).members == (0,)
        assert tl.saturating_set(A, B, c4.residue(2)).members == (0,)

    def test_saturating_set_is_union_of_pairs(self):
        for t in corpus(12)[::23]:
            ctx = t.context
            for x in range(0, 12, 4):
                union = set()
                for b in t.B.members:
                    SA, _ = tl.saturating_pair_sets(t.A, t.B, ctx.residue(x),
                                                    ctx.residue(b))
                    union |= set(SA.members)
                got = set(tl.saturating_set(t.A, t.B, ctx.residue(x)).members)
                assert got == union
                if x in t.A.members:
                    assert x in got


class TestSatsetDilationEquiv:
    def test_examples(self):
        c4 = tl.factorize(4)
        A, B = tl.TileSet(c4, [0, 1]), tl.TileSet(c4, [0, 2])
        assert tl.satset_dilation_equiv(A, B, c4.residue(0), c4.residue(0), 0, 0)
        assert not tl.satset_dilation_equiv(A, B, c4.residue(0), c4.residue(0), 1, 2)
        c12 = tl.factorize(12)
        A12 = tl.TileSet(c12, [0, 1, 6, 7])
        B12 = tl.TileSet(c12, [0, 4, 8])
        assert not tl.satset_dilation_equiv(A12, B12, c12.residue(1),
                                            c12.residue(4), 7, 8)

    def test_matches_unit_dilation_scan(self):
        # membership in both saturating sets <=> exists r in R with x-a = r(y-b)
        c12 = tl.factorize(12)
        A = tl.TileSet(c12, [0, 1, 6, 7])
        B = tl.TileSet(c12, [0, 4, 8])
        units = [r for r in range(1, 12) if math.gcd(r, 12) == 1]
        for x in range(12):
            for y in range(0, 12, 3):
                for a in A.members:
                    for b in B.members:
                        got = tl.satset_dilation_equiv(
                            A, B, c12.residue(x), c12.residue(y), a, b)
                        want = any((x - a) % 12 == (r * (y - b)) % 12
                                   for r in units)
                        assert got == want
