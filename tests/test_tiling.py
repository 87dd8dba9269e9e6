import itertools
import math
import random

import pytest

import tilelab as tl
import tilelab.tiling
from tilelab.errors import InputError, TheoremViolationError
from tilelab.tiling import _dilate_div, tiling_to_json, tiling_from_json

from conftest import corpus, oracle_tilings, unchecked_pairs


def T(M, A, B, check=True):
    ctx = tl.factorize(M)
    return tl.Tiling(tl.TileSet(ctx, A), tl.TileSet(ctx, B), check=check)


class TestVerifiers:
    def test_direct_examples(self):
        c4 = tl.factorize(4)
        assert tl.verify_direct(tl.TileSet(c4, [0, 1]), tl.TileSet(c4, [0, 2]))
        assert not tl.verify_direct(tl.TileSet(c4, [0, 2]), tl.TileSet(c4, [0, 2]))
        c9 = tl.factorize(9)
        assert tl.verify_direct(tl.TileSet(c9, [0, 1, 2]), tl.TileSet(c9, [0, 3, 6]))

    def test_div_set_examples(self):
        ctx = tl.factorize(12)
        assert tl.div_set(tl.TileSet(ctx, [0, 1, 5])) == frozenset({1, 4, 12})
        assert tl.div_set(tl.TileSet(ctx, [0, 4, 8])) == frozenset({4, 12})
        assert tl.div_set(tl.TileSet(ctx, [0])) == frozenset({12})

    def test_div_set_matches_literal_pair_loop(self):
        def literal(A):
            # gcd(0, M) = M puts M in exactly when A is nonempty
            return {math.gcd(a - a2, A.context.M) for a in A for a2 in A}

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
            want = literal(A)
            assert tilelab.tiling._div_set(A) == want, A
            assert tl.div_set(A) == want, A

    def test_sands_examples(self):
        ctx = tl.factorize(12)
        A, B = tl.TileSet(ctx, [0, 1, 6, 7]), tl.TileSet(ctx, [0, 4, 8])
        assert tl.div_set(A) == frozenset({1, 6, 12})
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
        raised = unequal_sizes = 0
        for t in unchecked_pairs(1500, seed=4, moduli=(12, 72)):
            want = orbit_outcome(literal_orbit_check, t)
            assert orbit_outcome(tl.tijdeman_orbit_check, t) == want, t
            raised += want is not True
            unequal_sizes += len(t.A) * len(t.B) != t.context.M
        assert raised > 900 and unequal_sizes > 400

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
        tiles = {}
        for t in oracle_tilings():
            tiles[t.A] = tiles[t.B] = None
        for A in tiles:
            M = A.context.M
            D = tl.div_set(A)
            for r in range(1, M):
                rA = A.dilate(r)
                if len(rA) == len(A):
                    assert _dilate_div(D, r, M) == tl.div_set(rA), (A, r)
                else:
                    assert M in _dilate_div(D - {M}, r, M), (A, r)

    def test_real_tilings_never_fall_back(self, monkeypatch):
        calls = []
        real = tilelab.tiling.verify_direct

        def counting(A, B):
            calls.append((A, B))
            return real(A, B)

        monkeypatch.setattr(tilelab.tiling, "verify_direct", counting)
        for t in corpus(24):
            for tt in (t, t.swapped()):
                assert tl.tijdeman_orbit_check(tt)
        assert calls == []
        with pytest.raises(TheoremViolationError):
            tl.tijdeman_orbit_check(T(4, [0, 2], [0, 2], check=False))
        assert len(calls) == 1


class TestDilationStabilizer:
    def test_examples(self):
        ctx = tl.factorize(12)
        assert tl.dilation_stabilizer(ctx.residue(2), ctx.residue(10)) == (5, 11)
        assert tl.dilation_stabilizer(ctx.residue(1), ctx.residue(1)) == (1,)
        c9 = tl.factorize(9)
        assert tl.dilation_stabilizer(c9.residue(3), c9.residue(6)) == (2, 5, 8)

    def test_mismatched_gcds_rejected(self):
        ctx = tl.factorize(12)
        with pytest.raises(InputError):
            tl.dilation_stabilizer(ctx.residue(2), ctx.residue(3))

    @pytest.mark.parametrize("M", [12, 36])
    def test_cardinality_and_lattice_form(self, M):
        ctx = tl.factorize(M)
        units = [r for r in range(1, M) if math.gcd(r, M) == 1]
        for x in range(M):
            m = math.gcd(x, M)
            for xp in range(M):
                if math.gcd(xp, M) != m:
                    continue
                stab = tl.dilation_stabilizer(ctx.residue(x), ctx.residue(xp))
                if not stab:
                    continue
                assert len(stab) == ctx.phi_table[M] // tl.euler_phi(M // m)
                r0 = stab[0]
                lattice = {r for r in units if (r - r0) % (M // m) == 0}
                assert set(stab) == lattice


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

    def test_non_tiling_rejected_unless_unchecked(self):
        obj = {"M": 4, "A": [0, 2], "B": [0, 2]}
        with pytest.raises(InputError):
            tiling_from_json(obj)
        t = tiling_from_json(obj, check=False)
        assert not tl.verify_direct(t.A, t.B)
