"""Release gate: ten corpus-scale checks, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as the
suite progresses (plain `pytest -v` shows them only for failures).

Coverage is pinned below and asserted at use: moduli in CENSUS are
enumerated completely, the larger moduli consume the deterministic
stratified prefix of sample_tilings up to SAMPLE_CAPS.  Changing a cap
changes what this gate certifies, so the caps are part of the contract.
"""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest
import sympy

import tilelab as tl
from tilelab.errors import InputError, NotFiberedError
from tilelab.splitting import Parity

from conftest import corpus

# Complete enumerations, with census sizes frozen so coverage cannot
# silently shrink.
CENSUS = {4: 6, 8: 34, 9: 20, 12: 194, 16: 578, 24: 13250}

# Deterministic stratified prefixes for moduli whose census is out of desk
# range (Z_36 alone has 789194 normalized tilings).
SAMPLE_CAPS = {36: 20_000, 48: 10_000, 60: 10_000, 72: 6_000}

# Criterion 1: moduli small enough to sweep every candidate pair with
# 0 in both sets and |A||B| = M; the pair-space sizes are frozen.
LITERAL_MS = (4, 8, 9, 12, 16)
LITERAL_PAIR_COUNTS = {4: 11, 8: 492, 9: 786, 12: 28_316, 16: 400_077}

# Beyond M=16 the candidate space explodes (M=24 has 3.1e7 pairs of shape
# 2x12 alone), so agreement there is checked on every corpus tiling plus a
# seeded uniform sample of candidate pairs.  The tiling-hit counts freeze
# the RNG stream end to end.
PAIR_SAMPLE_DRAWS = 60_000
PAIR_SAMPLE_SEEDS = {24: 2401, 36: 3601}
PAIR_SAMPLE_TILING_HITS = {24: 14_865, 36: 13_136}

# Frozen census of normalized tilings over all moduli below 36 combined.
TOTAL_TILINGS_BELOW_36 = 550_527

# Hand-built Z_180 instance for criterion 9: the uniform-axis-parity check
# needs a two-direction grid using each direction on at least two layers,
# which no tiling of Z_60 can produce.  A is a 6Z coset plus two 3-fibers;
# B mixes two complement shapes across the five mod-5 classes so that every
# 6Z grid stratifies in two directions with layer counts (2,3) or (3,2).
M180_QUALIFYING_A = (0, 15, 25, 30, 60, 75, 85, 90, 120, 135, 145, 150)
M180_QUALIFYING_B = (0, 9, 36, 37, 40, 73, 76, 77, 80, 109, 113, 116, 117,
                     149, 153)


def _tilings(M):
    """Corpus for M with its pinned coverage asserted."""
    if M in CENSUS:
        ts = corpus(M)
        assert len(ts) == CENSUS[M]
    else:
        ts = corpus(M, SAMPLE_CAPS[M])
        assert len(ts) == SAMPLE_CAPS[M]
    return ts


def _report(num, detail):
    print(f"criterion {num:>2}: PASS  {detail}")


def test_criterion_01_three_verifiers_agree():
    literal = 0
    for M in LITERAL_MS:
        ctx = tl.factorize(M)
        pool = tuple(range(1, M))
        by_size = {d: [tl.TileSet(ctx, (0,) + rest)
                       for rest in itertools.combinations(pool, d - 1)]
                   for d in ctx.divisors}
        pairs = 0
        for dA in ctx.divisors:
            for A in by_size[dA]:
                for B in by_size[M // dA]:
                    v = tl.verify_direct(A, B)
                    assert tl.verify_sands(A, B) == v, (M, A, B)
                    assert tl.verify_cyclotomic(A, B) == v, (M, A, B)
                    pairs += 1
        assert pairs == LITERAL_PAIR_COUNTS[M]
        literal += pairs

    sampled = 0
    on_corpus = 0
    for M in sorted(PAIR_SAMPLE_SEEDS):
        ctx = tl.factorize(M)
        for t in _tilings(M):
            assert tl.verify_direct(t.A, t.B)
            assert tl.verify_sands(t.A, t.B)
            assert tl.verify_cyclotomic(t.A, t.B)
            on_corpus += 1
        rng = random.Random(PAIR_SAMPLE_SEEDS[M])
        splits = [(d, M // d) for d in ctx.divisors]
        pool = range(1, M)
        hits = 0
        for _ in range(PAIR_SAMPLE_DRAWS):
            dA, dB = rng.choice(splits)
            A = tl.TileSet(ctx, [0] + rng.sample(pool, dA - 1))
            B = tl.TileSet(ctx, [0] + rng.sample(pool, dB - 1))
            v = tl.verify_direct(A, B)
            assert tl.verify_sands(A, B) == v, (M, A, B)
            assert tl.verify_cyclotomic(A, B) == v, (M, A, B)
            hits += v
            sampled += 1
        assert hits == PAIR_SAMPLE_TILING_HITS[M]
    _report(1, f"three verifiers agree on {literal} exhaustive pairs "
               f"(M in {LITERAL_MS}), {on_corpus} corpus tilings and "
               f"{sampled} seeded candidate pairs (M in 24, 36)")


def test_criterion_02_box_product_grid():
    grid_points = 0
    recomputed = 0
    for M in (12, 24, 36):
        ts = _tilings(M)
        rng = random.Random(M)
        for t in ts:
            assert tl.box_product_all_ones(t), t
            grid_points += M * M
        # Tie the whole-grid integer check back to the rational definition
        # on a seeded spot sample.
        for t in ts[:25]:
            for _ in range(8):
                x, y = rng.randrange(M), rng.randrange(M)
                assert tl.box_product(t.A, t.B, x, y) == Fraction(1)
                recomputed += 1
    _report(2, f"{grid_points} (x, y) box products equal 1 exactly; "
               f"{recomputed} recomputed as explicit rationals")


def test_criterion_03_fiber_parity_total():
    fibers = 0
    for M in (12, 16, 24, 36, 48, 60, 72):
        for t in _tilings(M):
            ctx = t.context
            for d, (p, _) in enumerate(ctx.primes):
                for anchor in range(ctx.M // p):
                    # fiber_parity raises NeitherParityError on any fiber
                    # that collapses (or spreads) on both sides.
                    assert isinstance(tl.fiber_parity(t, anchor, d), Parity)
                    fibers += 1
    _report(3, f"{fibers} fibers classified with zero neither-parity events")


def test_criterion_04_slab_equivalence():
    checked = 0
    held = 0
    for M in (12, 16, 24, 36, 48, 72):
        for t in _tilings(M):
            ctx = t.context
            for d, (p, n) in enumerate(ctx.primes):
                if not tl.divides_mask(p ** n, t.A):
                    continue
                verdict = tl.slab_equivalence_check(t, d)
                assert verdict.cond_i == verdict.cond_ii == verdict.cond_iii
                checked += 1
                held += verdict.holds
    _report(4, f"slab conditions (i)=(ii)=(iii) on {checked} qualifying "
               f"directions ({held} hold)")


def test_criterion_05_splitting_slab_equivalence():
    checked = 0
    held = 0
    for M in (12, 16, 24, 36, 48):
        for t in _tilings(M):
            for d in range(len(t.context.primes)):
                # Raises EquivalenceViolationError if (I), (II), (III)
                # ever disagree; the return value is their common truth.
                held += tl.splittingslab_equiv_check(tl.split_report(t, d))
                checked += 1
    _report(5, f"splitting criteria (I)=(II)=(III) on {checked} "
               f"(tiling, direction) pairs ({held} hold)")


def test_criterion_06_structure_conditions():
    tiles = set()
    for M in (4, 8, 9, 12, 16, 24, 36, 48, 60, 72):
        for t in _tilings(M):
            tiles.add(t.A)
            tiles.add(t.B)
    three_prime = []
    for tile in sorted(tiles, key=lambda s: (s.context.M, s.members)):
        assert tl.check_T1(tile), tile
        if len(tl.prime_factorization(len(tile))) <= 2:
            assert tl.check_T2(tile), tile
        else:
            # Cardinality with three distinct primes sits outside the
            # two-prime theorem; checked directly and reported.
            assert tl.check_T2(tile), tile
            three_prime.append(tile)
    assert three_prime, "expected three-prime cardinalities (sizes 30, 60)"
    sizes = sorted({len(tile) for tile in three_prime})
    _report(6, f"T1 and T2 on all {len(tiles)} distinct tiles; "
               f"{len(three_prime)} tiles of three-prime size {sizes} "
               f"checked directly")


def test_criterion_07_large_prime_pipeline():
    ctx = tl.factorize(84)
    rng = random.Random(84007)
    units = [r for r in range(1, 84) if math.gcd(r, 84) == 1]
    seeds = []
    seen = set()
    for t in tl.sample_tilings(ctx, 400):
        r = rng.choice(units)
        tile = t.A.dilate(r)
        if tile not in seen:
            seen.add(tile)
            seeds.append(tile)
    proved = set()
    step_kinds = defaultdict(int)
    for tile in seeds:
        if len(proved) >= 60:
            break
        for B in tl.find_complements(tile, limit=2):
            cand = tl.Tiling(tile, B)
            if cand in proved:
                continue
            cert = tl.prove_t2_largeprime(cand)
            assert tl.replay_certificate(cert)
            assert tl.check_T2(cand.A) and tl.check_T2(cand.B)
            for step in cert.steps:
                step_kinds[type(step).__name__] += 1
            proved.add(cand)
            if len(proved) >= 60:
                break
    assert len(proved) >= 50
    kinds = dict(sorted(step_kinds.items()))
    _report(7, f"{len(proved)} sampled Z_84 tilings proved with replay-valid "
               f"certificates; step kinds {kinds}")


def test_criterion_08_dilation_stabilizer_lattice():
    pair_counts = {12: 30, 36: 246, 60: 510}   # sum of phi(d)^2 over d | M
    for M, expected_pairs in pair_counts.items():
        ctx = tl.factorize(M)
        units = {r for r in range(M) if math.gcd(r, M) == 1}
        pairs = 0
        for x in range(M):
            m = math.gcd(x, M)   # gcd(0, M) = M, so x = 0 pairs only with 0
            for xp in range(M):
                if math.gcd(xp, M) != m:
                    continue
                stab = tl.dilation_stabilizer(ctx, x, xp)
                brute = {r for r in units if r * x % M == xp}
                assert set(stab) == brute
                assert len(stab) == sympy.totient(M) // sympy.totient(M // m)
                step = M // m
                r0 = stab[0]
                assert set(stab) == {r for r in units if (r - r0) % step == 0}
                pairs += 1
        assert pairs == expected_pairs
    ctx12 = tl.factorize(12)
    with pytest.raises(InputError):
        tl.dilation_stabilizer(ctx12, 2, 3)
    _report(8, f"stabilizer size phi(M)/phi(M/m) and unit-lattice form on "
               f"all {sum(pair_counts.values())} valid pairs, M in (12, 36, 60)")


def test_criterion_09_grid_lemma_suite():
    counts = defaultdict(int)
    for t in _tilings(60):
        for pair in itertools.combinations(range(3), 2):
            nus = tl.plane_consistency(t, pair)
            assert set(nus) <= set(pair)
            counts["plane_consistency"] += len(nus)
        for pair in itertools.permutations(range(3), 2):
            counts["cross_direction_check"] += len(
                tl.cross_direction_check(t, pair) or ())
        try:
            prof = tl.fibered_grid_profile(t)
        except (InputError, NotFiberedError):
            continue
        assert tl.check_fiber_basic(prof)
        counts["check_fiber_basic"] += 1
        for z0 in range(prof.radical_step):
            strat = tl.grid_stratification(prof, z0)
            assert len(strat.directions) <= 2
            counts["grid_stratification"] += 1
            if tl.consistent_splitting_check(prof, z0) is not None:
                counts["consistent_splitting_check"] += 1
        got = tl.consistency3_check(prof)
        if got is not None:
            assert got is True
            counts["consistency3_check"] += 1

    for name in ("plane_consistency", "cross_direction_check",
                 "check_fiber_basic", "grid_stratification",
                 "consistency3_check", "consistent_splitting_check"):
        print(f"  Z_60 corpus: {name}: {counts[name]} applicable, 0 violations")

    # The uniform-axis-parity hypothesis never triggers on Z_60 (no tiling
    # produces a two-direction grid with both directions on two or more
    # layers), so it is untested there and exercised on the hand-built
    # Z_180 instance instead.
    assert counts["consistent_splitting_check"] == 0
    print("  Z_60 corpus: consistent_splitting_check flagged "
          "untested-hypothesis; using the constructed Z_180 instance")
    ctx = tl.factorize(180)
    inst = tl.Tiling(tl.TileSet(ctx, M180_QUALIFYING_A),
                     tl.TileSet(ctx, M180_QUALIFYING_B))
    prof = tl.fibered_grid_profile(inst)
    assert prof.radical_step == 6
    for z0 in range(prof.radical_step):
        assert tl.consistent_splitting_check(prof, z0) is Parity.AB
    _report(9, f"grid suite clean on {SAMPLE_CAPS[60]} Z_60 tilings; "
               f"uniform axis parity AB on all 6 grids of the Z_180 instance")


def test_criterion_10_dilation_orbit():
    below = 0
    for M in range(1, 36):
        if M in CENSUS:
            ts = _tilings(M)
        else:
            ts = tl.enumerate_tilings(tl.factorize(M))
        for t in ts:
            # Raises TheoremViolationError if any admissible dilation
            # collapses A or breaks the tiling.
            assert tl.tijdeman_orbit_check(t)
        below += len(ts)
    assert below == TOTAL_TILINGS_BELOW_36
    capped = _tilings(36)
    for t in capped:
        assert tl.tijdeman_orbit_check(t)
    _report(10, f"dilation orbits intact for all {below} tilings with M < 36 "
                f"and {len(capped)} sampled tilings of Z_36")
