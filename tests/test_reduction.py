"""Slab reduction conditions and the certificate-producing prover."""

import collections
import functools
import hashlib
import itertools
import json
import math
import random
import types

import pytest

import tilelab as tl
import tilelab.cli
from tilelab import reduction as rd
from tilelab import splitting as sp
from tilelab.errors import (EquivalenceViolationError, InputError,
                            InvariantViolationError, PipelineStuckError,
                            TilelabError)

from conftest import (corpus, crt_value, digit_tilings, div_set,
                      lifted_tilings, oracle_tilings, szabo_tiling,
                      unchecked_pairs, units)


def T(M, A, B, check=True):
    ctx = tl.factorize(M)
    return tl.Tiling(tl.TileSet(ctx, A), tl.TileSet(ctx, B), check=check)


def t12():
    return T(12, [0, 1, 6, 7], [0, 4, 8])


def product_tiling_900():
    """Coordinate-box tiling of Z_900: A = 30Z, B a box of small coords."""
    ctx = tl.factorize(900)
    B = sorted(crt_value(ctx, (a, b, c))
               for a in (0, 1) for b in (0, 1, 2) for c in range(5))
    return T(900, range(0, 900, 30), B)


def lifted_tiling_6300():
    """product_tiling_900 times Z_7 = Z_6300, A on the 0 class mod 7: the
    removal of 7 leaves six side branches, each proved by a slab step and a
    prime removal of its own."""
    t = product_tiling_900()
    A = [x for x in range(6300) if x % 900 in t.A and x % 7 == 0]
    return T(6300, A, [b + 900 * k for b in t.B for k in range(7)])


def certificate_nodes(cert):
    return 1 + sum(certificate_nodes(side) for step in cert.steps
                   if isinstance(step, rd.PrimeRemovalStep)
                   for side in step.side_certificates)


def certificate_tilings(cert):
    """The tilings a certificate carries: each node's input and the result
    of each of its steps."""
    return [cert.input, *(step.result for step in cert.steps),
            *(t for step in cert.steps
              if isinstance(step, rd.PrimeRemovalStep)
              for side in step.side_certificates
              for t in certificate_tilings(side))]


def t2_recorded(cert):
    """The (T2) verdicts certificate_to_json writes for the input."""
    return rd.certificate_to_json(cert)["t2"] == {"A": True, "B": True}


def dilated_side(before, step):
    """The tile a prime removal step dilated: the one that reappears whole,
    reduced mod M/p without collisions, in the step's result."""
    child = step.result.context
    for name in ("A", "B"):
        tile = getattr(before, name)
        kept = tl.TileSet(child, {v % child.M for v in tile})
        if len(kept) == len(tile) and getattr(step.result, name) == kept:
            return name
    raise AssertionError(f"no tile of {before!r} is dilated in {step!r}")


def _drop_first_member(real):
    """_projected_slab broken to lose the least member of every slab."""
    def broken(A, direction):
        got = real(A, direction)
        return tl.TileSet(got.context, got.members[1:])
    return broken


def _replace_step(cert, kind, **changes):
    """cert with its first step of the given kind rebuilt with changes."""
    i = next(i for i, s in enumerate(cert.steps) if isinstance(s, kind))
    steps = list(cert.steps)
    steps[i] = steps[i]._replace(**changes)
    return cert._replace(steps=tuple(steps))


def _slab_other_tile(cert):
    """cert with its slab step, its first, recording the child of the tile
    that Phi_{p^n} does not divide."""
    t = cert.input
    d = len(t.context.primes) - 1
    p, n = t.context.primes[d]
    wrong = t if tl.divides_mask(p ** n, t.B) else t.swapped()
    child = tl.Tiling(rd._projected_slab(wrong.A, d),
                      rd.project_tile(wrong.B, d), check=False)
    return _replace_step(cert, rd.SlabStep, result=child)


def _swap_sides(cert):
    step = next(s for s in cert.steps if isinstance(s, rd.PrimeRemovalStep))
    first, second, *rest = step.side_certificates
    assert first.input != second.input
    return _replace_step(cert, rd.PrimeRemovalStep,
                         side_certificates=(second, first, *rest))


# Each tampering of a certificate shaped (slab, prime removal, base), and the
# error its replay raises.  Replay slabs the tile that Phi_{p^n} divides, so
# a slab step recording the other tile's child does not match it.
TAMPERINGS = {
    "sides_swapped": (_swap_sides, InvariantViolationError),
    "slab_side": (_slab_other_tile, InvariantViolationError),
}


class TestSlabSubset:
    """The slab subset of A, projected to Z_{M/p}: _projected_slab."""

    def test_worked_example(self):
        # coords in direction p=2: 0->0, 1->3, 6->2, 7->1; keep those < 2
        A = t12().A
        slab = tl.TileSet(A.context, [0, 7])
        assert rd._projected_slab(A, 0) == rd.project_tile(slab, 0)
        assert sorted(rd._projected_slab(A, 0)) == [0, 5]

    def test_exponent_one_keeps_zero_coordinate(self):
        A = t12().A
        slab = tl.TileSet(A.context, [0, 6])
        assert rd._projected_slab(A, 1) == rd.project_tile(slab, 1)
        assert sorted(rd._projected_slab(A, 1)) == [0, 2]

    def test_identity_when_already_inside(self):
        A = tl.TileSet(tl.factorize(12), [0, 7])
        assert rd._projected_slab(A, 0) == rd.project_tile(A, 0)

    def test_slab_of_a_translate(self):
        """The slab of A - c is the projection of the members a of A with
        coord(a) - coord(c) below p^{n-1} mod p^n, moved by -pi(c): the
        window slab_cond_i reads off A."""
        for t in (t12(), product_tiling_900()):
            ctx = t.context
            for d, (p, n) in enumerate(ctx.primes):
                q, coord = p ** n, ctx.coord_tables[d]
                child, table = literal_projection(ctx.M, d)
                for c in range(-3, 2 * q):
                    x = c % ctx.M
                    shifted = tl.TileSet(ctx, [(a - x) % ctx.M for a in t.A])
                    window = [table[a] for a in t.A
                              if (coord[a] - coord[x]) % q < q // p]
                    assert rd._projected_slab(shifted, d) == tl.TileSet(
                        child, {(v - table[x]) % child.M for v in window})


class TestProjection:
    def test_slab_projects_to_smaller_tiling(self):
        t = t12()
        child_a = rd._projected_slab(t.A, 0)
        child_b = rd.project_tile(t.B, 0)
        assert sorted(child_a) == [0, 5]
        assert sorted(child_b) == [0, 2, 4]
        assert child_a.context.M == 6
        assert tl.verify_direct(child_a, child_b)

    def test_projection_may_collide(self):
        # 0 and 6 agree once the top coordinate is reduced mod 2
        assert sorted(rd.project_tile(t12().A, 0)) == [0, 5]

    def test_matches_literal_projection(self):
        """project_tile and _projected_slab send each residue where the
        coordinate tables and the CRT sum do: every residue of every
        (M, direction) with M <= 4356 in the list, every 11th of Z_27900
        and Z_65520."""
        pairs = 0
        for M in [*range(1, 401), 900, 1764, 4356, 27900, 65520]:
            ctx = tl.factorize(M)
            for d, (p, n) in enumerate(ctx.primes):
                coord = ctx.coord_tables[d]
                for v in range(0, M, 1 if M <= 4356 else 11):
                    single = tl.TileSet(ctx, [v])
                    assert rd.project_tile(single, d).members == (
                        literal_image(ctx, d, v),)
                    want = ((literal_image(ctx, d, v),)
                            if coord[v] < p ** (n - 1) else ())
                    assert rd._projected_slab(single, d).members == want
                pairs += 1
        assert pairs == 808


class TestSlabConditions:
    def test_worked_example_all_hold(self):
        t = t12()
        assert rd.slab_cond_i(t, 0) == (True, None)
        assert rd.slab_cond_ii(t, 0) == (True, None)
        assert rd.slab_cond_iii(t, 0) == (True, None)

    def test_swapped_roles_fail_with_witnesses(self):
        sw = t12().swapped()
        assert rd.slab_cond_i(sw, 0) == (False, 2)
        assert rd.slab_cond_ii(sw, 0) == (False, 12)
        # the cyclotomic disjunction happens to survive the swap
        assert rd.slab_cond_iii(sw, 0) == (True, None)

    def test_singleton_b_vacuous(self):
        assert rd.slab_cond_ii(T(4, range(4), [0]), 0) == (True, None)


class TestSlabEquivalence:
    def test_worked_example(self):
        v = rd.slab_equivalence_check(t12(), 0)
        assert (v.cond_i, v.cond_ii, v.cond_iii) == (True, True, True)
        assert v.witnesses == (None, None, None)
        assert v.holds
        assert v.to_json() == {
            "direction": 2, "direction_index": 0,
            "cond_i": True, "cond_ii": True, "cond_iii": True}

    def test_single_prime_instance(self):
        v = rd.slab_equivalence_check(T(4, [0, 2], [0, 1]), 0)
        assert (v.cond_i, v.cond_ii, v.cond_iii) == (True, True, True)

    def test_hypothesis_gate(self):
        # Phi_4 does not divide {0,4,8}, so the theorem does not apply
        with pytest.raises(InputError):
            rd.slab_equivalence_check(t12().swapped(), 0)

    def test_three_way_equality_over_corpus(self):
        checked = 0
        for M in (12, 16):
            for t in corpus(M):
                ctx = t.context
                for d, (p, n) in enumerate(ctx.primes):
                    if not tl.divides_mask(p ** n, t.A):
                        continue
                    rd.slab_equivalence_check(t, d)   # raises on inequality
                    checked += 1
        assert checked > 100


class TestSplittingSlab:
    def test_holding_direction(self):
        assert rd.splittingslab_equiv_check(sp.split_report(t12(), 0)) is True

    def test_failing_direction(self):
        # Phi_3 does not divide A, and the splitting criteria fail with it
        assert rd.splittingslab_equiv_check(sp.split_report(t12(), 1)) is False

    def test_three_way_equality_over_corpus(self):
        for t in corpus(12):
            for d in range(2):
                rd.splittingslab_equiv_check(sp.split_report(t, d))


# Literal forms of slab condition (i) and splitting statement (III), kept as
# oracles for the library's shortcuts: every translate c in [0, M) with the
# projection computed inline, and the difference classes of each b in B.


def literal_image(ctx, direction, v):
    """v with its coordinate in `direction` reduced mod p^{n-1} (dropped
    when n = 1), summed back into Z_{M/p}."""
    p, n = ctx.primes[direction]
    coords = [coord[v] for coord in ctx.coord_tables]
    if n == 1:
        coords.pop(direction)
    else:
        coords[direction] %= p ** (n - 1)
    return crt_value(tl.factorize(ctx.M // p), coords)


@functools.lru_cache(maxsize=None)
def literal_projection(M, direction):
    ctx = tl.factorize(M)
    child = tl.factorize(M // ctx.primes[direction][0])
    return child, [literal_image(ctx, direction, v) for v in range(M)]


def literal_slab_cond_i(t, direction):
    ctx = t.context
    p, n = ctx.check_direction(direction)
    child, table = literal_projection(ctx.M, direction)
    coord = ctx.coord_tables[direction]
    projected_b = tl.TileSet(child, {table[b] for b in t.B})
    for c in range(ctx.M):
        shifted = [(a - c) % ctx.M for a in t.A]
        slab = tl.TileSet(child, {table[a] for a in shifted
                                  if coord[a] < p ** (n - 1)})
        if not tl.verify_direct(slab, projected_b):
            return False, c
    return True, None


def literal_statement_iii(t, direction):
    ctx = t.context
    p, _ = ctx.primes[direction]
    coord = ctx.coord_tables[direction]
    gcds = ctx.gcd_table
    step = ctx.M // p
    b_classes = {b: {gcds[(b - other) % ctx.M] for other in t.B} for b in t.B}
    for a in t.A:
        for k in range(p):
            x = (a + k * step) % ctx.M
            for classes in b_classes.values():
                if any(gcds[(x - a2) % ctx.M] in classes and coord[a2] != coord[x]
                       for a2 in t.A):
                    return False
    return True


def literal_statement_ii(t, direction):
    """Statement (II) dilate by dilate: _ab_fibers on A + rB for each
    distinct rB, in the order of the least unit r giving it, until one
    finds an AB fiber or raises."""
    ctx = t.context
    ctx.check_direction(direction)
    dilates = dict.fromkeys(t.B.dilate(r) for r in units(ctx))
    return all(not sp._ab_fibers(tl.Tiling(t.A, rB, check=False), direction)
               for rB in dilates)


def statement_ii(t, direction):
    """Statement (II) as the library decides it, on B alone: the split
    report's uniform BA verdict (see splittingslab_equiv_check)."""
    return sp.split_report(t, direction).uniform_ba


def cyclotomic_statement_ii(t, direction):
    """The lemma behind deciding statement (II) on B alone: for every d with
    p^n | d | M and every coordinate class B_c of B, Phi_d divides A or
    B_c."""
    ctx = t.context
    p, n = ctx.check_direction(direction)
    coord = ctx.coord_tables[direction]
    classes = collections.defaultdict(list)
    for b in t.B:
        classes[coord[b]].append(b)
    parts = [tl.TileSet(ctx, members) for members in classes.values()]
    return all(tl.divides_mask(d, t.A) or tl.divides_mask(d, part)
               for d in ctx.divisors if d % p ** n == 0 for part in parts)


def literal_slabcor_premise(t, direction):
    """slabcor_check's two premises (fibered, saturated), the first
    scanned member by member over the multiples of M/p."""
    ctx = t.context
    p, n = ctx.primes[direction]
    f = ctx.M // p
    fibered = all(any((a + k * f) % ctx.M in t.A for k in range(1, p))
                  for a in t.A)
    coord = ctx.coord_tables[direction]
    planes = collections.Counter(coord[b] for b in t.B)
    expected = len(t.B) // math.gcd(len(t.B), p ** n)
    saturated = (tl.divides_mask(p ** n, t.A)
                 and set(planes.values()) == {expected})
    return fibered, saturated


def oracle_corpus():
    """Both orientations of every tiling of Z_1..Z_24 and of a seeded Z_36
    sample, each with every direction."""
    for t in oracle_tilings():
        for tt in (t, t.swapped()):
            for d in range(len(tt.context.primes)):
                yield tt, d


def two_square_corpus():
    """Both orientations of samples at moduli where two primes have
    exponent 2 or more (Z_72, Z_108, Z_200 and digit tilings of Z_900),
    each with every direction."""
    tilings = [t for M in (72, 108, 200) for t in corpus(M, 400)]
    for t in tilings + digit_tilings(900, 30, seed=900):
        for tt in (t, t.swapped()):
            for d in range(len(tt.context.primes)):
                yield tt, d


class TestLiteralOracles:
    def test_slab_cond_i_matches_all_translates(self):
        failing = 0
        for tt, d in oracle_corpus():
            got = rd.slab_cond_i(tt, d)
            assert got == literal_slab_cond_i(tt, d), (tt, d)
            failing += not got[0]
        assert failing > 1000

    @pytest.mark.parametrize("M", [72, 120, 360, 720])
    def test_slab_cond_i_at_request_moduli(self, M):
        """Windows of p^n = 8, 9 and 16 translates: digit-product tilings,
        both orientations, every direction."""
        verdicts = collections.Counter()
        for t in digit_tilings(M, 12, seed=M):
            for tt in (t, t.swapped()):
                for d in range(len(tt.context.primes)):
                    got = rd.slab_cond_i(tt, d)
                    assert got == literal_slab_cond_i(tt, d), (tt, d)
                    verdicts[got[0]] += 1
        assert verdicts[True] and verdicts[False]

    @pytest.mark.parametrize("B, A, check, want", [
        (range(4096), [0, 4096], True, (True, None)),
        (range(0, 4096, 2), [0, 5, 4096, 4101], True, (True, None)),
        (range(4096), [0, 4096, 4099], False, (False, 4)),
        (range(0, 4096, 2), [0, 2, 4096, 4098], False, (False, 0)),
    ])
    def test_slab_cond_i_at_z8192(self, B, A, check, want):
        """One direction of 8192 translates: two tilings, a window one
        member too large from c = 4 on, and a slab that misses the odd
        points; the literal oracle agrees on each."""
        t = T(8192, A, B, check=check)
        assert rd.slab_cond_i(t, 0) == literal_slab_cond_i(t, 0) == want

    @pytest.mark.parametrize("M, A, B, direction, c", [
        (12, [0, 1, 6, 10], [6, 7], 1, 1),
        (12, [2, 4, 6, 7, 8, 9], [0, 4, 6, 8, 10], 1, 2),
        (24, [3, 5, 9, 15], [1, 2, 10, 11, 12, 21], 0, 2),
        (24, [4, 8, 10, 14], [4, 5, 6, 19, 20, 21], 0, 2),
    ])
    def test_slab_cond_i_cover_fails_late(self, M, A, B, direction, c):
        """The sizes hold at the witness c > 0, and the translates of
        B + K by the window fail to cover Z_M there but not before."""
        t = T(M, A, B, check=False)
        assert (rd.slab_cond_i(t, direction)
                == literal_slab_cond_i(t, direction) == (False, c))

    def test_slab_cond_i_at_z65536(self):
        """The largest modulus, one direction of 65536 translates."""
        h = 32768
        assert rd.slab_cond_i(T(65536, [0, h], range(h)), 0) == (True, None)
        assert (rd.slab_cond_i(T(65536, range(0, 2 * h, 2), [0, 1]), 0)
                == (True, None))
        assert (rd.slab_cond_i(T(65536, [0, h, h + 3], range(h), check=False),
                               0) == (False, 4))

    def test_slab_cond_i_on_unchecked_pairs(self):
        """Pairs that need not tile, and a direction out of range: the same
        verdict, witness, or error type and message."""
        for t in unchecked_pairs(300, seed=11, moduli=(2, 144)):
            for tt in (t, t.swapped()):
                for d in range(len(tt.context.primes) + 1):
                    assert (outcome(rd.slab_cond_i, tt, d)
                            == outcome(literal_slab_cond_i, tt, d)), (tt, d)

    def test_statement_iii_matches_per_b_classes(self):
        """The check returns (II) and (III) only when they agree, so its
        verdict also matches (II) taken dilate by dilate."""
        failing = 0
        for tt, d in oracle_corpus():
            want = literal_statement_iii(tt, d)
            got = rd.splittingslab_equiv_check(sp.split_report(tt, d))
            assert got is want is literal_statement_ii(tt, d), (tt, d)
            failing += not want
        assert failing > 1000

    def test_statement_ii_on_unchecked_pairs(self):
        """Pairs that need not tile, and a direction out of range: the same
        verdict, or error type and message."""
        errors = collections.Counter()
        for t in unchecked_pairs(3000, seed=6, moduli=(2, 60)):
            for tt in (t, t.swapped()):
                for d in range(len(tt.context.primes) + 1):
                    want = outcome(literal_statement_ii, tt, d)
                    assert outcome(statement_ii, tt, d) == want, (tt, d)
                    if type(want) is tuple:
                        errors[want[0]] += 1
        assert errors[InputError] > 1000
        assert errors[InvariantViolationError] > 1000

    def test_swapped_report_is_the_report_of_the_swapped_tiling(self):
        """Swapping the tiles flips every fiber's parity and exchanges the
        anchor masks, so the sweep never decides B + A again."""
        verdicts = collections.Counter()
        for tt, d in oracle_corpus():
            report = sp.split_report(tt, d)
            swapped = report.swapped()
            assert swapped == sp.split_report(tt.swapped(), d), (tt, d)
            assert swapped.swapped() == report
            verdicts[report.uniform_ab] += 1
        assert verdicts[True] > 1000 and verdicts[False] > 1000

    def test_swapped_pairs_fail_alike(self):
        """The pairs of test_statement_ii_on_unchecked_pairs: where one
        orientation raises, the other raises the same error type; where
        one gives a report, the other gives its swap."""
        errors = collections.Counter()
        for t in unchecked_pairs(3000, seed=6, moduli=(2, 60)):
            for d in range(len(t.context.primes) + 1):
                got = outcome(sp.split_report, t, d)
                other = outcome(sp.split_report, t.swapped(), d)
                if isinstance(got, sp.SplitReport):
                    assert got.swapped() == other, (t, d)
                else:
                    assert got[0] is other[0], (t, d, got, other)
                    errors[got[0]] += 1
        assert errors[InputError] > 1000
        assert errors[InvariantViolationError] > 1000

    def test_statement_ii_lowest_lane_fails_any_way(self):
        """The dilate r = 2 gives an A-flat fiber, and r = 1 a double
        cover at 9: B itself decides, as the first dilate of the loop."""
        t = T(39, [0, 9, 16, 17, 20, 22, 27, 29, 30, 31, 33, 34, 38],
              [0, 31, 32], check=False)
        want = (InvariantViolationError, "double cover at 9: 9+0 and 16+32")
        assert outcome(literal_statement_ii, t, 0) == want
        assert outcome(statement_ii, t, 0) == want

    def test_statement_ii_on_two_square_moduli(self):
        """B itself decides beyond the oracle corpus too: the loop over
        every distinct dilate agrees, with both verdicts."""
        verdicts = collections.Counter()
        for tt, d in two_square_corpus():
            got = statement_ii(tt, d)
            assert got is literal_statement_ii(tt, d), (tt, d)
            verdicts[got] += 1
        assert verdicts[True] and verdicts[False]

    def test_statement_ii_is_the_cyclotomic_lemma(self):
        """On tilings, B splitting uniformly BA with A is the condition on
        Phi_d, A and the classes B_c that every dilate shares."""
        verdicts = collections.Counter()
        for tt, d in itertools.chain(oracle_corpus(), two_square_corpus()):
            got = statement_ii(tt, d)
            assert got is cyclotomic_statement_ii(tt, d), (tt, d)
            verdicts[got] += 1
        assert verdicts[True] > 1000 and verdicts[False] > 1000

    def test_slabcor_premise_matches_member_scan(self, monkeypatch):
        """The premise alone: the slab conditions it implies are stubbed
        as holding."""
        monkeypatch.setattr(rd, "slab_equivalence_check",
                            lambda t, d: types.SimpleNamespace(holds=True))
        fibered_only = 0
        for tt, d in oracle_corpus():
            fibered, saturated = literal_slabcor_premise(tt, d)
            assert rd.slabcor_check(tt, d) == (fibered or saturated,) * 2, (tt, d)
            fibered_only += fibered and not saturated
        assert fibered_only > 1000


def literal_ab_fibers(A, rB, direction):
    """The points on AB fibers of A + rB, read off fiber_parity anchor by
    anchor."""
    t = tl.Tiling(A, rB, check=False)
    M = A.context.M
    step = M // A.context.primes[direction][0]
    return sum(1 << z for anchor in range(step)
               if sp.fiber_parity(t, anchor, direction) is sp.Parity.AB
               for z in range(anchor, M, step))


def outcome(check, *args):
    """The return value, or the type and message of the tilelab error."""
    try:
        return check(*args)
    except TilelabError as exc:
        return type(exc), str(exc)


def statement_ii_cases(pairs):
    """(A, rB, direction) for every direction and every unit r, each
    distinct input once."""
    seen = set()
    for t in pairs:
        ctx = t.context
        for d in range(len(ctx.primes)):
            for r in units(ctx):
                rB = t.B.dilate(r)
                key = (ctx.M, t.A.mask, rB.mask, d)
                if key not in seen:
                    seen.add(key)
                    yield t.A, rB, d


class TestStatementIIKernel:
    """The parity decider of statement (II) against fiber_parity at every
    anchor of each dilate rB, and its cost: given a split report, the
    splitting check decides no parity and builds no report or dilate."""

    def test_tilings_match_literal_report(self):
        values = collections.Counter()
        for t in oracle_tilings():
            for A, rB, d in statement_ii_cases((t, t.swapped())):
                want = literal_ab_fibers(A, rB, d)
                got = sp._ab_fibers(tl.Tiling(A, rB, check=False), d)
                assert got == want, (A, rB, d)
                values[want == 0] += 1
        assert values[True] > 10000 and values[False] > 10000

    def test_unchecked_pairs_match_literal_report(self):
        double = uncovered = 0
        for t in unchecked_pairs(1200, seed=6, moduli=(8, 36)):
            for A, rB, d in statement_ii_cases((t, t.swapped())):
                want = outcome(literal_ab_fibers, A, rB, d)
                got = outcome(sp._ab_fibers, tl.Tiling(A, rB, check=False), d)
                assert got == want, (A, rB, d)
                if type(want) is tuple:
                    double += "double cover" in want[1]
                    uncovered += "uncovered" in want[1]
        assert double > 1000 and uncovered > 1000

    def test_corpus_builds_no_reports(self, monkeypatch):
        reports = [sp.split_report(tt, d) for t in corpus(24)
                   for tt in (t, t.swapped())
                   for d in range(len(tt.context.primes))]
        calls = collections.Counter()

        def counting(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(sp, "split_report", counting(
            "split_report", sp.split_report))
        monkeypatch.setattr(sp, "_ab_fibers", counting(
            "_ab_fibers", sp._ab_fibers))
        monkeypatch.setattr(tl.TileSet, "dilate", counting(
            "dilate", tl.TileSet.dilate))
        for report in reports:
            rd.splittingslab_equiv_check(report)
        assert calls == {}


class TestSlabcor:
    def test_fibered_tile_applies(self):
        assert rd.slabcor_check(T(12, [0, 6], range(6)), 0) == (True, True)

    def test_plane_saturated_tile_applies(self):
        assert rd.slabcor_check(t12(), 0) == (True, True)

    def test_neither_hypothesis(self):
        assert rd.slabcor_check(t12(), 1) == (False, False)

    def test_implication_over_corpus(self):
        for t in corpus(12):
            for d in range(2):
                applicable, implied = rd.slabcor_check(t, d)
                assert implied == applicable


class TestPlaneBound:
    def test_worked_example(self):
        assert rd.plane_bound_check(t12().B, 0)

    def test_singleton(self):
        assert rd.plane_bound_check(tl.TileSet(tl.factorize(12), [0]), 0)

    def test_overloaded_plane_detected(self):
        bad = tl.TileSet(tl.factorize(12), [0, 1, 4, 8])
        assert not rd.plane_bound_check(bad, 0)

    def test_holds_for_tiles_over_corpus(self):
        for t in corpus(12):
            for d in range(2):
                assert rd.plane_bound_check(t.A, d)
                assert rd.plane_bound_check(t.B, d)


class TestBlowbound:
    def test_worked_example(self):
        # p=3 exceeds gcd(|B|, 4) = 1 and 4 is missing from Div(A)
        assert rd.blowbound_check(sp.split_report(t12(), 1)) == (True, True)

    def test_not_applicable(self):
        assert rd.blowbound_check(sp.split_report(t12(), 0)) == (False, False)

    def test_never_falsified_over_corpus(self):
        applicable = 0
        for M in (12, 16):
            for t in corpus(M):
                for d in range(len(t.context.primes)):
                    app, verdict = rd.blowbound_check(sp.split_report(t, d))
                    applicable += app
                    assert verdict == app
        assert applicable > 0


# Z_900 tilings on which M/5 = 180 lies in neither Div(A) nor Div(B) and
# Phi_25 divides B only: the slab side used to default to A, fail its gate
# and fall back to direct_check with an empty chain.  Found by a seeded
# search over lifted digit tilings (each prime's two levels on opposite
# tiles, every digit d < m lifted to d + m k_d).
SLAB_ON_B_900 = (
    ([4, 6, 40, 68, 82, 156, 190, 204, 206, 218, 240, 282, 354, 356,
      390, 404, 418, 432, 554, 556, 568, 590, 618, 632, 706, 740, 754,
      768, 782, 832],
     [132, 189, 202, 212, 222, 242, 259, 269, 279, 299, 432, 489, 502,
      512, 522, 542, 559, 569, 579, 599, 732, 789, 802, 812, 822, 842,
      859, 869, 879, 899]),
    ([30, 63, 66, 114, 180, 189, 255, 288, 291, 292, 330, 339, 367,
      414, 489, 517, 555, 588, 591, 592, 663, 666, 667, 714, 813, 816,
      855, 888, 891, 892],
     [15, 25, 30, 40, 135, 140, 150, 155, 160, 260, 270, 275, 355,
      370, 395, 465, 475, 480, 490, 585, 590, 600, 605, 610, 710, 720,
      725, 805, 820, 845]),
    ([26, 27, 30, 54, 78, 176, 177, 180, 204, 228, 326, 327, 330, 354,
      378, 476, 477, 480, 504, 528, 626, 627, 630, 654, 678, 776, 777,
      780, 804, 828],
     [30, 60, 120, 140, 165, 195, 230, 250, 255, 275, 280, 340, 365,
      385, 415, 450, 475, 540, 585, 620, 650, 670, 675, 710, 755, 760,
      785, 805, 845, 895]),
)


class TestSlabOrientation:
    @pytest.mark.parametrize("A, B", SLAB_ON_B_900)
    def test_side_carries_phi_pn(self, A, B):
        t = T(900, A, B)
        assert 180 not in div_set(t.A) | div_set(t.B)
        assert tl.divides_mask(25, t.B) and not tl.divides_mask(25, t.A)
        cert = rd.prove_t2_largeprime(t)
        kinds = [(type(s).__name__, s.p) for s in cert.steps]
        assert kinds == [("SlabStep", 5), ("PrimeRemovalStep", 5)]
        assert cert.steps[0].result.A == rd._projected_slab(t.B, 2)
        assert cert.base_primes == 2
        with pytest.raises(InvariantViolationError,
                           match="slab step does not replay"):
            rd.replay_certificate(_slab_other_tile(cert))


class TestProver:
    def test_removal_certificate(self):
        cert = rd.prove_t2_largeprime(T(84, range(0, 84, 12), range(12)))
        assert len(cert.steps) == 1
        step = cert.steps[0]
        assert isinstance(step, rd.PrimeRemovalStep)
        assert (step.p, dilated_side(cert.input, step)) == (7, "B")
        assert len(step.side_certificates) == 6
        assert cert.base_primes == 2
        assert cert.large_prime_hypothesis
        assert t2_recorded(cert)
        assert rd.certificate_to_json(cert)["steps"] == [
            {"kind": "prime_removal", "p": 7},
            {"kind": "base", "primes": 2},
        ]

    def test_slab_then_removal_certificate(self):
        cert = rd.prove_t2_largeprime(product_tiling_900())
        kinds = [(type(s).__name__, s.p) for s in cert.steps]
        assert kinds == [("SlabStep", 5), ("PrimeRemovalStep", 5)]
        assert cert.steps[0].result.A == rd._projected_slab(cert.input.A, 2)
        assert dilated_side(cert.steps[0].result, cert.steps[1]) == "A"
        assert cert.base_primes == 2
        # 5 is not larger than D(36), so the headline hypothesis is absent,
        # yet the reduction chain still goes through
        assert not cert.large_prime_hypothesis
        assert t2_recorded(cert)
        assert rd.replay_certificate(cert)

    def test_single_prime_immediate_base(self):
        cert = rd.prove_t2_largeprime(T(4, [0, 1], [0, 2]))
        assert cert.steps == ()
        assert cert.base_primes == 1
        assert t2_recorded(cert)

    def test_deterministic_output(self):
        t = T(84, range(0, 84, 12), range(12))
        one = rd.certificate_to_json(rd.prove_t2_largeprime(t))
        two = rd.certificate_to_json(rd.prove_t2_largeprime(t))
        assert one == two

    def test_replay_rejects_tampering(self):
        cert = rd.prove_t2_largeprime(T(84, range(0, 84, 12), range(12)))
        step = cert.steps[0]
        wrong = step.side_certificates[0].input
        bad_step = step._replace(result=wrong)
        bad = cert._replace(steps=(bad_step,) + cert.steps[1:])
        with pytest.raises(InvariantViolationError):
            rd.replay_certificate(bad)

    @pytest.mark.parametrize("name", sorted(TAMPERINGS))
    def test_replay_rejects_tampering_at_the_top(self, name):
        tamper, error = TAMPERINGS[name]
        cert = rd.prove_t2_largeprime(product_tiling_900())
        with pytest.raises(error):
            rd.replay_certificate(tamper(cert))

    @pytest.mark.parametrize("name", sorted(TAMPERINGS))
    def test_replay_rejects_tampering_in_a_side_certificate(self, name):
        tamper, error = TAMPERINGS[name]
        cert = rd.prove_t2_largeprime(lifted_tiling_6300())
        step = cert.steps[0]
        first, *rest = step.side_certificates
        assert [type(s) for s in first.steps] == [rd.SlabStep,
                                                  rd.PrimeRemovalStep]
        bad = _replace_step(cert, rd.PrimeRemovalStep,
                            side_certificates=(tamper(first), *rest))
        with pytest.raises(error):
            rd.replay_certificate(bad)

    @pytest.mark.parametrize("make", [
        lambda: T(84, range(0, 84, 12), range(12)), product_tiling_900,
        lifted_tiling_6300], ids=["Z84", "Z900", "Z6300"])
    def test_one_replay_per_certificate_node(self, monkeypatch, make):
        real = rd.replay_certificate
        replayed = []

        def counting(cert):
            replayed.append(cert)
            return real(cert)

        monkeypatch.setattr(rd, "replay_certificate", counting)
        cert = rd.prove_t2_largeprime(make())
        assert len(replayed) == certificate_nodes(cert) > 1
        assert len(set(map(id, replayed))) == len(replayed)

    @pytest.mark.parametrize("make", [
        lambda: T(84, range(0, 84, 12), range(12)), product_tiling_900,
        lifted_tiling_6300], ids=["Z84", "Z900", "Z6300"])
    def test_each_tiling_is_verified_once(self, monkeypatch, make):
        real = tl.verify_direct
        verified = []

        def counting(A, B):
            verified.append(tl.Tiling(A, B, check=False))
            return real(A, B)

        t = make()
        monkeypatch.setattr(rd, "verify_direct", counting)
        monkeypatch.setattr(tl.tiling, "verify_direct", counting)
        cert = rd.prove_t2_largeprime(t)
        # replay verifies every tiling once; prove adds its up-front check
        expected = collections.Counter(certificate_tilings(cert) + [t])
        assert collections.Counter(verified) == expected

    @pytest.mark.parametrize("make", [product_tiling_900, lifted_tiling_6300],
                             ids=["Z900", "Z6300"])
    def test_broken_slab_kernel_is_a_bug(self, monkeypatch, capsys, make):
        monkeypatch.setattr(rd, "_projected_slab",
                            _drop_first_member(rd._projected_slab))
        t = make()
        with pytest.raises(InvariantViolationError):
            rd.prove_t2_largeprime(t)
        code = tilelab.cli.main(["prove", json.dumps(tl.tiling_to_json(t))])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("invariant violation (bug): ")

    def test_replay_verifies_the_slab_pair(self, monkeypatch):
        cert = rd.prove_t2_largeprime(product_tiling_900())
        broken = _drop_first_member(rd._projected_slab)
        step = cert.steps[0]
        oriented = (cert.input if tl.divides_mask(25, cert.input.A)
                    else cert.input.swapped())
        child = tl.Tiling(broken(oriented.A, 2), step.result.B, check=False)
        bad = _replace_step(cert, rd.SlabStep, result=child)
        monkeypatch.setattr(rd, "_projected_slab", broken)
        with pytest.raises(EquivalenceViolationError,
                           match="projected pair is not a tiling"):
            rd.replay_certificate(bad)

    def test_stuck_names_the_slab_gate(self, monkeypatch, capsys):
        monkeypatch.setattr(rd, "slab_cond_ii", lambda t, d: (False, 900))
        monkeypatch.setattr(rd, "check_T2", lambda A: False)
        t = product_tiling_900()
        gate = "slab gate: divisor exclusion fails at m=900"
        with pytest.raises(PipelineStuckError) as stuck:
            rd.prove_t2_largeprime(t)
        assert str(stuck.value).endswith(gate)
        code = tilelab.cli.main(["prove", json.dumps(tl.tiling_to_json(t))])
        out, _ = capsys.readouterr()
        assert code == 1 and json.loads(out)["stuck"].endswith(gate)

    def test_stuck_non_tiling_is_a_bug(self):
        # no prime divides exactly one of |A| = |B| = 6, neither slab gate
        # opens and A fails (T2): only a kernel bug could lead here
        t = T(30, [0, 1, 3, 8, 13, 26], [0, 3, 9, 18, 24, 28], check=False)
        with pytest.raises(InvariantViolationError, match="non-tiling"):
            rd._derive_certificate(t)

    def test_every_non_tiling_is_an_input_error(self):
        certified = 0
        digest = hashlib.sha256()
        kinds = collections.Counter()

        def count_kinds(cert):
            kinds["two_primes" if cert.base_primes <= 2
                  else "direct_check"] += 1
            for step in cert.steps:
                kinds[type(step).__name__] += 1
                for side in getattr(step, "side_certificates", ()):
                    count_kinds(side)

        for t in unchecked_pairs(1500, seed=9, moduli=(2, 120)):
            if not tl.verify_direct(t.A, t.B):
                with pytest.raises(InputError, match="not a tiling"):
                    rd.prove_t2_largeprime(t)
                continue
            cert = rd.prove_t2_largeprime(t)
            certified += 1
            digest.update(json.dumps(rd.certificate_to_json(cert),
                                     sort_keys=True).encode())
            count_kinds(cert)
        # pinned before the prover's checks moved into replay
        assert certified == 608
        assert kinds == {"two_primes": 834, "PrimeRemovalStep": 28}
        assert digest.hexdigest() == (
            "913fee469aac8e73296d9e73351276a3ba2d0e11ffabcfe48537d9a7cdbd61cc")

    def test_replay_never_asks_the_prover(self, monkeypatch):
        cert = rd.prove_t2_largeprime(lifted_tiling_6300())

        def forbidden(*args):
            raise AssertionError("replay re-ran a prover choice")

        for name in ("_derive_certificate", "_removal_prime"):
            monkeypatch.setattr(rd, name, forbidden)
        assert rd.replay_certificate(cert)

    def test_sampled_three_prime_corpus(self):
        for t in tl.sample_tilings(tl.factorize(84), 12):
            cert = rd.prove_t2_largeprime(t)
            assert t2_recorded(cert)
            assert rd.replay_certificate(cert)

    def test_two_prime_corpus_is_base_only(self):
        for t in corpus(12)[::9]:
            cert = rd.prove_t2_largeprime(t)
            assert cert.steps == ()
            assert cert.base_primes <= 2
            assert t2_recorded(cert)


SZABO_PRIMES = [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 5, 7)]


class TestSzabo:
    """Szabó's tilings: neither tile is periodic, yet the prover closes
    both orientations with a slab step and a prime removal."""

    @pytest.mark.parametrize("ps", SZABO_PRIMES, ids=str)
    def test_no_tile_is_periodic(self, ps):
        t = szabo_tiling(*ps)
        M = t.context.M
        for tile in (t.A, t.B):
            for p, _ in t.context.primes:
                assert {(v + M // p) % M for v in tile} != set(tile), (tile, p)

    @pytest.mark.parametrize("ps", SZABO_PRIMES, ids=str)
    def test_slab_then_removal_to_a_two_prime_base(self, ps):
        t = szabo_tiling(*ps)
        for tt in (t, t.swapped()):
            cert = rd.prove_t2_largeprime(tt)
            assert [type(s) for s in cert.steps] == [rd.SlabStep,
                                                     rd.PrimeRemovalStep]
            assert cert.base_primes == 2
            # p3 > rad(M/p3^2) = p1 p2 only for 7 > 2 * 3
            assert cert.large_prime_hypothesis == (t.context.M == 1764)

    @pytest.mark.parametrize("ps", SZABO_PRIMES, ids=str)
    def test_sweep_records_no_violation(self, ps):
        _, violations, _ = tilelab.cli._sweep_one(szabo_tiling(*ps), "all")
        assert violations == []

    def test_certificate_bytes_are_pinned(self):
        digest = hashlib.sha256()
        for ps in SZABO_PRIMES:
            t = szabo_tiling(*ps)
            for tt in (t, t.swapped()):
                cert = rd.prove_t2_largeprime(tt)
                digest.update(json.dumps(rd.certificate_to_json(cert),
                                         sort_keys=True).encode())
        assert digest.hexdigest() == (
            "f7a2e92d0154dd62969aafc6560dfa8676a7e47751e0d382b72e6ce82b5401e8")


def certificate_structure(cert):
    """Every step of a certificate, nested side certificates included: its
    kind, p and result pair, as JSON-ready lists."""
    return [[type(step).__name__, step.p, step.result.context.M,
             step.result.A.mask, step.result.B.mask,
             [certificate_structure(side)
              for side in getattr(step, "side_certificates", ())]]
            for step in cert.steps]


class TestLiftedDigits:
    """Lifted digit tilings of three-prime moduli take the slab step: both
    orientations of each prove by a slab step and a prime removal."""

    def test_certificates_are_pinned(self):
        rng = random.Random(1)
        digest = hashlib.sha256()
        shapes = collections.Counter()
        bases = 0

        def count_bases(cert):
            return (cert.base_primes <= 2) + sum(
                count_bases(side) for step in cert.steps
                for side in getattr(step, "side_certificates", ()))

        for M, count in ((900, 150), (1764, 100), (4356, 40), (4900, 40)):
            for t in lifted_tilings(M, count, rng):
                for tt in (t, t.swapped()):
                    cert = rd.prove_t2_largeprime(tt)
                    shapes[tuple(type(s).__name__ for s in cert.steps)] += 1
                    bases += count_bases(cert)
                    digest.update(json.dumps(rd.certificate_to_json(cert),
                                             sort_keys=True).encode())
                    digest.update(json.dumps(
                        certificate_structure(cert)).encode())
        assert shapes == {("SlabStep", "PrimeRemovalStep"): 660}
        assert bases == 4340
        # pinned while each SlabStep still recorded its side
        assert digest.hexdigest() == (
            "ecd7354ce8d11bfbb3870ee7496541f7e0883a20611b5468b033d0625a81f039")
