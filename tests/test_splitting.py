"""Splitting parities, uniformity verdicts, and fibered-grid machinery."""

import collections
import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

import tilelab as tl
from tilelab import cli, reduction as rd, splitting as sp
from tilelab.errors import (InputError, InvariantViolationError,
                            LemmaViolationError, NeitherParityError,
                            NotFiberedError, TilelabError)
from tilelab.splitting import Parity

from conftest import (corpus, digit_tilings, literal_full_fibers,
                      oracle_tilings, unchecked_pairs)


def T(M, A, B, check=True):
    ctx = tl.factorize(M)
    return tl.Tiling(tl.TileSet(ctx, A), tl.TileSet(ctx, B), check=check)


def t9():
    return T(9, [0, 1, 2], [0, 3, 6])


def t12():
    return T(12, [0, 1, 6, 7], [0, 4, 8])


def oracle_outcome(t, anchor, direction):
    """Definition scan on plain residues, independent of coordinate tables:
    the parity, or "both parities" / "neither parity"."""
    ctx = t.context
    p, n = ctx.primes[direction]
    q, low = p ** n, p ** (n - 1)
    step = ctx.M // p
    a_of, b_of = t.decomp
    zone = range(anchor % step, ctx.M, step)
    sa = {a_of[w] for w in zone}
    sb = {b_of[w] for w in zone}

    def collapses(vals):
        return len({v % q for v in vals}) == 1

    def exact(vals):
        # distinct mod p^n, pairwise differences exactly divisible by p^{n-1}
        if len({v % q for v in vals}) != len(vals):
            return False
        return len({v % low for v in vals}) == 1

    ab = collapses(sa) and exact(sb)
    ba = collapses(sb) and exact(sa)
    if ab == ba:
        return "both parities" if ab else "neither parity"
    return Parity.AB if ab else Parity.BA


def oracle_parity(t, anchor, direction):
    got = oracle_outcome(t, anchor, direction)
    assert isinstance(got, Parity), \
        "parity must be unambiguous on a genuine tiling"
    return got


def parity_outcome(t, anchor, direction):
    """fiber_parity's answer, or the kind named by its NeitherParityError."""
    try:
        return sp.fiber_parity(t, anchor, direction)
    except NeitherParityError as exc:
        return "both parities" if "both parities" in str(exc) else "neither parity"


class FakeDecomp:
    """Stand-in carrying a hand-built cover table, for negative tests; its
    tiles are the parts the table uses."""

    def __init__(self, ctx, a_of, b_of):
        self.context = ctx
        self.decomp = (a_of, b_of)
        self.A = tl.TileSet(ctx, a_of)
        self.B = tl.TileSet(ctx, b_of)


def literal_split_report(t, direction):
    """split_report read off the cover table in one pass: the fiber at
    anchor is AB when the A-parts of its points hold one coordinate, BA
    when the B-parts do, and fiber_parity raises at the first anchor with
    both or neither."""
    ctx = t.context
    p, _ = ctx.check_direction(direction)
    step = ctx.M // p
    table = ctx.coord_tables[direction]
    a_of, b_of = t.decomp
    ca = [table[a] for a in a_of]
    cb = [table[b] for b in b_of]
    ab = 0
    for anchor in range(step):
        flat_a = len(set(ca[anchor::step])) == 1
        if flat_a == (len(set(cb[anchor::step])) == 1):
            sp.fiber_parity(t, anchor, direction)
        ab |= flat_a << anchor
    return sp.SplitReport(t, direction, p, step, ab,
                          sum(1 << k for k in {a % step for a in t.A.members}),
                          sum(1 << k for k in {b % step for b in t.B.members}))


def parities(report):
    """The parity of each anchor of a split report, read off its mask."""
    return {k: Parity.AB if report.ab_mask >> k & 1 else Parity.BA
            for k in range(report.step)}


def anchors(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def outcome_with_message(check, *args):
    """The return value, or the type and message of the tilelab error."""
    try:
        return check(*args)
    except TilelabError as exc:
        return type(exc), str(exc)


class TestFiberParity:
    def test_collapsing_a_side(self):
        # single a=0 serves the whole fiber; b-differences exactly div by 3
        assert sp.fiber_parity(t9(), 0, 0) is Parity.AB

    def test_collapsing_b_side(self):
        # fiber {0,6}: 0=0+0, 6=6+0, a-difference 6 with 2 exactly dividing
        assert sp.fiber_parity(t12(), 0, 0) is Parity.BA

    def test_matches_definition_scan(self):
        for t in oracle_tilings():
            for tt in (t, t.swapped()):
                for d, (p, _) in enumerate(tt.context.primes):
                    want = {anchor: oracle_parity(tt, anchor, d)
                            for anchor in range(tt.context.M // p)}
                    report = sp.split_report(tt, d)
                    assert parities(report) == want, (tt, d)
                    assert report == literal_split_report(tt, d)
                    for anchor, parity in want.items():
                        assert sp.fiber_parity(tt, anchor, d) is parity

    @pytest.mark.parametrize("M", [72, 120, 360, 720])
    def test_matches_literal_report_at_request_moduli(self, M):
        """Digit-product tilings, both orientations, every direction: the
        masks, and the JSON read off them, against the definition scan."""
        for t in digit_tilings(M, 12, seed=M):
            for tt in (t, t.swapped()):
                for d, (p, _) in enumerate(tt.context.primes):
                    report = sp.split_report(tt, d)
                    assert report == literal_split_report(tt, d), (tt, d)
                    fibers = {anchor: oracle_parity(tt, anchor, d)
                              for anchor in range(M // p)}
                    anchor_sets = {
                        "": fibers, "A_": {a % (M // p) for a in tt.A},
                        "B_": {b % (M // p) for b in tt.B}}
                    got = report.to_json()
                    assert got["fibers"] == [
                        {"anchor": k, "parity": v.value}
                        for k, v in fibers.items()], (tt, d)
                    assert got["verdicts"] == {
                        f"{side}uniform_{x}": all(fibers[k] is Parity[x]
                                                  for k in keys)
                        for side, keys in anchor_sets.items()
                        for x in ("AB", "BA")}, (tt, d)

    def test_sum_consistent_tables_match_definition(self):
        # Cover tables with a_of[z] + b_of[z] = z that need not come from a
        # tiling: the one-side rule is exact on these too, "neither" included.
        rng = random.Random(5)
        seen = set()
        for M in (4, 8, 9, 12, 18, 24, 36, 72):
            ctx = tl.factorize(M)
            for d, (p, n) in enumerate(ctx.primes):
                q = p ** n
                step = M // p
                for _ in range(20):
                    modes = rng.choice(("ABN", "AB", "B", "BN"))
                    a_of = [0] * M
                    for anchor in range(step):
                        mode = rng.choice(modes)
                        u = rng.randrange(M)
                        for w in range(anchor, M, step):
                            near_u = (u + q * rng.randrange(M // q)) % M
                            a_of[w] = {"A": near_u, "B": (w - near_u) % M,
                                       "N": rng.randrange(M)}[mode]
                    b_of = tuple((w - a) % M for w, a in enumerate(a_of))
                    fake = FakeDecomp(ctx, tuple(a_of), b_of)
                    wants = [oracle_outcome(fake, anchor, d)
                             for anchor in range(step)]
                    for anchor, want in enumerate(wants):
                        assert parity_outcome(fake, anchor, d) == want
                        seen.add(want)
        assert seen == {Parity.AB, Parity.BA, "neither parity"}

    def test_anchor_reduced_mod_step(self):
        t = t12()
        assert sp.fiber_parity(t, 7, 0) is sp.fiber_parity(t, 1, 0)

    def test_invalid_direction_rejected(self):
        with pytest.raises(InputError):
            sp.fiber_parity(t12(), 0, 2)

    def test_neither_parity_aborts(self):
        fake = FakeDecomp(tl.factorize(4), (0, 1, 1, 0), (0, 0, 1, 3))
        with pytest.raises(NeitherParityError, match="neither"):
            sp.fiber_parity(fake, 0, 0)

    def test_both_parities_abort(self):
        fake = FakeDecomp(tl.factorize(4), (0, 1, 0, 1), (0, 0, 0, 2))
        with pytest.raises(NeitherParityError, match="both"):
            sp.fiber_parity(fake, 0, 0)

    def test_totality_over_corpus(self):
        # every fiber of every tiling gets exactly one parity, no aborts
        for M in (12, 16):
            for t in corpus(M):
                for d in range(len(t.context.primes)):
                    step = M // t.context.primes[d][0]
                    for anchor in range(step):
                        sp.fiber_parity(t, anchor, d)

    def test_parity_containments(self):
        # the collapsing side stays in its own p^{n-1}-plane, and so does
        # the spreading side: Sigma_X(Z) lies in the plane of any z=a+b
        for t in corpus(12):
            ctx = t.context
            a_of, b_of = t.decomp
            for d, (p, n) in enumerate(ctx.primes):
                low = p ** (n - 1)
                step = 12 // p
                for anchor in range(step):
                    zone = range(anchor, 12, step)
                    sa = {a_of[w] for w in zone}
                    sb = {b_of[w] for w in zone}
                    for w in zone:
                        assert all((s - a_of[w]) % low == 0 for s in sa)
                        assert all((s - b_of[w]) % low == 0 for s in sb)


class TestSplitReport:
    def test_uniform_ab(self):
        rep = sp.split_report(t9(), 0)
        assert parities(rep) == {0: Parity.AB, 1: Parity.AB, 2: Parity.AB}
        assert rep.uniform_ab and not rep.uniform_ba

    def test_uniform_ba(self):
        rep = sp.split_report(t12(), 0)
        assert set(parities(rep)) == set(range(6))
        assert all(v is Parity.BA for v in parities(rep).values())
        assert rep.uniform_ba and rep.a_uniform_ba and rep.b_uniform_ba
        assert not rep.uniform_ab

    def test_other_direction_of_same_tiling(self):
        rep = sp.split_report(t12(), 1)
        assert all(v is Parity.AB for v in parities(rep).values())
        assert rep.uniform_ab

    def test_m4_fiber_map(self):
        # both fibers: the single a collapses, b-diff 2 exactly div by 2
        rep = sp.split_report(T(4, [0, 1], [0, 2]), 0)
        assert parities(rep) == {0: Parity.AB, 1: Parity.AB}
        assert rep.uniform_ab and not rep.uniform_ba

    def test_anchor_sets(self):
        rep = sp.split_report(t12(), 0)
        assert anchors(rep.a_mask) == [0, 1]
        assert anchors(rep.b_mask) == [0, 2, 4]

    def test_non_covers_raise_the_literal_error(self):
        errors = collections.Counter()
        for t in unchecked_pairs(600, seed=7, moduli=(2, 36)):
            for tt in (t, t.swapped()):
                for d in range(len(tt.context.primes)):
                    want = outcome_with_message(literal_split_report, tt, d)
                    assert outcome_with_message(sp.split_report, tt, d) == want
                    if type(want) is tuple:
                        errors[want[1].split()[0]] += 1
        assert errors["double"] > 500 and errors["residue"] > 100

    def test_non_covers_at_request_moduli(self):
        for M in (72, 120, 360, 720):
            for t in unchecked_pairs(20, seed=M, moduli=(M, M)):
                for tt in (t, t.swapped()):
                    for d in range(len(tt.context.primes)):
                        assert (outcome_with_message(sp.split_report, tt, d)
                                == outcome_with_message(literal_split_report,
                                                        tt, d))

    def test_verdicts_consistent_with_map(self):
        for t in corpus(16)[::23]:
            rep = sp.split_report(t, 0)
            fibers = parities(rep)
            a_vals = {fibers[k] for k in anchors(rep.a_mask)}
            assert rep.a_uniform_ab == (a_vals == {Parity.AB})
            assert rep.a_uniform_ba == (a_vals == {Parity.BA})
            assert rep.uniform_ab == all(
                v is Parity.AB for v in fibers.values())

    def test_json_shape(self):
        got = sp.split_report(T(4, [0, 1], [0, 2]), 0).to_json()
        assert got == {
            "direction": 2,
            "direction_index": 0,
            "fibers": [{"anchor": 0, "parity": "AB"},
                       {"anchor": 1, "parity": "AB"}],
            "verdicts": {
                "uniform_AB": True, "uniform_BA": False,
                "A_uniform_AB": True, "A_uniform_BA": False,
                "B_uniform_AB": True, "B_uniform_BA": False,
            },
        }


class TestDeciderDisagreement:
    """With a broken full-fiber kernel the parity decider finds neither
    parity on a real tiling, where fiber_parity finds one: that raises an
    invariant violation and never returns the literal answer instead."""

    @pytest.fixture(autouse=True)
    def no_full_fibers(self, monkeypatch):
        monkeypatch.setattr(tl.ZmContext, "full_fibers", lambda *args: 0)

    def test_split_report_raises(self):
        with pytest.raises(InvariantViolationError, match=r"fiber 0\*F") as got:
            sp.split_report(t12(), 0)
        assert type(got.value) is InvariantViolationError

    def test_statement_ii_raises(self):
        with pytest.raises(InvariantViolationError, match="mask decider"):
            rd.splittingslab_equiv_check(sp.split_report(t12(), 0),
                                         rd.slab_equivalence_check(t12(), 0))

    def test_analyze_exits_three(self, capsys):
        code = cli.main(["analyze", '{"M":12,"A":[0,1,6,7],"B":[0,4,8]}',
                         "--split"])
        assert code == 3
        assert "invariant violation (bug): fiber 0*F" in capsys.readouterr().err


def parities_follow_translate(t, c, direction):
    """Whether the split_report parities of (A - c) + B are those of A + B
    with every anchor moved by -c: translating A carries its fibers along."""
    ctx = t.context
    step = ctx.M // ctx.primes[direction][0]
    shifted = tl.TileSet(ctx, [(a - c) % ctx.M for a in t.A])
    base = parities(sp.split_report(t, direction))
    moved = parities(sp.split_report(tl.Tiling(shifted, t.B), direction))
    return all(moved[(anchor - c) % step] is base[anchor] for anchor in base)


class TestTranslateSplitting:
    """Translation symmetry of the parities, a property of the definitions."""

    def test_zero_shift(self):
        assert parities_follow_translate(t9(), 0, 0)

    def test_worked_examples(self):
        assert parities_follow_translate(t9(), 1, 0)
        assert parities_follow_translate(t12(), 7, 0)

    @given(st.integers(min_value=-12, max_value=24))
    def test_every_shift_of_the_worked_tiling(self, c):
        assert parities_follow_translate(t12(), c, 0)
        assert parities_follow_translate(t12(), c, 1)

    @given(st.sampled_from([8, 12, 16, 18, 20, 24]), st.data())
    def test_equivariance_over_corpus(self, M, data):
        t = data.draw(st.sampled_from(corpus(M)))
        c = data.draw(st.integers(min_value=-M, max_value=2 * M))
        d = data.draw(st.integers(min_value=0,
                                  max_value=len(t.context.primes) - 1))
        assert parities_follow_translate(t, c, d)
        assert parities_follow_translate(t.swapped(), c, d)


class TestDisjointSigma:
    def test_vacuous_pair_reports_not_applicable(self):
        # A={0,1,6,7} meets the 4-plane of 0 only at 0: no candidate pair
        assert sp.check_disjoint_sigma(t12(), 0, 6, 0) is None

    def test_single_prime_power_never_applicable(self):
        # with M = p^n the hypothesis p^n | a0-a1 forces a0 = a1
        for t in corpus(16)[::11]:
            if not t.B.mask & 1:
                continue
            A = sorted(t.A)
            for i, a0 in enumerate(A):
                for a1 in A[i + 1:]:
                    assert sp.check_disjoint_sigma(t, a0, a1, 0) is None

    def test_worked_applicable_pair(self):
        t = T(12, range(6), [0, 6])
        assert sp.check_disjoint_sigma(t, 0, 3, 1) is True

    def test_corpus_never_violated(self):
        applicable = 0
        for t in corpus(12):
            if not t.B.mask & 1:
                continue
            A = sorted(t.A)
            for d in range(2):
                for i, a0 in enumerate(A):
                    for a1 in A[i + 1:]:
                        got = sp.check_disjoint_sigma(t, a0, a1, d)
                        if got is not None:
                            applicable += 1
                            assert got is True
        assert applicable == 222

    def test_bad_inputs_rejected(self):
        t = t12()
        with pytest.raises(InputError):
            sp.check_disjoint_sigma(t, 0, 2, 0)   # 2 not in A
        with pytest.raises(InputError):
            sp.check_disjoint_sigma(t, 6, 6, 0)


class TestLocalDistribution:
    def test_worked_example(self):
        # A meets the 2-plane of 0 at {0,6}, both fibers BA; the two
        # 4-planes hold one element each and 1+X^6 vanishes at i
        assert sp.check_local_distribution(t12(), 0, 0) is True

    def test_ab_fiber_makes_it_inapplicable(self):
        assert sp.check_local_distribution(t9(), 0, 0) is None

    def test_corpus_never_false(self):
        for t in corpus(12):
            if not t.B.mask & 1:
                continue
            for a0 in t.A:
                for d in range(2):
                    assert sp.check_local_distribution(t, a0, d) is not False

    def test_nonmember_rejected(self):
        with pytest.raises(InputError):
            sp.check_local_distribution(t12(), 2, 0)

    def test_matches_literal_planes(self):
        """Same value or exception type as a copy that builds each plane
        Pi(x, p^alpha) as the residues range(x % p^alpha, M, p^alpha), on
        tilings and on pairs that do not tile (no cover: decomp raises).
        No tiling gives False, which would break the lemma."""
        tilings = [t for M in range(1, 17) for t in corpus(M)]
        tilings += random.Random(36).sample(corpus(36, 2000), 100)
        tilings += unchecked_pairs(100, seed=16, moduli=(4, 24))
        seen = set()
        for t in tilings:
            for tt in (t, t.swapped()):
                for a0 in range(tt.context.M):
                    for d in range(len(tt.context.primes)):
                        got = outcome(sp.check_local_distribution, tt, a0, d)
                        assert got == outcome(literal_local_distribution,
                                              tt, a0, d), (tt, a0, d)
                        seen.add(got)
        assert seen == {True, None, InputError, InvariantViolationError}


def outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:
        return type(exc)


def literal_local_distribution(t, a0, direction):
    ctx = t.context
    M = ctx.M
    p, n = ctx.check_direction(direction)
    if a0 % M not in t.A:
        raise InputError(f"{a0} is not an element of A")
    if 0 not in t.B:
        return None

    def a_on_plane(x, alpha):
        q = p ** alpha
        return tl.TileSet(ctx, [y for y in range(x % q, M, q) if y in t.A])

    low_plane = a_on_plane(a0, n - 1)
    if any(sp.fiber_parity(t, a, direction) is not Parity.BA
           for a in low_plane):
        return None
    counts = {len(a_on_plane(a0 + nu * M // p, n)) for nu in range(p)}
    if len(counts) != 1:
        return False
    return tl.divides_mask(p ** n, low_plane)


class TestAunif:
    def test_worked_example(self):
        assert sp.check_aunif(sp.split_report(t12(), 0)) is True

    def test_vacuous_when_not_a_uniform_ba(self):
        assert sp.check_aunif(sp.split_report(t9(), 0)) is True

    def test_vacuous_when_zero_not_in_b(self):
        t = T(12, [0, 1, 6, 7], [1, 5, 9])
        assert sp.check_aunif(sp.split_report(t, 0)) is True

    def test_implication_never_falsified(self):
        for M in (12, 16):
            for t in corpus(M):
                for d in range(len(t.context.primes)):
                    assert sp.check_aunif(sp.split_report(t, d))


def literal_plane_consistency(t, z, pair):
    """The plane lemma on the one grid L(z, M/p_i p_j): the least direction
    nu of the pair whose p_nu^{n_nu - 1}-planes, read off the coordinate
    tables, hold Sigma_A and Sigma_B."""
    ctx = t.context
    i, j = pair
    pi, _ = ctx.check_direction(i)
    pj, _ = ctx.check_direction(j)
    if i == j:
        raise InputError("plane consistency needs two distinct directions")
    step = ctx.M // (pi * pj)
    a_of, b_of = t.decomp
    sa, sb = set(a_of[z % step::step]), set(b_of[z % step::step])
    for nu in sorted(pair):
        p, n = ctx.primes[nu]
        table = ctx.coord_tables[nu]
        q = p ** (n - 1)
        if (len({table[x] % q for x in sa}) == 1
                and len({table[x] % q for x in sb}) == 1):
            return nu
    raise LemmaViolationError(
        f"no consistent direction for grid at {z % step} (pair p={pi},{pj}): "
        f"Sigma_A={sorted(sa)} Sigma_B={sorted(sb)}")


def literal_cross_direction(t, z, pair):
    """The cross-direction lemma on the one grid L(z, M/p_i p_j), tested
    against every anchor in turn: True, or None when no a0 of Sigma_A has
    its full direction-i fiber in A."""
    ctx = t.context
    i, j = pair
    pi, _ = ctx.check_direction(i)
    pj, nj = ctx.check_direction(j)
    if i == j:
        raise InputError("cross-direction check needs two distinct directions")
    step = ctx.M // (pi * pj)
    sa = set(t.decomp[0][z % step::step])
    full = ctx.full_fibers(t.A.mask, i)
    anchors = [a for a in sa if full >> a & 1]
    if not anchors:
        return None
    table = ctx.coord_tables[j]
    q = pj ** (nj - 1)
    for a0 in anchors:
        want = table[a0] % q
        bad = [a for a in sa if table[a] % q != want]
        if bad:
            raise LemmaViolationError(
                f"Sigma_A escapes the plane of a0={a0} (directions "
                f"p={pi},{pj}): offending elements {sorted(bad)}")
    return True


def grid_step(t, pair):
    return t.context.M // (t.context.primes[pair[0]][0]
                           * t.context.primes[pair[1]][0])


def grid_outcome(check, t, pair):
    """The pair-wide answer of a grid lemma, or its error's type and text."""
    try:
        return check(t, pair)
    except InvariantViolationError as exc:
        return type(exc), str(exc)


def literal_grid_outcome(literal, t, pair):
    """The literal per-grid answers of every grid of the pair in turn, or
    the first grid's error, as grid_outcome gives them."""
    answers = []
    for z in range(grid_step(t, pair)):
        try:
            answers.append(literal(t, z, pair))
        except InvariantViolationError as exc:
            return z, type(exc), str(exc)
    return answers


def assert_same_outcome(check, literal, t, pair):
    """The pair form checks every grid as the literal per-grid form does:
    the same answers, or the same error at the same first grid.  A cross
    check's escape names the same a0 and offending set."""
    got = grid_outcome(check, t, pair)
    want = literal_grid_outcome(literal, t, pair)
    if isinstance(want, list):
        if literal is literal_plane_consistency:
            assert got == tuple(want)
        else:
            assert got == (tuple(z for z, ok in enumerate(want) if ok)
                           or None)
        return False
    z, kind, text = want
    assert got[0] is kind
    assert f"grid at {z} " in got[1]
    if literal is literal_plane_consistency:
        assert got[1] == text
    else:
        witness = re.compile(r"a0=(\d+) .*offending elements (\[.*\])$")
        assert witness.search(got[1]).groups() == witness.search(text).groups()
    return True


def grid_corpus():
    """Three-prime tilings: a Z_60 sample and digit tilings of Z_900 and
    Z_1764, where both exponents of some pairs exceed one."""
    return [*corpus(60, 2000), *digit_tilings(900, 30, seed=900),
            *digit_tilings(1764, 20, seed=1764)]


def escaping_fakes(count, seed):
    """Random cover tables on Z_36, Z_100 and Z_225 whose A-parts hold
    whole direction fibers of several residue classes, so that Sigma_A of
    some grids meets two or more anchors in different planes."""
    rng = random.Random(seed)
    for _ in range(count):
        ctx = tl.factorize(rng.choice((36, 100, 225)))
        p = ctx.primes[rng.randrange(2)][0]
        seeds = rng.sample(range(ctx.M), rng.randint(2, 4))
        pool = sorted({(a + k * ctx.M // p) % ctx.M
                       for a in seeds for k in range(p)})
        pool += rng.sample(range(ctx.M), 3)
        a_of = tuple(rng.choice(pool) for _ in range(ctx.M))
        b_of = tuple(rng.choice(seeds) for _ in range(ctx.M))
        yield FakeDecomp(ctx, a_of, b_of)


class TestPlaneConsistency:
    def test_worked_example(self):
        # Sigma_A(L(0,2)) = {0,6}, Sigma_B = {0,4,8}: both inside 2-planes
        assert sp.plane_consistency(t12(), (0, 1))[0] == 0

    def test_equal_directions_rejected(self):
        with pytest.raises(InputError, match="two distinct directions"):
            sp.plane_consistency(t12(), (1, 1))

    def test_some_direction_always_works(self):
        for t in corpus(12):
            assert set(sp.plane_consistency(t, (0, 1))) <= {0, 1}

    def test_violation_aborts_with_witness(self):
        # cover table scattering Sigma_A across planes of both directions
        a_of = [0] * 36
        for w in range(0, 36, 6):
            a_of[w] = w // 6
        fake = FakeDecomp(tl.factorize(36), tuple(a_of), (0,) * 36)
        with pytest.raises(LemmaViolationError,
                           match="no consistent direction for grid at 0 "):
            sp.plane_consistency(fake, (0, 1))

    def test_each_grid_matches_literal(self):
        for t in grid_corpus():
            for pair in itertools.permutations(range(3), 2):
                assert not assert_same_outcome(
                    sp.plane_consistency, literal_plane_consistency, t, pair)

    def test_fake_tables_match_literal(self):
        raised = 0
        for fake in escaping_fakes(300, seed=3):
            for pair in ((0, 1), (1, 0)):
                raised += assert_same_outcome(
                    sp.plane_consistency, literal_plane_consistency, fake,
                    pair)
        assert raised > 50


class TestFullFibers:
    def test_matches_member_scan(self):
        for t in oracle_tilings():
            for T in (t.A, t.B):
                for d in range(len(T.context.primes)):
                    assert (T.context.full_fibers(T.mask, d)
                            == literal_full_fibers(T, d))


def literal_lane_fibers(ctx, members, shifts, direction):
    """_lane_fibers on sets: the union of the mask's translates, and the
    points whose whole fiber lies in the translates by shifts of one
    coordinate."""
    M, p = ctx.M, ctx.primes[direction][0]
    classes = collections.defaultdict(set)
    for s in shifts:
        classes[ctx.coord_tables[direction][s]].update(
            (t + s) % M for t in members)
    union = set().union(*classes.values())
    flat = {z for cls in classes.values() for z in cls
            if all((z + k * M // p) % M in cls for k in range(p))}
    return sum(1 << z for z in union), sum(1 << z for z in flat)


class TestLaneFibers:
    def test_each_lane_matches_its_mask_alone(self):
        """A random mask and random shifts: the kernel's lane T | T << M
        gives the translates and flat fibers of T taken on sets, so no bit
        the shift carries past M survives."""
        rng = random.Random(5)
        for _ in range(1000):
            ctx = tl.factorize(rng.randint(2, 60))
            mask = rng.getrandbits(ctx.M)
            shifts = rng.sample(range(ctx.M), rng.randint(1, ctx.M))
            members = tl.TileSet.from_mask(ctx, mask).members
            for d in range(len(ctx.primes)):
                assert (sp._lane_fibers(ctx, mask, shifts, d)
                        == literal_lane_fibers(ctx, members, shifts, d)), (
                    ctx.M, mask, shifts, d)


class TestCrossDirection:
    def test_degenerate_exponent_one(self):
        # 0*F_2={0,6} and 1*F_2={1,7} sit inside A; the 3^0-plane is everything
        assert sp.cross_direction_check(t12(), (0, 1)) == (0, 1)

    def test_no_contained_fiber_reports_not_applicable(self):
        assert sp.cross_direction_check(t12(), (1, 0)) is None

    def test_equal_directions_rejected(self):
        with pytest.raises(InputError, match="two distinct directions"):
            sp.cross_direction_check(t12(), (0, 0))

    def test_nondegenerate_instance(self):
        t = T(72, [0, 36], range(36))
        assert sp.cross_direction_check(t, (0, 1)) == tuple(range(12))

    def test_never_violated_over_corpus(self):
        for t in corpus(24)[::199]:
            for pair in ((0, 1), (1, 0)):
                got = sp.cross_direction_check(t, pair)
                assert got is None or set(got) <= set(range(4))

    def test_each_grid_matches_literal(self):
        for t in grid_corpus():
            for pair in itertools.permutations(range(3), 2):
                assert not assert_same_outcome(
                    sp.cross_direction_check, literal_cross_direction, t, pair)

    def test_escape_names_the_first_anchor(self):
        """Sigma_A of the grid L(0, 6) in Z_36 is {33, 15, 2, 20, 4}: four
        anchors, with the 2-fibers {15, 33} and {2, 20} inside A, in two
        3-planes.  Both forms blame the first anchor in Sigma_A's order,
        which need not be the least, and its offenders."""
        a_of = [0] * 36
        for w, a in zip(range(0, 36, 6), (33, 15, 2, 20, 4, 33)):
            a_of[w] = a
        fake = FakeDecomp(tl.factorize(36), tuple(a_of), (0,) * 36)
        assert assert_same_outcome(
            sp.cross_direction_check, literal_cross_direction, fake, (0, 1))
        with pytest.raises(LemmaViolationError, match="grid at 0 "):
            sp.cross_direction_check(fake, (0, 1))

    def test_fake_tables_match_literal(self):
        """Random tables with several anchors per grid: the first raise,
        its grid, a0 and offending set agree with the per-anchor loop."""
        raised = several = 0
        for fake in escaping_fakes(300, seed=4):
            full = [literal_full_fibers(fake.A, d) for d in range(2)]
            for pair in ((0, 1), (1, 0)):
                if assert_same_outcome(sp.cross_direction_check,
                                       literal_cross_direction, fake, pair):
                    raised += 1
                    z = literal_grid_outcome(literal_cross_direction, fake,
                                             pair)[0]
                    sigma = set(fake.decomp[0][z::grid_step(fake, pair)])
                    several += sum(full[pair[0]] >> a & 1 for a in sigma) > 1
        assert raised > 50 and several > 20


# Hand instances for the fibered-grid machinery.  M=180 lifts the tiling
# {0,6,...,30} u {1,13,25} u {3,15,27} of Z_36 through the mod-5
# coordinate; each class r picks one of the two complement shapes, which
# tunes how many grid layers each direction serves.
M180_A = [0, 15, 25, 30, 60, 75, 85, 90, 120, 135, 145, 150]
M180_B = [0, 9, 36, 37, 40, 73, 76, 77, 80, 109, 113, 116, 117, 149, 153]
M180_LAYERS = {
    0: (0, 0, 1, 1, 1),
    1: (1, 0, 0, 0, 1),
    2: (1, 1, 1, 0, 0),
    3: (0, 0, 1, 1, 0),
    4: (1, 0, 0, 1, 1),
    5: (1, 1, 0, 0, 0),
}


def crt_tiling_180(shape_of_class):
    base = [0, 6, 12, 18, 24, 30, 1, 13, 25, 3, 15, 27]
    comp = ((0, 4, 8), (1, 5, 9))
    A = sorted(145 * a % 180 for a in base)
    B = sorted((145 * b + 36 * r) % 180
               for r in range(5) for b in comp[shape_of_class[r]])
    return T(180, A, B)


def t60_fibered():
    return T(60, [0, 12, 24, 36, 48], range(12))


def fiber_of(prof, a):
    """The fiber through a in the direction of a's grid, sorted."""
    ctx = prof.tiling.context
    p = ctx.primes[prof.grid_dirs[a % prof.radical_step]][0]
    return tuple(sorted((a + k * (ctx.M // p)) % ctx.M for k in range(p)))


class TestFiberedGridProfile:
    def test_radical_one_rejected(self):
        with pytest.raises(NotFiberedError, match="D\\(M\\)=1"):
            sp.fibered_grid_profile(T(30, [0], range(30)))

    def test_two_primes_rejected(self):
        with pytest.raises(InputError):
            sp.fibered_grid_profile(t12())

    def test_full_order_divisibility_required(self):
        t = T(60, range(12), range(0, 60, 12))
        with pytest.raises(InputError):
            sp.fibered_grid_profile(t)

    def test_single_direction_instance(self):
        prof = sp.fibered_grid_profile(t60_fibered())
        assert prof.radical_step == 2
        assert prof.grid_dirs == {0: 2}
        assert [sorted(s) for s in prof.dir_sets] == \
            [[], [], [0, 12, 24, 36, 48]]
        assert fiber_of(prof, 0) == (0, 12, 24, 36, 48)

    def test_two_direction_instance(self):
        t = crt_tiling_180((0, 0, 1, 1, 1))
        assert sorted(t.A) == M180_A
        assert sorted(t.B) == M180_B
        prof = sp.fibered_grid_profile(t)
        assert prof.radical_step == 6
        assert prof.grid_dirs == {0: 0, 1: 1, 3: 1}
        assert fiber_of(prof, 25) == (25, 85, 145)
        assert fiber_of(prof, 0) == (0, 90)

    def test_fiber_ownership(self):
        # distinct translated fibers b*F(a) never partially overlap
        for t in (t60_fibered(), crt_tiling_180((0, 0, 1, 1, 1))):
            prof = sp.fibered_grid_profile(t)
            M = t.context.M
            placed = {}
            for a in t.A:
                for b in t.B:
                    cell = frozenset((b + v) % M for v in fiber_of(prof, a))
                    for z in cell:
                        assert placed.setdefault(z, cell) == cell

    def test_members_lie_on_whole_fibers_of_their_grid(self):
        """What the profile leaves unchecked: the fiber of each member lies
        in A and in the member's grid, and two members' fibers either
        coincide or are disjoint."""
        profiles = 0
        for t in [*corpus(60, 400), *corpus(180, 200), *corpus(900, 60)]:
            try:
                prof = sp.fibered_grid_profile(t)
            except (InputError, NotFiberedError):
                continue
            profiles += 1
            D, owner = prof.radical_step, {}
            for a in t.A:
                fib = fiber_of(prof, a)
                assert a in prof.dir_sets[prof.grid_dirs[a % D]]
                assert set(fib) <= set(t.A)
                assert {w % D for w in fib} == {a % D}
                for w in fib:
                    assert owner.setdefault(w, fib) == fib
        assert profiles >= 600

    def test_fiber_basic_reads_the_fibers_of_the_grids(self):
        """check_fiber_basic against the same overlap test on the fibers
        fiber_of names, with A fibered on every grid and B drawn at random
        (not a tiling), so that some translates b*F(a) overlap."""
        rng = random.Random(7)
        raised = 0
        for shapes in itertools.product((0, 1), repeat=5):
            prof0 = sp.fibered_grid_profile(crt_tiling_180(shapes))
            A = prof0.tiling.A
            M = A.context.M
            for _ in range(8):
                B = tl.TileSet(A.context,
                               rng.sample(range(M), rng.randint(2, 5)))
                prof = prof0._replace(tiling=tl.Tiling(A, B, check=False))
                want, placed = True, {}
                for fib in sorted({fiber_of(prof, a) for a in A}):
                    for b in B:
                        for w in ((v + b) % M for v in fib):
                            if (placed.setdefault(w, (b, fib)) != (b, fib)
                                    and want is True):
                                want = (w, placed[w], (b, fib))
                got = outcome_with_message(sp.check_fiber_basic, prof)
                if want is True:
                    assert got is True, (A, B)
                else:
                    raised += 1
                    w, (b0, f0), (b, fib) = want
                    assert got == (LemmaViolationError,
                                   f"translated fibers overlap at {w}: "
                                   f"b={b0} F={f0} vs b={b} F={fib}"), (A, B)
        assert 0 < raised < 256


class TestGridStratification:
    def test_single_direction_grid(self):
        prof = sp.fibered_grid_profile(t60_fibered())
        strat = sp.grid_stratification(prof, 0)
        assert strat.directions == frozenset({2})
        assert strat.axis == 1
        assert strat.layers == (2, 2, 2)

    def test_two_direction_grids(self):
        prof = sp.fibered_grid_profile(crt_tiling_180((0, 0, 1, 1, 1)))
        for z0, layers in M180_LAYERS.items():
            strat = sp.grid_stratification(prof, z0)
            assert strat.directions == frozenset({0, 1})
            assert strat.axis == 2
            assert strat.layers == layers

    def test_at_most_two_directions(self):
        for shapes in ((0, 0, 1, 1, 1), (0, 1, 1, 1, 1), (1, 1, 1, 1, 1)):
            prof = sp.fibered_grid_profile(crt_tiling_180(shapes))
            for z0 in range(6):
                assert len(sp.grid_stratification(prof, z0).directions) <= 2


class TestConsistency3:
    def test_single_direction_instance(self):
        prof = sp.fibered_grid_profile(t60_fibered())
        assert sp.consistency3_check(prof) is True

    def test_two_direction_instance(self):
        prof = sp.fibered_grid_profile(crt_tiling_180((0, 0, 1, 1, 1)))
        assert sp.consistency3_check(prof) is True

    def test_not_applicable_without_zero_in_a(self):
        t = T(60, [1, 13, 25, 37, 49], range(12))
        prof = sp.fibered_grid_profile(t)
        assert sp.consistency3_check(prof) is None


class TestConsistentSplitting:
    def test_single_direction_out_of_scope(self):
        prof = sp.fibered_grid_profile(t60_fibered())
        assert sp.consistent_splitting_check(prof, 0) is None

    def test_qualifying_grids_split_uniformly(self):
        prof = sp.fibered_grid_profile(crt_tiling_180((0, 0, 1, 1, 1)))
        for z0 in range(6):
            assert sp.consistent_splitting_check(prof, z0) is Parity.AB

    def test_lopsided_layers_not_applicable(self):
        # same tile, complements chosen so one direction serves only one
        # layer per grid: the two-and-two hypothesis fails everywhere
        prof = sp.fibered_grid_profile(crt_tiling_180((0, 1, 1, 1, 1)))
        strat = sp.grid_stratification(prof, 0)
        assert strat.layers == (0, 1, 1, 1, 1)
        for z0 in range(6):
            assert sp.consistent_splitting_check(prof, z0) is None
