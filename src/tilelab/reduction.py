"""Slab reduction and the large-prime route to the (T2) condition.

A tiling A + B = Z_M can sometimes be pushed down to a tiling of Z_{M/p}:
either by restricting the i-th CRT coordinate of A to [0, p^{n-1}) (the
"slab" of A) and projecting, or by dilating one tile by a prime p that does
not divide its cardinality and splitting the other by residue class mod p.
Chaining such steps until at most two distinct primes remain yields a
machine-checkable certificate that both tiles satisfy (T2): products of
prime powers s with Phi_s dividing the mask must themselves divide it.

Derivation proposes the chain with every pair unchecked; the one checker,
`replay_certificate`, re-derives each step and verifies each tiling once.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Union

from .errors import (
    EquivalenceViolationError,
    ImplicationViolationError,
    InputError,
    InvariantViolationError,
    NotATilingError,
    PipelineStuckError,
    TheoremViolationError,
)
from .zm_core import (TileSet, ZmContext, _class_bits, factorize,
                      radical_quotient)
from .cyclotomic import check_T2, cyclo_profile, divides_mask
from .tiling import Tiling, div_bits, tiling_to_json, verify_direct
from .splitting import SplitReport


# ---------------------------------------------------------------------------
# slabs and coordinate projection


def _projection(ctx: ZmContext, direction: int) -> tuple[ZmContext, int]:
    """The map Z_M -> Z_{M/p} that reduces coordinate `direction` mod
    p^{n-1} (drops it when n = 1) and carries the others over, as
    (child context, u): it sends v to v*u mod M/p.

    Reading CRT coordinates, reducing one of them and reassembling are all
    group homomorphisms, so the map is one from Z_M to the cyclic Z_{M/p},
    fixed by the image u of 1.  With R = M/p^n, 1 has coordinate R^-1 mod
    p^n in `direction`, weighted by R in Z_{M/p}, which gives 1 mod
    p^{n-1}; and coordinate (M/q)^-1 mod q in each other direction, weighted
    by (M/p)/q, which gives p^-1 mod q.  So u = 1 (mod p^{n-1}) and
    u = p^-1 (mod R): u = (1 + R s)/p with s = (p - 1) R^-1 mod p^n, since
    1 + R s = p (mod p^n) and p (1 + R s)/p = 1 (mod R).
    """
    p, n = ctx.check_direction(direction)
    q = p ** n
    R = ctx.M // q
    s = (p - 1) * pow(R, -1, q) % q
    child = factorize(ctx.M // p)
    return child, (1 + R * s) // p % child.M


def project_tile(A: TileSet, direction: int) -> TileSet:
    """Image of A in Z_{M/p} under the coordinate projection (may collide)."""
    child, u = _projection(A.context, direction)
    return TileSet(child, {a * u % child.M for a in A.members})


def _projected_slab(A: TileSet, direction: int) -> TileSet:
    """The slab of A, its members whose CRT coordinate in `direction` is
    below p^{n-1}, projected to Z_{M/p}."""
    ctx = A.context
    p, n = ctx.primes[direction]
    child, u = _projection(ctx, direction)
    low = p ** (n - 1)
    coord = ctx.coord_tables[direction]
    return TileSet(child, {a * u % child.M for a in A.members
                           if coord[a] < low})


def slab_cond_i(t: Tiling, direction: int) -> tuple[bool, Optional[int]]:
    """Every translate A - c has its slab tiling Z_{M/p} against projected B.

    Returns (holds, least witness translate c or None).  Only c < p^n are
    tried.  The slab of A - c depends on c only through its coordinate in
    `direction`, which is fixed by c mod p^n; and the projection is a
    homomorphism, so the rest of c only translates the projected pair, which
    keeps or breaks the tiling alike.  Every failing c is therefore congruent
    mod p^n to a failing c below p^n, and the least witness is unchanged.

    The test runs in Z_M, on masks.  The projection pi has kernel
    K = <M/p>, whose members carry the coordinates k p^{n-1}, so pi is
    injective on a slab window.  The preimage of pi(B) is B + K, and that
    of pi(B) + pi(s) is B + K + s.  With S the members a of A whose
    coordinate lies in the window [x, x + p^{n-1}) mod p^n, x the
    coordinate of c (the slab, translated back by c), the projected pair
    tiles exactly when |S| |pi(B)| = M/p, where |pi(B)| = |B + K|/p, and
    the translates of B + K by S hit every point of Z_M once.

    The sizes are tested first, for every window.  Where they hold, the
    translates hit M points counted with multiplicity, so they cover Z_M
    exactly when every point is hit an odd number of times: when the XOR
    of the translates is the full mask.  XOR undoes itself, so the walk
    over the windows in coordinate order adds the translates entering a
    window and removes those leaving it, each member of A at most three
    times in all, and keeps one mask of Z_M.
    """
    ctx = t.context
    p, n = ctx.check_direction(direction)
    M, q, low = ctx.M, p ** n, p ** (n - 1)
    step, R = M // p, M // q        # x R mod q is the c < q of coordinate x
    b_mask = ctx.fiber_union(t.B.mask, direction)      # B + K
    size_b = b_mask.bit_count() // p
    coord = ctx.coord_tables[direction]
    by_coord = [[] for _ in range(q)]
    for a in t.A.members:
        by_coord[coord[a]].append(a)
    sizes = [len(members) for members in by_coord]
    witness, size = q, sum(sizes[:low])
    for x in range(q):
        if size * size_b != step:
            witness = min(witness, x * R % q)
        size += sizes[(x + low) % q] - sizes[x]
    if not witness:
        return False, 0
    doubled = b_mask | b_mask << M     # rotate(b_mask, a) = doubled >> (M - a)
    odd = 0                            # bits above M cancel out, unread
    for y in range(low):
        for a in by_coord[y]:
            odd ^= doubled >> (M - a)
    covers = None                      # read once per distinct window
    for x in range(q):
        c = x * R % q
        if c < witness:
            if covers is None:
                covers = odd & ctx.full_mask == ctx.full_mask
            if not covers:
                witness = c
        for a in by_coord[x] + by_coord[(x + low) % q]:
            odd ^= doubled >> (M - a)
            covers = None
    return (True, None) if witness == q else (False, witness)


def slab_cond_ii(t: Tiling, direction: int) -> tuple[bool, Optional[int]]:
    """No m with p^n | m | M lies in Div(A) while m/p lies in Div(B)."""
    ctx = t.context
    p, n = ctx.check_direction(direction)
    q = p ** n
    cbit = _class_bits(ctx)[0]      # the bit of d | M is cbit[d mod M]
    da = div_bits(t.A)
    db = div_bits(t.B)
    for m in ctx.divisors:
        if m % q == 0 and da & cbit[m % ctx.M] and db & cbit[m // p]:
            return False, m
    return True, None


def slab_cond_iii(t: Tiling, direction: int) -> tuple[bool, Optional[int]]:
    """For p^n | d | M: Phi_d | A, or Phi_{d/p}, ..., Phi_{d/p^n} all divide B.

    Indices that collapse to 1 (only d = p^n produces one) are skipped in the
    product requirement.
    """
    ctx = t.context
    p, n = ctx.check_direction(direction)
    q = p ** n
    in_a = cyclo_profile(t.A).divisors_of_mask
    in_b = cyclo_profile(t.B).divisors_of_mask
    for d in ctx.divisors:
        if d % q:
            continue
        if d in in_a:
            continue
        if all(d // p ** alpha in in_b
               for alpha in range(1, n + 1) if d // p ** alpha > 1):
            continue
        return False, d
    return True, None


class SlabVerdict(NamedTuple):
    """Three independently evaluated slab conditions for one direction."""

    direction: int
    prime: int
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    witnesses: tuple[Optional[int], Optional[int], Optional[int]]

    @property
    def holds(self) -> bool:
        return self.cond_i

    def to_json(self) -> dict:
        return {
            "direction": self.prime,
            "direction_index": self.direction,
            "cond_i": self.cond_i,
            "cond_ii": self.cond_ii,
            "cond_iii": self.cond_iii,
        }


def slab_equivalence_check(t: Tiling, direction: int) -> SlabVerdict:
    """Evaluate all three slab conditions; they must agree.

    Requires Phi_{p^n} | A. Disagreement is an implementation defect, not a
    property of the input, hence the hard error.
    """
    ctx = t.context
    p, n = ctx.check_direction(direction)
    if not divides_mask(p ** n, t.A):
        raise InputError(
            f"slab equivalence needs Phi_{p ** n} | A; not satisfied for "
            f"A={t.A.members} in Z_{ctx.M}")
    one, w1 = slab_cond_i(t, direction)
    two, w2 = slab_cond_ii(t, direction)
    three, w3 = slab_cond_iii(t, direction)
    if not one == two == three:
        raise EquivalenceViolationError(
            f"slab conditions disagree in direction p={p} for A={t.A.members}"
            f" B={t.B.members} M={ctx.M}: "
            f"(i)={one} (ii)={two} (iii)={three}, witnesses={w1, w2, w3}")
    return SlabVerdict(direction, p, one, two, three, (w1, w2, w3))


# ---------------------------------------------------------------------------
# the splitting form of the slab conditions


def splittingslab_equiv_check(report: SplitReport) -> bool:
    """Three equivalent statements about splitting along one direction.

    (I)   Phi_{p^n} | A together with the divisor exclusion slab_cond_ii;
    (II)  for every unit r, the tiling A + rB splits with rB collapsing and
          A spreading on every fiber;
    (III) for every x on a fiber through A, the saturating set A_x (the
          members of A whose difference class against x lies in Div(B))
          lies on x's p^n-plane.

    (II) is decided on B alone, as the report's uniform_ba: no dilate rB
    can differ from B.  Say A + B = Z_M, p^n || M, and B_c is the b in B
    of coordinate c.  A fiber is B-flat exactly when it lies inside one
    S_c = A + B_c, and no B-flat fiber is also A-flat (fiber_parity).  So
    A + B splits uniformly BA exactly when every S_c is a union of fibers,
    that is when A(X) B_c(X) (X^{M/p} - 1) = 0 mod X^M - 1, that is when
    Phi_d divides A or B_c for every d with p^n | d | M, as Phi_d is
    irreducible.  For a unit r, A + rB = Z_M (Tijdeman: r is prime to
    |B|); (rB)_{rc} = r B_c, as coordinates are linear; and Phi_d divides
    B_c(X^r) exactly when it divides B_c(X), as z -> z^r permutes the
    primitive d-th roots.  So the condition is the same for every dilate.

    (III) is one mask test: coordinates are additive, so x - a has a
    coordinate other than 0 exactly when p^n does not divide it.  With E
    the v whose class (v, M) lies in Div(B) and is not a multiple of p^n,
    (III) fails exactly when the union of A's fibers meets A + E, the OR of
    rotate(E, a) over a in A.

    Returns the common truth value; raises if the three ever disagree.
    """
    t, direction = report.tiling, report.direction
    ctx = t.context
    p, n = ctx.primes[direction]
    q = p ** n

    first = divides_mask(q, t.A) and slab_cond_ii(t, direction)[0]

    second = report.uniform_ba

    db = div_bits(t.B)
    e = 0
    cbit, masks = _class_bits(ctx)
    for d, cls in zip(ctx.divisors, masks):
        if d % q and db & cbit[d]:      # d < M, as q | M
            e |= cls
    third = not (ctx.translates(e, t.A.members)
                 & ctx.fiber_union(t.A.mask, direction))

    if not first == second == third:
        raise EquivalenceViolationError(
            f"splitting criteria disagree in direction p={p} for "
            f"A={t.A.members} B={t.B.members} M={ctx.M}: "
            f"(I)={first} (II)={second} (III)={third}")
    return first


# ---------------------------------------------------------------------------
# sufficient conditions and bounds


def _plane_counts(B: TileSet, direction: int) -> dict[int, int]:
    """How many members of B lie on each plane Pi(b, p^n) that meets B,
    keyed by the plane's coordinate in `direction`."""
    coord = B.context.coord_tables[direction]
    counts: dict[int, int] = {}
    for b in B:
        counts[coord[b]] = counts.get(coord[b], 0) + 1
    return counts


def slabcor_check(t: Tiling, direction: int) -> tuple[bool, bool]:
    """Sufficient conditions under which A must satisfy the slab conditions.

    Applicable when (i) every a in A has another A-member at difference class
    exactly M/p, or (ii) Phi_{p^n} | A and every plane through a B-member
    meets B in exactly |B| / gcd(|B|, p^n) points.  Returns
    (applicable, implied); when applicable, the slab conditions are verified
    and any failure raises.
    """
    ctx = t.context
    p, n = ctx.check_direction(direction)
    q = p ** n
    f = ctx.M // p

    # a + k f lies in A exactly when a lies in rotate(A, -k f)
    fibered = not t.A.mask & ~ctx.translates(t.A.mask, range(f, ctx.M, f))

    divisible = divides_mask(q, t.A)
    expected = len(t.B) // math.gcd(len(t.B), q)
    saturated = divisible and all(
        c == expected for c in _plane_counts(t.B, direction).values())

    if not (fibered or saturated):
        return False, False
    if not divisible:
        raise ImplicationViolationError(
            f"premise holds but Phi_{q} does not divide A={t.A.members} "
            f"in Z_{ctx.M}; slab conditions cannot be stated")
    verdict = slab_equivalence_check(t, direction)
    if not verdict.holds:
        raise ImplicationViolationError(
            f"premise holds but slab conditions fail for A={t.A.members} "
            f"B={t.B.members} direction p={p}: witnesses={verdict.witnesses}")
    return True, True


def plane_bound_check(B: TileSet, direction: int) -> bool:
    """No plane Pi(z, p^n) holds more than gcd(|B|, M/p^n) members of B."""
    ctx = B.context
    p, n = ctx.check_direction(direction)
    bound = math.gcd(len(B), ctx.M // p ** n)
    return all(c <= bound for c in _plane_counts(B, direction).values())


def blowbound_check(report: SplitReport) -> tuple[bool, bool]:
    """When p > gcd(|B|, M/p^n) and M/p is absent from Div(A), every fiber
    must split with A collapsing.  Returns (applicable, verdict)."""
    t = report.tiling
    ctx = t.context
    p, n = ctx.primes[report.direction]
    applicable = (p > math.gcd(len(t.B), ctx.M // p ** n)
                  and not div_bits(t.A) & _class_bits(ctx)[0][ctx.M // p])
    if not applicable:
        return False, False
    if not report.uniform_ab:
        raise ImplicationViolationError(
            f"uniformity forced but violated: A={t.A.members} "
            f"B={t.B.members} M={ctx.M} direction p={p}")
    return True, True


# ---------------------------------------------------------------------------
# prime removal (dilation) step


def _prime_removal_branches(t: Tiling, p: int) -> list[Tiling]:
    """Split A + B = Z_M into p tilings of Z_{M/p}.

    The tile whose cardinality p does not divide is dilated by p (injective
    for genuine tilings); the other splits by residue class mod p.  Class j
    of Z_M is covered exactly by the reduced pair, giving one child tiling
    per class, built unchecked: replay verifies them.
    """
    ctx = t.context
    if ctx.M % p:
        raise InputError(f"{p} does not divide M={ctx.M}")
    if len(t.A) % p and len(t.B) % p:
        raise InputError(f"{p} divides neither |A|={len(t.A)} nor |B|={len(t.B)}")
    if len(t.A) % p == 0 and len(t.B) % p == 0:
        raise InputError(f"{p} divides both |A| and |B|; no side to dilate")
    dilated = "A" if len(t.A) % p else "B"
    keep, split = (t.A, t.B) if dilated == "A" else (t.B, t.A)

    child = factorize(ctx.M // p)
    # a -> a mod M/p is the dilation p*A read in p*Z_M; injective unless p*A collapses
    kept = TileSet(child, {a % child.M for a in keep})
    if len(kept) < len(keep):
        raise TheoremViolationError(
            f"dilation by {p} collapses {keep.members} in Z_{ctx.M}")

    branches = []
    for j in range(p):
        part = TileSet(child, [((b - j) % ctx.M) // p for b in split if b % p == j])
        pair = (kept, part) if dilated == "A" else (part, kept)
        branches.append(Tiling(pair[0], pair[1], check=False))
    return branches


# ---------------------------------------------------------------------------
# the certificate pipeline


class SlabStep(NamedTuple):
    p: int
    result: Tiling


class PrimeRemovalStep(NamedTuple):
    p: int
    result: Tiling     # residue-class-0 branch; others carry certificates
    side_certificates: tuple["T2Certificate", ...]


Step = Union[SlabStep, PrimeRemovalStep]


class T2Certificate(NamedTuple):
    """A replayable chain of reductions; its base case is the chain's end."""

    input: Tiling
    steps: tuple[Step, ...]

    @property
    def base_primes(self) -> int:
        """The number of primes of the chain's end: a two-prime base when
        at most 2, one checked directly for (T2) otherwise."""
        end = self.steps[-1].result if self.steps else self.input
        return len(end.context.primes)

    @property
    def large_prime_hypothesis(self) -> bool:
        """The paper's hypothesis on M, p_1 > p_2^{n_2-1} p_3^{n_3-1}, read
        at the largest prime only: p = p_1 exceeds (M/p^n)/rad(M/p^n), the
        product of q^{m-1} over the other prime powers q^m of M (vacuous
        below two primes)."""
        ctx = self.input.context
        if len(ctx.primes) < 2:
            return True
        p, n = ctx.primes[-1]
        return p > radical_quotient(ctx.M // p ** n)


def certificate_to_json(cert: T2Certificate) -> dict:
    steps = [{"kind": "slab" if isinstance(step, SlabStep) else
              "prime_removal", "p": step.p} for step in cert.steps]
    steps.append({"kind": "base", "primes": cert.base_primes})
    return {
        "input": tiling_to_json(cert.input),
        "steps": steps,
        "t2": {"A": check_T2(cert.input.A), "B": check_T2(cert.input.B)},
    }


def _removal_prime(t: Tiling) -> Optional[int]:
    """Largest prime of M dividing exactly one of the cardinalities."""
    best = None
    for p, _ in t.context.primes:
        if bool(len(t.A) % p) != bool(len(t.B) % p):
            best = p
    return best


def _slab_child(t: Tiling) -> Tiling:
    """Apply the slab reduction for the largest prime p, p^n || M, to the
    tile whose mask Phi_{p^n} divides.

    In a tiling exactly one tile qualifies, so the side is no choice.  Each
    Phi_s, 1 < s | M, divides A or B, as A(X) B(X) = (X^M - 1)/(X - 1) mod
    X^M - 1; and both tiles satisfy (T1) (Coven-Meyerowitz, J. Algebra 212,
    1999), so |A| |B| = M = prod Phi_s(1) over the prime powers s | M
    leaves no prime power in both S_A and S_B.

    Gates on the directly checked hypotheses (Phi_{p^n} divides a tile;
    divisor exclusion cond_ii) and raises InputError when the gate fails.
    The projected pair is built unchecked: replay verifies it.
    """
    ctx = t.context
    direction = len(ctx.primes) - 1
    p, n = ctx.primes[-1]
    oriented = t if divides_mask(p ** n, t.A) else t.swapped()
    if not divides_mask(p ** n, oriented.A):
        raise InputError(f"Phi_{p ** n} divides neither tile")
    ok, witness = slab_cond_ii(oriented, direction)
    if not ok:
        raise InputError(f"divisor exclusion fails at m={witness}")
    return Tiling(_projected_slab(oriented.A, direction),
                  project_tile(oriented.B, direction), check=False)


def prove_t2_largeprime(t: Tiling) -> T2Certificate:
    """Reduce a tiling until (T2) can be checked directly; certify the chain.

    Preference order at each stage: remove a prime dividing exactly one
    cardinality (largest such); otherwise slab the largest prime; otherwise
    fall back to a direct check.  Prime removal branches over all residue
    classes; class 0 continues the main chain and the rest carry their own
    certificates.  A non-tiling raises NotATilingError (an InputError)
    before anything is derived; the chain is then replayed once, here.
    Past that first check, any error but PipelineStuckError is a bug.
    """
    if not verify_direct(t.A, t.B):
        raise NotATilingError(f"not a tiling: {t!r}")
    cert = _derive_certificate(t)
    replay_certificate(cert)
    return cert


def _derive_certificate(t: Tiling) -> T2Certificate:
    """The certificate of prove_t2_largeprime, not replayed.  It checks only
    what choosing needs: the slab gate, and (T2) to end the chain with a
    direct check rather than stuck, after verifying a stuck node so that a
    bug never reads as stuck."""
    steps: list[Step] = []
    cur = t
    while len(cur.context.primes) > 2:
        ctx = cur.context
        p = _removal_prime(cur)
        if p is not None:
            branches = _prime_removal_branches(cur, p)
            side = tuple(_derive_certificate(br) for br in branches[1:])
            steps.append(PrimeRemovalStep(p, branches[0], side))
            cur = branches[0]
            continue

        try:
            child = _slab_child(cur)
        except InputError as gate:      # fall back to (T2)
            if check_T2(cur.A) and check_T2(cur.B):
                break
            if not verify_direct(cur.A, cur.B):
                raise InvariantViolationError(
                    f"stuck on a non-tiling: {cur!r}")
            raise PipelineStuckError(
                f"no reduction applies and direct check fails: M={ctx.M} "
                f"A={cur.A.members} B={cur.B.members} |A|={len(cur.A)} "
                f"|B|={len(cur.B)} slab gate: {gate}")
        steps.append(SlabStep(ctx.primes[-1][0], child))
        cur = child

    return T2Certificate(t, tuple(steps))


def replay_certificate(cert: T2Certificate) -> bool:
    """Mechanically re-derive every step; any divergence raises.

    The one checker of a certificate; it never asks the prover for a prime
    or a tile.  It verifies each tiling of the chain once: its input, each
    main-chain pair it derives, and (in their own replay, after comparing
    them with the derived branches) the side certificates' inputs.  Then
    (T2) must hold at the chain's end and at its input.
    """
    cur = cert.input
    if not verify_direct(cur.A, cur.B):
        raise InvariantViolationError(
            f"certificate input is not a tiling: {cur!r}")
    for step in cert.steps:
        if isinstance(step, PrimeRemovalStep):
            branches = _prime_removal_branches(cur, step.p)
            recorded = [step.result,
                        *(side.input for side in step.side_certificates)]
            if branches != recorded:
                raise InvariantViolationError(
                    f"prime removal step does not replay: p={step.p} "
                    f"recorded {recorded!r}, derived {branches!r}")
            if not verify_direct(branches[0].A, branches[0].B):
                raise TheoremViolationError(
                    f"dilation by {step.p} breaks the tiling {cur!r}: "
                    f"branch 0 is {branches[0]!r}")
            for side_cert in step.side_certificates:
                replay_certificate(side_cert)
            cur = branches[0]
        else:
            p, child = cur.context.primes[-1][0], _slab_child(cur)
            if (p, child) != (step.p, step.result):
                raise InvariantViolationError(
                    f"slab step does not replay: recorded p={step.p} "
                    f"{step.result!r}, derived p={p} {child!r}")
            if not verify_direct(child.A, child.B):
                raise EquivalenceViolationError(
                    f"slab hypotheses hold but projected pair is not a "
                    f"tiling: A={cur.A.members} B={cur.B.members} "
                    f"M={cur.context.M} p={step.p}")
            cur = child
    if not (check_T2(cur.A) and check_T2(cur.B)):
        raise InvariantViolationError(f"base case tiles fail (T2): {cur!r}")
    if not (check_T2(cert.input.A) and check_T2(cert.input.B)):
        raise InvariantViolationError(
            f"(T2) of the input fails: {cert.input!r}")
    return True
