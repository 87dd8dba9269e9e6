"""Per-fiber splitting parity and grid consistency.

Fix a tiling and a direction with prime power p^n exactly dividing M.  Every
fiber z*F = {z + t*M/p} is covered by pairs (a, b), and the contributing
sets Sigma_A, Sigma_B always land in one of two patterns:

    parity AB:  the a's collapse (p^n | a - a'), while distinct b's differ
                by exactly p^{n-1} (p^{n-1} divides, p^n does not)
    parity BA:  the same with the roles of A and B swapped

This dichotomy is total for tilings, and the collapsing side alone decides
it (see fiber_parity); uniformity notions quantify it over all fibers of a
direction, or only over fibers anchored at tile elements.  One mask
decider, _ab_fibers, gives a whole direction's parities to split_report;
the checks that read parities take that report, and SplitReport.swapped
is the swapped tiling's report, with no second decision.  fiber_parity is
the literal single-fiber rule and the one source of the both/neither
error.  The fibered-grid profile and the grid lemmas (which take a direction
pair and check every grid L(z, M/p_i p_j) of it) read the fibers inside A
off ZmContext.full_fibers, as the decider reads its flat fibers.
The second half of the module treats tilings whose A-part is a union of
fibers on every grid of step D = M/rad(M): direction assignments, layer
stratification of grids, and parity consistency along grid fibers.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .errors import (InputError, InvariantViolationError, LemmaViolationError,
                     NeitherParityError, NotFiberedError)
from .cyclotomic import divides_mask
from .tiling import Tiling
from .zm_core import TileSet, ZmContext, radical_quotient


class Parity(Enum):
    """Which tile collapses mod p^n on a fiber (named first)."""

    AB = "AB"
    BA = "BA"


def _sigmas(t: Tiling, z: int, step: int) -> tuple[set[int], set[int]]:
    """Sigma_A and Sigma_B of the grid L(z, step): the tile parts of the
    representations of its members."""
    a_of, b_of = t.decomp
    start = z % step
    return set(a_of[start::step]), set(b_of[start::step])


def fiber_parity(t: Tiling, z: int, direction: int) -> Parity:
    """The unique splitting parity of the fiber z*F in the given direction:
    AB when the Sigma_A elements share one coordinate, BA when Sigma_B do.

    On an exact cover (t.decomp exists only for one) this is the whole
    definition.  The points z_k = z + k M/p carry the p coordinates
    coord(z) + k p^{n-1}, distinct and congruent mod p^{n-1}, and
    coord(a_k) + coord(b_k) = coord(z_k).  So if the a_k share c, the b_k
    have coordinates coord(z_k) - c: Sigma_B spreads.  Swap A and B for BA;
    both sides never collapse at once.  Both or neither raises.
    """
    ctx = t.context
    p, _ = ctx.check_direction(direction)
    step = ctx.M // p
    table = ctx.coord_tables[direction]
    sa, sb = _sigmas(t, z, step)
    flat_a = len({table[a] for a in sa}) == 1
    flat_b = len({table[b] for b in sb}) == 1
    if flat_a == flat_b:
        kind = "both parities" if flat_a else "neither parity"
        raise NeitherParityError(
            f"fiber {z % step}*F (direction p={p}) admits {kind}: "
            f"Sigma_A={sorted(sa)} Sigma_B={sorted(sb)}")
    return Parity.AB if flat_a else Parity.BA


class SplitReport(NamedTuple):
    """One direction's fiber parities of a tiling, with uniformity verdicts.

    Fibers are named by their anchors k < M/p (the fiber k*F holds the
    points k + j M/p), and the masks hold bit k for anchor k: `ab_mask` for
    the fibers of parity AB (the others are BA), `a_mask` and `b_mask` for
    the anchors of the members of A and of B."""

    tiling: Tiling
    direction: int
    prime: int
    step: int          # M/p, the number of fibers
    ab_mask: int
    a_mask: int
    b_mask: int

    @property
    def uniform_ab(self) -> bool:
        return self.ab_mask == (1 << self.step) - 1

    @property
    def uniform_ba(self) -> bool:
        return not self.ab_mask

    @property
    def a_uniform_ab(self) -> bool:
        return not self.a_mask & ~self.ab_mask

    @property
    def a_uniform_ba(self) -> bool:
        return not self.a_mask & self.ab_mask

    @property
    def b_uniform_ab(self) -> bool:
        return not self.b_mask & ~self.ab_mask

    @property
    def b_uniform_ba(self) -> bool:
        return not self.b_mask & self.ab_mask

    def swapped(self) -> "SplitReport":
        """The report of B + A: every fiber's flat side, so its parity,
        flips (a report exists only when each fiber has one parity)."""
        return SplitReport(self.tiling.swapped(), self.direction, self.prime,
                           self.step, self.ab_mask ^ ((1 << self.step) - 1),
                           self.b_mask, self.a_mask)

    @property
    def parities(self) -> str:
        """The parity of every fiber by anchor: character k is "1" when
        fiber k splits AB, "0" when it splits BA."""
        return format(self.ab_mask, f"0{self.step}b")[::-1]

    @property
    def verdicts(self) -> dict:
        return {
            "uniform_AB": self.uniform_ab,
            "uniform_BA": self.uniform_ba,
            "A_uniform_AB": self.a_uniform_ab,
            "A_uniform_BA": self.a_uniform_ba,
            "B_uniform_AB": self.b_uniform_ab,
            "B_uniform_BA": self.b_uniform_ba,
        }

    def to_json(self) -> dict:
        """The literal form of the report; the CLI's JSON writer prints the
        same text straight from the fields (cli._split_text)."""
        return {
            "direction": self.prime,
            "direction_index": self.direction,
            "fibers": [{"anchor": k, "parity": "AB" if bit == "1" else "BA"}
                       for k, bit in enumerate(self.parities)],
            "verdicts": self.verdicts,
        }


def split_report(t: Tiling, direction: int) -> SplitReport:
    """The parity of every fiber of one direction, read off _ab_fibers."""
    ctx = t.context
    p, _ = ctx.check_direction(direction)
    step = ctx.M // p
    low = (1 << step) - 1           # anchor k < step holds its fiber's bit
    return SplitReport(t, direction, p, step, _ab_fibers(t, direction) & low,
                       ctx.fiber_union(t.A.mask, direction) & low,
                       ctx.fiber_union(t.B.mask, direction) & low)


def _lane_fibers(ctx: ZmContext, mask: int, shifts,
                 direction: int) -> tuple[int, int]:
    """For the mask T: the union of the translates T + s over the shifts s,
    and the flat fibers, those lying inside the translates by the shifts
    of one direction coordinate.  On an exact cover these classes
    partition Z_M by the coordinate of each point's shift."""
    table = ctx.coord_tables[direction]
    classes: dict[int, list[int]] = {}
    for s in shifts:
        classes.setdefault(table[s], []).append(s)
    union = flat = 0
    for group in classes.values():
        u = ctx.translates(mask, group)
        union |= u
        flat |= ctx.full_fibers(u, direction)
    return union, flat


def _ab_fibers(t: Tiling, direction: int) -> int:
    """Mask of the points on AB fibers of the pair t: the one decider of the
    parities of a whole direction.

    The B-rotations of A's members, OR-ed per coordinate of the member,
    partition an exact cover by the coordinate of each point's A-part.  A
    fiber is A-flat when it lies inside one class, so the A-flat fibers are
    the OR of each class's full fibers; the A-rotations of B's members give
    the B-flat fibers alike.  fiber_parity's rule makes each fiber AB when
    A-flat and BA when B-flat.  A failed cover raises the cover table's
    error, and a fiber of both or neither parity goes to fiber_parity at
    the least such anchor, which raises; it never yields an answer here.
    """
    ctx = t.context
    A, B = t.A, t.B
    full = ctx.full_mask
    flat_a = flat_b = 0
    if len(A) * len(B) == ctx.M:
        union, flat = _lane_fibers(ctx, B.mask, A.members, direction)
        if union == full:           # an exact cover, so B's classes exist
            flat_a = flat
            flat_b = _lane_fibers(ctx, A.mask, B.members, direction)[1]
    bad = full & ~(flat_a ^ flat_b)
    if not bad:
        return flat_a
    t.decomp                        # raises on a failed cover
    anchor = (bad & -bad).bit_length() - 1
    fiber_parity(t, anchor, direction)   # raises NeitherParityError
    raise InvariantViolationError(
        f"fiber {anchor}*F (direction p={ctx.primes[direction][0]}): the "
        f"mask decider finds both or neither parity, fiber_parity one")


def _require_member(T: TileSet, v: int, name: str) -> None:
    if not T.mask >> (v % T.context.M) & 1:
        raise InputError(f"{v} is not an element of {name}")


def check_disjoint_sigma(t: Tiling, a0: int, a1: int,
                         direction: int) -> Optional[bool]:
    """With 0 in B, p^n | a0-a1 and both fibers of parity BA: the two
    Sigma_A sets must be disjoint.  None when the hypotheses fail."""
    ctx = t.context
    p, n = ctx.check_direction(direction)
    _require_member(t.A, a0, "A")
    _require_member(t.A, a1, "A")
    if a0 == a1:
        raise InputError("a0 and a1 must be distinct")
    if not t.B.mask & 1:
        return None
    table = ctx.coord_tables[direction]
    if table[a0 % ctx.M] != table[a1 % ctx.M]:
        return None
    if (fiber_parity(t, a0, direction) is not Parity.BA
            or fiber_parity(t, a1, direction) is not Parity.BA):
        return None
    step = ctx.M // p
    return not _sigmas(t, a0, step)[0] & _sigmas(t, a1, step)[0]


def check_local_distribution(t: Tiling, a0: int,
                             direction: int) -> Optional[bool]:
    """With 0 in B and every fiber of A inside a0's p^{n-1}-plane splitting
    BA: adjacent p^n-planes hold equally many elements of A, and the
    prime-power cyclotomic divides the plane-restricted mask.  The plane
    Pi(x, p^alpha) is {y : p^alpha | y - x}."""
    ctx = t.context
    p, n = ctx.check_direction(direction)
    _require_member(t.A, a0, "A")
    if not t.B.mask & 1:
        return None
    low_plane = TileSet(ctx, [a for a in t.A if (a - a0) % p ** (n - 1) == 0])
    if any(fiber_parity(t, a, direction) is not Parity.BA for a in low_plane):
        return None
    counts = {sum((a - a0 - nu * ctx.M // p) % p ** n == 0 for a in t.A)
              for nu in range(p)}
    if len(counts) != 1:
        return False
    return divides_mask(p ** n, low_plane)


def check_aunif(report: SplitReport) -> bool:
    """0 in B and A-uniform BA parity force the prime-power cyclotomic to
    divide A; returns the truth of that implication."""
    t = report.tiling
    if not t.B.mask & 1:
        return True
    if not report.a_uniform_ba:
        return True
    p, n = t.context.primes[report.direction]
    return divides_mask(p ** n, t.A)


def _grid_step(ctx: ZmContext, pair: tuple[int, int]) -> int:
    """M/(p_i p_j), the step of the grids L(z, step) of two directions."""
    pi, pj = (ctx.check_direction(nu)[0] for nu in pair)
    if pair[0] == pair[1]:
        raise InputError("the grid lemmas need two distinct directions")
    return ctx.M // (pi * pj)


def plane_consistency(t: Tiling, pair: tuple[int, int]) -> tuple[int, ...]:
    """On every grid L(z, M/p_i p_j), some direction nu in the pair confines
    both Sigma sets to the p_nu^{n_nu - 1}-planes of z's own pair (a, b).
    Returns the least such nu of each grid, indexed by its anchor z."""
    ctx = t.context
    step = _grid_step(ctx, pair)
    out = []
    for z in range(step):
        sa, sb = _sigmas(t, z, step)
        for nu in sorted(pair):
            p, n = ctx.primes[nu]
            q = p ** (n - 1)
            if len({x % q for x in sa}) == len({x % q for x in sb}) == 1:
                out.append(nu)
                break
        else:
            pi, pj = (ctx.primes[nu][0] for nu in pair)
            raise LemmaViolationError(
                f"no consistent direction for grid at {z} (pair p={pi},{pj}): "
                f"Sigma_A={sorted(sa)} Sigma_B={sorted(sb)}")
    return tuple(out)


def cross_direction_check(t: Tiling,
                          pair: tuple[int, int]) -> Optional[tuple[int, ...]]:
    """On every grid L(z, M/p_i p_j) where some contributing a0 carries a
    full direction-i fiber inside A, Sigma_A sits in a0's p_j^{n_j - 1}-plane.
    Returns the grids z where this applies, or None when it applies on none."""
    ctx = t.context
    step = _grid_step(ctx, pair)
    a_of = t.decomp[0]              # raises on a failed cover
    full = ctx.full_fibers(t.A.mask, pair[0])
    (pi, _), (pj, nj) = (ctx.primes[nu] for nu in pair)
    q = pj ** (nj - 1)
    applies = []
    for z in range(step):
        sa = set(a_of[z::step])
        a0 = next((a for a in sa if full >> a & 1), None)
        if a0 is None:
            continue
        # every other anchor passes once all of Sigma_A shares a0's plane
        bad = [a for a in sa if (a - a0) % q]
        if bad:
            raise LemmaViolationError(
                f"Sigma_A of grid at {z} escapes the plane of a0={a0} (directions"
                f" p={pi},{pj}): offending elements {sorted(bad)}")
        applies.append(z)
    return tuple(applies) or None


# ---------------------------------------------------------------------------
# Grids of step D = M / rad(M) with fully fibered A-parts.


class FiberedGridProfile(NamedTuple):
    """Direction structure of a tile that is fibered on every D-grid.

    grid_dirs maps each grid g < D that meets A to the least direction nu
    whose full fibers hold all of A's part of it; a member a of A lies on
    the fiber of direction grid_dirs[a % D] through a, which stays in its
    grid as D divides M/p_nu."""

    tiling: Tiling
    radical_step: int
    dir_sets: tuple[frozenset[int], ...]
    grid_dirs: dict[int, int]


def fibered_grid_profile(t: Tiling) -> FiberedGridProfile:
    ctx = t.context
    if len(ctx.primes) != 3:
        raise InputError(
            f"fibered-grid analysis needs exactly 3 prime directions, "
            f"M={ctx.M} has {len(ctx.primes)}")
    D = radical_quotient(ctx.M)
    if D == 1:
        raise NotFiberedError(
            "D(M)=1 degenerate: every grid of step D(M) is the full group")
    if not divides_mask(ctx.M, t.A):
        raise InputError("the full-order cyclotomic does not divide A")
    dir_sets = [frozenset(a for a in t.A.members if full >> a & 1)
                for full in (ctx.full_fibers(t.A.mask, nu) for nu in range(3))]
    parts: dict[int, list[int]] = {}
    for a in t.A.members:
        parts.setdefault(a % D, []).append(a)
    grid_dirs: dict[int, int] = {}
    for g in sorted(parts):
        part = parts[g]
        nu = next((nu for nu in range(3) if dir_sets[nu].issuperset(part)),
                  None)
        if nu is None:
            raise NotFiberedError(
                f"grid {g} (step {D}): A-part {part} is not a disjoint "
                f"union of fibers in any single direction")
        grid_dirs[g] = nu
    return FiberedGridProfile(t, D, tuple(dir_sets), grid_dirs)


def check_fiber_basic(profile: FiberedGridProfile) -> bool:
    """Translated fibers b*F(a) never overlap unless they coincide."""
    t = profile.tiling
    ctx = t.context
    M, D = ctx.M, profile.radical_step
    fibers = set()
    for a in t.A.members:
        p = ctx.primes[profile.grid_dirs[a % D]][0]
        fibers.add(tuple(sorted((a + k * (M // p)) % M for k in range(p))))
    placed: dict[int, tuple[int, tuple[int, ...]]] = {}
    for fib in sorted(fibers):
        for b in t.B.members:
            key = (b, fib)
            moved = [(w + b) % M for w in fib]
            for w in moved:
                prev = placed.setdefault(w, key)
                if prev != key:
                    raise LemmaViolationError(
                        f"translated fibers overlap at {w}: "
                        f"b={prev[0]} F={prev[1]} vs b={b} F={fib}")
    return True


class GridStratification(NamedTuple):
    """Directions used by one D-grid, stratified into layers."""

    axis: int
    directions: frozenset[int]
    layers: tuple[int, ...]


def grid_stratification(profile: FiberedGridProfile,
                        z0: int) -> GridStratification:
    t = profile.tiling
    ctx = t.context
    D = profile.radical_step
    a_of, _ = t.decomp
    kappa = {a: profile.grid_dirs[a % D] for a in _sigmas(t, z0, D)[0]}
    dirs = frozenset(kappa.values())
    triple = [a for a in kappa
              if all(a in profile.dir_sets[nu] for nu in range(3))]
    for a in triple:
        if dirs != {kappa[a]}:
            raise LemmaViolationError(
                f"grid {z0 % D}: {a} sits in every direction set with "
                f"kappa={kappa[a]}, yet directions {sorted(dirs)} occur")
    if len(dirs) > 2:
        raise LemmaViolationError(
            f"grid {z0 % D} uses three fiber directions: "
            f"{ {a: kappa[a] for a in sorted(kappa)} }")
    axis = max(set(range(3)) - dirs)
    p_axis = ctx.primes[axis][0]
    others = sorted(set(range(3)) - {axis})
    steps = [ctx.M // ctx.primes[nu][0] for nu in others]
    layers = []
    for nu in range(p_axis):
        base = (z0 + nu * ctx.M // p_axis) % ctx.M
        layer = {(base + alpha * steps[0] + beta * steps[1]) % ctx.M
                 for alpha in range(ctx.primes[others[0]][0])
                 for beta in range(ctx.primes[others[1]][0])}
        found = {profile.grid_dirs[a_of[w] % D] for w in layer}
        if len(found) != 1:
            raise LemmaViolationError(
                f"layer {nu} of grid {z0 % D} mixes directions {sorted(found)}")
        layers.append(found.pop())
    return GridStratification(axis, dirs, tuple(layers))


def consistency3_check(profile: FiberedGridProfile) -> Optional[bool]:
    """Grid through 0 (when 0 is in both tiles): Sigma_A lies in a
    p_l^{n_l - 1}-plane for some direction l other than the grid's own."""
    t = profile.tiling
    ctx = t.context
    if not (t.A.mask & 1 and t.B.mask & 1):
        return None
    i = profile.grid_dirs[0]
    others = sorted(set(range(3)) - {i})
    sigma = _sigmas(t, 0, profile.radical_step)[0]
    candidates = []
    for l in others:
        p, n = ctx.primes[l]
        table = ctx.coord_tables[l]
        q = p ** (n - 1)
        if all(table[a] % q == 0 for a in sigma):
            candidates.append(l)
    if not candidates:
        raise LemmaViolationError(
            f"Sigma_A of the grid through 0 escapes both candidate planes: "
            f"{sorted(sigma)}")
    for j, k in ((others[0], others[1]), (others[1], others[0])):
        in_i = sigma & profile.dir_sets[i]
        in_j = sigma & profile.dir_sets[j]
        if sigma <= profile.dir_sets[i] | profile.dir_sets[j] and in_i and in_j:
            if k not in candidates:
                raise LemmaViolationError(
                    f"two-direction grid through 0 must align with the third "
                    f"direction, but {k} fails: Sigma_A={sorted(sigma)}")
    return True


def consistent_splitting_check(profile: FiberedGridProfile,
                               z0: int) -> Optional[Parity]:
    """On a two-direction grid whose layers use each direction at least
    twice, every axis fiber splits with one common parity."""
    strat = grid_stratification(profile, z0)
    if len(strat.directions) != 2:
        return None
    if any(strat.layers.count(nu) < 2 for nu in strat.directions):
        return None
    t = profile.tiling
    ctx = t.context
    D = profile.radical_step
    step = ctx.M // ctx.primes[strat.axis][0]
    anchors = {w % step for w in range(z0 % D, ctx.M, D)}
    parities = {anchor: fiber_parity(t, anchor, strat.axis)
                for anchor in sorted(anchors)}
    found = set(parities.values())
    if len(found) != 1:
        sample = {a: parities[a].value for a in sorted(parities)}
        raise LemmaViolationError(
            f"grid {z0 % D} has mixed axis parities: {sample}")
    return found.pop()
