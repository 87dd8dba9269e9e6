"""Shared fixtures: cached tiling corpora so exhaustive suites enumerate once."""

import collections
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

import tilelab as tl

_corpora: dict[tuple[int, int | None], list] = {}

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_workloads():
    """perfbench/workloads.py, the benchmark's inputs and checks, loaded
    from its file (perfbench is not a package)."""
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def crt_value(ctx, coords):
    """sum_j x_j M/p_j^{n_j} mod M: the residue with CRT coordinates x_j."""
    return sum(x * (ctx.M // p**n) for x, (p, n) in zip(coords, ctx.primes)) % ctx.M


def div_set(A) -> frozenset:
    """Div(A) = {(a - a', M)} as a set of divisors, read off tl.div_bits."""
    bits = tl.div_bits(A)
    return frozenset(d for i, d in enumerate(A.context.divisors)
                     if bits >> i & 1)


def literal_full_fibers(T, direction):
    """The members of T whose whole direction fiber lies in T, as a mask."""
    ctx = T.context
    p = ctx.primes[direction][0]
    members = set(T.members)
    return sum(1 << a for a in members
               if all((a + k * ctx.M // p) % ctx.M in members
                      for k in range(p)))


def units(ctx) -> tuple:
    """The v in [0, M) with gcd(v, M) = 1; (0,) at M = 1."""
    return tuple(v for v in range(ctx.M) if ctx.gcd_table[v] == 1)


def corpus(M: int, cap: int | None = None) -> list:
    """Complete enumeration when cap is None, stratified sample otherwise.

    Cached for the whole session; callers must not mutate the lists.
    """
    key = (M, cap)
    if key not in _corpora:
        ctx = tl.factorize(M)
        if cap is None:
            _corpora[key] = tl.enumerate_tilings(ctx)
        else:
            _corpora[key] = tl.sample_tilings(ctx, cap)
    return _corpora[key]


def oracle_tilings() -> list:
    """Every tiling of Z_1..Z_24 and a seeded 150-tiling Z_36 sample: the
    corpus on which fast kernels are compared with their literal oracles."""
    tilings = [t for M in range(1, 25) for t in corpus(M)]
    return tilings + random.Random(36).sample(corpus(36, 2000), 150)


@pytest.fixture(scope="session")
def tilings():
    return corpus


def unchecked_pairs(count, seed, moduli):
    """Seeded pairs built with check=False over Z_lo..Z_hi for moduli =
    (lo, hi); about three in ten have |A||B| != M."""
    rng = random.Random(seed)
    for _ in range(count):
        ctx = tl.factorize(rng.randint(*moduli))
        M = ctx.M
        ka = rng.choice(ctx.divisors)
        kb = M // ka if rng.random() < 0.7 else rng.randint(1, M)
        A = tl.TileSet(ctx, [0] + rng.sample(range(1, M), ka - 1))
        B = tl.TileSet(ctx, [0] + rng.sample(range(1, M), kb - 1))
        yield tl.Tiling(A, B, check=False)


def szabo_tiling(p1, p2, p3):
    """Szabó's tiling of Z_M, M = (p1 p2 p3)^2, where neither tile is
    periodic.  In the coordinates x of sum x_i g_i, g_i = M/p_i^2:
    A = {a : a_i < p_i} and B = {p_i b_i : b_i < p_i}, with the disjoint
    lines L1 = {(p1 b, 0, 0)}, L2 = {(p1, p2 b, p3)}, L3 = {(0, p2, p3 b)}
    of B moved to L_i + g_i (Szabó, Discrete Math. 54, 1985)."""
    ps = (p1, p2, p3)
    ctx = tl.factorize((p1 * p2 * p3) ** 2)
    g = [ctx.M // p ** 2 for p in ps]

    def point(x):
        return sum(c * gi for c, gi in zip(x, g)) % ctx.M

    lines = [[(p1 * b, 0, 0) for b in range(p1)],
             [(p1, p2 * b, p3) for b in range(p2)],
             [(0, p2, p3 * b) for b in range(p3)]]
    moved = {x: tuple(c + (j == i) for j, c in enumerate(x))
             for i, line in enumerate(lines) for x in line}
    A = [point(a) for a in itertools.product(*map(range, ps))]
    B = [point(moved.get(x, x)) for x in itertools.product(
        *(range(0, p * p, p) for p in ps))]
    return tl.Tiling(tl.TileSet(ctx, A), tl.TileSet(ctx, B))


def digit_tilings(M, count, seed):
    """Seeded digit-product tilings of Z_M: the prime factors of M, shuffled
    and grouped into a chain of levels; level m with place P contributes
    the digits {d P : d < m} to A or to B (each side gets one at least),
    which tiles by mixed radix; then A and B are dilated by random units."""
    ctx = tl.factorize(M)
    rng = random.Random(seed)
    unit = units(ctx)
    factors = [p for p, n in ctx.primes for _ in range(n)]
    out = []
    for _ in range(count):
        rng.shuffle(factors)
        chain, cur = [], 1
        for f in factors:
            cur *= f
            if rng.random() < 0.6:
                chain.append(cur)
                cur = 1
        chain += [cur] if cur > 1 else []
        sides = [rng.random() < 0.5 for _ in chain]
        if len(set(sides)) < 2:
            sides[rng.randrange(len(chain))] = not sides[0]
        tiles, place = {True: [0], False: [0]}, 1
        for m, side in zip(chain, sides):
            tiles[side] = [v + d * place for v in tiles[side] for d in range(m)]
            place *= m
        A, B = (tl.TileSet(ctx, {v * r % M for v in tiles[side]})
                for side, r in ((True, rng.choice(unit)),
                                (False, rng.choice(unit))))
        out.append(tl.Tiling(A, B))
    return out


def lifted_tilings(M, count, rng):
    """Lifted digit tilings of Z_M, drawn from rng: the prime factors of M
    with multiplicity, shuffled, are the radices of the levels, and the
    j-th level of each prime goes to A when j is even, to B when j is odd.
    The level of radix m and place P (the product of the radices before
    it) contributes {(d + m k_d) P mod M : d < m}, k_d = rng.randrange(M):
    each digit stays in its class mod m, so A + B still tiles by mixed
    radix, but the tiles are no longer products of progressions."""
    ctx = tl.factorize(M)
    factors = [p for p, n in ctx.primes for _ in range(n)]
    out = []
    for _ in range(count):
        rng.shuffle(factors)
        tiles, levels, place = ([0], [0]), collections.Counter(), 1
        for m in factors:
            tile = tiles[levels[m] % 2]
            levels[m] += 1
            digits = [(d + m * rng.randrange(M)) * place for d in range(m)]
            tile[:] = [(v + x) % M for v in tile for x in digits]
            place *= m
        out.append(tl.Tiling(tl.TileSet(ctx, tiles[0]),
                             tl.TileSet(ctx, tiles[1])))
    return out
