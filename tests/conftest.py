"""Shared fixtures: cached tiling corpora so exhaustive suites enumerate once."""

import random

import pytest

import tilelab as tl

_corpora: dict[tuple[int, int | None], list] = {}


def crt_value(ctx, coords):
    """sum_j x_j M/p_j^{n_j} mod M: the residue with CRT coordinates x_j."""
    return sum(x * (ctx.M // p**n) for x, (p, n) in zip(coords, ctx.primes)) % ctx.M


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
