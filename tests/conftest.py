"""Shared fixtures: cached tiling corpora so exhaustive suites enumerate once."""

import random

import pytest

import tilelab as tl

_corpora: dict[tuple[int, int | None], list] = {}


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
