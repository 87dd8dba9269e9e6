"""The result records are immutable, and a context is keyed by M alone.

The records are NamedTuples and ZmContext is a slot class: assigning or
deleting any field raises AttributeError.  Two contexts of one M compare,
hash and print alike however their tables were built, so each M is one
lru_cache key of the kernels that memoize per context.
"""

import pytest

import tilelab as tl
from tilelab import cyclotomic, reduction as rd, splitting as sp
from tilelab.zm_core import ZmContext, _class_bits

from conftest import crt_value

RECORD_CLASSES = {ZmContext, cyclotomic.CycloProfile, sp.SplitReport,
                  sp.FiberedGridProfile, sp.GridStratification,
                  rd.SlabVerdict, rd.SlabStep, rd.PrimeRemovalStep,
                  rd.T2Certificate}


def T(M, A, B):
    ctx = tl.factorize(M)
    return tl.Tiling(tl.TileSet(ctx, A), tl.TileSet(ctx, B))


def records():
    """One record of every class, each from its producer."""
    t60 = T(60, [0, 12, 24, 36, 48], range(12))
    profile = sp.fibered_grid_profile(t60)
    ctx900 = tl.factorize(900)
    box = sorted(crt_value(ctx900, (a, b, c))
                 for a in (0, 1) for b in (0, 1, 2) for c in range(5))
    cert = rd.prove_t2_largeprime(T(900, range(0, 900, 30), box))
    return [t60.context, cyclotomic.cyclo_profile(t60.A),
            sp.split_report(t60, 0), profile,
            sp.grid_stratification(profile, 0),
            rd.slab_equivalence_check(t60, 2), cert, *cert.steps]


def twin_of(ctx):
    """A context of ctx.M built from copies of ctx's tables."""
    return ZmContext(ctx.M, list(ctx.primes), list(ctx.divisors),
                     dict(ctx.phi_table), list(ctx.gcd_table),
                     [list(row) for row in ctx.coord_tables], ctx.full_mask)


def test_one_record_of_every_class():
    assert {type(r) for r in records()} == RECORD_CLASSES


@pytest.mark.parametrize("record", records(),
                         ids=lambda r: type(r).__name__)
def test_fields_reject_assignment(record):
    fields = list(type(record).__annotations__)
    assert fields
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = None


class TestZmContextIdentity:
    def test_field_lines_are_the_slots(self):
        assert tuple(ZmContext.__annotations__) == ZmContext.__slots__

    def test_equal_hash_and_repr_by_modulus(self):
        ctx = tl.factorize(12)
        twin = twin_of(ctx)
        assert twin is not ctx and twin.gcd_table is not ctx.gcd_table
        assert twin == ctx and hash(twin) == hash(ctx)
        assert repr(twin) == repr(ctx) == "ZmContext(M=12)"
        assert twin != tl.factorize(24)
        assert twin != (12,) and twin != 12

    def test_one_cache_entry_per_modulus(self):
        ctx = tl.factorize(36)
        twin = twin_of(ctx)
        assert _class_bits(twin) is _class_bits(ctx)
        plan = cyclotomic._cuboid_plan
        for w in (8, 16):
            assert plan(twin, w) is plan(ctx, w)
        assert plan(ctx, 8) != plan(ctx, 16)     # the widths do not share
