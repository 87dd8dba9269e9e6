"""Command line behavior: exit codes, report shapes, determinism."""

import argparse
import concurrent.futures
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tilelab as tl
import tilelab.cli
import tilelab.cyclotomic
import tilelab.reduction
import tilelab.splitting
from tilelab.cli import main
from tilelab.errors import (EquivalenceViolationError, LemmaViolationError,
                            NeitherParityError, PipelineStuckError,
                            TheoremViolationError)
from tilelab.zm_core import MAX_M

from conftest import PERFBENCH, oracle_tilings, perfbench_workloads


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


GOOD = '{"M":4,"A":[0,1],"B":[0,2]}'
BAD = '{"M":4,"A":[0,2],"B":[0,2]}'
WORKED = '{"M":12,"A":[0,1,6,7],"B":[0,4,8]}'
SPLIT_720 = json.dumps({   # 744 fibers over three directions
    "M": 720,
    "A": sorted(a + 4 * b + 24 * c for a in range(2)
                for b in range(3) for c in range(5)),
    "B": sorted(2 * a + 12 * b + 120 * c for a in range(2)
                for b in range(2) for c in range(6))})


def _overfull_plane(monkeypatch, worked):
    """B's planes in direction p=2 hold 99 members of B at coordinate 0."""
    real = tilelab.reduction._plane_counts

    def counts(B, direction):
        if B == worked.B and direction == 0:
            return {0: 99}
        return real(B, direction)

    for module in (tilelab.reduction, tilelab.cli):
        monkeypatch.setattr(module, "_plane_counts", counts, raising=False)


def _flipped_fiber(direction):
    """Fiber 0 of the report in `direction` takes the other parity."""
    def force(monkeypatch, worked):
        real = tilelab.cli.split_report

        def report(t, i):
            got = real(t, i)
            if t == worked and i == direction:
                return got._replace(ab_mask=got.ab_mask ^ 1)
            return got

        monkeypatch.setattr(tilelab.cli, "split_report", report)
    return force


def _phi_4_dropped(monkeypatch, worked):
    """A's profile no longer lists Phi_4 (A is fibered in direction p=2)."""
    real = tilelab.cyclotomic.cyclo_profile

    def profile(T):
        got = real(T)
        if T == worked.A:
            return got._replace(divisors_of_mask=got.divisors_of_mask - {4})
        return got

    for module in (tilelab.cyclotomic, tilelab.reduction, tilelab.cli):
        monkeypatch.setattr(module, "cyclo_profile", profile)


def _slab_condition_fails(name, witness):
    """Slab condition `name` fails with `witness` on side A, direction p=2."""
    def force(monkeypatch, worked):
        real = getattr(tilelab.reduction, name)

        def condition(t, direction):
            if t == worked and direction == 0:
                return False, witness
            return real(t, direction)

        monkeypatch.setattr(tilelab.reduction, name, condition)
    return force


_SIDE_A_P2 = "side A direction p=2: "
_SPLIT_P2 = ("splitting criteria disagree in direction p=2 for A=(0, 1, 6, 7) "
             "B=(0, 4, 8) M=12: (I)=True (II)=False (III)=True")
_BLOWBOUND_B_P2 = ("side B direction p=2: uniformity forced but violated: "
                   "A=(0, 4, 8) B=(0, 1, 6, 7) M=12 direction p=2")
_DISAGREE_P2 = ("slab conditions disagree in direction p=2 for A=(0, 1, 6, 7) "
                "B=(0, 4, 8) M=12: (i)=False (ii)=True (iii)=True, "
                "witnesses=(0, None, None)")

# case: (forces, recorded (check, detail) in order)
SLAB_LOOP_RAISES = {
    "plane_bound": ([_overfull_plane],
                    [("plane_bound", "side A direction p=2")]),
    "blowbound_p3_and_splitting": ([_flipped_fiber(1)], [
        ("slab_suite", "side A direction p=3: uniformity forced but violated:"
         " A=(0, 1, 6, 7) B=(0, 4, 8) M=12 direction p=3"),
        ("slab_suite", "side B direction p=3: splitting criteria disagree in "
         "direction p=3 for A=(0, 4, 8) B=(0, 1, 6, 7) M=12: (I)=True "
         "(II)=False (III)=True")]),
    "splitting_and_blowbound_p2": ([_flipped_fiber(0)], [
        ("slab_suite", _SIDE_A_P2 + _SPLIT_P2),
        ("slab_suite", _BLOWBOUND_B_P2)]),
    "slabcor_not_divisible": ([_phi_4_dropped], [
        ("slab_suite", _SIDE_A_P2 + "premise holds but Phi_4 does not divide"
         " A=(0, 1, 6, 7) in Z_12; slab conditions cannot be stated")]),
    "slabcor_conditions_fail": ([_slab_condition_fails("slab_cond_i", 1),
                                 _slab_condition_fails("slab_cond_ii", 4),
                                 _slab_condition_fails("slab_cond_iii", 12)], [
        ("slab_suite", _SIDE_A_P2 + "premise holds but slab conditions fail "
         "for A=(0, 1, 6, 7) B=(0, 4, 8) direction p=2: witnesses=(1, 4, 12)"
         )]),
    "slab_conditions_disagree": ([_slab_condition_fails("slab_cond_i", 0)],
                                 [("slab_suite", _SIDE_A_P2 + _DISAGREE_P2)]),
    # the disagreement comes before the split report's on the same side
    "first_raise_only": ([_overfull_plane, _flipped_fiber(0),
                          _slab_condition_fails("slab_cond_i", 0)], [
        ("plane_bound", "side A direction p=2"),
        ("slab_suite", _SIDE_A_P2 + _DISAGREE_P2),
        ("slab_suite", _BLOWBOUND_B_P2)]),
}


class TestVerify:
    def test_tiling_exits_zero(self, capsys):
        code, rep, _ = run_json(capsys, "verify", GOOD)
        assert code == 0
        assert rep["command"] == "verify"
        assert rep["verification"] == {
            "direct": True, "sands": True, "cyclotomic": True, "agree": True}
        assert rep["input"] == {"M": 4, "A": [0, 1], "B": [0, 2]}
        assert len(rep["input_sha256"]) == 64

    def test_non_tiling_exits_one(self, capsys):
        code, rep, _ = run_json(capsys, "verify", BAD)
        assert code == 1
        assert rep["verification"] == {
            "direct": False, "sands": False, "cyclotomic": False,
            "agree": True}

    def test_out_of_range_residue_exits_two(self, capsys):
        code, out, err = run(capsys, "verify", '{"M":4,"A":[0,5],"B":[0,2]}')
        assert code == 2
        assert "outside" in err

    def test_boolean_modulus_exits_two(self, capsys):
        code, out, err = run(capsys, "verify", '{"M":true,"A":[0],"B":[0]}')
        assert code == 2
        assert out == ""
        assert "input error" in err

    def test_unreadable_argument_exits_two(self, capsys):
        code, out, err = run(capsys, "verify", "no such file")
        assert code == 2
        assert "input error" in err

    def test_over_long_integer_literal_exits_two(self, capsys):
        # over the interpreter's 4,300-digit limit for int parsing
        code, out, err = run(capsys, "verify",
                             '{"M": 1' + "0" * 5000 + ', "A":[0], "B":[0]}')
        assert code == 2
        assert out == ""
        assert "input error" in err

    def test_undecodable_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "tiling.json"
        path.write_bytes(b"\xff\xfe" + GOOD.encode("utf-16-le"))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert "input error" in err

    def test_deeply_nested_json_exits_two(self, capsys):
        code, out, err = run(capsys, "verify", '{"M":' + "[" * 100_000)
        assert code == 2
        assert out == ""
        assert "input error" in err

    def test_modulus_above_max_m_exits_two(self, capsys):
        code, out, err = run(capsys, "verify",
                             json.dumps({"M": MAX_M + 1, "A": [0], "B": [0]}))
        assert code == 2
        assert out == ""
        assert "MAX_M" in err

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "verify", GOOD)
        _, second, _ = run(capsys, "verify", GOOD)
        assert first == second

    def test_text_format_renders_same_data(self, capsys):
        code, out, _ = run(capsys, "verify", GOOD, "--format", "text")
        assert code == 0
        assert 'command: "verify"' in out.splitlines()


class TestAnalyze:
    def test_tile_sections(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", WORKED)
        assert code == 0
        assert rep["tiles"]["A"] == {
            "members": [0, 1, 6, 7], "size": 4, "S": [2, 4],
            "mask_divisors": [2, 4, 12], "T1": True, "T2": True}
        assert rep["tiles"]["B"] == {
            "members": [0, 4, 8], "size": 3, "S": [3],
            "mask_divisors": [3, 6, 12], "T1": True, "T2": True}

    def test_split_and_slab_sections(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", WORKED,
                                "--split", "--slab")
        assert code == 0
        verdicts = [(s["direction"], s["verdicts"]["uniform_BA"],
                     s["verdicts"]["uniform_AB"]) for s in rep["split"]]
        assert verdicts == [(2, True, False), (3, False, True)]
        assert rep["slab"][0] == {
            "direction": 2, "direction_index": 0, "hypothesis": True,
            "cond_i": True, "cond_ii": True, "cond_iii": True}
        assert rep["slab"][1] == {
            "direction": 3, "direction_index": 1, "hypothesis": False}

    def test_boxgrid(self, capsys):
        code, rep, _ = run_json(capsys, "analyze",
                                '{"M":9,"A":[0,1,2],"B":[0,3,6]}',
                                "--boxgrid")
        assert code == 0
        assert rep["boxgrid"] == {"all_ones": True, "pairs": 81}

    def test_non_tiling_refuses_sections(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", BAD, "--split")
        assert code == 1
        assert rep["verification"] == {"direct": False}
        assert "tiles" not in rep and "split" not in rep


class TestComplements:
    def test_unique_complement(self, capsys):
        code, out, _ = run(capsys, "complements", '{"M":9,"A":[0,1,2]}')
        assert code == 0
        assert out.strip().splitlines() == ['{"B": [0, 3, 6]}']

    def test_unnormalized_stream(self, capsys):
        code, out, _ = run(capsys, "complements", '{"M":4,"A":[0,1]}',
                           "--no-normalize")
        assert out.strip().splitlines() == ['{"B": [0, 2]}', '{"B": [1, 3]}']

    def test_limit_is_prefix(self, capsys):
        _, full, _ = run(capsys, "complements", '{"M":12,"A":[0,1,6,7]}')
        _, capped, _ = run(capsys, "complements", '{"M":12,"A":[0,1,6,7]}',
                           "--limit", "1")
        assert capped.strip().splitlines() == full.strip().splitlines()[:1]

    def test_limit_zero_prints_nothing(self, capsys):
        code, out, err = run(capsys, "complements", '{"M":12,"A":[0,1,6,7]}',
                             "--limit", "0")
        assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize("limit", ["-1", "-3"])
    def test_negative_limit_exits_two(self, capsys, limit):
        code, out, err = run(capsys, "complements", '{"M":12,"A":[0,1,6,7]}',
                             "--limit", limit)
        assert code == 2
        assert out == ""
        assert "input error" in err

    def test_deep_search_exits_zero(self, capsys):
        # one search level per member of B, deeper than the interpreter stack
        code, out, _ = run(capsys, "complements", '{"M":997,"A":[0]}',
                           "--limit", "1")
        assert code == 0
        assert out.strip().splitlines() == [json.dumps({"B": list(range(997))})]

    def test_missing_field_exits_two(self, capsys):
        code, _, err = run(capsys, "complements", '{"M":4}')
        assert code == 2
        assert "complement search needs" in err

    @pytest.mark.parametrize("tile", [
        '{"M":6,"A":["x",1]}', '{"M":6,"A":[0,1.0]}', '{"M":6,"A":[0,true]}',
        '{"M":6,"A":[0,3,3]}', '{"M":true,"A":[0]}'])
    def test_malformed_tile_exits_two(self, capsys, tile):
        code, out, err = run(capsys, "complements", tile)
        assert code == 2
        assert out == ""
        assert "input error" in err


class TestSweep:
    def test_full_lemma_and_t2_sweep(self, capsys):
        code, rep, _ = run_json(capsys, "sweep", "12", "--check", "all")
        assert code == 0
        assert rep["counts"] == {"tilings": 194, "fibers": 1940, "grids": 0}
        assert rep["violations"] == []
        assert rep["reports"] == []

    def test_limit_caps_corpus(self, capsys):
        code, rep, _ = run_json(capsys, "sweep", "16", "--check", "lemmas",
                                "--limit", "30")
        assert code == 0
        assert rep["counts"]["tilings"] == 30

    def test_limit_zero_gives_empty_report(self, capsys):
        code, rep, _ = run_json(capsys, "sweep", "12", "--limit", "0")
        assert code == 0
        assert rep["counts"] == {"tilings": 0, "fibers": 0, "grids": 0}

    @pytest.mark.parametrize("limit", ["-1", "-3"])
    def test_negative_limit_exits_two(self, capsys, limit):
        code, out, err = run(capsys, "sweep", "12", "--limit", limit)
        assert code == 2
        assert out == ""
        assert "input error" in err

    def test_deep_search_exits_zero(self, capsys):
        code, rep, _ = run_json(capsys, "sweep", "499", "--check", "t2",
                                "--limit", "1")
        assert code == 0
        assert rep["counts"]["tilings"] == 1
        assert rep["violations"] == []

    def test_parallel_matches_serial(self, capsys):
        _, serial, _ = run(capsys, "sweep", "12", "--check", "lemmas")
        _, parallel, _ = run(capsys, "sweep", "12", "--check", "lemmas",
                             "--jobs", "2")
        assert serial == parallel

    def test_failed_orbit_check_is_recorded(self, capsys, monkeypatch):
        real = tilelab.cli.tijdeman_orbit_check

        def failing_on_worked(t):
            if list(t.A) == [0, 1, 6, 7] and list(t.B) == [0, 4, 8]:
                raise TheoremViolationError("injected")
            return real(t)

        monkeypatch.setattr(tilelab.cli, "tijdeman_orbit_check",
                            failing_on_worked)
        code, rep, _ = run_json(capsys, "sweep", "12")
        assert code == 1
        assert rep["counts"] == {"tilings": 194, "fibers": 1940, "grids": 0}
        assert rep["violations"] == [{
            "check": "tijdeman_orbit",
            "tiling": {"M": 12, "A": [0, 1, 6, 7], "B": [0, 4, 8]},
            "detail": "injected"}]

    def test_report_does_not_depend_on_corpus_order(self, capsys,
                                                    monkeypatch):
        """The sweep sums counts and sorts violations and reports, so its
        bytes do not depend on the order iter_tilings yields tilings in."""
        real = tilelab.cli.tijdeman_orbit_check

        def failing_on_worked(t):
            # the worked tiling and its swap: two violations to sort
            if {t.A.members, t.B.members} == {(0, 1, 6, 7), (0, 4, 8)}:
                raise TheoremViolationError("injected")
            return real(t)

        monkeypatch.setattr(tilelab.cli, "tijdeman_orbit_check",
                            failing_on_worked)
        code, out, err = run(capsys, "sweep", "12", "--check", "all")
        assert code == 1
        assert len(json.loads(out)["violations"]) == 2
        forward = tilelab.cli.iter_tilings
        monkeypatch.setattr(tilelab.cli, "iter_tilings",
                            lambda ctx: reversed(list(forward(ctx))))
        assert run(capsys, "sweep", "12", "--check", "all") == (code, out, err)

    def test_failed_t2_pipeline_is_recorded(self, capsys, monkeypatch):
        real = tilelab.cli.prove_t2_largeprime

        def failing_on_worked(t):
            if list(t.A) == [0, 1, 6, 7] and list(t.B) == [0, 4, 8]:
                raise TheoremViolationError("injected")
            return real(t)

        monkeypatch.setattr(tilelab.cli, "prove_t2_largeprime",
                            failing_on_worked)
        code, rep, _ = run_json(capsys, "sweep", "12")
        assert code == 1
        assert rep["counts"] == {"tilings": 194, "fibers": 1940, "grids": 0}
        assert rep["violations"] == [{
            "check": "t2_pipeline",
            "tiling": {"M": 12, "A": [0, 1, 6, 7], "B": [0, 4, 8]},
            "detail": "injected"}]

    def test_each_pair_is_checked_once(self, capsys, monkeypatch):
        """One grid lemma call per pair checks all of that pair's grids:
        plane_consistency once per (tiling, i < j), cross_direction_check
        once per (tiling, ordered pair)."""
        calls = {"plane_consistency": [], "cross_direction_check": []}
        for name, seen in calls.items():
            def counting(t, pair, real=getattr(tilelab.cli, name), seen=seen):
                seen.append((t.A.members, t.B.members, pair))
                return real(t, pair)
            monkeypatch.setattr(tilelab.cli, name, counting)
        code, rep, _ = run_json(capsys, "sweep", "60", "--check", "lemmas",
                                "--limit", "16")
        assert code == 0 and rep["counts"]["tilings"] == 16
        tilings = {(a, b) for a, b, _ in calls["cross_direction_check"]}
        assert len(tilings) == 16
        for name, pairs in (("plane_consistency", [(0, 1), (0, 2), (1, 2)]),
                            ("cross_direction_check",
                             [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])):
            assert sorted(calls[name]) == sorted(
                (a, b, pair) for a, b in tilings for pair in pairs)

    def test_failed_pair_is_recorded_once(self, capsys, monkeypatch):
        """Sigma_A = {0, 1} on the grid L(7, 150) of the first Z_900 tiling
        leaves no consistent direction: one violation names the pair (0, 1)
        and the grid, and the other pairs still run clean."""
        real = tilelab.splitting._sigmas
        first = []

        def scattered(t, z, step):
            if not first:
                first.append(t)
            if t is first[0] and step == 150 and z == 7:
                return {0, 1}, real(t, z, step)[1]
            return real(t, z, step)

        monkeypatch.setattr(tilelab.splitting, "_sigmas", scattered)
        code, rep, _ = run_json(capsys, "sweep", "900", "--check", "lemmas",
                                "--limit", "3")
        assert code == 1
        [violation] = rep["violations"]
        assert violation["check"] == "grid_consistency"
        assert violation["detail"].startswith(
            "pair=(0, 1): no consistent direction for grid at 7 "
            "(pair p=2,3): Sigma_A=[0, 1] ")

    def test_each_grid_is_stratified_once(self, capsys, monkeypatch):
        real = tilelab.splitting.grid_stratification
        seen = []

        def counting(profile, z0):
            t = profile.tiling
            seen.append((t.A.members, t.B.members, z0))
            return real(profile, z0)

        monkeypatch.setattr(tilelab.splitting, "grid_stratification", counting)
        # a direct call from the sweep would bind the name in cli
        monkeypatch.setattr(tilelab.cli, "grid_stratification", counting,
                            raising=False)
        code, rep, _ = run_json(capsys, "sweep", "60", "--check", "lemmas",
                                "--limit", "40")
        assert code == 0 and rep["counts"]["grids"] > 0
        assert seen and len(set(seen)) == len(seen)

    def test_slab_equivalence_runs_once_per_side_and_direction(
            self, capsys, monkeypatch):
        real = tilelab.reduction.slab_equivalence_check
        real_lemmas = tilelab.cli._sweep_lemmas
        seen, repeats, calls = [], [], []

        def counting(t, direction):
            seen.append((t.A.members, t.B.members, direction))
            return real(t, direction)

        def lemmas_of_one_tiling(t, counts, violations):
            seen.clear()
            real_lemmas(t, counts, violations)
            repeats.extend(key for key in set(seen) if seen.count(key) > 1)
            calls.append(len(seen))

        monkeypatch.setattr(tilelab.reduction, "slab_equivalence_check",
                            counting)
        monkeypatch.setattr(tilelab.cli, "slab_equivalence_check", counting)
        monkeypatch.setattr(tilelab.cli, "_sweep_lemmas", lemmas_of_one_tiling)
        code, rep, _ = run_json(capsys, "sweep", "24", "--limit", "48",
                                "--check", "lemmas")
        assert code == 0
        assert len(calls) == 48 and sum(calls) > 0
        assert repeats == []

    @pytest.mark.parametrize("M, limit, exclusions, plane_counts",
                             [("24", "48", 96, 192), ("60", "16", 48, 96)])
    def test_slab_facts_are_decided_once_per_side_and_direction(
            self, capsys, monkeypatch, M, limit, exclusions, plane_counts):
        """Per (tiling, side, direction): one divisor-exclusion test where
        Phi_{p^n} divides the side and none elsewhere, and one plane count.
        The test of Phi_{p^n} | A is the slab check's own: cli does not
        bind divides_mask."""
        assert not hasattr(tilelab.cli, "divides_mask")
        real_lemmas = tilelab.cli._sweep_lemmas
        calls = {"slab_cond_ii": [], "_plane_counts": []}
        per_tiling = []

        def counting(name, real):
            def wrapper(*args):
                calls[name].append(args)
                return real(*args)
            return wrapper

        def lemmas_of_one_tiling(t, counts, violations):
            for seen in calls.values():
                seen.clear()
            real_lemmas(t, counts, violations)
            per_tiling.append((t, {name: list(seen)
                                   for name, seen in calls.items()}))

        for name in ("slab_cond_ii", "_plane_counts"):
            wrapper = counting(name, getattr(tilelab.reduction, name))
            for module in (tilelab.reduction, tilelab.cli):
                monkeypatch.setattr(module, name, wrapper, raising=False)
        monkeypatch.setattr(tilelab.cli, "_sweep_lemmas", lemmas_of_one_tiling)
        code, rep, _ = run_json(capsys, "sweep", M, "--limit", limit,
                                "--check", "lemmas")
        assert code == 0 and rep["violations"] == []
        assert len(per_tiling) == int(limit)
        totals = dict.fromkeys(calls, 0)
        for t, seen in per_tiling:
            triples = [(tt, i, p ** n) for tt in (t, t.swapped())
                       for i, (p, n) in enumerate(t.context.primes)]
            assert sorted((tt.A.members, tt.B.members, i)
                          for tt, i in seen["slab_cond_ii"]) == sorted(
                (tt.A.members, tt.B.members, i) for tt, i, q in triples
                if tl.divides_mask(q, tt.A))
            assert sorted((B.members, i) for B, i in seen["_plane_counts"]) \
                == sorted((tt.B.members, i) for tt, i, _ in triples)
            for name in calls:
                totals[name] += len(seen[name])
        assert totals == {"slab_cond_ii": exclusions,
                          "_plane_counts": plane_counts}

    @pytest.mark.parametrize("case", sorted(SLAB_LOOP_RAISES))
    def test_slab_loop_records_its_raises(self, capsys, monkeypatch, case):
        """Each raise of the slab loop, forced on the WORKED tiling through
        the kernels it reads, is recorded with its exact text; within one
        (side, direction) only the first raise is."""
        worked = tl.tiling_from_json(json.loads(WORKED))
        forces, details = SLAB_LOOP_RAISES[case]
        for force in forces:
            force(monkeypatch, worked)
        monkeypatch.setattr(tilelab.cli, "iter_tilings",
                            lambda ctx: iter([worked]))
        code, rep, _ = run_json(capsys, "sweep", "12", "--check", "lemmas")
        assert code == 1
        assert rep["counts"] == {"tilings": 1, "fibers": 10, "grids": 0}
        assert rep["violations"] == [
            {"check": check, "tiling": json.loads(WORKED), "detail": detail}
            for check, detail in details]

    @pytest.mark.parametrize("name", ["slab_equivalence_check",
                                      "splittingslab_equiv_check"])
    def test_failed_slab_check_is_recorded_once(self, capsys, monkeypatch,
                                                name):
        real = getattr(tilelab.reduction, name)
        worked = tl.tiling_from_json(json.loads(WORKED))

        def failing_on_worked(*args):
            # (tiling, direction), or the split report that carries them
            # and the slab verdict
            t, direction = (args if name == "slab_equivalence_check"
                            else (args[0].tiling, args[0].direction))
            if t == worked and direction == 0:
                raise EquivalenceViolationError("injected")
            return real(*args)

        for module in (tilelab.reduction, tilelab.cli):
            monkeypatch.setattr(module, name, failing_on_worked)
        monkeypatch.setattr(tilelab.cli, "iter_tilings",
                            lambda ctx: iter([worked]))
        code, rep, _ = run_json(capsys, "sweep", "12", "--check", "lemmas")
        assert code == 1
        assert rep["counts"] == {"tilings": 1, "fibers": 10, "grids": 0}
        assert rep["violations"] == [{
            "check": "slab_suite",
            "tiling": {"M": 12, "A": [0, 1, 6, 7], "B": [0, 4, 8]},
            "detail": "side A direction p=2: injected"}]

    @pytest.mark.parametrize("M, limit", [("24", "48"), ("60", "16")])
    def test_parities_are_decided_once_per_direction(self, capsys,
                                                     monkeypatch, M, limit):
        real = tilelab.splitting._ab_fibers
        seen = []

        def counting(t, direction):
            seen.append((t.A.members, t.B.members, direction))
            return real(t, direction)

        monkeypatch.setattr(tilelab.splitting, "_ab_fibers", counting)
        code, rep, _ = run_json(capsys, "sweep", M, "--limit", limit,
                                "--check", "lemmas")
        assert code == 0
        directions = len(tl.factorize(int(M)).primes)
        assert len(seen) == len(set(seen)) == int(limit) * directions

    def test_failed_decider_is_recorded_once(self, capsys, monkeypatch):
        real = tilelab.splitting._ab_fibers
        worked = tl.tiling_from_json(json.loads(WORKED))

        def failing_on_worked(t, direction):
            if t == worked and direction == 0:
                raise NeitherParityError("injected")
            return real(t, direction)

        real_slabcor = tilelab.cli.slabcor_check
        slabcor = []

        def counting(t, direction, *facts):
            slabcor.append((t.A.members, direction))
            return real_slabcor(t, direction, *facts)

        monkeypatch.setattr(tilelab.splitting, "_ab_fibers",
                            failing_on_worked)
        monkeypatch.setattr(tilelab.cli, "slabcor_check", counting)
        monkeypatch.setattr(tilelab.cli, "iter_tilings",
                            lambda ctx: iter([worked]))
        code, rep, _ = run_json(capsys, "sweep", "12", "--check", "lemmas")
        assert code == 1
        # the other direction's 4 fibers are counted, and the slab checks
        # that read no parity still run on both sides in both directions
        assert rep["counts"] == {"tilings": 1, "fibers": 4, "grids": 0}
        assert sorted(slabcor) == [((0, 1, 6, 7), 0), ((0, 1, 6, 7), 1),
                                   ((0, 4, 8), 0), ((0, 4, 8), 1)]
        assert rep["violations"] == [{
            "check": "no_upgrades",
            "tiling": {"M": 12, "A": [0, 1, 6, 7], "B": [0, 4, 8]},
            "detail": "injected"}]

    def test_modulus_above_max_m_exits_two(self, capsys):
        code, out, err = run(capsys, "sweep", str(MAX_M + 1))
        assert code == 2
        assert out == ""
        assert "MAX_M" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_two(self, capsys, jobs):
        code, out, err = run(capsys, "sweep", "12", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "input error" in err

    @pytest.mark.parametrize("cpus,pools", [(3, [3]), (None, [])])
    def test_jobs_capped_at_cpu_count(self, capsys, monkeypatch, cpus, pools):
        built = []

        class SerialPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        _, serial, _ = run(capsys, "sweep", "12", "--check", "lemmas")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, capped, _ = run(capsys, "sweep", "12", "--check", "lemmas",
                              "--jobs", "1000000")
        assert code == 0
        assert built == pools
        assert capped == serial

    def test_three_prime_cardinalities_reported_not_failed(self, capsys):
        code, rep, _ = run_json(capsys, "sweep", "84", "--check", "t2",
                                "--limit", "5")
        assert code == 0
        assert rep["violations"] == []
        assert rep["reports"]
        for r in rep["reports"]:
            assert r["kind"] == "t2_three_prime_cardinality"
            assert r["T2"] is True


def indented(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# Strings full of what JSON escapes or structures: brackets, separators,
# quotes, backslashes, control characters and non-ASCII.
_strings = st.text(alphabet=st.sampled_from(
    list('[]{},:"\\ ax0') + ["\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
                             "\u2603", "\U0001f600"]), max_size=8)
_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.integers(-(2**200), 2**200), _strings)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_strings, inner, max_size=4)),
    max_leaves=24)

# Homogeneous lists: lists of one scalar type, which the writer joins in
# one step, and tables (lists of dicts of one key tuple), which it writes
# item by item.  Column kinds of every sort ride along: bool mixed with
# int, floats and containers; so do rows of another key set or key order.
_keys = st.text(alphabet=st.sampled_from(
    list('%"\\ ak') + ["\n", "é", "\U0001f600"]), max_size=4)
_scalar_kinds = [_strings, st.integers(), st.integers(-(2**200), 2**200),
                 st.sampled_from([2**200, -(2**200)]), st.booleans(),
                 st.none()]
_column_kinds = _scalar_kinds + [
    st.one_of(st.booleans(), st.integers(0, 1)),
    st.floats(allow_nan=False),
    st.lists(st.integers(), max_size=2),
    st.tuples(st.booleans(), st.none()),
    st.dictionaries(_keys, st.none(), max_size=2),
]


@st.composite
def _homogeneous_lists(draw):
    if draw(st.booleans()):
        kind = draw(st.sampled_from(_scalar_kinds))
        items = draw(st.lists(kind, min_size=1, max_size=8))
    else:
        keys = draw(st.lists(_keys, unique=True, max_size=4))
        n = draw(st.sampled_from([1, 2, 7]))
        columns = [draw(st.lists(draw(st.sampled_from(_column_kinds)),
                                 min_size=n, max_size=n)) for _ in keys]
        items = [dict(zip(keys, row)) for row in zip(*columns)] or [{}] * n
        if keys and draw(st.booleans()):   # one row of another key set
            row = items[draw(st.integers(0, n - 1))]
            other = draw(_keys.filter(lambda k: k not in keys))
            row[other] = row.pop(keys[0])
        if len(keys) > 1 and draw(st.booleans()):   # or another key order
            i = draw(st.integers(0, n - 1))
            items[i] = dict(reversed(items[i].items()))
    return tuple(items) if draw(st.booleans()) else items


class TestJsonWriter:
    """_emit's JSON is byte for byte json.dumps(sort_keys=True, indent=2)."""

    @settings(max_examples=300, deadline=None)
    @given(report=st.dictionaries(_strings, _values, max_size=5))
    def test_bytes_equal_json_dumps(self, report):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            tilelab.cli._emit(report, "json")
        assert out.getvalue() == indented(report)

    @settings(max_examples=400, deadline=None)
    @given(report=st.dictionaries(_keys, _homogeneous_lists(), min_size=1,
                                  max_size=3))
    def test_homogeneous_lists_equal_json_dumps(self, report):
        report = {"nested": [report], **report}   # at two indentations
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            tilelab.cli._emit(report, "json")
        assert out.getvalue() == indented(report)

    @pytest.mark.parametrize("items", [
        ["", "%", '"', "\\", "é\U0001f600", "\x00\n"],
        [0, -1, 2**200, -(2**200)],
        [True, False, True],
        [None, None],
        [{"%k\"é": -(2**200), "b": "☃", "c": None, "d": False}],
        [{"k": k, "s": "a\"%" * k} for k in range(50)],
        [{"x": 1}, {"x": True}],                # a bool next to an int
        [{"x": 1}, {"y": 1}],                   # equal length, other keys
        [{"x": 1, "y": 2}, {"y": 2, "x": 1}],   # same keys, other order
        [{"x": 1.5}, {"x": 2.5}],
        [{"x": [1]}, {"x": (2,)}, {"x": {"y": None}}],
        [{}, {}],
        [1, True, None, "1"],
    ], ids=["str", "int", "bool", "none", "one_row", "many_rows",
            "bool_and_int", "other_keys", "other_order", "floats",
            "containers", "empty_dicts", "mixed"])
    def test_homogeneous_list_cases(self, items):
        for report in ({"l": items}, {"t": tuple(items)}):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                tilelab.cli._emit(report, "json")
            assert out.getvalue() == indented(report)

    def test_split_fibers_are_one_join(self, capsys, monkeypatch):
        """744 fibers take a few dozen writer calls, not one per fiber."""
        calls = []
        write = tilelab.cli._json_text

        def counted(*args):
            calls.append(args)
            return write(*args)

        monkeypatch.setattr(tilelab.cli, "_json_text", counted)
        _, out, _ = run(capsys, "analyze", SPLIT_720, "--split")
        assert sum(len(d["fibers"]) for d in json.loads(out)["split"]) == 744
        assert out == indented(json.loads(out))
        assert len(calls) <= 40

    @pytest.mark.parametrize("report", [
        {"fibers": [{"anchor": k, "parity": "AB" if k % 3 else "BA"}
                    for k in range(744)]},
        {"rows": [{"k": k, "flag": k % 2 == 0, "none": None, "s": str(k),
                   "big": -2**70 + k, "list": [k, None, True]}
                  for k in range(300)]},
        {"a": {"b": {"c": [True, False, None, {"d": None, "e": True},
                           [False, [None, {"f": False}]]]}}},
        {"x": [[[[True]]], {"y": {"z": {"w": None}}}, (None, (False,))],
         "empty": [[], {}, [{}], {"g": []}], "t": True, "n": None},
    ], ids=["fibers", "flat_rows", "deep_dicts", "deep_lists"])
    def test_long_and_deep_reports(self, report):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            tilelab.cli._emit(report, "json")
        assert out.getvalue() == indented(report)

    @pytest.mark.parametrize("argv", [
        ["verify", GOOD], ["verify", BAD],
        ["analyze", WORKED, "--split", "--slab", "--boxgrid"],
        ["analyze", '{"M":72,"A":[0,1,2,3,4,5,6,7],"B":[0,8,16,24,32,40,48,56,64]}',
         "--split", "--slab", "--boxgrid"],
        ["analyze", BAD, "--split"],
        ["analyze", SPLIT_720, "--split"],
        ["prove", '{"M":84,"A":[0,12,24,36,48,60,72],'
                  '"B":[0,1,2,3,4,5,6,7,8,9,10,11]}'],
        ["sweep", "84", "--check", "t2", "--limit", "5"],
    ])
    def test_real_reports(self, capsys, argv):
        _, out, _ = run(capsys, *argv)
        assert out == indented(json.loads(out))

    def test_stuck_proof_and_recorded_violations(self, capsys, monkeypatch):
        def stuck(t):
            raise PipelineStuckError("no reduction applies: \"stuck\" [x]")

        def failing(t):
            raise TheoremViolationError("injected {orbit}")

        monkeypatch.setattr(tilelab.cli, "prove_t2_largeprime", stuck)
        monkeypatch.setattr(tilelab.cli, "tijdeman_orbit_check", failing)
        code, out, _ = run(capsys, "prove", WORKED)
        assert code == 1 and json.loads(out)["stuck"]
        assert out == indented(json.loads(out))
        code, out, _ = run(capsys, "sweep", "12")
        assert code == 1 and json.loads(out)["violations"]
        assert out == indented(json.loads(out))


def emitted(report: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        tilelab.cli._emit(report, "json")
    return out.getvalue()


def split_reports(t) -> list:
    return [tilelab.splitting.split_report(t, i)
            for i in range(len(t.context.primes))]


class ToJsonCalled(Exception):
    pass


class TestSplitWriter:
    """A SplitReport in a JSON report is written, straight from its parity
    bits, as the text of json.dumps of its to_json()."""

    def assert_literal(self, r):
        assert emitted({"split": [r]}) == indented({"split": [r.to_json()]})

    def test_every_direction_of_the_oracle_corpus(self):
        rng = random.Random(30)
        reports = [r for t in oracle_tilings() for r in split_reports(t)]
        reports += split_reports(tl.tiling_from_json(json.loads(SPLIT_720)))
        for r in reports:
            self.assert_literal(r)
        # the corpus reports are uniform: mixed parities ride on new bits
        for r in reports[::10] + reports[-3:]:
            self.assert_literal(r._replace(ab_mask=rng.getrandbits(r.step)))

    @pytest.mark.parametrize("tiling", [
        '{"M":7,"A":[0],"B":[0,1,2,3,4,5,6]}',
        '{"M":7,"A":[0,1,2,3,4,5,6],"B":[0]}',
        '{"M":2,"A":[0,1],"B":[0]}',
        WORKED,
    ], ids=["prime_a_point", "prime_b_point", "z2", "worked"])
    def test_edge_reports(self, tiling):
        """Step 1 (M prime) and reports all AB or all BA, also nested
        deeper and next to other values."""
        reports = split_reports(tl.tiling_from_json(json.loads(tiling)))
        assert all(r.uniform_ab or r.uniform_ba for r in reports)
        for r in reports:
            self.assert_literal(r)
            whole = {"a": [{"split": [r, r], "n": None}], "z": [r]}
            literal = {"a": [{"split": [r.to_json()] * 2, "n": None}],
                       "z": [r.to_json()]}
            assert emitted(whole) == indented(literal)

    def test_json_analyze_builds_no_fiber_dict(self, capsys, monkeypatch):
        argv = ["analyze", SPLIT_720, "--split", "--slab", "--boxgrid"]
        _, want, _ = run(capsys, *argv)

        def refuse(self):
            raise ToJsonCalled

        monkeypatch.setattr(tilelab.splitting.SplitReport, "to_json", refuse)
        _, got, _ = run(capsys, *argv)
        assert got == want
        with pytest.raises(ToJsonCalled):   # text still renders to_json()
            run(capsys, *argv, "--format", "text")


class TestRequestPoolReplay:
    """Every request of the benchmark's pool prints the bytes pinned for it
    in perfbench/pinned.json, so a change to a report fails here too."""

    def test_pinned_outputs(self):
        workloads = perfbench_workloads()
        pinned = json.loads((PERFBENCH / "pinned.json").read_text())
        pinned = pinned["requests"]
        pool = workloads.request_pool(pinned["pool_seed"])
        assert workloads.pool_digest(pool) == pinned["pool_sha256"]
        kinds = set()
        for key, want in pinned["outputs"].items():
            kind, M, index = key.split("/")
            seen = workloads.request_call(tl, kind, pool[int(M)][int(index)])
            assert workloads.request_ok(seen, want), (key, seen)
            kinds.add(kind)
        assert {"verify", "analyze", "prove"} <= kinds


class TestSweepReplay:
    """Every sweep call of the benchmark prints the bytes pinned for it in
    perfbench/pinned.json, exits 0 and records no violation."""

    def test_pinned_outputs(self):
        workloads = perfbench_workloads()
        pinned = json.loads((PERFBENCH / "pinned.json").read_text())["sweep"]
        assert sorted(pinned) == sorted(
            workloads.sweep_key(*call) for call in workloads.SWEEP_CALLS)
        for key, want in pinned.items():
            M, limit = map(int, key.split("/"))
            seen = workloads.sweep_call(tl, M, limit)
            assert workloads.sweep_ok(seen, want, limit), (key, seen)


def literal_render_text(obj, indent=0, out=None):
    """--format text as it was written before it shared _SCALARS, one
    json.dumps per scalar: the oracle of _render_text."""
    lines = out if out is not None else []
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                literal_render_text(value, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {json.dumps(value)}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                literal_render_text(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


class TestTextWriter:
    """--format text writes the lines of literal_render_text."""

    @settings(max_examples=300, deadline=None)
    @given(report=st.dictionaries(_strings, _values, max_size=5))
    def test_lines_equal_the_literal_renderer(self, report):
        for obj in (report, list(report.values()), report.get("", 0)):
            assert (tilelab.cli._render_text(obj)
                    == literal_render_text(obj)), obj

    def test_split_report_text(self, capsys):
        _, report, _ = run_json(capsys, "analyze", SPLIT_720, "--split")
        _, text, _ = run(capsys, "analyze", SPLIT_720, "--split",
                         "--format", "text")
        assert text == "\n".join(literal_render_text(report)) + "\n"
        assert text.count("parity: ") == 744


class TestParserReuse:
    def test_flags_do_not_carry_over(self, capsys):
        tile = '{"M":12,"A":[0,1,6,7]}'
        run(capsys, "complements", tile, "--limit", "1", "--no-normalize")
        code, out, _ = run(capsys, "complements", tile)
        assert code == 0
        assert out.splitlines() == ['{"B": [0, 2, 4]}', '{"B": [0, 2, 10]}',
                                    '{"B": [0, 4, 8]}', '{"B": [0, 8, 10]}']
        run(capsys, "sweep", "12", "--check", "lemmas")
        code, rep, _ = run_json(capsys, "sweep", "12", "--check", "t2")
        assert code == 0
        assert rep["check"] == "t2"

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(50):
            assert main(["verify", GOOD]) == 0
        capsys.readouterr()
        # the parser and its five subparsers at most
        assert len(built) <= 6


class TestProve:
    def test_certificate_report(self, capsys):
        arg = ('{"M":84,"A":[0,12,24,36,48,60,72],'
               '"B":[0,1,2,3,4,5,6,7,8,9,10,11]}')
        code, rep, _ = run_json(capsys, "prove", arg)
        assert code == 0
        assert rep["certificate"]["steps"] == [
            {"kind": "prime_removal", "p": 7},
            {"kind": "base", "primes": 2}]
        assert rep["certificate"]["t2"] == {"A": True, "B": True}
        assert rep["replayed"] is True
        assert rep["large_prime_hypothesis"] is True

    def test_two_prime_input_is_base_only(self, capsys):
        code, rep, _ = run_json(capsys, "prove", WORKED)
        assert code == 0
        assert rep["certificate"]["steps"] == [{"kind": "base", "primes": 2}]

    def test_non_tiling_exits_one(self, capsys):
        code, out, err = run(capsys, "prove", BAD)
        assert code == 1
        assert "not a tiling" in err

    def test_non_tiling_output_is_pinned(self, capsys):
        assert run(capsys, "prove", BAD) == (
            1, "", "input is not a tiling of Z_4\n")
        assert run(capsys, "prove", WORKED.replace("8]", "9]")) == (
            1, "", "input is not a tiling of Z_12\n")

    @pytest.mark.parametrize("arg", [WORKED, BAD])
    def test_input_is_verified_twice_at_most(self, capsys, monkeypatch, arg):
        """prove_t2_largeprime's up-front check and the replay's: the CLI
        adds none of its own, and a non-tiling stops at the first."""
        real = tl.verify_direct
        calls = []

        def counting(A, B):
            calls.append((A.mask, B.mask))
            return real(A, B)

        for module in (tilelab.cli, tilelab.reduction, tilelab.tiling):
            monkeypatch.setattr(module, "verify_direct", counting)
        t = tl.tiling_from_json(json.loads(arg), check=False)
        code, _, _ = run(capsys, "prove", arg)
        assert calls.count((t.A.mask, t.B.mask)) == (2 if code == 0 else 1)


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(*args):
    """Run a new interpreter that imports tilelab from the source tree."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=120, check=False)


DEV_MODE = ("-X", "dev", "-W", "error", "-m", "tilelab.cli")


class TestColdStart:
    def test_cli_import_loads_no_process_pool(self):
        proc = fresh_python("-c", "import sys, tilelab, tilelab.cli; "
                            "print(' '.join(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.decode().split())
        assert "tilelab.cli" in loaded
        # only sweep --jobs N > 1 needs the pool, only box_product Fraction;
        # the records are NamedTuples and slot classes, not dataclasses
        for module in ("concurrent.futures", "multiprocessing", "fractions",
                       "dataclasses", "inspect"):
            assert module not in loaded

    def test_module_entry_point_matches_in_process(self, capsys):
        """Under -X dev -W error, so an unclosed file or any warning fails."""
        for argv in (["verify", WORKED],
                     ["analyze", WORKED, "--split", "--slab", "--boxgrid"],
                     ["prove", WORKED], ["complements", WORKED]):
            proc = fresh_python(*DEV_MODE, *argv)
            _, out, _ = run(capsys, *argv)
            assert proc.returncode == 0, argv
            assert proc.stderr == b"", argv
            assert proc.stdout == out.encode(), argv

    def test_process_pool_sweep_matches_serial(self, capsys):
        proc = fresh_python(*DEV_MODE, "sweep", "12", "--check", "all",
                            "--jobs", "2")
        _, out, _ = run(capsys, "sweep", "12", "--check", "all", "--jobs", "1")
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert proc.stdout == out.encode()


class TestNoCyclotomicCache:
    @pytest.mark.parametrize("content", ['{"6": [1, 1, 1]}', '{"6": [1, '],
                             ids=["wrong_entry", "truncated"])
    def test_cache_dir_is_ignored(self, tmp_path, monkeypatch, capsys,
                                  content):
        (tmp_path / "cyclotomics.json").write_text(content)
        monkeypatch.setenv("TILELAB_CACHE_DIR", str(tmp_path))
        code, rep, _ = run_json(capsys, "analyze",
                                '{"M":6,"A":[0,3],"B":[0,1,2]}')
        assert code == 0
        assert rep["tiles"]["A"]["mask_divisors"] == [2, 6]
        assert rep["tiles"]["B"]["mask_divisors"] == [3]
        assert [f.name for f in tmp_path.iterdir()] == ["cyclotomics.json"]
        assert (tmp_path / "cyclotomics.json").read_text() == content


# Hostile tiling JSON for the in-process fuzz below: every input must end in
# exit 0, 1 or 2 with no exception escaping main.
_moduli = st.one_of(
    st.integers(-3, 24), st.just(MAX_M + 1), st.booleans(), st.none(),
    st.floats(allow_nan=True), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2))
_members = st.lists(
    st.one_of(st.integers(-3, 30), st.booleans(), st.floats(-2, 30),
              st.text(max_size=2), st.none()),
    max_size=8).flatmap(
        lambda xs: st.just(xs + xs[:1]) | st.just(xs))   # maybe a duplicate
_huge = "1" + "0" * 5000


@st.composite
def _hostile_json(draw):
    kind = draw(st.sampled_from(["valid", "object", "huge", "malformed"]))
    if kind == "huge":
        return '{"M": ' + _huge + ', "A": [0], "B": [0]}'
    if kind == "malformed":
        text = draw(st.text(max_size=30))
        return draw(st.sampled_from(["{" + text, text, '{"M":' + text]))
    if kind == "valid":
        M = draw(st.integers(1, 24))
        tile = st.lists(st.integers(0, M - 1), min_size=1, max_size=8,
                        unique=True)
        return json.dumps({"M": M, "A": draw(tile), "B": draw(tile)})
    obj = {"M": draw(_moduli)}
    for name in ("A", "B"):
        if draw(st.booleans()) or name == "A":
            obj[name] = draw(_members)
    text = json.dumps(obj)
    if draw(st.booleans()):
        text = text.replace("[", "[" + _huge + ",", 1)
    return text


class TestHostileInput:
    @settings(max_examples=200, deadline=None)
    @given(text=_hostile_json(),
           argv=st.one_of(
               st.sampled_from([["verify"], ["analyze"], ["prove"],
                                ["analyze", "--split", "--slab", "--boxgrid"]]),
               st.integers(-3, 3).map(
                   lambda n: ["complements", "--limit", str(n)])))
    def test_exit_code_contract(self, text, argv):
        code = main([argv[0], text, *argv[1:]])
        assert code in (0, 1, 2)

    @pytest.mark.parametrize("argv", [["verify", "-:"], ["analyze"],
                                      ["complements", "{}", "--limit", "x"]])
    def test_usage_error_returns_two(self, capsys, argv):
        """argparse rejects these (an argument that looks like an option,
        a missing one, a bad int); main returns 2 instead of raising."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "usage: tilelab" in err
