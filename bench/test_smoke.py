"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_smoke.py

Runs every workload at its smallest round through the untraced and the
traced path, checks that the metric names match BENCHMARK.json, that a
corrupted op output is counted as failed, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(bench.SRC))
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def smallest_rounds(monkeypatch):
    """Shrink each workload's round to its fewest ops."""
    monkeypatch.setattr(wl.LpLadder, "SHAPES", ((5, 4),))
    monkeypatch.setattr(wl.LpLadder, "FAMILY", (wl.MU_STAR,))
    monkeypatch.setattr(wl.Retrieve, "FAMILY", wl.Retrieve.FAMILY[-2:])
    monkeypatch.setattr(wl.Audit, "SETS", 1)


def test_spec_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v[0] for k, v in bench.PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_workload_untraced_and_traced(name):
    plain = bench.run(name, seed=3, seconds=0, trace=False, goldens=name == "lp-ladder")
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert all(g["got"] == g["want"] for g in plain["goldens"])
    assert "\n".join(bench.report(plain))

    traced = bench.run(name, seed=3, seconds=0, trace=True, goldens=False)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == set(bench.PER_LAYER)
    facts = traced["trace_facts"]
    assert facts["nesting_errors"] == 0 and facts["self_sum_residual_ns"] == 0
    assert facts["lp_ops"] == facts["lp_ops_matching_2N^(M-1)+N"]
    if name == "retrieve":
        assert next(iter(facts["run_retrieval_self_ms"])) == "fieldmath.mat_solve"


def _corrupt(monkeypatch, cls, corrupt):
    digest = cls.digest

    def corrupted(self, inp, raw):
        dig = digest(self, inp, raw)
        corrupt(inp, dig)
        return dig

    monkeypatch.setattr(cls, "digest", corrupted)


def test_flipped_decoded_symbol_counts_as_failed(monkeypatch):
    def flip(inp, dig):
        dig["decoded"][0] = (dig["decoded"][0] + 1) % dig["q"]

    _corrupt(monkeypatch, wl.Retrieve, flip)
    res = bench.run("retrieve", seed=3, seconds=0, trace=False, goldens=False)
    assert res["failed"] == res["attempted"] > 0 and not res["correct"]
    assert res["metrics"]["ok_share"]["value"] == 0


def test_pass_on_a_faulty_file_counts_as_failed(monkeypatch):
    def all_pass(inp, dig):
        dig.update(rc=0, status="PASS", verdicts=["PASS"] * 3)

    _corrupt(monkeypatch, wl.Audit, all_pass)
    res = bench.run("audit", seed=3, seconds=0, trace=False, goldens=False)
    faulty = [r for r in res["records"] if r["input"]["kind"] != "honest"]
    assert faulty and all(r["failure"] for r in faulty)
    assert res["failed"] == len(faulty) and not res["correct"]


def test_wrong_lp_value_counts_as_failed(monkeypatch):
    def bump(inp, dig):
        dig["value"] = str(Fraction(dig["value"]) + Fraction(1, 10**9))

    _corrupt(monkeypatch, wl.LpLadder, bump)
    res = bench.run("lp-ladder", seed=3, seconds=0, trace=False, goldens=False)
    assert res["failed"] == res["attempted"] > 0 and not res["correct"]


def test_refuses_to_run_without_the_program():
    bare = bench.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "retrieve", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
