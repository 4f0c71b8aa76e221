"""Command-line interface: formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wtcpir
from wtcpir import EavesdropProfile, audit_decodability, build_plan, plan_to_json
from wtcpir.cli import main

from faults import broken_symmetry, rewired_side_information, shorter_key


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_json_worked_example(capsys):
    code, out, _ = run_cli(capsys, "capacity", "-M", "3", "-N", "2", "--mu", "1/4,1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["upper_bound"]["exact"] == "6/17"
    assert doc["best_rate"]["exact"] == "6/17"
    assert doc["gap"]["exact"] == "0"
    assert doc["argmax_tau"] == ["8/17", "9/17"]
    assert doc["best_n"] == [1, 2, 2]
    assert doc["upper_bound"]["decimal"] == "0.352941"


def test_capacity_csv_row_matches_sweep_single_point(capsys):
    code, cap_out, _ = run_cli(
        capsys, "capacity", "-M", "3", "-N", "2", "--mu", "1/4,1/2", "--format", "csv"
    )
    assert code == 0
    code, sweep_out, _ = run_cli(
        capsys, "sweep", "-M", "3", "-N", "2", "--step", "1/4", "--mu-max", "0"
    )
    assert code == 0
    assert sweep_out.splitlines()[0] == "mu_1,mu_2,upper,lower,gap,active_idx"
    assert cap_out.splitlines()[0] == "mu_1,mu_2,upper,lower,gap,active_idx"
    # a one-point sweep at the same profile produces the same row
    code, one, _ = run_cli(
        capsys, "sweep", "-M", "3", "-N", "2", "--step", "1/4", "--mu-max", "0"
    )
    zero_cap, zero_out, _ = run_cli(
        capsys, "capacity", "-M", "3", "-N", "2", "--mu", "0,0", "--format", "csv"
    )
    assert one == zero_out


def test_scheme_report(capsys):
    code, out, _ = run_cli(capsys, "scheme", "-M", "3", "-N", "2", "--mu", "1/4,1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == [1, 2, 2]
    assert doc["nu"] == 3
    assert doc["t"] == [16, 18]
    assert doc["key_len"] == [4, 9]
    assert doc["tau"] == ["4/7", "3/7"]
    assert doc["rate"]["exact"] == "6/17"


def test_scheme_explicit_sequence(capsys):
    code, out, _ = run_cli(
        capsys, "scheme", "-M", "3", "-N", "2", "--mu", "1/4,1/2", "--n", "2,2,2"
    )
    assert code == 0
    assert json.loads(out)["n"] == [2, 2, 2]


def test_unsorted_mu_is_usage_error_with_hint(capsys):
    code, _, err = run_cli(capsys, "capacity", "-M", "3", "-N", "2", "--mu", "1/2,1/4")
    assert code == 2
    assert "--sort-mu" in err


def test_sort_mu_flag(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "-M", "3", "-N", "2", "--mu", "1/2,1/4", "--sort-mu"
    )
    assert code == 0
    assert json.loads(out)["mu"] == ["1/4", "1/2"]


def test_bad_rational_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "capacity", "-M", "3", "-N", "2", "--mu", "x,1/2")
    assert code == 2 and "error" in err


def test_wrong_mu_count_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "capacity", "-M", "3", "-N", "2", "--mu", "1/4")
    assert code == 2 and "expected N=2" in err


def test_plan_simulate_audit_pipeline(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    code, out, _ = run_cli(
        capsys, "plan", "-M", "3", "-N", "2", "--mu", "1/4,1/2",
        "--desired", "1", "--seed", "7", "--out", str(plan_path),
    )
    assert code == 0
    assert plan_path.exists()
    table_path = tmp_path / "plan.md"
    assert table_path.exists()
    assert table_path.read_text(encoding="utf-8").startswith("| Database 1 | Database 2 |")
    doc = json.loads(plan_path.read_text(encoding="utf-8"))
    assert doc["version"] == 1
    assert doc["meta"]["t"] == [16, 18]

    code, out, _ = run_cli(capsys, "simulate", "--plan", str(plan_path), "--seed", "3")
    assert code == 0
    sim = json.loads(out)
    assert sim["verdict"] == "PASS" and sim["decoded_matches"] is True
    assert sim["stats"]["rate"] == "6/17"

    code, out, _ = run_cli(capsys, "audit", "--plan", str(plan_path), "--trials", "10")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "PASS"
    assert {rep[k]["status"] for k in ("privacy", "security", "decodability", "structure")} == {"PASS"}
    assert rep["structure"]["violations"] == []


def test_audit_tampered_plan_exits_one(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    run_cli(
        capsys, "plan", "-M", "3", "-N", "2", "--mu", "1/4,1/2",
        "--seed", "7", "--out", str(plan_path),
    )
    doc = json.loads(plan_path.read_text(encoding="utf-8"))
    queries = doc["databases"][0]["queries"]
    queries[0]["noise_slot"] = queries[1]["noise_slot"]
    plan_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "audit", "--plan", str(plan_path), "--trials", "5")
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "FAIL"
    assert rep["security"]["status"] == "FAIL"


def test_audit_structure_catches_a_dropped_side_term(tmp_path, capsys):
    # database 2's query 4 downloads b_3 + c_1 (desired 2); dropping its side
    # term c_1 leaves a lone download of message 2 there, which privacy
    # (rebuilt from meta), security and decodability all PASS
    plan_path = tmp_path / "plan.json"
    run_cli(
        capsys, "plan", "-M", "3", "-N", "2", "--mu", "1/4,1/2",
        "--seed", "7", "--desired", "2", "--out", str(plan_path),
    )
    doc = json.loads(plan_path.read_text(encoding="utf-8"))
    query = doc["databases"][1]["queries"][3]
    assert query["terms"] == [[2, 3], [3, 1]]
    query["terms"] = [[2, 3]]
    plan_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "audit", "--plan", str(plan_path), "--trials", "5")
    rep = json.loads(out)
    assert code == 1 and rep["status"] == "FAIL"
    assert [rep[k]["status"] for k in ("privacy", "security", "decodability")] == ["PASS"] * 3
    assert rep["structure"] == {
        "audit": "structure",
        "status": "FAIL",
        "violations": [
            "db 2 round 1: subset (2,) appears 1 times, complete stages require 0",
            "db 2 round 2: subset (2, 3) appears 2 times, complete stages require 3",
        ],
    }


def _set_noise_slot(doc, value):
    doc["databases"][0]["queries"][0]["noise_slot"] = value


def _set_first_term(doc, index, value):
    doc["databases"][0]["queries"][0]["terms"][0][index] = value


@pytest.mark.parametrize("command", ["audit", "simulate"])
def test_out_of_range_noise_slot_is_usage_error(tmp_path, capsys, command):
    plan_path = tmp_path / "plan.json"
    run_cli(
        capsys, "plan", "-M", "3", "-N", "2", "--mu", "1/4,1/2",
        "--seed", "7", "--out", str(plan_path),
    )
    honest = plan_path.read_text(encoding="utf-8")
    # the first query of database 1 downloads (message 1, slot 1)
    cases = [
        (lambda doc: _set_noise_slot(doc, 99), "db 1 query 1: noise slot 99 outside 1..16"),
        (lambda doc: doc["databases"].append(doc["databases"][0]), "3 databases listed, expected N=2"),
        (lambda doc: _set_first_term(doc, 0, 9), "db 1 query 1: message 9 outside 1..3"),
        (lambda doc: _set_first_term(doc, 0, 0), "db 1 query 1: message 0 outside 1..3"),
        (lambda doc: _set_first_term(doc, 1, 999), "db 1 query 1: slot 999 outside 1..12"),
        (lambda doc: doc["meta"].update(desired=0), "desired message 0 out of range 1..3"),
        (lambda doc: doc["meta"].update(desired=4), "desired message 4 out of range 1..3"),
        # counts, indices and seeds must be JSON integers, and the field large enough
        (lambda doc: doc["meta"].update(M=3.7), "M must be an integer, got 3.7"),
        (lambda doc: doc["meta"].update(q=1.5), "q must be an integer, got 1.5"),
        (lambda doc: doc["meta"].update(seed=True), "seed must be an integer, got True"),
        (lambda doc: doc["meta"].update(q=2), "field too small: t=16 > q=2"),
        (lambda doc: doc["meta"].update(q=2 ** 64 + 13), "field modulus too large"),
        # malformed documents; an edit that returns a value replaces the document
        (lambda doc: [], "plan document must be a JSON object, not list"),
        (lambda doc: "x", "plan document must be a JSON object, not str"),
        (lambda doc: doc.update(databases=None), "'NoneType' object is not iterable"),
        (lambda doc: doc.update(meta=[]), "list indices must be integers"),
    ]
    for edit, message in cases:
        doc = json.loads(honest)
        edited = edit(doc)
        plan_path.write_text(json.dumps(doc if edited is None else edited), encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--plan", str(plan_path))
        assert code == 2 and out == "", message
        assert err.startswith("error: cannot load plan: ") and message in err, err


def test_huge_prime_field_loads_and_runs(tmp_path, capsys):
    # primality of a modulus near 10^18 is decided at once, not by trial division
    plan_path = tmp_path / "plan.json"
    run_cli(
        capsys, "plan", "-M", "3", "-N", "2", "--mu", "1/4,1/2",
        "--seed", "7", "--out", str(plan_path),
    )
    doc = json.loads(plan_path.read_text(encoding="utf-8"))
    doc["meta"]["q"] = 1000000000000000003
    plan_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "simulate", "--plan", str(plan_path))
    assert code == 0 and json.loads(out)["verdict"] == "PASS"
    code, out, _ = run_cli(capsys, "audit", "--plan", str(plan_path), "--trials", "5")
    assert code == 0 and json.loads(out)["status"] == "PASS"


def _fresh_process(argv):
    src = Path(wtcpir.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wtcpir.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, capsys.readouterr().out


def test_reused_parser_matches_fresh_processes(capsys):
    # the parser is built once per process; no default or namespace value
    # may carry over from one call to the next
    worked = ["-M", "3", "-N", "2", "--mu", "1/4,1/2"]
    calls = [
        ["plan", *worked, "--n", "2,2,2", "--seed", "7"],
        ["plan", *worked, "--seed", "7"],
        ["capacity", "-M", "3", "--mu", "1/4,1/2"],
        ["capacity", *worked],
        ["capacity", *worked, "--format", "csv"],
        ["capacity", *worked],
    ]
    got = [_in_process(capsys, argv) for argv in calls]
    assert [code for code, _ in got] == [0, 0, 2, 0, 0, 0]
    assert got[0][1] != got[1][1] and got[4][1] != got[5][1]
    assert got == [_fresh_process(argv) for argv in calls]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_audit_refuses_fewer_than_one_trial(tmp_path, capsys, trials):
    # refused before the plan is even read, so a missing file does not matter
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, "audit", "--plan", missing, "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"error: --trials must be at least 1, got {trials}\n"
    plan = build_plan(3, 2, (1, 2, 2), EavesdropProfile(["1/4", "1/2"]), desired=1, seed=7)
    with pytest.raises(ValueError, match="at least 1 trial"):
        audit_decodability(plan, trials=int(trials))


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "-M", "3", "-N", "2", "--mu", "1/4,1/2"],
        ["audit", "--plan", "plan.json"],
    ],
)
def test_budget_flag_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", "100"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_plan_invalid_sequence_structured_error(capsys):
    code, _, err = run_cli(
        capsys, "plan", "-M", "3", "-N", "2", "--mu", "1/4,1/2", "--n", "1,2,3"
    )
    assert code == 2
    assert "error" in err


def test_plan_field_too_small_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "plan", "-M", "3", "-N", "2", "--mu", "1/4,1/2", "--field-q", "17"
    )
    assert code == 2 and "field too small" in err


def test_plan_stdout_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "-M", "3", "-N", "2", "--mu", "1/4,1/2",
        "--seed", "7", "--format", "table",
    )
    assert code == 0
    assert out.startswith("| Database 1 | Database 2 |")


@pytest.mark.parametrize("kind, slot", [("rewired", "(3, 6) for slot 12"), ("broken-symmetry", "(3, 2) for slot 4")])
def test_simulate_undecodable_plan_fails_with_exit_1(plan_files, capsys, kind, slot):
    code, out, err = run_cli(capsys, "simulate", "--plan", str(plan_files[kind]), "--seed", "3")
    assert code == 1 and err == ""
    rep = json.loads(out)
    assert rep["verdict"] == "FAIL" and rep["decoded_matches"] is False
    assert rep["error"] == f"db 1: side information {slot} was never downloaded"
    assert rep["stats"]["rate"] == "6/17" and "transcript" not in rep


def test_simulate_missing_plan_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--plan", str(tmp_path / "missing.json"))
    assert code == 2 and "not found" in err


def test_sweep_csv_grid(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "-M", "2", "-N", "2", "--step", "1/2", "--mu-max", "1/2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu_1,mu_2,upper,lower,gap,active_idx"
    # grid {0, 1/2} ascending pairs: (0,0), (0,1/2), (1/2,1/2)
    assert len(lines) == 4
    assert lines[1].startswith("0.000000,0.000000,")
    assert lines[3].startswith("0.500000,0.500000,")
    for line in lines[1:]:
        assert line.split(",")[4] == "0.000000"  # exact scheme everywhere


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "-M", "2", "-N", "2", "--step", "1/2", "--mu-max", "0",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["upper"] == rows[0]["lower"] == "0.666667"


def test_byte_identical_reruns(tmp_path, capsys):
    args = ["capacity", "-M", "3", "-N", "2", "--mu", "1/4,1/2"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, *args, "--out", str(out1))
    run_cli(capsys, *args, "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_out_file_matches_stdout(tmp_path, capsys):
    args = ["scheme", "-M", "3", "-N", "2", "--mu", "1/4,1/2"]
    _, stdout_text, _ = run_cli(capsys, *args)
    target = tmp_path / "scheme.json"
    code, out, _ = run_cli(capsys, *args, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


# ---------------------------------------------------------------------------
# Golden outputs: one SHA-256 prefix of (exit code, stdout, stderr) per
# invocation, so any change to what the CLI prints shows up by name.
# ---------------------------------------------------------------------------

WORKED = ["-M", "3", "-N", "2", "--mu", "1/4,1/2"]
MU_STAR_54 = ["-M", "5", "-N", "4", "--mu", "0,1/9,2/9,1/3"]


def _plan_files(directory):
    """The honest worked-example plan (desired 1, seed 7) and its
    fault-injected variants, written as plan documents."""
    mu = EavesdropProfile(["1/4", "1/2"])
    honest = build_plan(3, 2, (1, 2, 2), mu, desired=1, seed=7)
    plans = {
        "honest": honest,
        "shorter-key": shorter_key(honest),
        "rewired": rewired_side_information(honest),
        "broken-symmetry": broken_symmetry(3, 2, (1, 2, 2), mu, seed=7)[0],
    }
    paths = {}
    for kind, plan in plans.items():
        paths[kind] = directory / f"{kind}.json"
        paths[kind].write_text(plan_to_json(plan), encoding="utf-8")
    return paths


GOLDEN_INVOCATIONS = {
    "capacity-json": ["capacity", *WORKED],
    "capacity-table": ["capacity", *WORKED, "--format", "table"],
    "capacity-csv": ["capacity", *WORKED, "--format", "csv"],
    "capacity-54-json": ["capacity", *MU_STAR_54],
    "capacity-54-table": ["capacity", *MU_STAR_54, "--format", "table"],
    "capacity-54-csv": ["capacity", *MU_STAR_54, "--format", "csv"],
    "scheme": ["scheme", *WORKED],
    "plan-json": ["plan", *WORKED, "--seed", "7"],
    "plan-table": ["plan", *WORKED, "--seed", "7", "--format", "table"],
    "plan-bad-sequence": ["plan", *WORKED, "--n", "1,2,3"],
    "plan-small-field": ["plan", *WORKED, "--field-q", "17"],
    "plan-bad-desired": ["plan", *WORKED, "--desired", "5"],
    **{
        f"{command}-{kind}-{fmt}": [command, "--plan", kind, "--seed", "3", "--format", fmt]
        + (["--trials", "20"] if command == "audit" else [])
        for command in ("simulate", "audit")
        for kind in ("honest", "shorter-key", "rewired", "broken-symmetry")
        for fmt in ("json", "table")
    },
    "sweep-csv": ["sweep", "-M", "3", "-N", "2", "--step", "1/4", "--mu-max", "1/2"],
    "sweep-json": ["sweep", "-M", "3", "-N", "2", "--step", "1/4", "--mu-max", "1/2",
                   "--format", "json"],
}

GOLDEN_DIGESTS = {
    "audit-broken-symmetry-json": "aea460dd28ab0b80",
    "audit-broken-symmetry-table": "1b11246df59dcdfe",
    "audit-honest-json": "4b20b29ba30f7ea7",
    "audit-honest-table": "865c9a4144a497ca",
    "audit-rewired-json": "43361cd4eb7fd9c7",
    "audit-rewired-table": "e6ff49446b7474d9",
    "audit-shorter-key-json": "b3547a2a058a1a97",
    "audit-shorter-key-table": "3f5b3d507eeb92a1",
    "capacity-54-csv": "87031e07b11a2c5c",
    "capacity-54-json": "b9cdbfc4a82c81a4",
    "capacity-54-table": "8b680b8094e246f8",
    "capacity-csv": "a495c38ae8cee348",
    "capacity-json": "740077280aac619c",
    "capacity-table": "19e3268d8ac91aed",
    "plan-bad-desired": "3ee41097e26babc5",
    "plan-bad-sequence": "4059f6faafdabbc5",
    "plan-json": "e30ad336f5b07167",
    "plan-small-field": "d88f3da2d248946e",
    "plan-table": "54b8962cd45a704b",
    "scheme": "0d5fa2b7369650da",
    "simulate-broken-symmetry-json": "ffe7609d8741bfbf",
    "simulate-broken-symmetry-table": "324631760f5c4011",
    "simulate-honest-json": "52af24bb4906891b",
    "simulate-honest-table": "3d7ae7d06d25191d",
    "simulate-rewired-json": "0ebc4f6060bd7d71",
    "simulate-rewired-table": "be23b0dbea628dc1",
    "simulate-shorter-key-json": "36db8aa8776eb57a",
    "simulate-shorter-key-table": "2b97e7e287821088",
    "sweep-csv": "a32b0578b72c010b",
    "sweep-json": "9fa70c11b82a481a",
}


@pytest.fixture(scope="module")
def plan_files(tmp_path_factory):
    return _plan_files(tmp_path_factory.mktemp("plans"))


@pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
def test_cli_golden_output(name, plan_files, capsys):
    argv = list(GOLDEN_INVOCATIONS[name])
    if "--plan" in argv:
        i = argv.index("--plan") + 1
        argv[i] = str(plan_files[argv[i]])
    code, out, err = run_cli(capsys, *argv)
    digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()[:16]
    assert digest == GOLDEN_DIGESTS[name], (code, out[:200], err[:200])
