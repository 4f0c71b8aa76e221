"""Command-line interface: formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wtcpir
from wtcpir import EavesdropProfile, audit_decodability, build_plan, plan_to_json, planner, protocol
from wtcpir.cli import main

import faults
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["capacity", "-M", "3", "-N", "2", "--mu", "1,1/2", "--sort-mu"],
         "eavesdropping ratio 1 outside [0, 1)"),
        (["sweep", "-M", "3", "-N", "2", "--step", "0"], "need step > 0 and 0 <= mu-max < 1"),
        (["sweep", "-M", "3", "-N", "2", "--step", "x"], "not an exact rational: 'x'"),
        (["sweep", "-M", "3", "-N", "2", "--mu-max", "1"], "need step > 0 and 0 <= mu-max < 1"),
        # refused before the search enumerates, not after about 20 minutes
        (["scheme", "-M", "20", "-N", "10", "--mu", ",".join(["0"] * 10)],
         "enumeration too large: C(M+N-1, M) = 10015005 schemes exceeds the budget of 500000"),
        (["plan", "-M", "20", "-N", "10", "--mu", ",".join(["0"] * 10)],
         "enumeration too large: C(M+N-1, M) = 10015005 schemes exceeds the budget of 500000"),
        # refused before the 500001-point grid is built, not after its rows
        (["sweep", "-M", "3", "-N", "2", "--step", "1/1000000", "--mu-max", "1/2"],
         "enumeration too large: C(G+N-1, N) = 125000750001 profiles exceeds the budget of 500000"),
        # a count below 1 is refused by name before the grid budget or the
        # --mu count reads it
        (["sweep", "-M", "3", "-N", "-1"], "need M >= 1 and N >= 1"),
        (["sweep", "-M", "0", "-N", "2"], "need M >= 1 and N >= 1"),
        (["capacity", "-M", "3", "-N", "-1", "--mu", "0"], "need M >= 1 and N >= 1"),
        (["capacity", "-M", "3", "-N", "0", "--mu", "0"], "need M >= 1 and N >= 1"),
        (["scheme", "-M", "0", "-N", "2", "--mu", "0,0"], "need M >= 1 and N >= 1"),
        (["plan", "-M", "-2", "-N", "2", "--mu", "0,0"], "need M >= 1 and N >= 1"),
    ],
)
def test_bad_argument_values_are_usage_errors(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_blank_sequence_is_usage_error(capsys):
    # an empty --n is refused like a blank one, not read as "no --n given"
    for command in ("scheme", "plan"):
        for n in ("", " "):
            argv = [command, "-M", "3", "-N", "2", "--mu", "1/4,1/2", "--n", n]
            assert run_cli(capsys, *argv) == (2, "", "error: --n entries must be integers, got ''\n")


def test_non_integer_sequence_entry_is_usage_error(capsys):
    # the error names the option and the stripped entry, not int()'s
    # "invalid literal"
    for command in ("scheme", "plan"):
        for entry in ("x", "2.5"):
            argv = [command, "-M", "3", "-N", "2", "--mu", "1/4,1/2", "--n", f"1, {entry},2"]
            assert run_cli(capsys, *argv) == (
                2, "", f"error: --n entries must be integers, got '{entry}'\n")


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
    assert (rep["decodability"]["certificate"], rep["decodability"]["trials"]) == ("linear", 10)
    assert {rep[k]["status"] for k in ("privacy", "security", "decodability", "structure")} == {"PASS"}
    assert rep["structure"]["violations"] == []
    # by default the proof is cross-checked by 32 trials
    code, out, _ = run_cli(capsys, "audit", "--plan", str(plan_path))
    decod = json.loads(out)["decodability"]
    assert code == 0 and (decod["certificate"], decod["trials"]) == ("linear", 32)


def test_audit_compiles_one_wire(plan_files, capsys, monkeypatch):
    compiled = []
    init = protocol._Wire.__init__

    def counting(self, plan):
        compiled.append(plan)
        init(self, plan)

    monkeypatch.setattr(protocol._Wire, "__init__", counting)
    code, _, _ = run_cli(capsys, "audit", "--plan", str(plan_files["honest"]), "--trials", "3")
    assert code == 0 and len(compiled) == 1


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
            "db 2: message set (2,) appears 1 times, the dimensioning says 0",
            "db 2: message set (2, 3) appears 2 times, the dimensioning says 3",
        ],
    }


def _set_noise_slot(doc, value):
    doc["databases"][0]["queries"][0]["noise_slot"] = value


def _set_first_query(doc, **fields):
    doc["databases"][0]["queries"][0].update(fields)


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
        (lambda doc: _set_noise_slot(doc, 0), "db 1 query 1: noise slot 0 outside 1..16"),
        (lambda doc: _set_noise_slot(doc, -3), "db 1 query 1: noise slot -3 outside 1..16"),
        (lambda doc: _set_first_query(doc, terms=[[1, 1], [1, 2]]), "db 1 query 1: message 1 repeated"),
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
        (lambda doc: doc.update(version=True), "plan document: version must be an integer, got True"),
        (lambda doc: doc["meta"].update(q=2), "field too small: t=16 > q=2"),
        (lambda doc: doc["meta"].update(q=2 ** 64 + 13), "field modulus too large"),
        # malformed documents; an edit that returns a value replaces the document
        (lambda doc: [], "plan document must be an object, got []"),
        (lambda doc: "x", "plan document must be an object, got 'x'"),
        (lambda doc: doc.update(databases=None), "databases must be an array, got None"),
        (lambda doc: doc.update(meta=[]), "plan document: meta must be an object, got []"),
        # an object or string where an array belongs would iterate silently
        (lambda doc: _set_first_query(doc, terms={}), "terms must be an array, got {}"),
        (lambda doc: _set_first_query(doc, terms=""), "terms must be an array, got ''"),
        (lambda doc: doc["databases"][0].update(queries={}), "queries must be an array, got {}"),
        (lambda doc: doc["databases"][0].update(queries=""), "queries must be an array, got ''"),
        (lambda doc: doc.update(databases={}), "databases must be an array, got {}"),
        (lambda doc: doc["meta"].update(n="122"), "n must be an array, got '122'"),
        (lambda doc: doc["meta"].update(mu="00"), "mu must be an array, got '00'"),
        # a meta value that derives nothing valid is named with where it sits
        (lambda doc: doc["meta"].update(mu=["1/0", "1/2"]),
         "meta: mu entry 1: not an exact rational: '1/0'"),
        (lambda doc: doc["meta"].update(mu=["1/4", "3/2"]),
         "meta: eavesdropping ratio 3/2 outside [0, 1)"),
        (lambda doc: doc["meta"].update(n=[1, 2]), "meta: vector length 2 != M=3"),
        # nu and t must be the dimensioning that the sequence and profile give
        (lambda doc: doc["meta"].update(nu=99), "meta: nu is 99, but the sequence and profile give 3"),
        (lambda doc: doc["meta"].update(t=[1, 1]),
         "meta: t is [1, 1], but the sequence and profile give [16, 18]"),
        (lambda doc: doc["meta"].update(mu=[None, "1/2"]),
         "meta: mu entry 1 must be a string or an integer, got None"),
        (lambda doc: doc["meta"].update(mu=["1/4", 0.5]),
         "meta: mu entry 2 must be a string or an integer, got 0.5"),
        (lambda doc: doc["meta"].update(mu=["1/4", True]),
         "meta: mu entry 2 must be a string or an integer, got True"),
        # a missing field is named with where it sits
        (lambda doc: doc["databases"][0]["queries"][2].__delitem__("terms"),
         "db 1 query 3: missing field 'terms'"),
        (lambda doc: doc["meta"].__delitem__("seed"), "meta: missing field 'seed'"),
        (lambda doc: doc["databases"][1].__delitem__("queries"), "db 2: missing field 'queries'"),
        # a malformed term, query or database is named by where it sits
        (lambda doc: doc["databases"][0]["queries"][2].update(terms=[[1]]),
         "db 1 query 3: a term must be [message, slot], got [1]"),
        (lambda doc: doc["databases"][0]["queries"][2].update(terms=[[1, 2, 3]]),
         "db 1 query 3: a term must be [message, slot], got [1, 2, 3]"),
        (lambda doc: doc["databases"][0]["queries"].__setitem__(2, [[1, 2]]),
         "db 1 query 3 must be an object, got [[1, 2]]"),
        (lambda doc: doc["databases"].__setitem__(1, doc["databases"][1]["queries"]),
         "db 2 must be an object, got [{'noise_slot': 1, 'terms': []}, {'noise_slot': 2, "),
    ]
    for edit, message in cases:
        doc = json.loads(honest)
        edited = edit(doc)
        plan_path.write_text(json.dumps(doc if edited is None else edited), encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--plan", str(plan_path))
        assert code == 2 and out == "", message
        assert err.startswith("error: cannot load plan: ") and message in err, err


@pytest.mark.parametrize("command", ["audit", "simulate"])
def test_malformed_documents_are_usage_errors(tmp_path, capsys, command):
    plan_path = tmp_path / "plan.json"
    run_cli(capsys, "plan", *WORKED, "--seed", "7", "--out", str(plan_path))
    doc = json.loads(plan_path.read_text(encoding="utf-8"))
    for name, value, edited in faults.malformed_documents(doc):
        if value == [] and name in ("queries", "terms"):
            continue  # well-formed: an idle database, a pure-noise download
        plan_path.write_text(json.dumps(edited), encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--plan", str(plan_path))
        assert (code, out) == (2, "") and err.startswith("error: cannot load plan: "), (name, value, err)


def test_oversized_plans_are_usage_errors_at_once(tmp_path, capsys, monkeypatch):
    plan_path = tmp_path / "plan.json"
    run_cli(capsys, "plan", *WORKED, "--seed", "7", "--out", str(plan_path))
    doc = json.loads(plan_path.read_text(encoding="utf-8"))

    def refuse(*args):
        raise AssertionError("built a list of the plan's full size")

    for name in ("_wire_order", "smallest_prime_at_least"):
        monkeypatch.setattr(planner, name, refuse)
    monkeypatch.setattr(protocol, "_permutations_for", refuse)
    for mu, total, L in faults.OVERSIZED:
        message = f"plan too large: it downloads {total} symbols (L={L}), over the budget of 1048576\n"
        doc["meta"]["mu"] = mu
        plan_path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("simulate", "audit"):
            code, out, err = run_cli(capsys, command, "--plan", str(plan_path))
            assert (code, out, err) == (2, "", "error: cannot load plan: " + message)
        argv = ["plan", "-M", "3", "-N", "2", "--mu", ",".join(mu), "--n", "1,2,2"]
        assert run_cli(capsys, *argv) == (2, "", "error: " + message)


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


def test_simulate_missing_plan_is_usage_error(tmp_path, capsys, monkeypatch):
    code, _, err = run_cli(capsys, "simulate", "--plan", str(tmp_path / "missing.json"))
    assert code == 2 and "not found" in err
    # a directory, too deeply nested JSON and an unreadable file are usage
    # errors too, for both commands that read a plan
    (tmp_path / "deep.json").write_text("[" * 100_000, encoding="utf-8")
    cases = [(str(tmp_path), "Is a directory"), (str(tmp_path / "deep.json"), "recursion")]
    for command in ("simulate", "audit"):
        for path, message in cases:
            code, out, err = run_cli(capsys, command, "--plan", path)
            assert (code, out) == (2, "") and err.startswith("error: cannot load plan: ")
            assert message in err, err

    def unreadable(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", unreadable)
    for command in ("simulate", "audit"):
        code, out, err = run_cli(capsys, command, "--plan", str(tmp_path / "plan.json"))
        assert (code, out) == (2, "") and "Permission denied" in err, err


def test_simulate_plan_that_downloads_nothing_fails_with_exit_1(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    run_cli(
        capsys, "plan", "-M", "3", "-N", "2", "--mu", "1/4,1/2",
        "--seed", "7", "--out", str(plan_path),
    )
    doc = json.loads(plan_path.read_text(encoding="utf-8"))
    for db in doc["databases"]:
        db["queries"] = []
    plan_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--plan", str(plan_path))
    assert code == 1 and err == ""
    rep = json.loads(out)
    assert rep["verdict"] == "FAIL" and rep["error"] == "decode recovered 0 desired slots, expected 1..12"
    assert rep["stats"]["total_download"] == 0 and rep["stats"]["rate"] is None


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
    "audit-broken-symmetry-json": "560ba7386f5e614c",
    "audit-broken-symmetry-table": "ae43b69e26b79cfd",
    "audit-honest-json": "56631071a0f96b58",
    "audit-honest-table": "3bbba3bc1b49c09b",
    "audit-rewired-json": "9f6b8fe1f93dcb1c",
    "audit-rewired-table": "a5d8afad8f35cf69",
    "audit-shorter-key-json": "b4dd63da9c254d02",
    "audit-shorter-key-table": "177f34d839350c64",
    "capacity-54-csv": "87031e07b11a2c5c",
    "capacity-54-json": "b9cdbfc4a82c81a4",
    "capacity-54-table": "8b680b8094e246f8",
    "capacity-csv": "a495c38ae8cee348",
    "capacity-json": "740077280aac619c",
    "capacity-table": "19e3268d8ac91aed",
    "plan-bad-desired": "3ee41097e26babc5",
    "plan-bad-sequence": "4059f6faafdabbc5",
    "plan-json": "e30ad336f5b07167",
    "plan-small-field": "2848ff33532a2204",
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
