"""Command-line interface: formats, exit codes, determinism."""

import json

import pytest

from wtcpir.cli import main


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
    assert {rep["privacy"]["status"], rep["security"]["status"], rep["decodability"]["status"]} == {"PASS"}


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
    ]
    for edit, message in cases:
        doc = json.loads(honest)
        edit(doc)
        plan_path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--plan", str(plan_path))
        assert code == 2 and out == "", message
        assert "cannot load plan" in err and message in err


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
