"""Retrieval execution, decoding, and the three audits."""

import dataclasses
import random
import time
from itertools import combinations
from math import comb

import pytest

from wtcpir.planner import Query, build_plan, plan_from_json, plan_to_json
from wtcpir.protocol import (
    MessageStore,
    audit_decodability,
    audit_privacy,
    audit_security,
    decode,
    random_store,
    run_retrieval,
)
from wtcpir.schemes import EavesdropProfile, best_scheme

import faults
from oracles import rank_gf, vandermonde

WORKED_MU = EavesdropProfile(["1/4", "1/2"])


def worked_plan(desired: int = 1, seed: int = 7):
    return build_plan(3, 2, (1, 2, 2), WORKED_MU, desired=desired, seed=seed)


def test_round_trip_random_stores():
    plan = worked_plan()
    for trial in range(20):
        store = random_store(3, plan.dims.L, plan.q, seed=trial)
        tr = run_retrieval(plan, store, key_seed=trial * 13 + 1)
        assert tr.decoded == store.messages[0], trial


def test_round_trip_every_desired_message():
    for desired in (1, 2, 3):
        plan = worked_plan(desired=desired)
        store = random_store(3, plan.dims.L, plan.q, seed=5)
        tr = run_retrieval(plan, store, key_seed=6)
        assert tr.decoded == store.messages[desired - 1]


def test_zero_store_decodes_to_zeros():
    plan = worked_plan()
    store = MessageStore(q=plan.q, messages=tuple((0,) * 12 for _ in range(3)))
    tr = run_retrieval(plan, store, key_seed=1)
    assert tr.decoded == (0,) * 12


def test_pure_noise_answers_equal_noise_symbols():
    plan = worked_plan()
    store = MessageStore(q=plan.q, messages=tuple((0,) * 12 for _ in range(3)))
    tr = run_retrieval(plan, store, key_seed=1)
    # with an all-zero store, every answer is exactly its noise symbol;
    # pure-noise rows must be consistent with the interpolated key
    for d, db in enumerate(plan.databases):
        key_len = sum(1 for q in db if q.is_pure_noise)
        gen = vandermonde(len(db), key_len, plan.q)
        noise_rows = [gen[q.noise_slot - 1] for q in db]
        assert rank_gf(noise_rows, plan.q) == key_len


def test_transcript_deterministic():
    plan = worked_plan()
    store = random_store(3, plan.dims.L, plan.q, seed=2)
    assert run_retrieval(plan, store, key_seed=9) == run_retrieval(plan, store, key_seed=9)


def test_eavesdropper_view_sizes():
    plan = worked_plan()
    store = random_store(3, plan.dims.L, plan.q, seed=2)
    tr = run_retrieval(plan, store, key_seed=9)
    assert [len(p) for p in tr.eavesdropper.positions] == [4, 9]
    for pos, vals, answers in zip(
        tr.eavesdropper.positions, tr.eavesdropper.values, tr.answers
    ):
        assert list(vals) == [answers[p - 1] for p in pos]


def test_decode_detects_corrupted_answers():
    plan = worked_plan()
    store = random_store(3, plan.dims.L, plan.q, seed=3)
    tr = run_retrieval(plan, store, key_seed=4)
    bad = [list(row) for row in tr.answers]
    bad[0][0] = (bad[0][0] + 1) % plan.q
    assert decode(plan, tuple(map(tuple, bad))) != tr.decoded


def test_run_retrieval_validates_store():
    plan = worked_plan()
    with pytest.raises(ValueError):
        run_retrieval(plan, random_store(2, plan.dims.L, plan.q, 1), key_seed=1)
    with pytest.raises(ValueError):
        run_retrieval(plan, random_store(3, 5, plan.q, 1), key_seed=1)
    with pytest.raises(ValueError):
        run_retrieval(plan, random_store(3, plan.dims.L, 23, 1), key_seed=1)


def test_decode_on_loaded_plan():
    plan = worked_plan()
    loaded = plan_from_json(plan_to_json(plan))
    store = random_store(3, plan.dims.L, plan.q, seed=8)
    assert run_retrieval(loaded, store, key_seed=2) == run_retrieval(plan, store, key_seed=2)


def test_audit_security_worked_example():
    report = audit_security(worked_plan())
    assert report["status"] == "PASS"
    assert "budget" not in report
    db1, db2 = report["databases"]
    for entry in (db1, db2):
        assert entry["exhaustive"] and entry["sets_tested"] == 0
        assert entry["certificate"] == "mds" and entry["failing_set"] is None
    assert db1["observation_size"] == 4 and db2["observation_size"] == 9
    assert db1["key_len"] == 4 and db2["key_len"] == 9


def test_audit_security_six_messages_is_fast_and_exhaustive():
    mu = EavesdropProfile(["0", "1/4", "1/2"])
    plan = build_plan(6, 3, (1, 2, 3, 3, 3, 3), mu, desired=1, seed=0)
    t0 = time.perf_counter()
    report = audit_security(plan)
    elapsed = time.perf_counter() - t0
    assert report["status"] == "PASS"
    assert all(e["exhaustive"] for e in report["databases"])
    assert [e["certificate"] for e in report["databases"]] == ["empty", "mds", "mds"]
    assert elapsed < 0.5, elapsed


def _exhaustive_security(plan):
    """(status, failing_set) per database by rank-checking every
    observation set with the independent oracle."""
    out = []
    for d, queries in enumerate(plan.databases, start=1):
        t = len(queries)
        key_len = sum(1 for qr in queries if qr.is_pure_noise)
        size = plan.mu.mu[d - 1] * t
        assert size.denominator == 1 and comb(t, int(size)) <= 5000
        gen = vandermonde(t, key_len, plan.q)
        rows = [gen[qr.noise_slot - 1] for qr in queries]
        failing = next(
            (
                list(obs)
                for obs in combinations(range(1, t + 1), int(size))
                if rank_gf([rows[p - 1] for p in obs], plan.q) != size
            ),
            None,
        )
        out.append(("PASS" if failing is None else "FAIL", failing))
    return out


def _collide(plan, rng, count):
    """Copy ``count`` random noise slots onto other positions of the same
    database."""
    dbs = [list(queries) for queries in plan.databases]
    for _ in range(count):
        qs = dbs[rng.randrange(plan.N)]
        if len(qs) >= 2:
            i, j = rng.sample(range(len(qs)), 2)
            qs[i] = Query(terms=qs[i].terms, noise_slot=qs[j].noise_slot)
    return dataclasses.replace(plan, databases=tuple(map(tuple, dbs)))


# (M, N, mu): observation sizes 0..6 per database, including s = 1 and
# C(t, s) up to 1820.
SMALL_PLANS = [
    (2, 2, ("1/3", "1/2")),
    (2, 2, ("1/4", "1/3")),
    (2, 3, ("1/4", "1/2", "1/2")),
    (3, 2, ("0", "1/4")),
    (3, 2, ("1/3", "1/2")),
    (3, 3, ("1/5", "1/4", "1/2")),
    (3, 3, ("1/2", "1/2", "2/3")),
]


@pytest.mark.parametrize("M,N,mu", SMALL_PLANS)
def test_audit_security_certificate_matches_exhaustive_enumeration(M, N, mu):
    profile = EavesdropProfile(list(mu))
    g, _ = best_scheme(M, N, profile)
    plan = build_plan(M, N, g, profile, desired=1, seed=3)
    rng = random.Random(f"{M}/{N}/{mu}")
    variants = [plan] + [_collide(plan, rng, n) for n in (1, 1, 2, 4)]
    for d in range(1, N + 1):
        kinds = {qr.is_pure_noise for qr in plan.databases[d - 1]}
        if kinds == {True, False}:
            variants.append(faults.shorter_key(plan, database=d))  # s > k
    verdicts = set()
    for variant in variants:
        report = audit_security(variant)
        got = [(e["status"], e["failing_set"]) for e in report["databases"]]
        assert got == _exhaustive_security(variant)
        for e in report["databases"]:
            assert e["exhaustive"]
            assert e["sets_tested"] == (e["status"] == "FAIL")
        verdicts.add(report["status"])
    assert verdicts == {"PASS", "FAIL"}


def test_audit_security_requires_distinct_evaluation_points():
    small_field = dataclasses.replace(worked_plan(), q=17)  # t = 18 at db 2
    with pytest.raises(ValueError, match="field too small: t=18 > q=17"):
        audit_security(small_field)


def test_run_retrieval_rejects_non_integral_observation_size():
    plan = worked_plan()
    short = dataclasses.replace(plan, databases=(plan.databases[0][:-1],) + plan.databases[1:])
    store = random_store(3, plan.dims.L, plan.q, seed=1)
    with pytest.raises(ValueError, match="db 1: observation size mu\\*t = 15/4"):
        run_retrieval(short, store, key_seed=1)
    entry = audit_security(short)["databases"][0]
    assert entry["status"] == "FAIL" and entry["certificate"] == "non-integral"


def test_audit_security_no_eavesdropping_vacuous():
    mu0 = EavesdropProfile([0, 0])
    plan = build_plan(3, 2, (2, 2, 2), mu0, desired=1, seed=1)
    report = audit_security(plan)
    assert report["status"] == "PASS"
    assert all(e["observation_size"] == 0 for e in report["databases"])


def test_audit_privacy_pass_and_report_shape():
    report = audit_privacy([worked_plan(desired=i) for i in (1, 2, 3)])
    assert report["status"] == "PASS"
    assert [e["database"] for e in report["databases"]] == [1, 2]
    assert all(e["first_difference"] is None for e in report["databases"])


def test_audit_decodability_pass():
    report = audit_decodability(worked_plan(), trials=30, seed=5)
    assert report["status"] == "PASS"
    assert report["passed"] == 30 and report["failures"] == []


def test_fault_shorter_key_fails_security():
    report = audit_security(faults.shorter_key(worked_plan(), database=1))
    assert report["status"] == "FAIL"
    entry = report["databases"][0]
    assert entry["status"] == "FAIL"
    assert entry["failing_set"] is not None
    assert entry["key_len"] == 3 and entry["observation_size"] == 4


def test_fault_broken_symmetry_fails_privacy():
    plans = faults.broken_symmetry(3, 2, (1, 2, 2), WORKED_MU, seed=7)
    report = audit_privacy(plans)
    assert report["status"] == "FAIL"
    diff = next(e["first_difference"] for e in report["databases"] if e["first_difference"])
    assert diff["signature"] is not None and diff["counts"][0] != diff["counts"][1]


def test_fault_rewired_side_information_fails_decodability():
    bad = faults.rewired_side_information(worked_plan())
    report = audit_decodability(bad, trials=20, seed=5)
    assert report["status"] == "FAIL"
    assert report["passed"] < 20
    first = report["failures"][0]
    assert "error" in first or "mismatch_positions" in first


def test_honest_faultless_variants_differ_from_faulty():
    plan = worked_plan()
    assert faults.shorter_key(plan).databases != plan.databases
    assert faults.rewired_side_information(plan).databases != plan.databases
