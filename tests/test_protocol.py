"""Retrieval execution, decoding, and the three audits."""

import dataclasses
import hashlib
import json
import random
import time
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from wtcpir import protocol
from wtcpir.fieldmath import mat_solve
from wtcpir.planner import Query, build_plan, plan_from_json, plan_to_json, plan_violations
from wtcpir.protocol import (
    MessageStore,
    _Wire,
    audit_decodability,
    audit_privacy,
    audit_security,
    decode,
    random_store,
    run_retrieval,
)
from wtcpir.schemes import EavesdropProfile, best_scheme, enumerate_sequences

import faults
from oracles import answers_by_trial, decodability_by_trials, rank_gf, vandermonde

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
    for rows in (tr.answers[:1], tr.answers + ((),)):
        with pytest.raises(ValueError, match=f"^{len(rows)} answer rows for 2 databases$"):
            decode(plan, rows)
    # an idle database's row must be empty too: t = (3, 2, 0)
    idle = build_plan(3, 3, (1, 1, 2), EavesdropProfile(["0", "1/2", "7/8"]), desired=1, seed=1)
    tr = run_retrieval(idle, random_store(3, idle.dims.L, idle.q, seed=1), key_seed=1)
    assert tr.answers[2] == ()
    with pytest.raises(ValueError, match="^db 3: 3 answers for 0 queries$"):
        decode(idle, tr.answers[:2] + ((1, 2, 3),))


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


def test_audit_privacy_refuses_empty_and_mismatched_plans():
    with pytest.raises(ValueError, match="^audit_privacy needs at least one plan$"):
        audit_privacy([])
    n3 = build_plan(3, 3, (1, 2, 3), EavesdropProfile(["0", "1/4", "1/2"]), desired=1, seed=7)
    m4 = build_plan(4, 2, (1, 1, 2, 2), WORKED_MU, desired=2, seed=7)
    for plans, want in (([n3, worked_plan(desired=2)], r"\(3, 3\), the plan for message 2 \(3, 2\)$"),
                        ([worked_plan(desired=1), n3], r"\(3, 2\), the plan for message 1 \(3, 3\)$"),
                        ([worked_plan(desired=1), m4], r"\(3, 2\), the plan for message 2 \(4, 2\)$")):
        with pytest.raises(ValueError, match="^plans differ in shape: the first has \\(M, N\\) = " + want):
            audit_privacy(plans)


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


def test_side_information_reach_of_decode_and_plan_violations():
    # decode and plan_violations share one reach: side information held
    # only at its own database resolves, so the swapped plan decodes, and
    # its only findings are the symbol slots each database downloads twice
    swapped = faults.own_side_singles()
    store = random_store(3, swapped.dims.L, swapped.q, seed=5)
    assert run_retrieval(swapped, store, key_seed=1).decoded == store.messages[0]
    assert plan_violations(swapped) == [
        "db 1: symbol slots downloaded twice: [(2, 2)]",
        "db 2: symbol slots downloaded twice: [(2, 1)]",
    ]


def test_honest_faultless_variants_differ_from_faulty():
    plan = worked_plan()
    assert faults.shorter_key(plan).databases != plan.databases
    assert faults.rewired_side_information(plan).databases != plan.databases


# (M,3), mu = (0, 1/4, 1/2), best_scheme sequence: at M = 5, (1,2,3,3,3),
# keys of 24 and 66 symbols over GF(137), the sizes the retrieval benchmark
# decodes; at M = 6, (1,2,3,3,3,3), keys of 92 and 266 symbols over GF(541)
RETRIEVAL_SCALE_DIGESTS = {
    (5, 1): "0e243a73c4863a09",
    (5, 2): "1a9d039cac42eba6",
    (5, 3): "5d8016503266415e",
    (5, 4): "f171dc26c26e990a",
    (5, 5): "809374ec044317b4",
    (6, 1): "d72010b0740e709d",
}
RETRIEVAL_SCALE_KEYS = {5: (137, [0, 24, 66]), 6: (541, [0, 92, 266])}


def test_retrieval_scale_transcripts_match_golden():
    mu = EavesdropProfile(["0", "1/4", "1/2"])
    for (M, desired), want in RETRIEVAL_SCALE_DIGESTS.items():
        g, _ = best_scheme(M, 3, mu)
        plan = build_plan(M, 3, g, mu, desired=desired, seed=11)
        assert (plan.q, [sum(qr.is_pure_noise for qr in db) for db in plan.databases]) == RETRIEVAL_SCALE_KEYS[M]
        store = random_store(M, plan.dims.L, plan.q, seed=3)
        tr = run_retrieval(plan, store, key_seed=5)
        assert tr.decoded == store.messages[desired - 1]
        blob = json.dumps([tr.answers, tr.decoded, tr.eavesdropper.values])
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == want, (M, desired)


def _with_query(plan, d, i, **changes):
    dbs = [list(queries) for queries in plan.databases]
    dbs[d - 1][i] = dataclasses.replace(dbs[d - 1][i], **changes)
    return dataclasses.replace(plan, databases=tuple(map(tuple, dbs)))


def _decodability_variants():
    """Honest plans, every ``tests/faults`` variant, and one plan per
    decode failure: a non-integral observation size, a singular noise
    interpolation and a desired slot recovered twice."""
    plans = []
    for M, N, mu in ((3, 2, ("1/4", "1/2")), (4, 3, ("0", "1/4", "1/2")), (5, 3, ("0", "1/4", "1/2"))):
        profile = EavesdropProfile(list(mu))
        g, _ = best_scheme(M, N, profile)
        plans.append(build_plan(M, N, g, profile, desired=M, seed=11))
    plan = worked_plan()
    plans += [
        faults.shorter_key(plan, database=1),
        faults.shorter_key(plan, database=2),
        faults.broken_symmetry(3, 2, (1, 2, 2), WORKED_MU, seed=7)[0],
        faults.rewired_side_information(plan),
        faults.rewired_side_information(plans[1]),
        dataclasses.replace(plan, databases=(plan.databases[0][:-1],) + plan.databases[1:]),
    ]
    noise = [i for i, qr in enumerate(plan.databases[1]) if qr.is_pure_noise]
    plans.append(_with_query(plan, 2, noise[1], noise_slot=plan.databases[1][noise[0]].noise_slot))
    d, i, qr = next((d, i, qr) for d, queries in enumerate(plan.databases, start=1)
                    for i, qr in enumerate(queries) if qr.round == 2 and 1 in qr.message_set())
    plans.append(_with_query(plan, d, i, terms=((1, 1),) + qr.terms[1:]))
    return plans


def test_decodability_reports_match_golden_digest():
    reports = [audit_decodability(plan, trials=25, seed=s)
               for s, plan in enumerate(_decodability_variants())]
    assert [r["certificate"] for r in reports] == ["linear"] * 5 + ["side-information"] * 3 + [
        "non-integral", "singular", "side-information"]
    assert [r["status"] for r in reports] == ["PASS"] * 5 + ["FAIL"] * 6
    assert [r["trials"] for r in reports] == [25] * 5 + [1] * 6
    blob = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == "569010d8d590cd1e"


def _decodability_battery():
    """Every monotone sequence at (3,2), (4,2), (4,3) and (3,3), for
    desired 1 and M, each with its shorter-key and rewired variants where
    the plan has them, plus ``_decodability_variants``."""
    mus = {2: ("1/4", "1/2"), 3: ("0", "1/4", "1/2")}
    plans = []
    for M, N in ((3, 2), (4, 2), (4, 3), (3, 3)):
        profile = EavesdropProfile(list(mus[N]))
        for g in enumerate_sequences(M, N):
            for desired in (1, M):
                plan = build_plan(M, N, g, profile, desired=desired, seed=5)
                plans.append(plan)
                keyed = [d for d, queries in enumerate(plan.databases, start=1)
                         if {qr.is_pure_noise for qr in queries} == {True, False}]
                if keyed:
                    plans.append(faults.shorter_key(plan, database=keyed[0]))
                try:
                    plans.append(faults.rewired_side_information(plan))
                except AssertionError:  # no desired-bearing sum of round 3 or more
                    pass
    return plans + _decodability_variants()


def test_decodability_proof_matches_trials():
    plans = _decodability_battery()
    verdicts = []
    for s, plan in enumerate(plans):
        report = audit_decodability(plan, trials=2, seed=s)
        assert report["status"] == decodability_by_trials(plan, 2, s)["status"], s
        verdicts.append(report["certificate"])
    assert len(plans) == 191
    assert Counter(verdicts) == {"linear": 137, "side-information": 52,
                                 "non-integral": 1, "singular": 1}


def test_decodability_trial_that_contradicts_the_proof_raises(monkeypatch):
    plan = worked_plan()
    decode_exactly = _Wire.decode

    def flip_first(self, batch):
        return [((out[0] + 1) % self.plan.q,) + out[1:] for out in decode_exactly(self, batch)]

    monkeypatch.setattr(_Wire, "decode", flip_first)
    with pytest.raises(RuntimeError, match="^trial 0 of a plan proved decodable got symbols"):
        audit_decodability(plan, trials=3)
    monkeypatch.undo()
    # a refuted plan whose one trial decodes contradicts the proof as well
    monkeypatch.setattr(_Wire, "certificate", lambda self: "singular")
    with pytest.raises(RuntimeError, match="^trial 0 decoded a plan refuted as singular$"):
        audit_decodability(plan, trials=3)
    # and so does a decode error of a plan proved decodable
    monkeypatch.setattr(_Wire, "certificate", lambda self: "linear")
    with pytest.raises(RuntimeError, match=r"^trial 0 of a plan proved decodable failed: "
                       r"db 1: side information \(3, 6\) for slot 12 was never downloaded$"):
        audit_decodability(faults.rewired_side_information(plan), trials=3)


def _scale_plan():
    """The (5,3) ``best_scheme`` plan: keys of 24 and 66 symbols."""
    mu = EavesdropProfile(["0", "1/4", "1/2"])
    g, _ = best_scheme(5, 3, mu)
    return build_plan(5, 3, g, mu, desired=2, seed=11)


@pytest.mark.parametrize("plan", [worked_plan(), _scale_plan()], ids=["worked", "5-3"])
def test_batched_decode_equals_decodes_of_one(plan):
    wire = _Wire(plan)
    stores = [random_store(plan.M, plan.dims.L, plan.q, seed=s) for s in range(5)]
    seeds = [f"k{s}" for s in range(5)]
    decoded = wire.decode(wire.answer(stores, seeds))
    assert decoded == [wire.decode(wire.answer([store], [seed]))[0]
                       for store, seed in zip(stores, seeds)]
    assert decoded == [store.messages[plan.desired - 1] for store in stores]
    # given answer sets, one by one, decode to the same messages
    given = [run_retrieval(plan, store, seed).answers for store, seed in zip(stores, seeds)]
    assert [decode(plan, answers) for answers in given] == decoded


def _lane(lanes, j, width, q):
    """Set j's answer rows, reduced mod q, from a batch of lanes."""
    return [tuple((v >> j * width & (1 << width) - 1) % q for v in row) for row in lanes[1]]


@pytest.mark.parametrize("M,N,mu", [(3, 2, ("1/4", "1/2")), (4, 3, ("0", "1/4", "1/2")),
                                    (5, 3, ("0", "1/4", "1/2"))])
def test_batched_answers_match_the_query_by_query_oracle(M, N, mu):
    profile = EavesdropProfile(list(mu))
    g, _ = best_scheme(M, N, profile)
    plan = build_plan(M, N, g, profile, desired=2, seed=13)
    wire = _Wire(plan)
    stores = [random_store(M, plan.dims.L, plan.q, seed=f"lanes/{s}") for s in range(5)]
    seeds = [f"lanes/k{s}" for s in range(5)]
    lanes = wire.answer(stores, seeds)
    assert lanes[0] == 5
    for j, (store, seed) in enumerate(zip(stores, seeds)):
        assert _lane(lanes, j, wire.width, plan.q) == answers_by_trial(plan, store, seed), j
    assert wire.decode(lanes) == [store.messages[1] for store in stores]


def test_widest_lanes_decode_over_a_64_bit_field():
    q = 2 ** 64 - 59
    plan = build_plan(3, 2, (1, 2, 2), WORKED_MU, desired=1, seed=7, q=q)
    report = audit_decodability(plan, trials=32)
    assert (report["status"], report["certificate"], report["passed"]) == ("PASS", "linear", 32)
    store = random_store(3, plan.dims.L, q, seed=4)
    tr = run_retrieval(plan, store, key_seed=5)
    assert tr.decoded == store.messages[0]
    assert list(tr.answers) == answers_by_trial(plan, store, 5)
    for shift in (q, -3 * q):
        assert decode(plan, [[a + shift for a in row] for row in tr.answers]) == tr.decoded


def test_decodability_trials_share_one_solve_per_keyed_database(monkeypatch):
    plan = worked_plan()
    calls = []

    def counting(a, b, q):
        calls.append((len(a), len(b[0])))
        return mat_solve(a, b, q)

    monkeypatch.setattr(protocol, "mat_solve", counting)
    assert audit_decodability(plan, trials=32)["status"] == "PASS"
    # the worked plan's keys: 4 symbols at database 1 and 9 at database 2
    assert [code.k for code, *_ in _Wire(plan).dbs] == [4, 9]
    assert calls == [(4, 32), (9, 32)]


def test_batched_decode_checks_every_set():
    # decode checks its answer set's row count, then each row's answer count
    plan = worked_plan()
    good = run_retrieval(plan, random_store(3, plan.dims.L, plan.q, seed=1), key_seed=2).answers
    with pytest.raises(ValueError, match=r"^1 answer rows for 2 databases$"):
        decode(plan, good[:1])
    with pytest.raises(ValueError, match=r"^1 answer rows for 2 databases$"):
        decode(plan, [good[0][:3]])
    with pytest.raises(ValueError, match="^db 2: 3 answers for 18 queries$"):
        decode(plan, [good[0], good[1][:3]])


def test_security_witness_with_full_rank_raises(monkeypatch):
    # a "failing" set whose noise rows are independent contradicts the
    # proof; the rows come from the wire's 0-based slots
    monkeypatch.setattr(protocol, "_first_failing_set",
                        lambda slots, size, key_len: tuple(range(1, size + 1)))
    with pytest.raises(RuntimeError, match=r"^db 1: failing set \[1, 2, 3, 4\] has full rank$"):
        audit_security(worked_plan())


def test_only_run_retrieval_draws_eavesdropper_views(monkeypatch):
    plan = worked_plan()
    store = random_store(3, plan.dims.L, plan.q, seed=1)
    seeds = []

    class Recording(random.Random):
        def __init__(self, seed=None):
            seeds.append(str(seed))
            super().__init__(seed)

    monkeypatch.setattr(protocol.random, "Random", Recording)
    audit_decodability(plan, trials=3)
    assert seeds and not [s for s in seeds if "/view/" in s]
    seeds.clear()
    run_retrieval(plan, store, key_seed=5)
    assert [s for s in seeds if "/view/" in s] == ["5/view/1", "5/view/2"]


def test_decode_errors_keep_their_precedence():
    # a missing side term at db 1 (rewired) and a repeated pure-noise
    # slot at db 2: answer counts come first, then the interpolation,
    # then side information
    bad = faults.rewired_side_information(worked_plan())
    noise = [i for i, qr in enumerate(bad.databases[1]) if qr.is_pure_noise]
    both = _with_query(bad, 2, noise[1], noise_slot=bad.databases[1][noise[0]].noise_slot)
    store = random_store(3, bad.dims.L, bad.q, seed=1)
    with pytest.raises(ValueError, match="^db 1: side information"):
        run_retrieval(bad, store, key_seed=1)
    with pytest.raises(ValueError, match="^db 2: noise interpolation is singular"):
        run_retrieval(both, store, key_seed=1)
    with pytest.raises(ValueError, match="^db 2: 17 answers for 18 queries$"):
        decode(both, ((0,) * 16, (0,) * 17))
    # the decodability certificate names the condition the retrieval raises
    short = dataclasses.replace(both, databases=(both.databases[0][:-1],) + both.databases[1:])
    for plan, certificate in ((bad, "side-information"), (both, "singular"), (short, "non-integral")):
        report = audit_decodability(plan, trials=5, seed=1)
        assert (report["status"], report["certificate"], report["trials"]) == ("FAIL", certificate, 1)
        with pytest.raises(ValueError) as exc:
            run_retrieval(plan, store, key_seed=1)
        assert report["failures"] == [{"trial": 0, "error": str(exc.value)}]
