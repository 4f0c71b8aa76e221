"""Query-plan construction, invariants, rendering, and serialization."""

import dataclasses
import hashlib
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from wtcpir.planner import (
    Query,
    _render_query,
    build_plan,
    plan_from_json,
    plan_stats,
    plan_to_json,
    plan_to_table,
    plan_violations,
)
from wtcpir.protocol import audit_security
from wtcpir.schemes import (
    EavesdropProfile,
    achievable_rate,
    enumerate_sequences,
    repetition_factor,
    stage_counts,
)

import faults
from oracles import plan_document_stdlib

WORKED_MU = EavesdropProfile(["1/4", "1/2"])
MU0 = EavesdropProfile([0, 0])


def worked_plan(desired: int = 1, seed: int = 7):
    return build_plan(3, 2, (1, 2, 2), WORKED_MU, desired=desired, seed=seed)


def test_worked_example_dimensions():
    plan = worked_plan()
    st = plan_stats(plan)
    assert st["t"] == [16, 18]
    assert st["key_len"] == [4, 9]
    assert st["L"] == 12
    assert st["rate"] == Fraction(6, 17)
    assert st["nu"] == 3
    assert st["q"] == 19
    assert plan_violations(plan) == []


def test_worked_example_shapes_per_repetition():
    plan = worked_plan()
    db1 = [q for q in plan.databases[0] if not q.is_pure_noise]
    db2 = [q for q in plan.databases[1] if not q.is_pure_noise]
    assert Counter(q.round for q in db1) == {1: 9, 3: 3}
    assert Counter(q.round for q in db2) == {2: 9}
    # each round-2 stage at db 2: two desired-bearing sums, one fresh pair
    assert Counter(1 in q.message_set() for q in db2) == {True: 6, False: 3}


def test_impulse_stage_reuses_round1_singles_in_order():
    # one database joins only at round 3; its side information must be the
    # round-1 singles of the two leading stages, consumed first-in-first-out
    plan = build_plan(4, 2, (1, 1, 2, 2), MU0, desired=1, seed=1)
    assert plan_violations(plan) == []
    db2 = [q for q in plan.databases[1] if not q.is_pure_noise]
    desired_sides = sorted(
        tuple(p for p in q.terms if p[0] != 1)
        for q in db2
        if q.round == 3 and 1 in q.message_set()
    )
    assert desired_sides == [
        ((2, 1), (3, 1)),
        ((2, 2), (4, 1)),
        ((3, 2), (4, 2)),
    ]
    # the final 4-sum at database 1 reuses database 2's fresh 3-sum verbatim
    fresh3 = next(q.terms for q in db2 if q.round == 3 and 1 not in q.message_set())
    four = next(q.terms for q in plan.databases[0] if q.round == 4)
    assert set(fresh3) < set(four)


def test_late_group_shapes():
    plan = build_plan(4, 2, (1, 2, 2, 2), MU0, desired=1, seed=1)
    shapes = [
        Counter((q.round, 1 in q.message_set()) for q in db if not q.is_pure_noise)
        for db in plan.databases
    ]
    assert shapes[0] == {(1, True): 1, (1, False): 3, (3, True): 3, (3, False): 1}
    assert shapes[1] == {(2, True): 3, (2, False): 3, (4, True): 1}


def test_generator_scope_and_rate_accounting():
    # every monotone sequence up to M=5, N=4 and at M=6, N<=3 builds cleanly,
    # and the wire structure reproduces the dimensioning rate exactly
    shapes = [(M, N) for M in range(2, 6) for N in range(2, 5)] + [(6, 2), (6, 3)]
    for M, N in shapes:
        profiles = [
            EavesdropProfile([0] * N),
            EavesdropProfile([Fraction(2**i - 1, 2**i) for i in range(1, N + 1)]),
        ]
        for g in enumerate_sequences(M, N):
            for mu in profiles:
                plan = build_plan(M, N, g, mu, desired=min(2, M), seed=3)
                assert plan_violations(plan) == [], (M, N, g.n)
                assert plan_stats(plan)["rate"] == achievable_rate(g, mu)


def test_plans_match_golden_digest():
    # JSON and table text of 172 plans, pinned byte for byte: every monotone
    # sequence for M in 2..4 and N in 2..3, two profiles, desired 1 and M
    digest = hashlib.sha256()
    count = 0
    for M in range(2, 5):
        for N in range(2, 4):
            profiles = [
                EavesdropProfile([0] * N),
                EavesdropProfile([Fraction(2**i - 1, 2**i) for i in range(1, N + 1)]),
            ]
            for mu in profiles:
                for g in enumerate_sequences(M, N):
                    for desired in (1, M):
                        plan = build_plan(M, N, g, mu, desired=desired, seed=10 * M + N)
                        doc, table = plan_to_json(plan), plan_to_table(plan)
                        loaded = plan_from_json(doc)
                        assert loaded == plan and plan_to_table(loaded) == table
                        digest.update(doc.encode())
                        digest.update(table.encode())
                        count += 1
    assert count == 172
    assert digest.hexdigest() == "0d9996542fbd60ac832907c7c7410f24207607737974ad3e19fd0d91350a2468"


def test_plan_document_matches_stdlib_encoder():
    # the direct writer against json.dumps(doc, indent=2): per shape with M in
    # 2..6 and N in 2..4, a seeded sequence of at most 1000 downloads at two
    # profiles, then an idle database, and a tampered plan after a reload
    rng = random.Random(15)
    plans = []
    for M in range(2, 7):
        for N in range(2, 5):
            seqs = list(enumerate_sequences(M, N))
            profiles = (EavesdropProfile([0] * N), EavesdropProfile([Fraction(d, 2 * N) for d in range(N)]))
            for mu in profiles:
                g = rng.choice([g for g in seqs if sum(repetition_factor(g, mu).t) <= 1000])
                plans.append(build_plan(M, N, g, mu, desired=rng.randint(1, M), seed=rng.randrange(100)))
    idle = build_plan(3, 3, (1, 1, 2), EavesdropProfile([0, "1/2", "7/8"]), desired=2, seed=4)
    assert idle.databases[2] == ()
    tampered = plan_from_json(plan_to_json(faults.shorter_key(worked_plan())))
    plans += [idle, tampered]
    assert max(p.dims.nu for p in plans) > 1
    for plan in plans:
        assert plan_to_json(plan) == plan_document_stdlib(plan), (plan.M, plan.N, plan.group_sequence.n)


def test_stats_count_the_key_on_the_wire():
    plan = worked_plan()
    short = faults.shorter_key(plan)
    assert plan_stats(short)["key_len"] == [3, 9]
    assert audit_security(short)["databases"][0]["key_len"] == 3
    assert plan_stats(plan)["key_len"] == list(plan.dims.key_len) == [4, 9]


def test_stage_counts_on_wire():
    plan = worked_plan()
    sc = stage_counts(plan.group_sequence)
    st = plan_stats(plan)
    assert st["stages_per_round"][1] == {1: 3 * sc.of(0, 1), 3: 3 * sc.of(0, 3)}
    assert st["stages_per_round"][2] == {2: 3 * sc.of(1, 2)}


def test_stage_counts_of_incomplete_round_are_exact():
    plan = worked_plan()
    qs = list(plan.databases[1])
    i = next(i for i, q in enumerate(qs) if q.round == 2)
    qs[i] = Query(terms=(), noise_slot=qs[i].noise_slot)
    short = dataclasses.replace(plan, databases=(plan.databases[0], tuple(qs)))
    stages = plan_stats(short)["stages_per_round"][2]
    assert stages == {2: Fraction(8, 3)} and isinstance(stages[2], Fraction)


def test_relabeling_privacy_of_signatures():
    plans = [worked_plan(desired=i) for i in (1, 2, 3)]
    for d in (1, 2):
        sigs = [Counter(q.message_set() for q in p.databases[d - 1]) for p in plans]
        assert sigs[0] == sigs[1] == sigs[2]


def test_desired_slots_fresh_and_noise_bijection():
    plan = worked_plan()
    slots = [
        s
        for db in plan.databases
        for q in db
        for m, s in q.terms
        if m == plan.desired
    ]
    assert sorted(slots) == list(range(1, 13))
    for db in plan.databases:
        assert sorted(q.noise_slot for q in db) == list(range(1, len(db) + 1))


def test_determinism_and_seed_sensitivity():
    a = plan_to_json(worked_plan(seed=7))
    b = plan_to_json(worked_plan(seed=7))
    c = plan_to_json(worked_plan(seed=8))
    assert a == b
    assert a != c


def test_json_round_trip():
    plan = worked_plan()
    doc = plan_to_json(plan)
    loaded = plan_from_json(doc)
    assert loaded == plan
    assert plan_to_json(loaded) == doc
    assert plan_violations(loaded) == []


def test_json_version_guard():
    with pytest.raises(ValueError, match="version"):
        plan_from_json('{"version": 2, "meta": {}, "databases": []}')


def test_field_choice_and_override():
    assert worked_plan().q == 19
    assert build_plan(3, 2, (1, 2, 2), WORKED_MU, 1, 7, q=23).q == 23
    with pytest.raises(ValueError, match="field too small"):
        build_plan(3, 2, (1, 2, 2), WORKED_MU, 1, 7, q=17)
    with pytest.raises(ValueError, match="prime"):
        build_plan(3, 2, (1, 2, 2), WORKED_MU, 1, 7, q=21)


def test_build_input_validation():
    with pytest.raises(ValueError):
        build_plan(3, 2, (1, 2, 2), WORKED_MU, desired=4, seed=1)
    with pytest.raises(ValueError):
        build_plan(3, 2, (1, 2, 3), WORKED_MU, desired=1, seed=1)
    with pytest.raises(ValueError):
        build_plan(4, 2, (1, 2, 2), WORKED_MU, desired=1, seed=1)


def test_query_validation():
    with pytest.raises(ValueError, match="mixes"):
        Query(terms=((1, 2), (1, 3)), noise_slot=1)
    with pytest.raises(ValueError):
        Query(terms=(), noise_slot=0)
    q = Query(terms=((2, 5), (1, 4)), noise_slot=3)
    assert q.terms == ((1, 4), (2, 5))
    assert q.round == 2 and not q.is_pure_noise


def _first_query(plan, **changes):
    qs = list(plan.databases[0])
    qs[0] = dataclasses.replace(qs[0], **changes)
    return {"databases": (tuple(qs),) + plan.databases[1:]}


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda p: {"databases": p.databases + ((),)}, "3 databases listed, expected N=2"),
        (lambda p: {"desired": 0}, "desired message 0 out of range 1..3"),
        (lambda p: {"desired": 4}, "desired message 4 out of range 1..3"),
        (lambda p: _first_query(p, noise_slot=17), "db 1 query 1: noise slot 17 outside 1..16"),
        (lambda p: _first_query(p, terms=((0, 1),)), "db 1 query 1: message 0 outside 1..3"),
        (lambda p: _first_query(p, terms=((4, 1),)), "db 1 query 1: message 4 outside 1..3"),
        (lambda p: _first_query(p, terms=((1, 0),)), "db 1 query 1: slot 0 outside 1..12"),
        (lambda p: _first_query(p, terms=((1, 13),)), "db 1 query 1: slot 13 outside 1..12"),
        # t = (16, 18): database 2 needs 18 distinct evaluation points
        (lambda p: {"q": 17}, "field too small: t=18 > q=17"),
        (lambda p: {"q": 21}, "field modulus must be prime, got 21"),
    ],
    ids=["databases", "desired-0", "desired-4", "noise-slot", "message-0", "message-4",
         "symbol-slot-0", "symbol-slot-13", "field-too-small", "field-not-prime"],
)
def test_plan_rejects_out_of_range_index(change, message):
    plan = worked_plan()
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(plan, **change(plan))


def test_table_rendering():
    plan = worked_plan()
    text = plan_to_table(plan)
    assert text.splitlines()[0] == "| Database 1 | Database 2 |"
    assert "a_1" in text and "(repetition 2)" in text and "(artificial noise)" in text
    assert "u_" in text and "v_" in text
    # deterministic
    assert plan_to_table(worked_plan()) == text
    # a plan one query short or one query long still renders every query once
    db2 = plan.databases[1]
    extra = Query(terms=next(q for q in db2 if q.round == 2).terms, noise_slot=len(db2) + 1)
    for queries in (db2[:-1], db2 + (extra,)):
        edited = dataclasses.replace(plan, databases=(plan.databases[0], queries))
        rows = [line.split(" | ") for line in plan_to_table(edited).splitlines()[2:]]
        cells = sorted(row[1].rstrip(" |") for row in rows)
        want = sorted(_render_query(qr, 2) for qr in queries)
        assert [c for c in cells if c and not c.startswith("(")] == want


def test_trivial_scheme_omits_idle_databases():
    mu = EavesdropProfile([0, 0, 0])
    plan = build_plan(2, 3, (1, 1), mu, desired=1, seed=1)
    assert plan.databases[1] == () and plan.databases[2] == ()
    assert plan_to_table(plan).splitlines()[0] == "| Database 1 |"
    assert plan_violations(plan) == []


def test_violations_detect_tampering():
    plan = worked_plan()
    import dataclasses

    qs = list(plan.databases[0])
    i3 = next(i for i, q in enumerate(qs) if q.round == 3)
    terms = tuple((m, s + 1 if m == 2 else s) for m, s in qs[i3].terms)
    qs[i3] = Query(terms=terms, noise_slot=qs[i3].noise_slot)
    dbs = list(plan.databases)
    dbs[0] = tuple(qs)
    bad = dataclasses.replace(plan, databases=tuple(dbs))
    assert any("side information" in v for v in plan_violations(bad))

