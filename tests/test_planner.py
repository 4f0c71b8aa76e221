"""Query-plan construction, invariants, rendering, and serialization."""

import dataclasses
import hashlib
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from wtcpir import planner
from wtcpir.planner import (
    Query,
    _render_query,
    build_plan,
    expected_signature,
    plan_from_json,
    plan_stats,
    plan_to_json,
    plan_to_table,
    plan_violations,
    signature_diff,
)
from wtcpir.protocol import audit_decodability, audit_privacy, audit_security
from wtcpir.schemes import (
    EavesdropProfile,
    achievable_rate,
    enumerate_sequences,
    repetition_factor,
    stage_counts,
)

import faults
from oracles import leakage_is_message_independent, plan_document_stdlib, stage_count_findings

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
                for d in range(1, N + 1):
                    expect = expected_signature(g, plan.dims, d)
                    assert expect.total() == plan.dims.t[d - 1]
                    assert expect[frozenset()] == plan.dims.key_len[d - 1]
                    assert expect == plan.signatures[d - 1]
                assert plan_stats(plan)["rate"] == achievable_rate(g, mu)


def plans_digest(shapes) -> tuple[int, str]:
    """Count and SHA-256 of the JSON and table text of every monotone
    sequence's plan at each (M, N), two profiles, desired 1 and M; each
    plan must load back to itself and render alike."""
    digest = hashlib.sha256()
    count = 0
    for M, N in shapes:
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
    return count, digest.hexdigest()


def test_plans_match_golden_digest():
    # JSON and table text of 172 plans, pinned byte for byte: every monotone
    # sequence for M in 2..4 and N in 2..3
    assert plans_digest((M, N) for M in range(2, 5) for N in range(2, 4)) == (
        172, "0d9996542fbd60ac832907c7c7410f24207607737974ad3e19fd0d91350a2468")


def test_larger_plans_match_golden_digest():
    # 304 more plans: at N=4 several databases join late, each impulse stage
    # drawing on its own round-1 pools
    assert plans_digest([(5, 3), (3, 4), (4, 4)]) == (
        304, "313c5f2ef150b98fe0f2d41b0e9bea2c806220ce5b9d13f680ce9a99991166e2")


STRUCTURE_SHAPES = (
    (3, 2, ("1/4", "1/2")),
    (3, 2, ("0", "0")),
    (4, 2, ("0", "1/3")),
    (4, 3, ("0", "1/4", "1/2")),
    (3, 3, ("0", "1/2", "7/8")),
)


def _structure_variants(plan):
    """The plan, a shorter key at each database holding noise, a rewired
    side sum where one exists, and, at the last database with two
    queries, two equal noise slots and a dropped last query."""
    variants = [plan]
    for d, queries in enumerate(plan.databases, start=1):
        if any(qr.is_pure_noise for qr in queries):
            variants.append(faults.shorter_key(plan, database=d))
    try:
        rewired = faults.rewired_side_information(plan)
    except AssertionError:
        pass  # no desired sum of round 3 or more to rewire
    else:
        variants.append(rewired)
        # a shorter key where the rewiring is, for stage and side
        # information findings at one database
        d = next(d for d, (a, b) in enumerate(zip(plan.databases, rewired.databases), start=1)
                 if a != b)
        if any(qr.is_pure_noise for qr in rewired.databases[d - 1]):
            variants.append(faults.shorter_key(rewired, database=d))
    d = max(d for d, queries in enumerate(plan.databases, start=1) if len(queries) >= 2)
    first, second, *rest = plan.databases[d - 1]
    variants.append(faults._replace_db(
        plan, d, [first, dataclasses.replace(second, noise_slot=first.noise_slot), *rest]))
    variants.append(faults._replace_db(plan, d, plan.databases[d - 1][:-1]))
    return variants


def _databases_named(findings):
    return {int(re.match(r"db (\d+)", v)[1]) for v in findings}


def test_structure_reports_match_golden_digest():
    # plan_violations, plan_stats and audit_security of honest and broken
    # plans of every monotone sequence at five shapes, desired 1 and M, then
    # audit_privacy over every desired message and over a broken symmetry
    digest = hashlib.sha256()
    count = flagged = 0
    for M, N, mu in STRUCTURE_SHAPES:
        profile = EavesdropProfile(list(mu))
        for g in enumerate_sequences(M, N):
            plans = [build_plan(M, N, g, profile, desired=i, seed=10 * M + N) for i in range(1, M + 1)]
            for plan in (plans[0], plans[-1]):
                for variant in _structure_variants(plan):
                    report = [plan_violations(variant), plan_stats(variant), audit_security(variant)]
                    digest.update(json.dumps(report, default=str).encode())
                    # the old count rules flag a database exactly when the
                    # signature diff does
                    assert _databases_named(v for v in report[0] if ": message set " in v) \
                        == _databases_named(stage_count_findings(variant))
                    flagged += bool(report[0])
                    count += 1
            digest.update(json.dumps(audit_privacy(plans)).encode())
            try:
                broken = faults.broken_symmetry(M, N, g, profile, seed=10 * M + N)
            except AssertionError:
                continue  # no undesired multi-sum to tamper with
            digest.update(json.dumps(audit_privacy(broken)).encode())
    assert (count, flagged) == (384, 308)
    assert digest.hexdigest() == "92c7daa9e6f407ae6ce4ab2a39b01baa9c0faf2ca8630d3abc0e3aefffd794a3"


def _side_findings_at_another_database(plan):
    """The stricter side-information rule, as an oracle: a desired-bearing
    sum's side sum, or each of its round-1 singles, must be downloaded at
    another database.  Returns the (database, flat position) of every sum
    that breaks it."""
    at: dict[frozenset, set[int]] = {}
    for d, queries in enumerate(plan.databases, start=1):
        for qr in queries:
            if qr.terms and plan.desired not in qr.message_set():
                at.setdefault(frozenset(qr.terms), set()).add(d)
    found = []
    for d, pos, _, side, _ in plan.bearing:
        def elsewhere(terms):
            return bool(at.get(frozenset(terms), set()) - {d})
        if side and not elsewhere(side) and not all(elsewhere([p]) for p in side):
            found.append((d, pos))
    return found


def test_side_information_at_any_database_keeps_every_verdict():
    # plan_violations accepts side information downloaded at the sum's own
    # database; wherever the stricter rule differs, that database downloads
    # a symbol slot twice, so plan_violations still reports it there
    plans = [faults.own_side_singles()]
    for M, N, mu in STRUCTURE_SHAPES:
        profile = EavesdropProfile(list(mu))
        for g in enumerate_sequences(M, N):
            for desired in (1, M):
                plans += _structure_variants(build_plan(M, N, g, profile, desired=desired, seed=10 * M + N))
    differ = 0
    for plan in plans:
        problems = plan_violations(plan)
        unresolved = {(d, pos) for d, pos, *_, subtract in plan.bearing if subtract is None}
        strict = set(_side_findings_at_another_database(plan))
        assert unresolved <= strict
        for d, _ in strict - unresolved:
            differ += 1
            assert any(v.startswith(f"db {d}: symbol slots downloaded twice") for v in problems)
    assert differ == 2  # both desired sums of the swapped plan


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


def test_malformed_documents_raise_value_error_only():
    # a missing field or a wrong JSON type is a ValueError naming where it
    # sits, never a KeyError or TypeError
    doc = json.loads(plan_to_json(worked_plan()))
    well_formed = []
    for name, value, edited in faults.malformed_documents(doc):
        if value == [] and name in ("queries", "terms"):
            well_formed.append(plan_from_json(edited).databases[0][:1])
            continue
        with pytest.raises(ValueError) as exc:
            plan_from_json(edited)
        if value is faults.MISSING:
            assert f"missing field '{faults.FIELDS[name][-1]}'" in str(exc.value)
    # an idle database 1, and a pure-noise query 1 there
    assert well_formed == [(), (Query(terms=(), noise_slot=doc["databases"][0]["queries"][0]["noise_slot"]),)]


def test_integer_mu_entries_load():
    plan = build_plan(3, 2, (1, 2, 2), EavesdropProfile(["0", "1/2"]), desired=1, seed=7)
    doc = json.loads(plan_to_json(plan))
    doc["meta"]["mu"][0] = 0
    assert plan_from_json(doc) == plan


def test_download_budget_admits_a_plan_at_the_limit(monkeypatch):
    plan = worked_plan()  # 16 + 18 = 34 downloads
    doc = plan_to_json(plan)
    monkeypatch.setattr(planner, "_DOWNLOAD_BUDGET", 34)
    assert worked_plan() == plan and plan_from_json(doc) == plan
    monkeypatch.setattr(planner, "_DOWNLOAD_BUDGET", 33)
    for make in (worked_plan, lambda: plan_from_json(doc)):
        with pytest.raises(ValueError, match=r"downloads 34 symbols \(L=12\), over the budget of 33$"):
            make()


def test_field_choice_and_override():
    # t = (16, 18): the default is the smallest prime above 18; QueryPlan
    # judges an override, by the rule a loaded plan meets
    assert worked_plan().q == 19
    assert build_plan(3, 2, (1, 2, 2), WORKED_MU, 1, 7, q=23).q == 23
    with pytest.raises(ValueError, match=r"^field too small: t=18 > q=17; pick a larger field$"):
        build_plan(3, 2, (1, 2, 2), WORKED_MU, 1, 7, q=17)
    with pytest.raises(ValueError, match=r"^field modulus must be prime, got 21$"):
        build_plan(3, 2, (1, 2, 2), WORKED_MU, 1, 7, q=21)
    with pytest.raises(ValueError, match=r"^field modulus too large"):
        build_plan(3, 2, (1, 2, 2), WORKED_MU, 1, 7, q=2 ** 64 + 13)


def test_field_as_large_as_the_longest_answer():
    # t = (3, 3) with keys (0, 2): three evaluation points fill GF(3)
    mu = EavesdropProfile(["0", "2/3"])
    plans = [build_plan(3, 2, (1, 1, 2), mu, desired=i, seed=0, q=3) for i in (1, 2, 3)]
    plan = plans[0]
    assert (plan.q, plan.dims.t, plan.dims.key_len) == (3, (3, 3), (0, 2))
    assert plan_violations(plan) == []
    assert audit_privacy(plans)["status"] == "PASS"
    assert audit_security(plan)["status"] == "PASS"
    assert audit_decodability(plan, trials=4)["status"] == "PASS"
    assert leakage_is_message_independent(plan)[0] is True
    assert plan_from_json(plan_to_json(plan)) == plan
    with pytest.raises(ValueError, match=r"^field too small: t=3 > q=2; pick a larger field$"):
        build_plan(3, 2, (1, 1, 2), mu, desired=1, seed=0, q=2)


def test_build_input_validation():
    with pytest.raises(ValueError):
        build_plan(3, 2, (1, 2, 2), WORKED_MU, desired=4, seed=1)
    with pytest.raises(ValueError):
        build_plan(3, 2, (1, 2, 3), WORKED_MU, desired=1, seed=1)
    with pytest.raises(ValueError):
        build_plan(4, 2, (1, 2, 2), WORKED_MU, desired=1, seed=1)
    # int() would build the (1, 1, 2) plan from 1.5
    with pytest.raises(TypeError, match=r"^sequence entry 2 must be an int, got 1\.5$"):
        build_plan(3, 2, (1, 1.5, 2), WORKED_MU, desired=1, seed=1)


def test_query_validation():
    # Query is a plain record; QueryPlan judges its terms and noise slot
    q = Query(terms=((2, 5), (1, 4)), noise_slot=0)
    assert q.terms == ((2, 5), (1, 4)) and q.noise_slot == 0
    assert q.round == 2 and not q.is_pure_noise
    plan = worked_plan()
    i, pair = next((i, qr) for i, qr in enumerate(plan.databases[0], start=1) if qr.round >= 2)
    m1, s1 = pair.terms[0]
    for terms, noise_slot, message in [
        (pair.terms, 0, f"db 1 query {i}: noise slot 0 outside 1..16"),
        (((m1, s1), (m1, s1 + 1)) + pair.terms[2:], pair.noise_slot, f"db 1 query {i}: message {m1} repeated"),
        (tuple(reversed(pair.terms)), pair.noise_slot,
         f"db 1 query {i}: message {pair.terms[-2][0]} listed after message {pair.terms[-1][0]}"),
    ]:
        qs = list(plan.databases[0])
        qs[i - 1] = Query(terms=terms, noise_slot=noise_slot)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            dataclasses.replace(plan, databases=(tuple(qs),) + plan.databases[1:])
    # a document may list a query's terms in any order: loading sorts them
    doc = json.loads(plan_to_json(plan))
    terms = doc["databases"][0]["queries"][i - 1]["terms"]
    terms.reverse()
    assert terms != sorted(terms)
    loaded = plan_from_json(doc)
    assert loaded == plan and plan_to_json(loaded) == plan_to_json(plan)


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
        (lambda p: _first_query(p, noise_slot=0), "db 1 query 1: noise slot 0 outside 1..16"),
        (lambda p: _first_query(p, terms=((1, 1), (1, 2))), "db 1 query 1: message 1 repeated"),
        (lambda p: _first_query(p, terms=((0, 1),)), "db 1 query 1: message 0 outside 1..3"),
        (lambda p: _first_query(p, terms=((4, 1),)), "db 1 query 1: message 4 outside 1..3"),
        (lambda p: _first_query(p, terms=((1, 0),)), "db 1 query 1: slot 0 outside 1..12"),
        (lambda p: _first_query(p, terms=((1, 13),)), "db 1 query 1: slot 13 outside 1..12"),
        # t = (16, 18): database 2 needs 18 distinct evaluation points
        (lambda p: {"q": 17}, "field too small: t=18 > q=17"),
        (lambda p: {"q": 21}, "field modulus must be prime, got 21"),
    ],
    ids=["databases", "desired-0", "desired-4", "noise-slot", "noise-slot-0", "repeated-message",
         "message-0", "message-4",
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


def test_table_of_a_plan_that_downloads_nothing():
    # the worked plan (nu = 3) with every query dropped: no column, so no
    # repetition or noise header row either
    plan = worked_plan()
    doc = json.loads(plan_to_json(plan))
    for db in doc["databases"]:
        db["queries"] = []
    empty = plan_from_json(doc)
    assert empty.dims.nu == 3
    assert plan_to_table(empty) == "|  |\n|  |\n"


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
    assert plan_violations(bad) == [
        "db 1: side information ((2, 7), (3, 6)) for a round-3 desired sum "
        "is downloaded nowhere, neither whole nor single by single"
    ]


def test_violations_name_every_differing_message_set():
    # turning database 2's undesired pair b_2 + c_2 into a_1 + b_2 moves one
    # download from message set {2, 3} to {1, 2}: both sets are named, with
    # both counts, not only the first bad subset of the round
    plan = worked_plan()
    qs = list(plan.databases[1])
    assert qs[3].terms == ((2, 2), (3, 2))
    qs[3] = Query(terms=((1, 1), (2, 2)), noise_slot=qs[3].noise_slot)
    assert plan_violations(faults._replace_db(plan, 2, qs)) == [
        "db 1: side information ((2, 2), (3, 2)) for a round-3 desired sum "
        "is downloaded nowhere, neither whole nor single by single",
        "db 2: message set (1, 2) appears 4 times, the dimensioning says 3",
        "db 2: message set (2, 3) appears 2 times, the dimensioning says 3",
        "db 2: side information ((2, 2),) for a round-2 desired sum "
        "is downloaded nowhere, neither whole nor single by single",
        "desired slots do not cover 1..L=12 exactly once (13 uses, 12 distinct)",
    ]


def test_signature_diff_names_every_differing_set_in_one_order():
    # pure noise differs (3 against 4), {2} and {10} sit on one side only,
    # {1, 2} and {2, 3} are of equal size and differ, {1, 3} and {1, 2, 3}
    # agree; members sort as numbers, so {2} comes before {10}
    f = frozenset
    got = Counter({f({2, 3}): 2, f({1, 3}): 2, f({2}): 1, f(): 3, f({1, 2}): 4, f({1, 2, 3}): 1})
    want = Counter({f({1, 2, 3}): 1, f({10}): 2, f({1, 2}): 3, f(): 4, f({1, 3}): 2, f({2, 3}): 3})
    expected = [f(), f({2}), f({10}), f({1, 2}), f({2, 3})]
    assert signature_diff(got, want) == expected
    assert signature_diff(want, got) == expected
    assert signature_diff(got, Counter(dict(reversed(got.items())))) == []
    assert signature_diff(Counter(), Counter()) == []


def test_privacy_names_the_first_set_of_the_signature_diff():
    # broken_symmetry drops a term from one undesired sum of the desired=1
    # plan: each failing database names, with both counts, the first entry
    # of signature_diff between the first plan and the first plan differing
    # from it, the order in which plan_violations names its findings
    worked = faults.broken_symmetry(3, 2, (1, 2, 2), WORKED_MU, seed=7)
    assert audit_privacy(worked)["databases"] == [
        {"database": 1, "status": "PASS", "signatures": 5, "first_difference": None},
        {"database": 2, "status": "FAIL", "signatures": 5,
         "first_difference": {"desired": 2, "signature": [2], "counts": [1, 0]}},
    ]
    cases = [worked]
    for M, N, mu in STRUCTURE_SHAPES:
        for g in enumerate_sequences(M, N):
            try:
                cases.append(faults.broken_symmetry(M, N, g, EavesdropProfile(list(mu)), 10 * M + N))
            except AssertionError:
                pass  # no undesired multi-sum to tamper with
    failing = 0
    for plans in cases:
        report = audit_privacy(plans)
        assert report["status"] == "FAIL"
        for entry in report["databases"]:
            first = plans[0].signatures[entry["database"] - 1]
            other = next((p for p in plans[1:] if p.signatures[entry["database"] - 1] != first), None)
            if other is None:
                assert (entry["status"], entry["first_difference"]) == ("PASS", None)
                continue
            sig = other.signatures[entry["database"] - 1]
            bad = signature_diff(first, sig)[0]
            assert entry["status"] == "FAIL"
            assert entry["first_difference"] == {
                "desired": other.desired, "signature": sorted(bad), "counts": [first[bad], sig[bad]]}
            failing += 1
    assert (len(cases), failing) == (27, 27)  # one tampered database per case


def test_violations_check_a_database_with_a_wrong_query_count():
    # dropping database 2's last query, a pure-noise download, leaves every
    # desired slot on the wire: each check still runs on that database, and
    # the desired slots still cover 1..L
    plan = worked_plan()
    assert plan.databases[1][-1].is_pure_noise
    assert plan_violations(faults._replace_db(plan, 2, plan.databases[1][:-1])) == [
        "db 2: noise slots are not a bijection onto 1..18",
        "db 2: message set () appears 8 times, the dimensioning says 9",
    ]

