"""Acceptance gate: one test (and one pass/fail line under ``pytest -v``)
per criterion.  All comparisons are exact unless a tolerance is stated in
the test body; every test also enforces its runtime limit.
"""

import random
import time
from fractions import Fraction

from wtcpir import (
    EavesdropProfile,
    achievable_rate,
    audit_decodability,
    audit_privacy,
    audit_security,
    best_scheme,
    build_plan,
    derive_groups,
    gap,
    plan_dimensions_per_rep,
    repetition_factor,
    stage_counts,
    upper_bound,
)

import faults
from oracles import (
    classic_rate,
    leakage_is_message_independent,
    m2n3_rates,
    m4n2_rates,
    n2_rate_formula,
    M2N3_SEQUENCES,
)

WORKED_MU = EavesdropProfile(["1/4", "1/2"])


def _rand_mu(rng: random.Random, N: int) -> EavesdropProfile:
    vals = sorted(Fraction(rng.randrange(0, 48), rng.randrange(49, 96)) for _ in range(N))
    return EavesdropProfile(vals)


def _finish(k: int, label: str, started: float, limit: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {k} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"criterion {k} ({label}): PASS — {detail} [{elapsed:.2f}s]")


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    ub = upper_bound(3, 2, WORKED_MU)
    g, lb = best_scheme(3, 2, WORKED_MU)
    assert ub.value == lb == Fraction(6, 17)
    dims = repetition_factor(g, WORKED_MU)
    assert dims.nu == 3
    assert dims.t == (16, 18)
    assert dims.key_len == (4, 9)
    assert dims.L == 12
    _finish(1, "worked example", t0, 1.0, "bounds meet at 6/17, dims (3, (16,18), (4,9), 12)")


def test_criterion_2_classic_reduction():
    t0 = time.perf_counter()
    for M in range(2, 6):
        for N in range(2, 6):
            mu = EavesdropProfile([0] * N)
            _, lb = best_scheme(M, N, mu)
            ub = upper_bound(M, N, mu).value
            want = classic_rate(M, N)
            assert lb == ub == want, (M, N, lb, ub, want)
    _finish(2, "no-eavesdropper reduction", t0, 10.0, "all M,N <= 5 match the classic rate exactly")


def test_criterion_3_exact_capacity_small():
    t0 = time.perf_counter()
    rng = random.Random(20260301)
    points = 0
    for M in (2, 3):
        for N in (2, 3, 4):
            for _ in range(50):
                mu = _rand_mu(rng, N)
                ub = upper_bound(M, N, mu).value
                _, lb = best_scheme(M, N, mu)
                assert ub == lb, (M, N, mu.mu)
                points += 1
    _finish(3, "two/three-message capacity", t0, 60.0, f"gap is exactly zero at {points} random profiles")


def test_criterion_4_four_messages_two_databases():
    t0 = time.perf_counter()
    rng = random.Random(20260302)
    order = [(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)]
    for _ in range(20):
        mu = _rand_mu(rng, 2)
        exprs = m4n2_rates(*mu.mu)
        for vec, expr in zip(order, exprs):
            assert achievable_rate(derive_groups(4, 2, vec), mu) == expr, (vec, mu.mu)
        _, lb = best_scheme(4, 2, mu)
        assert lb == max(exprs), mu.mu
    # grid scan, step 1/20: the largest bound gap, exactly and where it is
    worst, worst_at = Fraction(0), None
    grid = [Fraction(i, 20) for i in range(20)]  # 0 .. 19/20
    for i, m1 in enumerate(grid):
        for m2 in grid[i:]:
            mu = EavesdropProfile([m1, m2])
            ub = upper_bound(4, 2, mu).value
            _, lb = best_scheme(4, 2, mu)
            assert lb <= ub
            if ub - lb > worst:
                worst, worst_at = ub - lb, (m1, m2)
    assert (worst, worst_at) == (Fraction(456, 95545), (Fraction(1, 20), Fraction(3, 5))), (worst, worst_at)
    # off the grid the gap is larger: UB 20/61 against the best rate 10/31
    assert gap(4, 2, EavesdropProfile([0, "7/12"])) == Fraction(10, 1891)
    _finish(4, "four-message bounds", t0, 120.0,
            f"scheme family exact; max grid gap {float(worst):.6f} at mu = (1/20, 3/5)")


def test_criterion_5_two_messages_three_databases():
    t0 = time.perf_counter()
    rng = random.Random(20260303)
    for _ in range(20):
        mu = _rand_mu(rng, 3)
        exprs = m2n3_rates(mu.mu)
        for vec, expr in zip(M2N3_SEQUENCES, exprs):
            assert achievable_rate(derive_groups(2, 3, vec), mu) == expr, (vec, mu.mu)
        _, lb = best_scheme(2, 3, mu)
        assert lb == max(exprs), mu.mu
    _finish(5, "six-scheme family", t0, 60.0, "all six closed forms exact at 20 random profiles")


def test_criterion_6_stage_count_goldens():
    t0 = time.perf_counter()
    goldens = {
        (1, 2, 2): ({0: (1, 0, 1), 1: (0, 1, 0)}, (4, 3), 4),
        (1, 1, 2, 2): ({0: (2, 0, 0, 1), 2: (0, 0, 1, 0)}, (9, 4), 6),
        (1, 2, 2, 2): ({0: (1, 0, 1, 0), 1: (0, 1, 0, 1)}, (8, 7), 8),
        (1, 1, 1, 2): ({0: (1, 0, 0, 0), 3: (0, 0, 0, 1)}, (4, 1), 2),
        (2, 2, 2, 2): ({0: (1, 1, 1, 1)}, (15, 15), 16),
    }
    for vec, (rows, D, L) in goldens.items():
        M = len(vec)
        g = derive_groups(M, max(vec), vec)
        sc = stage_counts(g)
        for group, expected in rows.items():
            assert sc.row(group, M) == expected, (vec, group)
        assert plan_dimensions_per_rep(g) == (D, L), vec
    # two-database seed check with distinct widths
    g23 = derive_groups(2, 3, (2, 3))
    sc23 = stage_counts(g23)
    assert sc23.row(0, 2) == (1, 1) and sc23.row(1, 2) == (0, 2)
    _finish(6, "stage-count tables", t0, 10.0, "all frozen stage/dimension tables match exactly")


def test_criterion_7_worked_plan_audits_and_faults():
    t0 = time.perf_counter()
    plan = build_plan(3, 2, (1, 2, 2), WORKED_MU, desired=1, seed=7)

    privacy = audit_privacy(
        [build_plan(3, 2, (1, 2, 2), WORKED_MU, desired=i, seed=7) for i in (1, 2, 3)]
    )
    assert privacy["status"] == "PASS"

    security = audit_security(plan)
    assert security["status"] == "PASS"
    assert all(e["exhaustive"] and e["certificate"] == "mds" for e in security["databases"])

    decod = audit_decodability(plan, trials=100, seed=5)
    assert decod["status"] == "PASS" and decod["passed"] == 100

    bad_key = faults.shorter_key(plan, database=1)
    assert audit_security(bad_key)["status"] == "FAIL"

    asym = faults.broken_symmetry(3, 2, (1, 2, 2), WORKED_MU, seed=7)
    assert audit_privacy(asym)["status"] == "FAIL"

    rewired = faults.rewired_side_information(plan)
    assert audit_decodability(rewired, trials=20, seed=5)["status"] == "FAIL"

    _finish(7, "plan audits + fault injection", t0, 60.0,
            "honest plan passes all audits; each fault fails its audit")


def test_criterion_8_leakage_brute_force():
    t0 = time.perf_counter()
    mu = EavesdropProfile(["1/2", "1/2"])
    plan = build_plan(2, 2, (1, 2), mu, desired=1, seed=2, q=5)
    assert sum(len(db) for db in plan.databases) <= 12
    assert audit_security(plan)["status"] == "PASS"
    independent, sets_checked = leakage_is_message_independent(plan)
    assert independent
    assert sets_checked == 12
    _finish(8, "leakage brute force", t0, 120.0,
            f"eavesdropper view distribution message-independent on all {sets_checked} observation sets")


def test_criterion_9_two_database_closed_form():
    t0 = time.perf_counter()
    rng = random.Random(20260304)
    for M in range(2, 7):
        for _ in range(20):
            mu = _rand_mu(rng, 2)
            for s2 in range(1, M):
                vec = (1,) * s2 + (2,) * (M - s2)
                got = n2_rate_formula(M, s2, mu.mu)
                assert got == achievable_rate(derive_groups(M, 2, vec), mu), (M, s2, mu.mu)
            _, best = best_scheme(M, 2, mu)
            assert n2_rate_formula(M, 0, mu.mu) <= best, (M, mu.mu)
    _finish(9, "closed-form rate family", t0, 60.0,
            "exact match for every leading-singles scheme, M <= 6; base case dominated")
