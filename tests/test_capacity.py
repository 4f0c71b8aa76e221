"""Capacity upper bounds: constraint generation, its certificate, the gap."""

import hashlib
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from wtcpir import capacity
from wtcpir.capacity import (
    EnumerationBudgetError,
    constraint_coefficients,
    gap,
    inner_bound_at,
    outer_bound_at,
    sequence_vectors,
    upper_bound,
)
from wtcpir.schemes import EavesdropProfile, best_scheme

from oracles import (
    capacity_m2,
    capacity_m3,
    classic_rate,
    fraction_simplex,
    prefix_coefficients,
    ub32,
    vertex_enumeration,
)

WORKED_MU = EavesdropProfile(["1/4", "1/2"])
MU_STAR = (0, "1/9", "2/9", "1/3")


def rand_mu(rng: random.Random, N: int) -> EavesdropProfile:
    vals = sorted(Fraction(rng.randrange(0, 40), rng.randrange(41, 80)) for _ in range(N))
    return EavesdropProfile(vals)


def assert_certified(res, mu: EavesdropProfile, M: int) -> None:
    """Both halves of the bound's certificate: argmax_tau reaches the value,
    and at most N tight constraints, weighted by the dual weights, show
    that no tau exceeds it."""
    assert inner_bound_at(res.argmax_tau, mu, M) == res.value, (M, mu.mu)
    assert outer_bound_at(res.dual_weights, mu) == res.value, (M, mu.mu)
    assert len(res.dual_weights) <= mu.N, (M, mu.mu)
    assert {n_vec for n_vec, _ in res.dual_weights} <= set(res.active_sequences), (M, mu.mu)


def test_constraint_coefficients_worked_values():
    # c = a / D: (1, 1) has c = (1/4, 1/2), (2, 2) has c = (3/7, 2/7)
    cases = {
        (1, 1): ((1, 2), 4),
        (1, 2): ((3, 4), 10),
        (2, 1): ((3, 3), 8),
        (2, 2): ((3, 2), 7),
    }
    for seq, expected in cases.items():
        assert constraint_coefficients(seq, WORKED_MU) == expected, seq


def test_constraint_coefficients_match_prefix_oracle():
    # (1/6, 1/4, 1/2, 1/2): the 1 - mu_d share no common denominator
    for profile in ((0, 0, 0, 0), MU_STAR, ("1/6", "1/4", "1/2", "1/2")):
        for N in range(1, 5):
            mu = EavesdropProfile(profile[:N])
            for M in range(1, 6):
                for seq in sequence_vectors(M, N):
                    a, D = constraint_coefficients(seq, mu)
                    assert tuple(Fraction(v, D) for v in a) == prefix_coefficients(seq, mu.mu), (seq, mu.mu)
                    # primitive, so equal vectors get equal forms in the pool
                    assert D > 0 and gcd(D, *a) == 1, (seq, mu.mu)


def test_inner_bound_at_worked_example():
    tau = (Fraction(8, 17), Fraction(9, 17))
    assert inner_bound_at(tau, WORKED_MU, M=3) == Fraction(6, 17)
    with pytest.raises(ValueError, match="simplex"):
        inner_bound_at((Fraction(1, 2), Fraction(1, 4)), WORKED_MU, M=3)
    with pytest.raises(ValueError, match="simplex"):
        inner_bound_at((Fraction(3, 2), Fraction(-1, 2)), WORKED_MU, M=3)


def test_outer_bound_at_worked_example():
    weights = (((1, 2), Fraction(10, 17)), ((2, 2), Fraction(7, 17)))
    assert outer_bound_at(weights, WORKED_MU) == Fraction(6, 17)
    # any weights on the simplex bound the LP from above, if less tightly
    assert outer_bound_at((((1, 1), 1),), WORKED_MU) == Fraction(1, 2)
    bad = [
        ("simplex", (((1, 2), Fraction(3, 2)), ((2, 2), Fraction(-1, 2)))),
        ("simplex", ()),
        ("unequal length", (((1, 2), Fraction(1, 2)), ((2,), Fraction(1, 2)))),
        ("outside 1..2", (((1, 3), 1),)),
    ]
    for message, weights in bad:
        with pytest.raises(ValueError, match=message):
            outer_bound_at(weights, WORKED_MU)


def test_upper_bound_worked_example():
    res = upper_bound(3, 2, WORKED_MU)
    assert res.value == Fraction(6, 17)
    assert res.argmax_tau == (Fraction(8, 17), Fraction(9, 17))
    assert set(res.active_sequences) == {(1, 2), (2, 2)}
    assert res.dual_weights == (((1, 2), Fraction(10, 17)), ((2, 2), Fraction(7, 17)))
    # the returned vertex and dual weights really certify the value
    assert_certified(res, WORKED_MU, 3)


def test_upper_bound_matches_independent_closed_form():
    rng = random.Random(11)
    for _ in range(50):
        mu = rand_mu(rng, 2)
        assert upper_bound(3, 2, mu).value == ub32(*mu.mu)


def test_upper_bound_classic_reduction():
    for M in range(2, 6):
        for N in range(2, 6):
            mu = EavesdropProfile([0] * N)
            res = upper_bound(M, N, mu)
            assert res.value == classic_rate(M, N), (M, N)
            # uniform shares attain the optimum even when the LP vertex differs
            uniform = (Fraction(1, N),) * N
            assert inner_bound_at(uniform, mu, M) == res.value
            assert_certified(res, mu, M)


def test_both_routes_agree():
    rng = random.Random(23)
    grid = random.Random(29)  # mu on a 1/12 grid, where equal entries are common
    # (4, 3) enumerates about 3 000 basis sets per instance, so it gets fewer draws
    shapes = [(2, 2, 5), (2, 3, 5), (3, 2, 5), (3, 3, 5), (4, 2, 5), (1, 2, 5), (1, 3, 5), (4, 3, 1)]
    for M, N, draws in shapes:
        profiles = [rand_mu(rng, N) for _ in range(draws)]
        profiles += [EavesdropProfile(sorted(Fraction(grid.randrange(12), 12) for _ in range(N))) for _ in range(2)]
        for mu in profiles:
            a = upper_bound(M, N, mu)
            assert a.value == vertex_enumeration(M, N, mu.mu)[0], (M, N, mu.mu)
            # the certificate proves the value, which no scheme beats
            assert_certified(a, mu, M)
            assert a.value >= best_scheme(M, N, mu)[1], (M, N, mu.mu)
    # several optimal tau here; `wtcpir capacity` prints the simplex's vertex,
    # which Bland's rule picks (the enumeration oracle returns (1/3, 1/3, 1/3));
    # the final tableau's dual weights sit on the one tight constraint
    tie = EavesdropProfile([0, "1/2", "1/2"])
    a = upper_bound(2, 3, tie)
    assert (a.value, a.argmax_tau, a.active_sequences) == (Fraction(1, 2), (1, 0, 0), ((1,),))
    assert a.dual_weights == (((1,), 1),)
    assert_certified(a, tie, 2)
    assert vertex_enumeration(2, 3, tie.mu) == (a.value, (Fraction(1, 3),) * 3)


def test_upper_bound_golden_where_scheme_falls_short():
    mu = EavesdropProfile(MU_STAR)
    # N=4, M=5: the LP optimum lies above the best scheme's rate
    res = upper_bound(5, 4, mu)
    assert res.value == Fraction(2688, 4393)
    assert res.argmax_tau == tuple(Fraction(v, 4393) for v in (910, 1008, 1152, 1323))
    assert res.active_sequences == (
        (1, 3, 4, 4), (1, 4, 4, 4), (2, 3, 4, 4), (2, 4, 4, 4), (3, 3, 4, 4), (3, 4, 4, 4),
    )
    assert_certified(res, mu, 5)
    res = upper_bound(6, 4, mu)
    assert res.value == Fraction(10752, 17593)
    assert res.argmax_tau == tuple(Fraction(v, 17593) for v in (3598, 4032, 4608, 5355))
    assert res.active_sequences == (
        (1, 3, 4, 4, 4), (1, 4, 4, 4, 4), (2, 3, 4, 4, 4),
        (2, 4, 4, 4, 4), (3, 3, 4, 4, 4), (3, 4, 4, 4, 4),
    )
    assert_certified(res, mu, 6)
    res = upper_bound(7, 4, mu)
    assert res.value == Fraction(43008, 70393)
    assert res.argmax_tau == tuple(Fraction(v, 70393) for v in (14350, 16128, 18432, 21483))
    assert res.active_sequences == (
        (1, 3, 4, 4, 4, 4), (1, 4, 4, 4, 4, 4), (2, 3, 4, 4, 4, 4),
        (2, 4, 4, 4, 4, 4), (3, 3, 4, 4, 4, 4), (3, 4, 4, 4, 4, 4),
    )
    assert_certified(res, mu, 7)
    # the known N=4 gap between the LP and the best scheme
    assert gap(5, 4, mu) == Fraction(4480, 102932383)


# the five eavesdropping profiles of the lp-ladder benchmark workload
LADDER_FAMILY = (MU_STAR, ("1/12", "1/3", "5/12", "2/3"), ("0", "1/2", "7/12", "3/4"),
                 ("1/6", "1/4", "1/2", "1/2"), ("1/12", "1/6", "1/3", "1/2"))


def test_lp_results_match_golden_digest():
    # every LP result field, pinned bit for bit: a change to how the pool,
    # the pricing or the simplex is built must not move any of them
    programs = [(M, N, EavesdropProfile(mu)) for mu in LADDER_FAMILY for M, N in ((5, 4), (6, 4), (7, 4))]
    rng = random.Random(47)
    for _ in range(120):
        M, N, den = rng.randint(1, 5), rng.randint(1, 4), rng.choice((12, 7))
        programs.append((M, N, EavesdropProfile(sorted(Fraction(rng.randrange(den), den) for _ in range(N)))))
    h = hashlib.sha256()
    for M, N, mu in programs:
        res = upper_bound(M, N, mu)
        h.update(repr((
            M, N, tuple(map(str, mu.mu)), str(res.value), tuple(map(str, res.argmax_tau)),
            res.active_sequences, tuple((n_vec, str(w)) for n_vec, w in res.dual_weights),
        )).encode() + b"\n")
    assert h.hexdigest()[:16] == "72d812271651a732"


def _outcome(solve, program):
    try:
        return solve(program)
    except Exception as exc:  # the two solvers must fail alike, too
        return type(exc), str(exc)


def test_integer_simplex_matches_fraction_oracle(monkeypatch):
    rng = random.Random(43)
    programs = []
    for _ in range(3000):
        N, J = rng.randint(1, 4), rng.randint(1, 8)
        programs.append([
            [Fraction(rng.randrange(5), rng.choice((1, 2, 3, 4, 6, 12))) for _ in range(N)]
            for _ in range(J)
        ])
    # plus every restricted program the LP solves at (5,4) and (6,4) mu*
    recorded = []
    solve = capacity._solve_restricted

    def record(forms):
        recorded.append(forms)
        return solve(forms)

    monkeypatch.setattr(capacity, "_solve_restricted", record)
    upper_bound(5, 4, EavesdropProfile(MU_STAR))
    upper_bound(6, 4, EavesdropProfile(MU_STAR))
    assert len(recorded) > 2
    programs += [[[Fraction(v, D) for v in a] for a, D in forms] for forms in recorded]
    for cvecs in programs:
        # the pool's integer form: D the lcm of the denominators, a = c * D
        forms = []
        for cv in cvecs:
            D = lcm(*(v.denominator for v in cv))
            forms.append((tuple(v.numerator * (D // v.denominator) for v in cv), D))
        assert _outcome(solve, forms) == _outcome(fraction_simplex, cvecs), cvecs
    # a degenerate ratio tie: the lowest-basis-index rule picks the leaving
    # row, and with it the optimal vertex (the other row ends at tau = e_2);
    # row 1 is over 12, not its lcm 2, which must change nothing
    tie = [((0, 24, 18, 24), 12), ((1, 3, 3, 0), 12), ((1, 3, 36, 0), 12)]
    want = (Fraction(1, 4), (0, 0, 1, 0), (0, 1, 0))
    assert solve(tie) == fraction_simplex([[Fraction(v, D) for v in a] for a, D in tie]) == want


def test_closed_form_capacity_matches_oracles():
    # for M = 2 and 3 the LP's value is the closed-form capacity
    rng = random.Random(31)
    for N in (2, 3, 4):
        for _ in range(10):
            mu = rand_mu(rng, N)
            for M, oracle in ((2, capacity_m2), (3, capacity_m3)):
                assert upper_bound(M, N, mu).value == oracle(N, mu.mu), (M, N, mu.mu)


def test_closed_form_equals_lp():
    # for M = 2 and 3 the best scheme achieves the closed form, so it meets the LP
    rng = random.Random(31)
    for N in (2, 3, 4):
        for _ in range(10):
            mu = rand_mu(rng, N)
            for M, oracle in ((2, capacity_m2), (3, capacity_m3)):
                want = oracle(N, mu.mu)
                assert best_scheme(M, N, mu)[1] == want, (M, N, mu.mu)
                assert upper_bound(M, N, mu).value == want, (M, N, mu.mu)


def test_gap_zero_small_and_soundness():
    rng = random.Random(41)
    for M in (2, 3):
        for N in (2, 3):
            for _ in range(5):
                mu = rand_mu(rng, N)
                assert gap(M, N, mu) == 0
    for _ in range(10):
        mu = rand_mu(rng, 3)
        ub = upper_bound(4, 3, mu).value
        _, lb = best_scheme(4, 3, mu)
        assert lb <= ub


def test_budget_error():
    mu = EavesdropProfile([0] * 5)
    with pytest.raises(EnumerationBudgetError, match="enumeration too large"):
        upper_bound(10, 5, mu)


def test_upper_bound_monotone_in_eavesdropping():
    weak = upper_bound(3, 2, EavesdropProfile(["1/8", "1/4"])).value
    strong = upper_bound(3, 2, WORKED_MU).value
    assert weak > strong
