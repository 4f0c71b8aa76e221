"""Scheme dimensioning: group sequences, stage counts, rates."""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from wtcpir.schemes import (
    EavesdropProfile,
    achievable_rate,
    as_fraction,
    best_scheme,
    derive_groups,
    enumerate_sequences,
    plan_dimensions_per_rep,
    repetition_factor,
    stage_counts,
    traffic_vector,
)

from oracles import classic_rate, m2n3_rates, m4n2_rates, n2_rate_formula, M2N3_SEQUENCES

WORKED_MU = EavesdropProfile(["1/4", "1/2"])


def test_profile_validation():
    with pytest.raises(TypeError):
        EavesdropProfile([0.25, 0.5])
    with pytest.raises(ValueError):
        EavesdropProfile(["1/2", "1/4"])
    with pytest.raises(ValueError):
        EavesdropProfile(["1/2", "1"])
    with pytest.raises(ValueError):
        EavesdropProfile([])
    p = EavesdropProfile(["1/4", "1/2"])
    assert p.N == 2 and 1 / (1 - p.mu[1]) == 2


def test_profile_margins_are_the_primitive_form_of_one_minus_mu():
    rng = random.Random(59)
    for _ in range(300):
        N = rng.randint(1, 5)
        mu = EavesdropProfile(sorted(Fraction(rng.randrange(0, 40), rng.randrange(41, 80)) for _ in range(N)))
        assert all(Fraction(m, mu.margin_den) == 1 - v for m, v in zip(mu.margin, mu.mu)), mu.mu
        assert all(m > 0 for m in mu.margin), mu.mu
        assert gcd(mu.margin_den, *mu.margin) == 1, mu.mu
    # the margins are derived: equal ratios give equal profiles, whatever
    # their spelling, and the margins stay out of equality, hash and repr
    same = [EavesdropProfile(["1/4", half]) for half in ("1/2", Fraction(1, 2), "0.5")]
    assert len({(p.margin, p.margin_den) for p in same}) == 1
    assert same[0].margin == (3, 2) and same[0].margin_den == 4
    assert len(set(same)) == 1 and len({hash(p) for p in same}) == 1
    assert len({repr(p) for p in same}) == 1
    assert repr(same[0]) == "EavesdropProfile(mu=(Fraction(1, 4), Fraction(1, 2)))"


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.25)
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == 2


def test_derive_groups_structure():
    g = derive_groups(3, 2, (1, 2, 2))
    assert g.S == (0, 1) and g.xi == {0: 1, 1: 1}
    assert g.width(0) == 1 and g.width(1) == 1
    assert g.group_of(1) == 0 and g.group_of(2) == 1
    assert list(g.active_databases) == [1, 2]

    g4 = derive_groups(4, 2, (1, 1, 2, 2))
    assert g4.S == (0, 2) and g4.xi == {0: 2, 2: 1}

    with pytest.raises(ValueError):
        derive_groups(3, 2, (2, 1, 2))
    with pytest.raises(ValueError):
        derive_groups(3, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        derive_groups(3, 2, (0, 1, 2))


# Frozen stage-count goldens: {(vector): {group: (y[1..M])}}
STAGE_GOLDENS = {
    (1, 2, 2): {0: (1, 0, 1), 1: (0, 1, 0)},
    (1, 1, 2, 2): {0: (2, 0, 0, 1), 2: (0, 0, 1, 0)},
    (1, 2, 2, 2): {0: (1, 0, 1, 0), 1: (0, 1, 0, 1)},
    (1, 1, 1, 2): {0: (1, 0, 0, 0), 3: (0, 0, 0, 1)},
    (2, 2, 2, 2): {0: (1, 1, 1, 1)},
    (2, 3): {0: (1, 1), 1: (0, 2)},
}


def test_stage_count_goldens():
    for vec, rows in STAGE_GOLDENS.items():
        M = len(vec)
        g = derive_groups(M, max(vec), vec)
        sc = stage_counts(g)
        for group, expected in rows.items():
            assert sc.row(group, M) == expected, (vec, group)


def test_dimension_goldens():
    cases = {
        (1, 2, 2): ((4, 3), 4),
        (1, 1, 2, 2): ((9, 4), 6),
        (1, 2, 2, 2): ((8, 7), 8),
        (1, 1, 1, 2): ((4, 1), 2),
        (2, 2, 2, 2): ((15, 15), 16),
    }
    for vec, (D, L) in cases.items():
        g = derive_groups(len(vec), max(vec), vec)
        assert plan_dimensions_per_rep(g) == (D, L), vec


def test_repetition_factor_worked_example():
    g = derive_groups(3, 2, (1, 2, 2))
    dims = repetition_factor(g, WORKED_MU)
    assert dims.nu == 3
    assert dims.t == (16, 18)
    assert dims.key_len == (4, 9)
    assert dims.L == 12


def test_repetition_factor_no_eavesdropping_and_halves():
    g = derive_groups(3, 2, (1, 2, 2))
    d0 = repetition_factor(g, EavesdropProfile([0, 0]))
    assert d0.nu == 1 and d0.t == (4, 3) and d0.key_len == (0, 0)
    dh = repetition_factor(g, EavesdropProfile(["1/2", "1/2"]))
    assert dh.nu == 1 and dh.t == (8, 6) and dh.key_len == (4, 3)


def test_traffic_vector():
    g = derive_groups(3, 2, (1, 2, 2))
    assert traffic_vector(g) == (Fraction(4, 7), Fraction(3, 7))
    flat = derive_groups(3, 2, (2, 2, 2))
    assert traffic_vector(flat) == (Fraction(1, 2), Fraction(1, 2))
    solo = derive_groups(2, 3, (1, 1))
    assert traffic_vector(solo) == (1, 0, 0)
    for vec in [(1, 2, 2), (2, 3), (1, 1, 2, 2)]:
        tv = traffic_vector(derive_groups(len(vec), max(vec), vec))
        assert sum(tv) == 1
        assert all(a >= b for a, b in zip(tv, tv[1:]))


def test_achievable_rate_goldens():
    g = derive_groups(3, 2, (1, 2, 2))
    assert achievable_rate(g, WORKED_MU) == Fraction(6, 17)
    g4 = derive_groups(4, 2, (1, 2, 2, 2))
    x, y = (1 / (1 - m) for m in WORKED_MU.mu)
    assert achievable_rate(g4, WORKED_MU) == Fraction(8) / (8 * x + 7 * y)


def test_classic_reduction_rates():
    for M in range(2, 6):
        for N in range(2, 6):
            mu = EavesdropProfile([0] * N)
            g = derive_groups(M, N, (N,) * M)
            assert achievable_rate(g, mu) == classic_rate(M, N)


def test_best_scheme_worked_example_and_ties():
    g, rate = best_scheme(3, 2, WORKED_MU)
    assert g.n == (1, 2, 2) and rate == Fraction(6, 17)

    # with no eavesdropping the lex-smallest of the tied optima wins
    g0, rate0 = best_scheme(3, 2, EavesdropProfile([0, 0]))
    assert rate0 == classic_rate(3, 2) == Fraction(4, 7)
    assert g0.n == (1, 2, 2)
    assert achievable_rate(derive_groups(3, 2, (2, 2, 2)), EavesdropProfile([0, 0])) == rate0

    g1, rate1 = best_scheme(2, 3, EavesdropProfile([0, 0, 0]))
    assert rate1 == Fraction(3, 4) and g1.n == (1, 3)
    assert achievable_rate(derive_groups(2, 3, (3, 3)), EavesdropProfile([0, 0, 0])) == rate1


def test_enumerate_sequences_monotone_complete():
    seqs = [g.n for g in enumerate_sequences(3, 2)]
    assert seqs == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    assert len(list(enumerate_sequences(4, 3))) == 15


def test_m4n2_rate_family():
    order = [(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)]
    exprs = m4n2_rates(*WORKED_MU.mu)
    for vec, expr in zip(order, exprs):
        assert achievable_rate(derive_groups(4, 2, vec), WORKED_MU) == expr


def test_m2n3_rate_family():
    mu = EavesdropProfile(["1/8", "1/4", "1/2"])
    exprs = m2n3_rates(mu.mu)
    for vec, expr in zip(M2N3_SEQUENCES, exprs):
        assert achievable_rate(derive_groups(2, 3, vec), mu) == expr


def test_n2_closed_form_matches_leading_singles_sequences():
    for M in range(2, 7):
        for s2 in range(1, M):
            vec = (1,) * s2 + (2,) * (M - s2)
            g = derive_groups(M, 2, vec)
            assert n2_rate_formula(M, s2, WORKED_MU.mu) == achievable_rate(g, WORKED_MU), (M, s2)


def test_n2_closed_form_matches_independent_formula():
    # s2 = 0 extends the formula by the seed-factor convention (it is not the
    # rate of (2, ..., 2)); the best scheme does at least as well, and at the
    # worked profile the family's best member is the best scheme's rate
    for M in range(2, 7):
        rates = [n2_rate_formula(M, s2, WORKED_MU.mu) for s2 in range(M)]
        best = best_scheme(M, 2, WORKED_MU)[1]
        assert rates[0] <= best, M
        assert max(rates) == best, M


def test_rate_monotone_in_eavesdropping():
    g = derive_groups(3, 2, (1, 2, 2))
    weaker = achievable_rate(g, EavesdropProfile(["1/8", "1/4"]))
    stronger = achievable_rate(g, EavesdropProfile(["1/4", "1/2"]))
    assert weaker > stronger


# the five eavesdropping profiles of the lp-ladder benchmark workload (N = 4)
# and the eleven of the retrieve workload (M = 5, N = 3)
LADDER_FAMILY = (("0", "1/9", "2/9", "1/3"), ("1/12", "1/3", "5/12", "2/3"), ("0", "1/2", "7/12", "3/4"),
                 ("1/6", "1/4", "1/2", "1/2"), ("1/12", "1/6", "1/3", "1/2"))
RETRIEVE_FAMILY = (("0", "0", "3/8"), ("1/4", "3/8", "3/4"), ("2/5", "2/5", "7/10"),
                   ("1/12", "1/6", "3/4"), ("0", "3/8", "1/2"), ("0", "1/2", "1/2"),
                   ("1/2", "1/2", "1/2"), ("0", "1/4", "1/2"), ("0", "5/12", "3/4"),
                   ("1/2", "1/2", "2/3"), ("1/4", "1/4", "3/8"))


def _scheme_digest() -> str:
    shapes = [(M, 4, EavesdropProfile(mu)) for mu in LADDER_FAMILY for M in (5, 6, 7)]
    shapes += [(5, 3, EavesdropProfile(mu)) for mu in RETRIEVE_FAMILY]
    rng = random.Random(53)
    for M in range(1, 7):
        for N in range(1, 5):
            for den in (12, 7):
                shapes.append((M, N, EavesdropProfile(sorted(Fraction(rng.randrange(den), den) for _ in range(N)))))
    h = hashlib.sha256()
    for M, N, mu in shapes:
        for g in enumerate_sequences(M, N):
            dims = repetition_factor(g, mu)
            h.update(repr((
                g.n, tuple(map(str, mu.mu)), str(achievable_rate(g, mu)),
                dims.D, dims.L_per_rep, dims.nu, dims.t, dims.key_len,
                tuple(map(str, traffic_vector(g))),
            )).encode() + b"\n")
        best, rate = best_scheme(M, N, mu)
        h.update(repr((M, N, best.n, str(rate))).encode() + b"\n")
    return h.hexdigest()[:16]


def test_scheme_results_match_golden_digest():
    # every scheme rate, dimension and traffic share, and every best scheme,
    # pinned bit for bit: a change to how rates or dimensions are computed
    # must not move any of them, and neither may the memo of the dimensions
    plan_dimensions_per_rep.cache_clear()
    assert _scheme_digest() == "ed3dba7dcbbd45bf"
    misses = plan_dimensions_per_rep.cache_info().misses
    assert _scheme_digest() == "ed3dba7dcbbd45bf"
    assert plan_dimensions_per_rep.cache_info().misses == misses
