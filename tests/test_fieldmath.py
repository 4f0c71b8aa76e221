"""Exact field arithmetic, rank computation, and the noise code."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from wtcpir.fieldmath import (
    MdsCode,
    check_evaluation_points,
    is_prime,
    mat_rank,
    mat_solve,
    mat_vec,
    mds_generator,
    parse_rational,
    smallest_prime_at_least,
)

from oracles import gauss_jordan_solve, rank_gf, trial_division_prime, vandermonde


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_trial_division():
    for n in range(10 ** 5):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2..23
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert 3215031751 == 151 * 751 * 28351
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    assert is_prime(1000000000000000003) and is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)


def test_field_modulus_below_two_to_the_64():
    check_evaluation_points(3, 2 ** 64 - 59)
    # 2**64 + 13 is prime, and still refused
    with pytest.raises(ValueError, match="field modulus too large"):
        check_evaluation_points(3, 2 ** 64 + 13)
    with pytest.raises(ValueError, match="field modulus too large"):
        check_evaluation_points(3, 2 ** 64)


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(2) == 2
    assert smallest_prime_at_least(18) == 19
    assert smallest_prime_at_least(19) == 19
    assert smallest_prime_at_least(20) == 23
    assert smallest_prime_at_least(90) == 97


def test_parse_rational_accepts_exact_text():
    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("0") == 0
    assert parse_rational(" 3/7 ") == Fraction(3, 7)


def test_parse_rational_rejects_junk():
    for bad in ["", "abc", "1/0", "1//2", "nan", "inf"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_mat_rank_matches_independent_oracle():
    rng = random.Random(3)
    for _ in range(50):
        rows = [[rng.randrange(11) for _ in range(4)] for _ in range(rng.randrange(1, 6))]
        assert mat_rank(rows, 11) == rank_gf(rows, 11)


def test_mat_rank_repeated_rows():
    rows = [[1, 2, 3], [1, 2, 3], [0, 1, 1]]
    assert mat_rank(rows, 7) == 2
    # entries outside [0, q) are reduced: -1 = 6 and 8 = 1 mod 7
    assert mat_rank([[-1, 8], [6, 1]], 7) == 1


def test_mat_solve_round_trip_and_singular():
    a = [[2, 1], [1, 3]]
    x = [4, 5]
    q = 11
    b = [(2 * 4 + 1 * 5) % q, (1 * 4 + 3 * 5) % q]
    assert mat_solve(a, b, q) == x
    with pytest.raises(ValueError, match="singular"):
        mat_solve([[1, 2], [2, 4]], [1, 2], 11)


PRIMES = (2, 3, 11, 137, 541)


def test_mat_solve_matches_gauss_jordan_oracle():
    # random systems; the singular draws (common over GF(2)) must raise in both
    rng = random.Random(17)
    cases = [(q, n) for q in PRIMES for n in range(13)] + [(137, 40), (541, 40), (137, 80)]
    for q, n in cases:
        while True:
            a = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            b = [rng.randrange(q) for _ in range(n)]
            try:
                want = gauss_jordan_solve(a, b, q)
            except ValueError:
                with pytest.raises(ValueError, match="singular"):
                    mat_solve(a, b, q)
                continue
            break
        x = mat_solve(a, b, q)
        assert x == want, (q, n)
        assert mat_vec(a, x, q) == b
    assert mat_solve([], [], 7) == []


def test_planted_singular_systems_raise():
    rng = random.Random(19)
    for q in PRIMES:
        for n in (2, 5, 12):
            a = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            b = [rng.randrange(q) for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            repeated = [list(row) for row in a]
            repeated[j] = list(a[i])
            # row j becomes a combination of the others, left unreduced
            combined = [list(row) for row in a]
            coeffs = [rng.randrange(-q, 2 * q) for _ in range(n)]
            combined[j] = [sum(c * row[k] for c, row in zip(coeffs, a) if row is not a[j]) for k in range(n)]
            zero_column = [row[:i] + [0] + row[i + 1:] for row in a]
            for m in (repeated, combined, zero_column):
                for solve in (mat_solve, gauss_jordan_solve):
                    with pytest.raises(ValueError, match="singular"):
                        solve(m, b, q)


def test_mat_solve_reduces_entries_outside_the_field():
    rng = random.Random(23)
    for q in PRIMES:
        for n in (1, 4, 9):
            while True:
                a = [[rng.randrange(-3 * q, 3 * q) for _ in range(n)] for _ in range(n)]
                if rank_gf([[v % q for v in row] for row in a], q) == n:
                    break
            b = [rng.randrange(-3 * q, 3 * q) for _ in range(n)]
            x = mat_solve(a, b, q)
            assert x == gauss_jordan_solve(a, b, q)
            assert x == mat_solve([[v % q for v in row] for row in a], [v % q for v in b], q)
            assert all(0 <= v < q for v in x)


@pytest.mark.parametrize(
    "rows, cols, rank",
    [(12, 5, 3), (4, 15, 2), (8, 8, 8), (7, 9, 0), (0, 5, 0), (6, 0, 0)],
    ids=["tall", "wide", "square", "zero-matrix", "zero-row", "zero-column"],
)
def test_mat_rank_matches_oracle_on_planted_rank(rows, cols, rank):
    # A = B.C with B rows x rank and C rank x cols has rank at most `rank`
    rng = random.Random(rows * 100 + cols)
    for q in PRIMES:
        b = [[rng.randrange(q) for _ in range(rank)] for _ in range(rows)]
        c = [[rng.randrange(q) for _ in range(cols)] for _ in range(rank)]
        a = [[sum(x * c[k][j] for k, x in enumerate(row)) - q * rng.randrange(-2, 3) for j in range(cols)] for row in b]
        assert mat_rank(a, q) == rank_gf(a, q) <= rank, q
    assert mat_rank([], 7) == 0


def test_generator_matches_hand_vandermonde():
    code = mds_generator(4, 2, 7)
    assert [list(r) for r in code.generator] == vandermonde(4, 2, 7)
    assert code.eval_points == (1, 2, 3, 4)


def test_encode_golden_and_zero_key():
    code = mds_generator(4, 2, 7)
    assert code.encode((2, 3)) == [5, 1, 4, 0]
    assert code.encode((0, 0)) == [0, 0, 0, 0]
    empty = mds_generator(3, 0, 7)
    assert empty.encode(()) == [0, 0, 0]


def test_decode_from_any_positions():
    # any k codeword symbols determine the key: solve the generator rows
    code = mds_generator(4, 2, 7)
    word = code.encode((2, 3))
    assert mat_solve([code.generator[2], code.generator[3]], [word[2], word[3]], 7) == [2, 3]
    rng = random.Random(5)
    big = mds_generator(12, 5, 13)
    for _ in range(20):
        key = tuple(rng.randrange(13) for _ in range(5))
        word = big.encode(key)
        pos = sorted(rng.sample(range(12), 5))
        rows = [big.generator[p] for p in pos]
        assert tuple(mat_solve(rows, [word[p] for p in pos], 13)) == key


def test_every_square_submatrix_invertible():
    # the defining MDS property, checked exhaustively on a small code
    code = mds_generator(8, 3, 11)
    for pos in combinations(range(8), 3):
        rows = [list(code.generator[p]) for p in pos]
        assert mat_rank(rows, 11) == 3


def test_generator_errors():
    with pytest.raises(ValueError, match="prime"):
        mds_generator(4, 2, 8)
    with pytest.raises(ValueError):
        mds_generator(4, 5, 7)
    with pytest.raises(ValueError, match="field too small"):
        mds_generator(11, 2, 7)
    # memoised codes are shared, but invalid arguments raise on every call
    assert mds_generator(4, 2, 7) is mds_generator(4, 2, 7)
    with pytest.raises(ValueError, match="prime"):
        mds_generator(4, 2, 8)


def test_code_is_frozen_dataclass():
    code = mds_generator(4, 2, 7)
    assert isinstance(code, MdsCode)
    with pytest.raises(AttributeError):
        code.t = 9
