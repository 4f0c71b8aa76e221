"""Exact field arithmetic, rank computation, and the noise code."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from wtcpir.fieldmath import (
    MdsCode,
    is_prime,
    mat_rank,
    mat_solve,
    mds_generator,
    parse_rational,
    smallest_prime_at_least,
)

from oracles import rank_gf, vandermonde


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


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
