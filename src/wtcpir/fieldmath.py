"""Exact arithmetic primitives: prime fields GF(q), Vandermonde MDS codes,
and rational helpers.

Everything in this module is exact.  Field elements are plain ints in
[0, q) with an explicit prime modulus, matrices are lists of row lists,
and rationals are ``fractions.Fraction``.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# Primes and rationals
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division; moduli here are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def smallest_prime_at_least(n: int) -> int:
    """Return the smallest prime p with p >= n."""
    p = max(2, n)
    while not is_prime(p):
        p += 1
    return p


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from a string.

    Accepts "p/q" fractions and terminating decimals ("0.25"); both are
    converted exactly.  Float objects are deliberately not accepted anywhere
    in this package — exactness of the downstream integrality arguments
    depends on it.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


# ---------------------------------------------------------------------------
# Prime-field scalar arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeField:
    """Arithmetic over GF(q) for prime q, elements as ints in [0, q)."""

    q: int

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"field modulus must be prime, got {self.q}")

    def element(self, a: int) -> int:
        return a % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return pow(a, -1, self.q)

    def pow(self, a: int, e: int) -> int:
        return pow(a % self.q, e, self.q)


# ---------------------------------------------------------------------------
# Exact linear algebra over GF(q)
# ---------------------------------------------------------------------------

def mat_rank(rows: Sequence[Sequence[int]], q: int) -> int:
    """Exact rank of a matrix over GF(q) via Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_cols = len(m[0])
    rank = 0
    col = 0
    while rank < len(m) and col < n_cols:
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] % q != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, q)
        m[rank] = [(v * inv) % q for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] % q != 0:
                f = m[r][col]
                m[r] = [(a - f * b) % q for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def submatrix_rank(matrix: Sequence[Sequence[int]], row_set: Iterable[int], q: int) -> int:
    """Rank over GF(q) of the rows of ``matrix`` selected by ``row_set``.

    Row indices are 0-based; out-of-range indices raise ``IndexError``.
    """
    rows = []
    n = len(matrix)
    for i in row_set:
        if not 0 <= i < n:
            raise IndexError(f"row index {i} out of range for {n}-row matrix")
        rows.append(matrix[i])
    return mat_rank(rows, q)


def mat_solve(a: Sequence[Sequence[int]], b: Sequence[int], q: int) -> list[int]:
    """Solve the square system a·x = b over GF(q).

    Raises ``ValueError`` if the matrix is singular.
    """
    n = len(a)
    aug = [list(row) + [bv % q] for row, bv in zip(a, b)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col] % q != 0:
                pivot = r
                break
        if pivot is None:
            raise ValueError("singular system over GF(q)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, q)
        aug[col] = [(v * inv) % q for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] % q != 0:
                f = aug[r][col]
                aug[r] = [(x - f * y) % q for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] % q for i in range(n)]


def mat_vec(a: Sequence[Sequence[int]], x: Sequence[int], q: int) -> list[int]:
    """Matrix-vector product over GF(q)."""
    return [sum(r * v for r, v in zip(row, x)) % q for row in a]


# ---------------------------------------------------------------------------
# Vandermonde MDS codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MdsCode:
    """A (t, k) MDS code over GF(q) with a Vandermonde generator.

    ``generator`` is t×k with rows (1, α_i, α_i², …, α_i^{k-1}) for distinct
    evaluation points α_i, so every k×k row submatrix is a Vandermonde minor
    and therefore invertible: any k codeword symbols determine the key.
    """

    t: int
    k: int
    q: int
    eval_points: tuple[int, ...]
    generator: tuple[tuple[int, ...], ...] = field(repr=False)

    def encode(self, key: Sequence[int]) -> list[int]:
        if len(key) != self.k:
            raise ValueError(f"key length {len(key)} != k={self.k}")
        return mat_vec(self.generator, key, self.q)


def check_evaluation_points(t: int, q: int) -> None:
    """Raise ``ValueError`` unless GF(q) is a prime field with t ≤ q, so
    the t evaluation points α_i = i+1 (i = 0..t-1) are distinct mod q."""
    if not is_prime(q):
        raise ValueError(f"field modulus must be prime, got {q}")
    if t > q:
        raise ValueError(f"field too small: t={t} > q={q}; pick a larger field")


def mds_generator(t: int, k: int, q: int) -> MdsCode:
    """Build the (t, k) Vandermonde MDS code over GF(q).

    Evaluation points are α_i = i+1 for i = 0..t-1, which are distinct mod q
    whenever t ≤ q; hence the precondition k ≤ t ≤ q.
    """
    check_evaluation_points(t, q)
    if not 0 <= k <= t:
        raise ValueError(f"need 0 <= k <= t, got k={k}, t={t}")
    points = tuple((i + 1) % q for i in range(t))
    gen = tuple(tuple(pow(a, j, q) for j in range(k)) for a in points)
    return MdsCode(t=t, k=k, q=q, eval_points=points, generator=gen)


def mds_encode(code: MdsCode, key: Sequence[int]) -> list[int]:
    """Encode a length-k key into the full length-t noise vector u = G·key."""
    return code.encode(key)


def mds_decode_from(code: MdsCode, positions: Sequence[int], values: Sequence[int]) -> list[int]:
    """Recover the key from any k codeword positions (0-based) and values."""
    if len(positions) != code.k or len(values) != code.k:
        raise ValueError(f"need exactly k={code.k} positions and values")
    sub = [code.generator[p] for p in positions]
    return mat_solve(sub, values, code.q)
