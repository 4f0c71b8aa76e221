"""Exact arithmetic primitives: prime fields GF(q), one Gauss-Jordan
elimination step over GF(q) shared by rank and solve, Vandermonde MDS
codes, and rational helpers.

Everything in this module is exact.  Field elements are plain ints in
[0, q) with an explicit prime modulus, matrices are lists of row lists,
and rationals are ``fractions.Fraction``.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


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
# Exact linear algebra over GF(q): one Gauss-Jordan step
# ---------------------------------------------------------------------------

def pivot(m: list[list[int]], r: int, c: int, q: int) -> None:
    """One in-place Gauss-Jordan step over GF(q): scale row ``r`` so that
    ``m[r][c] == 1``, then clear column ``c`` from every other row.

    Entries must already lie in [0, q), and stay there.  ``m[r][c]`` must
    be nonzero.
    """
    p = m[r][c]
    if p != 1:
        inv = pow(p, -1, q)
        m[r] = [v * inv % q for v in m[r]]
    row = m[r]
    for i, other in enumerate(m):
        f = other[c]
        if f and i != r:
            m[i] = [(a - f * b) % q for a, b in zip(other, row)]


def mat_rank(rows: Sequence[Sequence[int]], q: int) -> int:
    """Exact rank of a matrix over GF(q) via Gauss-Jordan elimination."""
    m = [[v % q for v in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        r = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if r is None:
            continue
        m[rank], m[r] = m[r], m[rank]
        pivot(m, rank, c, q)
        rank += 1
        if rank == len(m):
            break
    return rank


def mat_solve(a: Sequence[Sequence[int]], b: Sequence[int], q: int) -> list[int]:
    """Solve the square system a·x = b over GF(q).

    Raises ``ValueError`` if the matrix is singular.
    """
    n = len(a)
    aug = [[v % q for v in row] + [bv % q] for row, bv in zip(a, b)]
    for c in range(n):
        r = next((i for i in range(c, n) if aug[i][c]), None)
        if r is None:
            raise ValueError("singular system")
        aug[c], aug[r] = aug[r], aug[c]
        pivot(aug, c, c, q)
    return [row[n] for row in aug]


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


@lru_cache
def mds_generator(t: int, k: int, q: int) -> MdsCode:
    """Build the (t, k) Vandermonde MDS code over GF(q).

    Evaluation points are α_i = i+1 for i = 0..t-1, which are distinct mod q
    whenever t ≤ q; hence the precondition k ≤ t ≤ q.  Memoised: the code
    is a frozen value determined by (t, k, q), so every caller may share it.
    """
    check_evaluation_points(t, q)
    if not 0 <= k <= t:
        raise ValueError(f"need 0 <= k <= t, got k={k}, t={t}")
    points = tuple((i + 1) % q for i in range(t))
    gen = tuple(tuple(pow(a, j, q) for j in range(k)) for a in points)
    return MdsCode(t=t, k=k, q=q, eval_points=points, generator=gen)
