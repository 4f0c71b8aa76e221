"""Exact arithmetic primitives: prime fields GF(q), one forward-elimination
kernel over GF(q) shared by rank and solve, Vandermonde MDS codes, and
rational helpers.

Everything in this module is exact.  Field elements are plain ints in
[0, q) with an explicit prime modulus, matrices are lists of row lists,
and rationals are ``fractions.Fraction``.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterator, Sequence


# ---------------------------------------------------------------------------
# Primes and rationals
# ---------------------------------------------------------------------------

#: The first twelve primes.  Miller-Rabin to these bases is exact for every
#: n < 318 665 857 834 031 151 167 461, the least strong pseudoprime to all
#: of them (Sorenson and Webster, "Strong pseudoprimes to twelve prime
#: bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: Field moduli must lie below this bound, so ``is_prime`` judges each
#: one exactly.
MAX_FIELD_MODULUS = 2 ** 64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test over the bases
    ``_MR_BASES``; exact for n < 3.18·10^23, which covers every field
    modulus below ``MAX_FIELD_MODULUS``."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
# Exact linear algebra over GF(q): one forward-elimination kernel
# ---------------------------------------------------------------------------

def _pack(row: Sequence[int], w: int) -> int:
    """``row`` as one int, a slot of ``w`` bits per entry, the first lowest."""
    x = 0
    for v in reversed(row):
        x = x << w | v
    return x


def _slot_width(n: int, q: int) -> int:
    """Bits per slot of a packed row that never carries while it sums an
    entry below q and at most n products below (q−1)²: the W of
    ``_echelon`` over n rows, and of ``mat_solve``'s back-substitution."""
    return (q - 1 + n * (q - 1) ** 2).bit_length()


def _echelon(m: list[list[int]], q: int) -> Iterator[tuple[int, list[int]]]:
    """Forward elimination over GF(q) of the rows ``m`` (entries in [0, q)).
    For each pivot column ``c``, in order, yield ``(c, tail)``: the pivot
    row right of ``c``, scaled so that its entry in ``c`` is 1.  The pivot
    is the first remaining row nonzero in ``c``.  Each row is one int with
    a W-bit slot per column (``_pack``), the current column lowest, each
    slot an unreduced entry, so an update is one multiply-add,
    ``(r >> W) + (q − f)·tail``.  No slot carries: it starts below q and
    gains at most (q−1)² from each of at most n−1 other pivots, so it stays
    below 2^W > q−1 + n·(q−1)², where n = len(m).
    """
    w = _slot_width(len(m), q)
    mask = (1 << w) - 1
    rows = [_pack(r, w) for r in m]
    width = len(m[0]) if m else 0
    for c in range(width):
        i = next((i for i, r in enumerate(rows) if (r & mask) % q), None)
        if i is None:
            rows = [r >> w for r in rows]
            continue
        p, rows[i] = rows[i], rows[0]
        inv = pow(p & mask, -1, q)
        tail = [(p >> s & mask) * inv % q for s in range(w, w * (width - c), w)]
        packed = _pack(tail, w)
        rows = [(r >> w) + (q - f) * packed if (f := (r & mask) % q) else r >> w
                for r in rows[1:]]
        yield c, tail


def mat_rank(rows: Sequence[Sequence[int]], q: int) -> int:
    """Exact rank of a matrix over GF(q): the pivot count of ``_echelon``."""
    return sum(1 for _ in _echelon([[v % q for v in row] for row in rows], q))


def mat_solve(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], q: int) -> list[list[int]]:
    """Solve a·X = B over GF(q) for a square n×n matrix ``a`` and any
    number r of right-hand sides: ``b`` and the result are n×r row lists,
    so one system passes one column, ``[[b_1], …, [b_n]]``.

    One forward elimination of the augmented matrix [a | B] serves every
    column.  Back-substitution then runs over its pivot rows with each
    solved row of X packed into one int (``_pack``), so a pivot's update
    of all r columns is one multiply-add per later unknown.  A slot sums
    at most n−1 products below (q−1)², which fits the slot width of
    ``_echelon`` over these n rows: that width depends on the row count
    alone, so more columns need no wider slots.

    Raises ``ValueError`` if the matrix is singular, whatever r is.
    """
    n = len(a)
    aug = [[v % q for v in row] + [v % q for v in rhs] for row, rhs in zip(a, b)]
    # pivot columns increase, so n pivots left of the right-hand sides
    # means one in every column
    tails = [tail for c, tail in _echelon(aug, q) if c < n]
    if len(tails) != n:
        raise ValueError("singular system")
    w = _slot_width(n, q)
    mask = (1 << w) - 1
    x: list[list[int]] = []
    packed: list[int] = []
    for k, tail in enumerate(reversed(tails)):
        # tail = (coefficients of the k later unknowns, right-hand sides)
        s = sum(map(mul, tail, packed))
        row = [(v - (s >> j * w & mask)) % q for j, v in enumerate(tail[k:])]
        x.insert(0, row)
        packed.insert(0, _pack(row, w))
    return x


# ---------------------------------------------------------------------------
# Vandermonde MDS codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MdsCode:
    """A (t, k) MDS code over GF(q) with a Vandermonde generator.

    ``generator`` is t×k with rows (1, α_i, α_i², …, α_i^{k-1}) for distinct
    evaluation points α_i, so every k×k row submatrix is a Vandermonde minor
    and therefore invertible: any k symbols of a key's codeword,
    ``generator · key``, determine the key.
    """

    t: int
    k: int
    q: int
    eval_points: tuple[int, ...]
    generator: tuple[tuple[int, ...], ...] = field(repr=False)


def check_evaluation_points(t: int, q: int) -> None:
    """Raise ``ValueError`` unless GF(q) is a prime field with t ≤ q, so
    the t evaluation points α_i = i+1 (i = 0..t-1) are distinct mod q, and
    q < ``MAX_FIELD_MODULUS``, so its primality is decided exactly."""
    if q >= MAX_FIELD_MODULUS:
        raise ValueError(f"field modulus too large: q={q}, must be below 2**64")
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
    gen = []
    for a in points:  # running powers: one multiply-mod per entry
        row, x = [], 1
        for _ in range(k):
            row.append(x)
            x = x * a % q
        gen.append(tuple(row))
    return MdsCode(t=t, k=k, q=q, eval_points=points, generator=tuple(gen))
