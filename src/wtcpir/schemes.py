"""Achievable retrieval schemes: group sequences, stage-count difference
equations, plan dimensions, repetition factors, and rate formulas.

A scheme is indexed by a monotone non-decreasing sequence
``n = (n_0, ..., n_{M-1})`` with entries in ``{1..N}``: in round ``k`` the
user downloads sums of ``k`` message symbols, and ``n_{k-1}`` databases
participate from round ``k`` onward.  Databases ``n_{l-1}+1 .. n_l`` form
*group* ``l`` for each ``l`` in the group set ``S``; all databases in a
group behave symmetrically.

The number of *stages* (complete sweeps over all k-subsets of messages)
that group ``l`` runs in round ``k`` is ``y_l[k]``, governed by a linear
difference equation system.  Everything downstream — download counts,
message length, repetition factor, answer lengths, key lengths, and the
exact rational rate — is derived from these counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb, gcd, lcm, prod
from typing import Iterator, Sequence, Union

from .fieldmath import parse_rational

# All rates, traffic shares, and eavesdropping ratios in this package are
# exact rationals; floats are rejected at the boundary.
RationalLike = Union[int, Fraction, str]

_SEQUENCE_BUDGET = 500_000  # cap on the sequences or schemes one search enumerates


class EnumerationBudgetError(ValueError):
    """Raised when a bound or scheme search would enumerate too many objects."""


def check_enumeration_budget(formula: str, count: int, things: str) -> None:
    """Refuse, before it starts, a search over ``count`` objects (counted
    by ``formula``) beyond ``_SEQUENCE_BUDGET``."""
    if count > _SEQUENCE_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration too large: {formula} = {count} {things} exceeds the "
            f"budget of {_SEQUENCE_BUDGET}"
        )


def as_fraction(value: RationalLike) -> Fraction:
    """Convert to an exact Fraction, rejecting floats outright; a string
    goes through ``parse_rational``."""
    if isinstance(value, float):
        raise TypeError(
            f"floating-point value {value!r} not accepted; pass an exact "
            "rational such as Fraction(1, 3) or the string '1/3'"
        )
    return parse_rational(value) if isinstance(value, str) else Fraction(value)


# ---------------------------------------------------------------------------
# Core domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EavesdropProfile:
    """Per-database eavesdropping ratios mu_1 <= ... <= mu_N, each in [0, 1).

    The sort order is a modelling convention: database 1 is always the
    least-observed one.  Ratios must be exact rationals.

    Derived on construction: the secrecy margins 1 - mu_d in primitive
    integer form, 1 - mu_d = ``margin[d-1] / margin_den``.  ``margin_den``
    is the lcm of the mu denominators and every margin is positive.  The
    form is primitive, gcd(margin_den, *margin) = 1: at the coordinate
    whose denominator holds the highest power of a prime p, neither factor
    of the margin is divisible by p.
    """

    mu: tuple[Fraction, ...]
    margin: tuple[int, ...] = field(init=False, compare=False, repr=False)
    margin_den: int = field(init=False, compare=False, repr=False)

    def __init__(self, mu: Sequence[RationalLike]) -> None:
        values = tuple(as_fraction(m) for m in mu)
        if not values:
            raise ValueError("profile needs at least one database")
        for m in values:
            if not 0 <= m < 1:
                raise ValueError(f"eavesdropping ratio {m} outside [0, 1)")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError(
                f"ratios must be sorted ascending, got {tuple(str(m) for m in values)}"
            )
        den = lcm(*(m.denominator for m in values))
        object.__setattr__(self, "mu", values)
        object.__setattr__(self, "margin", tuple(
            (m.denominator - m.numerator) * (den // m.denominator) for m in values
        ))
        object.__setattr__(self, "margin_den", den)

    @property
    def N(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class GroupSequence:
    """A monotone scheme index n = (n_0, ..., n_{M-1}) over N databases.

    Derived on construction:

    - ``S``: the group set {i >= 0 : n_i - n_{i-1} > 0} with n_{-1} = 0.
      Group ``l`` covers databases n_{l-1}+1 .. n_l; index 0 is always
      present.
    - ``xi``: per-group impulse weights, xi_l = (prod over s in S of f_s)
      // f_l, with the seed factor f_s = binom(M-2, s-1) for s >= 1 and
      f_0 = 1.  The division is exact, as every f_s >= 1.
    """

    n: tuple[int, ...]
    N: int
    S: tuple[int, ...] = field(init=False, compare=False)
    xi: dict[int, int] = field(init=False, compare=False, repr=False)

    def __init__(self, n: Sequence[int], N: int) -> None:
        vec = tuple(n)
        for i, v in enumerate(vec, start=1):
            # exact type, as bool is an int subclass; converting would
            # silently read 1.5 as 1 and "2" as 2
            if type(v) is not int:
                raise TypeError(f"sequence entry {i} must be an int, got {v!r}")
        if not vec:
            raise ValueError("sequence must have at least one entry")
        if N < 1:
            raise ValueError(f"need at least one database, got N={N}")
        if vec[0] < 1 or vec[-1] > N:
            raise ValueError(f"entries must lie in 1..{N}, got {vec}")
        if any(a > b for a, b in zip(vec, vec[1:])):
            raise ValueError(f"sequence must be non-decreasing, got {vec}")
        object.__setattr__(self, "n", vec)
        object.__setattr__(self, "N", N)
        M = len(vec)
        prev = 0
        groups = []
        for i, v in enumerate(vec):
            if v - prev > 0:
                groups.append(i)
            prev = v
        S = tuple(groups)
        # f_0 := 1, forced by the worked schemes: a first group of singles
        # always contributes one sweep, not zero
        factors = {s: comb(M - 2, s - 1) if s else 1 for s in S}
        product = prod(factors.values())
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "xi", {l: product // f for l, f in factors.items()})

    @property
    def M(self) -> int:
        return len(self.n)

    def width(self, l: int) -> int:
        """Number of databases in group l: n_l - n_{l-1}."""
        return len(self.databases_in_group(l))

    def group_of(self, db: int) -> int | None:
        """Group index for 1-based database db, or None if db is inactive."""
        if not 1 <= db <= self.N:
            raise ValueError(f"database index {db} out of range 1..{self.N}")
        return next((l for l in self.S if db in self.databases_in_group(l)), None)

    def databases_in_group(self, l: int) -> range:
        """1-based databases covered by group l."""
        prev = 0 if l == 0 else self.n[l - 1]
        return range(prev + 1, self.n[l] + 1)

    @property
    def active_databases(self) -> range:
        """1-based databases that participate at all (1 .. n_{M-1})."""
        return range(1, self.n[-1] + 1)


def derive_groups(M: int, N: int, vector: Sequence[int]) -> GroupSequence:
    """Validate a scheme index vector and derive its group structure."""
    if len(vector) != M:
        raise ValueError(f"vector length {len(vector)} != M={M}")
    return GroupSequence(vector, N)


@dataclass(frozen=True)
class StageCounts:
    """Stage counts y_l[k] for l in S, k in 1..M (zero elsewhere)."""

    y: dict[tuple[int, int], int]

    def of(self, l: int, k: int) -> int:
        return self.y.get((l, k), 0)

    def row(self, l: int, M: int) -> tuple[int, ...]:
        """The counts (y_l[1], ..., y_l[M]) for one group."""
        return tuple(self.of(l, k) for k in range(1, M + 1))


@cache
def stage_counts(g: GroupSequence) -> StageCounts:
    """Solve the stage-count difference equations for a group sequence.

    For k >= 2 and each group l in S with l < k, every stage of round k-1
    at every other database feeds one stage:

        y_l[k] = total_k - y_l[k-1] + n_0 * xi_l [impulse: l >= 2, k = l+1],
        total_k = sum over groups j of width(j) * y_j[k-1],

    which is the paper's (width(l) - 1) * y_l[k-1] + sum over j != l of
    width(j) * y_j[k-1], plus the impulse.  The seed is y_0[1] = xi_0, the
    full seed-factor product, as f_0 = 1.  The initial conditions
    y_j[k] = 0 for k <= j take precedence over the recurrence: group j only
    starts producing stages in round j + 1.  Memoised, like
    ``plan_dimensions_per_rep``: the counts depend on the sequence alone.
    """
    M = g.M
    y: dict[tuple[int, int], int] = {(l, k): 0 for l in g.S for k in range(1, M + 1)}
    y[(0, 1)] = g.xi[0]
    for k in range(2, M + 1):
        total = sum(g.width(j) * y[(j, k - 1)] for j in g.S)
        for l in g.S:
            if k > l:  # else the initial condition wins over the recurrence
                impulse = g.n[0] * g.xi[l] if l >= 2 and k == l + 1 else 0
                y[(l, k)] = total - y[(l, k - 1)] + impulse
    return StageCounts(y=y)


# ---------------------------------------------------------------------------
# Dimensions, repetition, traffic, rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanDimensions:
    """Exact sizing of a scheme against an eavesdropping profile.

    ``D[n-1]`` meaningful downloads per repetition from database n,
    ``L_per_rep`` desired symbols recovered per repetition, ``nu``
    repetitions, ``t[n-1]`` total answer length (meaningful + noise), and
    ``key_len[n-1]`` noise-key symbols, with t_n = nu*D_n + key_len_n.
    """

    D: tuple[int, ...]
    L_per_rep: int
    nu: int
    t: tuple[int, ...]
    key_len: tuple[int, ...]

    @property
    def L(self) -> int:
        """Total message length nu * L_per_rep."""
        return self.nu * self.L_per_rep


@cache
def plan_dimensions_per_rep(g: GroupSequence) -> tuple[tuple[int, ...], int]:
    """Per-repetition download counts D_n and desired-symbol count L.

    D_n = sum_k binom(M, k) * y_l[k] for database n in group l (each stage
    in round k downloads all binom(M, k) k-sums once);
    L = sum over groups and rounds of binom(M-1, k-1) * y_l[k] * width(l)
    (the k-sums containing the desired message, over the whole group).

    Both depend on the sequence alone, not on mu, so each sequence is
    computed once and memoised: at most binom(M+N-1, M) entries per shape.
    """
    sc = stage_counts(g)
    M = g.M
    d_group = {
        l: sum(comb(M, k) * sc.of(l, k) for k in range(1, M + 1)) for l in g.S
    }
    D = tuple(d_group.get(g.group_of(db), 0) for db in range(1, g.N + 1))
    L = sum(
        comb(M - 1, k - 1) * sc.of(l, k) * g.width(l)
        for l in g.S
        for k in range(1, M + 1)
    )
    return D, L


def repetition_factor(g: GroupSequence, mu: EavesdropProfile) -> PlanDimensions:
    """Smallest repetition count making all answer lengths integral.

    Database n answers t_n = nu * D_n / (1 - mu_n) symbols; nu is the least
    positive integer making every t_n an integer.  With the profile's
    margins, 1 - mu_n = margin_n / margin_den, so t_n = nu * D_n *
    margin_den / margin_n, and nu is the lcm over active n of
    margin_n / gcd(margin_n, D_n * margin_den).  The key length
    mu_n * t_n = t_n - nu * D_n is then automatically integral.  Databases
    with D_n = 0 are deactivated: t_n = 0, no key.
    """
    if mu.N != g.N:
        raise ValueError(f"profile covers {mu.N} databases, sequence expects {g.N}")
    D, L_per_rep = plan_dimensions_per_rep(g)
    scaled = [d * mu.margin_den for d in D]
    nu = lcm(*(m // gcd(m, s) for m, s in zip(mu.margin, scaled) if s))
    t = tuple(nu * s // m for m, s in zip(mu.margin, scaled))
    key_len = tuple(tv - nu * dv for tv, dv in zip(t, D))
    return PlanDimensions(D=D, L_per_rep=L_per_rep, nu=nu, t=t, key_len=key_len)


def traffic_vector(g: GroupSequence) -> tuple[Fraction, ...]:
    """Meaningful-download shares tau_n = D_n / sum_m D_m (sum to 1)."""
    D, _ = plan_dimensions_per_rep(g)
    total = sum(D)
    return tuple(Fraction(d, total) for d in D)


def achievable_rate(g: GroupSequence, mu: EavesdropProfile) -> Fraction:
    """Exact rate of the scheme: desired symbols over total download.

    R = L_per_rep / sum over active databases n of D_n / (1 - mu_n).  With
    the profile's margins and c the lcm of the active margins, that is
    L_per_rep * c / (margin_den * sum_n D_n * (c / margin_n)), one
    integer fraction.
    """
    if mu.N != g.N:
        raise ValueError(f"profile covers {mu.N} databases, sequence expects {g.N}")
    D, L_per_rep = plan_dimensions_per_rep(g)
    c = lcm(*(m for m, d in zip(mu.margin, D) if d))
    return Fraction(L_per_rep * c, mu.margin_den * sum(d * (c // m) for m, d in zip(mu.margin, D)))


def enumerate_sequences(M: int, N: int) -> Iterator[GroupSequence]:
    """All binom(M+N-1, M) monotone sequences, in lexicographic order."""
    for vec in combinations_with_replacement(range(1, N + 1), M):
        yield GroupSequence(vec, N)


def best_scheme(M: int, N: int, mu: EavesdropProfile) -> tuple[GroupSequence, Fraction]:
    """Exhaustive maximization of the achievable rate over all sequences.

    Ties go to the lexicographically smallest sequence (the enumeration
    order), which keeps results deterministic.  Raises
    ``EnumerationBudgetError``, before enumerating, if the C(M+N-1, M)
    sequences exceed ``_SEQUENCE_BUDGET``.
    """
    if M < 1 or N < 1:
        raise ValueError("need M >= 1 and N >= 1")
    if mu.N != N:
        raise ValueError(f"profile covers {mu.N} databases, expected {N}")
    check_enumeration_budget("C(M+N-1, M)", comb(M + N - 1, M), "schemes")
    rate = {g: achievable_rate(g, mu) for g in enumerate_sequences(M, N)}
    best = max(rate, key=rate.get)  # the first of equal maxima
    return best, rate[best]

