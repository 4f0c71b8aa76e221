"""Retrieval-capacity upper bounds via an exact rational linear program.

The bound has a max-min shape: an adversarial choice of a branching
sequence ``(n_1, ..., n_{M-1})`` in ``{1..N}^{M-1}`` drives the download
lower bound, and the defender picks the download-share vector ``tau`` on
the N-simplex.  Each sequence contributes one linear constraint
``R <= c(n) . tau``, so the whole thing is a small linear program in
``(tau, R)`` and can be solved exactly over rationals.

The LP is solved by delayed constraint generation around an exact
primal simplex (Bland's rule, on a fraction-free integer tableau).  The
restricted program only ever holds a handful of constraints; the
candidate optimum is certified by evaluating every sequence, so the
result is the exact optimum of the full program.
:func:`constraint_coefficients` gives each constraint in primitive
integer form, an integer vector over one positive denominator, so
deduplicating the pool, pricing a round and every simplex pivot are
exact integer arithmetic.

Every bound comes with both halves of its own certificate:

- the maximizing ``tau``, for which :func:`inner_bound_at` evaluates
  every sequence and shows that the LP reaches the value;
- the dual weights read off the final tableau, a convex combination of
  at most N sequence constraints.  Their combined coefficient vector is
  at most the value in every coordinate.  So :func:`outer_bound_at`
  shows that no ``tau`` does better, in at most N constraint
  evaluations and without trusting the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .schemes import (
    EavesdropProfile,
    RationalLike,
    as_fraction,
    best_scheme,
)

SequenceVector = tuple[int, ...]
Form = tuple[tuple[int, ...], int]  # (a, D): the coefficient vector a / D

_SEQUENCE_BUDGET = 500_000  # cap on N^(M-1) enumerated sequences


class EnumerationBudgetError(ValueError):
    """Raised when a bound computation would enumerate too many objects."""


@dataclass(frozen=True)
class BoundResult:
    """Exact LP optimum: the bound value, a maximizing download-share
    vector, every sequence whose constraint is tight there, and the dual
    weights: each support constraint's first sequence with its weight."""

    value: Fraction
    argmax_tau: tuple[Fraction, ...]
    active_sequences: tuple[SequenceVector, ...]
    dual_weights: tuple[tuple[SequenceVector, Fraction], ...]


# ---------------------------------------------------------------------------
# Constraint construction
# ---------------------------------------------------------------------------

def sequence_vectors(M: int, N: int) -> Iterator[SequenceVector]:
    """All N^(M-1) adversarial sequences, lexicographically."""
    return product(range(1, N + 1), repeat=M - 1)


def constraint_coefficients(n_vec: SequenceVector, mu: EavesdropProfile) -> Form:
    """Coefficients c with bound(n, tau) = c . tau, in primitive integer
    form (a, D): c = a / D with D > 0 and gcd(D, *a) = 1.  The form is
    canonical, so equal coefficient vectors get equal forms.

    With prefix products P_0 = 1, P_i = n_1 * ... * n_i and thresholds
    l_0 = 0, l_i = n_i, the bound for sequence n is

        [ phi(l_0)/P_0 + ... + phi(l_{M-1})/P_{M-1} ] / sum_i 1/P_i

    where phi(l) = sum_{d > l} (1 - mu_d) tau_d.  Collecting the tau_d
    terms gives c_d = (1 - mu_d) * (sum of 1/P_i over i with l_i < d)
    divided by the full 1/P_i sum.  Both sums are taken over the common
    denominator P_{M-1}, as integer sums of the weights P_{M-1}/P_i, and
    1 - mu_d is the profile's integer margin over its ``margin_den``; one
    gcd then makes the form primitive.
    """
    weight = 1
    by_threshold = [0] * (mu.N + 1)
    for v in reversed(n_vec):
        by_threshold[v] += weight
        weight *= v
    by_threshold[0] += weight
    a = list(map(mul, mu.margin, accumulate(by_threshold)))
    D = mu.margin_den * sum(by_threshold)
    g = gcd(D, *a)
    return tuple(v // g for v in a), D // g


def _cheapest(forms: Iterable[Form], t: Sequence[int]) -> tuple[int, int, int]:
    """The smallest a . t / D over the forms, as (a . t, D, index); the
    first such form on ties."""
    best_num, best_den, argmin = 1, 0, -1  # start at +infinity
    for i, (a, D) in enumerate(forms):
        num = sum(map(mul, a, t))
        if num * best_den < best_num * D:
            best_num, best_den, argmin = num, D, i
    return best_num, best_den, argmin


def inner_bound_at(tau: Sequence[RationalLike], mu: EavesdropProfile, M: int) -> Fraction:
    """Exact min over all N^(M-1) sequence constraints at a fixed tau."""
    tvec = tuple(as_fraction(v) for v in tau)
    if len(tvec) != mu.N:
        raise ValueError(f"tau has {len(tvec)} entries, profile has {mu.N}")
    if any(v < 0 for v in tvec) or sum(tvec) != 1:
        raise ValueError("tau outside the download-share simplex")
    T = lcm(*(v.denominator for v in tvec))
    t = [v.numerator * (T // v.denominator) for v in tvec]
    num, D, _ = _cheapest((constraint_coefficients(n_vec, mu) for n_vec in sequence_vectors(M, mu.N)), t)
    return Fraction(num, D * T)


def outer_bound_at(weights: Sequence[tuple[SequenceVector, RationalLike]], mu: EavesdropProfile) -> Fraction:
    """Exact max over d of (sum_j lambda_j c(n_j))_d for dual weights
    (n_j, lambda_j) on the simplex.

    By weak duality this bounds the LP from above for any such weights, so
    ``inner_bound_at(tau) <= LP <= outer_bound_at(weights)``, and equality
    of the two ends certifies the optimum.
    """
    lams = [as_fraction(w) for _, w in weights]
    if any(v < 0 for v in lams) or sum(lams) != 1:
        raise ValueError("dual weights outside the simplex")
    if len({len(n_vec) for n_vec, _ in weights}) != 1:
        raise ValueError("dual weights name sequences of unequal length")
    if any(not 1 <= v <= mu.N for n_vec, _ in weights for v in n_vec):
        raise ValueError(f"dual weights name a sequence entry outside 1..{mu.N}")
    forms = [constraint_coefficients(n_vec, mu) for n_vec, _ in weights]
    scales = [lam / D for lam, (_, D) in zip(lams, forms)]
    return max(sum(map(mul, scales, column)) for column in zip(*(a for a, _ in forms)))


def _pool(M: int, N: int, mu: EavesdropProfile) -> list[Form]:
    """Deduplicated constraint pool of :func:`upper_bound`: the distinct
    coefficient forms in first-seen (enumeration) order."""
    return list(dict.fromkeys(constraint_coefficients(n_vec, mu) for n_vec in sequence_vectors(M, N)))


# ---------------------------------------------------------------------------
# Exact restricted simplex
# ---------------------------------------------------------------------------

def _solve_restricted(
    forms: Sequence[Form],
) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact optimum of: max R s.t. R <= c_j . tau for all j, tau in simplex,
    with each c_j given in integer form (a_j, D_j), c_j = a_j / D_j.
    Returns the value, tau and one dual weight per constraint.

    Full-tableau primal simplex with Bland's rule (which guarantees
    termination under degeneracy), kept fraction-free: the tableau is an
    integer matrix over one positive common denominator ``det``, and each
    pivot divides exactly (Edmonds 1967, Bareiss 1968), so no entry ever
    needs a gcd.  Variables are ordered (tau_1..tau_N, R, s_1..s_J); row j
    reads -a_j . tau + D_j R + s_j = 0, which scales constraint j and its
    slack by D_j > 0 and so changes no sign and no ratio order.  The
    starting vertex is tau = e_1 with R = min_j c_j[0]; its basis is
    nonsingular and feasible.  The last tableau row holds the reduced
    costs of the objective "maximize R", so every pivot keeps it current.
    At the optimum, slack j's reduced cost is the dual weight of row j over
    D_j * det, since the row was scaled by D_j and its slack was not.
    """
    J = len(forms)
    N = len(forms[0][0])
    ncols = N + 1 + J
    rhs = ncols
    T: list[list[int]] = []
    for j, (a, D) in enumerate(forms):
        row = [-v for v in a] + [D] + [0] * (J + 1)
        row[N + 1 + j] = 1
        T.append(row)
    T.append([1] * N + [0] * (J + 1) + [1])
    nrows = J + 1
    T.append([0] * N + [-1] + [0] * (J + 1))

    # the slack columns are unit vectors, so the slacks start basic for free
    # and only tau_1 and R need pivots
    jstar = min(range(J), key=lambda j: Fraction(forms[j][0][0], forms[j][1]))
    basis = [N + 1 + j for j in range(J)] + [-1]
    basis[jstar] = -1
    det = 1

    def step(r: int, c: int) -> None:
        # fraction-free Gauss-Jordan step; the pivot row is negated when
        # needed so that det stays positive and reduced costs keep their sign
        nonlocal det
        row = T[r]
        p = row[c]
        if p < 0:
            p = -p
            row = T[r] = [-v for v in row]
        for i, other in enumerate(T):
            if i != r:
                f = other[c]
                if f:
                    T[i] = [(p * x - f * y) // det for x, y in zip(other, row)]
                elif p != det:
                    T[i] = [p * x // det for x in other]
        det = p
        basis[r] = c

    for var in (0, N):
        step(next(i for i in range(nrows) if basis[i] < 0 and T[i][var] != 0), var)

    while True:
        enter = next((c for c in range(ncols) if T[nrows][c] < 0), None)
        if enter is None:
            break
        # min ratio b_i / a_i over a_i > 0, compared by cross-multiplication
        leave, la, lb = -1, 1, 0
        for i in range(nrows):
            a = T[i][enter]
            if a > 0:
                b = T[i][rhs]
                if leave < 0 or b * la < lb * a or (b * la == lb * a and basis[i] < basis[leave]):
                    leave, la, lb = i, a, b
        if leave < 0:
            raise ArithmeticError("restricted program unbounded; constraints malformed")
        step(leave, enter)

    tau = [Fraction(0)] * N
    value = Fraction(0)
    for i, var in enumerate(basis):
        if var < N:
            tau[var] = Fraction(T[i][rhs], det)
        elif var == N:
            value = Fraction(T[i][rhs], det)
    weights = tuple(Fraction(D * T[nrows][N + 1 + j], det) for j, (_, D) in enumerate(forms))
    return value, tuple(tau), weights


# ---------------------------------------------------------------------------
# Public bound computations
# ---------------------------------------------------------------------------

def _check_sequence_budget(M: int, N: int) -> None:
    count = N ** (M - 1)
    if count > _SEQUENCE_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration too large: N^(M-1) = {count} sequences exceeds the "
            f"budget of {_SEQUENCE_BUDGET}"
        )


def upper_bound(M: int, N: int, mu: EavesdropProfile) -> BoundResult:
    """Exact optimum of the capacity-bound LP by constraint generation.

    Starts from the N all-equal sequences, solves the restricted program
    exactly, and adds the most-violated constraint (lex-smallest on ties)
    until the restricted optimum survives evaluation against every
    sequence — at which point it is the exact optimum of the full LP.
    The final tableau's dual weights come with it; :func:`outer_bound_at`
    checks them.
    """
    if M < 1 or N < 1:
        raise ValueError("need M >= 1 and N >= 1")
    if mu.N != N:
        raise ValueError(f"profile covers {mu.N} databases, expected {N}")
    _check_sequence_budget(M, N)
    pool = _pool(M, N, mu)
    order = {form: i for i, form in enumerate(pool)}

    work: list[int] = []
    for j in range(1, N + 1):
        idx = order[constraint_coefficients((j,) * (M - 1), mu)]
        if idx not in work:
            work.append(idx)

    # price every constraint at tau = t/T on integers: (a . t) / (D * T)
    while True:
        value, tau, weights = _solve_restricted([pool[i] for i in work])
        T = lcm(*(v.denominator for v in tau))
        t = [v.numerator * (T // v.denominator) for v in tau]
        best_num, best_den, argmin = _cheapest(pool, t)
        if Fraction(best_num, best_den * T) == value:
            break
        work.append(argmin)

    # c . tau == value  <=>  (a . t) * value_den == value_num * D * T.
    # By complementary slackness every support constraint is tight, so only
    # tight sequences look it up; each support form keeps its first sequence.
    support = {pool[i]: w for i, w in zip(work, weights) if w}
    active, duals = [], []
    for n_vec in sequence_vectors(M, N):
        form = constraint_coefficients(n_vec, mu)
        a, D = form
        if sum(map(mul, a, t)) * value.denominator == value.numerator * D * T:
            active.append(n_vec)
            if form in support:
                duals.append((n_vec, support.pop(form)))
    return BoundResult(value=value, argmax_tau=tau, active_sequences=tuple(active), dual_weights=tuple(duals))


# ---------------------------------------------------------------------------
# The gap
# ---------------------------------------------------------------------------

def gap(M: int, N: int, mu: EavesdropProfile) -> Fraction:
    """Exact bound-minus-scheme gap; zero exactly when bounds match."""
    ub = upper_bound(M, N, mu).value
    _, lb = best_scheme(M, N, mu)
    return ub - lb
