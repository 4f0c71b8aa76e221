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
integer form, an integer vector over one positive denominator, and the
simplex returns its optimum over the tableau's one denominator, so the
whole loop, from deduplicating the pool through every pivot and every
round's pricing to the stopping test, is exact integer arithmetic.
Fractions are made only for the result.

A round prices the whole pool at once, as packed lanes: the pool's N
coefficient columns are N big ints with one lane per form, so every
a . t of the round is N big-int multiply-adds.  A lane is whole 64-bit
words, wide enough for max(a) * T, which bounds every a . t since t sums
to T.  The argmin is read through the integer key (a . t << 64) // D:
it is monotone in a . t / D, so every exact minimizer carries the least
key, and the forms sharing that key are compared by cross-multiplication,
the first in pool order winning ties.  No float decides anything.

The result is the value with both halves of its own certificate:

- the maximizing ``tau``, for which :func:`inner_bound_at` evaluates
  every sequence and shows that the LP reaches the value;
- the dual weights read off the final tableau, a convex combination of
  at most N sequence constraints.  Their combined coefficient vector is
  at most the value in every coordinate.  So :func:`outer_bound_at`
  shows that no ``tau`` does better, in at most N constraint
  evaluations and without trusting the simplex.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product, repeat
from math import gcd, lcm
from operator import floordiv, itemgetter, lshift, mul, or_
from typing import Iterable, Iterator, Sequence

from .schemes import (
    EavesdropProfile,
    EnumerationBudgetError,  # re-exported: capacity's searches raise it
    RationalLike,
    as_fraction,
    best_scheme,
    check_enumeration_budget,
)

SequenceVector = tuple[int, ...]
Form = tuple[tuple[int, ...], int]  # (a, D): the coefficient vector a / D

@dataclass(frozen=True)
class BoundResult:
    """Exact LP optimum: the bound value, a maximizing download-share
    vector, and the dual weights: each support constraint's first
    sequence with its weight."""

    value: Fraction
    argmax_tau: tuple[Fraction, ...]
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
    by_threshold = [0] * (len(mu.margin) + 1)
    for v in reversed(n_vec):
        by_threshold[v] += weight
        weight *= v
    by_threshold[0] += weight
    a = tuple(map(mul, mu.margin, accumulate(by_threshold)))
    D = mu.margin_den * sum(by_threshold)
    g = gcd(D, *a)
    if g == 1:
        return a, D
    return tuple(map(floordiv, a, repeat(g))), D // g


def _pack(values: Iterable[int], words: int) -> int:
    """One int holding the values in lanes of ``words`` 64-bit words each,
    the first value lowest."""
    if words > 1:
        lane_bytes = map(int.to_bytes, values, repeat(8 * words), repeat("little"))
        return int.from_bytes(b"".join(lane_bytes), "little")
    lanes = array("Q", values)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


class _Pricer:
    """Prices a fixed list of forms at integer download counts t: every
    a . t at once, as packed lanes, and the smallest a . t / D exactly.

    Column d of the forms is one int holding a[d] of form j in lane j
    (bits j*W up), so sum_d t_d * column_d holds every a . t in its lanes,
    N big-int multiply-adds in all.  Lanes never carry: a, t >= 0 and
    a . t <= max(a) * sum(t), so W is that bound's bit length rounded up
    to whole 64-bit words.  The columns are repacked only when a round's
    sum(t) needs wider lanes.
    """

    def __init__(self, forms: Sequence[Form]) -> None:
        self.forms = forms
        self.top = max(map(max, map(itemgetter(0), forms)))
        self.words = 0
        self.columns: list[int] = []

    def cheapest(self, t: Sequence[int]) -> tuple[int, int, int]:
        """The smallest a . t / D over the forms, as (a . t, D, j): j is the
        first form that reaches it.

        The least key (a . t << 64) // D holds every minimizer, as the key
        is monotone in a . t / D; the forms sharing it are then compared
        by cross-multiplication, so the result is exact.
        """
        forms = self.forms
        need = -(-(self.top * sum(t)).bit_length() // 64)
        if need > self.words:
            self.words = need
            vectors = list(map(itemgetter(0), forms))
            self.columns = [_pack(map(itemgetter(d), vectors), need) for d in range(len(t))]
        words = self.words
        lanes = array("Q", sum(map(mul, t, self.columns)).to_bytes(8 * words * len(forms), "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        nums = lanes[words - 1::words]
        for i in range(words - 2, -1, -1):  # join a lane's words, most significant first
            nums = list(map(or_, map(lshift, nums, repeat(64)), lanes[i::words]))
        keys = list(map(floordiv, map(lshift, nums, repeat(64)), map(itemgetter(1), forms)))
        least = min(keys)
        best_num, best_den, best = 1, 0, -1  # start at +infinity
        j = -1
        for _ in range(keys.count(least)):  # each form with the least key, in order
            j = keys.index(least, j + 1)
            num, D = nums[j], forms[j][1]
            if num * best_den < best_num * D:
                best_num, best_den, best = num, D, j
        return best_num, best_den, best


def inner_bound_at(tau: Sequence[RationalLike], mu: EavesdropProfile, M: int) -> Fraction:
    """Exact min over all N^(M-1) sequence constraints at a fixed tau;
    refuses the shapes :func:`upper_bound` refuses, before it enumerates."""
    tvec = tuple(as_fraction(v) for v in tau)
    if len(tvec) != mu.N:
        raise ValueError(f"tau has {len(tvec)} entries, profile has {mu.N}")
    if any(v < 0 for v in tvec) or sum(tvec) != 1:
        raise ValueError("tau outside the download-share simplex")
    T = lcm(*(v.denominator for v in tvec))
    t = [v.numerator * (T // v.denominator) for v in tvec]
    num, D, _ = _Pricer(_pool(M, mu.N, mu)).cheapest(t)
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
    coefficient forms in first-seen (enumeration) order.  Refuses M or N
    below 1, a profile not over N databases and an over-budget N^(M-1)."""
    if M < 1 or N < 1:
        raise ValueError("need M >= 1 and N >= 1")
    if mu.N != N:
        raise ValueError(f"profile covers {mu.N} databases, expected {N}")
    check_enumeration_budget("N^(M-1)", N ** (M - 1), "sequences")
    return list(dict.fromkeys(constraint_coefficients(n_vec, mu) for n_vec in sequence_vectors(M, N)))


# ---------------------------------------------------------------------------
# Exact restricted simplex
# ---------------------------------------------------------------------------

def _solve_restricted(forms: Sequence[Form]) -> tuple[int, int, list[int], list[int]]:
    """Exact optimum of: max R s.t. R <= c_j . tau for all j, tau in simplex,
    with each c_j given in integer form (a_j, D_j), c_j = a_j / D_j.
    Returns (det, r, t, y) over the final tableau's one denominator det > 0:
    the value is r / det, tau = t / det with sum(t) == det, and the dual
    weight of constraint j is y[j] / det.

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
    jstar = 0  # the least c_j[0] = a_j[0] / D_j, the first on ties
    for j, (a, D) in enumerate(forms):
        if a[0] * forms[jstar][1] < forms[jstar][0][0] * D:
            jstar = j
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

    t = [0] * N
    r = 0
    for i, var in enumerate(basis):
        if var < N:
            t[var] = T[i][rhs]
        elif var == N:
            r = T[i][rhs]
    return det, r, t, [D * T[nrows][N + 1 + j] for j, (_, D) in enumerate(forms)]


# ---------------------------------------------------------------------------
# Public bound computations
# ---------------------------------------------------------------------------

def upper_bound(M: int, N: int, mu: EavesdropProfile) -> BoundResult:
    """Exact optimum of the capacity-bound LP by constraint generation.

    Starts from the N all-equal sequences, solves the restricted program
    exactly, and adds the most-violated constraint (lex-smallest on ties)
    until the restricted optimum survives evaluation against every
    sequence — at which point it is the exact optimum of the full LP.
    The final tableau's dual weights come with it; :func:`outer_bound_at`
    checks them.

    Every round stays in integers.  The simplex gives the value r / det
    and tau = t / det; the pool is priced in lanes (:class:`_Pricer`) at
    t / g, g = gcd(t), which is tau over its least denominator, and the
    round stops when the cheapest a . (t / g) / D meets the value, that
    is when g * (a . t / g) == r * D.  Fractions are made once, for the
    result.
    """
    pool = _pool(M, N, mu)
    pricer = _Pricer(pool)
    work = list(dict.fromkeys(constraint_coefficients((j,) * (M - 1), mu) for j in range(1, N + 1)))

    while True:
        det, r, t, y = _solve_restricted(work)
        g = gcd(*t)  # divides sum(t) == det, so t / g is tau over its least denominator
        num, D, j = pricer.cheapest([v // g for v in t])
        if g * num == r * D:
            break
        work.append(pool[j])

    # each support form is named by its first sequence in enumeration order
    support = {form: w for form, w in zip(work, y) if w}
    duals = []
    for n_vec in sequence_vectors(M, N):
        form = constraint_coefficients(n_vec, mu)
        if form in support:
            duals.append((n_vec, Fraction(support.pop(form), det)))
    return BoundResult(value=Fraction(r, det), argmax_tau=tuple(Fraction(v, det) for v in t),
                       dual_weights=tuple(duals))


# ---------------------------------------------------------------------------
# The gap
# ---------------------------------------------------------------------------

def gap(M: int, N: int, mu: EavesdropProfile) -> Fraction:
    """Exact bound-minus-scheme gap; zero exactly when bounds match."""
    ub = upper_bound(M, N, mu).value
    _, lb = best_scheme(M, N, mu)
    return ub - lb
