"""Independent oracles for the test suite.

Everything here is typed from first principles (closed-form expressions,
own modular arithmetic, own rank computation) so it shares no code with
the package under test beyond reading plan structures.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import isqrt


def classic_rate(M: int, N: int) -> Fraction:
    """Retrieval rate with no eavesdropping: (sum_{i=0..M-1} N^-i)^-1."""
    return 1 / sum(Fraction(1, N ** i) for i in range(M))


def inv_shares(mu) -> list[Fraction]:
    return [1 / (1 - Fraction(m)) for m in mu]


# ---------------------------------------------------------------------------
# Closed-form optimal rates (typed independently from the expressions)
# ---------------------------------------------------------------------------

def ub32(mu1, mu2) -> Fraction:
    """Exact capacity, 3 messages over 2 databases."""
    a, b = 1 - Fraction(mu1), 1 - Fraction(mu2)
    return max(
        a / 3,
        2 * a * b / (3 * b + a),
        4 * a * b / (4 * b + 3 * a),
    )


def m4n2_rates(mu1, mu2) -> list[Fraction]:
    """The four scheme rates for 4 messages over 2 databases."""
    x = 1 / (1 - Fraction(mu1))
    y = 1 / (1 - Fraction(mu2))
    return [
        (1 - Fraction(mu1)) / 4,
        Fraction(2) / (4 * x + y),
        Fraction(6) / (9 * x + 4 * y),
        Fraction(8) / (8 * x + 7 * y),
    ]


M2N3_SEQUENCES = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def m2n3_rates(mu) -> list[Fraction]:
    """The six scheme rates for 2 messages over 3 databases, in the order
    of ``M2N3_SEQUENCES``."""
    x1, x2, x3 = inv_shares(mu)
    return [
        Fraction(1, 2) / x1,
        Fraction(2) / (2 * x1 + x2),
        Fraction(3) / (2 * x1 + x2 + x3),
        Fraction(4) / (3 * x1 + 3 * x2),
        Fraction(6) / (3 * x1 + 3 * x2 + 2 * x3),
        Fraction(9) / (4 * x1 + 4 * x2 + 4 * x3),
    ]


def capacity_m2(N: int, mu) -> Fraction:
    """Exact capacity for 2 messages: max over monotone (n0, n1)."""
    xs = inv_shares(mu)
    pre = [Fraction(0)]
    for x in xs:
        pre.append(pre[-1] + x)
    best = Fraction(0)
    for n0 in range(1, N + 1):
        for n1 in range(n0, N + 1):
            denom = (n0 + 1) * pre[n0] + n0 * (pre[n1] - pre[n0])
            best = max(best, Fraction(n0 * n1) / denom)
    return best


def capacity_m3(N: int, mu) -> Fraction:
    """Exact capacity for 3 messages: max over monotone (n0, n1, n2)."""
    xs = inv_shares(mu)
    pre = [Fraction(0)]
    for x in xs:
        pre.append(pre[-1] + x)
    best = Fraction(0)
    for n0 in range(1, N + 1):
        for n1 in range(n0, N + 1):
            for n2 in range(n1, N + 1):
                denom = (
                    (n0 * n1 + n0 + 1) * pre[n0]
                    + (n0 * n1 + n0) * (pre[n1] - pre[n0])
                    + n0 * n1 * (pre[n2] - pre[n1])
                )
                best = max(best, Fraction(n0 * n1 * n2) / denom)
    return best


def n2_rate_formula(M: int, s2: int, mu) -> Fraction:
    """Two-database rate family indexed by the number of leading singles."""
    from math import comb

    x, y = inv_shares(mu)
    B = 1 if s2 == 0 else comb(M - 2, s2 - 1)
    num = B + sum(comb(M - 1, s2 + k) for k in range(0, M - s2))
    den_x = M * B + sum(comb(M, s2 + 2 * k) for k in range(1, (M - s2) // 2 + 1))
    den_y = sum(comb(M, s2 + 2 * k + 1) for k in range(0, (M - s2 - 1) // 2 + 1))
    return Fraction(num) / (den_x * x + den_y * y)


def prefix_coefficients(n_vec, mu) -> tuple[Fraction, ...]:
    """LP constraint coefficients of sequence n_vec, straight from the
    prefix-product definition in ``Fraction`` arithmetic: with P_0 = 1,
    P_i = n_1 * ... * n_i and thresholds l_0 = 0, l_i = n_i,
    c_d = (1 - mu_d) * (sum of 1/P_i over l_i < d) / (sum of all 1/P_i)."""
    thresholds = [0] + list(n_vec)
    inv = Fraction(1)
    invs = [inv]
    for v in n_vec:
        inv /= v
        invs.append(inv)
    total = sum(invs)
    coeffs = []
    for d, m in enumerate(mu, start=1):
        share = sum(iv for l, iv in zip(thresholds, invs) if l < d)
        coeffs.append((1 - Fraction(m)) * share / total)
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Capacity LP over Fraction, typed independently
# ---------------------------------------------------------------------------

def fraction_pivot(T, r, c) -> None:
    """One in-place Gauss-Jordan step over ``Fraction`` entries: scale row
    r so that T[r][c] == 1, then clear column c from every other row."""
    T[r] = [v / T[r][c] for v in T[r]]
    for i in range(len(T)):
        f = T[i][c]
        if i != r and f:
            T[i] = [x - f * y for x, y in zip(T[i], T[r])]


def fraction_simplex(cvecs) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact optimum of max R s.t. R <= c_j . tau for all j, tau in the
    simplex: a full-tableau primal simplex over ``Fraction`` entries, with
    the same start vertex (tau = e_1 on the first row minimizing c_j[0]),
    Bland's entering rule and the lowest-basis-index tie rule as
    ``capacity._solve_restricted``.  Variables are ordered
    (tau_1..tau_N, R, s_1..s_J).  Returns the value, tau and the final
    reduced costs of the slacks, which are the dual weights."""
    J = len(cvecs)
    N = len(cvecs[0])
    ncols = N + 1 + J
    rhs = ncols
    T = []
    for j, cv in enumerate(cvecs):
        row = [Fraction(0)] * (ncols + 1)
        for d in range(N):
            row[d] = -Fraction(cv[d])
        row[N] = Fraction(1)
        row[N + 1 + j] = Fraction(1)
        T.append(row)
    T.append([Fraction(1)] * N + [Fraction(0)] * (J + 1) + [Fraction(1)])
    T.append([Fraction(0)] * N + [Fraction(-1)] + [Fraction(0)] * (J + 1))
    nrows = J + 1

    jstar = min(range(J), key=lambda j: cvecs[j][0])
    start = [N + 1 + j for j in range(J) if j != jstar] + [0, N]
    basis = [-1] * nrows
    for var in start:
        pr = next(i for i in range(nrows) if basis[i] < 0 and T[i][var] != 0)
        fraction_pivot(T, pr, var)
        basis[pr] = var

    while True:
        enter = next((c for c in range(ncols) if T[nrows][c] < 0), None)
        if enter is None:
            break
        ratio = None
        leave = -1
        for i in range(nrows):
            a = T[i][enter]
            if a > 0:
                r = T[i][rhs] / a
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio = r
                    leave = i
        if leave < 0:
            raise ArithmeticError("restricted program unbounded; constraints malformed")
        fraction_pivot(T, leave, enter)
        basis[leave] = enter

    tau = [Fraction(0)] * N
    value = Fraction(0)
    for i, var in enumerate(basis):
        if var < N:
            tau[var] = T[i][rhs]
        elif var == N:
            value = T[i][rhs]
    return value, tuple(tau), tuple(T[nrows][N + 1 + j] for j in range(J))


def vertex_enumeration(M: int, N: int, mu) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Optimum (value, tau) of the full capacity LP by literal vertex
    enumeration.  Every vertex is the normalization hyperplane intersected
    with N more active constraints, drawn from the sequence constraints
    (deduplicated, pointwise-dominated ones dropped) and the sign
    constraints tau_d >= 0.  Combinatorial: small instances only."""
    vecs = list(dict.fromkeys(prefix_coefficients(n, mu) for n in product(range(1, N + 1), repeat=M - 1)))
    # c' <= c pointwise makes R <= c . tau redundant on tau >= 0
    pool = [c for c in vecs if not any(o != c and all(x <= y for x, y in zip(o, c)) for o in vecs)]
    one, zero = Fraction(1), Fraction(0)
    rows = [[-v for v in c] + [one, zero] for c in pool]  # R - c . tau = 0
    rows += [[one if e == d else zero for e in range(N)] + [zero, zero] for d in range(N)]  # tau_d = 0
    best = None
    for combo in combinations(rows, N):
        aug = [list(r) for r in combo] + [[one] * N + [zero, one]]  # sum tau = 1
        for c in range(N + 1):
            r = next((i for i in range(c, N + 1) if aug[i][c]), None)
            if r is None:
                break
            aug[c], aug[r] = aug[r], aug[c]
            fraction_pivot(aug, c, c)
        else:
            tau, value = tuple(row[N + 1] for row in aug[:N]), aug[N][N + 1]
            feasible = all(v >= 0 for v in tau) and all(
                sum(x * t for x, t in zip(c, tau)) >= value for c in pool
            )
            if feasible and (best is None or value > best[0]):
                best = (value, tau)
    if best is None:
        raise ArithmeticError("no feasible vertex found; constraints malformed")
    return best


# ---------------------------------------------------------------------------
# Linear algebra over GF(q), typed independently
# ---------------------------------------------------------------------------

def rank_gf(rows, q: int) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] % q), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], q - 2, q)
        mat[rank] = [(v * inv) % q for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] % q:
                f = mat[r][c]
                mat[r] = [(a - f * b) % q for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def gauss_jordan_solve(a, b, q: int) -> list[int]:
    """Solve the square system a.x = b over GF(q) by full Gauss-Jordan
    elimination of the augmented matrix: per column, the first nonzero row
    at or below the diagonal is swapped up, scaled to a leading 1, and
    cleared from every other row at full width.  Raises ``ValueError``
    ("singular system") when some column has no pivot."""
    n = len(a)
    aug = [[v % q for v in row] + [bv % q] for row, bv in zip(a, b)]
    for c in range(n):
        r = next((i for i in range(c, n) if aug[i][c]), None)
        if r is None:
            raise ValueError("singular system")
        aug[c], aug[r] = aug[r], aug[c]
        inv = pow(aug[c][c], q - 2, q)
        aug[c] = [v * inv % q for v in aug[c]]
        for i in range(n):
            f = aug[i][c]
            if f and i != c:
                aug[i] = [(x - f * y) % q for x, y in zip(aug[i], aug[c])]
    return [row[n] for row in aug]


def vandermonde(t: int, k: int, q: int):
    return [[pow(i + 1, j, q) for j in range(k)] for i in range(t)]


def trial_division_prime(n: int) -> bool:
    """Primality by trial division up to the square root (small n only)."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


# ---------------------------------------------------------------------------
# Plan document through the standard library's encoder
# ---------------------------------------------------------------------------

def plan_document_stdlib(plan) -> str:
    """The plan document as ``json.dumps(doc, indent=2) + "\\n"``."""
    doc = {
        "version": 1,
        "meta": {
            "M": plan.M,
            "N": plan.N,
            "q": plan.q,
            "mu": [str(m) for m in plan.mu.mu],
            "n": list(plan.group_sequence.n),
            "nu": plan.dims.nu,
            "t": list(plan.dims.t),
            "desired": plan.desired,
            "seed": plan.seed,
        },
        "databases": [
            {
                "queries": [
                    {"terms": [[m, s] for m, s in qr.terms], "noise_slot": qr.noise_slot}
                    for qr in queries
                ]
            }
            for queries in plan.databases
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Brute-force leakage check (tiny plans only)
# ---------------------------------------------------------------------------

def leakage_is_message_independent(plan) -> tuple[bool, int]:
    """Enumerate every store, key, and joint observation set; return
    (message-independent?, number of observation sets checked).

    For each joint observation set, the distribution of the observed
    answer tuple over uniform keys must be identical for every message
    realization.  Uses its own Vandermonde and modular arithmetic.
    """
    q = plan.q
    M = plan.M
    L = plan.dims.L
    active = [d for d in range(1, plan.N + 1) if plan.databases[d - 1]]
    key_lens = {
        d: sum(1 for qr in plan.databases[d - 1] if qr.is_pure_noise) for d in active
    }
    obs_sizes = {}
    for d in active:
        size = Fraction(plan.mu.mu[d - 1]) * len(plan.databases[d - 1])
        assert size.denominator == 1
        obs_sizes[d] = int(size)
    gens = {d: vandermonde(len(plan.databases[d - 1]), key_lens[d], q) for d in active}

    def meaningful(d, store):
        out = []
        for qr in plan.databases[d - 1]:
            v = 0
            for m, s in qr.terms:
                v += store[m - 1][plan.permutations[m - 1][s - 1] - 1]
            out.append(v % q)
        return out

    def noise(d, key):
        return [
            sum(g * kk for g, kk in zip(gens[d][qr.noise_slot - 1], key)) % q
            for qr in plan.databases[d - 1]
        ]

    stores = list(product(product(range(q), repeat=L), repeat=M))
    keys = {d: list(product(range(q), repeat=key_lens[d])) for d in active}
    joint_sets = list(
        product(*[combinations(range(len(plan.databases[d - 1])), obs_sizes[d]) for d in active])
    )

    checked = 0
    for joint in joint_sets:
        # noise projections per joint key assignment
        noise_proj = []
        for key_combo in product(*[keys[d] for d in active]):
            obs = []
            for d, kd, sel in zip(active, key_combo, joint):
                nd = noise(d, kd)
                obs.extend(nd[i] for i in sel)
            noise_proj.append(tuple(obs))
        reference = None
        for store in stores:
            shift = []
            for d, sel in zip(active, joint):
                md = meaningful(d, store)
                shift.extend(md[i] for i in sel)
            dist = Counter(
                tuple((a + b) % q for a, b in zip(shift, nproj)) for nproj in noise_proj
            )
            if reference is None:
                reference = dist
            elif dist != reference:
                return False, checked
        checked += 1
    return True, checked
