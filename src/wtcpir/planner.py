"""Executable query plans: symbolic download schedules with side-information
wiring, per-message permutations, shuffled wire order, and noise-slot bindings.

A plan realizes one scheme repetition-by-repetition.  Stages of round k
(complete sweeps over all k-subsets of messages) are spawned from *feeder*
stages of round k-1 at other databases: each desired-bearing k-sum reuses
one of the feeder's undesired (k-1)-sums verbatim as side information and
adds a fresh desired symbol.  Groups that join late (group l joins at
round l+1) additionally run impulse stages whose side information is
assembled from the round-1 undesired singles pool.

Wire order is a seeded shuffle of each database's meaningful queries plus
its pure-noise downloads; the noise slot of a query is its wire position,
so the artificial-noise codeword is consumed exactly once per database.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from .fieldmath import is_prime, smallest_prime_at_least
from .schemes import (
    EavesdropProfile,
    GroupSequence,
    PlanDimensions,
    derive_groups,
    repetition_factor,
    stage_counts,
)

#: Sentinel terms value for a pure-noise download (a query with no message
#: content; its answer is a bare artificial-noise symbol).
PURE_NOISE: tuple = ()


class PlanConstructionError(ValueError):
    """Plan generation could not satisfy the wiring invariants.

    Carries the round, group, and database where construction failed so
    the failure is diagnosable rather than silently producing an invalid
    plan.
    """

    def __init__(self, round_: int, group: int, database: int, detail: str) -> None:
        self.round = round_
        self.group = group
        self.database = database
        super().__init__(
            f"plan construction failed at round {round_}, group {group}, "
            f"database {database}: {detail}"
        )


@dataclass(frozen=True)
class Query:
    """One download: a k-sum of permuted message symbols plus one noise symbol.

    ``terms`` lists (message, slot) pairs over distinct messages, sorted by
    message; ``slot`` is the logical symbol index (the per-message
    permutation maps it to a physical position at answer time).  Empty
    terms mark a pure-noise download.  ``noise_slot`` indexes the
    database's artificial-noise vector and equals the query's wire
    position in freshly built plans.
    """

    terms: tuple[tuple[int, int], ...]
    noise_slot: int

    def __post_init__(self) -> None:
        msgs = [m for m, _ in self.terms]
        if len(set(msgs)) != len(msgs):
            raise ValueError(f"query mixes a message with itself: {self.terms}")
        if self.noise_slot < 1:
            raise ValueError(f"noise_slot must be positive, got {self.noise_slot}")
        object.__setattr__(self, "terms", tuple(sorted(self.terms)))

    @property
    def is_pure_noise(self) -> bool:
        return not self.terms

    @property
    def round(self) -> int:
        """Round = number of mixed messages (0 for pure noise)."""
        return len(self.terms)

    def message_set(self) -> frozenset[int]:
        return frozenset(m for m, _ in self.terms)


@dataclass(frozen=True)
class QueryPlan:
    """A complete, executable download schedule.

    ``databases[d-1]`` lists database d's queries in wire order (length
    t_d, exactly key_len_d of them pure noise).  ``permutations[m-1]`` is
    the bijection taking logical slot s to the physical symbol index
    ``permutations[m-1][s-1]`` of message m.

    Every plan, built or loaded, is checked on construction: it lists N
    databases, ``desired`` lies in 1..M, every noise slot of database d
    lies in 1..t_d, and every term names a message in 1..M and a symbol
    slot in 1..L.  A violation raises ``ValueError`` naming the database
    and query.
    """

    M: int
    N: int
    q: int
    group_sequence: GroupSequence
    mu: EavesdropProfile
    dims: PlanDimensions
    desired: int
    seed: int
    permutations: tuple[tuple[int, ...], ...]
    databases: tuple[tuple[Query, ...], ...]

    def __post_init__(self) -> None:
        if len(self.databases) != self.N:
            raise ValueError(f"{len(self.databases)} databases listed, expected N={self.N}")
        if not 1 <= self.desired <= self.M:
            raise ValueError(f"desired message {self.desired} out of range 1..{self.M}")
        L = self.dims.L
        for d, queries in enumerate(self.databases, start=1):
            for i, qr in enumerate(queries, start=1):
                if qr.noise_slot > len(queries):
                    raise ValueError(
                        f"db {d} query {i}: noise slot {qr.noise_slot} outside 1..{len(queries)}"
                    )
                for m, slot in qr.terms:
                    if not 1 <= m <= self.M:
                        raise ValueError(f"db {d} query {i}: message {m} outside 1..{self.M}")
                    if not 1 <= slot <= L:
                        raise ValueError(f"db {d} query {i}: slot {slot} outside 1..{L}")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _permutations_for(seed: int, M: int, L: int) -> tuple[tuple[int, ...], ...]:
    perms = []
    for m in range(1, M + 1):
        ids = list(range(1, L + 1))
        random.Random(f"{seed}/perm/{m}").shuffle(ids)
        perms.append(tuple(ids))
    return tuple(perms)


def _wire_order(seed: int, d: int, t: int) -> list[int]:
    """Database d's seeded wire shuffle of t downloads: entry p is the
    construction index of the query at wire position p + 1 (meaningful
    queries in construction order first, then pure noise)."""
    order = list(range(t))
    random.Random(f"{seed}/shuffle/{d}").shuffle(order)
    return order


def build_plan(
    M: int,
    N: int,
    g: GroupSequence | Sequence[int],
    mu: EavesdropProfile,
    desired: int,
    seed: int,
    q: int | None = None,
) -> QueryPlan:
    """Construct the full query plan for one scheme, eavesdrop profile,
    and desired message.

    Parameters
    ----------
    M, N : int
        Message and database counts.
    g : GroupSequence or sequence of int
        The scheme index; raw vectors are validated via ``derive_groups``.
    mu : EavesdropProfile
        Per-database eavesdropping ratios (drives repetitions and keys).
    desired : int
        1-based index of the message to retrieve.
    seed : int
        Master seed for permutations and wire-order shuffles.
    q : int, optional
        Field modulus; defaults to the smallest prime exceeding the
        longest answer length.

    Raises
    ------
    PlanConstructionError
        If the side-information wiring cannot be satisfied (names the
        round, group, and database).
    ValueError
        For invalid inputs, including a field too small for the noise
        code ("field too small").
    """
    if not isinstance(g, GroupSequence):
        g = derive_groups(M, N, tuple(g))
    if g.M != M or g.N != N:
        raise ValueError(f"sequence is for M={g.M}, N={g.N}; got M={M}, N={N}")
    if mu.N != N:
        raise ValueError(f"profile covers {mu.N} databases, expected {N}")
    if not 1 <= desired <= M:
        raise ValueError(f"desired message {desired} out of range 1..{M}")

    dims = repetition_factor(g, mu)
    sc = stage_counts(g)
    L = dims.L
    t_max = max(dims.t)
    if q is None:
        q = smallest_prime_at_least(t_max + 1)
    else:
        if not is_prime(q):
            raise ValueError(f"field modulus must be prime, got {q}")
        if q <= t_max:
            raise ValueError(
                f"field too small: q={q} must exceed the longest answer length {t_max}"
            )

    active = g.active_databases
    counters = {m: 0 for m in range(1, M + 1)}

    def fresh(m: int) -> tuple[int, int]:
        counters[m] += 1
        return (m, counters[m])

    # the only ledger: stages by (rep, database, round), in construction
    # order; each maps every k-subset of messages to the terms downloaded
    stage_sets: dict[tuple[int, int, int], list[dict[frozenset[int], tuple]]] = {}

    def stage(d: int, rep: int, k: int, group: int, side_of) -> None:
        """One stage: every k-subset is a sum of fresh undesired symbols, or
        one fresh desired symbol plus the side terms ``side_of`` supplies
        for the rest of the subset (None when there are none left)."""
        terms_of: dict[frozenset[int], tuple] = {}
        for tup in combinations(range(1, M + 1), k):
            su = frozenset(tup)
            if desired in su:
                side = side_of(su - {desired})
                if side is None:
                    raise PlanConstructionError(
                        k, group, d,
                        f"no side information left for {sorted(su - {desired})}",
                    )
                terms_of[su] = tuple(sorted(side + (fresh(desired),)))
            else:
                terms_of[su] = tuple(fresh(m) for m in tup)
        stage_sets.setdefault((rep, d, k), []).append(terms_of)

    for rep in range(1, dims.nu + 1):
        for k in range(1, M + 1):
            for d in active:
                group = g.group_of(d)
                assert group is not None
                expected = sc.of(group, k)
                before = len(stage_sets.get((rep, d, k), []))
                if k == 1:
                    if group == 0:
                        for _ in range(expected):
                            stage(d, rep, 1, group, lambda rest: ())
                elif group < k:
                    # a group-l database only participates from round l+1 on
                    for dp in active:
                        if dp == d:
                            continue
                        for sigma in stage_sets.get((rep, dp, k - 1), []):
                            stage(d, rep, k, group, sigma.get)
                    if group >= 2 and k == group + 1:
                        # late joiners take their side information from the
                        # round-1 singles, first in first out
                        pools = {
                            m: deque(
                                sigma[frozenset({m})][0]
                                for dp in g.databases_in_group(0)
                                for sigma in stage_sets[(rep, dp, 1)]
                            )
                            for m in range(1, M + 1)
                            if m != desired
                        }

                        def pop(rest: frozenset[int]) -> tuple | None:
                            if not all(pools[m] for m in rest):
                                return None
                            return tuple(pools[m].popleft() for m in sorted(rest))

                        for _ in range(g.n[0] * g.xi[group]):
                            stage(d, rep, k, group, pop)
                built = len(stage_sets.get((rep, d, k), [])) - before
                if built != expected:
                    raise PlanConstructionError(
                        k, group, d,
                        f"built {built} stages but dimensioning requires {expected}",
                    )

    if counters[desired] != L:
        raise PlanConstructionError(
            M, 0, 0,
            f"desired-symbol accounting off: used {counters[desired]} slots of {L}",
        )
    over = [m for m, c in counters.items() if c > L]
    if over:
        raise PlanConstructionError(
            M, 0, 0, f"messages {over} need more than L={L} symbol slots"
        )

    databases: list[tuple[Query, ...]] = []
    for d in range(1, N + 1):
        # this database's downloads in construction order (an idle one has none)
        cons = [
            terms
            for rep in range(1, dims.nu + 1)
            for k in range(1, M + 1)
            for terms_of in stage_sets.get((rep, d, k), [])
            for terms in terms_of.values()
        ]
        t_d = dims.t[d - 1]
        key_len = dims.key_len[d - 1]
        if len(cons) + key_len != t_d:
            raise PlanConstructionError(
                M, g.group_of(d) or 0, d,
                f"download accounting off: {len(cons)} meaningful + {key_len} noise != t={t_d}",
            )
        databases.append(tuple(
            Query(terms=cons[ci] if ci < len(cons) else PURE_NOISE, noise_slot=p)
            for p, ci in enumerate(_wire_order(seed, d, t_d), start=1)
        ))

    plan = QueryPlan(
        M=M,
        N=N,
        q=q,
        group_sequence=g,
        mu=mu,
        dims=dims,
        desired=desired,
        seed=seed,
        permutations=_permutations_for(seed, M, L),
        databases=tuple(databases),
    )
    problems = plan_violations(plan)
    if problems:
        raise PlanConstructionError(0, 0, 0, "; ".join(problems))
    return plan


# ---------------------------------------------------------------------------
# Structural verification
# ---------------------------------------------------------------------------

def plan_violations(plan: QueryPlan) -> list[str]:
    """Check every structural plan invariant; return violations (empty = OK).

    Works from wire data only (queries, dims, desired, sequence), so it
    applies equally to freshly built and deserialized plans:

    - per-database query and pure-noise counts match the dimensioning,
      and noise slots form a bijection onto wire positions;
    - per message and database, no symbol slot is downloaded twice;
    - every round's queries form complete stages (each k-subset of
      messages appears exactly nu * y_l[k] times);
    - desired slots cover 1..L exactly once across the whole plan;
    - every desired-bearing sum's side information is either an undesired
      query downloaded verbatim at another database or a combination of
      round-1 singles from other databases.
    """
    g = plan.group_sequence
    dims = plan.dims
    L = dims.L
    problems: list[str] = []
    sc = stage_counts(g)

    blocks_elsewhere: dict[int, set[frozenset]] = {}
    singles_elsewhere: dict[int, set[tuple[int, int]]] = {}
    for d, queries in enumerate(plan.databases, start=1):
        blocks_elsewhere[d] = set()
        singles_elsewhere[d] = set()
    for d, queries in enumerate(plan.databases, start=1):
        for qr in queries:
            if qr.is_pure_noise or plan.desired in qr.message_set():
                continue
            for other in blocks_elsewhere:
                if other != d:
                    blocks_elsewhere[other].add(frozenset(qr.terms))
                    if qr.round == 1:
                        singles_elsewhere[other].add(qr.terms[0])

    desired_slots: list[int] = []
    for d, queries in enumerate(plan.databases, start=1):
        t_d = dims.t[d - 1]
        if len(queries) != t_d:
            problems.append(f"db {d}: {len(queries)} queries, dimensioning says t={t_d}")
            continue
        noise_slots = sorted(qr.noise_slot for qr in queries)
        if noise_slots != list(range(1, t_d + 1)):
            problems.append(f"db {d}: noise slots are not a bijection onto 1..{t_d}")
        pure = sum(1 for qr in queries if qr.is_pure_noise)
        if pure != dims.key_len[d - 1]:
            problems.append(
                f"db {d}: {pure} pure-noise downloads, key length is {dims.key_len[d - 1]}"
            )
        used: Counter = Counter()
        for qr in queries:
            for pair in qr.terms:
                used[pair] += 1
        dup = [pair for pair, c in used.items() if c > 1]
        if dup:
            problems.append(f"db {d}: symbol slots downloaded twice: {sorted(dup)[:3]}")

        by_round: dict[int, Counter] = {}
        for qr in queries:
            if qr.is_pure_noise:
                continue
            by_round.setdefault(qr.round, Counter())[qr.message_set()] += 1
        group = g.group_of(d)
        for k in range(1, plan.M + 1):
            expect = dims.nu * (sc.of(group, k) if group is not None else 0)
            counts = by_round.get(k, Counter())
            for tup in combinations(range(1, plan.M + 1), k):
                got = counts.get(frozenset(tup), 0)
                if got != expect:
                    problems.append(
                        f"db {d} round {k}: subset {tup} appears {got} times, "
                        f"complete stages require {expect}"
                    )
                    break

        for qr in queries:
            ms = qr.message_set()
            if plan.desired not in ms:
                continue
            dslot = next(s for m, s in qr.terms if m == plan.desired)
            desired_slots.append(dslot)
            side = tuple(p for p in qr.terms if p[0] != plan.desired)
            if not side:
                continue
            if frozenset(side) in blocks_elsewhere[d]:
                continue
            if all(p in singles_elsewhere[d] for p in side):
                continue
            problems.append(
                f"db {d}: side information {side} for a round-{qr.round} desired "
                "sum is not downloadable elsewhere"
            )

    if sorted(desired_slots) != list(range(1, L + 1)):
        problems.append(
            f"desired slots do not cover 1..L={L} exactly once "
            f"({len(desired_slots)} uses, {len(set(desired_slots))} distinct)"
        )
    return problems


# ---------------------------------------------------------------------------
# Statistics and rendering
# ---------------------------------------------------------------------------

def plan_stats(plan: QueryPlan) -> dict:
    """Recompute headline numbers from the wire structure.

    Returns a JSON-friendly dict with the answer lengths, desired-symbol
    count, exact rate L / sum(t), and per-round stage counts per database
    (round-k query count divided by binom(M, k): an int for complete
    stages, otherwise an exact ``Fraction``).
    """
    t = tuple(len(qs) for qs in plan.databases)
    desired_slots = set()
    per_round: dict[int, dict[int, int]] = {}
    for d, queries in enumerate(plan.databases, start=1):
        rounds: dict[int, int] = {}
        for qr in queries:
            if qr.is_pure_noise:
                continue
            rounds[qr.round] = rounds.get(qr.round, 0) + 1
            for m, s in qr.terms:
                if m == plan.desired:
                    desired_slots.add(s)
        stages = {}
        for k, cnt in sorted(rounds.items()):
            per_stage = comb(plan.M, k)
            stages[k] = cnt // per_stage if cnt % per_stage == 0 else Fraction(cnt, per_stage)
        if stages:
            per_round[d] = stages
    L = len(desired_slots)
    total = sum(t)
    return {
        "M": plan.M,
        "N": plan.N,
        "q": plan.q,
        "n": list(plan.group_sequence.n),
        "nu": plan.dims.nu,
        "desired": plan.desired,
        "t": list(t),
        "key_len": list(plan.dims.key_len),
        "total_download": total,
        "L": L,
        "rate": Fraction(L, total),
        "stages_per_round": per_round,
    }


def _message_label(m: int) -> str:
    return chr(ord("a") + m - 1) if m <= 26 else f"m{m}"


def _noise_label(d: int) -> str:
    return "uvwxyz"[d - 1] if d <= 6 else f"n{d}"


def _render_query(qr: Query, d: int) -> str:
    noise = f"{_noise_label(d)}_{qr.noise_slot}"
    if qr.is_pure_noise:
        return noise
    parts = [f"{_message_label(m)}_{s}" for m, s in qr.terms]
    return "+".join(parts + [noise])


def plan_to_table(plan: QueryPlan) -> str:
    """Render the plan as a deterministic markdown table.

    Columns are the databases that download anything.  Each column lists
    its meaningful queries in construction order (the inverse of the
    database's seeded wire shuffle), cut into ``nu`` equal repetition
    blocks, then its pure-noise downloads in wire order in a final block.
    Built and loaded plans render alike, and every query appears exactly
    once.  Symbols are labeled a_i, b_i, ... by message and u_j, v_j, ...
    by database noise slot.
    """
    columns = tuple(d for d in range(1, plan.N + 1) if plan.databases[d - 1])
    nu = plan.dims.nu
    reps: dict[int, list[list[str]]] = {}
    for d in columns:
        queries = plan.databases[d - 1]
        order = _wire_order(plan.seed, d, len(queries))
        meaningful = [
            _render_query(qr, d)
            for _, qr in sorted(zip(order, queries))
            if not qr.is_pure_noise
        ]
        per_rep = -(-len(meaningful) // nu)
        reps[d] = [meaningful[r * per_rep:(r + 1) * per_rep] for r in range(nu)]

    col_cells: dict[int, list[str]] = {d: [] for d in columns}
    for r in range(nu):
        width = max(len(reps[d][r]) for d in columns)
        for d in columns:
            if nu > 1:
                col_cells[d].append(f"(repetition {r + 1})")
            col_cells[d].extend(reps[d][r] + [""] * (width - len(reps[d][r])))
    noise = {
        d: [_render_query(qr, d) for qr in plan.databases[d - 1] if qr.is_pure_noise]
        for d in columns
    }
    if any(noise.values()):
        for d in columns:
            col_cells[d].append("(artificial noise)")
            col_cells[d].extend(noise[d])

    height = max((len(cells) for cells in col_cells.values()), default=0)
    for d in columns:
        col_cells[d].extend([""] * (height - len(col_cells[d])))
    lines = [
        "| " + " | ".join(f"Database {d}" for d in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for i in range(height):
        lines.append("| " + " | ".join(col_cells[d][i] for d in columns) + " |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def plan_to_json(plan: QueryPlan) -> str:
    """Serialize to the versioned JSON document (stable byte-for-byte)."""
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


def plan_from_json(text: str | dict) -> QueryPlan:
    """Rebuild a plan from its JSON document.

    Queries are taken as serialized — no re-derivation or equality check —
    so edited plans load fine and are judged by the audits instead.

    Raises
    ------
    ValueError
        If the document's version is not 1, or the plan breaks one of the
        ``QueryPlan`` range rules (database count, desired message, noise
        slot, term message, term symbol slot).
    """
    doc = json.loads(text) if isinstance(text, str) else text
    version = doc.get("version")
    if version != 1:
        raise ValueError(f"unsupported plan document version: {version!r}")
    meta = doc["meta"]
    M, N, q = int(meta["M"]), int(meta["N"]), int(meta["q"])
    mu = EavesdropProfile(meta["mu"])
    g = derive_groups(M, N, tuple(int(v) for v in meta["n"]))
    dims = repetition_factor(g, mu)
    seed = int(meta["seed"])
    databases = tuple(
        tuple(
            Query(
                terms=tuple((int(m), int(s)) for m, s in entry["terms"]),
                noise_slot=int(entry["noise_slot"]),
            )
            for entry in db["queries"]
        )
        for db in doc["databases"]
    )
    return QueryPlan(
        M=M,
        N=N,
        q=q,
        group_sequence=g,
        mu=mu,
        dims=dims,
        desired=int(meta["desired"]),
        seed=seed,
        permutations=_permutations_for(seed, M, dims.L),
        databases=databases,
    )
