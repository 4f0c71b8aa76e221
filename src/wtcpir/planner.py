"""Executable query plans: symbolic download schedules with side-information
wiring, shuffled wire order, and noise-slot bindings.

A plan is logical: its queries name (message, logical slot) pairs.  The
physical wire (per-message symbol permutations, noise codes and
observation sizes) is derived from it by ``protocol._Wire`` alone.

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
import reprlib
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, zip_longest
from math import comb
from typing import Sequence

from .fieldmath import check_evaluation_points, parse_rational, smallest_prime_at_least
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

#: Cap on a plan's total download sum(t_d), and so on L.  A plan's meta
#: alone sets both, and building or loading the plan makes lists of those
#: lengths, so a plan over the cap is refused before any is made.
_DOWNLOAD_BUDGET = 1 << 20


@dataclass(frozen=True)
class Query:
    """One download: a k-sum of permuted message symbols plus one noise symbol.

    A plain record; ``QueryPlan`` judges it.  ``terms`` lists (message,
    slot) pairs with strictly increasing messages; ``slot`` is the logical
    symbol index (the per-message permutation maps it to a physical
    position at answer time).  Empty terms mark a pure-noise download.
    ``noise_slot`` indexes the database's artificial-noise vector and
    equals the query's wire position in freshly built plans.
    """

    terms: tuple[tuple[int, int], ...]
    noise_slot: int

    @property
    def is_pure_noise(self) -> bool:
        return not self.terms

    @property
    def round(self) -> int:
        """Round = number of mixed messages (0 for pure noise)."""
        return len(self.terms)

    def message_set(self) -> frozenset[int]:
        return frozenset(m for m, _ in self.terms)


def signature(queries: Sequence[Query]) -> Counter:
    """What one database sees of a plan: the multiset of its queries'
    message sets, pure noise as ``frozenset()``.  Privacy holds when it
    does not depend on the desired message."""
    return Counter(qr.message_set() for qr in queries)


@dataclass(frozen=True)
class QueryPlan:
    """A complete, executable download schedule.

    It is constructed from exactly what its JSON document holds.
    ``databases[d-1]`` lists database d's queries in wire order (length
    t_d, exactly key_len_d of them pure noise).  ``M``, ``N`` and ``dims``
    are derived from the sequence and profile.  The plan is logical: the
    per-message symbol permutations that ``seed`` drives are derived,
    with the rest of the physical wire, by ``protocol._Wire``.

    The structure that the planner, the decoder and the audits read is
    compiled in the same walk.  ``signatures[d-1]`` is database d's
    ``signature``.  ``sums`` maps every downloaded undesired sum (a
    round-1 single is the one-term sum), as a frozenset of terms, to the
    flat wire position of its last download; flat positions count every
    database's queries in turn.  ``bearing`` lists each desired-bearing
    query in wire order as (database, flat wire position, desired slot,
    side terms, subtract): ``subtract`` holds the flat positions whose
    values resolve its side information, the last download, at any
    database, of the side sum, else of each of its round-1 singles, and
    is None if one of them was never downloaded.

    Every plan, built or loaded, is checked on construction: its total
    download sum(t_d) is at most ``_DOWNLOAD_BUDGET`` (2^20, checked
    first), it lists N databases, ``desired`` lies in 1..M, GF(q) is a
    prime field with t_d <= q for every database d (distinct noise
    evaluation points), every noise slot of database d lies in 1..t_d,
    and every query's terms name messages in 1..M, strictly increasing,
    and symbol slots in 1..L.  A violation raises ``ValueError``, naming
    the database and query where there is one.
    """

    q: int
    group_sequence: GroupSequence
    mu: EavesdropProfile
    desired: int
    seed: int
    databases: tuple[tuple[Query, ...], ...]
    M: int = field(init=False)
    N: int = field(init=False)
    dims: PlanDimensions = field(init=False)
    signatures: tuple[Counter, ...] = field(init=False, compare=False, repr=False)
    sums: dict[frozenset, int] = field(init=False, compare=False, repr=False)
    bearing: list[tuple] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        g = self.group_sequence
        dims = repetition_factor(g, self.mu)
        object.__setattr__(self, "M", g.M)
        object.__setattr__(self, "N", g.N)
        object.__setattr__(self, "dims", dims)
        _check_download_budget(dims)
        if len(self.databases) != self.N:
            raise ValueError(f"{len(self.databases)} databases listed, expected N={self.N}")
        if not 1 <= self.desired <= self.M:
            raise ValueError(f"desired message {self.desired} out of range 1..{self.M}")
        L = dims.L
        sums: dict[frozenset, int] = {}
        bearing = []
        pos = 0
        for d, queries in enumerate(self.databases, start=1):
            check_evaluation_points(len(queries), self.q)
            for i, qr in enumerate(queries, start=1):
                if not 1 <= qr.noise_slot <= len(queries):
                    raise ValueError(
                        f"db {d} query {i}: noise slot {qr.noise_slot} outside 1..{len(queries)}"
                    )
                prev = 0
                for m, slot in qr.terms:
                    if not 1 <= m <= self.M:
                        raise ValueError(f"db {d} query {i}: message {m} outside 1..{self.M}")
                    if m <= prev:
                        raise ValueError(f"db {d} query {i}: message {m} " + (
                            "repeated" if m == prev else f"listed after message {prev}"))
                    if not 1 <= slot <= L:
                        raise ValueError(f"db {d} query {i}: slot {slot} outside 1..{L}")
                    prev = m
                side = tuple(p for p in qr.terms if p[0] != self.desired)
                if len(side) < len(qr.terms):
                    bearing.append((d, pos, dict(qr.terms)[self.desired], side))
                elif side:
                    sums[frozenset(side)] = pos
                pos += 1

        def resolve(side: tuple) -> tuple | None:
            keys = [frozenset(side)] if frozenset(side) in sums else [frozenset([p]) for p in side]
            return tuple(sums[k] for k in keys) if all(k in sums for k in keys) else None

        object.__setattr__(self, "signatures", tuple(map(signature, self.databases)))
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "bearing", [(*b, resolve(b[3])) for b in bearing])


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _check_download_budget(dims: PlanDimensions) -> None:
    if sum(dims.t) > _DOWNLOAD_BUDGET:
        raise ValueError(f"plan too large: it downloads {sum(dims.t)} symbols (L={dims.L}), "
                         f"over the budget of {_DOWNLOAD_BUDGET}")


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

    The builder checks only what building needs: the sequence against M
    and N, and the download budget, before any list is made.
    ``QueryPlan`` judges the built plan by the rules a loaded one meets.

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
        Field modulus: a prime below 2^64 and at least the longest answer
        length.  Defaults to the smallest prime exceeding that length.

    Raises
    ------
    ValueError
        For a bad sequence or profile, a plan of more than
        ``_DOWNLOAD_BUDGET`` downloads ("plan too large"), or a broken
        ``QueryPlan`` rule, such as a field too small ("field too small").
    RuntimeError
        If the built plan breaks an invariant of ``plan_violations``.  The
        stage-count recurrence sizes every stage the construction needs,
        so this signals a defect in the builder, not in the inputs.
    """
    if not isinstance(g, GroupSequence):
        g = derive_groups(M, N, tuple(g))
    if g.M != M or g.N != N:
        raise ValueError(f"sequence is for M={g.M}, N={g.N}; got M={M}, N={N}")
    dims = repetition_factor(g, mu)
    _check_download_budget(dims)
    y01 = stage_counts(g).of(0, 1)
    if q is None:
        q = smallest_prime_at_least(max(dims.t) + 1)

    counters = {m: 0 for m in range(1, M + 1)}

    def fresh(m: int) -> tuple[int, int]:
        counters[m] += 1
        return (m, counters[m])

    # each database's downloads in construction order (an idle one has none)
    made: dict[int, list[tuple]] = {d: [] for d in range(1, N + 1)}

    def stage(d: int, k: int, side_of) -> dict[frozenset[int], tuple]:
        """One stage, mapping every k-subset of messages to the terms it
        downloads: a sum of fresh undesired symbols, or one fresh desired
        symbol plus the side terms ``side_of`` supplies for the rest."""
        terms_of: dict[frozenset[int], tuple] = {}
        for tup in combinations(range(1, M + 1), k):
            su = frozenset(tup)
            if desired in su:
                terms_of[su] = tuple(sorted(side_of(su - {desired}) + (fresh(desired),)))
            else:
                terms_of[su] = tuple(fresh(m) for m in tup)
        made[d].extend(terms_of.values())
        return terms_of

    for _ in range(dims.nu):
        prev: dict[int, list[dict]] = {}  # each database's stages of the round before
        for k in range(1, M + 1):
            cur = {}
            for d in g.active_databases:
                group = g.group_of(d)
                if group >= k:
                    continue  # a group-l database only participates from round l+1 on
                # one side-information supplier per stage: the round-1 seeds,
                # then every other database's stages of round k-1
                sides = [lambda rest: ()] * y01 if k == 1 else []
                sides += [sigma.get for dp, stages in prev.items() if dp != d for sigma in stages]
                if group >= 2 and k == group + 1:
                    # late joiners take their side information from the
                    # round-1 singles, first in first out
                    pools = {m: deque(sigma[frozenset({m})][0] for sigma in singles)
                             for m in range(1, M + 1) if m != desired}

                    def pop(rest: frozenset[int]) -> tuple:
                        return tuple(pools[m].popleft() for m in sorted(rest))

                    sides += [pop] * (g.n[0] * g.xi[group])
                cur[d] = [stage(d, k, side_of) for side_of in sides]
            if k == 1:
                singles = [sigma for stages in cur.values() for sigma in stages]
            prev = cur

    databases = tuple(
        tuple(Query(terms=terms[ci] if ci < len(terms) else PURE_NOISE, noise_slot=p)
              for p, ci in enumerate(_wire_order(seed, d, dims.t[d - 1]), start=1))
        for d, terms in made.items()
    )
    plan = QueryPlan(
        q=q, group_sequence=g, mu=mu, desired=desired, seed=seed, databases=databases
    )
    problems = plan_violations(plan)
    if problems:
        raise RuntimeError("built plan breaks its invariants: " + "; ".join(problems))
    return plan


# ---------------------------------------------------------------------------
# Structural verification
# ---------------------------------------------------------------------------

def expected_signature(g: GroupSequence, dims: PlanDimensions, d: int) -> Counter:
    """The ``signature`` that the sequence, nu and the key lengths fix for
    database d, whatever the desired message: nu * y_l[k] copies of every
    k-subset of messages, l being d's group, and key_len_d pure-noise
    downloads as ``frozenset()``.  It holds only nonzero entries (none for
    an inactive database), so it totals t_d and has at most t_d entries.
    """
    sc, group = stage_counts(g), g.group_of(d)  # of(None, k) is 0: inactive
    expect = Counter({frozenset(ms): dims.nu * sc.of(group, k) for k in range(1, g.M + 1)
                      if sc.of(group, k) for ms in combinations(range(1, g.M + 1), k)})
    if dims.key_len[d - 1]:
        expect[frozenset()] = dims.key_len[d - 1]
    return expect


def signature_diff(got: Counter, want: Counter) -> list[frozenset]:
    """Every message set whose count differs between two signatures, a set
    missing from one side counting 0, ordered by (size, sorted members)."""
    return sorted((s for s in got.keys() | want.keys() if got[s] != want[s]),
                  key=lambda s: (len(s), sorted(s)))


def plan_violations(plan: QueryPlan) -> list[str]:
    """Check every structural plan invariant; return violations (empty = OK).

    Works from wire data only (queries, dims, desired, sequence), so it
    applies equally to freshly built and deserialized plans.  Every check
    runs on every database:

    - its ``signature`` equals its ``expected_signature``; each message
      set of ``signature_diff`` between them is named, with both counts;
    - noise slots form a bijection onto wire positions 1..t_d;
    - per message, no symbol slot is downloaded twice;
    - desired slots cover 1..L exactly once across the whole plan;
    - every desired-bearing sum's side information resolves in the plan's
      ``bearing`` (a side downloaded only at its own database shares a
      symbol slot with the sum there, a duplicate reported above).
    """
    g, dims = plan.group_sequence, plan.dims
    problems: list[str] = []

    desired_slots: list[int] = []
    for d, queries in enumerate(plan.databases, start=1):
        t_d = dims.t[d - 1]
        if sorted(qr.noise_slot for qr in queries) != list(range(1, t_d + 1)):
            problems.append(f"db {d}: noise slots are not a bijection onto 1..{t_d}")
        used = Counter(pair for qr in queries for pair in qr.terms)
        dup = [pair for pair, c in used.items() if c > 1]
        if dup:
            problems.append(f"db {d}: symbol slots downloaded twice: {sorted(dup)[:3]}")

        got, expect = plan.signatures[d - 1], expected_signature(g, dims, d)
        for ms in signature_diff(got, expect):
            problems.append(f"db {d}: message set {tuple(sorted(ms))} appears {got[ms]} "
                            f"times, the dimensioning says {expect[ms]}")

        for _, _, slot, side, subtract in (b for b in plan.bearing if b[0] == d):
            desired_slots.append(slot)
            if subtract is None:
                problems.append(f"db {d}: side information {side} for a round-{len(side) + 1} desired "
                                "sum is downloaded nowhere, neither whole nor single by single")

    if sorted(desired_slots) != list(range(1, dims.L + 1)):
        problems.append(
            f"desired slots do not cover 1..L={dims.L} exactly once "
            f"({len(desired_slots)} uses, {len(set(desired_slots))} distinct)"
        )
    return problems


# ---------------------------------------------------------------------------
# Statistics and rendering
# ---------------------------------------------------------------------------

def plan_stats(plan: QueryPlan) -> dict:
    """Recompute headline numbers from the wire structure.

    Returns a JSON-friendly dict with the answer lengths, pure-noise
    download counts (``key_len``), desired-symbol count, exact rate
    L / sum(t) (None for a plan that downloads nothing), and per-round
    stage counts per database (round-k query count divided by
    binom(M, k): an int for complete stages, otherwise an exact
    ``Fraction``).
    """
    t = tuple(len(qs) for qs in plan.databases)
    L = len({b[2] for b in plan.bearing})
    per_round: dict[int, dict[int, int]] = {}
    for d, sig in enumerate(plan.signatures, start=1):
        rounds: Counter = Counter()
        for ms, cnt in sig.items():
            if ms:
                rounds[len(ms)] += cnt
        stages = {}
        for k, cnt in sorted(rounds.items()):
            per_stage = comb(plan.M, k)
            stages[k] = cnt // per_stage if cnt % per_stage == 0 else Fraction(cnt, per_stage)
        if stages:
            per_round[d] = stages
    total = sum(t)
    return {
        "M": plan.M,
        "N": plan.N,
        "q": plan.q,
        "n": list(plan.group_sequence.n),
        "nu": plan.dims.nu,
        "desired": plan.desired,
        "t": list(t),
        "key_len": [sig[frozenset()] for sig in plan.signatures],
        "total_download": total,
        "L": L,
        "rate": Fraction(L, total) if total else None,
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
    by database noise slot.  A plan that downloads nothing renders as the
    two header lines alone.
    """
    columns = tuple(d for d in range(1, plan.N + 1) if plan.databases[d - 1])
    nu = plan.dims.nu
    noisy = any(qr.is_pure_noise for queries in plan.databases for qr in queries)
    cells = []  # per column, its cells block by block, each block headed by its label
    for d in columns:
        queries = plan.databases[d - 1]
        order = _wire_order(plan.seed, d, len(queries))
        meaningful = [
            _render_query(qr, d)
            for _, qr in sorted(zip(order, queries))
            if not qr.is_pure_noise
        ]
        per_rep = -(-len(meaningful) // nu)
        cells.append([[f"(repetition {r + 1})"] * (nu > 1) + meaningful[r * per_rep:(r + 1) * per_rep]
                      for r in range(nu)])
        if noisy:
            cells[-1].append(["(artificial noise)"]
                             + [_render_query(qr, d) for qr in queries if qr.is_pure_noise])
    lines = [
        "| " + " | ".join(f"Database {d}" for d in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    # each block is padded to its longest column; with no column there is no row
    for block in zip(*cells):
        lines += ("| " + " | ".join(row) + " |" for row in zip_longest(*block, fillvalue=""))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def plan_to_json(plan: QueryPlan) -> str:
    """Serialize to the versioned JSON document: exactly the bytes of
    ``json.dumps(doc, indent=2) + "\n"`` for the document ``{"version",
    "meta", "databases"}``.  Only the small head goes through ``json``; the
    databases block, whose shape never changes, is written directly,
    since ``json`` falls back to its pure-Python encoder under ``indent``.
    """
    head = json.dumps({
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
    }, indent=2)
    dbs = []
    for queries in plan.databases:
        entries = []
        for qr in queries:
            pairs = [f"            [\n              {m},\n              {s}\n            ]"
                     for m, s in qr.terms]
            entries.append(f'        {{\n          "terms": {_json_list(pairs, "          ")},\n'
                           f'          "noise_slot": {qr.noise_slot}\n        }}')
        dbs.append(f'    {{\n      "queries": {_json_list(entries, "      ")}\n    }}')
    # the head ends in the "\n}" that closes the document
    return f"{head[:-2]},\n  \"databases\": {_json_list(dbs, '  ')}\n}}\n"


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of already indented ``items``, closed at ``indent``."""
    return "[\n" + ",\n".join(items) + f"\n{indent}]" if items else "[]"


def plan_from_json(text: str | dict) -> QueryPlan:
    """Rebuild a plan from its JSON document.

    Queries are taken as serialized — no re-derivation or equality check —
    so edited plans load fine and are judged by the audits instead.  Each
    term list is sorted as it is read, so its order in the file is free.

    Raises
    ------
    ValueError
        For every fault, naming where it sits (``meta: missing field
        'seed'``, ``meta: mu entry 1: not an exact rational: '1/0'``,
        ``db 1 query 3: a term must be [message, slot], got [1]``): text
        that is not JSON, a version other than 1, a missing field or one
        of the wrong JSON type, a meta whose sequence or profile is
        invalid, a plan that breaks a ``QueryPlan`` rule, or (checked
        last) a meta ``nu`` or ``t`` other than the plan's ``dims``.
        The version, counts, indices and seeds are JSON integers (not
        floats or booleans), ``mu`` entries strings holding exact
        rationals or integers, ``n``, ``t``, ``mu``, ``databases``,
        ``queries`` and ``terms`` arrays, the document, ``meta``, each
        database and each query objects, and each term [message, slot].
    """
    doc = _checked(json.loads(text) if isinstance(text, str) else text, dict, "plan document")
    version = _field(doc, "version", int, "plan document")
    if version != 1:
        raise ValueError(f"unsupported plan document version: {version!r}")
    meta = _field(doc, "meta", dict, "plan document")
    q, M, N, nu, desired, seed = (_field(meta, key, int, "meta")
                                  for key in ("q", "M", "N", "nu", "desired", "seed"))
    n, t = ([_checked(v, int, "meta", f"{key} entry {i}")
             for i, v in enumerate(_field(meta, key, list, "meta"), start=1)]
            for key in ("n", "t"))
    mu = []
    for i, v in enumerate(_field(meta, "mu", list, "meta"), start=1):
        if type(v) is str:
            try:
                v = parse_rational(v)
            except ValueError as exc:
                raise ValueError(f"meta: mu entry {i}: {exc}") from exc
        elif type(v) is not int:
            raise ValueError(f"meta: mu entry {i} must be a string or an integer, got {reprlib.repr(v)}")
        mu.append(v)
    try:
        group_sequence, profile = derive_groups(M, N, n), EavesdropProfile(mu)
    except ValueError as exc:
        raise ValueError(f"meta: {exc}") from exc
    databases = []
    for d, db in enumerate(_field(doc, "databases", list, "plan document"), start=1):
        queries = []
        entries = _field(_checked(db, dict, f"db {d}"), "queries", list, f"db {d}")
        for i, entry in enumerate(entries, start=1):
            where = f"db {d} query {i}"
            terms = _field(_checked(entry, dict, where), "terms", list, where)
            for term in terms:
                if type(term) is not list or len(term) != 2 or type(term[0]) is not int \
                        or type(term[1]) is not int:
                    raise ValueError(f"{where}: a term must be [message, slot], got {reprlib.repr(term)}")
            queries.append(Query(terms=tuple(sorted(map(tuple, terms))),
                                 noise_slot=_field(entry, "noise_slot", int, where)))
        databases.append(tuple(queries))
    plan = QueryPlan(q=q, group_sequence=group_sequence, mu=profile, desired=desired, seed=seed,
                     databases=tuple(databases))
    for key, given, derived in (("nu", nu, plan.dims.nu), ("t", t, list(plan.dims.t))):
        if given != derived:
            raise ValueError(f"meta: {key} is {reprlib.repr(given)}, but the sequence and "
                             f"profile give {reprlib.repr(derived)}")
    return plan


_JSON_KINDS = {int: "an integer", list: "an array", dict: "an object"}


def _field(obj: dict, key: str, kind: type, where: str):
    """``obj[key]``, refused with a ``ValueError`` naming ``where`` unless
    it is present and of the JSON type ``kind`` (``int``, ``list`` or
    ``dict``)."""
    value = obj.get(key)
    if type(value) is not kind:
        if key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
        _checked(value, kind, where, key)
    return value


def _checked(value, kind: type, where: str, key: str | None = None):
    # exact types: bool is an int subclass, so JSON true would otherwise
    # load as 1, and an object or string where an array belongs would
    # iterate as keys or characters
    if type(value) is not kind:
        name = f"{where}: {key}" if key else where
        raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {reprlib.repr(value)}")
    return value
