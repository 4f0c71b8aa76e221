"""Plan execution over GF(q): answering, exact decoding, and audits.

Databases answer each query with the sum of the referenced (permuted)
message symbols plus one symbol of an artificial-noise codeword, the
encoding of a short uniform key under a Vandermonde generator.  The
decoder interpolates each database's key from the pure-noise downloads,
strips the noise, and resolves every desired sum against side information
downloaded elsewhere.

Audits check the three scheme guarantees directly on wire data:

- ``audit_privacy``   — query signatures are identical for every desired
  message (the databases cannot tell retrievals apart);
- ``audit_security``  — every eavesdropper observation set meets a
  full-rank noise submatrix (observations look uniform), proved per
  database by the Vandermonde MDS property or refuted by a witness set;
- ``audit_decodability`` — randomized end-to-end retrievals decode
  exactly.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .fieldmath import MdsCode, check_evaluation_points, mat_rank, mat_solve, mds_generator
from .planner import QueryPlan


@dataclass(frozen=True)
class MessageStore:
    """The replicated database contents: M messages of L symbols over GF(q)."""

    q: int
    messages: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        lengths = {len(w) for w in self.messages}
        if len(lengths) > 1:
            raise ValueError(f"messages differ in length: {sorted(lengths)}")
        for w in self.messages:
            for v in w:
                if not 0 <= v < self.q:
                    raise ValueError(f"symbol {v} outside GF({self.q})")

    @property
    def M(self) -> int:
        return len(self.messages)

    @property
    def L(self) -> int:
        return len(self.messages[0]) if self.messages else 0


def random_store(M: int, L: int, q: int, seed) -> MessageStore:
    """Draw a uniform message store, reproducibly from ``seed``."""
    rng = random.Random(f"{seed}/store")
    return MessageStore(
        q=q,
        messages=tuple(tuple(rng.randrange(q) for _ in range(L)) for _ in range(M)),
    )


@dataclass(frozen=True)
class EavesdropperView:
    """What the eavesdropper sees: per database, the tapped wire
    positions (|S_n| = mu_n * t_n) and the answer values there."""

    positions: tuple[tuple[int, ...], ...]
    values: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Transcript:
    """One full retrieval: all answers, the decoded message, and the view."""

    answers: tuple[tuple[int, ...], ...]
    decoded: tuple[int, ...]
    eavesdropper: EavesdropperView


def _noise_codes(plan: QueryPlan) -> list[MdsCode | None]:
    """Per database, the artificial-noise code implied by the wire data
    (dimension = actual pure-noise count, so edited plans are judged on
    what they really carry).
    """
    codes: list[MdsCode | None] = []
    for queries in plan.databases:
        t_d = len(queries)
        if t_d == 0:
            codes.append(None)
            continue
        key_len = sum(1 for qr in queries if qr.is_pure_noise)
        codes.append(mds_generator(t_d, key_len, plan.q))
    return codes


def _observation_size(plan: QueryPlan, d: int) -> Fraction:
    return plan.mu.mu[d - 1] * len(plan.databases[d - 1])


def run_retrieval(plan: QueryPlan, store: MessageStore, key_seed) -> Transcript:
    """Execute the plan against a store and decode the result.

    Per database, a fresh uniform key is drawn from
    ``Random(f"{key_seed}/key/{d}")`` and expanded to the noise codeword;
    each answer is the sum of its permuted message symbols plus the noise
    symbol at its noise slot.  The eavesdropper's tapped positions are a
    seeded sample of exactly mu_n * t_n wire positions per database.

    Raises ``ValueError`` if the store does not fit the plan or some
    mu_n * t_n is not an integer.
    """
    if store.M != plan.M:
        raise ValueError(f"store holds {store.M} messages, plan needs {plan.M}")
    if store.L != plan.dims.L:
        raise ValueError(f"store messages have {store.L} symbols, plan needs {plan.dims.L}")
    if store.q != plan.q:
        raise ValueError(f"store is over GF({store.q}), plan over GF({plan.q})")
    q = plan.q
    codes = _noise_codes(plan)
    answers = []
    positions = []
    views = []
    for d, queries in enumerate(plan.databases, start=1):
        if not queries:
            answers.append(())
            positions.append(())
            views.append(())
            continue
        size = _observation_size(plan, d)
        if size.denominator != 1:
            raise ValueError(f"db {d}: observation size mu*t = {size} is not an integer")
        code = codes[d - 1]
        rng = random.Random(f"{key_seed}/key/{d}")
        key = tuple(rng.randrange(q) for _ in range(code.k))
        noise = code.encode(key)
        row = []
        for qr in queries:
            total = noise[qr.noise_slot - 1]
            for m, s in qr.terms:
                total = (total + store.messages[m - 1][plan.permutations[m - 1][s - 1] - 1]) % q
            row.append(total)
        answers.append(tuple(row))
        taps = sorted(random.Random(f"{key_seed}/view/{d}").sample(range(1, len(queries) + 1), int(size)))
        positions.append(tuple(taps))
        views.append(tuple(row[p - 1] for p in taps))
    decoded = decode(plan, tuple(answers))
    return Transcript(
        answers=tuple(answers),
        decoded=decoded,
        eavesdropper=EavesdropperView(positions=tuple(positions), values=tuple(views)),
    )


def decode(plan: QueryPlan, answers: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Recover the desired message exactly from the answers.

    Per database: interpolate the key from the pure-noise positions,
    re-expand the noise codeword, and strip it.  Then resolve every
    desired-bearing sum by subtracting its side information — the value
    of the identical undesired sum downloaded at another database, or of
    the matching round-1 singles.  Returns the message in physical symbol
    order.

    Raises
    ------
    ValueError
        If noise interpolation is singular, or side information is
        missing/unresolvable (an internal error for honest plans).
    """
    q = plan.q
    codes = _noise_codes(plan)
    values: list[tuple[int, ...]] = []
    for d, queries in enumerate(plan.databases, start=1):
        if not queries:
            values.append(())
            continue
        if len(answers[d - 1]) != len(queries):
            raise ValueError(
                f"db {d}: {len(answers[d - 1])} answers for {len(queries)} queries"
            )
        code = codes[d - 1]
        noise_positions = [i for i, qr in enumerate(queries) if qr.is_pure_noise]
        rows = [code.generator[queries[i].noise_slot - 1] for i in noise_positions]
        rhs = [answers[d - 1][i] for i in noise_positions]
        if code.k:
            try:
                key = mat_solve(rows, rhs, q)
            except ValueError as exc:
                raise ValueError(
                    f"db {d}: noise interpolation is singular — plan or answers corrupted"
                ) from exc
            noise = code.encode(tuple(key))
        else:
            noise = (0,) * len(queries)
        values.append(
            tuple(
                (answers[d - 1][i] - noise[qr.noise_slot - 1]) % q
                for i, qr in enumerate(queries)
            )
        )

    blocks: dict[frozenset, int] = {}
    singles: dict[tuple[int, int], int] = {}
    for d, queries in enumerate(plan.databases, start=1):
        for i, qr in enumerate(queries):
            if qr.is_pure_noise or plan.desired in qr.message_set():
                continue
            blocks[frozenset(qr.terms)] = values[d - 1][i]
            if qr.round == 1:
                singles[qr.terms[0]] = values[d - 1][i]

    logical: dict[int, int] = {}
    for d, queries in enumerate(plan.databases, start=1):
        for i, qr in enumerate(queries):
            ms = qr.message_set()
            if qr.is_pure_noise or plan.desired not in ms:
                continue
            slot = next(s for m, s in qr.terms if m == plan.desired)
            side = tuple(p for p in qr.terms if p[0] != plan.desired)
            x = values[d - 1][i]
            if side:
                if frozenset(side) in blocks:
                    x = (x - blocks[frozenset(side)]) % q
                else:
                    for pair in side:
                        if pair not in singles:
                            raise ValueError(
                                f"db {d}: side information {pair} for slot {slot} "
                                "was never downloaded"
                            )
                        x = (x - singles[pair]) % q
            logical[slot] = x

    L = plan.dims.L
    if sorted(logical) != list(range(1, L + 1)):
        raise ValueError(
            f"decode recovered {len(logical)} desired slots, expected 1..{L}"
        )
    perm = plan.permutations[plan.desired - 1]
    out = [0] * L
    for slot, val in logical.items():
        out[perm[slot - 1] - 1] = val
    return tuple(out)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

def audit_privacy(plans: Sequence[QueryPlan]) -> dict:
    """Check that query signatures cannot distinguish retrievals.

    ``plans`` holds one plan per desired message, and exactly those plans
    are judged.  Per database, the multiset of message-index sets over all
    queries (pure noise counts as the empty set) must be the same in
    every plan.  Any difference names the database, the desired message
    of the first plan that differs from the first one, and the first
    differing signature.
    """
    entries = []
    status = "PASS"
    for d in range(1, plans[0].N + 1):
        counters = [
            Counter(qr.message_set() for qr in plan.databases[d - 1]) for plan in plans
        ]
        diff = None
        for plan, ctr in zip(plans[1:], counters[1:]):
            if ctr != counters[0]:
                sig = sorted(
                    set(counters[0]) | set(ctr),
                    key=lambda s: (len(s), sorted(s)),
                )
                bad = next(s for s in sig if counters[0].get(s, 0) != ctr.get(s, 0))
                diff = {
                    "desired": plan.desired,
                    "signature": sorted(bad),
                    "counts": [counters[0].get(bad, 0), ctr.get(bad, 0)],
                }
                break
        ok = diff is None
        status = status if ok else "FAIL"
        entries.append(
            {
                "database": d,
                "status": "PASS" if ok else "FAIL",
                "signatures": len(counters[0]),
                "first_difference": diff,
            }
        )
    return {"audit": "privacy", "status": status, "databases": entries}


def _first_failing_set(slots: Sequence[int], size: int, key_len: int) -> tuple[int, ...] | None:
    """Lexicographically first set of ``size`` wire positions whose noise
    rows are dependent, or None if every such set has full rank.

    Rows at distinct slots are Vandermonde rows at distinct points,
    independent whenever there are at most ``key_len`` of them.  A set is
    therefore dependent iff it is larger than the key or holds two
    positions with the same slot.  The first set containing such a core
    is the core plus the smallest other positions.
    """
    t = len(slots)
    if size > key_len:
        cores = [()]
    else:
        cores = []
        first_at: dict[int, int] = {}
        for p, slot in enumerate(slots, start=1):
            if slot in first_at:
                if size >= 2:
                    cores.append((first_at[slot], p))
            else:
                first_at[slot] = p

    def completion(core: tuple[int, ...]) -> tuple[int, ...]:
        fill = (p for p in range(1, t + 1) if p not in core)
        return tuple(sorted(core + tuple(islice(fill, size - len(core)))))

    return min(map(completion, cores), default=None)


def audit_security(plan: QueryPlan) -> dict:
    """Prove that every eavesdropper observation looks uniform.

    Per database, the eavesdropper taps |S_n| = mu_n * t_n wire positions.
    The tapped answers are uniform and message-independent iff the
    noise-key coefficient rows at those positions (generator rows indexed
    by noise slots) have full rank.  Every minor of a Vandermonde
    generator with distinct evaluation points (t_n <= q) is invertible,
    so all C(t_n, |S_n|) sets have full rank iff |S_n| is at most the key
    length and, when |S_n| >= 2, the noise slots (in 1..t_n, which
    ``QueryPlan`` guarantees) are pairwise distinct (Ozarow-Wyner coset
    coding).  That is checked in O(t_n) with no rank computation
    (``certificate: "mds"``).  On a FAIL the entry names the
    lexicographically first failing set, confirmed by one rank check
    (``certificate: "witness"``).  A non-integral |S_n| fails with an
    empty failing set (``"non-integral"``); an empty observation passes
    vacuously (``"empty"``).  Every verdict covers all sets
    (``exhaustive``), and ``sets_tested`` counts the rank checks run.

    Raises ``ValueError`` if q is not prime or some t_n exceeds q.
    """
    entries = []
    status = "PASS"
    for d, queries in enumerate(plan.databases, start=1):
        t_d = len(queries)
        key_len = sum(1 for qr in queries if qr.is_pure_noise)
        size_exact = _observation_size(plan, d)
        entry = {
            "database": d,
            "t": t_d,
            "key_len": key_len,
            "observation_size": None,
            "sets_tested": 0,
            "exhaustive": size_exact.denominator == 1,
            "status": "PASS",
            "certificate": "mds",
            "failing_set": None,
        }
        entries.append(entry)
        if t_d:
            check_evaluation_points(t_d, plan.q)
        if not entry["exhaustive"]:
            entry.update(observation_size=str(size_exact), status="FAIL",
                         certificate="non-integral", failing_set=[])
            status = "FAIL"
            continue
        size = int(size_exact)
        entry["observation_size"] = size
        if size == 0:
            entry["certificate"] = "empty"
            continue
        slots = [qr.noise_slot for qr in queries]
        failing = _first_failing_set(slots, size, key_len)
        if failing is None:
            continue
        gen = mds_generator(t_d, key_len, plan.q).generator
        rows = [gen[slots[p - 1] - 1] for p in failing]
        if mat_rank(rows, plan.q) == size:
            raise RuntimeError(f"db {d}: failing set {list(failing)} has full rank")
        entry.update(sets_tested=1, status="FAIL", certificate="witness",
                     failing_set=list(failing))
        status = "FAIL"
    return {"audit": "security", "status": status, "databases": entries}


def audit_decodability(plan: QueryPlan, trials: int = 100, seed: int = 0) -> dict:
    """Run randomized end-to-end retrievals and demand exact decodes.

    Each trial draws a fresh uniform store and key seed, executes the
    plan, and compares the decoded message to the stored one.  Failures
    carry the trial index and the first mismatching symbol positions (or
    the decode error).
    """
    failures = []
    expected_index = plan.desired - 1
    for trial in range(trials):
        store = random_store(plan.M, plan.dims.L, plan.q, f"{seed}/store/{trial}")
        try:
            transcript = run_retrieval(plan, store, key_seed=f"{seed}/keys/{trial}")
        except ValueError as exc:
            failures.append({"trial": trial, "error": str(exc)})
            continue
        want = store.messages[expected_index]
        if transcript.decoded != want:
            mism = [i + 1 for i, (a, b) in enumerate(zip(transcript.decoded, want)) if a != b]
            failures.append({"trial": trial, "mismatch_positions": mism[:8]})
    return {
        "audit": "decodability",
        "status": "PASS" if not failures else "FAIL",
        "trials": trials,
        "passed": trials - len(failures),
        "failures": failures[:5],
    }
