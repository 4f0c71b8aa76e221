"""Plan execution over GF(q): answering, exact decoding, and audits.

Databases answer each query with the sum of the referenced (permuted)
message symbols plus one symbol of an artificial-noise codeword, the
encoding of a short uniform key under a Vandermonde generator.  The
decoder interpolates each database's key from the pure-noise downloads,
strips the noise, and resolves every desired sum against side information
downloaded at any database.

A plan is logical: ``_Wire`` alone derives its physical wire (symbol
permutations, noise codes, observation sizes).  Retrieval, decoding, the
security audit and the decodability trials read that wire; only
``run_retrieval`` draws the eavesdropper's view.

Audits check the three scheme guarantees directly on wire data:

- ``audit_privacy``   — query signatures are identical for every desired
  message (the databases cannot tell retrievals apart);
- ``audit_security``  — every eavesdropper observation set meets a
  full-rank noise submatrix (observations look uniform), proved per
  database by the Vandermonde MDS property or refuted by a witness set;
- ``audit_decodability`` — every retrieval decodes exactly, proved from
  the compiled wire (the decoder is linear: distinct pure-noise slots make
  each noise interpolation invertible, and side information is subtracted
  as identical sums), with seeded retrievals as a check of the arithmetic.

The wire carries a batch of answer sets as lanes: one int per wire
value, with one W-bit lane per set (``_lane_width``).  Each query is
answered for every set with one dot product of its generator row and the
packed key, plus its packed message terms.  A database's interpolation
matrix is the same in every set, so one elimination per keyed database
solves every set's key, and noise stripping and side information run on
the lanes too.  The decodability trials are answered and decoded as one
batch, and a single retrieval is a batch of one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from operator import mul
from typing import Sequence

from .fieldmath import _pack, mat_rank, mat_solve, mds_generator
from .planner import QueryPlan, signature_diff

#: A batch of r answer sets as lanes, ``(r, rows)``: see ``_Wire``.
_Lanes = tuple[int, list[list[int]]]


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


#: Cross-check retrievals ``audit_decodability`` runs on a proved plan
#: unless told otherwise, and the default of ``wtcpir audit --trials``.
DEFAULT_TRIALS = 32


def _permutations_for(seed: int, M: int, L: int) -> tuple[tuple[int, ...], ...]:
    """Per message m, the seeded (``"{seed}/perm/{m}"``) bijection taking
    logical slot s to the physical symbol index ``perms[m-1][s-1]``."""
    perms = []
    for m in range(1, M + 1):
        ids = list(range(1, L + 1))
        random.Random(f"{seed}/perm/{m}").shuffle(ids)
        perms.append(tuple(ids))
    return tuple(perms)


def _lane_width(k: int, M: int, q: int) -> int:
    """Bits per lane of a packed wire value that never carries or borrows,
    for keys of at most k symbols and M messages over GF(q).

    An answer lane sums at most k(q−1)² of noise and M(q−1) of message
    terms (a query names each message at most once); ``decode`` reduces
    given answers below q.  Stripping the noise adds k·q(q−1), a multiple
    of q not below the noise it subtracts, so a stripped lane lies in
    [0, s) with s = (2k(q−1) + M)·q.  A desired-bearing query has at most
    M−1 side terms, so side information subtracts at most M−1 stripped
    lanes after adding that many times s, and a decoded lane lies in
    [0, M·s).  Every lane therefore stays below 2^W.
    """
    return (M * (2 * k * (q - 1) + M) * q - 1).bit_length()


def _interleave(sets: Sequence[Sequence[int]], w: int) -> list[int]:
    """Equal-length value lists, one per set (at least one), as one int
    per position with set j's value in lane j (bits j·w up)."""
    packed = list(sets[0])
    for j, values in enumerate(sets[1:], start=1):
        packed = [p | v << j * w for p, v in zip(packed, values)]
    return packed


class _Wire:
    """A plan's physical wire, compiled once for any number of retrievals.

    ``dbs[d-1]`` holds database d's noise code (t = ``code.t``, key length
    ``code.k``), the wire indices of its pure-noise downloads, the
    generator rows at their noise slots, each query's 0-based noise slot,
    each query's terms as flat store indices (permutation applied), and
    its observation size mu_d * t_d.  ``program`` lists, per entry of the
    plan's ``bearing``, its physical output index, its flat wire position
    and the flat positions whose values it subtracts, as the plan
    resolved them.  ``error`` is the first decode failure the plan forces
    (missing side information, else a wrong count of recovered desired
    slots), or None.

    A batch of r answer sets travels as lanes, ``(r, rows)``:
    ``rows[d-1][i]`` is one int whose lane j (bits j·W up, W = ``width``)
    holds set j's answer to database d's query i.  ``answer`` draws and
    answers a batch, and ``decode`` strips the noise from every lane and
    returns each set's message.  One given answer set is the batch
    ``(1, rows)``, its answers reduced mod q.
    """

    def __init__(self, plan: QueryPlan) -> None:
        self.plan = plan
        L = plan.dims.L
        perms = _permutations_for(plan.seed, plan.M, L)
        self.dbs = []
        for queries, mu in zip(plan.databases, plan.mu.mu):
            noise_at = [i for i, qr in enumerate(queries) if qr.is_pure_noise]
            code = mds_generator(len(queries), len(noise_at), plan.q)
            slots = [qr.noise_slot - 1 for qr in queries]
            self.dbs.append((
                code, noise_at, [code.generator[slots[i]] for i in noise_at], slots,
                [[(m - 1) * L + perms[m - 1][s - 1] - 1 for m, s in qr.terms] for qr in queries],
                mu * len(queries),
            ))
        self.key_max = max((code.k for code, *_ in self.dbs), default=0)
        self.width = _lane_width(self.key_max, plan.M, plan.q)

        self.program: list[tuple[int, int, tuple[int, ...]]] = []
        self.error = None
        for d, pos, slot, side, subtract in plan.bearing:
            if subtract is None:
                missing = next(p for p in side if frozenset([p]) not in plan.sums)
                self.error = (f"db {d}: side information {missing} for slot {slot} "
                              "was never downloaded")
                return
            self.program.append((perms[plan.desired - 1][slot - 1] - 1, pos, subtract))
        slots = {b[2] for b in plan.bearing}
        if slots != set(range(1, L + 1)):
            self.error = f"decode recovered {len(slots)} desired slots, expected 1..{L}"

    def certificate(self) -> str:
        """``"linear"`` if every retrieval through this wire decodes
        exactly, else the first failing condition in the order the
        retrieval raises it: ``"non-integral"`` (some mu_d * t_d is not an
        integer), ``"singular"`` (two pure-noise downloads of a database
        share a noise slot, so its interpolation matrix has equal rows) or
        ``"side-information"`` (``error`` is set)."""
        if any(size.denominator != 1 for *_, size in self.dbs):
            return "non-integral"
        for _, noise_at, _, slots, _, _ in self.dbs:
            if len({slots[i] for i in noise_at}) < len(noise_at):
                return "singular"
        return "side-information" if self.error else "linear"

    def answer(self, stores: Sequence[MessageStore], key_seeds: Sequence) -> _Lanes:
        """The answers to a batch of retrievals (at least one), as lanes:
        set j answers from ``stores[j]``, masked with the noise codeword of
        the key ``Random(f"{key_seeds[j]}/key/{d}")`` draws at database d.
        The keys and the stores are packed across sets, so each query is
        one dot product with its generator row plus its packed terms; its
        lanes are left unreduced, below 2^W (``_lane_width``)."""
        plan = self.plan
        for store in stores:
            if store.M != plan.M:
                raise ValueError(f"store holds {store.M} messages, plan needs {plan.M}")
            if store.L != plan.dims.L:
                raise ValueError(f"store messages have {store.L} symbols, plan needs {plan.dims.L}")
            if store.q != plan.q:
                raise ValueError(f"store is over GF({store.q}), plan over GF({plan.q})")
        q, w = plan.q, self.width
        flat = _interleave([[v for msg in s.messages for v in msg] for s in stores], w)
        rows = []
        for d, (code, _, _, slots, terms, size) in enumerate(self.dbs, start=1):
            if size.denominator != 1:
                raise ValueError(f"db {d}: observation size mu*t = {size} is not an integer")
            key = _interleave([[rng.randrange(q) for _ in range(code.k)] for rng in
                               (random.Random(f"{seed}/key/{d}") for seed in key_seeds)], w)
            gen = code.generator
            rows.append([sum(map(mul, gen[slot], key)) + sum(map(flat.__getitem__, idx))
                         for slot, idx in zip(slots, terms)])
        return len(stores), rows

    def decode(self, lanes: _Lanes) -> list[tuple[int, ...]]:
        """The desired message of each set in ``lanes``.  Per keyed
        database, unpack the pure-noise lanes and interpolate every set's
        key in one ``mat_solve`` call (the matrix, the generator rows at
        the pure-noise slots, is the same in every set; each set adds one
        right-hand-side column).  Pack the keys again and strip the noise
        as one dot product per wire value.  Then run the side-information
        program on the lanes, and unpack the message symbols last."""
        r, rows = lanes
        plan = self.plan
        q, w = plan.q, self.width
        mask = (1 << w) - 1
        lanes_at = range(0, r * w, w)
        ones = _pack([1] * r, w)
        values: list[int] = []
        for d, (code, noise_at, noise_rows, slots, _, _) in enumerate(self.dbs, start=1):
            row = rows[d - 1]
            if not code.k:
                values += row
                continue
            try:
                x = mat_solve(noise_rows, [[row[i] >> j & mask for j in lanes_at] for i in noise_at], q)
            except ValueError as exc:
                raise ValueError(
                    f"db {d}: noise interpolation is singular — plan or answers corrupted"
                ) from exc
            key = [_pack(v, w) for v in x]
            # a multiple of q not below any lane's noise, so no lane borrows
            lift = code.k * q * (q - 1) * ones
            gen = code.generator
            values += [a + lift - sum(map(mul, gen[slot], key)) for a, slot in zip(row, slots)]
        if self.error:
            raise ValueError(self.error)
        # a multiple of q above every stripped lane (see _lane_width)
        lift = (2 * self.key_max * (q - 1) + plan.M) * q * ones
        out = [0] * plan.dims.L
        for phys, pos, subtract in self.program:
            out[phys] = values[pos] + len(subtract) * lift - sum(map(values.__getitem__, subtract))
        return [tuple([(v >> j & mask) % q for v in out]) for j in lanes_at]


def run_retrieval(plan: QueryPlan, store: MessageStore, key_seed) -> Transcript:
    """Execute the plan against a store and decode the result.

    Per database, a fresh uniform key is drawn from
    ``Random(f"{key_seed}/key/{d}")`` and expanded to the noise codeword;
    each answer is the sum of its permuted message symbols plus the noise
    symbol at its noise slot.  This is the one place the eavesdropper's
    view is drawn: per database, a sample of exactly mu_n * t_n wire
    positions from ``Random(f"{key_seed}/view/{d}")``.  Runs through the
    plan's compiled wire, built for this one call, as a batch of one; the
    transcript holds its one lane reduced mod q.

    Raises ``ValueError`` if the store does not fit the plan, some
    mu_n * t_n is not an integer, or ``decode`` fails.
    """
    wire = _Wire(plan)
    lanes = wire.answer([store], [key_seed])
    answers = [tuple([v % plan.q for v in row]) for row in lanes[1]]
    positions, values = [], []
    for d, (row, (*_, size)) in enumerate(zip(answers, wire.dbs), start=1):
        view = random.Random(f"{key_seed}/view/{d}")
        taps = sorted(view.sample(range(1, len(row) + 1), int(size)))
        positions.append(tuple(taps))
        values.append(tuple(row[p - 1] for p in taps))
    return Transcript(
        answers=tuple(answers),
        decoded=wire.decode(lanes)[0],
        eavesdropper=EavesdropperView(positions=tuple(positions), values=tuple(values)),
    )


def decode(plan: QueryPlan, answers: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Recover the desired message exactly from the answers.

    Every answer is reduced mod q first.  Per database: interpolate the
    key from the pure-noise positions and strip the noise it encodes.
    Then resolve every desired-bearing sum by subtracting its side
    information as the plan resolved it — the value of the identical
    undesired sum, or of the matching round-1 singles, last downloaded at
    any database.  Returns the message in physical symbol order.  Runs
    through the plan's compiled wire, built for this one call, as a batch
    of one.

    Raises
    ------
    ValueError
        If ``answers`` does not hold one row per database and one answer
        per query (an idle database's row must be empty), noise
        interpolation is singular, or side information is
        missing/unresolvable (an internal error for honest plans).
    """
    wire = _Wire(plan)
    if len(answers) != plan.N:
        raise ValueError(f"{len(answers)} answer rows for {plan.N} databases")
    rows = []
    for d, (row, (*_, slots, _, _)) in enumerate(zip(answers, wire.dbs), start=1):
        if len(row) != len(slots):
            raise ValueError(f"db {d}: {len(row)} answers for {len(slots)} queries")
        rows.append([v % plan.q for v in row])
    return wire.decode((1, rows))[0]


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
    message set of ``signature_diff`` between the two, with both counts;
    the structure audit names its findings through the same diff, in the
    same order.

    Raises ``ValueError`` if ``plans`` is empty or some plan's M or N
    differs from the first plan's.
    """
    if not plans:
        raise ValueError("audit_privacy needs at least one plan")
    M, N = plans[0].M, plans[0].N
    for plan in plans[1:]:
        if (plan.M, plan.N) != (M, N):
            raise ValueError(f"plans differ in shape: the first has (M, N) = ({M}, {N}), "
                             f"the plan for message {plan.desired} ({plan.M}, {plan.N})")
    entries = []
    for d in range(1, N + 1):
        first, diff = plans[0].signatures[d - 1], None
        for plan in plans[1:]:
            sig = plan.signatures[d - 1]
            if differing := signature_diff(first, sig):
                bad = differing[0]
                diff = {"desired": plan.desired, "signature": sorted(bad),
                        "counts": [first[bad], sig[bad]]}
                break
        entries.append({"database": d, "status": "PASS" if diff is None else "FAIL",
                        "signatures": len(first), "first_difference": diff})
    status = "PASS" if all(e["status"] == "PASS" for e in entries) else "FAIL"
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


def audit_security(plan: QueryPlan, *, wire: _Wire | None = None) -> dict:
    """Prove that every eavesdropper observation looks uniform.

    Per database, the eavesdropper taps |S_n| = mu_n * t_n wire positions.
    The tapped answers are uniform and message-independent iff the
    noise-key coefficient rows at those positions (generator rows indexed
    by noise slots) have full rank.  Every minor of a Vandermonde
    generator with distinct evaluation points (t_n <= q) is invertible,
    so all C(t_n, |S_n|) sets have full rank iff |S_n| is at most the key
    length and, when |S_n| >= 2, the noise slots (in 1..t_n, which
    ``QueryPlan`` guarantees) are pairwise distinct (Ozarow-Wyner coset
    coding), read from the plan's ``_Wire``.  That is checked in O(t_n)
    with no rank computation (``certificate: "mds"``).  On a FAIL the entry names the
    lexicographically first failing set, confirmed by one rank check
    (``certificate: "witness"``).  A non-integral |S_n| fails with an
    empty failing set (``"non-integral"``); an empty observation passes
    vacuously (``"empty"``).  Every verdict covers all sets
    (``exhaustive``), and ``sets_tested`` counts the rank checks run.
    ``wire``, if given, must be ``_Wire(plan)``; else it is compiled here.
    """
    entries = []
    if wire is None:
        wire = _Wire(plan)
    for d, (code, _, _, slots, _, size) in enumerate(wire.dbs, start=1):
        failing, exhaustive = None, size.denominator == 1
        if not exhaustive:
            certificate, failing = "non-integral", []
        elif size == 0:
            certificate = "empty"
        elif (failing := _first_failing_set(slots, int(size), code.k)) is not None:
            if mat_rank([code.generator[slots[p - 1]] for p in failing], plan.q) == size:
                raise RuntimeError(f"db {d}: failing set {list(failing)} has full rank")
            certificate, failing = "witness", list(failing)
        else:
            certificate = "mds"
        entries.append({"database": d, "t": code.t, "key_len": code.k,
                        "observation_size": int(size) if exhaustive else str(size),
                        "sets_tested": int(certificate == "witness"), "exhaustive": exhaustive,
                        "status": "PASS" if failing is None else "FAIL",
                        "certificate": certificate, "failing_set": failing})
    status = "PASS" if all(e["status"] == "PASS" for e in entries) else "FAIL"
    return {"audit": "security", "status": status, "databases": entries}


def audit_decodability(plan: QueryPlan, trials: int = DEFAULT_TRIALS, seed: int = 0, *,
                       wire: _Wire | None = None) -> dict:
    """Prove that every retrieval decodes exactly, and check the proof
    against seeded retrievals.

    The decoder is an affine map of (store, key) over GF(q), so whether it
    returns the desired message depends on the plan's structure alone.
    Decoding succeeds for every store and every key exactly when

    - every mu_d * t_d is an integer (the retrieval taps that many
      positions);
    - every keyed database's pure-noise slots are pairwise distinct: a
      pure-noise answer carries no message term, and its generator rows
      G_P then form an invertible Vandermonde matrix (t_d <= q), so the
      key and with it every noise symbol is interpolated exactly;
    - the compiled wire's side-information program resolves every desired
      slot (``_Wire.error`` is None).  ``QueryPlan`` forbids a message
      mixed with itself, so a desired-bearing query has exactly one
      desired term, and its side terms are subtracted as the identical
      undesired sum, or as the identical round-1 singles, downloaded at
      some database.

    A PASS reports ``certificate: "linear"``; a FAIL names the first
    failing condition (``"non-integral"``, ``"singular"`` or
    ``"side-information"``; see ``_Wire.certificate``).

    The trials then check the arithmetic, through one compiled wire:
    ``wire`` if given (it must be ``_Wire(plan)``), else compiled here.
    Each trial draws a fresh uniform store (``"{seed}/store/{trial}"``)
    and key seed (``"{seed}/keys/{trial}"``).  The wire answers and
    decodes all trials as one batch of lanes, one big-integer operation
    per wire value and one elimination per keyed database, and each
    decoded message is compared to its trial's stored one; no
    eavesdropper view is drawn.  Every
    error the wire raises on its own answers comes from the plan alone,
    the same in every trial, so it is charged to trial 0.  On a PASS
    all ``trials`` run.  A wrong decoder is another affine map, which
    agrees with the right one on a uniform input with probability at most
    1/q, so ``DEFAULT_TRIALS`` = 32 agreeing trials leave a miss chance of
    at most q^-32 <= 2^-32.  On a FAIL one trial runs, and its decode
    error is the report's one failure.  A trial that contradicts the
    proof raises ``RuntimeError``, as ``audit_security`` does when a
    witness set has full rank.  Raises ``ValueError`` if ``trials`` is
    below 1.
    """
    if trials < 1:
        raise ValueError(f"decodability needs at least 1 trial, got {trials}")
    if wire is None:
        wire = _Wire(plan)
    certificate = wire.certificate()
    proved = certificate == "linear"
    runs = trials if proved else 1
    stores = [random_store(plan.M, plan.dims.L, plan.q, f"{seed}/store/{trial}")
              for trial in range(runs)]
    failures = []
    try:
        decoded = wire.decode(wire.answer(stores, [f"{seed}/keys/{trial}" for trial in range(runs)]))
    except ValueError as exc:
        # every error the wire raises on its own answers comes from the
        # plan alone, so trial 0 is the first trial it fails
        if proved:
            raise RuntimeError(f"trial 0 of a plan proved decodable failed: {exc}") from exc
        failures.append({"trial": 0, "error": str(exc)})
    else:
        if not proved:
            raise RuntimeError(f"trial 0 decoded a plan refuted as {certificate}")
        for trial, (store, got) in enumerate(zip(stores, decoded)):
            want = store.messages[plan.desired - 1]
            if got != want:
                wrong = [i + 1 for i, (a, b) in enumerate(zip(got, want)) if a != b]
                raise RuntimeError(
                    f"trial {trial} of a plan proved decodable got symbols {wrong[:8]} wrong")
    return {
        "audit": "decodability",
        "status": "PASS" if proved else "FAIL",
        "certificate": certificate,
        "trials": runs,
        "passed": runs - len(failures),
        "failures": failures,
    }
