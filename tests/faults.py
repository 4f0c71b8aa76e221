"""Fault-injected plan variants for negative audit tests, and malformed
plan documents for load tests.

Each builder returns a structurally plausible but broken plan; the
corresponding audit must FAIL on it.  ``malformed_documents`` edits a
plan document field by field; loading must refuse most edits.
"""

from __future__ import annotations

import copy
import dataclasses
from functools import reduce
from operator import getitem

from wtcpir import EavesdropProfile, Query, QueryPlan, build_plan


def _replace_db(plan: QueryPlan, d: int, queries) -> QueryPlan:
    dbs = list(plan.databases)
    dbs[d - 1] = tuple(queries)
    return dataclasses.replace(plan, databases=tuple(dbs))


def shorter_key(plan: QueryPlan, database: int = 1) -> QueryPlan:
    """One noise symbol fewer: a pure-noise download is replaced by a
    repeat of a meaningful sum, so the key space at that database has one
    dimension less than the eavesdropper's observation size."""
    qs = list(plan.databases[database - 1])
    i_noise = max(i for i, q in enumerate(qs) if q.is_pure_noise)
    i_meaning = next(i for i, q in enumerate(qs) if not q.is_pure_noise)
    qs[i_noise] = Query(terms=qs[i_meaning].terms, noise_slot=qs[i_noise].noise_slot)
    return _replace_db(plan, database, qs)


def broken_symmetry(M, N, g, mu, seed) -> list[QueryPlan]:
    """Plans for every desired message, but with one term dropped from an
    undesired sum in the desired=1 plan only — its query signatures no
    longer match the others."""
    plans = [build_plan(M, N, g, mu, desired=i, seed=seed) for i in range(1, M + 1)]
    target = plans[0]
    for d in range(1, N + 1):
        qs = list(target.databases[d - 1])
        hit = next(
            (i for i, q in enumerate(qs) if q.round >= 2 and 1 not in q.message_set()),
            None,
        )
        if hit is not None:
            qs[hit] = Query(terms=qs[hit].terms[:-1], noise_slot=qs[hit].noise_slot)
            return [_replace_db(target, d, qs)] + plans[1:]
    raise AssertionError("no undesired multi-sum to tamper with")


def rewired_side_information(plan: QueryPlan) -> QueryPlan:
    """One side-information wire redirected: a desired-bearing sum gets a
    slot mix that was downloaded nowhere, so its value can no longer be
    resolved."""
    for d in range(1, plan.N + 1):
        qs = list(plan.databases[d - 1])
        for i, qr in enumerate(qs):
            if qr.is_pure_noise or plan.desired not in qr.message_set() or qr.round < 3:
                continue
            side = [p for p in qr.terms if p[0] != plan.desired]
            swap_msg = side[0][0]
            for dp in range(1, plan.N + 1):
                for other in plan.databases[dp - 1]:
                    for m, s in other.terms:
                        if m != swap_msg or (m, s) == side[0]:
                            continue
                        new_side = frozenset([(m, s)] + side[1:])
                        if new_side in plan.sums or all(frozenset([p]) in plan.sums for p in new_side):
                            continue  # still resolvable; keep looking
                        terms = tuple(
                            (m2, s2) if (m2, s2) != side[0] else (m, s)
                            for m2, s2 in qr.terms
                        )
                        qs[i] = Query(terms=terms, noise_slot=qr.noise_slot)
                        return _replace_db(plan, d, qs)
    raise AssertionError("no multi-term desired sum to rewire")


def own_side_singles() -> QueryPlan:
    """The M=3, N=2 plan of sequence (2, 2, 2) at mu = 0 for message 1,
    with the undesired singles b_1 (db 1) and b_2 (db 2) swapped: each
    database then holds the single that its own desired sum (a_3+b_2 at
    db 1, a_5+b_1 at db 2) needs, and no other database holds it."""
    plan = build_plan(3, 2, (2, 2, 2), EavesdropProfile(["0", "0"]), desired=1, seed=3)
    db1, db2 = (list(qs) for qs in plan.databases)
    i = next(i for i, qr in enumerate(db1) if qr.terms == ((2, 1),))
    j = next(j for j, qr in enumerate(db2) if qr.terms == ((2, 2),))
    db1[i], db2[j] = (
        Query(terms=db2[j].terms, noise_slot=db1[i].noise_slot),
        Query(terms=db1[i].terms, noise_slot=db2[j].noise_slot),
    )
    return dataclasses.replace(plan, databases=(tuple(db1), tuple(db2)))


#: Stands for a deleted field in ``malformed_documents``.
MISSING = object()

#: The document fields that ``malformed_documents`` edits, by path; the
#: indexed ones are database 1, its query 1 and that query's term 1.
FIELDS = {
    "version": ("version",),
    "meta": ("meta",),
    **{f"meta.{key}": ("meta", key)
       for key in ("q", "M", "N", "n", "mu", "nu", "t", "desired", "seed")},
    "databases": ("databases",),
    "queries": ("databases", 0, "queries"),
    "terms": ("databases", 0, "queries", 0, "terms"),
    "noise_slot": ("databases", 0, "queries", 0, "noise_slot"),
    "term": ("databases", 0, "queries", 0, "terms", 0),
}


def malformed_documents(doc: dict):
    """Yield ``(field, value, edited)`` for every field of ``FIELDS`` and
    every value of a wrong JSON type, or ``MISSING``: ``edited`` is a copy
    of ``doc`` with that field set to the value or deleted.  A term is an
    array entry, not a field, so it is never deleted.  Two edits leave a
    well-formed document: ``"queries": []`` (an idle database) and
    ``"terms": []`` (a pure-noise download)."""
    for name, path in FIELDS.items():
        for value in (MISSING, None, True, 1.5, "x", [], {}):
            if value is MISSING and name == "term":
                continue
            edited = copy.deepcopy(doc)
            parent = reduce(getitem, path[:-1], edited)
            if value is MISSING:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield name, value, edited


#: (mu, total download, L) of the worked sequence (1, 2, 2) at profiles
#: whose meta alone demands millions of symbols or more: a margin with a
#: large denominator, or a key near the whole answer.
OVERSIZED = [
    (["0", "1/1000003"], 2333339, 1333336),
    (["0", "1/1000000007"], 7000000045, 4000000024),
    (["0", "999999999999/1000000000000"], 3000000000004, 4),
]
