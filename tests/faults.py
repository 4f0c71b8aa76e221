"""Fault-injected plan variants for negative audit tests.

Each builder returns a structurally plausible but broken plan; the
corresponding audit must FAIL on it.
"""

from __future__ import annotations

import dataclasses

from wtcpir import Query, QueryPlan, build_plan


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
    # every undesired sum on the wire (a round-1 single is the one-term sum)
    sums = {
        frozenset(qr.terms)
        for queries in plan.databases
        for qr in queries
        if not qr.is_pure_noise and plan.desired not in qr.message_set()
    }
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
                        if new_side in sums or all(frozenset([p]) in sums for p in new_side):
                            continue  # still resolvable; keep looking
                        terms = tuple(
                            (m2, s2) if (m2, s2) != side[0] else (m, s)
                            for m2, s2 in qr.terms
                        )
                        qs[i] = Query(terms=terms, noise_slot=qr.noise_slot)
                        return _replace_db(plan, d, qs)
    raise AssertionError("no multi-term desired sum to rewire")
