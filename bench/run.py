"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload retrieve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client runs ops in a closed loop, in this process and thread, for
``--seconds`` seconds (whole rounds; see ``measure``).  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose first
half runs untraced so that the tracing overhead can be reported.  The
lines before it repeat every metric with its unit and sample count, the
output-check verdicts, the pinned goldens and the input-property shares.
Each run also writes its op records (and spans, when traced) to
``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS, check_goldens

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
LAYERS = ("fieldmath", "schemes", "capacity", "planner", "protocol", "cli")
SETUP_REPEATS = 21  # at most: one before the timed loop, the rest spread over it

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, span name, aggregate).  Values are per-op
# averages over the traced ops; "ms" is time inside the span including its
# children, "self_ms" excludes them.  A layer an op does not reach reads 0.
PER_LAYER = {
    "capacity.upper_bound.self_ms": ("ms", "capacity.upper_bound", "self_ms"),
    "capacity.constraint_coefficients.calls": ("count", "capacity.constraint_coefficients", "calls"),
    "capacity.constraint_coefficients.ms": ("ms", "capacity.constraint_coefficients", "ms"),
    "capacity.solve_restricted.ms": ("ms", "capacity.solve_restricted", "ms"),
    "schemes.best_scheme.ms": ("ms", "schemes.best_scheme", "ms"),
    "schemes.achievable_rate.calls": ("count", "schemes.achievable_rate", "calls"),
    "cli.main.self_ms": ("ms", "cli.main", "self_ms"),
    "cli.stdout_bytes": ("bytes", None, "stdout_bytes"),
    "planner.build_plan.self_ms": ("ms", "planner.build_plan", "self_ms"),
    "planner.plan_violations.calls": ("count", "planner.plan_violations", "calls"),
    "planner.plan_violations.ms": ("ms", "planner.plan_violations", "ms"),
    "planner.plan_to_json.ms": ("ms", "planner.plan_to_json", "ms"),
    "planner.plan_from_json.ms": ("ms", "planner.plan_from_json", "ms"),
    "planner.plan_json_bytes": ("bytes", None, "plan_json_bytes"),
    "protocol.run_retrieval.self_ms": ("ms", "protocol.run_retrieval", "self_ms"),
    "protocol.decode.self_ms": ("ms", "protocol.decode", "self_ms"),
    "protocol.audit_security.ms": ("ms", "protocol.audit_security", "ms"),
    "protocol.audit_security.sets_tested": ("count", "protocol.audit_security", "sets_tested"),
    "protocol.audit_security.exhaustive_share": ("ratio", None, "exhaustive_share"),
    "protocol.audit_privacy.ms": ("ms", "protocol.audit_privacy", "ms"),
    "protocol.audit_decodability.ms": ("ms", "protocol.audit_decodability", "ms"),
    "fieldmath.mat_solve.calls": ("count", "fieldmath.mat_solve", "calls"),
    "fieldmath.mat_solve.ms": ("ms", "fieldmath.mat_solve", "ms"),
    "fieldmath.mat_solve.rows_mean": ("count", None, "rows_mean"),
    "fieldmath.mat_rank.calls": ("count", "fieldmath.mat_rank", "calls"),
    "fieldmath.mat_rank.ms": ("ms", "fieldmath.mat_rank", "ms"),
    "fieldmath.mds_generator.calls": ("count", "fieldmath.mds_generator", "calls"),
    "fieldmath.mds_generator.ms": ("ms", "fieldmath.mds_generator", "ms"),
    "bench.op.traced_ms": ("ms", tracing.OP_SPAN, "ms"),
    "trace.ops_per_s_ratio": ("ratio", None, "overhead"),
}


def load_program() -> SimpleNamespace:
    """Import the package afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "wtcpir" or n.startswith("wtcpir.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"wtcpir.{n}") for n in LAYERS})


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                commit = next((ln.split()[0] for ln in packed.read_text().splitlines()
                               if ln.endswith(" " + ref[5:])), ref)
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def measure(workload, m, state, seconds: float, recorder=None, first_op: int = 0,
            set_up=None) -> list[dict]:
    """Closed loop: whole rounds of ops for about ``seconds``.

    The loop stops at the round boundary nearest to ``seconds``: it starts
    another round only while more than half a mean round remains, so a run
    measures ``seconds`` on average instead of overshooting by half a round.
    At least one round always runs.

    ``set_up`` is repeated after the first op that ends past each further
    1/(SETUP_REPEATS-1) of the run, so that ``setup_s`` samples the
    machine's speed across the run rather than at one instant.  Ops keep
    running on the program of the first set-up.
    """
    records = []
    start = perf_counter()
    every = seconds / (SETUP_REPEATS - 1)
    next_setup = start + every
    setups = 1  # the one before the loop
    r = 0
    while True:
        for inp in workload.round_inputs(state, r):
            op_id = first_op + len(records)
            err = raw = None
            if recorder is not None:
                recorder.op_id = op_id
            t0 = perf_counter()
            try:
                if recorder is None:
                    raw = workload.op(m, state, inp)
                else:
                    raw = recorder.span(tracing.OP_SPAN, workload.op, m, state, inp)
            except Exception:  # an op that raises counts as failed
                err = traceback.format_exc(limit=4)
            elapsed = perf_counter() - t0
            records.append({"op": op_id, "round": r, "traced": recorder is not None,
                            "input": inp, "seconds": elapsed,
                            "digest": {"error": err} if err else workload.digest(inp, raw)})
            if set_up is not None and setups < SETUP_REPEATS and perf_counter() >= next_setup:
                set_up()
                setups += 1
                next_setup += every
        r += 1
        now = perf_counter()
        if now - start + (now - start) / r / 2 >= seconds:
            return records


def latency_summary(records) -> dict:
    durs = sorted(r["seconds"] for r in records)
    p90 = statistics.quantiles(durs, n=10)[8] if len(durs) > 1 else durs[0]
    return {"n": len(durs), "ops_per_s": len(durs) / sum(durs),
            "op_p50_ms": statistics.median(durs) * 1e3, "op_p90_ms": p90 * 1e3,
            "beyond_p90": sum(1 for d in durs if d > p90)}


def share_labels(p: dict) -> list[str]:
    out = [f"M={p['M']},N={p['N']}"]
    if "pool" in p:
        out.append(f"pool={p['pool']}")
    if "kind" in p:
        out.append(f"kind={p['kind']}")
    if "key_max" in p:
        out += [f"key_max>={k}" for k in (20, 50) if p["key_max"] >= k]
    if p.get("obs_sets"):
        out.append("obs_sets>10000" if max(p["obs_sets"]) > 10000 else "obs_sets<=10000")
    return out


def layer_metrics(spans, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics and the trace facts, from the traced ops' spans."""
    n = len(traced)
    own = tracing.self_times(spans)
    agg = tracing.summarize(spans, own)
    derived = {
        "stdout_bytes": sum(r["digest"].get("stdout_bytes", 0) for r in traced) / n,
        "plan_json_bytes": sum(agg.get(s, {}).get("bytes", 0)
                               for s in ("planner.plan_to_json", "planner.plan_from_json")) / n,
        "rows_mean": (agg["fieldmath.mat_solve"]["rows"] / agg["fieldmath.mat_solve"]["calls"]
                      if "fieldmath.mat_solve" in agg else 0),
        "exhaustive_share": 0,
        "overhead": latency_summary(traced)["ops_per_s"] / latency_summary(untraced)["ops_per_s"],
    }
    sec = agg.get("protocol.audit_security")
    if sec and sec["databases"]:
        derived["exhaustive_share"] = sec["proved"] / sec["databases"]
    metrics = {}
    for name, (unit, span, key) in PER_LAYER.items():
        if span is None:
            value = derived[key]
        else:
            a = agg.get(span, {})
            value = {"calls": a.get("calls", 0) / n, "ms": a.get("ns", 0) / n / 1e6,
                     "self_ms": a.get("self_ns", 0) / n / 1e6}.get(key, a.get(key, 0) / n)
        metrics[name] = {"value": value, "unit": unit}

    # fact 1: constraint evaluations per LP against 2*N^(M-1)+N
    by_op = {r["op"]: r["input"] for r in traced}
    lp_calls, cc_calls = Counter(), Counter()
    for s in spans:
        if s[0] == "capacity.upper_bound":
            lp_calls[s[4]] += 1
        elif s[0] == "capacity.constraint_coefficients":
            cc_calls[s[4]] += 1
    formula = {op: k * (2 * by_op[op]["N"] ** (by_op[op]["M"] - 1) + by_op[op]["N"])
               for op, k in lp_calls.items()}
    # fact 2: where the time inside run_retrieval goes
    under = tracing.ancestors_named(spans, "protocol.run_retrieval")
    inside = Counter()
    for s, o, u in zip(spans, own, under):
        if u:
            inside[s[0]] += o
    facts = {
        "lp_ops": len(formula),
        "lp_ops_matching_2N^(M-1)+N": sum(cc_calls[op] == f for op, f in formula.items()),
        "run_retrieval_self_ms": {k: v / n / 1e6 for k, v in inside.most_common()},
        "nesting_errors": tracing.nesting_errors(spans),
        "self_sum_residual_ns": tracing.self_sum_residual_ns(spans, own),
        "spans": len(spans),
    }
    return metrics, facts


def run(name: str, seed: int, seconds: float, trace: bool, goldens: bool = True) -> dict:
    workload = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []

        def set_up():
            t0 = perf_counter()
            program = load_program()
            prepared = workload.prepare(program, seed, workdir)
            setup_times.append(perf_counter() - t0)
            return program, prepared

        m, state = set_up()
        spans = None
        if trace:
            untraced = measure(workload, m, state, seconds / 2)
            recorder = tracing.Recorder()
            recorder.install()
            try:
                traced = measure(workload, m, state, seconds / 2, recorder, len(untraced))
            finally:
                recorder.uninstall()
            records, spans = untraced + traced, recorder.spans
        else:
            records = measure(workload, m, state, seconds, set_up=set_up)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdicts = {}  # the check is a pure function of (input, digest)
        for r in records:
            dig = r["digest"]
            if "error" in dig:
                r["failure"] = dig["error"]
                continue
            key = json.dumps([r["input"], dig], sort_keys=True, default=str)
            if key not in verdicts:
                verdicts[key] = workload.check(m, r["input"], dig)
            r["failure"] = verdicts[key]
            r["properties"] = workload.properties(r["input"], dig)
        gold = check_goldens(m) if goldens else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if r["failure"])
    lat = latency_summary([r for r in records if not r["traced"]])
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "latency": lat, "setup_times_s": setup_times,
              "attempted": len(records), "failed": failed,
              "goldens": [{"label": g[0], "got": g[1], "want": g[2]} for g in gold],
              "waiting": "none: no layer has a queue or worker pool, so no time is spent waiting"}
    shares = Counter(lab for r in records for lab in share_labels(r["properties"]))
    result["property_shares"] = {k: v / len(records) for k, v in sorted(shares.items())}
    golden_ok = all(g[1] == g[2] for g in gold)
    if trace:
        result["metrics"], facts = layer_metrics(spans, traced, untraced)
        result["trace_facts"] = facts
        result["correct"] = (failed == 0 and golden_ok and facts["nesting_errors"] == 0
                             and facts["self_sum_residual_ns"] == 0)
    else:
        values = {"ops_per_s": lat["ops_per_s"], "op_p50_ms": lat["op_p50_ms"],
                  "ok_share": 1 - failed / len(records),
                  "setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb}
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        result["correct"] = failed == 0 and golden_ok
    result["records"] = records
    result["spans"] = spans
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}.json"
    out.write_text(json.dumps(result, default=str) + "\n", encoding="utf-8")
    result["results_file"] = str(out.relative_to(ROOT))
    return result


def report(result: dict) -> list[str]:
    """Human-readable lines: metrics with units and samples, checks, goldens."""
    env, lat = result["environment"], result["latency"]
    lines = [
        f"# workload={result['workload']} seed={result['seed']} seconds={result['seconds']} "
        f"trace={result['trace']} nproc={env['nproc']} python={env['python']} "
        f"commit={env['commit']} src_sha256={env['src_sha256']}",
        "# closed loop: 1 client, 1 process, 1 thread; " + result["waiting"],
    ]
    samples = {"ops_per_s": f"n={lat['n']} ops", "op_p50_ms": f"n={lat['n']}",
               "ok_share": f"n={result['attempted']}, failed_share="
                           f"{result['failed'] / result['attempted']:.4g}",
               "setup_s": f"median of n={len(result['setup_times_s'])} set-ups",
               "peak_rss_mb": "n=1"}
    traced_ops = result["attempted"] - lat["n"]
    for k, v in result["metrics"].items():
        lines.append(f"{k:44s} {v['value']:>14.6g} {v['unit']:6s} "
                     f"({samples.get(k, f'per-op mean over n={traced_ops} traced ops')})")
    if not result["trace"] and lat["beyond_p90"] >= 10:
        lines.append(f"{'op_p90_ms':44s} {lat['op_p90_ms']:>14.6g} {'ms':6s} "
                     f"(n={lat['n']}, {lat['beyond_p90']} beyond p90; printed where at least 10 "
                     "samples lie beyond it, not part of BENCHMARK.json)")
    failures = [r for r in result["records"] if r["failure"]]
    lines.append(f"check  outputs: {result['attempted'] - len(failures)}/{result['attempted']} ok")
    for r in failures[:5]:
        lines.append(f"check  FAILED op {r['op']}: {str(r['failure']).strip()[:200]}")
    for g in result["goldens"]:
        lines.append(f"golden {g['label']} = {g['got']} "
                     f"{'ok' if g['got'] == g['want'] else 'MISMATCH, want ' + g['want']}")
    lines.append("inputs " + "; ".join(f"{k} {v:.3f}" for k, v in result["property_shares"].items()))
    facts = result.get("trace_facts")
    if facts:
        lines.append(f"fact   constraint_coefficients calls == 2*N^(M-1)+N per upper_bound: "
                     f"{facts['lp_ops_matching_2N^(M-1)+N']}/{facts['lp_ops']} LP ops")
        inside = facts["run_retrieval_self_ms"]
        if inside:
            top = next(iter(inside))
            lines.append(f"fact   largest self time inside protocol.run_retrieval: {top} "
                         f"({inside[top]:.3f} of {sum(inside.values()):.3f} ms per op)")
        lines.append(f"trace  {facts['spans']} spans; nesting errors {facts['nesting_errors']}; "
                     f"max |sum(self) - op duration| = {facts['self_sum_residual_ns']} ns")
    lines.append(f"# records: {result['results_file']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wtcpir" / "__init__.py").is_file():
        sys.stderr.write(f"error: no wtcpir sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report(result)))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
