"""The three benchmark workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop run by one client: the next op starts
only when the previous one has returned.  Inputs come from ``--seed``
alone, and the program sees only those inputs, either through the
public API or through ``wtcpir.cli.main`` called in-process with stdout
captured.  Ops are generated in *rounds*; a round is a fixed mix (the
same shapes, profile family or plan files in every run), so runs with
different seeds measure the same mix and differ only in the seeded
draws inside it.

Checks run after the timed loop and use routes independent of the op
under test (a certificate evaluation, a closed form, a regenerated
message store, expected audit verdicts).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

#: ROADMAP's profile with the known nonzero N=4 gap.
MU_STAR = ("0", "1/9", "2/9", "1/3")

#: Pinned exact values at mu*, by (M, N): the quantity and its value.  The
#: (5,4) gap is the known nonzero N=4 gap, so an LP change cannot silently
#: close or shift it.
PINNED_AT_MU_STAR = {
    (7, 4): ("upper_bound", "43008/70393"),
    (6, 4): ("upper_bound", "10752/17593"),
    (5, 4): ("gap", "4480/102932383"),
}
WORKED_EXAMPLE = ["capacity", "-M", "3", "-N", "2", "--mu", "1/4,1/2"]


def run_cli(m, argv) -> tuple[int, str]:
    """``wtcpir <argv>`` in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = m.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue()


def observation_sets(mu: list[str], t: list[int]) -> list[int]:
    """Per database, C(t, |S|) with |S| = mu * t (0 where mu * t is not whole)."""
    out = []
    for m, td in zip(mu, t):
        size = Fraction(m) * td
        out.append(comb(td, int(size)) if size.denominator == 1 else 0)
    return out


def check_goldens(m) -> list[tuple[str, str, str]]:
    """(label, got, want) for each pinned value; independent of the seed."""
    prof = m.schemes.EavesdropProfile(list(MU_STAR))
    out = []
    for (M, N), (kind, want) in PINNED_AT_MU_STAR.items():
        if kind == "upper_bound":
            got = m.capacity.upper_bound(M, N, prof).value
        else:
            got = m.capacity.gap(M, N, prof)
        out.append((f"{kind}({M},{N},mu*)", str(got), want))
    rc, text = run_cli(m, WORKED_EXAMPLE)
    rep = json.loads(text) if rc == 0 else {}
    got = (rep.get("upper_bound", {}).get("exact"), rep.get("best_rate", {}).get("exact"),
           rep.get("gap", {}).get("exact"))
    out.append(("wtcpir " + " ".join(WORKED_EXAMPLE) + " (upper, best, gap)", str(got),
                str(("6/17", "6/17", "0"))))
    return out


class Workload:
    name = ""
    why = ""

    def prepare(self, m, seed: int, workdir: Path) -> dict:
        """Set-up after import: input generation and files.  Plain data only."""
        return {"seed": seed, "workdir": workdir}

    def round_inputs(self, state: dict, r: int) -> list[dict]:
        raise NotImplementedError

    def op(self, m, state: dict, inp: dict):
        raise NotImplementedError

    def digest(self, inp: dict, raw) -> dict:
        """Reduce an op's output to what the check needs (outside the timer)."""
        return raw

    def check(self, m, inp: dict, dig: dict) -> str | None:
        """None if the output is right, else the reason it is not."""
        raise NotImplementedError

    def properties(self, inp: dict, dig: dict) -> dict:
        """The input properties that decide the op's cost."""
        raise NotImplementedError


class LpLadder(Workload):
    name = "lp-ladder"
    why = ("capacity.upper_bound + schemes.best_scheme at (M,N) = (5,4), (6,4), (7,4): "
           "the LP constraint pool (2*N^(M-1)+N constraint evaluations) dominates")
    SHAPES = ((5, 4), (6, 4), (7, 4))
    # The LP's cost depends on (M, N, mu) alone, and on mu through the number
    # of constraint-generation rounds (3 to 12 at (6,4), 0.25-0.64 s on a
    # 2-vCPU 2.1 GHz Xeon).  A run holds about 45 ops, so seeded draws of mu
    # moved a run's median by about 25%.  A round is therefore every shape
    # at every profile of a fixed family, in seeded order: mu* (nonzero gap
    # for M >= 5), a zero-gap profile at (7,4), a profile with a large mu,
    # one with tied ratios and one with evenly spaced ratios.  Since runs end
    # on round boundaries, every run holds the same mix.  The family is odd
    # in size: the run's median op is then the middle (6,4) op of the middle
    # profile's group, not a gap between two profiles' groups (with four
    # profiles the median jumped between 0.32 and 0.46 s).
    FAMILY = (MU_STAR, ("1/12", "1/3", "5/12", "2/3"), ("0", "1/2", "7/12", "3/4"),
              ("1/6", "1/4", "1/2", "1/2"), ("1/12", "1/6", "1/3", "1/2"))

    def round_inputs(self, state, r):
        ops = [{"M": M, "N": N, "mu": list(mu)} for mu in self.FAMILY for M, N in self.SHAPES]
        random.Random(f"{state['seed']}/{self.name}/{r}").shuffle(ops)
        return ops

    def op(self, m, state, inp):
        prof = m.schemes.EavesdropProfile(inp["mu"])
        ub = m.capacity.upper_bound(inp["M"], inp["N"], prof)
        _, rate = m.schemes.best_scheme(inp["M"], inp["N"], prof)
        return {"value": str(ub.value), "tau": [str(v) for v in ub.argmax_tau], "rate": str(rate)}

    def check(self, m, inp, dig):
        prof = m.schemes.EavesdropProfile(inp["mu"])
        value, rate = Fraction(dig["value"]), Fraction(dig["rate"])
        if m.capacity.inner_bound_at(dig["tau"], prof, inp["M"]) != value:
            return "inner_bound_at(argmax_tau) != value"
        if value < rate:
            return "value < best_rate"
        pinned = PINNED_AT_MU_STAR.get((inp["M"], inp["N"]))
        if tuple(inp["mu"]) == MU_STAR and pinned:
            kind, want = pinned
            got = value if kind == "upper_bound" else value - rate
            if got != Fraction(want):
                return f"{kind} at mu* is {got}, pinned {want}"
        return None

    def properties(self, inp, dig):
        return {"M": inp["M"], "N": inp["N"], "mu": inp["mu"], "pool": inp["N"] ** (inp["M"] - 1)}


class Retrieve(Workload):
    name = "retrieve"
    why = ("wtcpir plan --out then wtcpir simulate at M=5, N=3: GF(q) noise "
           "interpolation (mat_solve in decode) dominates; no LP runs")
    M, N = 5, 3
    # Every profile's plan carries a key of at least 24 symbols; uniform
    # draws often give keys of 0-3 symbols and ops under 2 ms, which measure
    # nothing.  (6,3) is left out (2.7 s per retrieval).  Op costs are spread
    # roughly evenly on a log scale from about 13 to 140 ms (2-vCPU 2.1 GHz
    # Xeon), about 1.25x apart, so the median op moves smoothly with the
    # machine's speed instead of jumping between two profiles' groups.
    FAMILY = (
        ("0", "0", "3/8"), ("1/4", "3/8", "3/4"), ("2/5", "2/5", "7/10"),
        ("1/12", "1/6", "3/4"), ("0", "3/8", "1/2"), ("0", "1/2", "1/2"),
        ("1/2", "1/2", "1/2"), ("0", "1/4", "1/2"), ("0", "5/12", "3/4"),
        ("1/2", "1/2", "2/3"), ("1/4", "1/4", "3/8"),
    )

    def prepare(self, m, seed, workdir):
        for mu in self.FAMILY:
            prof = m.schemes.EavesdropProfile(list(mu))
            g, _ = m.schemes.best_scheme(self.M, self.N, prof)
            if max(m.schemes.repetition_factor(g, prof).key_len) < 20:
                raise ValueError(f"profile {mu} has no key of 20 symbols or more")
        return {"seed": seed, "workdir": workdir}

    def round_inputs(self, state, r):
        rng = random.Random(f"{state['seed']}/{self.name}/{r}")
        order = list(self.FAMILY)
        rng.shuffle(order)
        return [{"M": self.M, "N": self.N, "mu": list(mu), "desired": rng.randint(1, self.M),
                 "plan_seed": rng.randrange(1 << 30), "sim_seed": rng.randrange(1 << 30)}
                for mu in order]

    def op(self, m, state, inp):
        path = str(state["workdir"] / "plan.json")
        rc1, out1 = run_cli(m, ["plan", "-M", str(inp["M"]), "-N", str(inp["N"]),
                                "--mu", ",".join(inp["mu"]), "--desired", str(inp["desired"]),
                                "--seed", str(inp["plan_seed"]), "--out", path])
        rc2, out2 = run_cli(m, ["simulate", "--plan", path, "--seed", str(inp["sim_seed"])])
        return rc1, rc2, out1 + out2, out2

    def digest(self, inp, raw):
        rc1, rc2, text, sim = raw
        dig = {"rc": [rc1, rc2], "stdout_bytes": len(text)}
        try:
            rep = json.loads(sim)
            dig.update(verdict=rep["verdict"], decoded=rep["transcript"]["decoded"],
                       q=rep["stats"]["q"], L=rep["stats"]["L"], t=rep["stats"]["t"],
                       key_len=rep["stats"]["key_len"])
        except (ValueError, KeyError) as exc:
            dig["error"] = f"simulate output: {exc!r}"
        return dig

    def check(self, m, inp, dig):
        if dig["rc"] != [0, 0] or "error" in dig:
            return f"exit codes {dig['rc']} {dig.get('error', '')}"
        store = m.protocol.random_store(inp["M"], dig["L"], dig["q"], inp["sim_seed"])
        if dig["verdict"] != "PASS" or list(store.messages[inp["desired"] - 1]) != dig["decoded"]:
            return "decoded message differs from the regenerated store"
        return None

    def properties(self, inp, dig):
        t, key = dig.get("t", []), dig.get("key_len", [])
        return {"M": inp["M"], "N": inp["N"], "mu": inp["mu"], "t": t, "key_len": key,
                "key_max": max(key, default=0), "obs_sets": observation_sets(inp["mu"], t)}


def shorter_key(doc: dict, database: int = 1) -> dict:
    """One pure-noise download replaced by a repeat of a meaningful sum, so
    the key is one symbol shorter than the eavesdropper's observation."""
    doc = json.loads(json.dumps(doc))
    qs = doc["databases"][database - 1]["queries"]
    i_noise = max(i for i, q in enumerate(qs) if not q["terms"])
    i_meaning = next(i for i, q in enumerate(qs) if q["terms"])
    qs[i_noise]["terms"] = qs[i_meaning]["terms"]
    return doc


def rewired_side_information(doc: dict) -> dict:
    """One side-information term of a desired-bearing sum redirected to a
    symbol mix that no database downloads, so decoding cannot resolve it."""
    doc = json.loads(json.dumps(doc))
    desired = doc["meta"]["desired"]
    dbs = [[[tuple(p) for p in q["terms"]] for q in db["queries"]] for db in doc["databases"]]
    blocks, singles = set(), set()
    for terms in (t for db in dbs for t in db):
        if terms and desired not in {mm for mm, _ in terms}:
            blocks.add(frozenset(terms))
            if len(terms) == 1:
                singles.add(terms[0])
    for d, db in enumerate(dbs):
        for i, terms in enumerate(db):
            if len(terms) < 3 or desired not in {mm for mm, _ in terms}:
                continue
            side = [p for p in terms if p[0] != desired]
            for other in (p for odb in dbs for t in odb for p in t):
                if other[0] != side[0][0] or other == side[0]:
                    continue
                new_side = frozenset([other] + side[1:])
                if new_side in blocks or all(p in singles for p in new_side):
                    continue  # still resolvable
                doc["databases"][d]["queries"][i]["terms"] = [
                    list(other if p == side[0] else p) for p in terms]
                return doc
    raise ValueError("no multi-term desired sum to rewire")


class Audit(Workload):
    name = "audit"
    why = ("wtcpir audit --plan on M=3, N=2 plans (honest, shorter key, rewired side "
           "information): mat_rank over observation sets dominates; the FAIL paths run")
    M, N, MU = 3, 2, ("1/4", "1/2")
    SETS = 3
    #: (privacy, security, decodability) each file kind must get.
    EXPECTED = {"honest": ("PASS", "PASS", "PASS"),
                "shorter-key": ("PASS", "FAIL", "PASS"),
                "rewired": ("PASS", "PASS", "FAIL")}

    def prepare(self, m, seed, workdir):
        rng = random.Random(f"{seed}/{self.name}")
        prof = m.schemes.EavesdropProfile(list(self.MU))
        g, _ = m.schemes.best_scheme(self.M, self.N, prof)
        files = []
        for i in range(self.SETS):
            plan = m.planner.build_plan(self.M, self.N, g, prof, desired=rng.randint(1, self.M),
                                        seed=rng.randrange(1 << 30))
            doc = json.loads(m.planner.plan_to_json(plan))
            docs = {"honest": doc, "shorter-key": shorter_key(doc),
                    "rewired": rewired_side_information(doc)}
            for kind, d in docs.items():
                path = workdir / f"{kind}-{i}.json"
                path.write_text(json.dumps(d, indent=2) + "\n", encoding="utf-8")
                qs = [db["queries"] for db in d["databases"]]
                files.append({"kind": kind, "path": str(path), "t": [len(q) for q in qs],
                              "key_len": [sum(1 for x in q if not x["terms"]) for q in qs]})
        return {"seed": seed, "workdir": workdir, "files": files}

    def round_inputs(self, state, r):
        rng = random.Random(f"{state['seed']}/{self.name}/{r}")
        i = r % self.SETS
        return [dict(f, audit_seed=rng.randrange(1 << 30)) for f in state["files"][3 * i:3 * i + 3]]

    def op(self, m, state, inp):
        return run_cli(m, ["audit", "--plan", inp["path"], "--seed", str(inp["audit_seed"])])

    def digest(self, inp, raw):
        rc, text = raw
        dig = {"rc": rc, "stdout_bytes": len(text)}
        try:
            rep = json.loads(text)
            dig["status"] = rep["status"]
            dig["verdicts"] = [rep[k]["status"] for k in ("privacy", "security", "decodability")]
        except (ValueError, KeyError) as exc:
            dig["error"] = f"audit output: {exc!r}"
        return dig

    def check(self, m, inp, dig):
        want = list(self.EXPECTED[inp["kind"]])
        honest = inp["kind"] == "honest"
        if ("error" in dig or dig["verdicts"] != want or dig["rc"] != (0 if honest else 1)
                or dig["status"] != ("PASS" if honest else "FAIL")):
            return f"{inp['kind']}: got {dig.get('verdicts')} exit {dig['rc']}, want {want}"
        return None

    def properties(self, inp, dig):
        mu = list(self.MU)
        return {"M": self.M, "N": self.N, "mu": mu, "kind": inp["kind"], "t": inp["t"],
                "key_len": inp["key_len"], "key_max": max(inp["key_len"]),
                "obs_sets": observation_sets(mu, inp["t"])}


WORKLOADS = {w.name: w for w in (LpLadder(), Retrieve(), Audit())}
