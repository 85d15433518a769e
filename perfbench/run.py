"""G-COPSS cost ledger: end-to-end and per-layer benchmark.

Usage::

    python3 perfbench/run.py --workload fig6-backbone --seed 42 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --rounds 3      # every workload, rotating order

Each iteration runs in a fresh interpreter (``iteration.py``); this
process only schedules iterations, checks their outputs and reports.
A run repeats its workload for ``--seconds`` (and at least
:data:`MIN_ROUNDS` times), then reports medians.  Bounded timings are
in reference-host seconds: each iteration samples the host's speed
while it runs and divides its host seconds by the slowdown it saw
(``hostspeed.py``); the raw host timings are printed as ``*_host_*``.
With ``--trace 1`` it alternates untraced and traced iterations,
swapping which goes first each round, and reports the per-layer block plus
``trace_overhead_ratio``; the end-to-end numbers always come from
untraced iterations.

Every iteration's digest and counters must equal every other
iteration's (traced or not), the workload's independent oracle and,
where one exists for the seed, the committed reference
(``references.json``).  Any mismatch makes the run exit 1.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` where ``attempted``
counts expected deliveries and ``failed`` the missed or mismatched ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ["fig6-backbone", "scale-fanout", "federation-proc2", "scenario-matrix"]
DEFAULT_SEEDS = {
    "fig6-backbone": 42,
    "scale-fanout": 11,
    "federation-proc2": 11,
    "scenario-matrix": 1,
}
#: Reported with ``--trace 0`` (name -> unit); see BENCHMARK.json.
#: Their seconds are reference-host seconds (``hostspeed.py``).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "deliveries_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Printed with the end-to-end table but not bounded: raw host timings
#: (``*_host_*``) swing with the host's speed, simulated outputs are
#: exact per seed, and worker RSS exists on one workload only.
REPORTED = {
    "host_slowdown": "ratio",
    "setup_host_s": "s",
    "wall_host_s": "s",
    "deliveries_per_host_s": "1/s",
    "worker_peak_rss_mb": "MB",
    "update_latency_p50_ms": "sim_ms",
    "update_latency_p95_ms": "sim_ms",
    "network_mb": "MB",
    "delivery_fail_ratio": "ratio",
}
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
#: A run stops starting iterations once this much time has gone, and
#: kills any iteration still running at the deadline.
BUDGET_S = 140.0
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong program output)."""


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(seeds: Dict[str, int], iterations: Dict[str, int]) -> dict:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # The checkout may not be a git repository: hash the sources too.
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode())
        tree.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": tree.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seeds": seeds,
        "iterations": iterations,
    }


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------
def iterate(workload: str, seed: int, traced: bool, tiny: bool, outdir: Path,
            deadline: float) -> dict:
    """Run one iteration in a fresh interpreter and return its record."""
    cmd = [
        sys.executable, str(HERE / "iteration.py"), workload, str(seed),
        "1" if traced else "0", "1" if tiny else "0", str(outdir),
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} iteration ran past the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} iteration exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, tiny: bool, started: float
) -> dict:
    """Repeat ``workload`` for ``seconds``; return plain/traced records."""
    # Scratch space for proc workers' layer files, removed after the run.
    outdir = OUT / f"{workload}-s{seed}-{os.getpid()}"
    try:
        return _repeat(workload, seed, seconds, traced, tiny, started, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _repeat(workload: str, seed: int, seconds: float, traced: bool, tiny: bool,
            started: float, outdir: Path) -> dict:
    arms = ["plain", "traced"] if traced else ["plain"]
    records: Dict[str, List[dict]] = {arm: [] for arm in arms}
    deadline = started + DEADLINE_S
    reference = None
    if workload == "federation-proc2":
        reference = iterate("serial-reference", seed, False, tiny, outdir, deadline)["digest"]
    start = time.monotonic()
    rounds = 0
    minimum = MIN_TRACED_ROUNDS if traced else MIN_ROUNDS
    while True:
        round_start = time.monotonic()
        # Swap the arm order every round: neither arm always runs first.
        for arm in arms if rounds % 2 == 0 else arms[::-1]:
            iteration_dir = outdir / f"{arm}-{rounds}"
            records[arm].append(
                iterate(workload, seed, arm == "traced", tiny, iteration_dir, deadline)
            )
        rounds += 1
        now = time.monotonic()
        # Start another round only if it should end within --seconds.
        next_end = now + (now - round_start)
        if rounds >= minimum and next_end - start > seconds:
            break
        if next_end - started > BUDGET_S:
            break
    return {"records": records, "serial_digest": reference}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check(workload: str, seed: int, tiny: bool, result: dict, references: dict) -> dict:
    """Compare every iteration with the others, the oracle and the reference."""
    records = [r for arm in result["records"].values() for r in arm]
    first = records[0]
    ref = references.get(workload, {})
    problems: List[str] = []
    failed = 0
    attempted = 0
    for record in records:
        attempted += record["expected"]
        bad = list(record["errors"])
        if record["digest"] != first["digest"] or record["counters"] != first["counters"]:
            bad.append(f"iteration {record['pid']} differs from iteration {first['pid']}")
        if result["serial_digest"] is not None and record["digest"] != result["serial_digest"]:
            bad.append("proc:2 digest != serial digest of the same spec")
        if not tiny and seed == ref.get("seed"):
            if "counters" in ref:
                mine = {k: record["counters"].get(k) for k in ref["counters"]}
                if mine != ref["counters"]:
                    bad.append(f"counters {mine} != reference {ref['counters']}")
            if "digest" in ref and record["digest"] != ref["digest"]:
                bad.append(f"digest {record['digest']} != reference {ref['digest']}")
        if not tiny and "cells" in ref:
            # The matrix inputs do not depend on the seed: check every run.
            cells = record["counters"]["cells"]
            wrong = sorted(k for k in ref["cells"] if cells.get(k) != ref["cells"][k])
            if wrong or set(cells) != set(ref["cells"]):
                bad.append(f"scenario cells differ from reference: {wrong}")
        # A mismatched iteration fails every delivery it was expected to make.
        failed += record["expected"] if bad else record["permanent_misses"]
        problems.extend(bad)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "reference_checked": (not tiny) and (seed == ref.get("seed") or "cells" in ref),
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def summarize(workload: str, result: dict, verdict: dict) -> Dict[str, dict]:
    plain = result["records"]["plain"]
    first = plain[0]
    metrics: Dict[str, dict] = {}
    for name, unit in END_TO_END.items():
        metrics[name] = {"value": statistics.median([r[name] for r in plain]), "unit": unit}
    extra = {
        name: statistics.median([r[name] for r in plain])
        for name in ("host_slowdown", "setup_host_s", "wall_host_s", "deliveries_per_host_s")
    }
    extra.update({
        "worker_peak_rss_mb": (
            statistics.median([r["worker_peak_rss_mb"] for r in plain])
            if first["worker_peak_rss_mb"] is not None else None
        ),
        "update_latency_p50_ms": first["update_latency_p50_ms"],
        "update_latency_p95_ms": first["update_latency_p95_ms"],
        "network_mb": first["network_mb"],
        "delivery_fail_ratio": verdict["failed"] / max(verdict["attempted"], 1),
    })
    for name, unit in REPORTED.items():
        metrics[name] = {"value": extra[name], "unit": unit}
    return metrics


def layer_summary(result: dict) -> Dict[str, dict]:
    traced = result["records"].get("traced")
    if not traced:
        return {}
    plain = result["records"]["plain"]
    layers: Dict[str, dict] = {}
    for name in traced[0]["layers"]:
        layers[name] = {"value": statistics.median([r["layers"][name] for r in traced]), "unit": layer_unit(name)}
    layers["parallel.procpool.worker_peak_rss_mb"] = {
        "value": statistics.median([r["worker_peak_rss_mb"] or 0.0 for r in plain]), "unit": "MB"
    }
    layers["trace_overhead_ratio"] = {
        "value": statistics.median([r["wall_s"] for r in traced]) / statistics.median([r["wall_s"] for r in plain]),
        "unit": "ratio",
    }
    return layers


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_delivery", "_per_replicate")):
        return "ratio"
    if name.endswith("bytes_in"):
        return "B"
    return "count"


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(workload: str, seed: int, result: dict, verdict: dict, metrics: dict, layers: dict) -> None:
    plain = result["records"]["plain"]
    first = plain[0]
    traced = result["records"].get("traced", [])
    print(f"== {workload}  seed={seed}  iterations: {len(plain)} untraced, {len(traced)} traced")
    print(f"   digest   {first['digest']}")
    print(f"   counters {json.dumps(first['counters'], sort_keys=True, default=str)}")
    if result["serial_digest"] is not None:
        print(f"   serial   {result['serial_digest']}")
    print("   wall_host_s per iteration: " + " ".join(f"{r['wall_host_s']:.3f}" for r in plain))
    print("   wall_s per iteration:      " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    print(f"   reference checked: {verdict['reference_checked']}; "
          f"latency samples: {first['latency_samples']}")
    for problem in verdict["problems"]:
        print(f"   MISMATCH {problem}")
    for name, m in metrics.items():
        print(f"   {name:<28} {fmt(m['value']):>14} {m['unit']}")
    for name, m in layers.items():
        print(f"   {name:<44} {fmt(m['value']):>14} {m['unit']}")


def write_out(workload: str, seed: int, traced: bool, payload: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(payload, indent=1, default=str))


def bench(workload: str, seed: int, seconds: float, traced: bool, tiny: bool,
          references: dict, started: float) -> dict:
    result = run_workload(workload, seed, seconds, traced, tiny, started)
    verdict = check(workload, seed, tiny, result, references)
    metrics = summarize(workload, result, verdict)
    layers = layer_summary(result)
    report(workload, seed, result, verdict, metrics, layers)
    write_out(workload, seed, traced, {
        "provenance": provenance({workload: seed}, {
            arm: len(recs) for arm, recs in result["records"].items()
        }),
        "verdict": verdict,
        "metrics": metrics,
        "layers": layers,
        "records": result["records"],
        "serial_digest": result["serial_digest"],
    })
    return {"verdict": verdict, "metrics": metrics, "layers": layers}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the seed of the committed reference)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure each workload for this long (per round with --workload all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=1,
                        help="with --workload all: rounds, rotating the workload order")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, no committed references (self-test)")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())

    if args.workload != "all":
        seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
        print(json.dumps({"provenance": provenance({args.workload: seed}, {})}))
        try:
            out = bench(args.workload, seed, args.seconds, bool(args.trace), args.tiny,
                        references, started)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        verdict = out["verdict"]
        if args.trace:
            chosen = out["layers"]
        else:
            chosen = {k: out["metrics"][k] for k in END_TO_END}
        correct = verdict["failed"] == 0 and not verdict["problems"]
        print(json.dumps({
            "correct": correct,
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": chosen,
        }))
        return 0 if correct else 1

    # Every workload, several rounds; rotate the order so that no
    # workload always runs first (the cold-start artifact).
    seeds = {w: DEFAULT_SEEDS[w] if args.seed is None else args.seed for w in WORKLOADS}
    print(json.dumps({"provenance": provenance(seeds, {"rounds": args.rounds})}))
    totals = {"attempted": 0, "failed": 0, "problems": 0}
    combined: Dict[str, dict] = {}
    for round_index in range(args.rounds):
        shift = round_index % len(WORKLOADS)
        for workload in WORKLOADS[shift:] + WORKLOADS[:shift]:
            try:
                out = bench(workload, seeds[workload], args.seconds, bool(args.trace),
                            args.tiny, references, time.monotonic())
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            verdict = out["verdict"]
            totals["attempted"] += verdict["attempted"]
            totals["failed"] += verdict["failed"]
            totals["problems"] += len(verdict["problems"])
            for name, metric in out["metrics"].items():
                combined[f"{workload}/r{round_index}/{name}"] = metric
    correct = totals["failed"] == 0 and totals["problems"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": combined,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
