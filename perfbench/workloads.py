"""The four benchmark workloads, driven through public entry points only.

Each workload is a function ``(seed, tiny, tracer, ctx) -> Outcome``.
It generates its inputs from ``seed``, runs them through the program
(``run_gcopss_backbone``, ``run_scale`` or ``run_scenario``) and
returns what the program produced plus what an independent oracle
expects.  Timing marks come from the phase hooks ``iteration.py``
installs; the workload itself never touches ``src/``.

Why each workload exists is written down in ``README.md`` next to this
file.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List


@dataclass
class Outcome:
    """What one iteration of a workload produced."""

    deliveries: int
    #: Deliveries an independent oracle expects for the same inputs.
    expected: int
    #: Expected deliveries the program judged permanently missed.
    permanent_misses: int
    #: Delivery digest (or a counters fingerprint where the program has none).
    digest: str
    #: Everything else two commits must reproduce bit for bit.
    counters: Dict[str, object]
    latencies: List[float]
    network_bytes: int
    #: perf_counter() at which the first publish could run.
    setup_end: float
    #: Layer facts the workload can read off the program's own results.
    facts: Dict[str, float] = field(default_factory=dict)
    #: Problems the oracle found (empty when the outputs are right).
    errors: List[str] = field(default_factory=list)


def fingerprint(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# fig6-backbone
# ----------------------------------------------------------------------
FIG6 = {"players": 414, "updates": 1200, "num_rps": 3}
FIG6_TINY = {"players": 40, "updates": 60, "num_rps": 3}
#: The game map is the fixed level the paper's trace was recorded on;
#: the seed draws the placement and the trace on it.  A per-seed map
#: would also change the CD hierarchy, which widens the spread of
#: deliveries per run over seeds 1-10 from 5.5 % to 8.6 % (IQR/median).
FIG6_MAP_SEED = 42


def fig6_backbone(seed: int, tiny: bool, tracer, ctx) -> Outcome:
    from repro.experiments.common import run_gcopss_backbone, subscribers_by_leaf_cd
    from repro.game.map import GameMap
    from repro.trace.generator import CounterStrikeTraceGenerator, peak_trace_spec

    size = FIG6_TINY if tiny else FIG6
    updates = size["updates"]
    game_map = GameMap(seed=FIG6_MAP_SEED)
    base = CounterStrikeTraceGenerator(
        game_map, peak_trace_spec(num_updates=updates, seed=seed)
    )
    generator = base.rescale_players(size["players"], scale_rate=False, num_updates=updates)
    events = generator.generate()
    result = run_gcopss_backbone(
        events, game_map, generator.placement, num_rps=size["num_rps"]
    )
    counters = {
        "deliveries": result.deliveries,
        "updates_received": result.extras["updates_received"],
        "false_positive_forwards": result.extras["false_positive_forwards"],
        "duplicate_multicasts_dropped": result.extras["duplicate_multicasts_dropped"],
        "network_bytes": result.network_bytes,
        "network_packets": result.extras["network_packets"],
        "latency_mean_ms": round(result.latency.mean, 6),
        "sim_events": result.extras["sim_events"],
        "decapsulations": result.extras["decapsulations"],
    }
    digest = fingerprint(counters)
    ctx["done"] = tracer.now()

    # Oracle: every player whose visible leaf CDs cover the event's CD
    # receives it exactly once, except the publisher itself.
    subscribers = subscribers_by_leaf_cd(game_map, generator.placement)
    expected = 0
    for event in events:
        members = subscribers[event.cd]
        expected += len(members) - (event.player in members)
    errors = []
    if result.deliveries != expected:
        errors.append(f"deliveries {result.deliveries} != oracle {expected}")
    if result.extras["updates_received"] != result.deliveries:
        errors.append("updates_received != recorded deliveries")
    return Outcome(
        deliveries=result.deliveries,
        expected=expected,
        permanent_misses=max(0, expected - result.deliveries),
        digest=digest,
        counters=counters,
        latencies=sorted(result.latency.samples),
        network_bytes=result.network_bytes,
        setup_end=tracer.marks["publish_ready"],
        facts={"sim.engine.events": result.extras["sim_events"]},
        errors=errors,
    )


# ----------------------------------------------------------------------
# scale-fanout and federation-proc2 (ScaleSpec worlds through run_scale)
# ----------------------------------------------------------------------
def scale_spec(seed: int, tiny: bool):
    """The flat region-ring world: every publish fans out to 1 000 hosts.

    ``world_fraction=0`` keeps each publish region-local, so every
    publish has exactly ``players / regions - 1`` receivers and the work
    per run does not depend on the seed.
    """
    from repro.parallel.scale import ScaleSpec

    return ScaleSpec(
        players=200 if tiny else 4_000,
        regions=4,
        access_per_region=8,
        updates=20 if tiny else 200,
        seed=seed,
        world_fraction=0.0,
    )


def federation_spec(seed: int, tiny: bool):
    """Skewed zones, autoscaler live, 20 % cross-region publishes."""
    from repro.parallel.scale import FederationSpec

    return FederationSpec(
        players=240 if tiny else 1_600,
        regions=4,
        access_per_region=4,
        updates=200 if tiny else 2_000,
        seed=seed,
        world_fraction=0.0,
        publish_interval_ms=0.5,
        zones_per_region=8,
        skewed_placement=True,
        remote_fraction=0.2,
        autoscale=True,
        autoscale_sample_ms=100.0,
        autoscale_min_interval_ms=400.0,
    )


def scale_oracle(spec) -> int:
    """Deliveries implied by the spec's subscriptions (publisher excluded)."""
    from repro.parallel.scale import scale_events

    # Bypass the trace.generate phase hook: the oracle is not the program.
    scale_events = getattr(scale_events, "__wrapped__", scale_events)
    total_access = spec.regions * spec.access_per_region
    subscribed: Dict[str, set] = {}
    members: Counter = Counter()
    for i in range(spec.players):
        name = f"p{i:06d}"
        region = (i % total_access) // spec.access_per_region
        cds = {str(cd) for cd in spec.subscriptions_for(region, name)}
        subscribed[name] = cds
        members.update(cds)
    return sum(
        members[cd] - (cd in subscribed[player])
        for _time, player, cd in scale_events(spec)
    )


def _scale_outcome(spec, result: dict, setup_end: float, tracer, ctx) -> Outcome:
    ctx["done"] = tracer.now()
    expected = scale_oracle(spec)
    errors = []
    if result["deliveries"] != expected:
        errors.append(f"deliveries {result['deliveries']} != oracle {expected}")
    counters = {
        "deliveries": result["deliveries"],
        "events_processed": result["events_processed"],
        "network_bytes": result["network_bytes"],
        "network_packets": result["network_packets"],
        "latency": result["latency"],
        "federation": result.get("federation"),
    }
    executor = result.get("executor") or {}
    facts = {"sim.engine.events": result["events_processed"]}
    if result.get("federation"):
        facts["core.federation.actions"] = result["federation"]["actions"]
        facts["core.federation.skipped_unsafe"] = result["federation"]["skipped_unsafe"]
    if executor.get("windows_run") is not None and result.get("mode", "").startswith("proc"):
        facts["parallel.procpool.windows"] = executor["windows_run"]
        facts["parallel.procpool.transit_messages"] = executor["transit_messages"]
    return Outcome(
        deliveries=result["deliveries"],
        expected=expected,
        permanent_misses=max(0, expected - result["deliveries"]),
        digest=result["digest"],
        counters=counters,
        latencies=ctx.pop("latencies"),
        network_bytes=result["network_bytes"],
        setup_end=setup_end,
        facts=facts,
        errors=errors,
    )


def scale_fanout(seed: int, tiny: bool, tracer, ctx) -> Outcome:
    from repro.parallel.scale import run_scale

    spec = scale_spec(seed, tiny)
    result = run_scale(spec)
    return _scale_outcome(spec, result, tracer.marks["publish_ready"], tracer, ctx)


def federation_proc2(seed: int, tiny: bool, tracer, ctx) -> Outcome:
    from repro.parallel.scale import run_scale

    spec = federation_spec(seed, tiny)
    result = run_scale(spec, shards=2, workers=2)
    if result.get("fallback"):
        raise RuntimeError(f"proc:2 did not fork: {result['fallback']}")
    return _scale_outcome(spec, result, tracer.marks["workers_ready"], tracer, ctx)


def federation_serial_digest(seed: int, tiny: bool) -> str:
    """The reference for federation-proc2: the serial run of the same spec."""
    from repro.parallel.scale import run_scale

    return run_scale(federation_spec(seed, tiny))["digest"]


# ----------------------------------------------------------------------
# scenario-matrix
# ----------------------------------------------------------------------
SCENARIOS = ["autoscale-storm", "churn", "day-night", "flash-crowd", "mobility"]
PLANS = ["link-flap", "none", "rp-crash", "rp-split-burst", "rp-split-lossy"]
#: The committed matrix: every scenario under every plan, seed 1, scale 1.
MATRIX_SEED = 1
MATRIX_SCALE = 1.0
TINY_CELLS = [("flash-crowd", "none"), ("churn", "rp-split-lossy")]
TINY_SCALE = 0.1


def matrix_cells(seed: int, tiny: bool) -> List[tuple]:
    """The cells in run order.  The committed cells are fixed; ``seed``
    only shuffles the order, so no cell always runs first."""
    cells = list(TINY_CELLS) if tiny else [(s, p) for s in SCENARIOS for p in PLANS]
    random.Random(seed).shuffle(cells)
    return cells


def scenario_matrix(seed: int, tiny: bool, tracer, ctx) -> Outcome:
    from repro.experiments.scenarios.harness import run_scenario

    scale = TINY_SCALE if tiny else MATRIX_SCALE
    setup = 0.0
    digests: Dict[str, str] = {}
    deliveries = expected = misses = 0
    network_bytes = injected = violations = 0
    errors: List[str] = []
    latencies: List[float] = []
    for scenario, plan in matrix_cells(seed, tiny):
        start = tracer.now()
        report = run_scenario(
            scenario=scenario, plan_name=plan, seed=MATRIX_SEED, scale=scale
        )
        setup += tracer.marks["publish_ready"] - start
        key = f"{scenario}|{plan}|{MATRIX_SEED}"
        digests[key] = report.digest()
        deliveries += report.deliveries_got
        expected += report.deliveries_expected
        misses += report.permanent_misses
        network_bytes += tracer.networks[-1].total_bytes
        injected += report.fault_stats.get("dropped", 0)
        violations += sum(report.verdict["violation_kinds"].values())
        latencies.extend(ctx.pop("latencies"))
        if not report.invariant_ok:
            errors.append(f"{key}: invariants failed {report.verdict['violation_kinds']}")
    ctx["done"] = tracer.now()
    latencies.sort()
    return Outcome(
        deliveries=deliveries,
        expected=expected,
        permanent_misses=misses,
        digest=fingerprint(sorted(digests.items())),
        counters={"cells": dict(sorted(digests.items())), "deliveries": deliveries},
        latencies=latencies,
        network_bytes=network_bytes,
        # Sum of the per-cell set-ups: the matrix pays one per cell.
        setup_end=ctx["start"] + setup,
        facts={
            "sim.faults.injected_drops": injected,
            "sim.invariants.violations": violations,
        },
        errors=errors,
    )


WORKLOADS: Dict[str, Callable] = {
    "fig6-backbone": fig6_backbone,
    "scale-fanout": scale_fanout,
    "federation-proc2": federation_proc2,
    "scenario-matrix": scenario_matrix,
}
