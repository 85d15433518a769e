"""One benchmark iteration in a fresh interpreter.

Usage: ``python3 perfbench/iteration.py WORKLOAD SEED TRACED TINY OUTDIR``

Prints one JSON object: host timings, peak RSS, the program's outputs
(digest, counters) and, when ``TRACED`` is 1, the per-layer block.  The
parent (``run.py``) starts one of these per iteration, because a user
pays interning, memo warm-up and peak RSS on every CLI run.

Workload ``serial-reference`` runs the serial twin of
``federation-proc2`` and prints only its digest.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from hostspeed import HostSpeed  # noqa: E402
from layers import LayerTracer, perf  # noqa: E402

#: Worker boundaries measured on the coordinator side only.
_COORDINATOR_ONLY = ("parallel.",)


def _network_counters(networks) -> dict:
    """Counters the program keeps on its own nodes, summed over worlds."""
    from repro.core.engine import GCopssRouter

    totals = dict(
        events=0, served=0, peak_len=0, decaps=0, forwards=0, false_positives=0
    )
    for network in networks:
        totals["events"] += network.sim.events_processed
        for node in network.nodes.values():
            if not isinstance(node, GCopssRouter):
                continue
            queue = node.queue
            totals["served"] += queue.served
            totals["peak_len"] = max(totals["peak_len"], queue.peak_queue_length)
            totals["decaps"] += node.decapsulations
            totals["forwards"] += node.multicasts_forwarded
            totals["false_positives"] += node.st.false_positive_forwards
    return totals


def install_phase_hooks(
    tracer: LayerTracer, speed: HostSpeed, workload: str, ctx: dict, outdir: Path
) -> None:
    """Once-per-run boundaries and worker host speed; installed traced or not."""
    import repro.experiments.common as common
    import repro.experiments.scenarios.base as scenario_base
    import repro.experiments.scenarios.harness as harness
    import repro.parallel.scale as scale
    import repro.parallel.slicing as slicing
    import repro.parallel.wire as wire
    from repro.core.engine import GCopssNetworkBuilder
    from repro.parallel.digest import DeliveryLog
    from repro.sim.engine import SerialExecutor
    from repro.sim.network import Network
    from repro.trace.generator import CounterStrikeTraceGenerator

    def keep_network(_result, args, _cell) -> None:
        tracer.networks.append(args[0].network)

    def keep_latencies(result, _args, _cell) -> None:
        ctx["latencies"] = result

    def keep_recorder(_result, args, _cell) -> None:
        ctx["latencies"] = sorted(args[0].samples)

    tracer.phase(CounterStrikeTraceGenerator, "generate", "trace.generate")
    tracer.phase(scale, "scale_events", "trace.generate")
    tracer.phase(scenario_base.Scenario, "__call__", "trace.generate")
    tracer.phase(common, "build_backbone", "topology.build")
    tracer.phase(scale, "build_scale_world", "topology.build")
    tracer.phase(harness, "build_benchmark_topology", "topology.build")
    tracer.phase(GCopssNetworkBuilder, "install", "core.engine.install", keep_network)
    tracer.phase(DeliveryLog, "digest", "parallel.digest")
    tracer.phase(DeliveryLog, "latencies", "experiments.latencies", keep_latencies)
    tracer.phase(harness, "summarize", "experiments.summarize", keep_recorder)

    # A forked worker starts by building its slice: forget the parent's
    # numbers there, then time the build like any other.
    build_shard = slicing.build_scale_shard

    def reset_then_build(*args, **kwargs):
        tracer.fork_reset()
        speed.fork_reset()
        return build_shard(*args, **kwargs)

    slicing.build_scale_shard = reset_then_build

    # A proc worker hands its host-speed samples over in a file just
    # before it sends its result frame; the wire itself stays untouched.
    coordinator = os.getpid()
    encode_result = wire.encode_result

    def ship_speed(*args, **kwargs):
        if os.getpid() != coordinator:
            (outdir / f"speed-{os.getpid()}.json").write_text(json.dumps(speed.samples))
        return encode_result(*args, **kwargs)

    wire.encode_result = ship_speed
    tracer.phase(
        slicing,
        "build_scale_shard",
        "topology.build",
        lambda world, _args, _cell: tracer.networks.append(world.network),
    )

    # "First publish can run": after subscription convergence (backbone,
    # scenarios), when the serial run loop starts (scale), or when the
    # last proc worker reported ready.
    if workload in ("fig6-backbone", "scenario-matrix"):
        tracer.mark_on_call(Network, "reset_counters", "publish_ready")
    elif workload == "scale-fanout":
        tracer.mark_on_call(SerialExecutor, "run", "publish_ready")
    else:
        tracer.mark_on_call(wire, "decode_ready", "workers_ready")


def install_probes(tracer: LayerTracer, outdir: Path) -> None:
    """Per-packet boundaries: aggregated counts and self time only."""
    import multiprocessing.connection as mpc

    import networkx

    import repro.parallel.wire as wire
    from repro.core.dedup import BoundedUidSet
    from repro.core.engine import GCopssRouter
    from repro.core.federation import AutoscalerRole
    from repro.core.planes import ForwardingPlane
    from repro.core.subscriptions import SubscriptionTable
    from repro.parallel.digest import DeliveryLog
    from repro.sim.engine import Simulator
    from repro.sim.faults import FaultInjector
    from repro.sim.invariants import InvariantMonitor
    from repro.sim.network import Face
    from repro.sim.queues import ServiceQueue
    from repro.sim.stats import LatencyRecorder

    def count_faces(result, _args, cell) -> None:
        cell[2] += len(result)

    def count_flushed(result, _args, cell) -> None:
        cell[2] += result if isinstance(result, int) else len(result)

    def count_bytes(_result, args, cell) -> None:
        cell[2] += len(args[0])

    tracer.probe(Simulator, "run", "sim.engine.run")
    tracer.probe(Face, "send", "sim.network.send")
    tracer.probe(GCopssRouter, "receive", "core.engine.receive")
    tracer.probe(ForwardingPlane, "replicate", "core.planes.replicate")
    tracer.probe(SubscriptionTable, "match", "core.subscriptions.match", after=count_faces)
    # The memo's miss path: the only way to tell hits from misses outside.
    tracer.probe(SubscriptionTable, "_match_packed", "core.subscriptions.memo_miss")
    tracer.probe(BoundedUidSet, "add", "core.dedup.add")
    tracer.probe(LatencyRecorder, "record", "experiments.record")
    tracer.probe(DeliveryLog, "record", "experiments.record")
    tracer.probe(ServiceQueue, "flush", "sim.queues.flush", after=count_flushed)
    tracer.probe(ServiceQueue, "drain_pending", "sim.queues.flush", after=count_flushed)
    tracer.probe(networkx, "shortest_path", "topology.shortest_path")
    tracer.probe(networkx, "single_source_dijkstra_path", "topology.shortest_path")
    # The autoscaler's sampling tick (private: the loop has no public seam).
    tracer.probe(AutoscalerRole, "_tick", "core.federation.sample")
    for name in (
        "on_publish", "on_deliver", "on_forward", "on_fault_drop", "on_enqueue",
        "on_service", "on_decap", "on_drop", "check_subscription_tables",
        "check_ownership", "verdict",
    ):
        tracer.probe(InvariantMonitor, name, "sim.invariants.check")
    for name in ("decode_ready", "decode_done", "decode_result"):
        tracer.probe(wire, name, "parallel.wire.decode", after=count_bytes)
    tracer.probe(mpc.Connection, "recv_bytes", "parallel.procpool.recv")

    # Fault hooks are per-link closures armed by FaultInjector.install.
    hook_cell = tracer.stats.setdefault("sim.faults.hook", [0, 0.0, 0])

    def count_hooks(_result, args, _cell) -> None:
        for link in args[0].network.links:
            hook = link.fault_hook
            if hook is None:
                continue

            def counted(face, packet, _hook=hook):
                hook_cell[0] += 1
                return _hook(face, packet)

            link.fault_hook = counted

    tracer.probe(FaultInjector, "install", "sim.faults.install", after=count_hooks)

    # A proc worker hands its aggregates over in a file just before it
    # sends its result frame; the wire itself stays untouched.
    coordinator = os.getpid()
    encode_result = wire.encode_result

    def ship(*args, **kwargs):
        if os.getpid() != coordinator:
            stats = {
                b: cell for b, cell in tracer.stats.items()
                if not b.startswith(_COORDINATOR_ONLY)
            }
            payload = {"stats": stats, "network": _network_counters(tracer.networks)}
            (outdir / f"worker-{os.getpid()}.json").write_text(json.dumps(payload))
        return encode_result(*args, **kwargs)

    wire.encode_result = ship


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    n = len(sorted_values)
    return sorted_values[min(n - 1, int(n * q))]


def layer_metrics(tracer: LayerTracer, outcome, outdir: Path, wall: float) -> dict:
    """The per-layer block of one traced iteration.

    A layer that only some workloads reach reports its self time as a
    share of ``wall`` (``*_share``): in seconds it would read exactly 0
    on every run of the other workloads.
    """
    net = _network_counters(tracer.networks)
    for path in sorted(outdir.glob("worker-*.json")):
        worker = json.loads(path.read_text())
        tracer.merge_stats(worker["stats"])
        for key, value in worker["network"].items():
            net[key] = max(net[key], value) if key == "peak_len" else net[key] + value
    facts = outcome.facts
    deliveries = max(outcome.deliveries, 1)
    events = facts.get("sim.engine.events", net["events"])
    sends = tracer.calls("sim.network.send")
    replicates = tracer.calls("core.planes.replicate")
    matches = tracer.calls("core.subscriptions.match")
    faces_matched = tracer.extra("core.subscriptions.match")
    digested = tracer.calls("parallel.digest")
    return {
        "sim.engine.run_self_s": tracer.self_s("sim.engine.run"),
        "sim.engine.events": events,
        "sim.engine.events_per_delivery": events / deliveries,
        "sim.network.sends": sends,
        "sim.network.send_self_s": tracer.self_s("sim.network.send"),
        "sim.network.sends_per_delivery": sends / deliveries,
        "core.engine.receive_calls": tracer.calls("core.engine.receive"),
        "core.engine.receive_self_s": tracer.self_s("core.engine.receive"),
        "core.planes.replicate_calls": replicates,
        "core.planes.fanout_per_replicate": net["forwards"] / replicates if replicates else 0.0,
        "core.subscriptions.match_calls": matches,
        "core.subscriptions.match_s": tracer.self_s(
            "core.subscriptions.match", "core.subscriptions.memo_miss"
        ),
        "core.subscriptions.memo_hit_ratio": (
            1.0 - tracer.calls("core.subscriptions.memo_miss") / matches if matches else 0.0
        ),
        "core.subscriptions.false_positive_ratio": (
            net["false_positives"] / faces_matched if faces_matched else 0.0
        ),
        "core.dedup.add_calls": tracer.calls("core.dedup.add"),
        "core.dedup.add_s": tracer.self_s("core.dedup.add"),
        "experiments.record_calls": tracer.calls("experiments.record"),
        "experiments.record_s": tracer.self_s("experiments.record"),
        "parallel.digest.entries": outcome.deliveries if digested else 0,
        "parallel.digest.digest_share": tracer.self_s("parallel.digest") / wall,
        "topology.build_s": tracer.self_s("topology.build"),
        "topology.shortest_path_calls": tracer.calls("topology.shortest_path"),
        "topology.shortest_path_share": tracer.self_s("topology.shortest_path") / wall,
        "core.engine.install_share": tracer.self_s("core.engine.install") / wall,
        "trace.generate_s": tracer.self_s("trace.generate"),
        "sim.queues.served": net["served"],
        "sim.queues.peak_len": net["peak_len"],
        "sim.queues.drops": tracer.extra("sim.queues.flush"),
        "core.engine.decapsulations": net["decaps"],
        "core.federation.actions": facts.get("core.federation.actions", 0),
        "core.federation.skipped_unsafe": facts.get("core.federation.skipped_unsafe", 0),
        "core.federation.sample_share": tracer.self_s("core.federation.sample") / wall,
        "parallel.procpool.windows": facts.get("parallel.procpool.windows", 0),
        "parallel.procpool.transit_messages": facts.get("parallel.procpool.transit_messages", 0),
        "parallel.procpool.recv_wait_share": (
            tracer.self_s("parallel.procpool.recv") / wall
            if "parallel.procpool.windows" in facts else 0.0
        ),
        "parallel.wire.decode_calls": tracer.calls("parallel.wire.decode"),
        "parallel.wire.bytes_in": tracer.extra("parallel.wire.decode"),
        "sim.faults.hook_calls": tracer.calls("sim.faults.hook"),
        "sim.faults.injected_drops": facts.get("sim.faults.injected_drops", 0),
        "sim.invariants.check_share": tracer.self_s("sim.invariants.check") / wall,
        "sim.invariants.violations": facts.get("sim.invariants.violations", 0),
    }


def main(argv) -> int:
    workload, seed, outdir = argv[1], int(argv[2]), Path(argv[5])
    traced, tiny = argv[3] == "1", argv[4] == "1"
    import workloads

    if workload == "serial-reference":
        print(json.dumps({"digest": workloads.federation_serial_digest(seed, tiny)}))
        return 0

    ctx: dict = {}
    tracer = LayerTracer()
    speed = HostSpeed()
    outdir.mkdir(parents=True, exist_ok=True)
    install_phase_hooks(tracer, speed, workload, ctx, outdir)
    if traced:
        install_probes(tracer, outdir)

    ctx["start"] = start = perf()
    speed.start()
    try:
        outcome = workloads.WORKLOADS[workload](seed, tiny, tracer, ctx)
    finally:
        speed.stop()
    wall = ctx["done"] - start
    setup = outcome.setup_end - start
    for path in sorted(outdir.glob("speed-*.json")):
        speed.samples.extend(json.loads(path.read_text()))
    slowdown, probe_share = speed.factor(start, ctx["done"])
    # Host seconds -> reference-host seconds (see hostspeed.py); every
    # timing below is in reference-host seconds unless named *_host_*.
    to_ref = (1.0 - probe_share) / slowdown
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    lat = outcome.latencies
    record = {
        "pid": os.getpid(),
        "setup_s": setup * to_ref,
        "wall_s": wall * to_ref,
        "deliveries_per_s": outcome.deliveries / ((wall - setup) * to_ref),
        "host_slowdown": slowdown,
        "setup_host_s": setup,
        "wall_host_s": wall,
        "deliveries_per_host_s": outcome.deliveries / (wall - setup),
        "peak_rss_mb": own,
        "worker_peak_rss_mb": children if workload == "federation-proc2" else None,
        "update_latency_p50_ms": percentile(lat, 0.50) if lat else None,
        "update_latency_p95_ms": percentile(lat, 0.95) if lat else None,
        "latency_samples": len(lat),
        "network_mb": outcome.network_bytes / 1e6,
        "deliveries": outcome.deliveries,
        "expected": outcome.expected,
        "permanent_misses": outcome.permanent_misses,
        "digest": outcome.digest,
        "counters": outcome.counters,
        "errors": outcome.errors,
        "spans": tracer.span_records(),
    }
    if traced:
        record["layers"] = layer_metrics(tracer, outcome, outdir, wall)
    print(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
