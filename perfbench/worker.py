"""One benchmark process: set up a workload, measure it, report.

Started by ``run.py`` (never by hand). Protocol on stdout, one line
each: ``READY`` once set-up is done (the parent times process start to
this line as ``setup_s``), ``SPEED <factor> <seconds>`` (nominal seconds
per wall second during set-up, and the wall seconds spent sampling the
host in it, see :mod:`hostspeed`) and ``RESULT <json>`` at the end.
With ``--setup-only`` the process stops after ``SPEED``; the parent
starts several to take a median set-up time.

The untraced run measures the end-to-end metrics. The traced run
measures the workload untraced for half the budget, then repeats the
same operations with the layer wrappers of :mod:`tracing` installed,
and reports per-layer metrics plus the tracing overhead between the
two phases.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import percentile  # noqa: E402

#: Latency kind whose median is ``op_p50_ms``, per workload.
PRIMARY_OP = {"pm_trial": "trial", "fleet": "chunk", "daemon": "advance"}


def _ms(values, q):
    return 1e3 * percentile(values, q)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def end_to_end(name: str, phase: workloads.Phase) -> dict:
    """The gated metrics (all workloads) and the workload's own named
    metrics (printed, and part of the traced run's report)."""
    lat = phase.latencies
    primary = PRIMARY_OP[name]
    gated = {
        "peak_rss_mb": phase.peak_rss_mb,
        "throughput_per_s": _rate(phase.work, phase.wall_s),
        "op_p50_ms": _ms(lat[primary], 50),
    }
    wall = {
        "host.speed": phase.host_speed,
        "wall.throughput_per_s": _rate(phase.work, phase.raw_wall_s),
        "wall.op_p50_ms": _ms(phase.raw_latencies[primary], 50),
    }
    if name == "pm_trial":
        named = {"pm.trial_s": percentile(lat["trial"], 50),
                 "pm.trials": len(lat["trial"])}
    elif name == "fleet":
        named = {"fleet.dies_per_s": _rate(phase.work, phase.wall_s),
                 "fleet.dies": phase.work,
                 "fleet.chunks": len(lat["chunk"])}
    else:
        extra = phase.extra
        named = {
            "daemon.ops_per_s": _rate(phase.work, phase.wall_s),
            "daemon.requests": phase.work,
            "daemon.advance_p50_ms": _ms(lat["advance"], 50),
            "daemon.advance_p95_ms": _ms(lat["advance"], 95),
            "daemon.advances": len(lat["advance"]),
            "daemon.feed_p50_ms": _ms(lat["feed"], 50),
            "daemon.read_p50_ms": _ms(lat["read"], 50),
            "daemon.recover_tenants_per_s": _rate(
                extra["tenants_recovered"], extra["recover_s"]),
            "daemon.tenants_recovered": extra["tenants_recovered"],
        }
    return {"gated": gated, "named": {**named, **wall}}


def per_layer(name: str, untraced: workloads.Phase,
              traced: workloads.Phase, tracer: Tracer) -> dict:
    parts = [tracer.export()]
    if "spans" in traced.extra:
        parts.append(traced.extra["spans"])
    s = summarize(parts)
    busy, self_s, calls, c = (s["busy"], s["self"], s["calls"],
                              s["counters"])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "kernel.batch.busy_s": busy.get("kernel.batch", 0.0),
        "kernel.batch.calls": calls.get("kernel.batch", 0),
        "kernel.rows": c.get("kernel.rows", 0.0),
        "kernel.fp_iters_per_row": ratio(c.get("kernel.fp_iterations",
                                               0.0),
                                         c.get("kernel.rows", 0.0)),
        "kernel.fleet_build.busy_s": busy.get("kernel.fleet_build", 0.0),
        "kernel.fleet_eval.busy_s": busy.get("kernel.fleet_eval", 0.0),
        "kernel.fleet_eval.calls": calls.get("kernel.fleet_eval", 0),
        "fleet.metrics.self_s": self_s.get("fleet.metrics", 0.0),
        "variation.sample.busy_s": busy.get("variation.sample", 0.0),
        "chip.characterize.busy_s": busy.get("chip.characterize", 0.0),
        "chip.dies": c.get("chip.dies", 0.0),
        "pm.sann.cache_hit_frac": ratio(
            c.get("pm.sann.cache_hits", 0.0),
            c.get("pm.sann.cache_hits", 0.0)
            + c.get("pm.sann.evaluations", 0.0)),
        "linprog.solve.busy_s": busy.get("linprog.solve", 0.0),
        "linprog.pivots": c.get("linprog.pivots", 0.0),
        "linprog.warm_frac": ratio(c.get("linprog.warm_solves", 0.0),
                                   c.get("linprog.solves", 0.0)),
        "evaluation.serial.busy_s": busy.get("evaluation.serial", 0.0),
        "evaluation.serial.calls": calls.get("evaluation.serial", 0),
        "sim.self_s": (self_s.get("sim.run", 0.0)
                       + self_s.get("sim.advance", 0.0)),
        "sim.advance.busy_s": busy.get("sim.advance", 0.0),
        "daemon.journal.append.busy_s": busy.get("daemon.journal.append",
                                                 0.0),
        "daemon.journal.appends": c.get("daemon.journal.appends", 0.0),
        "daemon.journal.bytes": c.get("daemon.journal.bytes", 0.0),
        "daemon.snapshot.write.busy_s": busy.get("daemon.snapshot.write",
                                                 0.0),
        "daemon.snapshots": c.get("daemon.snapshots", 0.0),
        "fleet.shard_write.busy_s": busy.get("fleet.shard_write", 0.0),
        "fleet.bytes_written": c.get("fleet.bytes_written", 0.0),
        "parallel.journal.record.busy_s": busy.get(
            "parallel.journal.record", 0.0),
        "parallel.journal.records": c.get("parallel.journal.records",
                                          0.0),
        "daemon.register.busy_s": busy.get("daemon.register", 0.0),
        "daemon.advance.busy_s": busy.get("daemon.advance", 0.0),
        "daemon.sensor_feed.busy_s": busy.get("daemon.sensor_feed", 0.0),
        "daemon.recover.busy_s": busy.get("daemon.recover", 0.0),
        "daemon.ops_replayed": c.get("daemon.ops_replayed", 0.0),
        "daemon.snapshot_restores": c.get("daemon.snapshot_restores",
                                          0.0),
        "trace.overhead_frac": _rate(traced.wall_s, untraced.wall_s) - 1.0,
    }
    for manager in ("sann", "linopt", "foxton"):
        m[f"pm.{manager}.busy_s"] = busy.get(f"pm.{manager}", 0.0)
        m[f"pm.{manager}.calls"] = calls.get(f"pm.{manager}", 0)
    waits = []
    for rid, client_s in traced.extra.get("by_rid", {}).items():
        for verb in ("daemon.advance", "daemon.sensor_feed"):
            served = s["by_request"].get((verb, rid))
            if served is not None:
                waits.append(client_s - served)
    m["daemon.wait_transport_ms_p50"] = (_ms(waits, 50) if waits
                                         else 0.0)
    for key in ("error_replies", "quarantines", "dropped_frames"):
        m[f"daemon.{key}"] = (untraced.extra.get(f"daemon.{key}", 0)
                              + traced.extra.get(f"daemon.{key}", 0))
    named = (end_to_end(name, untraced)["named"] if name == "daemon"
             else {})
    for key in ("daemon.advance_p95_ms", "daemon.feed_p50_ms",
                "daemon.read_p50_ms", "daemon.recover_tenants_per_s"):
        m[key] = named.get(key, 0.0)
    return {"layers": m, "missing": s["missing"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", default=None)
    args = parser.parse_args(argv)

    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    wl = workloads.make(args.workload, args.seed, reference,
                        pathlib.Path(args.tmp), smoke=args.smoke)
    try:
        host = HostSpeed()
        with host.every():
            wl.setup()
        print("READY", flush=True)
        print(f"SPEED {host.speed()!r} {host.spent_s!r}", flush=True)
        if args.setup_only:
            return 0
        if not args.trace:
            record = {} if args.record else None
            phase = wl.run(args.seconds, record=record)
            if record is not None:
                pathlib.Path(args.record).write_text(
                    json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
            result = {"phases": [phase], **end_to_end(args.workload,
                                                      phase)}
        else:
            untraced = wl.run(args.seconds / 2)
            if args.workload == "daemon":
                wl.setup(trace=True)
            tracer = Tracer().install()
            try:
                traced = wl.run(args.seconds / 2, n_ops=untraced.units)
            finally:
                tracer.uninstall()
            result = {"phases": [untraced, traced],
                      **per_layer(args.workload, untraced, traced,
                                  tracer)}
    finally:
        wl.close()
    phases = result.pop("phases")
    result["attempted"] = sum(p.attempted for p in phases)
    result["failed"] = sum(p.failed for p in phases)
    result["problems"] = [msg for p in phases for msg in p.problems]
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
