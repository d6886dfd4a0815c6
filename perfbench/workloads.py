"""The benchmark's three workloads.

Each workload has the same shape: ``setup()`` does everything a user
pays before the first operation (imports happen in the caller),
``run(budget_s, n_ops)`` performs operations for ``budget_s`` seconds
(or exactly ``n_ops`` units, to repeat a phase with the same inputs)
and returns a :class:`Phase`, and ``close()`` releases what ``setup``
made. Every operation's output is checked; a failed check counts the
operation as failed, never as missing.

* ``pm_trial`` -- Figure 11 online trials (one 20-core ``DEFAULT_ARCH``
  die, one 8-thread workload, Cost-Performance, the four Table 1
  algorithms) run in sequence. Dominated by ``EvalKernel``'s fixed
  point under SAnn and LinOpt.
* ``fleet`` -- 640-die ``run_fleet_campaign`` runs (``FleetPlan``
  defaults) into a private directory. The only workload that
  exercises variation sampling, characterisation at scale,
  ``FleetEvalKernel``, shards and the run journal.
* ``daemon`` -- a durable ``repro daemon serve`` in its own process,
  driven in a closed loop over two connections, then SIGKILLed and
  recovered in this process. Exercises transport, the op log,
  snapshots and replay.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from hostspeed import HostSpeed

HERE = pathlib.Path(__file__).resolve().parent

#: Figure-drift bound of the repository's figure checks.
REFERENCE_RTOL = 1e-3


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= REFERENCE_RTOL * abs(b)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile; 0 for no samples (every sample
    of a failed phase is counted as failed, so a 0 never passes)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class Phase:
    """What one measured phase did."""

    #: Operation units performed (trials, campaigns, rounds); passing
    #: it back as ``n_ops`` repeats the phase on the same inputs.
    units: int = 0
    attempted: int = 0
    failed: int = 0
    #: Wall seconds spent in the measured operations.
    raw_wall_s: float = 0.0
    #: Work completed (trials, dies or requests) for throughput.
    work: float = 0.0
    #: Latency samples (wall seconds) per operation kind.
    raw_latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Host speed over the phase (1.0 = nominal), from its samples.
    host_speed: float = 0.0
    problems: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Extra values (recovery rate, daemon counters, spans).
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Nominal seconds (see :mod:`hostspeed`) in the operations."""
        return self.raw_wall_s * self.host_speed

    @property
    def latencies(self) -> Dict[str, List[float]]:
        """Latency samples in nominal seconds."""
        return {kind: [v * self.host_speed for v in values]
                for kind, values in self.raw_latencies.items()}

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def _self_peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# pm_trial

#: The trial: trial 0 of the seed-0 Figure 11 campaign at 8 threads
#: (die 0 of ``ChipFactory(seed=0)``, workload and policy streams of
#: ``run_pm_comparison(seed=0)``), repeated. The die, the app mix and
#: the random streams each move one trial's cost by up to +-20 %, so a
#: run of three trials drawn from ``--seed`` would measure the draw,
#: not the code; ``--seed`` does not change this workload.
PM_TRIAL_SEED = 0
PM_THREADS = 8


class PmTrial:
    name = "pm_trial"

    def __init__(self, reference: Dict[str, Any]) -> None:
        self.reference = reference.get("pm_trial", {}).get(
            str(PM_TRIAL_SEED), {})

    def setup(self, trace: bool = False) -> None:
        from repro.config import COST_PERFORMANCE
        from repro.experiments.common import ChipFactory
        from repro.experiments.pm_runner import (run_pm_comparison,
                                                 standard_algorithms)
        self._env = COST_PERFORMANCE
        self._run = run_pm_comparison
        self.factory = ChipFactory(seed=PM_TRIAL_SEED, workers=1,
                                   cache=None)
        self.factory.chip(0)
        # Warm-up: one LinOpt decision stream fills lazy set-up (first
        # calls into numpy and the kernel) so trial 1 is not an outlier.
        linopt = [a for a in standard_algorithms()
                  if a.name.endswith("LinOpt")]
        run_pm_comparison(self.factory, self._env, PM_THREADS, 1, 1,
                          algorithms=linopt, baseline=linopt[0].name,
                          seed=PM_TRIAL_SEED)

    def _check(self, phase: Phase, result) -> None:
        ok = True
        for algo, avg in result.items():
            values = {"mips": avg.mips, "ed2": avg.ed2,
                      "power": avg.power}
            if not all(math.isfinite(v) and v > 0
                       for v in values.values()):
                phase.fail(f"pm {algo}: non-finite or non-positive "
                           f"metrics {values}", 0)
                ok = False
            for key, value in values.items():
                want = self.reference.get(algo, {}).get(key)
                if want is None:
                    phase.fail(f"pm {algo}: no reference for {key}", 0)
                    ok = False
                elif not _close(value, want):
                    phase.fail(f"pm {algo} {key}: {value!r} vs "
                               f"reference {want!r}", 0)
                    ok = False
        if abs(result["Random+Foxton*"].mips - 1.0) > 1e-12:
            phase.fail("pm baseline is not normalised to itself", 0)
            ok = False
        if not ok:
            phase.failed += 1

    def run(self, budget_s: float, n_ops: Optional[int] = None,
            record: Optional[Dict[str, Any]] = None) -> Phase:
        phase = Phase()
        trials: List[float] = []
        host = HostSpeed()
        start = time.perf_counter()
        with host.every():
            while True:
                if n_ops is not None:
                    if len(trials) >= n_ops:
                        break
                # Stop at the trial boundary nearest the budget.
                elif trials and (time.perf_counter() - start
                                 + 0.5 * trials[-1] >= budget_s):
                    break
                phase.attempted += 1
                t0, spent0 = time.perf_counter(), host.spent_s
                try:
                    result = self._run(self.factory, self._env,
                                       PM_THREADS, 1, 1,
                                       seed=PM_TRIAL_SEED)
                    error = None
                except Exception as exc:  # counted, reported, not fatal
                    error = exc
                trials.append(time.perf_counter() - t0
                              - (host.spent_s - spent0))
                if error is not None:
                    phase.fail(f"pm trial raised "
                               f"{type(error).__name__}: {error}")
                    continue
                if record is not None:
                    record[str(PM_TRIAL_SEED)] = {
                        algo: {"mips": avg.mips, "ed2": avg.ed2,
                               "power": avg.power}
                        for algo, avg in result.items()}
                self._check(phase, result)
        phase.units = len(trials)
        phase.raw_wall_s = float(sum(trials))
        phase.work = float(len(trials))
        phase.raw_latencies["trial"] = trials
        phase.host_speed = host.speed()
        phase.peak_rss_mb = _self_peak_rss_mb()
        return phase

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# fleet

FLEET_DIES = 640
FLEET_SMOKE_DIES = 128
#: Ranges ``benchmarks/test_bench_fleet.py`` asserts on the fleet arch.
FREQ_MEAN_RANGE = (1.05, 1.45)
POWER_MEAN_RANGE = (1.1, 1.9)


class Fleet:
    name = "fleet"

    def __init__(self, seed: int, reference: Dict[str, Any],
                 tmp: pathlib.Path, smoke: bool = False) -> None:
        self.seed = seed
        self.reference = reference.get("fleet", {})
        self.n_dies = FLEET_SMOKE_DIES if smoke else FLEET_DIES
        self.root = tmp / "fleet"

    def setup(self, trace: bool = False) -> None:
        from repro.fleet import FleetPlan, load_summary, run_fleet_campaign
        from repro.fleet.shards import iter_shards, load_shard
        self._plan = FleetPlan
        self._campaign = run_fleet_campaign
        self._summary = load_summary
        self._iter_shards = iter_shards
        self._load_shard = load_shard
        self.root.mkdir(parents=True, exist_ok=True)

    def _check(self, phase: Phase, plan, result, n_chunks: int) -> None:
        """Per-chunk shard checks, then campaign-level checks; a
        campaign-level failure fails every chunk of the campaign."""
        bad_chunks = 0
        shards = list(self._iter_shards(result.out_dir / "shards"))
        if len(shards) != n_chunks:
            phase.fail(f"fleet {plan.name}: {len(shards)} shards for "
                       f"{n_chunks} chunks", 0)
        for info in shards:
            try:
                cols = self._load_shard(info.path)
            except Exception as exc:  # a corrupt shard fails its chunk
                bad_chunks += 1
                phase.fail(f"fleet {plan.name}: shard {info.path.name} "
                           f"unreadable: {exc}", 0)
                continue
            n = len(cols["die"])
            ok = n > 0 and all(
                len(v) == n and np.all(np.isfinite(v))
                for v in cols.values())
            ok = ok and np.all(cols["freq_ratio"] >= 1.0) \
                and np.all(cols["power_ratio"] >= 1.0)
            if not ok:
                bad_chunks += 1
                phase.fail(f"fleet {plan.name}: bad shard "
                           f"{info.path.name}", 0)
        metrics = self._summary(result.out_dir)["metrics"]
        campaign_ok = True
        for key, (lo, hi) in (("freq_ratio", FREQ_MEAN_RANGE),
                              ("power_ratio", POWER_MEAN_RANGE)):
            m = metrics[key]
            values = [m["mean"], m["quantiles"]["p95"], m["min"]]
            if m["count"] != plan.n_dies:
                phase.fail(f"fleet {plan.name} {key}: count "
                           f"{m['count']} != {plan.n_dies}", 0)
                campaign_ok = False
            if not all(math.isfinite(v) for v in values):
                phase.fail(f"fleet {plan.name} {key}: non-finite", 0)
                campaign_ok = False
            if not lo < m["mean"] < hi:
                phase.fail(f"fleet {plan.name} {key}: mean "
                           f"{m['mean']} outside ({lo}, {hi})", 0)
                campaign_ok = False
            ref = self.reference.get(
                f"seed{plan.seed}/start{plan.start}/n{plan.n_dies}")
            if ref is not None:
                for stat, value in (("mean", m["mean"]),
                                    ("p95", m["quantiles"]["p95"])):
                    want = ref[key][stat]
                    if not _close(value, want):
                        phase.fail(f"fleet {plan.name} {key} {stat}: "
                                   f"{value!r} vs reference {want!r}",
                                   0)
                        campaign_ok = False
        phase.failed += n_chunks if not campaign_ok else bad_chunks

    def _one(self, phase: Phase, plan, host: HostSpeed,
             chunk_lat: List[float],
             record: Optional[Dict[str, Any]]) -> float:
        """Run and check one campaign; return its wall seconds."""
        n_chunks = len(plan.chunks())
        # (time, sampling seconds so far) at the start and per chunk;
        # time spent sampling the host is not the campaign's.
        marks = [(time.perf_counter(), host.spent_s)]
        try:
            result = self._campaign(
                plan, self.root, workers=1,
                progress=lambda done, total: marks.append(
                    (time.perf_counter(), host.spent_s)))
        except Exception as exc:  # counted, reported, not fatal
            phase.attempted += n_chunks
            phase.fail(f"fleet {plan.name} raised "
                       f"{type(exc).__name__}: {exc}", n_chunks)
            return 0.0
        marks.append((time.perf_counter(), host.spent_s))
        chunk_lat.extend((t1 - t0) - (s1 - s0) for (t0, s0), (t1, s1)
                         in zip(marks[:-2], marks[1:-1]))
        # Journal completion and the summary after the last chunk
        # count too.
        wall = (marks[-1][0] - marks[0][0]) - (marks[-1][1] - marks[0][1])
        phase.raw_wall_s += wall
        phase.work += plan.n_dies
        phase.attempted += n_chunks
        self._check(phase, plan, result, n_chunks)
        if record is not None:
            m = self._summary(result.out_dir)["metrics"]
            record[f"seed{plan.seed}/start{plan.start}/"
                   f"n{plan.n_dies}"] = {
                key: {"mean": m[key]["mean"],
                      "p95": m[key]["quantiles"]["p95"]}
                for key in ("freq_ratio", "power_ratio")}
        shutil.rmtree(result.out_dir, ignore_errors=True)
        return wall

    def run(self, budget_s: float, n_ops: Optional[int] = None,
            record: Optional[Dict[str, Any]] = None) -> Phase:
        phase = Phase()
        chunk_lat: List[float] = []
        host = HostSpeed()
        campaigns = 0
        last_s = 0.0
        start = time.perf_counter()
        with host.every():
            while True:
                if n_ops is not None:
                    if campaigns >= n_ops:
                        break
                # Stop at the campaign boundary nearest the budget.
                elif campaigns and (time.perf_counter() - start
                                    + 0.5 * last_s >= budget_s):
                    break
                plan = self._plan(name=f"bench-{campaigns}",
                                  n_dies=self.n_dies,
                                  start=campaigns * self.n_dies,
                                  seed=self.seed)
                last_s = self._one(phase, plan, host, chunk_lat, record)
                campaigns += 1
        phase.units = campaigns
        phase.raw_latencies["chunk"] = chunk_lat
        phase.host_speed = host.speed()
        phase.peak_rss_mb = _self_peak_rss_mb()
        return phase

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ---------------------------------------------------------------------------
# daemon

DAEMON_CONNECTIONS = 2
DAEMON_TENANTS = 16
DAEMON_SMOKE_TENANTS = 4
DAEMON_DURATION_S = 0.12
DAEMON_INTERVAL_S = 0.01
#: Every this many advances a tenant's info is read.
READ_EVERY = 4
#: Seconds allowed for the daemon to write its spans on SIGUSR1.
SPAN_DUMP_TIMEOUT_S = 60.0


def _json_roundtrip(obj: Any) -> Any:
    return json.loads(json.dumps(obj))


class Daemon:
    name = "daemon"

    def __init__(self, seed: int, tmp: pathlib.Path,
                 smoke: bool = False) -> None:
        self.seed = seed
        self.n_tenants = DAEMON_SMOKE_TENANTS if smoke \
            else DAEMON_TENANTS
        self.tmp = tmp
        self.proc: Optional[subprocess.Popen] = None
        self.generation = 0

    # -- daemon process --------------------------------------------------

    def setup(self, trace: bool = False) -> None:
        from repro.daemon import DaemonClient, DaemonController, DaemonError
        # Load generator and daemon share one CPU (the daemon inherits
        # this): every request then hands over between two processes
        # on a busy CPU instead of waking an idle vCPU, whose wake-up
        # latency on a contended host is what the rounds measured.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._client_cls = DaemonClient
        self._controller_cls = DaemonController
        self._error_cls = DaemonError
        self.generation += 1
        base = self.tmp / f"daemon-{self.generation}"
        base.mkdir(parents=True, exist_ok=True)
        self.state_dir = base / "state"
        self.spans_path = base / "spans.json"
        cmd = [sys.executable, str(HERE / "launcher.py"),
               "--spans", str(self.spans_path)]
        if trace:
            cmd.append("--trace")
        cmd += ["--", "daemon", "serve", "--port", "0",
                "--state-dir", str(self.state_dir), "--fresh"]
        # A daemon that hangs before listening is killed with this
        # process group by run.py's deadline.
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     text=True)
        for line in self.proc.stdout:
            if "listening on" in line:
                host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
                self.address = (host, int(port))
                break
        else:
            self._stop_daemon()
            raise RuntimeError("daemon exited before listening")
        # Cold characterisation belongs to set-up: register (and drop)
        # one tenant per chip the rounds use, so the daemon's chip
        # cache is warm and every measured round does the same work.
        with self._client_cls(*self.address, timeout_s=120.0) as client:
            for i in range(self.n_tenants):
                client.request("register", **self._register_payload(
                    f"warm-t{i:02d}", i))
                client.request("unregister", tenant=f"warm-t{i:02d}")

    def _register_payload(self, name: str, i: int) -> Dict[str, Any]:
        """Tenant ``i`` of a round: even ones run LinOpt, odd Foxton*."""
        return dict(tenant=name, seed=self.seed * DAEMON_TENANTS + i,
                    n_cores=4, env="cost_performance",
                    manager={"primary": "linopt" if i % 2 == 0
                             else "foxton"},
                    watchdog=True, duration_s=DAEMON_DURATION_S,
                    dvfs_interval_s=DAEMON_INTERVAL_S)

    def _stop_daemon(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self.proc = None

    def _collect_spans(self) -> Dict[str, Any]:
        """Ask the launcher to write its spans and peak RSS."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + SPAN_DUMP_TIMEOUT_S
        while not self.spans_path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("daemon did not write its spans")
            time.sleep(0.01)
        return json.loads(self.spans_path.read_text(encoding="utf-8"))

    # -- load ----------------------------------------------------------

    def _another_round(self, rounds: int, budget_s: float,
                       n_rounds: Optional[int], start: float) -> bool:
        """Whether both connections start round ``rounds``: decided
        once per round at a barrier, so they run equal round counts."""
        if self._barrier.wait() == 0:
            if n_rounds is not None:
                more = rounds < n_rounds
            else:
                more = rounds == 0 or (time.perf_counter() - start
                                       < budget_s)
            self._decisions.append(more)
        self._barrier.wait()
        return self._decisions[rounds]

    def _tenants_of(self, conn: int) -> List[int]:
        return [i for i in range(self.n_tenants)
                if i % DAEMON_CONNECTIONS == conn]

    def _connection(self, conn: int, budget_s: float,
                    n_rounds: Optional[int], start: float,
                    out: Dict[str, Any]) -> None:
        lat: Dict[str, List[float]] = {
            "register": [], "advance": [], "feed": [], "read": [],
            "trace": []}
        by_rid: Dict[str, float] = {}
        summaries: Dict[str, Any] = {}
        problems: List[str] = []
        attempted = failed = completed = 0
        rounds = 0
        n_steps = int(round(DAEMON_DURATION_S / DAEMON_INTERVAL_S))
        client = self._client_cls(*self.address, timeout_s=120.0)
        counter = 0

        def call(kind: str, rtype: str, rid: bool, **payload):
            nonlocal attempted, failed, completed, counter
            if rid:
                counter += 1
                payload["request_id"] = f"c{conn}-{counter}"
            attempted += 1
            t0 = time.perf_counter()
            try:
                reply = client.request(rtype, **payload)
            except self._error_cls as exc:
                dt = time.perf_counter() - t0
                lat[kind].append(dt)
                failed += 1
                problems.append(f"{rtype} {payload.get('tenant')}: "
                                f"{exc}")
                return None
            dt = time.perf_counter() - t0
            lat[kind].append(dt)
            completed += 1
            if rid:
                by_rid[payload["request_id"]] = dt
            return reply

        try:
            while self._another_round(rounds, budget_s, n_rounds, start):
                names = {}
                for i in self._tenants_of(conn):
                    name = f"r{rounds}-t{i:02d}"
                    names[i] = name
                    call("register", "register", True,
                         **self._register_payload(name, i))
                for step in range(1, n_steps + 1):
                    self._barrier.wait()
                    until = round(step * DAEMON_INTERVAL_S, 9)
                    for i, name in names.items():
                        reply = call("advance", "advance", True,
                                     tenant=name, until_s=until)
                        if reply is not None and (
                                (step == n_steps) != reply["finished"]):
                            failed += 1
                            problems.append(
                                f"{name}: finished={reply['finished']} "
                                f"after step {step}/{n_steps}")
                        values = np.random.default_rng(
                            [self.seed, i, step]).uniform(1.0, 6.0, 4)
                        call("feed", "sensor_feed", True, tenant=name,
                             core_values=[float(v) for v in values])
                        if step % READ_EVERY == 0:
                            info = call("read", "tenant_info", False,
                                        tenant=name)
                            if info is not None and (
                                    info["status"] == "quarantined"):
                                failed += 1
                                problems.append(f"{name} quarantined")
                for name in names.values():
                    summary = call("trace", "trace", False, tenant=name)
                    if summary is not None:
                        summaries[name] = summary
                rounds += 1
        except threading.BrokenBarrierError:
            pass  # the other connection failed and said so
        except Exception as exc:  # counted, reported, not fatal
            failed += 1
            problems.append(f"connection {conn}: "
                            f"{type(exc).__name__}: {exc}")
            self._barrier.abort()
        finally:
            client.close()
        out[conn] = {"lat": lat, "by_rid": by_rid,
                     "summaries": summaries, "problems": problems,
                     "attempted": attempted, "failed": failed,
                     "completed": completed, "rounds": rounds}

    def run(self, budget_s: float, n_ops: Optional[int] = None,
            record: Optional[Dict[str, Any]] = None) -> Phase:
        phase = Phase()
        out: Dict[int, Any] = {}
        self._decisions: List[bool] = []
        self._host = HostSpeed()
        # The connections meet before every round and every DVFS step;
        # both are idle there, so the barrier samples the host's speed
        # (and the daemon is idle too).
        self._barrier = threading.Barrier(DAEMON_CONNECTIONS,
                                          action=self._host.take)
        start = time.perf_counter()
        threads = [threading.Thread(
            target=self._connection,
            args=(conn, budget_s, n_ops, start, out))
            for conn in range(DAEMON_CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # The rounds' time: sampling the host between them is not.
        phase.raw_wall_s = (time.perf_counter() - start
                            - self._host.spent_s)
        summaries: Dict[str, Any] = {}
        by_rid: Dict[str, float] = {}
        for conn in range(DAEMON_CONNECTIONS):
            res = out[conn]
            phase.attempted += res["attempted"]
            phase.failed += res["failed"]
            phase.work += res["completed"]
            phase.problems.extend(res["problems"][:10])
            for kind, values in res["lat"].items():
                phase.raw_latencies.setdefault(kind, []).extend(values)
            summaries.update(res["summaries"])
            by_rid.update(res["by_rid"])
        phase.units = out[0]["rounds"]

        with self._client_cls(*self.address, timeout_s=60.0) as client:
            counters = client.request("telemetry")["counters"]
        for key in ("error_replies", "quarantines", "dropped_frames"):
            value = int(counters.get(key, 0))
            phase.extra[f"daemon.{key}"] = value
            if value:
                phase.fail(f"daemon counter {key} = {value}", value)
        dump = self._collect_spans()
        phase.peak_rss_mb = dump.pop("peak_rss_mb")
        phase.extra["spans"] = dump
        phase.extra["by_rid"] = by_rid
        self._stop_daemon()

        # Recovery: a cold controller over the SIGKILLed state dir.
        with self._host.every():
            t0, spent0 = time.perf_counter(), self._host.spent_s
            controller = self._controller_cls(state_dir=self.state_dir)
            recover_s = (time.perf_counter() - t0
                         - (self._host.spent_s - spent0))
        phase.host_speed = self._host.speed()
        stats = controller.last_recovery
        phase.extra["recover_s"] = recover_s * phase.host_speed
        phase.extra["tenants_recovered"] = stats.tenants_recovered
        if stats.tenants_recovered != len(summaries) \
                or stats.tenants_quarantined:
            phase.fail(f"recovered {stats.tenants_recovered} tenants "
                       f"({stats.tenants_quarantined} quarantined) of "
                       f"{len(summaries)}")
        for name, before in summaries.items():
            phase.attempted += 1
            try:
                after = _json_roundtrip(controller.trace(name))
            except Exception as exc:  # counted, reported, not fatal
                phase.fail(f"{name}: trace after recovery raised "
                           f"{type(exc).__name__}: {exc}")
                continue
            if after != before:
                phase.fail(f"{name}: trace summary changed across "
                           f"SIGKILL and recovery")
        del controller
        shutil.rmtree(self.state_dir, ignore_errors=True)
        return phase

    def close(self) -> None:
        self._stop_daemon()


def make(name: str, seed: int, reference: Dict[str, Any],
         tmp: pathlib.Path, smoke: bool = False):
    if name == "pm_trial":
        return PmTrial(reference)
    if name == "fleet":
        return Fleet(seed, reference, tmp, smoke)
    if name == "daemon":
        return Daemon(seed, tmp, smoke)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pm_trial", "fleet", "daemon")
