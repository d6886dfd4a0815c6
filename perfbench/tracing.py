"""Spans around the calls into each layer, recorded from outside it.

The traced run patches the public entry points of every layer where
their callers look them up (a module attribute for functions imported
by name, the class attribute for methods), so no program file changes.
Each call records one span: name, start, end, the span that caused it
(the innermost open span on the same thread) and a request id. Spans
stay in memory until the run ends; :func:`summarize` then turns them
into busy time (outermost span of a name), self time (duration minus
child spans) and call counts. Counters ride along on the same
boundaries, fed by per-target hooks that read the call's arguments and
result.

Nothing is patched until :meth:`Tracer.install`, so the untraced run
measures the program as shipped; :meth:`Tracer.uninstall` restores
every original attribute.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: A span as recorded: [name, start_s, end_s, parent span or None,
#: request id]. Parents are the span lists themselves, so recording is
#: one list append (atomic under the interpreter lock) per call.
Span = list


def _stat_size(path: Any) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


# -- Counter hooks: (tracer, args, kwargs, result, before) -> None ------

def _hook_pm(prefix: str) -> Callable:
    def hook(tracer, args, kwargs, result, before):
        stats = getattr(result, "stats", None) or {}
        tracer.add("kernel.rows", stats.get("kernel_evaluations", 0.0))
        tracer.add("kernel.fp_iterations",
                   stats.get("kernel_fp_iterations", 0.0))
        if prefix == "pm.sann":
            tracer.add("pm.sann.cache_hits",
                       stats.get("sa_cache_hits", 0.0))
            tracer.add("pm.sann.evaluations",
                       float(getattr(result, "evaluations", 0)))
    return hook


def _hook_lp(tracer, args, kwargs, result, before):
    tracer.add("linprog.pivots", float(getattr(result, "iterations", 0)))
    tracer.add("linprog.solves", 1.0)
    tracer.add("linprog.warm_solves",
               1.0 if getattr(result, "warm", False) else 0.0)


def _hook_dies(tracer, args, kwargs, result, before):
    tracer.add("chip.dies", float(len(result)))


def _hook_shard(tracer, args, kwargs, result, before):
    tracer.add("fleet.bytes_written", float(_stat_size(result)))


def _hook_journal_record(tracer, args, kwargs, result, before):
    tracer.add("parallel.journal.records", 1.0)


def _before_oplog(args, kwargs):
    return _stat_size(args[0].path)


def _hook_oplog(tracer, args, kwargs, result, before):
    tracer.add("daemon.journal.appends", 1.0)
    tracer.add("daemon.journal.bytes",
               float(_stat_size(args[0].path) - before))


def _hook_snapshot(tracer, args, kwargs, result, before):
    tracer.add("daemon.snapshots", 1.0)


def _hook_recover(tracer, args, kwargs, result, before):
    tracer.add("daemon.ops_replayed",
               float(getattr(result, "ops_replayed", 0)))
    tracer.add("daemon.snapshot_restores",
               float(getattr(result, "snapshot_restores", 0)))


def _rid_kwarg(args, kwargs):
    return kwargs.get("request_id")


def _rid_register(args, kwargs):
    payload = args[1] if len(args) > 1 else kwargs.get("payload", {})
    return payload.get("request_id") if isinstance(payload, dict) \
        else None


# (module, attribute path, span name, counter hook, request-id getter,
#  pre-call probe). Functions imported by name are patched in every
# module that looks them up; methods on the class that defines them.
TARGETS: Tuple[tuple, ...] = (
    ("repro.variation.die", "generate_variation_maps",
     "variation.sample", None, None, None),
    ("repro.variation.die", "generate_variation_map",
     "variation.sample", None, None, None),
    ("repro.experiments.common", "characterize_batch",
     "chip.characterize", _hook_dies, None, None),
    ("repro.fleet.campaign", "characterize_batch",
     "chip.characterize", _hook_dies, None, None),
    ("repro.runtime.kernel", "EvalKernel.evaluate_levels_batch",
     "kernel.batch", None, None, None),
    ("repro.runtime.kernel", "FleetEvalKernel.__init__",
     "kernel.fleet_build", None, None, None),
    ("repro.runtime.kernel", "FleetEvalKernel.evaluate_levels_fleet",
     "kernel.fleet_eval", None, None, None),
    ("repro.fleet.campaign", "fleet_die_metrics",
     "fleet.metrics", None, None, None),
    ("repro.pm.sann", "SAnnManager.set_levels",
     "pm.sann", _hook_pm("pm.sann"), None, None),
    ("repro.pm.linopt", "LinOpt.set_levels",
     "pm.linopt", _hook_pm("pm.linopt"), None, None),
    ("repro.pm.foxton", "FoxtonStar.set_levels",
     "pm.foxton", _hook_pm("pm.foxton"), None, None),
    ("repro.linprog.backends", "BoundedSimplexBackend.solve",
     "linprog.solve", _hook_lp, None, None),
    ("repro.linprog.backends", "ReferenceSimplexBackend.solve",
     "linprog.solve", _hook_lp, None, None),
    ("repro.linprog.backends", "HighsBackend.solve",
     "linprog.solve", _hook_lp, None, None),
    ("repro.runtime.simulation", "evaluate_levels",
     "evaluation.serial", None, None, None),
    ("repro.pm.base", "evaluate_levels",
     "evaluation.serial", None, None, None),
    ("repro.runtime.simulation", "OnlineSimulation.run",
     "sim.run", None, None, None),
    ("repro.runtime.simulation", "SimulationStepper.advance_until",
     "sim.advance", None, None, None),
    ("repro.runtime.simulation", "SimulationStepper.run_to_end",
     "sim.advance", None, None, None),
    ("repro.fleet.campaign", "write_shard",
     "fleet.shard_write", _hook_shard, None, None),
    ("repro.parallel.journal", "RunJournal.record",
     "parallel.journal.record", _hook_journal_record, None, None),
    ("repro.daemon.durability", "OpLog.append",
     "daemon.journal.append", _hook_oplog, None, _before_oplog),
    ("repro.daemon.durability", "TenantStore.write_snapshot",
     "daemon.snapshot.write", _hook_snapshot, None, None),
    ("repro.daemon.controller", "DaemonController.register",
     "daemon.register", None, _rid_register, None),
    ("repro.daemon.controller", "DaemonController.advance",
     "daemon.advance", None, _rid_kwarg, None),
    ("repro.daemon.controller", "DaemonController.sensor_feed",
     "daemon.sensor_feed", None, _rid_kwarg, None),
    ("repro.daemon.controller", "DaemonController.tenant_info",
     "daemon.tenant_info", None, None, None),
    ("repro.daemon.controller", "DaemonController.recover",
     "daemon.recover", _hook_recover, None, None),
)


class Tracer:
    """In-memory span and counter recorder with reversible patches."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Targets that could not be found (renamed or removed code).
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    def _wrap(self, fn: Callable, name: str, hook, rid, before
              ) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            request_id = rid(args, kwargs) if rid is not None else None
            if request_id is None and parent is not None:
                request_id = parent[4]
            probe = before(args, kwargs) if before is not None else None
            span = [name, 0.0, 0.0, parent, request_id]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, probe)
            return result

        return traced

    def install(self) -> "Tracer":
        """Patch every target that exists; record the ones that do not."""
        for module_name, path, name, hook, rid, before in TARGETS:
            try:
                owner: Any = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}:{path}")
                continue
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{module_name}:{path}")
                continue
            owned = attr in vars(owner)
            original = getattr(owner, attr) if not owned \
                else vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, hook, rid,
                                            before))
            self._patches.append((owner, attr, original, owned))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def export(self) -> Dict[str, Any]:
        """Spans (parents as indices) and counters, JSON-ready."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {
            "spans": [[s[0], s[1], s[2],
                       index[id(s[3])] if s[3] is not None else -1,
                       s[4]] for s in self.spans],
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }


def summarize(exported: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-name busy time, self time and calls over exported tracers.

    Busy time counts a span only when no ancestor has the same name, so
    a recursive or doubly patched entry point is not counted twice.
    Self time is a span's duration minus its children's durations
    (children run on the parent's thread, inside its interval).
    """
    busy: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counters: Dict[str, float] = defaultdict(float)
    by_request: Dict[Tuple[str, str], float] = {}
    missing = set()
    for part in exported:
        spans = part["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, rid) in enumerate(spans):
            dur = t1 - t0
            calls[name] += 1
            self_s[name] += dur - child[i]
            outermost = True
            up = parent
            while up >= 0:
                if spans[up][0] == name:
                    outermost = False
                    break
                up = spans[up][3]
            if outermost:
                busy[name] += dur
            if rid is not None and parent < 0:
                by_request[(name, rid)] = dur
        for key, value in part["counters"].items():
            counters[key] += value
        missing.update(part.get("missing", ()))
    return {"busy": dict(busy), "self": dict(self_s),
            "calls": dict(calls), "counters": dict(counters),
            "by_request": by_request, "missing": sorted(missing)}

