"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload pm_trial --seed 0 --seconds 25 --trace 0

Workloads: ``pm_trial`` (Figure 11 online trials), ``fleet`` (640-die
fleet campaigns) and ``daemon`` (a durable daemon under a closed-loop
load, SIGKILLed and recovered). ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it repeat every metric by name with its unit. See README.md.

This process only orchestrates (standard library only). Every
measurement happens in worker processes started from a hermetic
environment: one worker thread each for BLAS/OpenMP,
``REPRO_WORKERS=1``, the characterisation cache disabled and pointed
at a private directory, resume journals off, and all output under a
temporary directory inside ``perfbench/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("pm_trial", "fleet", "daemon")

#: Fresh processes whose set-up times give the median ``setup_s``.
SETUP_REPEATS = 3
#: Hard stop for the whole command, seconds (workers are killed).
DEADLINE_S = 170.0

NAMED_UNITS = {
    "pm.trial_s": "s", "pm.trials": "count",
    "fleet.dies_per_s": "1/s", "fleet.dies": "count",
    "fleet.chunks": "count",
    "daemon.ops_per_s": "1/s", "daemon.requests": "count",
    "daemon.advance_p50_ms": "ms", "daemon.advance_p95_ms": "ms",
    "daemon.advances": "count",
    "daemon.feed_p50_ms": "ms", "daemon.read_p50_ms": "ms",
    "daemon.recover_tenants_per_s": "1/s",
    "daemon.tenants_recovered": "count",
    "host.speed": "x", "wall.throughput_per_s": "1/s",
    "wall.op_p50_ms": "ms",
}


def hermetic_env(tmp: pathlib.Path, root: pathlib.Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_WORKERS": "1",
        "REPRO_NO_CACHE": "1",
        "REPRO_CACHE_DIR": str(tmp / "cache"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


class Failed(RuntimeError):
    pass


def run_worker(args: List[str], env: Dict[str, str],
               deadline: float) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Start one worker; return (set-up seconds, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    setup_s: Optional[float] = None
    raw_setup_s: Optional[float] = None
    result = None
    buf = b""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise Failed("benchmark deadline passed")
            if not sel.select(timeout=remaining):
                continue
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                text = line.decode("utf-8", "replace")
                if text == "READY" and setup_s is None:
                    setup_s = time.perf_counter() - t0
                elif text.startswith("SPEED ") and setup_s is not None:
                    # Set-up time at nominal host speed (hostspeed.py).
                    speed, sampling_s = map(float, text.split()[1:])
                    raw_setup_s = setup_s - sampling_s
                    setup_s = raw_setup_s * speed
                elif text.startswith("RESULT "):
                    result = json.loads(text[len("RESULT "):])
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        sel.close()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        else:
            try:
                # Reap anything the worker left behind (a daemon).
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.stdout.close()
    if code != 0 or raw_setup_s is None:
        raise Failed(f"worker exited with code {code}")
    return setup_s, raw_setup_s, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE /
                                                   "reference.json"),
                        help="recorded reference outputs (JSON)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the smoke test")
    parser.add_argument("--record", default=None,
                        help="write this run's reference outputs here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro is "
              "missing)", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    (HERE / ".tmp").mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".tmp"))
    env = hermetic_env(tmp, root)
    # Byte-compile up front (not timed) so every run imports from the
    # same warm bytecode, the first one included.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(root / "src"), str(HERE)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--tmp", str(tmp),
              "--reference", args.reference]
    if args.smoke:
        common.append("--smoke")
    try:
        setups, raw_setups = [], []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setup_s, raw_s, _ = run_worker(
                    common + ["--setup-only"], env, deadline)
                setups.append(setup_s)
                raw_setups.append(raw_s)
        extra = ["--trace", str(args.trace)]
        if args.record:
            extra += ["--record", str(pathlib.Path(args.record).resolve())]
        setup_s, raw_s, result = run_worker(common + extra, env, deadline)
        setups.append(setup_s)
        raw_setups.append(raw_s)
    except Failed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (HERE / ".tmp").rmdir()
        except OSError:
            pass  # another run is using it
    if result is None:
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    if not args.trace:
        values = dict(result["gated"], setup_s=statistics.median(setups))
        print(f"  setup_s over {len(setups)} fresh processes: "
              + ", ".join(f"{s:.3f}" for s in setups) + " (wall "
              + ", ".join(f"{s:.3f}" for s in raw_setups) + ")")
        for name, value in result["named"].items():
            print(f"  {name:32s} {value:14.4f} {NAMED_UNITS[name]}")
    else:
        values = result["layers"]
        if result["missing"]:
            print("  wrappers not installed (code moved?): "
                  + ", ".join(result["missing"]))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ {m['name'] for m in declared})}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
