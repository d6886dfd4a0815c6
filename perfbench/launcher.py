"""Start ``repro daemon`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/launcher.py --spans OUT.json [--trace] -- \
        daemon serve --port 0 --state-dir DIR --fresh

Runs the repository's own CLI entry point in this process. With
``--trace`` the layer wrappers of :mod:`tracing` are installed first;
either way SIGUSR1 writes the recorded spans (none when untraced) plus
this process's peak RSS to ``--spans`` atomically, so the load
generator can collect them before it SIGKILLs the daemon.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/launcher.py")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer()
    if args.trace:
        tracer.install()
    out = pathlib.Path(args.spans)

    def dump(signum, frame):
        payload = tracer.export()
        payload["peak_rss_mb"] = _peak_rss_mb()
        tmp = out.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, out)

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as repro_main
    return repro_main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
