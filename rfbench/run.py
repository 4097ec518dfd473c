#!/usr/bin/env python3
"""Benchmark entry point for the ray-fulltext engine.

    python3 rfbench/run.py --workload cold_query --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The benchmark generates its inputs from the
seed, starts a private local Ray session, builds every index it queries with
the code under test, times the workload, checks every sampled answer against
``engine.oracle.OracleIndex`` and prints one JSON result as the last line of
standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the same
workload with the span tracer installed and reports the per-layer metrics.
Everything the run writes stays under ``.rfbench/`` in the checkout (run
records and traces are kept, indexes and inputs are deleted).  The process
exits non-zero without a result when the engine cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".rfbench")
RUN_DEADLINE_S = 172  # hard stop: kill every child and exit without a result
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store
_RAY_SOCKET_TAIL = 72


def _descendants() -> set[int]:
    """Pids of every live process below this one (from /proc, read-only)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(b")") + 2 :].split()
        if fields[0] != b"Z":
            children.setdefault(int(fields[1]), []).append(int(name))
    out: set[int] = set()
    todo = [os.getpid()]
    while todo:
        for c in children.get(todo.pop(), ()):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rfind(b")") + 2 :].split()[0] != b"Z"


def _reap(pids: set[int], wait_s: float) -> None:
    """Wait for ``pids`` to end; SIGKILL what is left after ``wait_s``."""
    end = time.monotonic() + wait_s
    while time.monotonic() < end and any(_alive(p) for p in pids):
        time.sleep(0.1)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
    end = time.monotonic() + 5
    while time.monotonic() < end and any(_alive(p) for p in pids):
        time.sleep(0.05)


def _watchdog(deadline: float) -> None:
    def run():
        time.sleep(max(0.0, deadline - time.monotonic()))
        print(f"rfbench: run exceeded {RUN_DEADLINE_S}s, killing it", file=sys.stderr)
        pids = _descendants()
        for p in pids:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        _reap(pids, 2)
        os._exit(4)

    threading.Thread(target=run, daemon=True).start()


def _ray_temp_dir() -> str:
    """A fresh Ray temp dir short enough for AF_UNIX socket paths: under the
    checkout when its path allows, else under the system temp dir."""
    local = os.path.join(WORK, f"r{os.getpid()}")
    if len(local) + _RAY_SOCKET_TAIL <= 107:
        os.makedirs(local)
        return local
    return tempfile.mkdtemp(prefix="rfb")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # the result line must be the last line of stdout: everything else the
    # run (Ray, Ray Data, the engine) prints goes to stderr
    real_stdout = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    sys.path.insert(0, ROOT)
    try:
        import engine.build  # noqa: F401
        import engine.oracle  # noqa: F401
    except ImportError as e:
        print(f"rfbench: cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        return 2
    import work

    if args.workload not in work.WORKLOADS:
        print(f"rfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(work.WORKLOADS)}", file=sys.stderr)
        return 2

    _watchdog(time.monotonic() + RUN_DEADLINE_S)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ray_tmp = _ray_temp_dir()
    # Ray workers and actors inherit this process's environment at ray.init:
    # put the checkout on their import path (a later sys.path edit would not
    # reach them)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    bench = work.WORKLOADS[args.workload](
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        run_dir=run_dir, ray_tmp=ray_tmp,
    )
    code = 0
    try:
        result = bench.run()
    except Exception as e:  # a failed stage (timeout included): no metrics
        import traceback

        traceback.print_exc()
        bench.ops.failed("stage:" + bench.stage, e)
        result = bench.result(metrics={})
        code = 1
    finally:
        pids = _descendants()
        bench.teardown()
        _reap(pids, 20)
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, "records", tag + ".json"), "w") as f:
        json.dump({"result": result, "info": bench.info}, f, indent=1)
    sys.stderr.flush()
    info = {k: v for k, v in bench.info.items()
            if k not in ("latency_ms", "sub_probe_ms")}
    os.write(real_stdout, ("rfbench-info " + json.dumps(info) + "\n").encode())
    os.write(real_stdout, (json.dumps(result) + "\n").encode())
    return code


if __name__ == "__main__":
    sys.exit(main())
