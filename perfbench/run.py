"""KG-construction benchmark for pybel_ray: one measured run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload crawl_stream --seed 1 --seconds 15 --trace 0

Workloads: ``crawl_stream``, ``crawl_shards``, ``sparse_web`` (see README.md).
The last line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run also writes its spans to
``.perfbench/traces/<workload>-seed<seed>.json``.

The run itself happens in a child process (``worker.py``) that leads a
session of its own, so that it and every Ray process it starts can be found
and stopped.  This process waits for the session to empty, reaps what is
left, removes the run's scratch directory and exits non-zero if the run
failed, its checks failed or a process of it outlived it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import procs  # noqa: E402

SCRATCH = ".perfbench"
#: a run must end within 180 s; leave room to stop and clean up
RUN_DEADLINE_S = 150


def fail(msg: str, code: int = 2) -> int:
    print("perfbench: " + msg, file=sys.stderr)
    return code


def child_env(root: str, scratch: str) -> dict:
    env = dict(os.environ)
    # Ray workers inherit this environment: they must import the checkout's
    # package (a worker that cannot is restarted by Ray without end)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    env.pop("RAY_ADDRESS", None)  # never attach to a cluster found in the environment
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = env["RAY_TMPDIR"] = tmp
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "pybel_ray", "__init__.py")):
        return fail("no pybel_ray package in {}; run from the root of a checkout".format(root))
    if args.workload not in gen.WORKLOADS:
        return fail("unknown workload {!r}; choose from {}".format(
            args.workload, ", ".join(sorted(gen.WORKLOADS))))
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    scratch = os.path.join(root, SCRATCH, str(os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    result_path = os.path.join(scratch, "result.json")
    log_path = os.path.join(scratch, "worker.log")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", scratch, "--result", result_path,
    ]
    if args.trace:
        traces = os.path.join(root, SCRATCH, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "{}-seed{}.json".format(args.workload, args.seed))]

    procs.become_subreaper()
    env = child_env(root, scratch)
    env["PERFBENCH_T_SPAWN"] = repr(time.time())
    with open(log_path, "wb") as log:
        child = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                 stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
    # a SIGTERM to this process still stops the run's session (finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    code = None
    try:
        code = child.wait(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        # the child leads its session, so its pid is the session id
        left = procs.drain_session(child.pid, grace=0.0 if code is None else 15.0)
    timed_out = code is None

    result = None
    if os.path.exists(result_path):
        with open(result_path) as f:
            result = json.load(f)
    if code != 0 or result is None or left:
        with open(log_path, "rb") as f:
            sys.stderr.write(f.read()[-6000:].decode("utf8", "replace"))
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        os.rmdir(os.path.join(root, SCRATCH))  # only if no traces were kept
    except OSError:
        pass

    if timed_out:
        return fail("run exceeded {} s and was killed".format(RUN_DEADLINE_S), 1)
    if left:
        return fail("{} processes of the run outlived it: {}".format(
            len(left), ", ".join("{}({})".format(p.pid, p.state) for p in left)), 1)
    if result is None:
        return fail("run failed with exit code {}".format(code), 1)
    print(json.dumps(result["info"]), file=sys.stderr)
    print(json.dumps(result["result"]))
    return 0 if code == 0 and result["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
