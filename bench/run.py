"""Benchmark of the dold-zeta CLI and the polynomial calculus.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs passes of the workload until `--seconds` have gone by, each pass in a
fresh worker process (bench/worker.py) and never two at once.  A pass runs
every operation of the workload once, closed-loop: `dold-zeta` commands
through `doldzeta.cli.main(argv)` with output captured, or library calls for
functor-calculus.  Each operation is timed around that call alone; the
parent times the worker's start-up and import as set-up.  Every output is
checked by bench/checks.py, which does not import doldzeta.  Times are
scaled by a calibration kernel timed in the same pass (see `scale`).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics of a traced run with `--trace 1`.  The same object,
the raw per-operation times, each pass's scale and the traced per-function
table are written to bench/out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import checks
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
PASS_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def start_worker(args):
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - started
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or first != b"ready\n":
        raise WorkerError(f"worker {' '.join(args)} exited with {code}")
    return ready, rest


def run_pass(workload, seed, trace):
    setup_s, rest = start_worker([workload, str(seed), "1" if trace else "0"])
    return setup_s, json.loads(rest)


def measure(workload, seed, seconds, trace):
    ops = workloads.build(workload, seed)
    start_worker(["prime"])
    passes = []
    failed = 0
    wrong = []
    verified = {}  # label -> an output that passed its independent check
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        setup_s, result = run_pass(workload, seed, trace)
        if [r["label"] for r in result["ops"]] != [op["label"] for op in ops]:
            raise WorkerError("worker ran a different operation list")
        for op, res in zip(ops, result["ops"]):
            if not res["ok"]:
                failed += 1
                continue
            output = json.dumps([res.get("rc"), res.get("stdout"), res.get("value")])
            if verified.get(op["label"]) == output:
                continue
            try:
                checks.check_op(op, res)
                verified[op["label"]] = output
            except checks.CheckError as exc:
                wrong.append(f"{op['label']}: {exc}")
        passes.append({"setup_s": setup_s, "maxrss_kb": result["maxrss_kb"],
                       "kernel_s": result["kernel_s"],
                       "ops": [[r["label"], r["t"], r["ok"]] for r in result["ops"]],
                       "trace": result["trace"]})
    return ops, passes, failed, wrong


# The calibration kernel's median time within one pass on this machine
# (2-vCPU VM, Python 3.11) at its fast level: the speed that reported times
# refer to.
CALIBRATION_REF_S = 0.00195


def scale(p):
    """CALIBRATION_REF_S over the calibration kernel's median in pass p.

    This machine's speed moves by up to 1.7x with its neighbours on the
    host, for seconds to tens of minutes.  The kernel, timed before every
    operation, follows it; dividing a pass's times by the kernel's time in
    the same pass leaves what the work itself costs."""
    return CALIBRATION_REF_S / statistics.median(p["kernel_s"])


def end_to_end(workload, passes):
    """Each operation's time and set-up are medians over passes of the
    pass's time times its `scale`; memory is the median of passes."""
    scaled = {}
    for p in passes:
        factor = scale(p)
        for label, t, ok in p["ops"]:
            if ok:
                scaled.setdefault(label, []).append(t * factor)
    op_time = {label: statistics.median(v) for label, v in scaled.items()}
    times = list(op_time.values())
    return {
        "ops_per_s": {"value": len(times) / sum(times), "unit": "ops/s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "largest_s": {"value": op_time[workloads.LARGEST[workload]], "unit": "s"},
        "setup_s": {"value": statistics.median(p["setup_s"] * scale(p) for p in passes),
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
                        "unit": "MiB"},
    }


def per_layer(passes):
    units = {}
    for name in tracing.SELF_METRICS:
        units[name] = "s"
    for name in list(tracing.CALL_METRICS) + list(tracing.OTHER_COUNTS):
        units[name] = "count"
    units["cli.output_bytes"] = "bytes"
    units["oracles.candidates_per_s"] = "1/s"
    return {
        name: {"value": statistics.median(p["trace"]["metrics"][name] for p in passes),
               "unit": unit}
        for name, unit in units.items()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "doldzeta", "cli.py")):
        print(f"no doldzeta sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        ops, passes, failed, wrong = measure(args.workload, args.seed, args.seconds,
                                             bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    for line in wrong[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    metrics = per_layer(passes) if args.trace else end_to_end(args.workload, passes)
    result = {"correct": not wrong, "attempted": len(ops) * len(passes), "failed": failed,
              "metrics": metrics}
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"result": result, "passes": [
            {"setup_s": p["setup_s"], "maxrss_kb": p["maxrss_kb"], "scale": scale(p),
             "ops": p["ops"], "kernel_s": p["kernel_s"],
             "per_name": (p["trace"] or {}).get("per_name")}
            for p in passes]}, handle, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
