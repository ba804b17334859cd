"""Every operation of the four benchmark workloads, at the default and the
held-out seed, run as the benchmark's worker runs it and checked by the
benchmark's own checker (`bench/checks.py`).  The checker recomputes each
output along another route without importing doldzeta: Burnside sums over
explicit elements, brute-force counts, the expression model and the
induced power map."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from doldzeta.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SEEDS = (1, 4242)  # workloads.DEFAULT_SEED and workloads.HELD_OUT_SEED


@pytest.fixture(scope="module")
def bench():
    """The benchmark's workloads, worker and checks modules."""
    sys.path.insert(0, str(BENCH))
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # the worker prints `ready`
            import checks
            import worker
            import workloads
    finally:
        sys.path.remove(str(BENCH))
    assert SEEDS == (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
    return workloads, worker, checks


def run_op(worker, op) -> dict:
    """The op's result as the worker records it: exit code, stdout and
    stderr of a command, or the JSON form of a library call's value."""
    if op["kind"] != "cli":
        return {"value": worker._result_json(worker._library_call(op)())}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(op["argv"]))
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["group-calculus", "zeta-series", "oracle-verify", "functor-calculus"])
def test_every_workload_output_passes_the_independent_check(bench, name, seed):
    workloads, worker, checks = bench
    assert name in workloads.WORKLOADS
    wrong = []
    for op in workloads.build(name, seed):
        try:
            checks.check_op(op, run_op(worker, op))
        except checks.CheckError as exc:
            wrong.append(f"{op['label']}: {exc}")
    assert wrong == []


def test_the_checker_imports_no_doldzeta():
    # with the package on the path, importing the checker and the inputs
    # must leave it unloaded: a check that ran the program would check
    # nothing
    code = (
        "import sys\n"
        "import checks, workloads\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'doldzeta'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")
