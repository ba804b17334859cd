"""One pass of a workload in a fresh process.

    python3 bench/worker.py <workload> <seed> <trace 0|1>
    python3 bench/worker.py prime

The worker imports doldzeta and doldzeta.cli from the checkout's `src`,
prints `ready` (the parent times set-up up to that line), then builds the
workload's inputs, runs every operation once, closed-loop, and prints one
JSON line with each operation's time and output, the calibration kernel's
time before each operation, the peak resident memory and, when traced, the
per-layer summary.  `prime` only imports, so that a fresh checkout compiles
its bytecode before anything is timed.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import doldzeta  # noqa: E402
import doldzeta.cli  # noqa: E402

if not os.path.abspath(doldzeta.__file__).startswith(os.path.join(SRC, "")):
    sys.exit(f"doldzeta was imported from {doldzeta.__file__}, not from {SRC}")
sys.stdout.write("ready\n")
sys.stdout.flush()


def calibration():
    """A fixed slice of interpreter work of the kind the program does (exact
    rational arithmetic, tuples, dict lookups) that never calls doldzeta.
    It is timed before every operation to follow the machine's speed."""
    from fractions import Fraction

    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        key = tuple(range(i % 7))
        seen[key] = seen.get(key, 0) + 1
    table = {}
    for i in range(3000):
        table[(i, i * 7 % 13)] = i
    return acc, len(seen), sum(table.values())


def _expr_object(spec):
    from doldzeta import identities as ids

    kind = spec["kind"]
    if kind == "identity":
        return ids.IdentityFunctor()
    if kind == "sphere":
        return ids.ConstantSphereSmash(spec["parity"])
    if kind == "power":
        return ids.BoundedSymmetricPower(spec["power"], spec["bound"])
    if kind == "wedge":
        return ids.Wedge(tuple(_expr_object(p) for p in spec["parts"]))
    if kind == "smash":
        return ids.Smash(tuple(_expr_object(p) for p in spec["parts"]))
    if kind == "compose":
        return ids.Compose(_expr_object(spec["outer"]), _expr_object(spec["inner"]))
    raise ValueError(kind)


def _expr_json(expr):
    from doldzeta import identities as ids

    if isinstance(expr, ids.IdentityFunctor):
        return {"kind": "identity"}
    if isinstance(expr, ids.ConstantSphereSmash):
        return {"kind": "sphere", "parity": expr.parity}
    if isinstance(expr, ids.BoundedSymmetricPower):
        return {"kind": "power", "power": expr.power, "bound": expr.bound}
    if isinstance(expr, (ids.Wedge, ids.Smash)):
        kind = "wedge" if isinstance(expr, ids.Wedge) else "smash"
        return {"kind": kind, "parts": [_expr_json(p) for p in expr.parts]}
    if isinstance(expr, ids.Compose):
        return {"kind": "compose", "outer": _expr_json(expr.outer),
                "inner": _expr_json(expr.inner)}
    raise TypeError(type(expr))


def _poly_json(poly):
    """A MultiPoly's terms, read from its attributes (no program call)."""
    return {"variables": poly.nvars,
            "terms": [{"exponents": list(e), "coeff": str(c)} for e, c in poly.terms.items()]}


def _result_json(value):
    from fractions import Fraction

    from doldzeta import identities as ids
    from doldzeta.multipoly import MultiPoly

    if isinstance(value, ids.LefschetzPolynomial):
        return {"degree_bound": value.degree_bound, "polynomial": _poly_json(value.poly)}
    if isinstance(value, MultiPoly):
        return _poly_json(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        r, expr = value
        return [r, _expr_json(expr)]
    raise TypeError(type(value))


def _library_call(op):
    """A zero-argument callable for a library operation; its inputs are
    built here, before the clock starts."""
    from fractions import Fraction

    from doldzeta import identities as ids
    from doldzeta.dynamics import DoldProfile
    from doldzeta.multipoly import MultiPoly

    def poly(spec):
        return MultiPoly(spec["nvars"], {tuple(e): Fraction(c) for e, c in spec["terms"]})

    def lefschetz(spec):
        return ids.LefschetzPolynomial(poly(spec), spec["degree_bound"])

    fn, a = op["fn"], op["args"]
    if fn == "bounded_power_polynomial":
        return lambda: ids.bounded_power_polynomial(a["k"], a["bound"])
    if fn == "evaluate":
        lp, profile = lefschetz(a["lp"]), DoldProfile(a["point"])
        return lambda: lp.evaluate(profile)
    if fn == "dold_polynomial_of_functor":
        lp = lefschetz(a["lp"])
        return lambda: ids.dold_polynomial_of_functor(lp, a["m"])
    if fn == "compose_lefschetz":
        outer, inner = lefschetz(a["outer"]), lefschetz(a["inner"])
        return lambda: ids.compose_lefschetz(outer, inner)
    if fn == "expression_polynomial":
        expr = _expr_object(a["expr"])
        return lambda: ids.expression_polynomial(expr)
    if fn == "realize_polynomial":
        p = poly(a["poly"])
        return lambda: ids.realize_polynomial(p, a["k"])
    if fn == "integer_lattice_check":
        p = poly(a["poly"])
        return lambda: ids.integer_lattice_check(p, box=a["box"])
    raise ValueError(fn)


def run_pass(workload, seed, trace):
    import io
    import json
    import resource
    from contextlib import redirect_stderr, redirect_stdout
    from time import perf_counter

    import workloads

    ops = workloads.build(workload, seed)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    kernel_s = []
    output_bytes = 0
    for op_id, op in enumerate(ops):
        start = perf_counter()
        calibration()
        kernel_s.append(perf_counter() - start)
        entry = {"label": op["label"], "ok": True}
        if op["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            main = doldzeta.cli.main
            with redirect_stdout(out), redirect_stderr(err):
                if tracer:
                    tracer.begin(op_id)
                start = perf_counter()
                try:
                    rc = main(op["argv"])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # an operation that fails is counted, not fatal
                    rc = None
                    entry.update(ok=False, error=f"{type(exc).__name__}: {exc}")
                elapsed = perf_counter() - start
                if tracer:
                    tracer.end()
            entry.update(rc=rc, stdout=out.getvalue(), stderr=err.getvalue())
            output_bytes += len(entry["stdout"].encode())
            if rc not in (0, 1):
                entry["ok"] = False
        else:
            call = _library_call(op)
            if tracer:
                tracer.begin(op_id)
            start = perf_counter()
            try:
                value = call()
            except Exception as exc:  # an operation that fails is counted, not fatal
                value = None
                entry.update(ok=False, error=f"{type(exc).__name__}: {exc}")
            elapsed = perf_counter() - start
            if tracer:
                tracer.end()
            if entry["ok"]:
                entry["value"] = _result_json(value)
        entry["t"] = elapsed
        results.append(entry)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = None
    if tracer:
        summary = tracer.summary()
        summary["metrics"]["cli.output_bytes"] = output_bytes
    json.dump({"ops": results, "kernel_s": kernel_s, "maxrss_kb": maxrss_kb, "trace": summary},
              sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["prime"]:
        name, seed_text, trace_text = sys.argv[1:4]
        run_pass(name, int(seed_text), trace_text == "1")
