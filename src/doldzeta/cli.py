"""Command-line front end: JSON in, JSON (or aligned text) out.

Subcommands cover the whole library: orbit profiles and zeta functions of
finite self-maps, the closed-form series for symmetric powers, subset
spaces and bounded tuple spaces, the group-average and partition-family
polynomials, graded (cohomological) inputs, configuration-space trace
series, verification plans pitting closed forms against brute-force
oracles, and a self-test.

Commands compute and `main` prints.  Each `cmd_*` function returns its
JSON payload and a function giving its `--format text` lines (so JSON runs
render no text); `verify` and `selftest` also return their exit code.
`main` alone writes to stdout and stderr: the JSON, the text lines, or one
error line, argparse's refusals included.  `main(argv)` may be called again
in one process: it builds the parser once and finds `cmd_<command>` by name
at each call.  A flag is declared only on the commands that read it: `-N` on
those that truncate a series, `--format` on all but `selftest` (text only).

Exit codes: 0 on success, on PASS for `verify`/`selftest` and for `--help`,
1 on a verification FAIL, 2 on usage errors including malformed JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dynamics import (
    DoldProfile,
    FiniteSelfMap,
    InconsistentInputError,
    cycle_profile,
    lefschetz_sequence,
    zeta_series,
)
from .graded import (
    GradedEndomorphism,
    characteristic_rational_function,
    graded_lefschetz_numbers,
    graded_zeta,
    poincare_generating,
)
from .identities import (
    DEFAULT_ORDER,
    MAX_PLAN_ORDER,
    _ZETA_SOURCES,
    _configuration_traces,
    _one_given,
    _read_group_inputs,
    _read_zeta,
    general_lefschetz_polynomial,
    gsymm_polynomial,
    order_polynomial,
    rhs_borsuk_ulam,
    rhs_bounded_tuples,
    rhs_symmetric_power,
    verify_identity,
)
from .oracles import EnumerationLimitError
from .partitions import PartitionFamily
from .series import (
    NotAUnitError,
    NotExpandableError,
    PowerSeries,
    _digit_limit_error,
    egf_unpack,
    rat_str,
)

USAGE_ERRORS = (
    ValueError,
    KeyError,
    TypeError,
    NotAUnitError,
    NotExpandableError,
    InconsistentInputError,
)


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON for {what} at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}"
        ) from exc
    except ValueError:  # an integer longer than Python's int-to-string limit
        raise _digit_limit_error(f"an integer in {what}") from None


def _render_text(payload, prefix=""):
    lines = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_render_text(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.extend(_render_text(value, prefix + "  "))
            else:
                lines.append(f"{prefix}- {value}")
    else:
        lines.append(f"{prefix}{payload}")
    return lines


def _series_text(series: PowerSeries) -> list:
    width = max(len(f"q^{series.order}"), 3)
    return [
        f"q^{k}".ljust(width) + "  " + rat_str(c) for k, c in enumerate(series.coeffs)
    ]


def _with_value(line: str, label: str, payload: dict) -> list:
    """`line`, then the payload's "value" under `label` when it has one."""
    return [line] + ([f"{label}  {payload['value']}"] if "value" in payload else [])


def _parse_order(value: str) -> int:
    if value.strip().isdecimal() and 1 <= int(value) <= MAX_PLAN_ORDER:
        return int(value)
    raise argparse.ArgumentTypeError(f"the order must be an integer in 1..{MAX_PLAN_ORDER}, got {value!r}")


def _parse_bound_flag(value: str):
    if value in ("inf", "none", "unbounded"):
        return None
    if value.strip().isdecimal():
        return int(value)
    raise argparse.ArgumentTypeError(f"the bound must be an integer >= 0, or 'inf' for none, got {value!r}")


def _json_flags(args, keys):
    """The given flags among `keys` read as JSON, their names, and the command's."""
    names = {key: f"--{key}" for key in keys}
    source = {
        key: _load_json(getattr(args, key), name)
        for key, name in names.items()
        if getattr(args, key) is not None
    }
    return source, names, f"the {args.command!r} command"


def _zeta_from_args(args, reduced=False) -> PowerSeries:
    """The zeta series of the one zeta-input flag given to the command."""
    source, names, where = _json_flags(args, args.input_flags)
    return _read_zeta(source, args.order, where, names, reduced)


def cmd_dold(args):
    f = FiniteSelfMap.from_json(_load_json(args.map, "--map"))
    profile = cycle_profile(f, args.order)
    seq = lefschetz_sequence(f, args.order)
    zeta = zeta_series(profile, args.order, reduced=args.reduced)
    payload = {
        "profile": profile.to_json(),
        "lefschetz": seq.to_json(),
        "zeta": zeta.to_json(),
    }
    return payload, lambda: [
        "profile  " + " ".join(str(v) for v in profile.values),
        "lefschetz  " + " ".join(str(v) for v in seq.values),
        *_series_text(zeta),
    ]


def cmd_zeta(args):
    zeta = _zeta_from_args(args, args.reduced)
    return {"zeta": zeta.to_json()}, lambda: _series_text(zeta)


def cmd_symmetric(args):
    series = rhs_symmetric_power(_zeta_from_args(args), args.bound)
    payload = {"bound": "inf" if args.bound is None else args.bound, "series": series.to_json()}
    return payload, lambda: _series_text(series)


def cmd_borsuk_ulam(args):
    series = rhs_borsuk_ulam(_zeta_from_args(args))
    return {"series": series.to_json()}, lambda: _series_text(series)


def cmd_tuples(args):
    series = rhs_bounded_tuples(args.lefschetz_number, args.bound, args.order)
    counts = [rat_str(c) for c in egf_unpack(series)]
    payload = {"egf": series.to_json(), "counts": counts}
    return payload, lambda: [f"k={k}  {c}" for k, c in enumerate(counts)]


def _group_from_args(args):
    """The group inputs of a `gsymm` or `partition` command, read as a plan's."""
    source, names, where = _json_flags(args, args.group_flags)
    source["coefficient_size"] = args.coefficient_size
    names["coefficient_size"] = "--coefficient-size"
    return _read_group_inputs(source, where, names)


def _polynomial_result(args, lp):
    """A fixed-point polynomial and its value at --profile or --map, if given."""
    payload = {"polynomial": lp.to_json()}
    source, names, where = _json_flags(args, args.input_flags)
    point = _one_given(source, names, where, required=False)
    if point == "profile":
        payload["value"] = rat_str(lp.evaluate(DoldProfile.from_json(source[point])))
    elif point == "map":
        payload["value"] = rat_str(lp.evaluate_map(FiniteSelfMap.from_json(source[point])))
    return payload, lambda: _with_value(str(lp.poly), "value", payload)


def cmd_gsymm(args):
    group, gset, _, traces = _group_from_args(args)
    return _polynomial_result(args, gsymm_polynomial(group, gset, traces))


def cmd_partition(args):
    group, gset, family, traces = _group_from_args(args)
    return _polynomial_result(args, general_lefschetz_polynomial(group, family, traces, gset))


def cmd_order_poly(args):
    family = PartitionFamily.from_json(_load_json(args.family, "--family"))
    poly = order_polynomial(family)
    payload = {
        "block_counts": list(family.block_counts()),
        "coeffs": poly.to_json(),
    }
    if args.at is not None:
        payload["value"] = rat_str(poly(args.at))
    return payload, lambda: _with_value(poly.render(), f"value at {args.at}", payload)


def cmd_graded(args):
    endo = GradedEndomorphism.from_json(_load_json(args.matrices, "--matrices"), "--matrices")
    char = characteristic_rational_function(endo)
    zeta = graded_zeta(endo, args.order)
    poincare = poincare_generating(endo, args.order)
    payload = {
        "characteristic": char.to_json(),
        "zeta": zeta.to_json(),
        "poincare": {"order": args.order, "coeffs": [c.to_json() for c in poincare]},
        "lefschetz": [rat_str(v) for v in graded_lefschetz_numbers(endo, args.order)],
    }
    return payload, lambda: [
        f"characteristic  ({char.numerator.render()}) / ({char.denominator.render()})",
        *_series_text(zeta),
    ]


def cmd_config_trace(args):
    series, traces = _configuration_traces(_zeta_from_args(args), args.parity, args.epsilon)
    traces = [rat_str(t) for t in traces]
    payload = {"series": series.to_json(), "lefschetz_traces": traces}
    return payload, lambda: [*_series_text(series), "traces  " + " ".join(traces)]


def cmd_verify(args):
    text = args.plan
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read the plan file {text[1:]}: {exc.strerror}") from exc
    report = verify_identity(_load_json(text, "--plan"))
    if not args.timings:
        report.pop("elapsed_s", None)
    return report, lambda: _render_text(report), 0 if report["pass"] else 1


SELFTEST_PLANS = [
    ("symmetric powers, unbounded", {"identity": "md", "map": {"size": 4, "map": [1, 0, 3, 3]}}),
    ("symmetric powers, bound 1", {"identity": "main", "l": 1, "map": {"size": 4, "map": [1, 2, 0, 3]}}),
    ("symmetric powers, bound 2", {"identity": "main", "l": 2, "map": {"size": 5, "map": [1, 0, 2, 4, 3]}}),
    ("subset spaces", {"identity": "prod", "map": {"size": 4, "map": [1, 0, 3, 2]}}),
    ("bounded tuples", {"identity": "sub", "l": 2, "map": {"size": 4, "map": [0, 1, 2, 0]}}),
    (
        "group average",
        {
            "identity": "gsymm",
            "map": {"size": 3, "map": [1, 0, 2]},
            "group": {"degree": 2, "elements": [[0, 1], [1, 0]]},
        },
    ),
    (
        "partition family",
        {
            "identity": "partition",
            "map": {"size": 4, "map": [1, 0, 2, 2]},
            "group": {"degree": 2, "elements": [[0, 1], [1, 0]]},
            "family": {"ground": 2, "max_block": 1},
        },
    ),
    (
        "coefficient space",
        {"identity": "coeffic", "profile": {"horizon": 4, "values": [1, 0, 0, 0]}, "euler": -1, "l": 1, "N": 4},
    ),
    (
        "configuration traces",
        {
            "identity": "config-trace",
            "graded": {"degrees": {"0": [["1"]], "1": [["-1"]]}},
            "parity": "odd",
            "epsilon": -1,
            "expected_traces": [1, 2, 2, 2, 2, 2, 2],
            "k_max": 6,
        },
    ),
]


def cmd_selftest(args):
    reports = [(name, verify_identity(plan)) for name, plan in SELFTEST_PLANS]
    lines = [
        f"PASS  {name}" if report["pass"] else f"FAIL  {name}: {report['first_mismatch']}"
        for name, report in reports
    ]
    return None, lambda: lines, 0 if all(report["pass"] for _, report in reports) else 1


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals (and its subparsers', which share its class)
    raise, so that they leave through `main`'s one error handler."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dold-zeta",
        description=(
            "Exact zeta functions of self-maps and fixed-point counts of the "
            "induced maps on symmetric powers, subset spaces, tuple spaces and "
            "partition-constrained configuration spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def input_flags(p, keys=_ZETA_SOURCES):
        """One flag per input kind, each taking that kind's JSON object."""
        for key in keys:
            p.add_argument(f"--{key}")
        p.set_defaults(input_flags=keys)

    def group_flags(p, keys=("group", "gset", "traces")):
        """The group, its action and the coefficient; `keys` are the JSON ones."""
        p.add_argument("--group", required=True)
        p.add_argument("--gset")
        p.add_argument("--traces")
        p.add_argument("--coefficient-size", type=int)
        p.set_defaults(group_flags=keys)

    def common(p, order=True):
        """--format on every command, and -N on those that read an order."""
        if order:
            p.add_argument("-N", "--order", type=_parse_order, default=DEFAULT_ORDER,
                           help=f"truncation order (1..{MAX_PLAN_ORDER}, default {DEFAULT_ORDER})")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("dold", help="orbit profile, Lefschetz numbers and zeta of a finite map")
    p.add_argument("--map", required=True, help='{"size": n, "map": [...]}')
    p.add_argument("--reduced", action="store_true")
    common(p)

    p = sub.add_parser("zeta", help="zeta function from a profile, Lefschetz data, map or graded input")
    input_flags(p, tuple(key for key in _ZETA_SOURCES if key != "zeta"))
    p.add_argument("--reduced", action="store_true")
    common(p)

    p = sub.add_parser("symmetric", help="fixed-point series of bounded symmetric powers")
    input_flags(p)
    p.add_argument("-l", "--bound", type=_parse_bound_flag, default=None,
                   help="multiplicity bound (default: unbounded)")
    common(p)

    p = sub.add_parser("borsuk-ulam", help="fixed-point series of bounded subset spaces")
    input_flags(p)
    common(p)

    p = sub.add_parser("tuples", help="bounded tuple spaces (exponential generating function)")
    p.add_argument("--lefschetz-number", type=int, required=True,
                   help="number of fixed points (any integer formally)")
    p.add_argument("-l", "--bound", type=int, required=True)
    common(p)

    p = sub.add_parser("gsymm", help="group-average fixed-point polynomial of map(K, -)/G")
    group_flags(p)
    input_flags(p, ("profile", "map"))
    common(p, order=False)

    p = sub.add_parser("partition", help="fixed-point polynomial of a partition-constrained functor")
    group_flags(p, ("group", "gset", "traces", "family"))
    p.add_argument("--family", required=True)
    input_flags(p, ("profile", "map"))
    common(p, order=False)

    p = sub.add_parser("order-poly", help="falling-factorial counting polynomial of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--at", type=int)
    common(p, order=False)

    p = sub.add_parser("graded", help="characteristic function, zeta and bivariate series of a graded matrix")
    p.add_argument("--matrices", required=True,
                   help='{"degrees": {"0": [["1"]], "1": [["-1"]]}}')
    common(p)

    p = sub.add_parser("config-trace", help="configuration-space trace series")
    input_flags(p)
    p.add_argument("--parity", choices=("odd", "even"), required=True)
    p.add_argument("--epsilon", type=int, choices=(1, -1), default=1)
    common(p)

    p = sub.add_parser("verify", help="run a verification plan (closed form vs oracle)")
    p.add_argument("--plan", required=True, help="inline JSON, or @path to a file")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed times (breaks byte-identical output)")
    common(p, order=False)

    # the self-test prints its PASS/FAIL lines only
    p = sub.add_parser("selftest", help="run the built-in verification plans")
    p.set_defaults(format="text")

    return parser


_parser = None  # built by the first `main` call, so that an import does not pay for it


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
        payload, text, *code = globals()[f"cmd_{args.command.replace('-', '_')}"](args)
        lines = [json.dumps(payload, indent=2, sort_keys=True)] if args.format == "json" else text()
    except EnumerationLimitError as exc:
        error = {"error": "enumeration-limit", "size": exc.size, "limit": exc.limit}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 2
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
