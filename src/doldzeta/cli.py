"""Command-line front end: JSON in, JSON (or aligned text) out.

Subcommands cover the whole library: orbit profiles and zeta functions of
finite self-maps, the closed-form series for symmetric powers, subset
spaces and bounded tuple spaces, the group-average and partition-family
polynomials, graded (cohomological) inputs, configuration-space trace
series, verification plans pitting closed forms against brute-force
oracles, and a self-test.

Exit codes: 0 on success (and on PASS for `verify`/`selftest`), 1 on a
verification FAIL, 2 on usage errors including malformed JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dynamics import (
    DoldProfile,
    FiniteSelfMap,
    HorizonError,
    InconsistentInputError,
    LefschetzSequence,
    NotRealizableError,
    cycle_profile,
    lefschetz_sequence,
    zeta_of_map,
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
    configuration_trace_series,
    general_lefschetz_polynomial,
    gsymm_polynomial,
    order_polynomial,
    rhs_borsuk_ulam,
    rhs_bounded_tuples,
    rhs_symmetric_power,
    verify_identity,
)
from .oracles import EnumerationLimitError, coefficient_traces
from .partitions import (
    NoExcludedPartitionError,
    NotRefinementClosedError,
    PartitionFamily,
    PermutationGroup,
)
from .series import NotAUnitError, NotExpandableError, PowerSeries, egf_unpack, rat_str

USAGE_ERRORS = (
    ValueError,
    KeyError,
    TypeError,
    HorizonError,
    NotRealizableError,
    NotAUnitError,
    NotExpandableError,
    NotRefinementClosedError,
    NoExcludedPartitionError,
)


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliUsageError(
            f"malformed JSON for {what} at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}"
        ) from exc


class CliUsageError(Exception):
    pass


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in _render_text(payload):
            print(line)


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


def _parse_order(value: str) -> int:
    order = int(value)
    if not 1 <= order <= 64:
        raise argparse.ArgumentTypeError("order must lie in 1..64")
    return order


def _parse_bound_flag(value: str):
    if value in ("inf", "none", "unbounded"):
        return None
    bound = int(value)
    if bound < 0:
        raise argparse.ArgumentTypeError("bound must be >= 0 (or 'inf')")
    return bound


def _zeta_from_args(args, order: int) -> PowerSeries:
    if getattr(args, "map", None):
        f = FiniteSelfMap.from_json(_load_json(args.map, "--map"))
        return zeta_of_map(f, order)
    if getattr(args, "lefschetz", None):
        values = _load_json(args.lefschetz, "--lefschetz")
        seq = LefschetzSequence.from_json(values)
        if seq.horizon < order:
            raise CliUsageError(
                f"need {order} Lefschetz numbers for order {order}, got {seq.horizon}"
            )
        return zeta_series(seq, order)
    if getattr(args, "profile", None):
        profile = DoldProfile.from_json(_load_json(args.profile, "--profile"))
        if profile.horizon < order:
            raise CliUsageError(
                f"need horizon >= {order}, got {profile.horizon}"
            )
        return zeta_series(profile, order)
    if getattr(args, "zeta", None):
        series = PowerSeries.from_json(_load_json(args.zeta, "--zeta"))
        if series.order < order:
            raise CliUsageError(f"zeta series order {series.order} is below {order}")
        return series.truncated(order)
    if getattr(args, "graded", None):
        endo = GradedEndomorphism.from_json(_load_json(args.graded, "--graded"))
        return graded_zeta(endo, order)
    raise CliUsageError("provide one of --map/--lefschetz/--profile/--zeta/--graded")


def _group_and_gset(args):
    group = PermutationGroup.from_json(_load_json(args.group, "--group"))
    gset = None
    if getattr(args, "gset", None):
        obj = _load_json(args.gset, "--gset")
        size = int(obj["size"])
        table = [None] * group.order
        for idx, perm in obj["action"].items():
            table[int(idx)] = tuple(int(x) for x in perm)
        if any(entry is None or len(entry) != size for entry in table):
            raise CliUsageError("the G-set action must cover every group element")
        gset = tuple(table)
    return group, gset


def _traces_from_args(args, group, gset):
    if getattr(args, "traces", None):
        values = _load_json(args.traces, "--traces")
        if len(values) != group.order:
            raise CliUsageError("need one trace per group element, in element order")
        return {g: int(v) for g, v in zip(group.elements, values)}
    if getattr(args, "coefficient_size", None) is not None:
        return coefficient_traces(group, args.coefficient_size, gset)
    return None


def cmd_dold(args) -> int:
    f = FiniteSelfMap.from_json(_load_json(args.map, "--map"))
    profile = cycle_profile(f, args.order)
    seq = lefschetz_sequence(f, args.order)
    zeta = zeta_series(profile, args.order, reduced=args.reduced)
    payload = {
        "profile": profile.to_json(),
        "lefschetz": seq.to_json(),
        "zeta": zeta.to_json(),
    }
    if args.format == "text":
        print("profile  " + " ".join(str(v) for v in profile.values))
        print("lefschetz  " + " ".join(str(v) for v in seq.values))
        for line in _series_text(zeta):
            print(line)
    else:
        _emit(payload, "json")
    return 0


def cmd_zeta(args) -> int:
    if args.map:
        f = FiniteSelfMap.from_json(_load_json(args.map, "--map"))
        zeta = zeta_of_map(f, args.order, reduced=args.reduced)
    elif args.lefschetz:
        seq = LefschetzSequence.from_json(_load_json(args.lefschetz, "--lefschetz"))
        zeta = zeta_series(seq, args.order, reduced=args.reduced)
    elif args.profile:
        profile = DoldProfile.from_json(_load_json(args.profile, "--profile"))
        zeta = zeta_series(profile, args.order, reduced=args.reduced)
    elif args.graded:
        endo = GradedEndomorphism.from_json(_load_json(args.graded, "--graded"))
        zeta = graded_zeta(endo, args.order)
        if args.reduced:
            one_minus_q = PowerSeries([1, -1], order=args.order)
            zeta = zeta * one_minus_q.inverse()
    else:
        raise CliUsageError("provide one of --map/--lefschetz/--profile/--graded")
    if args.format == "text":
        for line in _series_text(zeta):
            print(line)
    else:
        _emit({"zeta": zeta.to_json()}, "json")
    return 0


def cmd_symmetric(args) -> int:
    zeta = _zeta_from_args(args, args.order)
    series = rhs_symmetric_power(zeta, args.bound)
    if args.format == "text":
        for line in _series_text(series):
            print(line)
    else:
        _emit({"bound": "inf" if args.bound is None else args.bound,
               "series": series.to_json()}, "json")
    return 0


def cmd_borsuk_ulam(args) -> int:
    zeta = _zeta_from_args(args, args.order)
    series = rhs_borsuk_ulam(zeta)
    if args.format == "text":
        for line in _series_text(series):
            print(line)
    else:
        _emit({"series": series.to_json()}, "json")
    return 0


def cmd_tuples(args) -> int:
    series = rhs_bounded_tuples(args.lefschetz_number, args.bound, args.order)
    counts = egf_unpack(series)
    payload = {
        "egf": series.to_json(),
        "counts": [rat_str(c) for c in counts],
    }
    if args.format == "text":
        for k, c in enumerate(counts):
            print(f"k={k}  {rat_str(c)}")
    else:
        _emit(payload, "json")
    return 0


def cmd_gsymm(args) -> int:
    group, gset = _group_and_gset(args)
    traces = _traces_from_args(args, group, gset)
    lp = gsymm_polynomial(group, gset, traces)
    payload = {"polynomial": lp.to_json()}
    if args.profile:
        profile = DoldProfile.from_json(_load_json(args.profile, "--profile"))
        payload["value"] = rat_str(lp.evaluate(profile))
    elif args.map:
        f = FiniteSelfMap.from_json(_load_json(args.map, "--map"))
        payload["value"] = rat_str(lp.evaluate_map(f))
    if args.format == "text":
        print(str(lp.poly))
        if "value" in payload:
            print(f"value  {payload['value']}")
    else:
        _emit(payload, "json")
    return 0


def cmd_partition(args) -> int:
    group, gset = _group_and_gset(args)
    family = PartitionFamily.from_json(_load_json(args.family, "--family"))
    traces = _traces_from_args(args, group, gset)
    lp = general_lefschetz_polynomial(group, family, traces, gset)
    payload = {"polynomial": lp.to_json()}
    if args.profile:
        profile = DoldProfile.from_json(_load_json(args.profile, "--profile"))
        payload["value"] = rat_str(lp.evaluate(profile))
    elif args.map:
        f = FiniteSelfMap.from_json(_load_json(args.map, "--map"))
        payload["value"] = rat_str(lp.evaluate_map(f))
    if args.format == "text":
        print(str(lp.poly))
        if "value" in payload:
            print(f"value  {payload['value']}")
    else:
        _emit(payload, "json")
    return 0


def cmd_order_poly(args) -> int:
    family = PartitionFamily.from_json(_load_json(args.family, "--family"))
    poly = order_polynomial(family)
    payload = {
        "block_counts": list(family.block_counts()),
        "coeffs": poly.to_json(),
    }
    if args.at is not None:
        payload["value"] = rat_str(poly(args.at))
    if args.format == "text":
        print(poly.render("t"))
        if args.at is not None:
            print(f"value at {args.at}  {payload['value']}")
    else:
        _emit(payload, "json")
    return 0


def cmd_graded(args) -> int:
    endo = GradedEndomorphism.from_json(_load_json(args.matrices, "--matrices"))
    char = characteristic_rational_function(endo)
    zeta = graded_zeta(endo, args.order)
    poincare = poincare_generating(endo, args.order)
    payload = {
        "characteristic": char.to_json(),
        "zeta": zeta.to_json(),
        "poincare": poincare.to_json(),
        "lefschetz": [rat_str(v) for v in graded_lefschetz_numbers(endo, args.order)],
    }
    if args.format == "text":
        print(f"characteristic  ({char.numerator.render('t')}) / ({char.denominator.render('t')})")
        for line in _series_text(zeta):
            print(line)
    else:
        _emit(payload, "json")
    return 0


def cmd_config_trace(args) -> int:
    zeta = _zeta_from_args(args, args.order)
    series = configuration_trace_series(zeta, args.parity, args.epsilon)
    traces = [series[k] * (args.epsilon ** k) for k in range(series.order + 1)]
    payload = {
        "series": series.to_json(),
        "lefschetz_traces": [rat_str(t) for t in traces],
    }
    if args.format == "text":
        for line in _series_text(series):
            print(line)
        print("traces  " + " ".join(rat_str(t) for t in traces))
    else:
        _emit(payload, "json")
    return 0


def cmd_verify(args) -> int:
    text = args.plan
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
    plan = _load_json(text, "--plan")
    report = verify_identity(plan)
    if not args.timings:
        report.pop("elapsed_s", None)
    _emit(report, args.format)
    return 0 if report["pass"] else 1


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


def cmd_selftest(args) -> int:
    failures = 0
    for name, plan in SELFTEST_PLANS:
        report = verify_identity(plan)
        verdict = "PASS" if report["pass"] else "FAIL"
        if not report["pass"]:
            failures += 1
            print(f"{verdict}  {name}: {report['first_mismatch']}")
        else:
            print(f"{verdict}  {name}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dold-zeta",
        description=(
            "Exact zeta functions of self-maps and fixed-point counts of the "
            "induced maps on symmetric powers, subset spaces, tuple spaces and "
            "partition-constrained configuration spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-N", "--order", type=_parse_order, default=DEFAULT_ORDER,
                       help="truncation order (1..64, default 12)")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("dold", help="orbit profile, Lefschetz numbers and zeta of a finite map")
    p.add_argument("--map", required=True, help='{"size": n, "map": [...]}')
    p.add_argument("--reduced", action="store_true")
    common(p)
    p.set_defaults(func=cmd_dold)

    p = sub.add_parser("zeta", help="zeta function from a profile, Lefschetz data, map or graded input")
    p.add_argument("--map")
    p.add_argument("--profile")
    p.add_argument("--lefschetz")
    p.add_argument("--graded")
    p.add_argument("--reduced", action="store_true")
    common(p)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("symmetric", help="fixed-point series of bounded symmetric powers")
    p.add_argument("--map")
    p.add_argument("--profile")
    p.add_argument("--lefschetz")
    p.add_argument("--zeta")
    p.add_argument("--graded")
    p.add_argument("-l", "--bound", type=_parse_bound_flag, default=None,
                   help="multiplicity bound (default: unbounded)")
    common(p)
    p.set_defaults(func=cmd_symmetric)

    p = sub.add_parser("borsuk-ulam", help="fixed-point series of bounded subset spaces")
    p.add_argument("--map")
    p.add_argument("--profile")
    p.add_argument("--lefschetz")
    p.add_argument("--zeta")
    p.add_argument("--graded")
    common(p)
    p.set_defaults(func=cmd_borsuk_ulam)

    p = sub.add_parser("tuples", help="bounded tuple spaces (exponential generating function)")
    p.add_argument("--lefschetz-number", type=int, required=True,
                   help="number of fixed points (any integer formally)")
    p.add_argument("-l", "--bound", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_tuples)

    p = sub.add_parser("gsymm", help="group-average fixed-point polynomial of map(K, -)/G")
    p.add_argument("--group", required=True)
    p.add_argument("--gset")
    p.add_argument("--traces")
    p.add_argument("--coefficient-size", type=int)
    p.add_argument("--profile")
    p.add_argument("--map")
    common(p)
    p.set_defaults(func=cmd_gsymm)

    p = sub.add_parser("partition", help="fixed-point polynomial of a partition-constrained functor")
    p.add_argument("--group", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--gset")
    p.add_argument("--traces")
    p.add_argument("--coefficient-size", type=int)
    p.add_argument("--profile")
    p.add_argument("--map")
    common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("order-poly", help="falling-factorial counting polynomial of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--at", type=int)
    common(p)
    p.set_defaults(func=cmd_order_poly)

    p = sub.add_parser("graded", help="characteristic function, zeta and bivariate series of a graded matrix")
    p.add_argument("--matrices", required=True,
                   help='{"degrees": {"0": [["1"]], "1": [["-1"]]}}')
    common(p)
    p.set_defaults(func=cmd_graded)

    p = sub.add_parser("config-trace", help="configuration-space trace series")
    p.add_argument("--map")
    p.add_argument("--profile")
    p.add_argument("--lefschetz")
    p.add_argument("--zeta")
    p.add_argument("--graded")
    p.add_argument("--parity", choices=("odd", "even"), required=True)
    p.add_argument("--epsilon", type=int, choices=(1, -1), default=1)
    common(p)
    p.set_defaults(func=cmd_config_trace)

    p = sub.add_parser("verify", help="run a verification plan (closed form vs oracle)")
    p.add_argument("--plan", required=True, help="inline JSON, or @path to a file")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed times (breaks byte-identical output)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="run the built-in verification plans")
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationLimitError as exc:
        print(
            json.dumps(
                {"error": "enumeration-limit", "size": exc.size, "limit": exc.limit},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return 2
    except InconsistentInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
