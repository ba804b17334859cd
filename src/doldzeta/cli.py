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
in one process, and finds `cmd_<command>` by name at each call.

Each command's flags are declared once, by its function in `COMMANDS`.
Called on a recorder, that function gives the table from which `main` reads
a plain command line (a known command, then whole flags, each value in the
next word) into the namespace argparse would build, with no parser built.
Any other line, `--help` and every refusal go to argparse: one parser of
every command, built the first time a process needs it.  The JSON is
written by `_dumps`, which gives the bytes of `json.dumps(indent=2,
sort_keys=True)` with one join per container.  A flag is declared only
on the commands that read it: `-N` on those that truncate a series,
`--format` on all but `selftest` (text only).

Exit codes: 0 on success, on PASS for `verify`/`selftest` and for `--help`,
1 on a verification FAIL, 2 on usage errors including malformed JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .dynamics import (
    DoldProfile,
    FiniteSelfMap,
    InconsistentInputError,
    cycle_profile,
    lefschetz_from_dold,
    zeta_series,
)
from .graded import (
    GradedEndomorphism,
    _zeta_and_traces,
    characteristic_rational_function,
    poincare_generating,
)
from .identities import (
    DEFAULT_ORDER,
    MAX_PLAN_ORDER,
    _ZETA_SOURCES,
    _configuration_traces,
    _one_given,
    _over_one_minus_q,
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
    _shown,
    egf_unpack,
    rat_str,
)

USAGE_ERRORS = (
    ValueError,
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
        f"q^{k}".ljust(width) + "  " + c for k, c in enumerate(series.to_json()["coeffs"])
    ]


def _with_value(line: str, label: str, payload: dict) -> list:
    """`line`, then the payload's "value" under `label` when it has one."""
    return [line] + ([f"{label}  {payload['value']}"] if "value" in payload else [])


def _decimal(value: str):
    """`value` read as an int when it is decimal digits (spaces around
    allowed) within Python's int-to-string limit, else None."""
    try:
        return int(value) if value.strip().isdecimal() else None
    except ValueError:  # more digits than the limit
        return None


def _parse_order(value: str) -> int:
    order = _decimal(value)
    if order is not None and 1 <= order <= MAX_PLAN_ORDER:
        return order
    raise argparse.ArgumentTypeError(f"the order must be an integer in 1..{MAX_PLAN_ORDER}, got {_shown(value)}")


def _parse_bound_flag(value: str):
    if value in ("inf", "none", "unbounded"):
        return None
    bound = _decimal(value)
    if bound is not None:
        return bound
    raise argparse.ArgumentTypeError(f"the bound must be an integer >= 0, or 'inf' for none, got {_shown(value)}")


def _parse_int(value: str) -> int:
    """`int(value)`, refused as argparse refuses `type=int` but with the
    value cut by `_shown`."""
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(value)}") from None


def _json_flags(args, keys):
    """The given flags among `keys` read as JSON, their names, and the command's."""
    names = {key: f"--{key}" for key in keys}
    source = {
        key: _load_json(getattr(args, key), name)
        for key, name in names.items()
        if getattr(args, key) is not None
    }
    return source, names, f"the {args.command!r} command"


def _zeta_from_args(args) -> PowerSeries:
    """The zeta series of the one zeta-input flag given to the command."""
    source, names, where = _json_flags(args, args.input_flags)
    return _read_zeta(source, args.order, where, names)


def cmd_dold(args):
    f = FiniteSelfMap.from_json(_load_json(args.map, "--map"))
    profile = cycle_profile(f, args.order)
    seq = lefschetz_from_dold(profile)
    zeta = zeta_series(profile, args.order)
    zeta = _over_one_minus_q(zeta) if args.reduced else zeta
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
    zeta = _zeta_from_args(args)
    zeta = _over_one_minus_q(zeta) if args.reduced else zeta
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
    zeta, lefschetz = _zeta_and_traces(endo, args.order)
    poincare = poincare_generating(endo, args.order)
    payload = {
        "characteristic": char.to_json(),
        "zeta": zeta.to_json(),
        "poincare": {"order": args.order, "coeffs": [c.to_json() for c in poincare]},
        "lefschetz": [rat_str(v) for v in lefschetz],
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


def _input_flags(p, keys=_ZETA_SOURCES):
    """One flag per input kind, each taking that kind's JSON object."""
    for key in keys:
        p.add_argument(f"--{key}")
    p.set_defaults(input_flags=keys)


def _group_flags(p, keys=("group", "gset", "traces")):
    """The group, its action and the coefficient; `keys` are the JSON ones."""
    p.add_argument("--group", required=True)
    p.add_argument("--gset")
    p.add_argument("--traces")
    p.add_argument("--coefficient-size", type=_parse_int)
    p.set_defaults(group_flags=keys)


def _common(p, order=True):
    """--format on every command, and -N on those that read an order."""
    if order:
        p.add_argument("-N", "--order", type=_parse_order, default=DEFAULT_ORDER,
                       help=f"truncation order (1..{MAX_PLAN_ORDER}, default {DEFAULT_ORDER})")
    p.add_argument("--format", choices=("json", "text"), default="json")


def _dold_flags(p):
    p.add_argument("--map", required=True, help='{"size": n, "map": [...]}')
    p.add_argument("--reduced", action="store_true")
    _common(p)


def _zeta_flags(p):
    _input_flags(p, tuple(key for key in _ZETA_SOURCES if key != "zeta"))
    p.add_argument("--reduced", action="store_true")
    _common(p)


def _symmetric_flags(p):
    _input_flags(p)
    p.add_argument("-l", "--bound", type=_parse_bound_flag, default=None,
                   help="multiplicity bound (default: unbounded)")
    _common(p)


def _borsuk_ulam_flags(p):
    _input_flags(p)
    _common(p)


def _tuples_flags(p):
    p.add_argument("--lefschetz-number", type=_parse_int, required=True,
                   help="number of fixed points (any integer formally)")
    p.add_argument("-l", "--bound", type=_parse_int, required=True)
    _common(p)


def _gsymm_flags(p):
    _group_flags(p)
    _input_flags(p, ("profile", "map"))
    _common(p, order=False)


def _partition_flags(p):
    _group_flags(p, ("group", "gset", "traces", "family"))
    p.add_argument("--family", required=True)
    _input_flags(p, ("profile", "map"))
    _common(p, order=False)


def _order_poly_flags(p):
    p.add_argument("--family", required=True)
    p.add_argument("--at", type=_parse_int)
    _common(p, order=False)


def _graded_flags(p):
    p.add_argument("--matrices", required=True,
                   help='{"degrees": {"0": [["1"]], "1": [["-1"]]}}')
    _common(p)


def _config_trace_flags(p):
    _input_flags(p)
    p.add_argument("--parity", choices=("odd", "even"), required=True)
    p.add_argument("--epsilon", type=_parse_int, choices=(1, -1), default=1)
    _common(p)


def _verify_flags(p):
    p.add_argument("--plan", required=True, help="inline JSON, or @path to a file")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed times (breaks byte-identical output)")
    _common(p, order=False)


def _selftest_flags(p):
    # the self-test prints its PASS/FAIL lines only
    p.set_defaults(format="text")


# each command's help line and the function declaring its flags, in the
# order of the top-level help and of its list of choices
COMMANDS = {
    "dold": ("orbit profile, Lefschetz numbers and zeta of a finite map", _dold_flags),
    "zeta": ("zeta function from a profile, Lefschetz data, map or graded input", _zeta_flags),
    "symmetric": ("fixed-point series of bounded symmetric powers", _symmetric_flags),
    "borsuk-ulam": ("fixed-point series of bounded subset spaces", _borsuk_ulam_flags),
    "tuples": ("bounded tuple spaces (exponential generating function)", _tuples_flags),
    "gsymm": ("group-average fixed-point polynomial of map(K, -)/G", _gsymm_flags),
    "partition": ("fixed-point polynomial of a partition-constrained functor", _partition_flags),
    "order-poly": ("falling-factorial counting polynomial of a family", _order_poly_flags),
    "graded": ("characteristic function, zeta and bivariate series of a graded matrix", _graded_flags),
    "config-trace": ("configuration-space trace series", _config_trace_flags),
    "verify": ("run a verification plan (closed form vs oracle)", _verify_flags),
    "selftest": ("run the built-in verification plans", _selftest_flags),
}


class _FlagTable:
    """One command's flags, recorded by calling its flag function on this in
    place of a parser: the action of each option string, the required
    flags, and the namespace argparse starts from (defaults, `set_defaults`
    values and the command)."""

    def __init__(self, command):
        self.actions = {}  # option string -> (dest, type, or None for a switch, choices)
        self.required = set()
        self.defaults = {"command": command}
        COMMANDS[command][1](self)

    def add_argument(self, *names, action=None, type=None, choices=None, required=False,
                     default=None, help=None):
        # argparse's dest: the first long option string, else the first short one
        dest = next((n for n in names if n.startswith("--")), names[0]).lstrip("-").replace("-", "_")
        switch = action == "store_true"
        for name in names:
            self.actions[name] = (dest, None if switch else type or str, choices)
        if required:
            self.required.add(dest)
        self.defaults[dest] = False if switch else default

    def set_defaults(self, **values):
        self.defaults.update(values)


_TABLES = {name: _FlagTable(name) for name in COMMANDS}


def _read_plain(argv):
    """The namespace argparse would build for a plain command line, or None
    for any other: a known command, then whole option strings, each value
    in the next word (one starting with "-" only if a negative integer)
    and passing its flag's type and choices, and every required flag; the
    last of a repeated flag wins."""
    flags = _TABLES.get(argv[0] if argv else None)
    if flags is None:
        return None
    values, seen = dict(flags.defaults), set()
    words = iter(argv[1:])
    for word in words:
        if word not in flags.actions:
            return None
        dest, convert, choices = flags.actions[word]
        if convert is None:  # a switch
            values[dest] = True
        else:
            value = next(words, None)
            if value is None or value[:1] == "-" and not value[1:].isdecimal():
                return None
            try:
                value = convert(value)
            except Exception:  # refused by the type function: argparse says why
                return None
            if choices is not None and value not in choices:
                return None
            values[dest] = value
        seen.add(dest)
    return SimpleNamespace(**values) if flags.required <= seen else None


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals (and its subparsers', which share its class)
    raise, so that they leave through `main`'s one error handler."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    """The argparse parser of every command, in the table's order."""
    parser = _Parser(
        prog="dold-zeta",
        description=(
            "Exact zeta functions of self-maps and fixed-point counts of the "
            "induced maps on symmetric powers, subset spaces, tuple spaces and "
            "partition-constrained configuration spaces."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags) in COMMANDS.items():
        flags(commands.add_parser(name, help=help_line))
    return parser


_parser = None  # the process's full parser, built the first time a line is not plain


def _parse(argv):
    """`argv` read by the full parser, built once per process.  argparse's
    refusals echo a refused word whole; each word of more than 40
    characters is cut in them by `_shown`, longest first."""
    global _parser
    _parser = _parser or build_parser()
    try:
        return _parser.parse_args(argv)
    except ValueError as exc:
        message = str(exc)
        for word in sorted({w for w in argv if len(w) > 40}, key=len, reverse=True):
            shown = _shown(word)
            message = message.replace(repr(word), shown).replace(word, shown)
        raise ValueError(message) from None


def _dumps(value, indent="\n") -> str:
    """The text of `json.dumps(value, indent=2, sort_keys=True)`, whose
    indenting encoder yields token by token from Python generators, built
    here by one join per container, with strings quoted by json's own
    quoting function; `indent` is a newline and the indent of the level
    that holds `value`.  A list of strings, such as a series' coefficients,
    is quoted by one map of that function; an item it refuses, such as an
    int after a string, sends the list item by item."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is dict and all([type(key) is str for key in value]):
        ends = "{}"
        items = [_quote(key) + ": " + _dumps(item, inner) for key, item in sorted(value.items())]
    elif kind is list or kind is tuple:
        ends = "[]"
        try:
            items = list(map(_quote, value)) if value and type(value[0]) is str else None
        except TypeError:  # a string, then something else
            items = None
        items = items or [_dumps(item, inner) for item in value]
    else:  # bools, None, floats, subclasses, and a dict with a key that is not a string
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_plain(argv) or _parse(argv)
        payload, text, *code = globals()[f"cmd_{args.command.replace('-', '_')}"](args)
        lines = [_dumps(payload)] if args.format == "json" else text()
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
