"""Guards on the package's shape: one verification handler per documented
identity, no exported function or public method of an exported class that
only the tests call, and no parameter default that only the tests change."""

import ast
import contextlib
import inspect
import io
import re
import sys
import types
from pathlib import Path

import doldzeta
from doldzeta.cli import SELFTEST_PLANS, main
from doldzeta.identities import _VERIFIERS, _ZETA_SOURCES
from test_golden import CASES

ROOT = Path(__file__).resolve().parent.parent

# exported names and methods ("Class.method") whose only callers are tests,
# and why they stay
TEST_ORACLES = {
    "induced_bounded_multiset_map": "the explicit induced map on multisets, whose orbit "
    "counts the iterate transport of the polynomial calculus is checked against",
    "koszul_invariant_trace": "the Koszul-signed trace on symmetric-group invariants, "
    "the independent oracle for the bivariate determinant formula",
    "Poly.coeffs": "the coefficients as Fractions, which the comparisons with the Fraction "
    "arithmetic `Poly` replaced read; the program reads `den` and `nums`",
}

# one input per zeta-source flag, each read to order 4 by a `symmetric` run
ZETA_INPUTS = {
    "map": '{"size":3,"map":[1,2,0]}',
    "lefschetz": "[-1,-3,-7,-15]",
    "profile": '{"horizon":4,"values":[3,0,0,0]}',
    "zeta": '{"order":4,"coeffs":["1","-3","3","-1","0"]}',
    "graded": '{"degrees":{"0":[["1"]],"1":[["-1"]]}}',
}


def readme_plan_keys():
    """identity -> the keys named in its row of the README's plan-key table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("| identity | checks | plan keys |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` \|[^|]*\|([^|]*)\|$", table, flags=re.M)
    return {identity: set(re.findall(r"`([a-z_A-Z]+)`", keys)) for identity, keys in rows}


def test_handler_table_matches_selftest_plans_and_readme():
    handlers = set(_VERIFIERS)
    assert {plan["identity"] for _, plan in SELFTEST_PLANS} == handlers
    readme = readme_plan_keys()
    assert sorted(readme) == sorted(handlers)
    # every plan takes "identity" and "k_max" besides the keys of its row
    every = {"identity", "k_max"}
    assert {identity: keys | every for identity, (_, keys) in _VERIFIERS.items()} == {
        identity: keys | every for identity, keys in readme.items()
    }


def referenced_names(paths):
    """Every name loaded, and every attribute read, in the given sources."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def run_command(argv) -> int:
    """The exit code of one in-process `dold-zeta` run, its output dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(list(argv))
        except SystemExit as exc:  # --help exits from inside the parser
            return exc.code


def run_corpus():
    """Every golden command (the README examples, as JSON and as text, each
    built-in plan and --help), one `symmetric` run per zeta source, and one
    pass of every benchmark workload at its default seed, library calls
    included; each command must succeed."""
    import worker
    import workloads

    assert sorted(ZETA_INPUTS) == sorted(_ZETA_SOURCES)
    commands = [argv for _, argv in CASES] + [
        ["symmetric", f"--{key}", value, "-N", "4"] for key, value in ZETA_INPUTS.items()
    ]
    ops = [op for name in workloads.WORKLOADS for op in workloads.build(name, workloads.DEFAULT_SEED)]
    commands += [op["argv"] for op in ops if op["kind"] == "cli"]
    assert [argv for argv in commands if run_command(argv) != 0] == []
    for op in ops:
        if op["kind"] != "cli":
            worker._library_call(op)()


def record_calls(run, watched) -> tuple:
    """Run `run`; return the code objects of every Python function it
    called and, for the code objects in `watched` ({code: {parameter:
    default}}), the (code, parameter) pairs of each parameter that some call
    gave a value other than its default."""
    called, overridden = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
            for name, default in watched.get(frame.f_code, {}).items():
                value = frame.f_locals[name]
                if value is not default and value != default:
                    overridden.add((frame.f_code, name))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called, overridden


def exported() -> dict:
    """The package's exported names, modules left out."""
    return {
        name: value for name, value in vars(doldzeta).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def public_functions(exports) -> dict:
    """Each exported function, and each public method, classmethod or
    property of an exported class ("Class.method")."""
    functions = {}
    for name, value in exports.items():
        if inspect.isfunction(inspect.unwrap(value)):
            functions[name] = inspect.unwrap(value)
        elif isinstance(value, type):
            for attr, member in vars(value).items():
                member = member.fget if isinstance(member, property) else member
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and isinstance(member, types.FunctionType):
                    functions[f"{name}.{attr}"] = member
    return functions


def defaults(function) -> dict:
    """The parameters of a function that have a default, with the default."""
    parameters = inspect.signature(function).parameters.items()
    return {name: p.default for name, p in parameters if p.default is not p.empty}


def record_corpus(monkeypatch, watched) -> tuple:
    """`record_calls` over one run of the corpus; a cached export starts
    empty, so that a call runs its code."""
    for value in exported().values():
        getattr(value, "cache_clear", lambda: None)()
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return record_calls(run_corpus, watched)


def test_every_export_has_a_caller_outside_the_tests(monkeypatch):
    exports = exported()
    # a class or constant is used when the program or the benchmark names it
    sources = [p for p in (ROOT / "src" / "doldzeta").glob("*.py") if p.name != "__init__.py"]
    named = referenced_names(sources + sorted((ROOT / "bench").glob("*.py")))
    assert sorted(name for name, value in exports.items()
                  if not inspect.isfunction(inspect.unwrap(value)) and name not in named) == []
    # a function or method is used when the corpus calls it
    called, _ = record_corpus(monkeypatch, {})
    code = {name: function.__code__ for name, function in public_functions(exports).items()}
    assert set(TEST_ORACLES) <= set(code)
    reached = {key for key, obj in code.items() if obj in called}
    # an oracle that gains a library caller leaves the allowlist
    called_oracles = sorted(reached & set(TEST_ORACLES))
    assert not called_oracles, "called outside the tests: " + ", ".join(called_oracles)
    uncalled = sorted(set(code) - reached - set(TEST_ORACLES))
    assert not uncalled, "called by the tests only: " + ", ".join(uncalled)


def test_every_default_is_overridden_outside_the_tests(monkeypatch):
    # the test oracles are left out: the corpus calls none of them
    functions = {name: function for name, function in public_functions(exported()).items()
                 if name not in TEST_ORACLES}
    _, overridden = record_corpus(
        monkeypatch, {function.__code__: defaults(function) for function in functions.values()}
    )
    unset = sorted(f"{name}.{parameter}" for name, function in functions.items()
                   for parameter in defaults(function)
                   if (function.__code__, parameter) not in overridden)
    assert not unset, "only ever left at the default outside the tests: " + ", ".join(unset)


def imported_modules(path) -> set:
    """The top-level names of the modules a file imports, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_every_reference_module_is_imported_by_a_test_module():
    # a reference nothing imports checks nothing
    tests = Path(__file__).resolve().parent
    references = sorted(path.stem for path in tests.glob("*_reference.py"))
    assert "dynamics_reference" in references
    imported = set().union(*(imported_modules(path) for path in tests.glob("test_*.py")))
    assert sorted(set(references) - imported) == []


def nodes_with_context(tree, function=None, parent=None):
    """(enclosing function name or None, parent node, node) for every node."""
    for node in ast.iter_child_nodes(tree):
        yield function, parent, node
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from nodes_with_context(node, inner, node)


def test_only_the_covered_builders_mark_a_family_stable_under_every_action():
    # `_require_stable` returns a family marked for every action without a
    # walk, so only `full` and `max_block`, whose stability
    # `test_families_built_stable_are_stable_under_every_permutation`
    # confirms, may build that mark
    stores, literals, uses = [], [], []
    for path in sorted((ROOT / "src" / "doldzeta").glob("*.py")):
        for function, parent, node in nodes_with_context(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id == "_EVERY_ACTION":
                if isinstance(node.ctx, ast.Store):
                    stores.append((path.name, function))
                elif isinstance(parent, ast.Call):
                    uses.append((path.name, function, ast.unparse(parent.func)))
                else:
                    uses.append((path.name, function, ast.unparse(parent)))
            elif isinstance(node, ast.Constant) and node.value == "every action":
                literals.append((path.name, function))
    assert stores == literals == [("partitions.py", None)]
    assert sorted(uses) == [
        ("partitions.py", "_require_stable", "family.action is _EVERY_ACTION"),
        ("partitions.py", "full", "_StableFamily"),
        ("partitions.py", "max_block", "_StableFamily"),
    ]
