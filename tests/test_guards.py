"""Guards on the package's shape: one verification handler per documented
identity, and no exported name or public method of an exported class that
only the tests call."""

import ast
import re
import types
from pathlib import Path

import doldzeta
from doldzeta.cli import SELFTEST_PLANS
from doldzeta.identities import _VERIFIERS

ROOT = Path(__file__).resolve().parent.parent

# exported names and methods ("Class.method") whose only callers are tests,
# and why they stay
TEST_ORACLES = {
    "induced_bounded_multiset_map": "the explicit induced map on multisets, whose orbit "
    "counts the iterate transport of the polynomial calculus is checked against",
    "koszul_invariant_trace": "the Koszul-signed trace on symmetric-group invariants, "
    "the independent oracle for the bivariate determinant formula",
}


def readme_identities():
    """The identities in the first column of the README's plan-key table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("| identity | checks | plan keys |", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^\| `([a-z-]+)` \|", table, flags=re.M)


def test_handler_table_matches_selftest_plans_and_readme():
    handlers = set(_VERIFIERS)
    assert {plan["identity"] for _, plan in SELFTEST_PLANS} == handlers
    assert sorted(readme_identities()) == sorted(handlers)


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


METHODS = (types.FunctionType, classmethod, staticmethod, property)


def test_every_export_has_a_caller_outside_the_tests():
    sources = [p for p in (ROOT / "src" / "doldzeta").glob("*.py") if p.name != "__init__.py"]
    used = referenced_names(sources + sorted((ROOT / "bench").glob("*.py")))
    exports = {
        name: value for name, value in vars(doldzeta).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    # a method counts as called when its name is read as an attribute
    # anywhere outside the tests, so a shared name such as `from_json` passes
    methods = {
        f"{name}.{method}": method
        for name, cls in exports.items() if isinstance(cls, type)
        for method, value in vars(cls).items()
        if not method.startswith("_") and isinstance(value, METHODS)
    }
    callable_names = {**{name: name for name in exports}, **methods}
    assert set(TEST_ORACLES) <= set(callable_names)
    # an oracle that gains a library caller leaves the allowlist
    assert sorted(key for key in TEST_ORACLES if callable_names[key] in used) == []
    uncalled = {key for key, name in callable_names.items() if name not in used}
    assert sorted(uncalled - set(TEST_ORACLES)) == []
