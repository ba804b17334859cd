"""Wrong-type inputs at every place of every README example's JSON.

Each JSON flag value of each README example is parsed, one of its nodes (a
leaf, a list or an object, the whole value included) is replaced with a
value of another type, and the command is run again.  Every case must end
with exit code 0, 1 or 2 and no exception escaping `main`: a wrong type is
refused with a one-line message, never with a traceback.  A seeded sample
of cases with two nodes replaced follows the exhaustive single ones."""

import contextlib
import io
import json
import random

from doldzeta.cli import main

from test_golden import README_EXAMPLES

REPLACEMENTS = (1.5, [2], {}, None, True, "x", -1)


def paths(value, prefix=()):
    """The path of every node of a parsed JSON value, the root's first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


def json_flags(argv):
    """(index, parsed value) of every argument that is a JSON list or object."""
    out = []
    for i, arg in enumerate(argv):
        if arg[:1] in "[{":
            out.append((i, json.loads(arg)))
    return out


def single_cases():
    for name, argv in README_EXAMPLES:
        for i, value in json_flags(argv):
            for path in paths(value):
                for new in REPLACEMENTS:
                    yield name, [(i, path, new)], argv


def run(argv, edits):
    argv = list(argv)
    values = dict(json_flags(argv))
    for i, path, new in edits:
        values[i] = replaced(values[i], path, new)
    for i, value in values.items():
        argv[i] = json.dumps(value)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(argv)
    return rc, err.getvalue()


def test_every_single_wrong_type_exits_cleanly(monkeypatch):
    monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "2000")
    codes = {}
    for name, edits, argv in single_cases():
        rc, err = run(argv, edits)
        assert rc in (0, 1, 2), (name, edits)
        if rc == 2:
            assert err.startswith(("error: ", '{"error": ')) and err.count("\n") == 1, (name, edits, err)
        codes[rc] = codes.get(rc, 0) + 1
    assert sum(codes.values()) > 500 and codes[2] > codes.get(0, 0)


def test_seeded_pairs_of_wrong_types_exit_cleanly(monkeypatch):
    monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "2000")
    rng = random.Random(3232)
    examples = [(name, argv, json_flags(argv)) for name, argv in README_EXAMPLES]
    examples = [example for example in examples if example[2]]
    for _ in range(300):
        name, argv, flags = rng.choice(examples)
        edits = []
        for _ in range(2):
            i, value = rng.choice(flags)
            edits.append((i, rng.choice(list(paths(value))), rng.choice(REPLACEMENTS)))
        if len({(i, path) for i, path, _ in edits}) < 2:
            continue
        edits.sort(key=lambda edit: (edit[0], len(edit[1])), reverse=True)
        rc, err = run(argv, edits)
        assert rc in (0, 1, 2), (name, edits)
