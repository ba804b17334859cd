"""The JSON writer of `doldzeta.cli` against `json.dumps`.

`main` prints a command's payload with `cli._dumps`, which must give the
bytes of `json.dumps(payload, indent=2, sort_keys=True)` (whose `indent`
makes json fall back to its pure-Python encoder) for any value, and refuse
what `json.dumps` refuses with the same error.  The values are seeded and
nested: bools among ints, tuples, floats with nan and inf, non-ASCII and
control characters, empty containers, big ints and keys that are not
strings.
"""

import json
import math
import random

import pytest

from doldzeta.cli import _dumps

SEED = 1729
CHARACTERS = "az09 \"\\/\n\t\x00\x1f\x7féü€𝄞 \ud800"
FLOATS = [0.0, -0.0, 1.5, -2.25, 1e300, 1e-300, math.nan, math.inf, -math.inf]


def random_string(rng):
    return "".join(rng.choice(CHARACTERS) for _ in range(rng.randrange(6)))


def random_scalar(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return random_string(rng)
    if kind == 1:
        return rng.randrange(-1000, 1000)
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(FLOATS)
    if kind == 5:
        return rng.choice([-1, 1]) * 7 ** rng.randrange(50, 400)
    return str(rng.randrange(100))


def random_key(rng):
    """A string key mostly; otherwise an int, bool, float or None, which
    json.dumps turns into a string (or refuses to sort among strings)."""
    if rng.random() < 0.85:
        return random_string(rng)
    return rng.choice([0, 7, -3, True, False, 2.5, None])


def random_value(rng, depth=0):
    kind = rng.randrange(6) if depth < 4 else 0
    if kind <= 1:
        return random_scalar(rng)
    items = [random_value(rng, depth + 1) for _ in range(rng.choice([0, 1, 2, 3, 5]))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    if kind == 4:  # a list of strings or of ints, as the payloads hold
        make = random_string if rng.random() < 0.5 else lambda r: r.randrange(-9, 99)
        return [make(rng) for _ in range(rng.randrange(5))] + ([True] if rng.random() < 0.1 else [])
    return {random_key(rng): random_value(rng, depth + 1) for _ in range(rng.randrange(5))}


class Text(str):
    """A str subclass, which json quotes as a str."""


def outcome(dumps, value):
    try:
        return dumps(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


def test_the_writer_gives_the_bytes_of_json_dumps():
    rng = random.Random(SEED)
    refused = 0
    for _ in range(4000):
        value = random_value(rng)
        expected = outcome(reference, value)
        refused += isinstance(expected, tuple)
        assert outcome(_dumps, value) == expected, value
    assert refused > 0  # keys json.dumps cannot sort were drawn


# lists of strings (a str subclass among them): those whose comma-join is
# printable ASCII without `"` or `\` are written in one join, with no string
# quoted; the rest, and those with an item that is not a str (a subclass
# first included), are written item by item
ONE_JOIN = [
    ["1", "-2/3", "0", "12345678901234567890"],
    [""],
    ["", "", "a b"],
    ["3", Text("1/2")],
    ("x", "y"),
]
QUOTED = [
    ['a"b'],
    ["a\\b"],
    ["1", "\x1f"],
    ["\x7f"],
    ["\u2028"],
    ["é", "1"],
    ["\ud800"],
    ["1", "2", 3],
    ["1", None],
    [Text("1/2"), "3"],
]


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": []},
        [True, 1, False, 0],
        (1, ("x", ()), {"k": (2,)}),
        {"b": 1, "a": {"d": [], "c": "é\n"}},
        {2: "two", 1: "one", True: "yes"},
        [math.nan, -math.inf, None],
        10 ** 200,
        " \x00",
        [""],
        [["a", "b/c"], ["é"], []],
        ["a", 1],
        ["a", "b", None],
        [True, "a"],
        [Text("a\n"), "b"],
        ["a", Text("b")],
        ("x", "y"),
    ] + ONE_JOIN + QUOTED,
)
def test_the_writer_on_chosen_values(value):
    assert _dumps(value) == reference(value)


@pytest.mark.parametrize("value, joined", [(v, True) for v in ONE_JOIN] + [(v, False) for v in QUOTED])
def test_a_plain_string_list_is_written_in_one_join(monkeypatch, value, joined):
    import doldzeta.cli as cli

    quoted = []
    monkeypatch.setattr(cli, "_quote", lambda text: quoted.append(text) or json.dumps(text))
    assert cli._dumps(value) == reference(value)
    assert (quoted == []) == joined


@pytest.mark.parametrize(
    "value, error",
    [({"a": [1, {"b": {1, 2}}]}, TypeError), ({"a": ["b", 10 ** 5000]}, ValueError)],
)
def test_a_value_json_refuses_is_refused_alike(value, error):
    assert outcome(_dumps, value) == outcome(reference, value)
    assert outcome(_dumps, value)[0] is error
