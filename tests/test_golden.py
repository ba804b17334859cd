"""Golden outputs: the exact stdout and exit code of `selftest`, of every
README example command (as JSON and, where it has one, in its text form),
of `verify --plan` on each built-in plan, of `graded` on blocks in three
degrees, of `gsymm` and `partition` over groups of degree 5, and of the
top-level `--help` (which must list every command).

The JSON files under tests/golden/ were written from the code before the
series kernels were unified, the `-text` files from the code before the
commands stopped printing their own output, and the degree-5 group files
from the code before the group average ran over integer numerators; any
refactor must leave every byte the same.  To
regenerate them after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from doldzeta.cli import SELFTEST_PLANS, main

GOLDEN = Path(__file__).parent / "golden"

README_EXAMPLES = [
    ("readme-dold", ["dold", "--map", '{"size":3,"map":[1,2,0]}', "-N", "6"]),
    ("readme-symmetric", ["symmetric", "--lefschetz", "[-1,-3,-7,-15,-31]", "-l", "1", "-N", "4"]),
    ("readme-borsuk-ulam", ["borsuk-ulam", "--profile", '{"horizon":6,"values":[3,0,0,0,0,0]}', "-N", "6"]),
    ("readme-tuples", ["tuples", "--lefschetz-number", "2", "-l", "1", "-N", "4"]),
    (
        "readme-gsymm",
        ["gsymm", "--group", '{"degree":2,"elements":[[0,1],[1,0]]}', "--map", '{"size":2,"map":[0,1]}'],
    ),
    (
        "readme-partition",
        [
            "partition",
            "--group", '{"degree":2,"elements":[[0,1],[1,0]]}',
            "--family", '{"ground":2,"max_block":1}',
            "--map", '{"size":2,"map":[0,1]}',
        ],
    ),
    ("readme-order-poly", ["order-poly", "--family", '{"ground":3,"max_block":1}', "--at", "3"]),
    ("readme-graded", ["graded", "--matrices", '{"degrees":{"0":[["1"]],"1":[["-1"]]}}', "-N", "6"]),
    (
        "readme-config-trace",
        [
            "config-trace",
            "--graded", '{"degrees":{"0":[["1"]],"1":[["-1"]]}}',
            "--parity", "odd", "--epsilon", "-1", "-N", "6",
        ],
    ),
    ("readme-verify", ["verify", "--plan", '{"identity":"md","map":{"size":4,"map":[1,0,3,3]}}']),
    ("readme-selftest", ["selftest"]),
]

PLAN_CASES = [
    (f"plan-{i}", ["verify", "--plan", json.dumps(plan, sort_keys=True)])
    for i, (_, plan) in enumerate(SELFTEST_PLANS)
]

# every README command but `selftest` (which prints text only) again in
# its `--format text` form
TEXT_CASES = [
    (f"{name}-text", argv + ["--format", "text"])
    for name, argv in README_EXAMPLES
    if argv[0] != "selftest"
]

# `graded` with blocks in three degrees, so that the Poincaré series mixes
# inverted even factors with direct odd ones at several T-shifts; the second
# case gives each degree its own denominator, so the common one is not 1
GRADED_CASES = [
    (
        "graded-three-degrees",
        [
            "graded",
            "--matrices", '{"degrees":{"0":[["1","1"],["0","2"]],"1":[["-1"]],"2":[["1/2"]]}}',
            "-N", "16",
        ],
    ),
    (
        "graded-mixed-denominators",
        [
            "graded",
            "--matrices",
            '{"degrees":{"0":[["1/3","1"],["0","2"]],"1":[["-2/5"]],"2":[["3/4","1/2"],["-1","0"]]}}',
            "-N", "24",
        ],
    ),
]

# `gsymm` and `partition` at a realistic size, beyond the S2 of the README:
# S5 with a coefficient set, S3xS2 (by generators) with a `refines` family
# and a coefficient set, and D5 with a block bound, each also as text
GROUP_JSON_CASES = [
    (
        "gsymm-s5-coefficient",
        [
            "gsymm",
            "--group", '{"degree":5,"generators":[[1,2,3,4,0],[1,0,2,3,4]]}',
            "--coefficient-size", "3",
            "--map", '{"size":4,"map":[1,2,0,3]}',
        ],
    ),
    (
        "partition-s3xs2-refines-coefficient",
        [
            "partition",
            "--group", '{"degree":5,"generators":[[1,2,0,3,4],[1,0,2,3,4],[0,1,2,4,3]]}',
            "--family", '{"ground":5,"refines":[[0,1,2],[3,4]]}',
            "--coefficient-size", "2",
            "--map", '{"size":4,"map":[1,0,3,3]}',
        ],
    ),
    (
        "partition-d5-max-block",
        [
            "partition",
            "--group", '{"degree":5,"generators":[[1,2,3,4,0],[0,4,3,2,1]]}',
            "--family", '{"ground":5,"max_block":3}',
            "--map", '{"size":5,"map":[1,0,2,3,3]}',
        ],
    ),
]
GROUP_CASES = GROUP_JSON_CASES + [
    (f"{name}-text", argv + ["--format", "text"]) for name, argv in GROUP_JSON_CASES
]

CASES = (
    README_EXAMPLES + TEXT_CASES + PLAN_CASES + GRADED_CASES + GROUP_CASES + [("help", ["--help"])]
)


def render(argv) -> str:
    """The exit code line followed by the exact stdout of one in-process run;
    help text is wrapped at 80 columns whatever the terminal."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help exits from inside the parser
            code = exc.code
    return f"exit {code}\n{out.getvalue()}"


def test_cases_cover_every_selftest_plan():
    assert len(PLAN_CASES) == len(SELFTEST_PLANS) == 9
    assert len(README_EXAMPLES) == 11
    assert len(TEXT_CASES) == 10


def test_help_lists_every_command():
    commands = {argv[0] for _, argv in README_EXAMPLES} | {"zeta"}
    help_text = (GOLDEN / "help.txt").read_text(encoding="utf-8")
    assert help_text.startswith("exit 0\nusage: dold-zeta")
    assert all(f"\n    {command} " in help_text for command in commands)
    assert len(commands) == 12


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render(argv) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        (GOLDEN / f"{name}.txt").write_text(render(argv), encoding="utf-8")
