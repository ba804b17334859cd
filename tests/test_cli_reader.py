"""The plain-line reader of `doldzeta.cli` against argparse.

`main` reads a plain command line (a known command, then whole flags, each
value in the next word) from the flags each command declares, with no
parser built, and sends every other line to the full argparse parser.  Over
seeded random command lines for every command, mixing whole flags with the
spellings only argparse reads (abbreviations, `--flag=value`, `-N5`), help,
`--`, missing and bad values, repeats and unknown words, the reader must
either decline a line or give exactly the namespace of the full parser.
"""

import random

import pytest

from doldzeta import cli

SEED = 20240531
LINES_PER_COMMAND = 3000

PARSER = cli.build_parser()
SUBPARSERS = next(action for action in PARSER._actions if action.dest == "command").choices

# values a flag takes, by its type, and values of every kind, most of them bad
GOOD = {
    None: ['{"size":2,"map":[1,0]}', "[1,1,1]", "", "a b", "-3", "inf"],
    cli._parse_order: ["1", "5", "64", " 12", "007"],
    cli._parse_bound_flag: ["0", "2", "inf", "none", "unbounded", " 3"],
    cli._parse_int: ["3", "-1", "1", "+2", "1_0", " 4 ", "-٣"],
}
BAD = ["65", "0", "-1.5", "0.5", "x", "-", "--", "-x", "", "-N", "٣", "-0", " -1", "-1\n",
       "xml", "odd", "even", "json", "text", "2", "-2", "1e3", "--order", "nan"]
JUNK = ["-h", "--help", "--", "-", "", "--frobnicate", "-x", "-1", "-0.5", "0.5", "word",
        "--map=1", "zeta", "--format", "--reduced", "-N", "-l"]


def flag_actions(command):
    return [a for a in SUBPARSERS[command]._actions if a.option_strings and a.dest != "help"]


def good_value(rng, action):
    if action.choices is not None:
        return str(rng.choice(list(action.choices)))
    return rng.choice(GOOD[action.type])


def chunk(rng, action):
    """An option string of the action and, unless a switch, a good value."""
    word = rng.choice(action.option_strings)
    return [word] if action.nargs == 0 else [word, good_value(rng, action)]


def mutate(rng, chunks, actions):
    """One change to the chunks: a spelling only argparse reads, a bad or
    missing value, a repeat, a help flag or an unknown word."""
    kind = rng.randrange(8)
    valued = [c for c in chunks if len(c) == 2]
    if kind == 0 and chunks:  # an abbreviation, or a short option cut to "-"
        c = rng.choice(chunks)
        c[0] = c[0][: rng.randint(1, max(1, len(c[0]) - 1))]
    elif kind == 1 and valued:  # --flag=value or -Nvalue in one word
        c = rng.choice(valued)
        c[:] = [c[0] + ("=" if c[0].startswith("--") or rng.random() < 0.3 else "") + c[1]]
    elif kind == 2 and valued:  # a bad value
        rng.choice(valued)[1] = rng.choice(BAD)
    elif kind == 3 and valued:  # a missing value
        rng.choice(valued).pop()
    elif kind == 4 and actions:  # a repeat, with another value
        chunks.append(chunk(rng, rng.choice(actions)))
    elif kind == 5:  # an unknown or stray word
        chunks.insert(rng.randrange(len(chunks) + 1), [rng.choice(JUNK)])
    elif kind == 6 and chunks:  # a required flag, or any, left out
        chunks.pop(rng.randrange(len(chunks)))
    elif kind == 7:  # help
        chunks.insert(rng.randrange(len(chunks) + 1), [rng.choice(["-h", "--help"])])


def random_line(rng, command):
    actions = flag_actions(command)
    chunks = [chunk(rng, a) for a in actions
              if rng.random() < (0.9 if a.required else 0.3)]
    rng.shuffle(chunks)
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        mutate(rng, chunks, actions)
    head = command
    if rng.random() < 0.03:
        head = rng.choice(["", "-h", command[:3], command.upper(), "frobnicate"])
    words = [head] + [word for c in chunks for word in c]
    return words[1:] if head == "" and rng.random() < 0.5 else words


def argparse_namespace(argv):
    try:
        return vars(PARSER.parse_args(argv))
    except (ValueError, SystemExit) as exc:  # a refusal, or help
        pytest.fail(f"the reader read {argv!r}, which argparse refuses: {exc}")


def test_the_reader_gives_argparse_namespace_or_declines():
    rng = random.Random(SEED)
    drawn = accepted = 0
    for command in cli.COMMANDS:
        read = 0
        for _ in range(LINES_PER_COMMAND):
            argv = random_line(rng, command)
            drawn += 1
            plain = cli._read_plain(argv)
            if plain is not None:
                read += 1
                assert vars(plain) == argparse_namespace(argv), argv
        assert read > 0, command
        accepted += read
    assert drawn >= 30000
    # a nontrivial share is read without argparse (15328 of 36000 lines here)
    assert accepted >= 0.2 * drawn


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_the_required_flags_alone_make_a_plain_line(command):
    rng = random.Random(command)
    argv = [command] + [w for a in flag_actions(command) if a.required for w in chunk(rng, a)]
    assert vars(cli._read_plain(argv)) == argparse_namespace(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--lefschetz", "[1,1,1]", "--ord", "5"],
        ["zeta", "--lefschetz", "[1,1,1]", "--order=5"],
        ["zeta", "--lefschetz", "[1,1,1]", "-N5"],
        ["zeta", "--lefschetz", "-x"],
        ["zeta", "--lefschetz", "[1]", "-h"],
        ["zeta", "--", "--lefschetz", "[1]"],
        ["tuples", "--lefschetz-number", "3"],
        ["tuples", "--lefschetz-number", "x", "-l", "1"],
        ["config-trace", "--lefschetz", "[1]", "--parity", "odd", "--epsilon", "2"],
        ["graded", "--matrices", "{}", "--format", "xml"],
        ["frobnicate"],
        [],
    ],
)
def test_lines_argparse_must_read_are_declined(argv):
    assert cli._read_plain(argv) is None
