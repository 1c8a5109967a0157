"""`cli.run` parses argv with the leaf its command words name, and with the
whole `build_parser` tree whenever the leaf refuses: either way the result
is the tree's own, down to every message and exit code.

The reference is a fresh tree from `build_parser()`, parsing all of argv.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_fuzz_cli import SUBCOMMANDS, command_lines, materialize

from disclab import cli
from disclab.cli import CommandOutcome, build_parser, run


def parse_outcome(parse, argv):
    """The attributes `parse` gives argv, or its exit code and everything it
    printed on the way out."""
    cli._printed.__dict__.pop("messages", None)
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, cli._printed.__dict__.pop("messages", [])


def assert_parsed_as_the_tree(argv):
    assert parse_outcome(cli._parse, argv) == parse_outcome(build_parser().parse_args, argv), argv


def tree_run(argv, monkeypatch):
    """`run(argv)` with argv parsed by the whole tree alone."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
        return run(argv)


def leaf_words():
    leaves = {}
    build_parser(leaves)
    return sorted(leaves)


def test_every_command_is_a_leaf():
    """Each command the fuzzer knows is routed straight to its leaf."""
    assert leaf_words() == sorted(SUBCOMMANDS)


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_fuzzed_command_lines_parse_as_the_tree(drawn):
    argv, files = drawn
    with tempfile.TemporaryDirectory() as tmp:
        assert_parsed_as_the_tree(materialize(argv, files, Path(tmp)))


MINC = ["fd", "minc", "--instance", "I.json", "--notion", "ef"]
EDGE_CASES = [
    *([*words, "-h"] for words in leaf_words()),
    *([*words, "--help"] for words in leaf_words()),
    [*MINC, "--bogus"],  # an unknown option
    [*MINC, "extra"],  # a trailing positional
    [*MINC, "--"],
    ["fd", "minc", "--", *MINC[2:]],
    ["--", *MINC],
    ["fd", "--", *MINC[1:]],
    ["fd", "minc", "--inst", "I.json", "--not", "ef"],  # abbreviated long options
    ["fd", "minc", "--instance=I.json", "--notion=ef", "--cap=5"],
    ["experiment", "--n", "2", "--p", "1/2", "--t"],  # an ambiguous abbreviation
    ["fd", "minc", "--instance", "I.json"],  # a missing required flag
    [*MINC[:-1], "envy"],  # a bad choice
    ["certify", "wdisc-lb", "--p", "1/3", "--n", "3"],  # a bad type
    ["fd"], ["wdisc"], ["construct"], ["certify"], ["odisc"],  # bare group words
    [], ["bogus"], ["-h"], ["fd", "-h"], ["fd", "bogus"], ["-h", *MINC],
    ["fd", "minc", "minc", *MINC[2:]],
    ["experiment"],
    ["experiment", "--n", "2,4", "--p", "1/2", "--k", "2", "--float-view"],
    ["experiment", "fd", "minc"],
    [*MINC, "-h"],
    [*MINC, "--notion", "cd"],  # a repeated flag: the last one counts
]


@pytest.mark.parametrize("argv", EDGE_CASES, ids=" ".join)
def test_edge_cases_parse_as_the_tree(argv):
    assert_parsed_as_the_tree(argv)


def test_refused_calls_leave_nothing_behind(tmp_path, monkeypatch):
    """A refused call's outcome is the tree's; the call after it prints only
    its own output, the same as a run in a fresh process would."""
    instance = tmp_path / "I.json"
    instance.write_text(json.dumps({"groups": [[["1", "1/2", "0"]], [["1/3", "1", "1"]]]}))
    good = ["fd", "minc", "--inst", str(instance), "--notion", "ef"]
    expected = tree_run(good, monkeypatch)
    assert expected.exit_code == 0 and expected.stderr == ""
    assert run(good) == expected
    for argv in EDGE_CASES:
        argv = [str(instance) if token == "I.json" else token for token in argv]
        refused = run(argv)
        assert refused == tree_run(argv, monkeypatch), argv
        assert run(good) == expected, argv


def test_unknown_argument_falls_back_to_the_top_level_usage():
    outcome = run([*MINC, "--bogus"])
    assert outcome == CommandOutcome(2, "", outcome.stderr)
    assert outcome.stderr.startswith("usage: disclab [-h]")
    assert outcome.stderr.endswith("disclab: error: unrecognized arguments: --bogus\n")
    helped = run(["fd", "minc", "-h"])
    assert (helped.exit_code, helped.stderr) == (0, "")
    assert helped.stdout.startswith("usage: disclab fd minc [-h]")
