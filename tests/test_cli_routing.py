"""`cli.run` reads a canonical argv against the actions of the leaf its
command words name, without argparse, and parses any other argv with the
whole `build_parser` tree. Either way, the result is the tree's own, down
to every message and exit code.

The reference is a fresh tree from `build_parser()`, parsing all of argv.
"""

import argparse
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
    ["odisc", "exact", "--matrix", "A.json", "--matrix", "B.json"],  # a repeated append flag
    [*MINC, "--cap", "-1"],  # values that start with "-": argparse reads them as numbers
    ["certify", "hadamard-lemma", "--n", "4", "--trials", "3", "--seed", "-3"],
    ["construct", "w", "--n", "2", "--out", ""],  # an empty value
    ["fd", "minc", "--instance", "--notion", "ef"],  # an option where a value belongs
    ["fd", "minc", "--instance", "-I.json", "--notion", "ef"],  # a value that reads as an option
    ["construct", "w", "--n"],  # a value missing at the end
    ["wdisc", "exact", "--matrix", "M.json", "--p", "1/0"],  # a type that raises InputError
    ["construct", "w", "--n", "3"],  # a type that raises ArgumentTypeError
    ["experiment", "--float-view", "--n", "2", "--p", "1/2"],  # a flag before an option
    ["experiment", "--n", "2", "--p", "1/2", "--float-view", "x"],  # a value after a flag
    ["experiment", "--n", "2", "--p", "1/2", "--float-view", "--float-view"],
]


@pytest.mark.parametrize("argv", EDGE_CASES, ids=" ".join)
def test_edge_cases_parse_as_the_tree(argv):
    assert_parsed_as_the_tree(argv)


# One canonical argv per leaf, each option spelled out with a value that
# its type and choices accept, and the argv shapes the benchmark issues.
CANONICAL = [
    ["construct", "stacked", "--p", "1/2", "--n", "2"],
    ["construct", "hadamard", "--n", "4", "--out", "H.json"],
    ["construct", "w", "--out", "", "--n", "8"],
    ["wdisc", "exact", "--matrix", "M.json", "--p", "1/3"],
    ["wdisc", "exact", "--matrix", "M.json", "--p", "2/4", "--cap", "5", "--p", "1"],
    ["wdisc", "heur", "--matrix", "M.json", "--p", "1/3", "--oracle", "greedy", "--iters", "10", "--seed", "2"],
    ["odisc", "exact", "--matrix", "A.json", "--matrix", "B.json"],
    ["odisc", "exact", "--matrix", "A.json", "--k", "3", "--cap", "9", "--threads", "2"],
    ["odisc", "color", "--matrix", "A.json", "--k", "2", "--oracle", "local-search", "--iters", "5", "--seed", "1",
     "--cap", "4"],
    ["certify", "wdisc-lb", "--p", "1/4", "--n", "4", "--cap", "8"],
    ["certify", "multicolor-lb", "--k", "3", "--n", "2", "--threads", "1", "--cap", "9"],
    ["certify", "hadamard-lemma", "--n", "8", "--trials", "5", "--seed", "1"],
    ["fd", "gen", "--kind", "prop", "--matrix", "M.json", "--k", "2", "--istar", "1", "--sizes", "4,1", "--out", "I.json"],
    ["fd", "gen", "--kind", "cd", "--matrix", "M.json", "--k", "3", "--out", "I.json"],
    ["fd", "check", "--instance", "I.json", "--allocation", "A.json", "--notion", "prop", "--c", "1"],
    MINC,
    ["fd", "minc", "--notion", "cd", "--instance", "I.json", "--cap", "10", "--threads", "2"],
    ["fd", "allocate", "--instance", "I.json", "--oracle", "local-search", "--iters", "300"],
    ["fd", "allocate", "--instance", "I.json", "--seed", "4", "--cap", "3"],
    ["experiment", "--n", "2,4,8", "--p", "1/2,1/3,1/5", "--k", "2,3"],
    ["experiment", "--n", "2", "--p", "1/2", "--solver", "exact,greedy", "--seed", "1", "--iters", "5", "--cap", "9",
     "--threads", "1", "--csv", "out.csv", "--timings", "--float-view"],
]


def test_canonical_command_lines_parse_without_argparse(monkeypatch):
    """Every canonical argv, one at least per leaf, is read against its
    leaf's actions alone, with the attributes the tree's parse gives it."""
    assert {tuple(argv[:2]) if argv[0] != "experiment" else ("experiment",) for argv in CANONICAL} == set(leaf_words())
    expected = [vars(build_parser().parse_args(argv)) for argv in CANONICAL]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a canonical argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    for argv, attributes in zip(CANONICAL, expected):
        assert vars(cli._parse(argv)) == attributes, argv
    assert ["A.json", "B.json"] in [attributes.get("matrix") for attributes in expected]


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
