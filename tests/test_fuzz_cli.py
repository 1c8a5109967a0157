"""Fuzzed command lines: every call of `cli.run` exits 0-3 with no traceback.

argv is drawn from the real subcommands and their flags, with small numbers
and with mistyped values. --matrix, --instance and --allocation name a file
holding a well-formed input, a malformed or mistyped one, or no file at all;
--out and --csv name a writable file, a directory or a missing directory.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from disclab.cli import run


def mostly(good, bad, odds=8):
    """A value from `good`, or one time in `odds` from `bad`."""
    return st.integers(1, odds).flatmap(lambda roll: st.sampled_from(bad if roll == odds else good))


RATIONALS = (["1/2", "1/3", "1/5", "2/3", "1"], ["0", "-1/2", "3/2", "1/0", "0.5", "x", ""])
COUNTS = (["1", "2", "3"], ["-1", "0", "x", ""])

VALUES = {
    "--p": RATIONALS,
    "--n": (["1", "2", "4", "8"], ["-2", "0", "3", "x"]),
    "--k": COUNTS,
    "--cap": (["1", "30"], ["-1", "0", "x"]),
    "--iters": (["1", "5", "50"], ["-1", "0", "x"]),
    "--seed": (["0", "1", "7"], ["-3", "x"]),
    "--trials": (["1", "3"], ["-1", "0", "x"]),
    "--threads": (["1", "2"], ["-1", "0", "x"]),
    "--oracle": (["exact", "greedy", "local-search"], ["bogus", ""]),
    "--kind": (["prop", "ef", "cd"], ["x"]),
    "--notion": (["ef", "prop", "cd"], ["x"]),
    "--istar": (["1", "2"], ["-1", "0", "5"]),
    "--sizes": (["1,1", "2,1", "1", "3,2,1"], ["1,2", "0,0", "", "x"]),
    "--c": (["0", "1", "2"], ["-1", "x"]),
    "--solver": (["exact", "greedy,local-search"], ["bogus", ""]),
}
# experiment reads lists where the other subcommands read one number.
LIST_VALUES = {
    "--n": (["2", "2,4", "1,8"], ["0", "3", "-1", "", "x"]),
    "--p": (["1/2", "1/3,1/5"], ["0", "1", "1/0", "", "x"]),
    "--k": (["2", "2,3"], ["0", "1", "-1", "", "x"]),
}
FILE_FLAGS = ("--matrix", "--instance", "--allocation")
OUT_FLAGS = ("--out", "--csv")
SWITCHES = ("--timings", "--float-view")

SUBCOMMANDS = {
    ("construct", "stacked"): ["--p", "--n", "--out"],
    ("construct", "hadamard"): ["--n", "--out"],
    ("construct", "w"): ["--n", "--out"],
    ("wdisc", "exact"): ["--matrix", "--p", "--cap"],
    ("wdisc", "heur"): ["--matrix", "--p", "--oracle", "--iters", "--seed"],
    ("odisc", "exact"): ["--matrix", "--matrix", "--k", "--cap", "--threads"],
    ("odisc", "color"): ["--matrix", "--matrix", "--k", "--cap", "--oracle", "--iters", "--seed"],
    ("certify", "wdisc-lb"): ["--p", "--n", "--cap"],
    ("certify", "multicolor-lb"): ["--k", "--n", "--cap", "--threads"],
    ("certify", "hadamard-lemma"): ["--n", "--trials", "--seed"],
    ("fd", "gen"): ["--kind", "--matrix", "--k", "--istar", "--sizes", "--out"],
    ("fd", "check"): ["--instance", "--allocation", "--notion", "--c"],
    ("fd", "minc"): ["--instance", "--notion", "--cap", "--threads"],
    ("fd", "allocate"): ["--instance", "--oracle", "--iters", "--seed", "--cap"],
    ("experiment",): [
        "--n", "--p", "--k", "--solver", "--seed", "--iters", "--cap", "--threads",
        "--csv", "--timings", "--float-view",
    ],
}

# Cells: rationals in [0, 1] in several spellings, and values that are not.
CELLS = mostly(
    ["0", "1", "1/2", "2/4", " 1/3 ", 0, 1], ["3/2", "-1", "1/0", "x", "", 0.5, None, True, [], {}, 10**30], odds=50
)
BROKEN = [None, -1, 0, 5, "2", 1.5, "x", [], {}, float("inf"), float("nan")]


def cell_lists(length):
    return st.lists(CELLS, min_size=length, max_size=length)


@st.composite
def matrix_docs(draw, rows, cols):
    """A rows x cols matrix object, one time in six with a field broken,
    mistyped or missing."""
    doc = {"rows": rows, "cols": cols, "entries": draw(st.lists(cell_lists(cols), min_size=rows, max_size=rows))}
    if draw(st.integers(0, 5)) == 5:
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            doc[key] = draw(st.sampled_from(BROKEN))
        else:
            del doc[key]
    return doc


@st.composite
def instance_docs(draw, k, m):
    """k groups of agents over m goods, one time in six with the groups
    reshaped or a declared field that may disagree."""
    groups = draw(st.lists(st.lists(cell_lists(m), min_size=1, max_size=2), min_size=k, max_size=k))
    doc = {"groups": groups}
    if draw(st.integers(0, 5)) == 5:
        if draw(st.booleans()):
            doc["groups"] = draw(st.sampled_from([5, "x", None, [], [5], [[5]], [[]], [[["1"]], "x"], groups[:1] + [[["1"] * (m + 1)]]]))
        else:
            doc[draw(st.sampled_from(["k", "m", "group_sizes"]))] = draw(st.sampled_from([k, m, [1] * k] + BROKEN))
    return doc


@st.composite
def allocation_docs(draw, k, m):
    """Bundles of goods 0..m-1 for k groups, one time in six broken."""
    owners = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    bundles = [[g for g in range(m) if owners[g] == i] for i in range(k)]
    if draw(st.integers(0, 5)) == 5:
        bundles = draw(st.sampled_from([5, None, "x", {}, [], [[0, 0]], [[-1]], [[m]], [["0"]], [[1.0]], bundles + [[]]]))
    return {"bundles": bundles}


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3))
ANY_JSON = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
NOT_JSON = ["", "{", "not json", "[" * 200_000, '{"rows": Infinity, "cols": 1, "entries": [[1]]}']


@st.composite
def file_texts(draw, flag, k, m):
    """Text of a file named by `flag`, for k groups or blocks over m columns:
    mostly one of its documents, else any small JSON value or not JSON."""
    roll = draw(st.integers(0, 15))
    if roll == 15:
        return draw(ANY_JSON.map(json.dumps))
    if roll == 14:
        return draw(st.sampled_from(NOT_JSON))
    if flag == "--matrix":
        doc = draw(matrix_docs(draw(st.integers(1, 3)), m))
    elif flag == "--instance":
        doc = draw(instance_docs(k, m))
    else:
        doc = draw(allocation_docs(k, m))
    return json.dumps(doc)


@st.composite
def command_lines(draw):
    """(argv, files): argv names each file it reads by index into `files`,
    whose entries are the file's text, or None where no file exists. The
    files of one command share a shape: k groups over m goods or columns."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    flags = SUBCOMMANDS[command]
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if draw(st.integers(0, 3)) < 3:
        # Mostly every flag once, so the command gets past its required
        # arguments and into the program.
        chosen = flags + draw(st.lists(st.sampled_from(flags), max_size=1))
    else:
        chosen = draw(st.lists(st.sampled_from(flags), max_size=len(flags) + 1))
    argv, files = list(command), []
    for flag in chosen:
        argv.append(flag)
        if flag in SWITCHES:
            continue
        if flag in FILE_FLAGS:
            missing = draw(st.integers(0, 19)) == 19
            argv.append(("file", len(files)))
            files.append(None if missing else draw(file_texts(flag, k, m)))
        elif flag in OUT_FLAGS:
            argv.append(("out", draw(mostly(["file"], ["directory", "missing"]))))
        else:
            pool = LIST_VALUES if command == ("experiment",) and flag in LIST_VALUES else VALUES
            argv.append(draw(mostly(*pool[flag])))
    if draw(st.integers(0, 9)) == 9:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv, files


def materialize(argv, files, root: Path):
    """argv with its file and output placeholders replaced by paths under root."""
    paths = {"file": root / "out.json", "directory": root, "missing": root / "missing" / "out.json"}
    resolved = []
    for token in argv:
        if isinstance(token, tuple) and token[0] == "file":
            path = root / f"input{token[1]}.json"
            if files[token[1]] is not None:
                path.write_text(files[token[1]])
            resolved.append(str(path))
        elif isinstance(token, tuple):
            resolved.append(str(paths[token[1]]))
        else:
            resolved.append(token)
    return resolved


@settings(max_examples=200, deadline=None)
@given(command_lines())
@example((["wdisc", "exact", "--matrix", ("file", 0), "--p", "1/2"], [NOT_JSON[-1]]))  # an infinite row count
def test_fuzzed_command_lines_exit_cleanly(drawn):
    argv, files = drawn
    with tempfile.TemporaryDirectory() as tmp:
        argv = materialize(argv, files, Path(tmp))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            outcome = run(argv)
    assert outcome.exit_code in (0, 1, 2, 3), (argv, outcome)
    assert "Traceback" not in outcome.stderr + stderr.getvalue(), argv
