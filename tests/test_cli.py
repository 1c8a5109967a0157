import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from disclab.cli import main, run


def invoke(*argv):
    return run(list(argv))


def payload(outcome):
    return json.loads(outcome.stdout)


def write_matrix(tmp_path, name, rows):
    data = {
        "rows": len(rows),
        "cols": len(rows[0]),
        "entries": [[str(e) for e in row] for row in rows],
    }
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_construct_stacked_round_trip(tmp_path):
    out = tmp_path / "A.json"
    outcome = invoke("construct", "stacked", "--p", "1/5", "--n", "2", "--out", str(out))
    assert outcome.exit_code == 0
    data = payload(outcome)
    assert data["rows"] == 2 and data["cols"] == 4
    assert data["entries"] == [["1", "1", "1", "1"], ["1", "0", "1", "0"]]
    assert json.loads(out.read_text()) == data

    solved = invoke("wdisc", "exact", "--matrix", str(out), "--p", "1/5")
    assert solved.exit_code == 0
    result = payload(solved)
    assert result["value"] == "2/5"
    assert result["witness"] == [0, 0, 0, 1]
    assert result["exact"] is True


def test_construct_hadamard_and_w():
    h = payload(invoke("construct", "hadamard", "--n", "4"))
    assert h["entries"][1] == ["1", "-1", "1", "-1"]
    w = payload(invoke("construct", "w", "--n", "4"))
    assert w["entries"][1] == ["1", "0", "1", "0"]


def test_certify_wdisc_lb():
    outcome = invoke("certify", "wdisc-lb", "--p", "1/3", "--n", "2")
    assert outcome.exit_code == 0
    data = payload(outcome)
    assert data["exact_value"] == "1/3"
    assert data["bound"] == "1/8"
    assert data["pass"] is True


def test_certify_multicolor_lb():
    data = payload(invoke("certify", "multicolor-lb", "--k", "3", "--n", "2"))
    assert data["pass"] is True
    assert data["weighted_value"] == "1/3"


# (k, n): (t, exact_value, witness, weighted_value) of `certify multicolor-lb`
# for every k = 2..8 and n = 1, 2, 4 the default cap admits; all pass.
MULTICOLOR_LB = {
    (2, 1): (1, "1/2", [1], "1/2"), (2, 2): (1, "1/2", [1, 2], "1/2"),
    (2, 4): (1, "1", [1, 1, 1, 2], "1"),
    (3, 1): (1, "2/3", [1], "1/3"), (3, 2): (1, "2/3", [1, 2], "1/3"),
    (3, 4): (1, "2/3", [1, 2, 2, 3], "1/3"),
    (4, 1): (2, "1/2", [1, 2], "1/2"), (4, 2): (2, "1/2", [1, 2, 3, 4], "1/2"),
    (4, 4): (2, "1", [1, 1, 1, 2, 2, 2, 3, 4], "1"),
    (5, 1): (2, "3/5", [1, 2], "2/5"), (5, 2): (2, "4/5", [1, 2, 3, 4], "2/5"),
    (5, 4): (2, "4/5", [1, 2, 2, 3, 4, 3, 5, 5], "3/5"),
    (6, 1): (3, "1/2", [1, 2, 3], "1/2"), (6, 2): (3, "1/2", [1, 2, 3, 4, 5, 6], "1/2"),
    (7, 1): (3, "4/7", [1, 2, 3], "3/7"), (7, 2): (3, "6/7", [1, 2, 3, 4, 5, 6], "3/7"),
    (8, 1): (4, "1/2", [1, 2, 3, 4], "1/2"), (8, 2): (4, "1/2", [1, 2, 3, 4, 5, 6, 7, 8], "1/2"),
}
DELTA = {1: "0", 2: "1/8", 4: "13856406460551/64000000000000"}


def test_certify_multicolor_lb_stdout_pinned():
    """The k-color certificate's stdout, byte for byte, over the default
    cap's admitted grid; the rest of the grid is refused by the cap."""
    for k in range(2, 9):
        for n in (1, 2, 4):
            outcome = invoke("certify", "multicolor-lb", "--k", str(k), "--n", str(n))
            if (k, n) not in MULTICOLOR_LB:
                assert (outcome.exit_code, outcome.stdout) == (3, ""), (k, n)
                continue
            t, value, witness, weighted = MULTICOLOR_LB[k, n]
            construction = {"n": n, "p": f"1/{k}", "t": t, "rows": n, "cols": n * t, "delta": DELTA[n]}
            expected = {
                "construction": construction, "exact_value": value, "bound": DELTA[n], "pass": True,
                "witness": witness, "k": k, "weighted_value": weighted,
            }
            assert (outcome.exit_code, outcome.stdout) == (0, json.dumps(expected) + "\n"), (k, n)


def test_certify_hadamard_lemma():
    outcome = invoke("certify", "hadamard-lemma", "--n", "8", "--trials", "50")
    assert outcome.exit_code == 0
    data = payload(outcome)
    assert data == {"n": 8, "trials": 50, "failures": 0, "pass": True}


def test_certify_hadamard_lemma_unit_vectors_are_linear():
    """The n unit vectors at n = 1024 are checked in O(n) each, on their one
    column; n dense O(n^2) products would take about 30 s of CPU."""
    started = time.process_time()
    outcome = invoke("certify", "hadamard-lemma", "--n", "1024", "--trials", "1")
    elapsed = time.process_time() - started
    assert (outcome.exit_code, outcome.stdout) == (0, '{"n": 1024, "trials": 1, "failures": 0, "pass": true}\n')
    assert elapsed < 10


def test_wdisc_heur_deterministic(tmp_path):
    path = write_matrix(tmp_path, "m.json", [[1, 1, 1, 1], [1, 0, 1, 0]])
    first = invoke("wdisc", "heur", "--matrix", path, "--p", "1/3", "--seed", "7")
    second = invoke("wdisc", "heur", "--matrix", path, "--p", "1/3", "--seed", "7")
    assert first == second
    assert payload(first)["exact"] is False


def test_wdisc_heur_refuses_the_exact_oracle(tmp_path):
    path = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    outcome = invoke("wdisc", "heur", "--matrix", path, "--p", "1/3", "--oracle", "exact")
    assert (outcome.exit_code, outcome.stdout) == (2, "")
    assert "invalid choice: 'exact'" in outcome.stderr
    for kind in ("greedy", "local-search"):
        outcome = invoke("wdisc", "heur", "--matrix", path, "--p", "1/3", "--oracle", kind)
        assert payload(outcome)["exact"] is False, kind


def test_usage_errors_and_help_reach_the_outcome(capsys, monkeypatch):
    """argparse's own words land in the outcome, not on the process's
    streams: a usage error in stderr with exit 2, help text in stdout with
    exit 0. `main` prints them as it prints every outcome."""
    outcome = invoke("wdisc")
    assert (outcome.exit_code, outcome.stdout) == (2, "")
    assert outcome.stderr.startswith("usage: disclab wdisc [-h]")
    assert "disclab wdisc: error: the following arguments are required: how" in outcome.stderr
    helped = invoke("wdisc", "exact", "--help")
    assert (helped.exit_code, helped.stderr) == (0, "")
    assert helped.stdout.startswith("usage: disclab wdisc exact [-h] --matrix MATRIX --p P")
    assert capsys.readouterr() == ("", "")
    for argv, code, out, err in (
        (["wdisc"], 2, "", outcome.stderr),
        (["wdisc", "exact", "--help"], 0, helped.stdout, ""),
    ):
        monkeypatch.setattr(sys, "argv", ["disclab"] + argv)
        with pytest.raises(SystemExit) as caught:
            main()
        assert caught.value.code == code
        assert capsys.readouterr() == (out, err)


def test_odisc_exact_k_copies(tmp_path):
    path = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    data = payload(invoke("odisc", "exact", "--matrix", path, "--k", "2"))
    assert data["value"] == "1/2"
    assert data["exact"] is True


def test_odisc_color_certificate(tmp_path):
    path = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    data = payload(invoke("odisc", "color", "--matrix", path, "--k", "3"))
    assert len(data["coloring"]) == 2
    assert len(data["bounds"]) == 3
    assert data["certificate"]["colors"] == [1, 3]


def test_odisc_k_copies_refuse_cells_before_listing(tmp_path):
    """Both odisc commands stack the k copies, so k copies of more than the
    cell cap are refused before they are listed (tracemalloc)."""
    path = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    one = write_matrix(tmp_path, "one.json", [[1]])
    for argv, cells in (
        (("odisc", "color", "--matrix", path, "--k", "10000000"), 40_000_000),
        (("odisc", "exact", "--matrix", one, "--k", "5000000", "--cap", "64"), 5_000_000),
    ):
        tracemalloc.start()
        try:
            outcome = invoke(*argv)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (outcome.exit_code, outcome.stdout) == (3, ""), argv
        assert f"stacked cells {cells} exceed cap 4194304" in outcome.stderr
        assert peak < 1_000_000, argv


def test_fd_pipeline(tmp_path):
    amat = write_matrix(tmp_path, "amat.json", [[1, 1, 1]])
    instance_path = tmp_path / "inst.json"
    gen = invoke("fd", "gen", "--kind", "prop", "--matrix", amat, "--k", "2",
                 "--istar", "1", "--sizes", "2,1", "--out", str(instance_path))
    assert gen.exit_code == 0
    inst = payload(gen)
    assert inst["group_sizes"] == [2, 1]
    assert inst["groups"][0][0] == ["1", "1", "1"]

    minc = invoke("fd", "minc", "--instance", str(instance_path), "--notion", "prop")
    assert minc.exit_code == 0
    assert payload(minc)["c_star"] == 1

    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"bundles": [[0, 1], [2]]}))
    check = invoke("fd", "check", "--instance", str(instance_path),
                   "--allocation", str(alloc_path), "--notion", "prop", "--c", "1")
    assert check.exit_code == 0
    assert payload(check) == {"notion": "PROP", "c": 1, "pass": True}

    failing = invoke("fd", "check", "--instance", str(instance_path),
                     "--allocation", str(alloc_path), "--notion", "prop", "--c", "0")
    assert failing.exit_code == 1
    assert payload(failing)["pass"] is False

    allocate = invoke("fd", "allocate", "--instance", str(instance_path),
                      "--oracle", "local-search", "--iters", "200")
    assert allocate.exit_code == 0
    result = payload(allocate)
    assert result["pass"] is True
    assert result["c"] == 2 * result["H"]
    assert sorted(g for bundle in result["bundles"] for g in bundle) == [0, 1, 2]


def test_fd_gen_cd(tmp_path):
    amat = write_matrix(tmp_path, "amat.json", [[1, 1]])
    data = payload(invoke("fd", "gen", "--kind", "cd", "--matrix", amat, "--k", "2"))
    assert data["k"] == 2


def test_fd_gen_refuses_flags_its_kind_ignores(tmp_path):
    """--istar is read by --kind prop alone and --sizes by prop and ef: given
    to another kind, either is a usage error naming it, not dropped."""
    amat = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    for argv, message in (
        (("--kind", "ef", "--istar", "2", "--sizes", "4,4"), "--istar applies only to --kind prop, not ef"),
        (("--kind", "cd", "--istar", "1"), "--istar applies only to --kind prop, not cd"),
        (("--kind", "cd", "--sizes", "9,9"), "--sizes does not apply to --kind cd"),
    ):
        outcome = invoke("fd", "gen", "--matrix", amat, "--k", "2", *argv)
        assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (2, "", f"error: {message}\n"), argv
    plain = invoke("fd", "gen", "--matrix", amat, "--k", "2", "--kind", "prop", "--sizes", "4,1")
    first = invoke("fd", "gen", "--matrix", amat, "--k", "2", "--kind", "prop", "--sizes", "4,1", "--istar", "1")
    assert plain.exit_code == 0 and plain.stdout == first.stdout


def test_fd_gen_refuses_utilities_before_building(tmp_path):
    """An instance of more utilities than the cell cap is a budget error,
    refused before its agents are listed (tracemalloc)."""
    path = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    for argv, cells in (
        (("--kind", "cd", "--k", "100000000"), 200_000_000),
        (("--kind", "prop", "--k", "2", "--sizes", "100000000,1"), 200_000_002),
    ):
        tracemalloc.start()
        try:
            outcome = invoke("fd", "gen", "--matrix", path, *argv)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (outcome.exit_code, outcome.stdout) == (3, ""), argv
        assert f"instance utilities {cells} exceed cap 4194304" in outcome.stderr
        assert peak < 1_000_000, argv


def test_experiment_sweep():
    outcome = invoke("experiment", "--n", "2,4", "--p", "1/2,1/3")
    assert outcome.exit_code == 0
    lines = outcome.stdout.strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    header = lines[0].split(",")
    assert header[:5] == ["mode", "n", "k", "p", "solver"]
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["pass"] == "True"
        assert row["status"] == "ok"


def test_experiment_budget_skip():
    outcome = invoke("experiment", "--n", "2", "--k", "2", "--cap", "1")
    assert outcome.exit_code == 3
    assert "skipped:budget" in outcome.stdout


def test_experiment_cap_reaches_exact_wdisc_rows():
    """--cap bounds the exact wdisc rows as well as the multicolor ones."""
    outcome = invoke("experiment", "--n", "16", "--p", "1/8", "--cap", "64")
    assert outcome.exit_code == 0
    header, line = outcome.stdout.splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert (row["status"], row["pass"]) == ("ok", "True")


def test_experiment_empty_grid():
    assert invoke("experiment").exit_code == 2
    assert invoke("experiment", "--n", "2,4").exit_code == 2


def test_experiment_csv_file_and_float_view(tmp_path):
    out = tmp_path / "sweep.csv"
    outcome = invoke("experiment", "--n", "2", "--p", "1/2", "--csv", str(out), "--float-view")
    assert outcome.exit_code == 0
    assert out.read_text() == outcome.stdout
    header = outcome.stdout.splitlines()[0].split(",")
    assert header[-1] == "value_float"


def test_exit_codes():
    assert invoke("nonsense").exit_code == 2
    assert invoke("wdisc", "exact", "--matrix", "/no/such/file.json", "--p", "1/2").exit_code == 2
    # 2^40 selections over the default cap of 2^24 is a budget error
    outcome = invoke("certify", "wdisc-lb", "--p", "1/11", "--n", "8")
    assert outcome.exit_code == 3


def test_non_positive_counts_rejected(tmp_path):
    for trials in ("0", "-5"):
        outcome = invoke("certify", "hadamard-lemma", "--n", "4", "--trials", trials)
        assert (outcome.exit_code, outcome.stdout) == (2, "")
        assert "--trials must be >= 1" in outcome.stderr
    path = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    for how in ("exact", "color"):
        for k in ("0", "-1"):
            outcome = invoke("odisc", how, "--matrix", path, "--k", k)
            assert (outcome.exit_code, outcome.stdout) == (2, "")
            assert "--k must be >= 1" in outcome.stderr
        assert payload(invoke("odisc", how, "--matrix", path, "--k", "1"))["value"] == "0"
    # every --k is checked before the first sweep row runs
    for k in ("0", "1", "-1", "2,0"):
        outcome = invoke("experiment", "--n", "2", "--p", "1/2", "--k", k)
        assert (outcome.exit_code, outcome.stdout) == (2, ""), k
        assert "multicolor certification needs k >= 2" in outcome.stderr, k


def test_unwritable_output_paths_rejected(tmp_path):
    amat = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    missing = str(tmp_path / "no" / "such" / "dir" / "out")
    for argv in (
        ["construct", "stacked", "--p", "1/2", "--n", "2", "--out", missing],
        ["fd", "gen", "--kind", "cd", "--matrix", amat, "--k", "2", "--out", missing],
        ["experiment", "--n", "2", "--p", "1/2", "--csv", missing],
    ):
        outcome = invoke(*argv)
        assert (outcome.exit_code, outcome.stdout) == (2, ""), argv
        assert outcome.stderr.startswith(f"error: cannot write {missing}"), argv


def test_non_rational_inputs_rejected(tmp_path):
    path = tmp_path / "bad.json"
    for entries in ([[True, "1e-1"]], [["1/2", "0.5"]], [[1, 0.5]]):
        path.write_text(json.dumps({"rows": 1, "cols": 2, "entries": entries}))
        outcome = invoke("wdisc", "exact", "--matrix", str(path), "--p", "1/2")
        assert (outcome.exit_code, outcome.stdout) == (2, ""), entries
    good = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    for p in ("0.5", "1e-1", "+1/2"):
        outcome = invoke("wdisc", "exact", "--matrix", good, "--p", p)
        assert (outcome.exit_code, outcome.stdout) == (2, ""), p


@pytest.mark.parametrize("count", [1.9, True, " 1 "])
@pytest.mark.parametrize("field", ["rows", "cols"])
def test_matrix_dimensions_must_be_json_integers(tmp_path, field, count):
    data = {"rows": 1, "cols": 1, "entries": [["1"]]}
    data[field] = count
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    for argv in (["wdisc", "exact", "--p", "1/2"], ["odisc", "exact", "--k", "2"]):
        outcome = invoke(*argv, "--matrix", str(path))
        assert (outcome.exit_code, outcome.stdout) == (2, ""), argv
        assert outcome.stderr == f"error: matrix {field} must be a JSON integer, got {count!r}\n"


@pytest.mark.parametrize("count", [1.0, True, "1"])
@pytest.mark.parametrize("field", ["k", "m", "group_sizes"])
def test_instance_counts_must_be_json_integers(tmp_path, field, count):
    data = {"k": 1, "m": 1, "group_sizes": [1], "groups": [[["1/2"]]]}
    data[field] = [count] if field == "group_sizes" else count
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    kind = "a list of JSON integers" if field == "group_sizes" else "a JSON integer"
    for argv in (["fd", "minc", "--notion", "ef"], ["fd", "allocate"]):
        outcome = invoke(*argv, "--instance", str(path))
        assert (outcome.exit_code, outcome.stdout) == (2, ""), argv
        assert outcome.stderr == f"error: instance {field} must be {kind}, got {data[field]!r}\n"


def test_experiment_rejects_bad_oracle_settings():
    """Checked before any row runs, also on a grid with no --p rows."""
    for grid in (["--p", "1/2"], ["--k", "2"]):
        for flags in (["--iters", "0"], ["--solver", "bogus"], ["--solver", "exact,bogus"]):
            outcome = invoke("experiment", "--n", "2", *grid, *flags)
            assert (outcome.exit_code, outcome.stdout) == (2, ""), (grid, flags)
            assert outcome.stderr.startswith("error: "), (grid, flags)


def test_deeply_nested_json_rejected(tmp_path):
    """JSON nested past Python's recursion limit is a usage error on every
    command that reads a file."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    for argv in (["wdisc", "exact", "--matrix", str(deep), "--p", "1/2"],
                 ["wdisc", "heur", "--matrix", str(deep), "--p", "1/2"],
                 ["odisc", "exact", "--matrix", str(deep), "--k", "2"],
                 ["odisc", "color", "--matrix", str(deep), "--k", "2"],
                 ["fd", "gen", "--kind", "cd", "--matrix", str(deep), "--k", "2"],
                 ["fd", "check", "--instance", str(deep), "--allocation", str(deep),
                  "--notion", "ef", "--c", "0"],
                 ["fd", "minc", "--instance", str(deep), "--notion", "ef"],
                 ["fd", "allocate", "--instance", str(deep)]):
        outcome = invoke(*argv)
        assert (outcome.exit_code, outcome.stdout) == (2, ""), argv
        assert outcome.stderr == f"error: {deep} nests JSON too deeply to read\n", argv


def test_json_that_is_not_utf8_rejected(tmp_path):
    """A file with a byte that is not UTF-8 is a usage error that says so,
    not a digit-limit error; a UTF-8 BOM keeps the JSON reader's message."""
    text = tmp_path / "latin.json"
    text.write_bytes(b'{"rows": 1, "cols": 1, "entries": [["1\xff"]]}')
    bom = tmp_path / "bom.json"
    bom.write_bytes(b'\xef\xbb\xbf{"rows": 1, "cols": 1, "entries": [["1"]]}')
    for path, message in ((text, f"error: {text} is not UTF-8 text\n"),
                          (bom, f"error: {bom} is not valid JSON: Unexpected UTF-8 BOM "
                                "(decode using utf-8-sig): line 1 column 1 (char 0)\n")):
        for argv in (["wdisc", "exact", "--matrix", str(path), "--p", "1/2"],
                     ["fd", "minc", "--instance", str(path), "--notion", "ef"]):
            outcome = invoke(*argv)
            assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (2, "", message), argv


def test_fd_minc_one_group_many_goods(tmp_path):
    """1,200 goods in one group: one leaf, searched without recursion."""
    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps({"groups": [[["1"] * 1200]]}))
    for notion in ("ef", "prop", "cd"):
        outcome = invoke("fd", "minc", "--instance", str(instance), "--notion", notion)
        assert outcome.exit_code == 0, notion
        assert payload(outcome)["c_star"] == 0, notion


def test_numerals_past_the_digit_limit_rejected(tmp_path):
    """Python converts ints to and from text only up to a digit limit (4,300
    by default); input past it exits 2 and output past it exits 3, each with
    a message and no traceback, and the process-wide limit is left alone."""
    limit = sys.get_int_max_str_digits()
    long = "7" * (limit + 1)
    matrix = tmp_path / "m.json"
    for text in (f'[["1/2", "1/{long}"]]', f'[["{long}/{long}1"]]', f"[[{long}]]"):
        matrix.write_text(f'{{"rows": 1, "cols": {text.count(",") + 1}, "entries": {text}}}')
        outcome = invoke("wdisc", "exact", "--matrix", str(matrix), "--p", "1/2")
        assert (outcome.exit_code, outcome.stdout) == (2, ""), text[:20]
        assert outcome.stderr.startswith("error: ") and str(limit) in outcome.stderr
    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps({"groups": [[["1", f"1/{long}"]], [["1", "0"]]]}))
    outcome = invoke("fd", "minc", "--instance", str(instance), "--notion", "prop")
    assert (outcome.exit_code, outcome.stdout) == (2, "")
    assert outcome.stderr.startswith("error: ") and str(limit) in outcome.stderr
    # Each cell is short, but the value's denominator (10^3000+1)(10^3000+3)
    # has 6,001 digits.
    wide = write_matrix(tmp_path, "wide.json", [[f"1/{10**3000 + 1}", f"1/{10**3000 + 3}"]])
    outcome = invoke("wdisc", "exact", "--matrix", wide, "--p", "1/2")
    assert (outcome.exit_code, outcome.stdout) == (3, "")
    assert outcome.stderr.startswith("budget exceeded: ") and str(limit) in outcome.stderr
    assert sys.get_int_max_str_digits() == limit


def test_malformed_groups_rejected(tmp_path):
    instance = tmp_path / "inst.json"
    allocation = tmp_path / "alloc.json"
    allocation.write_text(json.dumps({"bundles": [[0], []]}))
    for data in ({"groups": 5}, {"groups": [[5]]}, {"groups": [5]}, {"groups": "11"},
                 {"groups": [[["1"]]], "group_sizes": 5}):
        instance.write_text(json.dumps(data))
        for argv in (["fd", "minc", "--notion", "ef"],
                     ["fd", "check", "--allocation", str(allocation), "--notion", "ef", "--c", "0"],
                     ["fd", "allocate"]):
            outcome = invoke(*argv, "--instance", str(instance))
            assert (outcome.exit_code, outcome.stdout) == (2, ""), (data, argv)
            assert outcome.stderr.startswith("error: "), (data, argv)


def test_hadamard_order_cap_refuses_before_building():
    for argv in (["construct", "hadamard"], ["construct", "w"], ["certify", "hadamard-lemma"]):
        outcome = invoke(*argv, "--n", "4096")
        assert (outcome.exit_code, outcome.stdout) == (3, ""), argv
        assert "exceeds cap" in outcome.stderr


def test_caps_refuse_before_building(monkeypatch):
    """The stacked width n*t is known from (p, n): the search cap on 2^(n*t)
    or k^(n*t) leaves and the cell cap on n*n*t are checked before any
    construction is built, in certify, experiment rows and construct."""
    from fractions import Fraction

    from disclab import CapExceededError, cli, lower_bounds

    def never(*_args):
        raise AssertionError("construction built for a refused instance")

    monkeypatch.setattr(lower_bounds, "build_stacked", never)
    monkeypatch.setattr(cli, "build_stacked", never)
    outcome = invoke("certify", "wdisc-lb", "--p", "1/2", "--n", "1024")
    assert (outcome.exit_code, outcome.stdout) == (3, "")
    assert "search over 2^1024 leaves exceeds cap 2^24" in outcome.stderr
    outcome = invoke("certify", "multicolor-lb", "--k", "2", "--n", "1024")
    assert (outcome.exit_code, outcome.stdout) == (3, "")
    assert "search over 2^1024 leaves exceeds cap 2^24" in outcome.stderr
    outcome = invoke("experiment", "--n", "1024", "--p", "1/2,1/5", "--k", "2")
    assert outcome.exit_code == 3
    rows = outcome.stdout.splitlines()[1:]
    assert [row.split(",")[5:7] for row in rows] == [["1", "1024"], ["2", "2048"], ["1", "1024"]]
    assert all(",skipped:budget," in row for row in rows)
    # construct stacked calls build_stacked itself, which must refuse the
    # cells before it builds the Hadamard matrix
    monkeypatch.undo()
    monkeypatch.setattr(lower_bounds, "hadamard_sylvester", never)
    outcome = invoke("construct", "stacked", "--p", "1/10000000", "--n", "1024")
    assert (outcome.exit_code, outcome.stdout) == (3, "")
    assert "stacked cells 5242880000000 exceed cap 4194304" in outcome.stderr
    outcome = invoke("construct", "stacked", "--p", "1/1000", "--n", "1024")
    assert (outcome.exit_code, outcome.stdout) == (3, "")
    assert "stacked cells 524288000 exceed cap 4194304" in outcome.stderr
    # the cell cap is the size of the largest Sylvester order, 2048 x 2048
    assert lower_bounds.stacked_shape(Fraction(1, 8), 1024) == (Fraction(1, 8), 4)
    assert lower_bounds.stacked_shape(Fraction(1, 3), 2048) == (Fraction(1, 3), 1)
    # 1,000,001 columns of one row are 1,000,001 cells, within the cell cap
    assert lower_bounds.stacked_shape(Fraction(1, 2_000_002), 1) == (Fraction(1, 2_000_002), 1_000_001)
    for p, n in ((Fraction(1, 10), 1024), (Fraction(1, 4), 2048), (Fraction(1, 131074), 8),
                 (Fraction(1, 2), 4096), (Fraction(1, 8_388_610), 1)):
        with pytest.raises(CapExceededError, match="stacked cells"):
            lower_bounds.stacked_shape(p, n)


def test_threads_do_not_change_output(tmp_path):
    amat = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    instance_path = tmp_path / "inst.json"
    invoke("fd", "gen", "--kind", "ef", "--matrix", amat, "--k", "2",
           "--sizes", "4,1", "--out", str(instance_path))
    for argv in (
        ["odisc", "exact", "--matrix", amat, "--k", "3"],
        ["certify", "multicolor-lb", "--k", "2", "--n", "2"],
        ["fd", "minc", "--instance", str(instance_path), "--notion", "ef"],
        ["experiment", "--n", "2,4", "--p", "1/2,1/5", "--k", "2"],
    ):
        single = run(argv + ["--threads", "1"])
        many = run(argv + ["--threads", "8"])
        assert single.stdout == many.stdout
        assert single.exit_code == many.exit_code


def test_repeat_invocations_byte_identical(tmp_path):
    amat = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    argvs = (
        ["construct", "stacked", "--p", "2/7", "--n", "4"],
        ["certify", "hadamard-lemma", "--n", "4", "--trials", "25"],
        ["odisc", "color", "--matrix", amat, "--k", "2", "--oracle", "local-search"],
        ["experiment", "--n", "2", "--p", "1/3", "--solver", "exact,local-search"],
        ["experiment", "--n", "2", "--k", "2"],
    )
    first = [run(list(argv)).stdout for argv in argvs]
    # the parser is shared by every call: no invocation may leak into the next
    for argv, stdout in reversed(list(zip(argvs, first))):
        assert run(list(argv)).stdout == stdout


def test_disclab_cap_env(tmp_path, monkeypatch):
    amat = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    monkeypatch.setenv("DISCLAB_CAP", "1")
    outcome = invoke("odisc", "exact", "--matrix", amat, "--k", "2")
    assert outcome.exit_code == 3
    # explicit --cap wins over the environment
    assert invoke("odisc", "exact", "--matrix", amat, "--k", "2", "--cap", "100").exit_code == 0


def test_cap_edges(tmp_path, monkeypatch):
    """A search over k^m leaves runs iff k^m <= 2^cap, on every command."""
    amat = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    instance = tmp_path / "inst.json"
    invoke("fd", "gen", "--kind", "cd", "--matrix", amat, "--k", "2", "--out", str(instance))
    searches = (
        ["wdisc", "exact", "--matrix", amat, "--p", "1/3"],  # 2^2 leaves
        ["odisc", "exact", "--matrix", amat, "--k", "2"],  # 2^2
        ["fd", "minc", "--instance", str(instance), "--notion", "cd"],  # 2^2
        ["certify", "wdisc-lb", "--p", "1/2", "--n", "2"],  # 2^2
        ["certify", "multicolor-lb", "--k", "2", "--n", "2"],  # 2^2
    )
    for argv in searches:
        assert invoke(*argv, "--cap", "2").exit_code == 0, argv
        outcome = invoke(*argv, "--cap", "1")
        assert (outcome.exit_code, outcome.stdout) == (3, ""), argv
        assert "search over 2^2 leaves exceeds cap 2^1" in outcome.stderr
        # a negative log2 bound is a bad argument, not a search too large
        outcome = invoke(*argv, "--cap", "-1")
        assert (outcome.exit_code, outcome.stdout) == (2, ""), argv
        assert "cap must be >= 0, got -1" in outcome.stderr
    # the heuristic oracles search no tree, and refuse a negative cap too
    heuristic = (
        ["odisc", "color", "--matrix", amat, "--k", "2", "--oracle", "greedy"],
        ["fd", "allocate", "--instance", str(instance), "--oracle", "local-search"],
    )
    for argv in heuristic:
        assert invoke(*argv, "--cap", "0").exit_code == 0, argv
        outcome = invoke(*argv, "--cap", "-1")
        assert (outcome.exit_code, outcome.stdout) == (2, ""), argv
        assert "cap must be >= 0, got -1" in outcome.stderr
    # k = 3: 3^2 = 9 leaves fit under 2^4, not under 2^3
    odisc3 = ["odisc", "exact", "--matrix", amat, "--k", "3"]
    assert invoke(*odisc3, "--cap", "4").exit_code == 0
    assert invoke(*odisc3, "--cap", "3").exit_code == 3
    # a cap of 0 stays valid: one leaf fits, two do not
    one = write_matrix(tmp_path, "one.json", [[1]])
    assert invoke("odisc", "exact", "--matrix", one, "--k", "1", "--cap", "0").exit_code == 0
    assert invoke("odisc", "exact", "--matrix", one, "--k", "2", "--cap", "0").exit_code == 3
    # the environment reaches the wdisc commands too; a non-integer or
    # negative cap is a usage error
    monkeypatch.setenv("DISCLAB_CAP", "1")
    assert invoke(*searches[0]).exit_code == 3
    for raw, message in (("x", "DISCLAB_CAP must be an integer"), ("-1", "cap must be >= 0, got -1")):
        monkeypatch.setenv("DISCLAB_CAP", raw)
        for argv in searches:
            outcome = invoke(*argv)
            assert (outcome.exit_code, outcome.stdout) == (2, ""), (argv, raw)
            assert message in outcome.stderr


def test_huge_cap_builds_no_huge_integer():
    """2^cap is never built: a cap of 10^9 costs no 125 MB integer."""
    import tracemalloc

    tracemalloc.start()
    try:
        outcome = invoke("certify", "wdisc-lb", "--p", "1/2", "--n", "4", "--cap", "1000000000")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.exit_code == 0
    assert peak < 10_000_000


def test_odisc_exact_copies_refused_before_listing(tmp_path):
    """--k 10^7 copies of a 2-column matrix are 10^14 leaves: refused before
    the 10^7-entry block list is made."""
    import tracemalloc

    amat = write_matrix(tmp_path, "w2.json", [[1, 1], [1, 0]])
    tracemalloc.start()
    try:
        outcome = invoke("odisc", "exact", "--matrix", amat, "--k", "10000000")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (outcome.exit_code, outcome.stdout) == (3, "")
    assert "search over 10000000^2 leaves exceeds cap 2^24" in outcome.stderr
    assert peak < 5_000_000


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "disclab.cli"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2  # no subcommand is a usage error


def test_stdout_is_json_object():
    outcome = invoke("certify", "wdisc-lb", "--p", "1/2", "--n", "2")
    assert isinstance(payload(outcome), dict)
