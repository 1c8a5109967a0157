"""The correctness gate must count a wrong answer against wrong_frac.

Run from the repository root: python3 -m pytest -q bench/test_verify.py
"""

import dataclasses
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from disclab import cli  # noqa: E402

from run import run_pass, tally  # noqa: E402
from verify import check  # noqa: E402
from workloads import Instance, write_instance, write_matrix  # noqa: E402


def _instances(tmp_path):
    matrix_path = str(tmp_path / "A.json")
    matrix = write_matrix(matrix_path, [[1, 1, 1, 1], [1, 0, 1, 0]])
    fair_path = str(tmp_path / "I.json")
    third = Fraction(1, 3)
    fair = write_instance(fair_path, [[[1, third, 0, 1]], [[0, 1, 1, third]]])
    return {
        "wdisc": Instance(
            "wdisc-exact",
            ["wdisc", "exact", "--matrix", matrix_path, "--p", "1/5"],
            {"matrix": matrix, "p": Fraction(1, 5)},
        ),
        "minc": Instance(
            "minc",
            ["fd", "minc", "--instance", fair_path, "--notion", "ef"],
            {"instance": fair, "notion": "EF"},
        ),
    }


def _tampering(edit):
    """cli.run with the JSON payload of every outcome passed through `edit`."""

    def run(argv):
        outcome = cli.run(argv)
        payload = json.loads(outcome.stdout)
        edit(payload)
        return dataclasses.replace(outcome, stdout=json.dumps(payload) + "\n")

    return run


def _wrong_frac(instances, run):
    attempted, failed = tally([run_pass(instances, run, check)])
    return failed / attempted


def test_honest_outcomes_pass(tmp_path):
    instances = list(_instances(tmp_path).values())
    assert _wrong_frac(instances, cli.run) == 0


def test_tampered_witness_counts_as_wrong(tmp_path):
    instance = _instances(tmp_path)["wdisc"]

    def all_ones(payload):
        payload["witness"] = [1] * len(payload["witness"])

    assert _wrong_frac([instance], _tampering(all_ones)) == 1


def test_wrong_c_star_counts_as_wrong(tmp_path):
    instance = _instances(tmp_path)["minc"]

    def off_by_one(payload):
        payload["c_star"] += 1

    assert _wrong_frac([instance], _tampering(off_by_one)) == 1


def test_crash_counts_as_wrong(tmp_path):
    instance = _instances(tmp_path)["wdisc"]

    def crash(argv):
        raise RuntimeError("solver crashed")

    assert _wrong_frac([instance], crash) == 1
