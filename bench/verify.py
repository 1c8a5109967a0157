"""Correctness gate: re-check every CLI outcome with the public disclab API.

`check(instance, outcome)` returns None when the outcome is right and a short
reason otherwise. It never trusts the program's own verdicts: witnesses are
re-evaluated exactly, pass/fail is re-decided on squares, allocations are
re-checked against their notion, and the stacked construction is rebuilt
here from the Sylvester rule rather than taken from the library.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from disclab import (
    Allocation,
    FairnessNotion,
    RatMatrix,
    check_fairness,
    eval_asymmetric,
    eval_weighted,
    min_c_for_allocation,
)


def _stacked_w(n: int, t: int) -> RatMatrix:
    """t copies of W = (1 + H)/2 side by side; H_ij = (-1)^popcount(i & j)."""
    w = [[1 - bin(i & j).count("1") % 2 for j in range(n)] for i in range(n)]
    return RatMatrix.from_rows([row * t for row in w])


def _certificate(instance, payload, exit_code):
    n, t = instance.data["n"], instance.data["t"]
    construction = payload["construction"]
    if (construction["n"], construction["t"], construction["cols"]) != (n, t, n * t):
        return "construction does not match the requested (n, p)"
    matrix = _stacked_w(n, t)
    value = Fraction(payload["exact_value"])
    witness = payload["witness"]
    threshold = Fraction(n - 1, 64)
    if instance.kind == "wdisc-lb":
        if eval_weighted(matrix, instance.data["p"], witness) != value:
            return "witness does not re-evaluate to exact_value"
        passed = value * value >= threshold
    else:
        k = instance.data["k"]
        if eval_asymmetric([matrix] * k, witness) != value:
            return "coloring does not re-evaluate to exact_value"
        weighted = Fraction(payload["weighted_value"])
        passed = value >= weighted and weighted * weighted >= threshold
    if payload["pass"] is not passed:
        return f"pass is {payload['pass']}, re-decided {passed}"
    if exit_code != (0 if passed else 1):
        return f"exit code {exit_code} disagrees with pass={passed}"
    return None


def _experiment(payload_text):
    rows = list(csv.DictReader(io.StringIO(payload_text)))
    if not rows:
        return "experiment printed no rows"
    for row in rows:
        if row["status"] != "ok" or row["pass"] != "True":
            return f"experiment row failed: {row}"
    return None


def check(instance, outcome):
    """None if the outcome of running `instance` is correct, else a reason."""
    if instance.kind == "experiment":
        if outcome.exit_code != 0:
            return f"exit code {outcome.exit_code}: {outcome.stderr.strip()}"
        return _experiment(outcome.stdout)
    if instance.kind in ("wdisc-lb", "multicolor-lb"):
        if outcome.exit_code not in (0, 1):
            return f"exit code {outcome.exit_code}: {outcome.stderr.strip()}"
        reason = _certificate(instance, json.loads(outcome.stdout), outcome.exit_code)
        if reason is None and outcome.exit_code != 0:
            return "certification failed"
        return reason
    if outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}: {outcome.stderr.strip()}"
    payload = json.loads(outcome.stdout)
    data = instance.data
    if instance.kind == "wdisc-exact":
        if payload["exact"] is not True:
            return "exact solver reported an inexact result"
        if eval_weighted(data["matrix"], data["p"], payload["witness"]) != Fraction(payload["value"]):
            return "witness does not re-evaluate to value"
        return None
    if instance.kind == "odisc-exact":
        if payload["exact"] is not True:
            return "exact solver reported an inexact result"
        if eval_asymmetric(data["blocks"], payload["witness"]) != Fraction(payload["value"]):
            return "coloring does not re-evaluate to value"
        return None
    fair = data["instance"]
    if instance.kind == "allocate":
        allocation = Allocation.from_json_dict(payload, fair.m)
        c, h = payload["c"], payload["H"]
        if c != 2 * h:
            return f"c = {c} is not 2H = {2 * h}"
        if payload["dummy_goods"] != max(0, fair.k * h - fair.m):
            return "dummy_goods disagrees with kH - m"
        if payload["pass"] is not True or not check_fairness(fair, allocation, FairnessNotion("PROP", c)):
            return f"allocation is not PROP{c}"
        return None
    if instance.kind == "minc":
        if payload["notion"] != data["notion"]:
            return "wrong notion echoed"
        witness = Allocation.from_json_dict(payload["witness"], fair.m)
        actual = min_c_for_allocation(fair, witness, data["notion"])
        if actual != payload["c_star"]:
            return f"witness has min c {actual}, reported c_star {payload['c_star']}"
        return None
    return f"unknown instance kind {instance.kind!r}"
