"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
Every assertion here is exact rational arithmetic; runtime budgets are
asserted where the criterion states one.
"""

import random
import time
from fractions import Fraction
from itertools import product

from disclab import (
    Allocation,
    FairDivInstance,
    FairnessNotion,
    OracleConfig,
    RatMatrix,
    allocate_prop_via_odisc,
    brute_force_min_c,
    certify_multicolor_lb,
    certify_wdisc_lb,
    check_fairness,
    check_hadamard_lemma,
    check_lemma_prop_to_disc,
    gen_ef_lb_instance,
    gen_prop_lb_instance,
    hadamard_sylvester,
    lift_w,
    min_c_for_allocation,
    odisc_color,
    odisc_exact,
    stack_horizontal,
    wdisc_exact,
)
from disclab.cli import run

from conftest import random_01_matrix
from naive import naive_wdisc


def report(number, ok, message):
    print(f"[acceptance {number}] {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, f"criterion {number} failed: {message}"


def test_criterion_1_hadamard_lemma_suite():
    """n in {2..64}: 1000 random z in [-8,8]^n plus unit vectors, 0 failures."""
    started = time.perf_counter()
    failures = 0
    checks = 0
    for log2 in range(1, 7):
        n = 1 << log2
        w = lift_w(hadamard_sylvester(log2))
        rng = random.Random(log2)
        vectors = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(1000)]
        for i in range(n):
            unit = [0] * n
            unit[i] = 1
            vectors.append(unit)
        for z in vectors:
            checks += 1
            if not check_hadamard_lemma(w, z)[2]:
                failures += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        failures == 0 and elapsed < 10,
        f"{checks} lemma checks, {failures} failures, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_stacked_certification_grid():
    """certify_wdisc_lb passes on {2,4,8} x {1/2,1/3,1/4,1/5,1/7}; pinned values."""
    started = time.perf_counter()
    values = {}
    ok = True
    for n in (2, 4, 8):
        for p in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 7)):
            cert = certify_wdisc_lb(p, n)
            values[(n, p)] = cert.exact_value
            ok = ok and cert.passed
            ok = ok and cert.exact_value * cert.exact_value >= Fraction(n - 1, 64)
    ok = ok and values[(2, Fraction(1, 3))] == Fraction(1, 3)
    ok = ok and values[(2, Fraction(1, 5))] == Fraction(2, 5)
    ok = ok and values[(4, Fraction(1, 2))] == 1
    elapsed = time.perf_counter() - started
    report(2, ok and elapsed < 60, f"15 certifications, known values match, {elapsed:.1f}s (< 60s)")


def test_criterion_3_multicolor_chain_and_observation():
    """Multicolor certification chain plus odisc >= wdisc on random instances."""
    ok = True
    for n, k in ((2, 2), (2, 3), (4, 2), (4, 3)):
        cert = certify_multicolor_lb(k, n)
        ok = ok and cert.passed
        ok = ok and cert.exact_value >= cert.weighted_value
        ok = ok and cert.weighted_value * cert.weighted_value >= Fraction(n - 1, 64)
    rng = random.Random(303)
    violations = 0
    for _ in range(100):
        k = rng.choice((2, 3))
        matrix = random_01_matrix(rng, rng.randint(1, 3), rng.randint(1, 8))
        colored = odisc_exact([matrix] * k).value
        weighted = wdisc_exact(matrix, Fraction(1, k)).value
        if colored < weighted:
            violations += 1
    report(3, ok and violations == 0,
           f"4 chain certifications pass, 100 random instances, {violations} violations")


def test_criterion_4_solver_equivalence():
    """Branch-and-bound equals naive 2^m enumeration: value and witness."""
    rng = random.Random(4444)
    mismatches = 0
    for trial in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 12)
        if trial % 3 == 0:
            matrix = random_01_matrix(rng, rows, cols)
        else:
            entries = []
            for _ in range(rows):
                row = []
                for _ in range(cols):
                    den = rng.randint(1, 5)
                    row.append(Fraction(rng.randint(0, den), den))
                entries.append(row)
            matrix = RatMatrix.from_rows(entries)
        p = Fraction(rng.randint(0, 8), 8)
        value, witness = naive_wdisc(matrix, p)
        result = wdisc_exact(matrix, p)
        if result.value != value or result.witness != witness:
            mismatches += 1
    report(4, mismatches == 0, f"200 instances (m <= 12), {mismatches} mismatches")


def test_criterion_5_recursion_certificate_soundness():
    """Measured per-color discrepancy <= certificate bound, 200 instances."""
    started = time.perf_counter()
    rng = random.Random(55)
    config = OracleConfig(kind="exact")
    violations = 0
    for _ in range(200):
        k = rng.randint(2, 5)
        cols = rng.randint(1, 14)
        blocks = []
        for _ in range(k):
            rows = rng.randint(1, 3)
            entries = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
            blocks.append(RatMatrix.from_rows(entries))
        coloring, cert = odisc_color(blocks, config)
        share = Fraction(1, k)
        for color in range(1, k + 1):
            sel = [1 if c == color else 0 for c in coloring]
            measured = max(
                abs(sum(e * (share - s) for e, s in zip(row, sel)))
                for row in blocks[color - 1].entries
            )
            if measured > cert.bound_for(color):
                violations += 1
    elapsed = time.perf_counter() - started
    report(5, violations == 0 and elapsed < 300,
           f"200 instances (k <= 5, m <= 14, exact oracle), {violations} violations, "
           f"{elapsed:.1f}s (< 300s)")


def test_criterion_6_allocator_end_to_end():
    """allocate_prop_via_odisc output passes the independent PROP(2H) check."""
    rng = random.Random(66)
    config = OracleConfig(kind="local-search", budget=300, seed=0)
    passes = 0
    for _ in range(100):
        k = rng.choice((2, 3))
        m = rng.randint(2, 24)
        groups = []
        for _ in range(k):
            agents = []
            for _ in range(rng.randint(1, 3)):
                agent = []
                for _ in range(m):
                    den = rng.randint(1, 6)
                    agent.append(Fraction(rng.randint(0, den), den))
                agents.append(agent)
            groups.append(agents)
        instance = FairDivInstance.from_groups(groups)
        allocation, c, h = allocate_prop_via_odisc(instance, config)
        if check_fairness(instance, allocation, FairnessNotion("PROP", c)) and c == 2 * h:
            passes += 1
    report(6, passes == 100, f"{passes}/100 allocations verified PROP(2H)")


def prop_instance_over(matrix):
    return gen_prop_lb_instance(matrix, 2, 1, (2 * matrix.rows, 1))


def test_criterion_7_prop_impossibility():
    """No PROP0 allocation for the pair instance; min c beats the wdisc bound."""
    amat = RatMatrix.from_rows([[1, 1, 1]])
    instance = prop_instance_over(amat)
    ok = True
    for assignment in product(range(2), repeat=3):
        bundles = [[g for g in range(3) if assignment[g] == b] for b in range(2)]
        allocation = Allocation.from_bundles(bundles, 3)
        ok = ok and not check_fairness(instance, allocation, FairnessNotion("PROP", 0))
    c_star, _ = brute_force_min_c(instance, "PROP")
    delta = wdisc_exact(amat, Fraction(1, 2)).value
    ok = ok and c_star == 1 and c_star > Fraction(1, 2) * delta - 1

    w2 = lift_w(hadamard_sylvester(1))
    checked = 1
    for t in (1, 2, 3, 4, 5):  # W2 stacked variants, m = 2t <= 10
        variant = stack_horizontal(w2, t)
        inst = prop_instance_over(variant)
        delta = wdisc_exact(variant, Fraction(1, 2)).value
        c_var, _ = brute_force_min_c(inst, "PROP")
        ok = ok and c_var > Fraction(1, 2) * delta - 1
        checked += 1
    report(7, ok, f"{checked} generated instances, PROP0 impossible, bound respected")


def test_criterion_8_ef_impossibility():
    """No EF0 allocation exists for the generated instance; min c is 1."""
    amat = RatMatrix.from_rows([[1, 1, 1]])
    instance = gen_ef_lb_instance(amat, 2, (2, 1))
    ok = True
    for assignment in product(range(2), repeat=3):
        bundles = [[g for g in range(3) if assignment[g] == b] for b in range(2)]
        allocation = Allocation.from_bundles(bundles, 3)
        ok = ok and not check_fairness(instance, allocation, FairnessNotion("EF", 0))
    c_star, _ = brute_force_min_c(instance, "EF")
    delta = wdisc_exact(amat, Fraction(1, 2)).value
    ok = ok and c_star == 1 and c_star > delta / 2 - 1
    report(8, ok, "EF0 impossible over all 8 allocations, min c = 1")


def test_criterion_9_lemma_sweep():
    """Complement-pair inequality holds for every allocation in criterion 7."""
    violations = 0
    total = 0
    for matrix in (RatMatrix.from_rows([[1, 1, 1]]),
                   lift_w(hadamard_sylvester(1)),
                   stack_horizontal(lift_w(hadamard_sylvester(1)), 2),
                   stack_horizontal(lift_w(hadamard_sylvester(1)), 4)):
        instance = prop_instance_over(matrix)
        m = instance.m
        for assignment in product(range(2), repeat=m):
            bundles = [[g for g in range(m) if assignment[g] == b] for b in range(2)]
            allocation = Allocation.from_bundles(bundles, m)
            c = min_c_for_allocation(instance, allocation, "PROP")
            for j in range(matrix.rows):
                total += 1
                _, _, holds = check_lemma_prop_to_disc(
                    instance, allocation, c, 0, j, j + matrix.rows
                )
                if not holds:
                    violations += 1
    report(9, violations == 0, f"{total} PROPc allocations checked, {violations} violations")


def test_criterion_10_thread_and_rerun_determinism(tmp_path):
    """Representative CLI runs from criteria 1-9: byte-identical stdout under
    --threads 1 vs --threads 8 (where workers exist) and across reruns."""
    w2_path = tmp_path / "w2.json"
    assert run(["construct", "w", "--n", "2", "--out", str(w2_path)]).exit_code == 0
    inst_path = tmp_path / "inst.json"
    assert run([
        "fd", "gen", "--kind", "prop", "--matrix", str(w2_path), "--k", "2",
        "--istar", "1", "--sizes", "4,1", "--out", str(inst_path),
    ]).exit_code == 0

    threaded = [
        ["odisc", "exact", "--matrix", str(w2_path), "--k", "3"],
        ["certify", "multicolor-lb", "--k", "3", "--n", "4"],
        ["fd", "minc", "--instance", str(inst_path), "--notion", "prop"],
        ["fd", "minc", "--instance", str(inst_path), "--notion", "ef"],
        ["experiment", "--n", "2,4,8", "--p", "1/2,1/3,1/4,1/5,1/7", "--k", "2,3"],
    ]
    rerun_only = [
        ["certify", "hadamard-lemma", "--n", "16", "--trials", "200"],
        ["certify", "wdisc-lb", "--p", "1/7", "--n", "8"],
        ["odisc", "color", "--matrix", str(w2_path), "--k", "3", "--oracle", "exact"],
        ["fd", "allocate", "--instance", str(inst_path), "--oracle", "local-search"],
    ]
    ok = True
    for argv in threaded:
        one = run(argv + ["--threads", "1"])
        eight = run(argv + ["--threads", "8"])
        again = run(argv + ["--threads", "8"])
        ok = ok and one.stdout == eight.stdout == again.stdout and one.stdout
        ok = ok and one.exit_code == eight.exit_code == 0
    for argv in rerun_only:
        first = run(list(argv))
        second = run(list(argv))
        ok = ok and first.stdout == second.stdout and first.stdout
        ok = ok and first.exit_code == 0
    report(10, bool(ok), f"{len(threaded)} thread-swept and {len(rerun_only)} rerun commands byte-identical")
