import random
from fractions import Fraction

import pytest

from disclab import (
    CapExceededError,
    InputError,
    RatMatrix,
    build_stacked,
    certify_multicolor_lb,
    certify_wdisc_lb,
    check_hadamard_lemma,
    hadamard_sylvester,
    lb_value,
    lift_w,
    stack_horizontal,
    transfer_z,
    wdisc_exact,
)
from disclab import lower_bounds


def test_build_stacked_t_formula(w2, w4):
    c = build_stacked(Fraction(1, 2), 2)
    assert c.t == 1 and c.matrix == w2 and c.p * c.t == Fraction(1, 2)

    c = build_stacked(Fraction(1, 5), 2)
    assert c.t == 2
    assert c.matrix == stack_horizontal(w2, 2)
    assert c.p * c.t == Fraction(2, 5)  # inside [1/4, 1/2]

    # p above one half mirrors first
    c = build_stacked(Fraction(2, 3), 4)
    assert c.p == Fraction(1, 3) and c.t == 1 and c.matrix == w4


def test_build_stacked_validation():
    with pytest.raises(InputError):
        build_stacked(Fraction(0), 2)
    with pytest.raises(InputError):
        build_stacked(Fraction(1), 2)
    with pytest.raises(InputError):
        build_stacked(Fraction(1, 2), 3)


def test_build_stacked_pt_window():
    for den in range(2, 40):
        for num in range(1, den):
            c = build_stacked(Fraction(num, den), 2)
            assert Fraction(1, 4) <= c.p * c.t <= Fraction(1, 2)
            assert c.delta * c.delta <= Fraction(1, 64)


def test_hadamard_lemma_pinned(w2, w4):
    lhs, rhs, holds = check_hadamard_lemma(w2, (1, 0))
    assert (lhs, rhs, holds) == (2, 0, True)
    lhs, rhs, holds = check_hadamard_lemma(w2, (0, 1))
    assert (lhs, rhs, holds) == (1, Fraction(1, 2), True)
    lhs, rhs, holds = check_hadamard_lemma(w4, (0, 1, 1, 1))
    assert lhs == 12 and rhs == 3 and holds


def test_hadamard_lemma_rational_vectors(w4):
    lhs, rhs, holds = check_hadamard_lemma(w4, (Fraction(1, 2), Fraction(-1, 3), 0, 1))
    assert holds
    # lhs computed independently: W4 z with z = (1/2, -1/3, 0, 1)
    z = (Fraction(1, 2), Fraction(-1, 3), 0, 1)
    image = [sum(e * v for e, v in zip(row, z)) for row in w4.entries]
    assert lhs == sum(v * v for v in image)
    assert rhs == Fraction(4, 4) * (Fraction(1, 9) + 0 + 1)


def test_hadamard_lemma_rational_matrix_integer_vector():
    # W z = (1, 1/2): a rational W with an integer z must not be truncated
    w = RatMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert check_hadamard_lemma(w, (1, 1)) == (Fraction(5, 4), Fraction(1, 2), True)


def test_hadamard_lemma_validation(w2):
    with pytest.raises(InputError):
        check_hadamard_lemma(stack_horizontal(w2, 2), (1, 0, 0, 0))
    with pytest.raises(InputError):
        check_hadamard_lemma(w2, (1, 0, 0))


@pytest.mark.parametrize("log2", [1, 2, 3, 4, 5, 6])
def test_hadamard_lemma_random_sweep(log2):
    # exact inequality on random integer vectors plus all unit vectors
    n = 1 << log2
    w = lift_w(hadamard_sylvester(log2))
    rng = random.Random(log2)
    for _ in range(100):
        z = [rng.randint(-8, 8) for _ in range(n)]
        assert check_hadamard_lemma(w, z)[2]
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        assert check_hadamard_lemma(w, unit)[2]



@pytest.mark.parametrize("log2", [2, 3, 4])
def test_hadamard_lemma_sparse_path_matches_dense(log2, monkeypatch):
    """z with one or two nonzero Fractions takes the column-at-a-time sparse
    path; with every coordinate counted as nonzero the same z takes the
    dense row products. Both give the lhs of a product over the entries."""
    n = 1 << log2
    w = lift_w(hadamard_sylvester(log2))
    rng = random.Random(log2)
    vectors = []
    for count in (1, 2):
        for _ in range(10):
            z = [0] * n
            for i in rng.sample(range(n), count):
                z[i] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            vectors.append(z)
    sparse = [check_hadamard_lemma(w, z) for z in vectors]
    monkeypatch.setattr(lower_bounds, "compress", lambda indices, z: indices)
    dense = [check_hadamard_lemma(w, z) for z in vectors]
    assert sparse == dense
    for z, (lhs, _rhs, holds) in zip(vectors, sparse):
        image = [sum(e * v for e, v in zip(row, z)) for row in w.entries]
        assert lhs == sum(v * v for v in image) and holds

def test_lb_value():
    assert lb_value(1, "statement") == 0
    assert lb_value(2, "proof") == Fraction(1, 8)
    assert lb_value(2, "statement") == Fraction(1, 16)
    r = lb_value(4, "proof")
    assert r * r <= Fraction(3, 64)
    assert float(r) > (3 ** 0.5) / 8 * (1 - 1e-9)
    assert lb_value(5, "statement") == Fraction(1, 8)  # sqrt(4)/16 exactly
    with pytest.raises(InputError):
        lb_value(5, "proof")
    with pytest.raises(InputError):
        lb_value(4, "both")


def test_certify_wdisc_lb_pinned():
    report = certify_wdisc_lb(Fraction(1, 3), 2)
    assert report.passed
    assert report.exact_value == Fraction(1, 3)
    assert report.bound == Fraction(1, 8)

    report = certify_wdisc_lb(Fraction(1, 5), 2)
    assert report.passed and report.exact_value == Fraction(2, 5)

    report = certify_wdisc_lb(Fraction(1, 2), 4)
    assert report.passed and report.exact_value == 1
    assert report.bound * report.bound <= Fraction(3, 64)


def test_certify_report_json():
    data = certify_wdisc_lb(Fraction(1, 3), 2).to_json_dict()
    assert data["exact_value"] == "1/3"
    assert data["bound"] == "1/8"
    assert data["pass"] is True
    assert data["construction"]["t"] == 1


def test_certify_multicolor_pinned():
    report = certify_multicolor_lb(2, 2)
    assert report.passed
    assert report.exact_value == Fraction(1, 2)       # odisc
    assert report.weighted_value == Fraction(1, 2)    # wdisc chain value

    report = certify_multicolor_lb(3, 2)
    assert report.passed
    assert report.weighted_value == Fraction(1, 3)
    assert report.exact_value >= report.weighted_value

    report = certify_multicolor_lb(3, 4)
    assert report.passed
    data = report.to_json_dict()
    assert data["k"] == 3 and "weighted_value" in data


def test_certify_multicolor_cap_reaches_both_searches(monkeypatch):
    """One cap bounds the whole chain: at k = 2, n = 32 the coloring search
    (2^32 leaves) and the weighted one (2^32) both run under cap 32. The
    searches are stubbed, since the real pair takes minutes."""
    from types import SimpleNamespace

    from disclab import lower_bounds

    caps = {}

    def fake(name):
        def search(_instance, *args):
            caps[name] = args[-1]
            return SimpleNamespace(value=Fraction(1), witness=())
        return search

    monkeypatch.setattr(lower_bounds, "odisc_exact", fake("odisc"))
    monkeypatch.setattr(lower_bounds, "wdisc_exact", fake("wdisc"))
    report = certify_multicolor_lb(2, 32, cap=32)
    assert caps == {"odisc": 32, "wdisc": 32}
    assert report.passed


def test_certify_multicolor_validation(monkeypatch):
    with pytest.raises(InputError):
        certify_multicolor_lb(1, 2)
    # 2,897 copies of the 1 x 1,448 construction are 4,194,856 cells, over
    # the cell limit though a lifted cap admits the 2,897^1,448 colorings:
    # refused before the construction is built
    from disclab import lower_bounds

    monkeypatch.setattr(lower_bounds, "build_stacked", None)
    with pytest.raises(CapExceededError, match="stacked cells 4194856 exceed cap 4194304"):
        certify_multicolor_lb(2897, 1, cap=20_000)


def test_coordinate_gap_property():
    """Every coordinate of p*t*1 - z has magnitude >= 1/4 whenever z is integral."""
    for p in (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)):
        c = build_stacked(p, 2)
        pt = c.p * c.t
        for z_entry in range(c.t + 1):
            assert abs(pt - z_entry) >= Fraction(1, 4)


def test_end_to_end_norm_chain():
    """Stacked-to-W transfer preserves the l2 norm; linf dominates l2/sqrt(n)."""
    rng = random.Random(3)
    for p in (Fraction(1, 3), Fraction(1, 5)):
        c = build_stacked(p, 4)
        w = lift_w(hadamard_sylvester(2))
        for _ in range(25):
            x = tuple(rng.randint(0, 1) for _ in range(c.matrix.cols))
            z = transfer_z(x, 4, c.t)
            lhs = [sum(e * (c.p - b) for e, b in zip(row, x)) for row in c.matrix.entries]
            rhs = [sum(e * (c.p * c.t - v) for e, v in zip(row, z)) for row in w.entries]
            assert sum(v * v for v in lhs) == sum(v * v for v in rhs)
            linf = max(abs(v) for v in lhs)
            assert linf * linf * 4 >= sum(v * v for v in lhs)


def test_certified_value_is_true_minimum():
    """The certificate's exact_value matches an independent solver run."""
    for n, p in ((2, Fraction(1, 3)), (4, Fraction(1, 2)), (4, Fraction(2, 5))):
        report = certify_wdisc_lb(p, n)
        again = wdisc_exact(report.construction.matrix, report.construction.p)
        assert report.exact_value == again.value
