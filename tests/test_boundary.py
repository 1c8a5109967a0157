"""The JSON boundary: rationals are read straight into integers.

Text cells and utilities go through `parse_ratio` into integer pairs and
from there into integer numerators over one denominator, with no Fraction
per cell. These properties hold that read path to the Fraction one: the
same values, the same canonical form, the same errors.
"""

import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    DimensionMismatchError,
    FairDivInstance,
    InputError,
    RatMatrix,
    format_rational,
    parse_rational,
)
from disclab.fairdiv import _MinC
from disclab.rational import parse_ratio

_REFERENCE_FORMAT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def reference_parse(text):
    """The Fraction-based parser the integer one replaces, kept as the reference."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise InputError(f"expected rational string, got {type(text).__name__}")
    stripped = text.strip()
    if _REFERENCE_FORMAT.fullmatch(stripped) is None:
        raise InputError(f"not a rational: {text!r}")
    try:
        return Fraction(stripped)
    except ZeroDivisionError as exc:
        raise InputError(f"zero denominator: {text!r}") from exc


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except InputError as exc:
        return "error", str(exc)


@st.composite
def written_rationals(draw):
    """(what the JSON holds, its value) for a value in [0, 1]: "a/b" in
    unreduced terms, a bare int or an integer string, padded or not."""
    den = draw(st.integers(1, 12))
    value = Fraction(draw(st.integers(0, den)), den)
    if value.denominator == 1 and draw(st.booleans()):
        return value.numerator, value
    factor = draw(st.integers(1, 3))
    text = f"{value.numerator * factor}/{value.denominator * factor}"
    if value.denominator == 1 and draw(st.booleans()):
        text = str(value.numerator)
    pad = st.sampled_from(["", " ", "\n", "\t "])
    return draw(pad) + text + draw(pad), value


@st.composite
def written_instances(draw):
    m = draw(st.integers(1, 5))
    zero_agent = [(0, Fraction(0))] * m
    agent = st.one_of(st.just(zero_agent), st.lists(written_rationals(), min_size=m, max_size=m))
    return draw(st.lists(st.lists(agent, min_size=1, max_size=3), min_size=1, max_size=3))


def split(written):
    """The JSON-side and the Fraction-side nesting of written cells."""
    if isinstance(written, tuple):
        return written
    parts = [split(item) for item in written]
    return [text for text, _value in parts], [value for _text, value in parts]


def lcm_scaling(groups, k):
    """_MinC's agents from the Fractions: each agent scaled by k times the
    lcm of the instance's utility denominators."""
    agents = []
    for i, group in enumerate(groups):
        for agent in group:
            scale = k * math.lcm(*(u.denominator for members in groups for row in members for u in row))
            units = [u.numerator * (scale // u.denominator) for u in agent]
            ranking = sorted((g for g in range(len(agent)) if units[g] > 0),
                             key=lambda g: (-units[g], g))
            agents.append((i, units, sum(units) // k, ranking))
    return agents


@settings(max_examples=200, deadline=None)
@given(written_instances())
def test_instance_boundary_property(written):
    """from_json_dict reads the same instance from_groups builds from the
    Fractions, the JSON round trip is exact, and _MinC's integers are the
    old lcm scaling."""
    texts, values = split(written)
    instance = FairDivInstance.from_json_dict({"groups": texts})
    assert instance == FairDivInstance.from_groups(values)
    assert instance.groups == tuple(tuple(tuple(agent) for agent in group) for group in values)
    data = instance.to_json_dict()
    assert data["groups"] == [[[format_rational(u) for u in agent] for agent in group] for group in values]
    assert FairDivInstance.from_json_dict(json.loads(json.dumps(data))) == instance
    for tag in ("EF", "PROP", "CD"):
        assert _MinC(instance, tag).agents == lcm_scaling(values, instance.k)


@settings(max_examples=200, deadline=None)
@given(written_instances())
def test_matrix_boundary_property(written):
    """RatMatrix.from_json_dict reads the matrix from_rows builds from the
    Fractions, whatever terms the text is written in."""
    rows = [agent for group in written for agent in group]
    texts, values = split(rows)
    data = {"rows": len(rows), "cols": len(rows[0]), "entries": texts}
    matrix = RatMatrix.from_json_dict(data)
    assert matrix == RatMatrix.from_rows(values)
    assert matrix.entries == tuple(tuple(row) for row in values)
    assert RatMatrix.from_json_dict(json.loads(json.dumps(matrix.to_json_dict()))) == matrix


_TEXT = st.text(alphabet="0123456789/-+.e_ \n\u0663", max_size=7)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    _TEXT,
    written_rationals().map(lambda written: written[0]),
    st.booleans(),
    st.integers(-50, 50),
    st.floats(allow_nan=False),
    st.fractions(),
    st.none(),
))
def test_parsers_match_fraction_reference(text):
    """parse_ratio and parse_rational accept exactly what the Fraction
    reference accepts, with its value, and reject the rest with its message."""
    expected = outcome(reference_parse, text)
    assert outcome(parse_rational, text) == expected
    kind, pair = outcome(parse_ratio, text)
    if kind == "ok":
        assert pair[1] > 0 and expected == ("ok", Fraction(*pair))
    else:
        assert (kind, pair) == expected


def test_unreduced_forms_read_equal():
    """"2/4" and 1/2 are the same cell and the same utility."""
    assert parse_ratio(" 2/4\n") == (2, 4)
    assert RatMatrix.from_json_dict({"rows": 1, "cols": 2, "entries": [["2/4", "3/3"]]}) == \
        RatMatrix.from_rows([[Fraction(1, 2), 1]])
    two_fourths = FairDivInstance.from_json_dict({"groups": [[["2/4", "0/7"]], [["6/6", 0]]]})
    assert two_fourths == FairDivInstance.from_groups([[[Fraction(1, 2), 0]], [[1, 0]]])
    assert two_fourths.agents == RatMatrix.from_rows([[Fraction(1, 2), 0], [1, 0]])


def test_boundary_errors_keep_their_messages_and_order():
    """Every cell is parsed before any range check, and a range error names
    the value in lowest terms."""

    def matrix(entries):
        return RatMatrix.from_json_dict({"rows": len(entries), "cols": len(entries[0]), "entries": entries})

    def instance(groups):
        return FairDivInstance.from_json_dict({"groups": groups})

    for read, data, error, message in [
        (matrix, [["6/4", "x"]], InputError, "not a rational: 'x'"),
        (matrix, [["6/4", "1/0"]], InputError, "zero denominator: '1/0'"),
        (matrix, [["6/4", "1"], ["-1/2", True]], InputError, "expected rational string, got bool"),
        (matrix, [["6/4", "1"], ["-1/2", 1]], InputError, "entry 3/2 outside [0, 1]"),
        (matrix, [[" 4/2 ", 0.5]], InputError, "expected rational string, got float"),
        (instance, [[["6/4", "1/0"]]], InputError, "zero denominator: '1/0'"),
        (instance, [[["6/4"]], [["1", "1"]]], InputError, "utility 3/2 outside [0, 1]"),
        (instance, [[["1"]], [["1", "6/4"]]], DimensionMismatchError, "agents disagree on the number of goods"),
        (instance, [[["1", "8/4"]], []], InputError, "every group needs at least one agent"),
        (instance, [[["1", None]]], InputError, "expected rational string, got NoneType"),
    ]:
        with pytest.raises(error) as caught:
            read(data)
        assert str(caught.value) == message
