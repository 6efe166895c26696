"""Property tests for the JSON writer and the pair-list reader.

The writer must lay out every JSON tree with string keys exactly as
``json.dumps(obj, indent=2, sort_keys=True)`` lays out the tree with each
non-finite float replaced by ``None``.  The reader must accept exactly the
pair lists a per-entry scan accepts, bit for bit, and refuse the rest with
the scan's message and position."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import ParseError, vector_from_obj
from framekit.serialize import _dumps, _Rendered

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def _nulled(obj):
    """``obj`` with each non-finite float replaced by ``None``: strict JSON has no NaN."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (list, tuple)):
        return [_nulled(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _nulled(v) for k, v in obj.items()}
    return obj


def _strict_reference(obj):
    return json.dumps(_nulled(obj), indent=2, sort_keys=True)


SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, math.nan, math.inf, -math.inf])
NUMBERS = st.one_of(
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    SPECIAL_FLOATS,
)
TRICKY_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from([", ", "], [", "[1, 2]", "[[", "]]", ",\n", "é", " ", '"', "\\"]),
)
KEYS = st.one_of(TRICKY_TEXT, st.sampled_from(["clé", "ключ", "键", "\U0001d49c", "a", "b"]))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TRICKY_TEXT)
NUMBER_LISTS = st.lists(NUMBERS, max_size=6)
PAIR_LISTS = st.lists(st.lists(st.one_of(NUMBERS, st.booleans(), st.none()), max_size=3), max_size=5)
LEAVES = st.one_of(SCALARS, NUMBER_LISTS, PAIR_LISTS)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=24,
)


@PROPERTY
@given(TREES)
def test_dumps_matches_the_indenting_encoder(obj):
    assert _dumps(obj) == _strict_reference(obj)


@PROPERTY
@given(TREES, KEYS)
def test_a_rendered_text_embeds_as_the_object_it_was_rendered_from(obj, key):
    text = _Rendered(_dumps(obj))
    assert _dumps(text) == _dumps(obj)
    nested = {key: text, "list": [text, 1.0], "dict": {"deeper": [{"x": text}]}}
    expected = {key: obj, "list": [obj, 1.0], "dict": {"deeper": [{"x": obj}]}}
    assert _dumps(nested) == _strict_reference(expected)


@pytest.mark.parametrize("obj", [
    {}, [], [[]], [{}], {"a": []}, {"a": {}}, [[], [1.0]], [[1.0], []],
    [[1.0, -0.0], [5e-324, math.nan]], [[math.inf, -math.inf], [True, None]],
    [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]], [1, 2.5, True, None], [", ", "], ["],
    {"é": [[1.0, 2.0]], ", ": 1, "], [": [2]}, [1, [2, 3], {"k": [[4, 5]]}],
    (1.0, 2.0), [(1.0, 2.0), (3.0, 4.0)], {"t": ((1, 2), [3, 4])},
    -math.inf, [math.nan, "NaN", {"Infinity": -math.inf}],
])
def test_dumps_matches_the_indenting_encoder_on_edge_cases(obj):
    assert _dumps(obj) == _strict_reference(obj)


def _reference(entries):
    """Per-entry reading: the finite ``[re, im]`` pairs as complex numbers, or
    the ``(message, where)`` of the first entry that is not one."""
    out = []
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            return "each entry must be an [re, im] pair of numbers", f"entries[{i}]"
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError:
            return "entries must be finite", f"entries[{i}]"
        if not (math.isfinite(re) and math.isfinite(im)):
            return "entries must be finite", f"entries[{i}]"
        out.append(complex(re, im))
    return np.array(out, dtype=np.complex128)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 2**53 + 1, 10**300, -(10**308)]),
)
BAD_ENTRIES = st.one_of(
    st.lists(FINITE, max_size=3).filter(lambda pair: len(pair) != 2),
    st.tuples(FINITE, st.sampled_from([True, False, "1.0", None, {}, [1.0]])).map(list),
    st.tuples(st.sampled_from([10**400, -(10**309), math.nan, math.inf, -math.inf]), FINITE).map(list),
    st.tuples(FINITE, st.sampled_from([10**400, math.nan, -math.inf])).map(list),
    st.sampled_from([None, True, 1.0, "x", {}, (1.0, 2.0)]),
)


@st.composite
def mutated_pair_lists(draw):
    entries = draw(st.lists(st.lists(FINITE, min_size=2, max_size=2), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(BAD_ENTRIES)
    return entries


@PROPERTY
@given(mutated_pair_lists())
def test_reader_agrees_with_a_per_entry_reference(entries):
    expected = _reference(entries)
    obj = {"dim": len(entries), "entries": entries}
    if isinstance(expected, tuple):
        message, where = expected
        with pytest.raises(ParseError) as excinfo:
            vector_from_obj(obj, path="v.json")
        assert excinfo.value.where == where
        assert str(excinfo.value) == f"v.json: {where}: {message}"
    else:
        got = vector_from_obj(obj)
        assert got.dtype == np.complex128 and got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_reader_accepts_subclasses_of_the_json_types():
    class Pair(list):
        pass

    got = vector_from_obj({"dim": 2, "entries": [Pair([np.float64(1.5), -0.0]), [2, np.float64(-3.0)]]})
    np.testing.assert_array_equal(got, np.array([1.5 - 0.0j, 2.0 - 3.0j]))
    assert math.copysign(1.0, got[0].imag) == -1.0
