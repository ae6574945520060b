import enum
import json
import math
import pathlib

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin_wavelets.famio import dumps, family_to_document, parse_family_file

from .families import save_family_file

FAMILIES = sorted((pathlib.Path(__file__).resolve().parent.parent / "families").glob("*.json"))

# Strings heavy in what JSON escapes: quotes, backslashes, controls,
# non-ASCII, astral characters and a lone surrogate.
TRICKY = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f",
                         "/", " ", "é", "ß", "中", "\U0001f600", "\ud800"]),
        st.characters(),
    ),
    max_size=12,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**60, max_value=10**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
    TRICKY,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TRICKY, inner, max_size=4),
    ),
    max_leaves=40,
)


class TestDumps:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(VALUES)
    def test_matches_json_dumps(self, value):
        assert dumps(value) == json.dumps(value, indent=2)

    def test_empty_and_deep_containers(self):
        for value in ({}, [], (), [[]], {"a": {}}, {"": [(), {}]}):
            assert dumps(value) == json.dumps(value, indent=2)
        deep = 0
        for i in range(200):
            deep = [deep] if i % 2 else {"k": deep}
        assert dumps(deep) == json.dumps(deep, indent=2)

    def test_scalar_subclasses_are_written_as_their_base(self):
        class Name(str):
            pass

        value = [
            {"e": enum.IntEnum("E", "A B").B, "f": numpy.float64(0.1), "s": Name("é")},
            (numpy.float64("nan"), True),
        ]
        assert dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{1, 2}, {"a": [frozenset()]}, [object()], b"x"])
    def test_other_types_raise_as_json_dumps_does(self, value):
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            dumps(value)
        assert str(got.value) == str(want.value)

    def test_integers_past_the_digit_limit(self):
        # json.dumps and str() refuse integers of more than 4300 digits.
        big = 10**5000 + 7
        text = "1" + "0" * 4999 + "7"
        assert dumps([big, -big, {"n": -(10**4300)}]) == (
            f'[\n  {text},\n  -{text},\n  {{\n    "n": -1{"0" * 4300}\n  }}\n]'
        )

    @pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
    def test_non_string_keys_raise(self, key):
        with pytest.raises(TypeError):
            dumps({"a": [{key: 0}]})


class TestSaveFamilyFile:
    @pytest.mark.parametrize("path", FAMILIES, ids=lambda path: path.stem)
    def test_bytes_match_json_dump(self, path, tmp_path):
        family = parse_family_file(str(path))
        out = tmp_path / "family.json"
        save_family_file(family, str(out))
        want = json.dumps(family_to_document(family), indent=2) + "\n"
        assert out.read_bytes() == want.encode("utf-8")
        assert parse_family_file(str(out)) == family
