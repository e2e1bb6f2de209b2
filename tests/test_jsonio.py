import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsemi.catalog import build_named
from subsemi.counting import PartialBinaryAlgebra, count_subuniverses_bruteforce
from subsemi.jsonio import (
    FormatError,
    structure_from_dict,
    structure_to_dict,
    structure_to_dot,
    load_structure,
)
from subsemi.order import JoinSemilattice, are_isomorphic

H5_DOC = {"labels": ["a", "b", "c", "d", "1"],
          "covers": [["a", "b"], ["b", "c"], ["c", "1"], ["d", "1"]]}


def test_load_total_with_labels():
    sl, labels = structure_from_dict(H5_DOC)
    assert isinstance(sl, JoinSemilattice)
    assert labels == ("a", "b", "c", "d", "1")
    assert are_isomorphic(sl, build_named("H5").structure)


def test_load_total_with_indices():
    sl, _ = structure_from_dict(
        {"labels": ["x", "y", "z"], "covers": [[0, 2], [1, 2]]})
    assert sl.n == 3 and sl.top == 2


def test_load_partial():
    pa, labels = structure_from_dict({"n": 4, "joins": [[0, 1, 3], [1, 2, 3]]})
    assert isinstance(pa, PartialBinaryAlgebra)
    assert count_subuniverses_bruteforce(pa).count > 0
    assert labels == ("0", "1", "2", "3")


def test_load_partial_with_labels():
    pa, _ = structure_from_dict(
        {"labels": ["a", "b", "x"], "joins": [["a", "b", "x"]]})
    assert pa.defined_joins == ((0, 1, 2),)


def test_round_trip_total():
    sl, labels = structure_from_dict(H5_DOC)
    doc = structure_to_dict(sl, labels)
    sl2, labels2 = structure_from_dict(doc)
    assert labels2 == labels
    assert sl2.up == sl.up


def test_errors_name_the_field():
    with pytest.raises(FormatError, match="labels"):
        structure_from_dict({"covers": []})
    with pytest.raises(FormatError, match=r"covers\[0\]"):
        structure_from_dict({"labels": ["a"], "covers": [[0]]})
    with pytest.raises(FormatError, match="unknown label"):
        structure_from_dict({"labels": ["a", "b"], "covers": [["a", "q"]]})
    with pytest.raises(FormatError, match="n"):
        structure_from_dict({"joins": [[0, 1, 2]]})
    with pytest.raises(FormatError, match=r"joins\[0\]"):
        structure_from_dict({"n": 3, "joins": [[0, 1]]})
    with pytest.raises(FormatError, match="covers"):
        # cyclic cover relation breaks antisymmetry
        structure_from_dict({"labels": ["a", "b"], "covers": [[0, 1], [1, 0]]})


def test_load_structure_missing_file(tmp_path):
    with pytest.raises(FormatError, match="cannot read"):
        load_structure(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_structure(bad)


def test_dot_total():
    dot = structure_to_dot(build_named("K3").structure, ("a", "b", "c", "1"))
    assert "rankdir=BT" in dot
    assert dot.count("->") == 3


def test_dot_partial_constraint_nodes():
    dot = structure_to_dot(build_named("U7").structure)
    assert 'shape=diamond' in dot
    # three defined joins, each drawn as one constraint node with three edges
    assert dot.count("j0") >= 3


def test_dot_is_text_only(tmp_path):
    dot = structure_to_dot(build_named("H5").structure)
    parsed = dot.splitlines()
    assert parsed[0].startswith("digraph")
    assert parsed[-1] == "}"


@pytest.mark.parametrize("doc, field", [
    ({"labels": ["a"], "covers": 5}, "covers"),
    ({"n": 2, "joins": 5}, "joins"),
    ({"n": True, "joins": []}, "n"),
    ({"labels": "ab", "joins": []}, "labels"),
    ({"labels": ["a", "b"], "covers": [[False, True]]}, r"covers\[0\]\[0\]"),
    ({"labels": 5, "joins": []}, "labels"),
    ({"labels": ["a", "a"], "joins": []}, "labels"),
    ({"n": 2 ** 63, "joins": []}, "n"),
    ({"labels": ["a", "b", "c"], "n": 5, "joins": [[0, 1, 2]]}, "n"),
])
def test_malformed_fields_raise_format_error(doc, field):
    with pytest.raises(FormatError, match=field):
        structure_from_dict(doc)


JSON_KEYS = st.sampled_from(["labels", "covers", "joins", "n"]) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=12)


@given(JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_structure_from_dict_returns_or_raises_format_error(data):
    try:
        structure_from_dict(data)
    except FormatError:
        pass
