"""JSON schema round-trips and parse diagnostics.

Round-trips must be exact at the bit level: floats are written with the
shortest representation that parses back to the same double."""

import json

import numpy as np
import pytest

from framekit import (
    FrameSequence,
    ParseError,
    frame_from_obj,
    frame_to_obj,
    load_frame,
    load_json,
    load_operator,
    load_vector,
    operator_from_obj,
    operator_to_obj,
    save_frame,
    save_operator,
    save_vector,
    vector_from_obj,
    vector_to_obj,
)
from framekit.cli import main

# values chosen to break anything that prints with fixed precision
ADVERSARIAL = [
    0.1, 1.0 / 3.0, np.pi, 1e-300, 1e300, 5e-324, -0.0,
    1.2345678901234567, np.nextafter(1.0, 2.0),
]


def test_vector_round_trip_is_exact(tmp_path):
    v = np.array([complex(a, b) for a, b in zip(ADVERSARIAL, reversed(ADVERSARIAL))])
    path = tmp_path / "v.json"
    save_vector(v, path)
    w = load_vector(path)
    np.testing.assert_array_equal(v, w)


def test_operator_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(80)
    T = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    path = tmp_path / "t.json"
    save_operator(T, path)
    np.testing.assert_array_equal(load_operator(path), T)


def test_frame_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(81)
    frame = FrameSequence(rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9)))
    path = tmp_path / "f.json"
    save_frame(frame, path)
    np.testing.assert_array_equal(load_frame(path).matrix, frame.matrix)


def test_operator_layout_is_column_major():
    T = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    obj = operator_to_obj(T)
    assert obj["dim"] == 2
    assert obj["entries"] == [[1.0, 0.0], [3.0, 0.0], [2.0, 0.0], [4.0, 0.0]]
    np.testing.assert_array_equal(operator_from_obj(obj), T)


def test_vector_and_frame_layouts():
    v = np.array([1 + 2j, 3 - 4j])
    assert vector_to_obj(v) == {"dim": 2, "entries": [[1.0, 2.0], [3.0, -4.0]]}
    frame = FrameSequence(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
    obj = frame_to_obj(frame)
    assert obj == {"dim": 2, "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    np.testing.assert_array_equal(frame_from_obj(obj).matrix, frame.matrix)


def test_written_files_are_stable_text(tmp_path):
    path = tmp_path / "v.json"
    save_vector(np.array([0.1 + 0.2j]), path)
    text = path.read_text()
    assert text.endswith("\n")
    assert '"dim": 1' in text
    # writing again produces identical bytes
    save_vector(np.array([0.1 + 0.2j]), path)
    assert path.read_text() == text


def test_parse_error_carries_file_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n  "entries": [[1, 0]\n}')
    with pytest.raises(ParseError) as excinfo:
        load_vector(path)
    err = excinfo.value
    assert err.path == str(path)
    assert "line 3" in err.where
    assert "column" in err.where
    assert str(path) in str(err)


def test_parse_error_on_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read file"):
        load_json(tmp_path / "nope.json")


def test_schema_violations_report_the_offending_field():
    with pytest.raises(ParseError) as excinfo:
        vector_from_obj({"dim": "two", "entries": []})
    assert excinfo.value.where == "dim"

    with pytest.raises(ParseError) as excinfo:
        vector_from_obj({"dim": 3, "entries": [[1, 0], [2, 0]]})  # wrong length
    assert excinfo.value.where == "entries"

    with pytest.raises(ParseError) as excinfo:
        vector_from_obj({"dim": 2, "entries": [[1, 0], [2]]})
    assert excinfo.value.where == "entries[1]"

    with pytest.raises(ParseError) as excinfo:
        frame_from_obj({"dim": 2, "vectors": [[[1, 0], [0, 0]], [[1, 0], ["x", 0]]]})
    assert excinfo.value.where == "vectors[1][1]"

    with pytest.raises(ParseError):
        frame_from_obj({"dim": 2, "vectors": []})

    with pytest.raises(ParseError):
        operator_from_obj([1, 2, 3])  # not even an object


def test_non_finite_entries_are_rejected():
    with pytest.raises(ParseError, match="finite"):
        vector_from_obj({"dim": 1, "entries": [[float("inf"), 0.0]]})
    with pytest.raises(ParseError):
        vector_from_obj({"dim": 1, "entries": [[float("nan"), 0.0]]})


def test_an_integer_beyond_the_double_range_is_a_positioned_parse_error(tmp_path, capsys):
    huge = 10 ** 400  # 401 digits: float() overflows
    with pytest.raises(ParseError, match="finite") as excinfo:
        operator_from_obj({"dim": 1, "entries": [[huge, 0]]})
    assert excinfo.value.where == "entries[0]"
    f_path, k_path = tmp_path / "f.json", tmp_path / "k.json"
    save_frame(FrameSequence(np.eye(2)), f_path)
    k_path.write_text(json.dumps({"dim": 2, "entries": [[1, 0], [0, huge], [0, 0], [1, 0]]}))
    code = main(["check", str(f_path), "--k", str(k_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{k_path}: entries[1]: entries must be finite" in err
    assert "Traceback" not in err


def test_booleans_are_not_numbers():
    with pytest.raises(ParseError):
        vector_from_obj({"dim": 1, "entries": [[True, 0.0]]})
    with pytest.raises(ParseError):
        vector_from_obj({"dim": True, "entries": [[1.0, 0.0]]})


def test_operator_entries_count_must_be_dim_squared():
    with pytest.raises(ParseError) as excinfo:
        operator_from_obj({"dim": 2, "entries": [[1, 0]] * 3})
    assert "4" in str(excinfo.value)


def test_dump_json_sorted_and_indented(tmp_path):
    path = tmp_path / "obj.json"
    save_operator(np.eye(2), path)
    parsed = json.loads(path.read_text())
    assert list(parsed.keys()) == sorted(parsed.keys())


def test_non_utf8_bytes_are_a_positioned_parse_error(tmp_path, capsys):
    path = tmp_path / "e7.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ParseError) as excinfo:
        load_json(path)
    assert excinfo.value.path == str(path)
    assert excinfo.value.where == "byte 0"
    assert "UTF-8" in str(excinfo.value)

    path.write_bytes(b'{"dim": 1, "entries": [[1, 0]]}\n\xc3\x28')
    with pytest.raises(ParseError) as excinfo:
        load_json(path)
    assert excinfo.value.where == "byte 32"

    code = main(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{path}: byte 32: not valid UTF-8" in err
    assert "Traceback" not in err
