"""JSON schemas for vectors, operators and frame sequences.

Schemas (all entries are ``[re, im]`` pairs of finite floats):

* vector:   ``{"dim": d, "entries": [[re, im] * d]}``
* operator: ``{"dim": d, "entries": [[re, im] * d*d]}`` in column-major order
* frame:    ``{"dim": d, "vectors": [[[re, im] * d] * n]}``

Floats are written with Python's shortest round-trip representation, which
preserves every bit of a double (it never needs more than 17 significant
digits); loading therefore reproduces the original arrays exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .frames import FrameSequence

__all__ = [
    "vector_to_obj",
    "operator_to_obj",
    "frame_to_obj",
    "vector_from_obj",
    "operator_from_obj",
    "frame_from_obj",
    "load_json",
    "dump_json",
    "load_vector",
    "load_operator",
    "load_frame",
    "save_vector",
    "save_operator",
    "save_frame",
]


def _pairs(flat: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in flat]


def vector_to_obj(v) -> dict:
    v = np.asarray(v, dtype=np.complex128)
    return {"dim": int(v.shape[0]), "entries": _pairs(v)}


def operator_to_obj(T) -> dict:
    T = np.asarray(T, dtype=np.complex128)
    return {"dim": int(T.shape[0]), "entries": _pairs(T.flatten(order="F"))}


def frame_to_obj(frame: FrameSequence) -> dict:
    return {
        "dim": int(frame.dim),
        "vectors": [_pairs(frame.matrix[:, j]) for j in range(frame.count)],
    }


def _complex_array(entries, expected: int, path, where) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != expected:
        raise ParseError(
            f"expected a list of {expected} [re, im] pairs, got "
            f"{type(entries).__name__} of length {len(entries) if isinstance(entries, list) else 'n/a'}",
            path=path, where=where,
        )
    out = np.empty(expected, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise ParseError("each entry must be an [re, im] pair of numbers", path=path, where=f"{where}[{i}]")
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError:  # an integer beyond the range of a double
            re = im = np.inf
        if not (np.isfinite(re) and np.isfinite(im)):
            raise ParseError("entries must be finite", path=path, where=f"{where}[{i}]")
        out[i] = complex(re, im)
    return out


def _dim_of(obj, path) -> int:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}", path=path)
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"'dim' must be a positive integer, got {dim!r}", path=path, where="dim")
    return dim


def vector_from_obj(obj, path=None) -> np.ndarray:
    dim = _dim_of(obj, path)
    return _complex_array(obj.get("entries"), dim, path, "entries")


def operator_from_obj(obj, path=None) -> np.ndarray:
    dim = _dim_of(obj, path)
    flat = _complex_array(obj.get("entries"), dim * dim, path, "entries")
    return flat.reshape((dim, dim), order="F")


def frame_from_obj(obj, path=None) -> FrameSequence:
    dim = _dim_of(obj, path)
    vectors = obj.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise ParseError("'vectors' must be a nonempty list", path=path, where="vectors")
    columns = [
        _complex_array(vec, dim, path, f"vectors[{j}]") for j, vec in enumerate(vectors)
    ]
    return FrameSequence(np.stack(columns, axis=1))


def load_json(path) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror or exc}", path=str(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=str(path), where=f"line {exc.lineno} column {exc.colno}")


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_vector(path) -> np.ndarray:
    return vector_from_obj(load_json(path), path=str(path))


def load_operator(path) -> np.ndarray:
    return operator_from_obj(load_json(path), path=str(path))


def load_frame(path) -> FrameSequence:
    return frame_from_obj(load_json(path), path=str(path))


def save_vector(v, path) -> None:
    dump_json(vector_to_obj(v), path)


def save_operator(T, path) -> None:
    dump_json(operator_to_obj(T), path)


def save_frame(frame: FrameSequence, path) -> None:
    dump_json(frame_to_obj(frame), path)
