"""JSON schemas for vectors, operators and frame sequences.

Schemas (all entries are ``[re, im]`` pairs of finite floats):

* vector:   ``{"dim": d, "entries": [[re, im] * d]}``
* operator: ``{"dim": d, "entries": [[re, im] * d*d]}`` in column-major order
* frame:    ``{"dim": d, "vectors": [[[re, im] * d] * n]}``

Floats are written with Python's shortest round-trip representation, which
preserves every bit of a double (it never needs more than 17 significant
digits); loading therefore reproduces the original arrays exactly.  Files and
reports are laid out exactly as ``json.dumps(obj, indent=2, sort_keys=True)``
lays them out, with two rules of strict JSON: every key is a string, and a
float that is not finite is written as ``null``.
"""

from __future__ import annotations

import json
import math
from itertools import chain

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


_SCALARS = frozenset({int, float, bool, type(None)})
_NUMBERS = frozenset({int, float})


def _pairs(z: np.ndarray) -> list:
    """``z`` as nested lists with each entry an ``[re, im]`` pair of floats."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return z.view(np.float64).reshape(z.shape + (2,)).tolist()


def vector_to_obj(v) -> dict:
    v = np.asarray(v, dtype=np.complex128)
    return {"dim": int(v.shape[0]), "entries": _pairs(v)}


def operator_to_obj(T) -> dict:
    T = np.asarray(T, dtype=np.complex128)
    return {"dim": int(T.shape[0]), "entries": _pairs(T.flatten(order="F"))}


def frame_to_obj(frame: FrameSequence) -> dict:
    return {
        "dim": int(frame.dim),
        "vectors": _pairs(frame.matrix.T),
    }


def _first_bad_entry(entries, path, where) -> None:
    """Raise the ``ParseError`` naming the first entry that is not a finite
    ``[re, im]`` pair of numbers; return if there is none."""
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise ParseError("each entry must be an [re, im] pair of numbers", path=path, where=f"{where}[{i}]")
        try:
            finite = math.isfinite(pair[0]) and math.isfinite(pair[1])
        except OverflowError:  # an integer beyond the range of a double
            finite = False
        if not finite:
            raise ParseError("entries must be finite", path=path, where=f"{where}[{i}]")


def _complex_array(entries, expected: int, path, where) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != expected:
        raise ParseError(
            f"expected a list of {expected} [re, im] pairs, got "
            f"{type(entries).__name__} of length {len(entries) if isinstance(entries, list) else 'n/a'}",
            path=path, where=where,
        )
    # Whole-list passes in C; only a list they refuse is scanned entry by entry.
    if not (
        set(map(type, entries)) == {list}
        and set(map(len, entries)) == {2}
        and set(map(type, chain.from_iterable(entries))) <= _NUMBERS
    ):
        _first_bad_entry(entries, path, where)  # returns for subclasses of list, int or float
    try:
        flat = np.array(entries, dtype=np.float64)
        finite = np.isfinite(flat).all()
    except OverflowError:  # an integer beyond the range of a double
        finite = False
    if not finite:
        _first_bad_entry(entries, path, where)
    return flat.view(np.complex128).ravel()


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
        with open(path, "rb") as handle:
            return json.loads(handle.read().decode("utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror or exc}", path=str(path))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 ({exc.reason})", path=str(path), where=f"byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=str(path), where=f"line {exc.lineno} column {exc.colno}")


class _Rendered(str):
    """JSON text laid out by :func:`_dumps` at the top level.

    :func:`_dumps` embeds it as the value it encodes, re-indented, rather
    than as a string, so one object can go into a file and into a report
    with one layout.  The text holds no raw newline inside a string, so
    re-indenting is prefixing every line after the first.
    """


def _strict(text: str) -> str:
    """C-encoder text of numbers, ``true``, ``false`` and ``null`` with each
    non-finite float written as ``null``."""
    return text.replace("-Infinity", "null").replace("Infinity", "null").replace("NaN", "null")


def _dumps(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, as strict
    JSON: each float that is not finite is written as ``null``.  Every dict
    key must be a string.

    Dicts and mixed lists are laid out here.  A list of scalars, or of
    nonempty scalar lists such as ``[re, im]`` pairs, is written by one pass
    of the C encoder, whose ``", "`` and ``"], ["`` separators are then
    rewritten into the indented layout; no string can contain them there,
    and its ``NaN`` and ``Infinity`` tokens become ``null``.
    A :class:`_Rendered` text stands for the object it was rendered from.
    """
    if isinstance(obj, _Rendered):
        return obj.replace("\n", "\n" + indent)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(k)}: {_dumps(v, inner)}" for k, v in sorted(obj.items()))
        return f"{{\n{items}\n{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if types <= _SCALARS:
            body = _strict(json.dumps(obj)[1:-1]).replace(", ", ",\n" + inner)
            return f"[\n{inner}{body}\n{indent}]"
        if types == {list} and all(obj) and set(map(type, chain.from_iterable(obj))) <= _SCALARS:
            deep = inner + "  "
            body = (
                _strict(json.dumps(obj)[2:-2])
                .replace("], [", f"\n{inner}],\n{inner}[\n{deep}")
                .replace(", ", ",\n" + deep)
            )
            return f"[\n{inner}[\n{deep}{body}\n{inner}]\n{indent}]"
        items = ",\n".join(inner + _dumps(x, inner) for x in obj)
        return f"[\n{items}\n{indent}]"
    if isinstance(obj, float) and not math.isfinite(obj):
        return "null"
    return json.dumps(obj)


def dump_json(obj, path) -> str:
    """Write ``obj`` to ``path`` laid out by :func:`_dumps`, and return that
    text, which a report embeds as ``obj`` without laying it out again."""
    text = _Rendered(_dumps(obj))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return text


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


def save_frame(frame: FrameSequence, path) -> str:
    return dump_json(frame_to_obj(frame), path)
