"""JSON channel files.

A channel file is a JSON object with integer fields d1 and d2, an optional
label, and a representation object whose "type" is "kraus", "choi", or
"holevo". Matrices are nested row-major lists; every scalar entry is either
a real number or a two-element [re, im] list. Kraus carries "operators"
(list of d1 x d2 matrices), Choi carries "matrix" ((d1*d2) square), Holevo
carries "terms" (list of {"F": d1 x d1, "R": d2 x d2}).

The same scalar and matrix encoding serves every JSON document the CLI
writes: ``_to_json`` encodes the channel files' matrices and the results
(dataclasses, arrays, scalars), and ``_save_json`` writes every file.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from .channel import (
    Channel,
    ChoiMatrix,
    HolevoEnsemble,
    KrausSet,
    choi_channel,
    holevo_channel,
    kraus_channel,
    to_choi,
)
from .errors import ParseError

__all__ = ["channel_to_json", "channel_from_json", "save_channel", "load_channel"]


def _encode_scalar(z: complex) -> Any:
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _to_json(obj: Any) -> Any:
    """JSON-ready form of a result: a dataclass becomes its fields in order,
    leaving out those that are None, and a dict its items; an array, tuple
    or list a list; every array entry, complex or numpy scalar an
    ``_encode_scalar`` number; bool, str, int, float and None pass through."""
    if dataclasses.is_dataclass(obj):
        fields = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return {name: _to_json(v) for name, v in fields if v is not None}
    if isinstance(obj, dict):
        return {key: _to_json(v) for key, v in obj.items()}
    if isinstance(obj, np.ndarray):
        # every entry is encoded as a complex number, whatever the array's dtype
        obj = np.asarray(obj, dtype=complex).tolist()
    if isinstance(obj, (tuple, list)):
        return [_to_json(x) for x in obj]
    if isinstance(obj, (complex, np.number)):
        return _encode_scalar(complex(obj))
    return obj


def _decode_scalar(v: Any, where: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        return complex(v[0], v[1])
    raise ParseError(f"{where}: entry must be a number or [re, im] pair, got {v!r}")


def _decode_matrix(obj: Any, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}: row {i} must have {cols} entries")
        for j, v in enumerate(row):
            out[i, j] = _decode_scalar(v, f"{where}[{i}][{j}]")
    return out


def channel_to_json(ch: Channel) -> dict:
    """Plain-dict form of a channel, ready for json.dump."""
    rep = ch.representation
    if isinstance(rep, KrausSet):
        body = {"type": "kraus", "operators": _to_json(rep.operators)}
    elif isinstance(rep, ChoiMatrix):
        body = {"type": "choi", "matrix": _to_json(rep.matrix)}
    elif isinstance(rep, HolevoEnsemble):
        body = {
            "type": "holevo",
            "terms": [{"F": _to_json(f), "R": _to_json(r)} for f, r in rep.terms],
        }
    else:
        raise ParseError(f"unknown representation type {type(rep).__name__}")
    doc: dict = {"d1": ch.d1, "d2": ch.d2, "representation": body}
    if ch.label is not None:
        doc["label"] = ch.label
    return doc


def channel_from_json(doc: Any) -> Channel:
    """Parse a plain dict (already json.load-ed) into a channel; ParseError
    when it is malformed or its Choi matrix overflows."""
    if not isinstance(doc, dict):
        raise ParseError("channel file must be a JSON object")
    for field in ("d1", "d2", "representation"):
        if field not in doc:
            raise ParseError(f"missing required field {field!r}")
    d1, d2 = doc["d1"], doc["d2"]
    if not (type(d1) is int and type(d2) is int and d1 >= 1 and d2 >= 1):
        raise ParseError("d1 and d2 must be positive integers")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError("label must be a string when present")
    rep = doc["representation"]
    if not isinstance(rep, dict) or "type" not in rep:
        raise ParseError("representation must be an object with a 'type' field")
    kind = rep["type"]
    try:
        if kind == "kraus":
            ops = rep.get("operators")
            if not isinstance(ops, list) or not ops:
                raise ParseError("kraus representation needs a nonempty 'operators' list")
            mats = tuple(
                _decode_matrix(op, d1, d2, f"operators[{k}]")
                for k, op in enumerate(ops)
            )
            ch = kraus_channel(mats, label=label)
        elif kind == "choi":
            if "matrix" not in rep:
                raise ParseError("choi representation needs a 'matrix' field")
            n = d1 * d2
            m = _decode_matrix(rep["matrix"], n, n, "matrix")
            ch = choi_channel(m, d1, d2, label=label)
        elif kind == "holevo":
            terms = rep.get("terms")
            if not isinstance(terms, list) or not terms:
                raise ParseError("holevo representation needs a nonempty 'terms' list")
            pairs = []
            for k, term in enumerate(terms):
                if not isinstance(term, dict) or "F" not in term or "R" not in term:
                    raise ParseError(f"terms[{k}] must be an object with 'F' and 'R'")
                f = _decode_matrix(term["F"], d1, d1, f"terms[{k}].F")
                r = _decode_matrix(term["R"], d2, d2, f"terms[{k}].R")
                pairs.append((f, r))
            ch = holevo_channel(tuple(pairs), label=label)
        else:
            raise ParseError(f"unknown representation type {kind!r}")
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"invalid channel data: {exc}") from exc
    # headroom for sums of d1*d2 products of two Choi entries; refuses inf and nan
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.abs(to_choi(ch).matrix).max() <= np.sqrt(np.finfo(float).max) / ch.d1 / ch.d2:
            raise ParseError("the channel's Choi matrix overflows: entries too large")
    return ch


def _save_json(doc: Any, path) -> None:
    """Write ``doc`` to ``path`` as UTF-8 JSON, indented by 2, with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def save_channel(ch: Channel, path) -> None:
    _save_json(channel_to_json(ch), path)


def load_channel(path) -> Channel:
    """Read a channel file. Raises ParseError for text that is not UTF-8,
    is not JSON, nests too deeply for the parser, or is not a channel;
    OSError for a file that cannot be opened."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply to parse") from exc
    return channel_from_json(doc)
