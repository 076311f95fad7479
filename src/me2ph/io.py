"""JSON file formats for vector-matrix inputs and structured Markovian outputs.

Input files carry ``alpha`` and ``A``; complex entries are encoded as
two-element ``[re, im]`` arrays.  Output files carry the Erlang prefix, the
feedback-Erlang blocks, the head vector, and the tail's rate and size; the
tail's weights go to the little-endian float64 sidecar ``<name>.weights``
next to the JSON document, which names it in ``tail.weights_path``.  The
reader also takes inline ``tail.weights``, as earlier versions wrote them.
Floats are written with shortest round-trip precision, so write followed by
read is bit exact.
"""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .core import MERep
from .monocyclic import FEBlock
from .tail import DeconvParams, PHRep

__all__ = [
    "read_file",
    "read_me_file",
    "write_me_file",
    "read_ph_file",
    "write_ph_file",
]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_KINDS = {float: "a number", int: "an integer", list: "a list"}


def _take(doc, key: str, kind, path, where: str = ""):
    """``doc[key]`` as ``kind`` (float, int or list), or a ``ValueError``
    naming the file and the field; ``where`` prefixes nested field names."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: '{where.rstrip('.')}' must be an object, got {doc!r}")
    if key not in doc:
        raise ValueError(f"{path}: missing field '{where}{key}'")
    v = doc[key]
    if kind is list:
        ok = isinstance(v, list)
    else:
        ok = _is_number(v) and (kind is float or float(v).is_integer())
    if not ok:
        raise ValueError(f"{path}: field '{where}{key}' must be {_KINDS[kind]}, got {v!r}")
    return v if kind is list else kind(v)


def _decode_entry(v, name: str, path):
    if _is_number(v):
        return float(v)
    if isinstance(v, list) and len(v) == 2 and all(_is_number(p) for p in v):
        return complex(float(v[0]), float(v[1]))
    raise ValueError(f"{path}: entries of '{name}' must be numbers or [re, im] pairs, got {v!r}")


def _tolerances(overrides, path) -> ToleranceConfig:
    """The document's tolerances, each a known field of the field's type and
    a value ``ToleranceConfig`` accepts; the others keep their defaults."""
    if not isinstance(overrides, dict):
        raise ValueError(f"{path}: field 'tolerances' must be an object, got {overrides!r}")
    kinds = {f.name: f.type for f in fields(ToleranceConfig)}
    values = {}
    for name in overrides:
        if name not in kinds:
            raise ValueError(f"{path}: field 'tolerances.{name}' is not a tolerance")
        values[name] = _take(overrides, name, kinds[name], path, "tolerances.")
    try:
        return ToleranceConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _encode_entry(v):
    v = complex(v)
    if v.imag == 0.0:
        return v.real
    return [v.real, v.imag]


def read_me_file(path) -> MERep:
    """Load a vector-matrix pair, built with the document's ``tolerances``
    (``DEFAULT_TOL`` without them): the pair carries them as its ``tol``."""
    return _me_from_doc(json.loads(Path(path).read_text()), path)


def _me_from_doc(doc, path) -> MERep:
    if not isinstance(doc, dict) or "alpha" not in doc or "A" not in doc:
        raise ValueError(f"{path}: expected an object with 'alpha' and 'A'")
    alpha = [_decode_entry(v, "alpha", path) for v in _take(doc, "alpha", list, path)]
    rows = _take(doc, "A", list, path)
    if not all(isinstance(row, list) and len(row) == len(rows) for row in rows):
        raise ValueError(f"{path}: field 'A' must be a square list of rows")
    A = [[_decode_entry(v, "A", path) for v in row] for row in rows]
    tol = _tolerances(doc["tolerances"], path) if doc.get("tolerances") is not None else DEFAULT_TOL
    return MERep(alpha, A, tol=tol)


def write_me_file(rep: MERep, path) -> None:
    doc = {
        "alpha": [_encode_entry(v) for v in rep.alpha],
        "A": [[_encode_entry(v) for v in row] for row in rep.A],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def write_ph_file(ph: PHRep, path) -> None:
    """Write ``ph`` to ``path``; a tail's weights go first to the sidecar
    ``<name>.weights`` beside it, which is removed again if the document
    cannot be written."""
    path = Path(path)
    sidecar = path.with_name(path.name + ".weights")
    doc = {
        "prefix": {"l": ph.prefix.l, "mu": ph.prefix.mu} if ph.prefix is not None else None,
        "blocks": [{"b": b.b, "sigma": b.sigma, "z": b.z} for b in ph.blocks],
        "head_gamma": [float(v) for v in ph.head_gamma],
    }
    if ph.tail_n == 0:
        doc["tail"] = None
    else:
        np.asarray(ph.tail_weights, dtype="<f8").tofile(sidecar)
        doc["tail"] = {"lambda": ph.tail_lambda, "n": ph.tail_n, "weights_path": sidecar.name}
    try:
        path.write_text(json.dumps(doc, indent=1) + "\n")
    except OSError:
        if ph.tail_n:
            sidecar.unlink(missing_ok=True)
        raise


def read_ph_file(path) -> PHRep:
    path = Path(path)
    return _ph_from_doc(json.loads(path.read_text()), path)


def _numbers(doc, key: str, path, where: str = "") -> np.ndarray:
    values = _take(doc, key, list, path, where)
    if not all(_is_number(v) for v in values):
        raise ValueError(f"{path}: entries of '{where}{key}' must be numbers")
    return np.array(values, dtype=float)


def _sidecar_weights(name, n: int, path: Path) -> np.ndarray:
    """The ``n`` float64 weights of the sidecar ``name``: a plain file name
    beside ``path``, of exactly ``8 n`` bytes."""
    where = f"{path}: field 'tail.weights_path'"
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise ValueError(f"{where} must be a file name beside the document, got {name!r}")
    sidecar = path.with_name(name)
    if not sidecar.is_file():
        raise ValueError(f"{where}: no file {name!r} beside the document")
    size = sidecar.stat().st_size
    if size != 8 * n:
        raise ValueError(f"{where}: {name!r} holds {size} bytes, expected {8 * n} for {n} weights")
    return np.fromfile(sidecar, dtype="<f8")


def _ph_from_doc(doc, path: Path) -> PHRep:
    if not isinstance(doc, dict) or "blocks" not in doc or "head_gamma" not in doc:
        raise ValueError(f"{path}: expected an object with 'blocks' and 'head_gamma'")
    blocks = []
    for i, b in enumerate(_take(doc, "blocks", list, path)):
        where = f"blocks[{i}]."
        blocks.append(FEBlock(_take(b, "b", int, path, where),
                              _take(b, "sigma", float, path, where),
                              _take(b, "z", float, path, where)))
    head = _numbers(doc, "head_gamma", path)
    tail = doc.get("tail")
    if tail is None:
        rate, n, weights = 0.0, 0, np.zeros(0)
    else:
        rate = _take(tail, "lambda", float, path, "tail.")
        n = _take(tail, "n", int, path, "tail.")
        if "weights_path" in tail:
            weights = _sidecar_weights(tail["weights_path"], n, path)
        else:
            weights = _numbers(tail, "weights", path, "tail.")
    pf = doc.get("prefix")
    prefix = (DeconvParams(_take(pf, "l", int, path, "prefix."), _take(pf, "mu", float, path, "prefix."))
              if pf else None)
    return PHRep(head, tuple(blocks), rate, n, weights, prefix=prefix)


def read_file(path) -> tuple[str, MERep | PHRep]:
    """Parse either file kind once: ``("me", pair)`` for vector-matrix
    documents, the pair built with their tolerances, and
    ``("ph", structured)`` for structured ones."""
    path = Path(path)
    doc = json.loads(path.read_text())
    if isinstance(doc, dict) and "alpha" in doc and "A" in doc:
        return "me", _me_from_doc(doc, path)
    if isinstance(doc, dict) and "blocks" in doc:
        return "ph", _ph_from_doc(doc, path)
    raise ValueError(f"{path}: unrecognized document layout")
