"""JSON file formats for vector-matrix inputs and structured Markovian outputs.

Input files carry ``alpha`` and ``A``; complex entries are encoded as
two-element ``[re, im]`` arrays.  Output files carry the Erlang prefix, the
feedback-Erlang blocks, the head vector, and the tail; tails with more than
one million weights stream to a little-endian float64 sidecar next to the
JSON document.  Floats are written with shortest round-trip precision, so
write followed by read is bit exact.
"""

import json
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .core import MERep
from .deconv import DeconvParams
from .monocyclic import FEBlock
from .tail import PHRep

__all__ = [
    "read_file",
    "read_me_file",
    "write_me_file",
    "read_ph_file",
    "write_ph_file",
    "WEIGHTS_SIDECAR_THRESHOLD",
]

WEIGHTS_SIDECAR_THRESHOLD = 1_000_000


def _decode_entry(v):
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ValueError(f"matrix entries must be numbers or [re, im] pairs, got {v!r}")


def _encode_entry(v):
    v = complex(v)
    if v.imag == 0.0:
        return v.real
    return [v.real, v.imag]


def read_me_file(path) -> tuple[MERep, ToleranceConfig]:
    """Load a vector-matrix pair; returns the pair and the effective tolerances."""
    return _me_from_doc(json.loads(Path(path).read_text()), path)


def _me_from_doc(doc, path) -> tuple[MERep, ToleranceConfig]:
    if not isinstance(doc, dict) or "alpha" not in doc or "A" not in doc:
        raise ValueError(f"{path}: expected an object with 'alpha' and 'A'")
    alpha = [_decode_entry(v) for v in doc["alpha"]]
    A = [[_decode_entry(v) for v in row] for row in doc["A"]]
    tol = DEFAULT_TOL
    overrides = doc.get("tolerances")
    if overrides:
        try:
            tol = tol.replace(**overrides)
        except TypeError as exc:  # a name ToleranceConfig does not have
            raise ValueError(f"{path}: bad 'tolerances' object ({exc})") from exc
    arr_a = np.array(alpha)
    arr_m = np.array(A)
    if not (np.iscomplexobj(arr_a) or np.iscomplexobj(arr_m)):
        arr_a = arr_a.astype(float)
        arr_m = arr_m.astype(float)
    return MERep(arr_a, arr_m, tol=tol), tol


def write_me_file(rep: MERep, path) -> None:
    doc = {
        "alpha": [_encode_entry(v) for v in rep.alpha],
        "A": [[_encode_entry(v) for v in row] for row in rep.A],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def write_ph_file(ph: PHRep, path) -> None:
    path = Path(path)
    doc = {
        "prefix": (
            {"l": ph.prefix.l, "mu": ph.prefix.mu}
            if ph.prefix is not None and ph.prefix.l > 0
            else None
        ),
        "blocks": [{"b": b.b, "sigma": b.sigma, "z": b.z} for b in ph.blocks],
        "head_gamma": [float(v) for v in ph.head_gamma],
    }
    if ph.tail_n == 0:
        doc["tail"] = None
    elif ph.tail_n > WEIGHTS_SIDECAR_THRESHOLD:
        sidecar = path.name + ".weights"
        ph.tail_weights.astype("<f8").tofile(path.with_name(sidecar))
        doc["tail"] = {"lambda": ph.tail_lambda, "n": ph.tail_n, "weights_path": sidecar}
    else:
        doc["tail"] = {
            "lambda": ph.tail_lambda,
            "n": ph.tail_n,
            "weights": [float(v) for v in ph.tail_weights],
        }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def read_ph_file(path) -> PHRep:
    path = Path(path)
    return _ph_from_doc(json.loads(path.read_text()), path)


def _ph_from_doc(doc, path: Path) -> PHRep:
    if not isinstance(doc, dict) or "blocks" not in doc or "head_gamma" not in doc:
        raise ValueError(f"{path}: expected an object with 'blocks' and 'head_gamma'")
    blocks = tuple(FEBlock(int(b["b"]), float(b["sigma"]), float(b["z"])) for b in doc["blocks"])
    head = np.array([float(v) for v in doc["head_gamma"]])
    tail = doc.get("tail")
    if tail is None:
        rate, n, weights = 0.0, 0, np.zeros(0)
    else:
        rate = float(tail["lambda"])
        n = int(tail["n"])
        if "weights_path" in tail:
            weights = np.fromfile(path.with_name(tail["weights_path"]), dtype="<f8")
            if weights.shape[0] != n:
                raise ValueError(f"{path}: sidecar holds {weights.shape[0]} weights, expected {n}")
        else:
            weights = np.array([float(v) for v in tail["weights"]])
    prefix = None
    pf = doc.get("prefix")
    if pf:
        prefix = DeconvParams(int(pf["l"]), float(pf["mu"]))
    return PHRep(head, blocks, rate, n, weights, prefix=prefix)


def read_file(path) -> tuple[str, MERep | PHRep, ToleranceConfig]:
    """Parse either file kind once: ``("me", pair, its tolerances)`` for
    vector-matrix documents, ``("ph", structured, DEFAULT_TOL)`` for
    structured ones."""
    path = Path(path)
    doc = json.loads(path.read_text())
    if isinstance(doc, dict) and "alpha" in doc and "A" in doc:
        return ("me", *_me_from_doc(doc, path))
    if isinstance(doc, dict) and "blocks" in doc:
        return "ph", _ph_from_doc(doc, path), DEFAULT_TOL
    raise ValueError(f"{path}: unrecognized document layout")
