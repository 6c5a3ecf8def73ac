"""Reading and writing probabilistic relations and synopses.

Two interchange formats are supported:

* a **JSON** format that round-trips every model and synopsis exactly (the
  format used by the command-line interface), and
* a simple whitespace **text** format for basic-model data — one
  ``item probability`` pair per line, comments starting with ``#`` — which is
  how record-linkage outputs such as the MystiQ data are typically shipped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..core.synopsis import Synopsis, synopsis_class, synopsis_kind_of
from ..exceptions import ModelValidationError, SynopsisError
from ..models.base import ProbabilisticModel
from ..models.basic import BasicModel
from ..models.tuple_pdf import TuplePdfModel
from ..models.value_pdf import ValuePdfModel

__all__ = [
    "model_to_dict",
    "model_from_dict",
    "write_model",
    "read_model",
    "read_basic_text",
    "write_basic_text",
    "synopsis_to_dict",
    "synopsis_from_dict",
    "write_synopsis",
    "read_synopsis",
]

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Models <-> dictionaries
# ----------------------------------------------------------------------
def model_to_dict(model: ProbabilisticModel) -> dict:
    """JSON-friendly representation of any supported probabilistic model."""
    if isinstance(model, BasicModel):
        return {
            "model": "basic",
            "domain_size": model.domain_size,
            "pairs": [[item, prob] for item, prob in model.pairs],
        }
    if isinstance(model, TuplePdfModel):
        return {
            "model": "tuple_pdf",
            "domain_size": model.domain_size,
            "tuples": [
                [[item, prob] for item, prob in t.alternatives] for t in model.tuples
            ],
        }
    if isinstance(model, ValuePdfModel):
        return {
            "model": "value_pdf",
            "domain_size": model.domain_size,
            "items": [
                [[value, prob] for value, prob in pairs] for pairs in model.per_item_pairs
            ],
        }
    raise ModelValidationError(f"cannot serialise model of type {type(model).__name__}")


def model_from_dict(payload: dict) -> ProbabilisticModel:
    """Inverse of :func:`model_to_dict`."""
    kind = payload.get("model")
    domain_size = payload.get("domain_size")
    if kind == "basic":
        return BasicModel(
            [(int(item), float(prob)) for item, prob in payload["pairs"]],
            domain_size=domain_size,
        )
    if kind == "tuple_pdf":
        return TuplePdfModel(
            [
                [(int(item), float(prob)) for item, prob in alternatives]
                for alternatives in payload["tuples"]
            ],
            domain_size=domain_size,
        )
    if kind == "value_pdf":
        return ValuePdfModel(
            [
                [(float(value), float(prob)) for value, prob in pairs]
                for pairs in payload["items"]
            ],
            domain_size=domain_size,
        )
    raise ModelValidationError(f"unknown model kind {kind!r} in payload")


def write_model(model: ProbabilisticModel, path: PathLike) -> Path:
    """Write a model to a JSON file; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(model_to_dict(model), indent=2))
    return path


def read_model(path: PathLike) -> ProbabilisticModel:
    """Read a model from a JSON file produced by :func:`write_model`."""
    payload = json.loads(Path(path).read_text())
    return model_from_dict(payload)


# ----------------------------------------------------------------------
# Basic-model text format
# ----------------------------------------------------------------------
def read_basic_text(path: PathLike, *, domain_size: int | None = None) -> BasicModel:
    """Read basic-model data from an ``item probability`` per-line text file."""
    pairs = []
    for line_number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ModelValidationError(
                f"{path}:{line_number}: expected 'item probability', got {raw!r}"
            )
        pairs.append((int(parts[0]), float(parts[1])))
    if not pairs:
        raise ModelValidationError(f"{path}: no (item, probability) pairs found")
    return BasicModel(pairs, domain_size=domain_size)


def write_basic_text(model: BasicModel, path: PathLike) -> Path:
    """Write basic-model data as an ``item probability`` per-line text file."""
    lines = ["# item probability"]
    lines.extend(f"{item} {prob:.17g}" for item, prob in model.pairs)
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


# ----------------------------------------------------------------------
# Synopses
# ----------------------------------------------------------------------
def synopsis_to_dict(synopsis: Synopsis) -> dict:
    """JSON-friendly self-describing representation of any synopsis.

    The ``synopsis`` tag is the class's own ``kind``; the body is its
    ``to_dict``.
    """
    kind = synopsis_kind_of(synopsis)  # raises SynopsisError for foreign types
    return {"synopsis": kind, **synopsis.to_dict()}


def synopsis_from_dict(payload: dict) -> Synopsis:
    """Inverse of :func:`synopsis_to_dict` (dispatched on the kind tag)."""
    kind = payload.get("synopsis")
    if not isinstance(kind, str):
        raise SynopsisError(f"unknown synopsis kind {kind!r} in payload")
    return synopsis_class(kind).from_dict(payload)


def write_synopsis(synopsis: Synopsis, path: PathLike) -> Path:
    """Write a registered synopsis (histogram, wavelet, ...) to a JSON file."""
    payload = synopsis_to_dict(synopsis)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2))
    return path


def read_synopsis(path: PathLike) -> Synopsis:
    """Read a synopsis written by :func:`write_synopsis`."""
    payload = json.loads(Path(path).read_text())
    try:
        return synopsis_from_dict(payload)
    except SynopsisError as exc:
        raise SynopsisError(f"{exc} (while reading {path})") from exc
