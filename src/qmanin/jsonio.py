"""Deterministic JSON rendering: identical inputs give identical bytes.

This module alone decides how a result becomes JSON:

- a complex number is the pair ``[re, im]``;
- a non-finite float is the string ``"inf"``, ``"-inf"`` or ``"nan"``;
- a tuple is a list, and a numpy array or scalar is what ``tolist()`` gives;
- an object with ``to_json`` is what that returns, and any other dataclass
  is the object of its fields.

Keys are sorted and floats use Python's shortest round-trip repr, so a
re-run of the same configuration reproduces artifacts bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np


def _normalize(obj):
    # the plain leaves first: an operator's entries number about a million
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    if isinstance(obj, (str, int)) or obj is None:
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _normalize(obj.tolist())
    if hasattr(obj, "to_json"):
        return _normalize(obj.to_json())
    if dataclasses.is_dataclass(obj):
        return {f.name: _normalize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def dumps(obj) -> str:
    return json.dumps(_normalize(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write(path, obj) -> None:
    Path(path).write_text(dumps(obj))
