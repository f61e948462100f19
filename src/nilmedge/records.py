"""JSON documents for the report records: a record's document is its fields.

Every report and cost profile is a dataclass, and its JSON is
``dataclasses.asdict`` of it, with tuples written as lists and numpy scalars
and arrays as plain numbers and lists. A field added to a record is
therefore in its document without further code.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, is_dataclass

import numpy as np


def jsonable(obj):
    """Plain JSON values for a record, dict, list or value."""
    if is_dataclass(obj):
        obj = asdict(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    return obj


def dumps(obj) -> str:
    """The document of a record: sorted keys, one-space indent."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=1)


def record_fields(record, doc, where: str) -> dict:
    """A JSON object that carries exactly the fields of a record class."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    wrong = sorted({f.name for f in fields(record)} ^ doc.keys())
    if wrong:
        raise ValueError(f"{where}: missing or unknown keys {wrong}")
    return doc
