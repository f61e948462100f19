"""JSON documents for the report records: a record's document is its fields.

Every report and cost profile is a dataclass, and its JSON is
``dataclasses.asdict`` of it, with tuples written as lists and numpy scalars
and arrays as plain numbers and lists. A field added to a record is
therefore in its document without further code.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass

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
