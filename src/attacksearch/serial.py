"""Line-delimited record serialization.

Records are flat JSON objects, one per line. Reals are printed with 17
significant digits so that every float round-trips exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np


class RecordFormatError(ValueError):
    def __init__(self, path: str, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite real: {x}")
        return format(x, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_format_value(v) for v in value) + "]"
    raise TypeError(f"unsupported record value type: {type(value)!r}")


def dump_record(record: dict[str, Any]) -> str:
    """One compact JSON line; insertion order of keys is preserved."""
    parts = (f"{json.dumps(key)}:{_format_value(value)}" for key, value in record.items())
    return "{" + ",".join(parts) + "}"


def write_text(path, text: str) -> None:
    """Write `text` to `path`, making the directories it needs."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


def write_records(path, records) -> None:
    write_text(path, "".join(dump_record(record) + "\n" for record in records))


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object; no writer repeats a key, so a repeat is refused."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValueError(f"repeated key {key!r}")
    return obj


def read_records(path, check=lambda record, ordinal: None) -> list[dict[str, Any]]:
    """The records of `path`, in order. `check` sees each record as it is read,
    with its 1-based ordinal; a ValueError or OverflowError it raises is
    refused at the record's line."""
    out = []
    # bytes.splitlines ends lines at \n, \r and \r\n, as text mode does
    for number, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise RecordFormatError(str(path), number,
                                    f"not UTF-8 text: {exc.reason}") from None
        if not line:
            continue
        try:
            obj = json.loads(line, object_pairs_hook=_object)
        except ValueError as exc:   # bad JSON, a repeated key, or an integer too long to convert
            raise RecordFormatError(str(path), number,
                                    f"invalid record: {getattr(exc, 'msg', exc)}") from None
        if not isinstance(obj, dict):
            raise RecordFormatError(str(path), number, "record is not an object")
        out.append(obj)
        try:
            check(obj, len(out))
        except (ValueError, OverflowError) as exc:   # OverflowError: an integer beyond floats
            raise RecordFormatError(str(path), number, str(exc)) from None
    return out
