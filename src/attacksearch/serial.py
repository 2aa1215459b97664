"""Line-delimited record serialization.

Records are flat JSON objects, one per line. Reals are printed with 17
significant digits so that every float round-trips exactly.
"""

from __future__ import annotations

import itertools
import json
import math
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


def write_records(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dump_record(record))
            fh.write("\n")


def read_records(path) -> list[dict[str, Any]]:
    out = []
    with open(path, "rb") as fh:
        data = fh.read()
    # bytes.splitlines ends lines at \n, \r and \r\n, as text mode does
    for number, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise RecordFormatError(str(path), number,
                                    f"not UTF-8 text: {exc.reason}") from None
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:   # a JSONDecodeError, or an integer too long to convert
            raise RecordFormatError(str(path), number,
                                    f"invalid record: {getattr(exc, 'msg', exc)}") from None
        if not isinstance(obj, dict):
            raise RecordFormatError(str(path), number, "record is not an object")
        out.append(obj)
    return out


def record_line(path, ordinal: int) -> int:
    """File line of the `ordinal`-th (1-based) record `read_records` returns."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = (number for number, line in enumerate(fh, start=1) if line.strip())
        return next(itertools.islice(lines, ordinal - 1, None))
