"""Deterministic machine-readable outputs: CSV/JSON writers with atomic
replacement and full-precision floats."""

import json
import math
import os
import tempfile

__all__ = ["format_float", "write_csv", "write_json"]


def format_float(x):
    """17 significant digits: round-trips any double exactly."""
    return f"{float(x):.17g}"


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(format_float(x) if isinstance(x, float) else str(x) for x in row)
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float):
        # JSON has no NaN or infinity: a value that is not finite is null
        return float(format_float(obj)) if math.isfinite(obj) else None
    if hasattr(obj, "item"):
        return _jsonify(obj.item())
    return obj


def write_json(path, payload):
    text = json.dumps(_jsonify(payload), indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, text + "\n")
