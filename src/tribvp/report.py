"""Deterministic JSON/CSV rendering of run results."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_str

from .grid import write_files

SCHEMA_VERSION = "1"

_INF = float("inf")


def dump_report(report: dict, path) -> None:
    """Write the report as json.dumps(report, sort_keys=True, indent=2) would, plus a newline."""
    write_files([(path, (_json_text(report, "\n") + "\n").encode())])


def _json_text(obj, pad: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, at the nesting whose line break and indent is pad."""
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_str(key) + ": " + _json_text(value, inner) for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def format_sig(value: float) -> str:
    """17 significant digits, enough to reproduce any double exactly."""
    return f"{float(value):.17g}"


def write_sweep_csv(path, axis_names: list[str], rows: list[dict]) -> None:
    lines = [",".join(axis_names + ["lambda", "gamma", "m", "delta", "verdict"])]
    for row in rows:
        cells = [format_sig(row[name]) for name in axis_names]
        for key in ("lambda", "gamma", "m", "delta"):
            value = row.get(key)
            cells.append("" if value is None else format_sig(value))
        cells.append(row["verdict"])
        lines.append(",".join(cells))
    write_files([(path, ("\n".join(lines) + "\n").encode())])
