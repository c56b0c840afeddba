"""State files, TPS serialization, and deterministic JSON/CSV writers.

All floating-point numbers are written with 17 significant digits, which
round-trips IEEE doubles exactly, and objects are serialized with sorted keys
so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BijectionError, ContractError, ShapeError, SizeLimitError, StateFileError
from .linalg import MAX_GLOBAL_DIM
from .tps import IndexBijection, TensorProductStructure


def format_float(x: float) -> str:
    """17-significant-digit decimal that round-trips the double exactly."""
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    text = format(float(x), ".17g")
    # keep a decimal point so the value parses back as a float (e.g. "-0.0")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _render(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_render(v)}" for k, v in sorted(obj.items()))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats, newline-terminated."""
    return _render(obj) + "\n"


def complex_pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]


def pairs_to_complex(pairs, what: str) -> np.ndarray:
    # complex(re, im) refuses strings, so numeric text is not read as a number;
    # it reads booleans as 0 and 1, so pairs holding one are dropped and refused
    try:
        values = np.array([complex(re, im) for re, im in pairs
                           if type(re) is not bool and type(im) is not bool], dtype=complex)
        if values.size != len(pairs):
            raise TypeError("booleans are not numbers")
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFileError(f"{what} must be a list of [re, im] pairs: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise StateFileError(f"{what} contains non-finite entries")
    return values


def json_int(value, what: str, low: int = 1) -> int:
    """An integer read from JSON, at least ``low``; bools, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise StateFileError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise StateFileError(f"{what} must be at least {low}, got {value!r}")
    return int(value)


def tps_to_dict(tps: TensorProductStructure) -> dict:
    out = {"d1": tps.d1, "d2": tps.d2}
    if tps.relabeling is not None:
        out["map"] = tps.relabeling.flat_targets().tolist()
    if tps.unitary is not None:
        out["unitary"] = complex_pairs(tps.unitary.ravel())
    if tps.reflector is not None:
        out["reflector"] = complex_pairs(tps.reflector)
    if tps.label_left is not None:
        out["label_left"] = list(tps.label_left)
    if tps.label_right is not None:
        out["label_right"] = list(tps.label_right)
    return out


def _checked_dim(d1: int, d2: int, what: str) -> int:
    """The global dimension d1*d2, refused above ``MAX_GLOBAL_DIM`` before anything is parsed."""
    if d1 * d2 > MAX_GLOBAL_DIM:
        raise SizeLimitError(
            f"{what} {d1}x{d2} exceed the configured maximum global dimension {MAX_GLOBAL_DIM}"
        )
    return d1 * d2


def _sized_list(value, length: int, what: str) -> list:
    """A JSON list of the length the declared dims give, checked before any entry is read."""
    if not isinstance(value, list):
        raise StateFileError(f"{what} must be a list")
    if len(value) != length:
        raise ShapeError(f"{what} has {len(value)} entries, expected {length}")
    return value


def tps_from_dict(data) -> TensorProductStructure:
    """A TPS block: d1, d2, at most one of a dense ``unitary`` and a ``reflector``, and
    an optional label ``map``; at least one of the three."""
    if not isinstance(data, dict):
        raise StateFileError("tps block must be an object")
    try:
        d1 = json_int(data["d1"], "tps d1")
        d2 = json_int(data["d2"], "tps d2")
    except KeyError as exc:
        raise StateFileError(f"tps block is missing key {exc}") from exc
    if "unitary" in data and "reflector" in data:
        raise StateFileError("tps block holds at most one of 'unitary' and 'reflector'")
    if not any(key in data for key in ("map", "unitary", "reflector")):
        raise StateFileError("tps block needs at least one of 'map', 'unitary' and 'reflector'")
    labels = {}
    for key in ("label_left", "label_right"):
        if key in data:
            if not (isinstance(data[key], list) and all(isinstance(x, str) for x in data[key])):
                raise StateFileError(f"tps {key} must be a list of strings")
            labels[key] = tuple(data[key])
    dim = _checked_dim(d1, d2, "tps dims")
    lengths = {"map": dim, "unitary": dim * dim, "reflector": dim}
    blocks = {key: _sized_list(data[key], n, f"tps {key}")
              for key, n in lengths.items() if key in data}
    parts = {}
    if "map" in blocks:
        targets = [json_int(t, "tps map entry", 0) for t in blocks["map"]]
        if max(targets) >= dim:  # checked here, as numpy cannot hold every JSON integer
            raise BijectionError(f"tps map label {max(targets)} outside the {d1}x{d2} grid")
        parts["relabeling"] = IndexBijection.from_targets(d1, d2, targets)
    if "unitary" in blocks:
        parts["unitary"] = pairs_to_complex(blocks["unitary"], "tps unitary").reshape(dim, dim)
    if "reflector" in blocks:
        parts["reflector"] = pairs_to_complex(blocks["reflector"], "tps reflector")
    try:
        return TensorProductStructure(d1, d2, **parts, **labels)
    except ContractError as exc:
        raise StateFileError(f"tps block: {exc}") from exc


@dataclass
class StateFile:
    """On-disk representation of a state: dims, amplitudes, optional TPS, metadata."""

    d1: int
    d2: int
    amplitudes: np.ndarray
    tps: TensorProductStructure | None = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "dims": [self.d1, self.d2],
            "amplitudes": complex_pairs(self.amplitudes),
            "metadata": {str(k): str(v) for k, v in self.metadata.items()},
        }
        if self.tps is not None:
            out["tps"] = tps_to_dict(self.tps)
        return out


def load_state_file(path: str) -> StateFile:
    """Parse and validate a state file; normalizes near-unit amplitudes with a warning.

    Raises:
        StateFileError: unreadable or malformed file (with line diagnostics).
        SizeLimitError: the declared dims exceed ``MAX_GLOBAL_DIM``.
        ShapeError: a list's length disagrees with the declared dims.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise StateFileError(f"{path}: top level must be an object")
    try:
        dims = data["dims"]
        amps = data["amplitudes"]
    except KeyError as exc:
        raise StateFileError(f"{path}: missing required key {exc}") from exc
    if not (isinstance(dims, list) and len(dims) == 2):
        raise StateFileError(f"{path}: dims must be a [d1, d2] pair")
    d1 = json_int(dims[0], f"{path}: dims[0]")
    d2 = json_int(dims[1], f"{path}: dims[1]")
    dim = _checked_dim(d1, d2, f"{path}: dims")
    amps = _sized_list(amps, dim, f"{path}: amplitudes")
    tps = tps_from_dict(data["tps"]) if "tps" in data and data["tps"] is not None else None
    if tps is not None and (tps.d1, tps.d2) != (d1, d2):
        raise ShapeError(
            f"{path}: tps dims ({tps.d1}, {tps.d2}) disagree with state dims ({d1}, {d2})"
        )
    amplitudes = pairs_to_complex(amps, f"{path}: amplitudes")
    n = float(np.linalg.norm(amplitudes))
    if n == 0.0:
        raise StateFileError(f"{path}: state has zero norm")
    if abs(n - 1.0) > 1e-8:
        raise StateFileError(f"{path}: state norm {n!r} deviates from 1 beyond 1e-8")
    # deviations at rounding scale are left untouched so write->read round-trips
    # reproduce the stored amplitudes bit-exactly
    if abs(n - 1.0) > 1e-12:
        warnings.warn(f"{path}: normalizing state with norm {n!r}", stacklevel=2)
        amplitudes = amplitudes / n
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise StateFileError(f"{path}: metadata must be an object")
    return StateFile(d1=d1, d2=d2, amplitudes=amplitudes, tps=tps, metadata=metadata)


def save_state_file(path: str, sf: StateFile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(sf.to_dict()))


def render_csv(header: list[str], rows) -> str:
    """Plain CSV text with deterministic float formatting; rows is any iterable of rows."""
    def cell(v) -> str:
        if isinstance(v, (float, np.floating)):
            return format_float(float(v))
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
