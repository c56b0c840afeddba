"""Every file format of the toolkit: state, TPS, bijection and matrix files in,
JSON reports, CSV sweeps and state files out.

Output goes through the standard library's JSON encoder.  It writes each float
as ``float.__repr__`` does, the shortest decimal that reads back as the same
double, refuses NaN and infinities, and sorts object keys, so identical inputs
produce identical bytes and every write->read round trip is bit-exact.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BijectionError, ContractError, ShapeError, SizeLimitError, StateFileError
from .linalg import MAX_GLOBAL_DIM, check_hermitian
from .tps import IndexBijection, TensorProductStructure


def _plain(obj):
    """numpy arrays and scalars as the lists and Python numbers the encoder writes."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()  # a complex value comes back, and is refused on the second call
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False, default=_plain)
# a CSV row is a JSON array of numbers without its brackets
_CSV_ROW = json.JSONEncoder(allow_nan=False, separators=(",", ":"), default=_plain)


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, shortest round-tripping floats, newline-terminated.

    Raises:
        ValueError: obj holds a NaN or an infinity.
        TypeError: obj holds a value with no JSON form, such as a complex number.
    """
    return _JSON.encode(obj) + "\n"


def complex_pairs(values: np.ndarray) -> list[list[float]]:
    v = np.asarray(values, dtype=complex)
    return np.stack((v.real, v.imag), -1).tolist()


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


def read_json(path: str):
    """The JSON document in the file at path.

    Raises:
        StateFileError: the file cannot be read, is not JSON (with its line and column),
            or nests deeper than the decoder's recursion limit.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise StateFileError(f"{path}: JSON nested too deeply to read") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def tps_to_dict(tps: TensorProductStructure) -> dict:
    out = {"d1": tps.d1, "d2": tps.d2}
    if tps.relabeling is not None:
        out["map"] = tps.relabeling.targets.tolist()
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
        parts["relabeling"] = IndexBijection(d1, d2, targets)
    if "unitary" in blocks:
        parts["unitary"] = pairs_to_complex(blocks["unitary"], "tps unitary").reshape(dim, dim)
    if "reflector" in blocks:
        parts["reflector"] = pairs_to_complex(blocks["reflector"], "tps reflector")
    try:
        return TensorProductStructure(d1, d2, **parts, **labels)
    except ContractError as exc:
        raise StateFileError(f"tps block: {exc}") from exc


def load_bijection_file(path: str, d1: int, d2: int) -> IndexBijection:
    """A bijection file: a 'map' list of [i, j, a, b] entries, one for each source (i, j)."""
    data = read_json(path)
    entries = data.get("map") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise StateFileError(f"{path}: bijection file needs a 'map' list")
    targets = np.full(d1 * d2, -1)
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise StateFileError(f"{path}: map entries must be [i, j, a, b]")
        i, j, a, b = (json_int(x, f"{path}: map entry", 0) for x in entry)
        # checked here, as numpy cannot hold every JSON integer
        if not (i < d1 and j < d2):
            raise BijectionError(f"{path}: source ({i}, {j}) outside the {d1}x{d2} grid")
        if not (a < d1 and b < d2):
            raise BijectionError(f"{path}: image ({a}, {b}) outside the {d1}x{d2} grid")
        if targets[i * d2 + j] != -1:
            raise BijectionError(f"{path}: source ({i}, {j}) mapped twice")
        targets[i * d2 + j] = a * d2 + b
    if np.any(targets < 0):
        i, j = divmod(int(np.argmax(targets < 0)), d2)
        raise BijectionError(
            f"{path}: source ({i}, {j}) has no image; the map must cover the full grid"
        )
    return IndexBijection(d1, d2, targets)


def load_matrix_file(path: str, dim: int) -> np.ndarray:
    """A Hermitian observable from a file ``{"dim": n, "entries": [[re, im], ...]}``,
    the n*n entries in row-major order; n must be the required ``dim``.

    Raises:
        StateFileError: unreadable or malformed file, or a matrix that is not Hermitian.
        ShapeError: n is not ``dim``, or the entries are not n*n; checked before any entry is read.
    """
    data = read_json(path)
    if not (isinstance(data, dict) and "dim" in data and "entries" in data):
        raise StateFileError(f"{path}: matrix file needs 'dim' and 'entries'")
    n = json_int(data["dim"], f"{path}: dim")
    if n != dim:
        raise ShapeError(f"{path}: matrix dim {n} vs required dim {dim}")
    entries = _sized_list(data["entries"], dim * dim, f"{path}: matrix entries")
    flat = pairs_to_complex(entries, f"{path}: matrix entries")
    try:
        return check_hermitian(flat.reshape(dim, dim))
    except ContractError as exc:
        raise StateFileError(f"{path}: {exc}") from exc


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
            "metadata": self.metadata,
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
    data = read_json(path)
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
    try:
        dump_json(metadata)  # json.load reads NaN and Infinity, which no writer may emit
    except ValueError as exc:
        raise StateFileError(f"{path}: metadata holds a non-finite number") from exc
    return StateFile(d1=d1, d2=d2, amplitudes=amplitudes, tps=tps, metadata=metadata)


def save_state_file(path: str, sf: StateFile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(sf.to_dict()))


def render_csv(header: list[str], rows) -> str:
    """CSV text whose numeric cells read as in ``dump_json``; rows is any iterable of rows.

    Raises:
        ValueError: a cell is a NaN or an infinity.
    """
    lines = [",".join(header)]
    lines.extend(_CSV_ROW.encode(list(row))[1:-1] for row in rows)
    return "\n".join(lines) + "\n"
