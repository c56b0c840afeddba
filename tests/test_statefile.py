"""State-file round-trips, canonical JSON, and parse diagnostics."""

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpslab.errors import ShapeError, StateFileError
from tpslab.sampling import haar_state, random_unitary
from tpslab.statefile import (
    StateFile,
    dump_json,
    load_state_file,
    render_csv,
    tps_from_dict,
    tps_to_dict,
)
from tpslab.tps import (
    TensorProductStructure,
    random_bijection,
    relabel_tps,
    sum_diff_bijection,
    trivial_tps,
)

def write_state(path, sf: StateFile) -> None:
    """A state file as the CLI writes it: the canonical JSON of ``sf.to_dict()``."""
    Path(path).write_text(dump_json(sf.to_dict()), encoding="utf-8")


SETTINGS = settings(derandomize=True, deadline=None, max_examples=200, database=None)
MAX = sys.float_info.max

# every finite double (with -0.0, subnormals and +-max), and the numpy scalars
# that reach the writers, each paired with the plain value JSON must read back
FINITE = st.floats(allow_nan=False, allow_infinity=False)
PLAIN_BY_DTYPE = {
    np.float64: FINITE,
    np.float32: st.floats(width=32, allow_nan=False, allow_infinity=False),
    np.int64: st.integers(-2**63, 2**63 - 1),
    np.bool_: st.booleans(),
}
SCALARS = st.one_of(FINITE.map(lambda x: (x, x)), *(
    plain.map(lambda x, t=t: (t(x), x)) for t, plain in PLAIN_BY_DTYPE.items()))
ARRAYS = st.one_of(*(st.lists(plain, max_size=4).map(lambda xs, t=t: (np.array(xs, dtype=t), xs))
                     for t, plain in PLAIN_BY_DTYPE.items()))
VALUES = st.recursive(
    st.one_of(SCALARS, ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda items: ([v for v, _ in items], [p for _, p in items])),
        st.dictionaries(st.text(max_size=3), inner, max_size=3).map(
            lambda d: ({k: v for k, (v, _) in d.items()}, {k: p for k, (_, p) in d.items()})),
    ),
    max_leaves=8,
)


def same(x, y) -> bool:
    """Equal values of equal JSON types; floats bit-equal, so with equal signs."""
    if type(x) is not type(y):
        return False
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
    if isinstance(x, list):
        return len(x) == len(y) and all(map(same, x, y))
    if isinstance(x, float):
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    return x == y


@SETTINGS
@given(VALUES, st.lists(st.lists(SCALARS, min_size=1, max_size=4), max_size=4))
@example(([-0.0, 5e-324, -5e-324, MAX, -MAX, 1 / 3, 1 + 2**-52], [-0.0, 5e-324, -5e-324, MAX,
                                                                 -MAX, 1 / 3, 1 + 2**-52]), [])
def test_writers_round_trip_every_finite_double(value, rows):
    obj, plain = value
    assert same(json.loads(dump_json(obj)), plain)
    text = render_csv([f"c{k}" for k in range(4)], [[v for v, _ in row] for row in rows])
    cells = [[json.loads(cell) for cell in line.split(",")] for line in text.splitlines()[1:]]
    assert same(cells, [[p for _, p in row] for row in rows])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                 np.float32(math.inf), np.array([1.0, -math.inf])])
def test_writers_refuse_non_finite_numbers(bad):
    with pytest.raises(ValueError):
        dump_json({"x": [0.5, bad]})
    with pytest.raises(ValueError):
        render_csv(["a", "b"], [[0.5, bad]])


def test_dump_json_sorted_and_newline_terminated():
    text = dump_json({"b": 1, "a": [1.5, None, True]})
    assert text == '{"a": [1.5, null, true], "b": 1}\n'


def test_dump_json_rejects_unserializable():
    for bad in (object(), 1j, np.complex128(1j), np.array([0.5 + 1j])):
        with pytest.raises(TypeError):
            dump_json({"x": bad})


def test_state_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    psi = haar_state(6, rng)
    path = tmp_path / "state.json"
    write_state(path, StateFile(2, 3, psi, metadata={"k": "v"}))
    loaded = load_state_file(str(path))
    assert np.array_equal(loaded.amplitudes, psi)
    assert (loaded.d1, loaded.d2) == (2, 3)
    assert loaded.metadata == {"k": "v"}
    # a second round trip is byte-identical
    path2 = tmp_path / "state2.json"
    write_state(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_state_file_with_tps_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    psi = haar_state(9, rng)
    tps = relabel_tps(sum_diff_bijection(3))
    path = tmp_path / "state.json"
    write_state(path, StateFile(3, 3, psi, tps=tps))
    loaded = load_state_file(str(path))
    assert loaded.tps is not None and loaded.tps.unitary is None
    assert np.array_equal(loaded.tps.relabeling.targets, tps.relabeling.targets)


def test_tps_dict_round_trip():
    # the trivial TPS has no parts, so its block is the bare dims
    tps = trivial_tps(2, 2)
    assert tps_to_dict(tps) == {"d1": 2, "d2": 2}
    again = tps_from_dict(tps_to_dict(tps), (2, 2))
    assert again.unitary is None and again.relabeling is None and again.reflector is None
    dense = TensorProductStructure(2, 2, np.eye(4, dtype=complex))
    assert np.array_equal(tps_from_dict(tps_to_dict(dense), (2, 2)).unitary, dense.unitary)


def test_tps_from_dict_refuses_dims_other_than_the_states():
    with pytest.raises(ShapeError, match=r"tps dims \(2, 2\) disagree with state dims \(1, 4\)"):
        tps_from_dict(tps_to_dict(trivial_tps(2, 2)), (1, 4))


def test_load_normalizes_with_warning(tmp_path):
    # the correction is data on the loaded state, which cli.main prints as its warning
    psi = np.array([1.0, 0, 0, 1.0], dtype=complex) / np.sqrt(2)
    psi *= 1.0 + 5e-10  # within 1e-8, beyond the bit-exactness window
    path = tmp_path / "state.json"
    path.write_text(dump_json(StateFile(2, 2, psi).to_dict()))
    loaded = load_state_file(str(path))
    n = float(np.linalg.norm(psi))
    assert loaded.norm_correction == n
    assert np.array_equal(loaded.amplitudes, psi / n)
    assert np.linalg.norm(loaded.amplitudes) == pytest.approx(1.0, abs=1e-14)
    assert "norm_correction" not in loaded.to_dict()
    # within 1e-12 the stored amplitudes are kept, bit for bit
    psi = np.array([1.0, 0, 0, 1.0], dtype=complex) / np.sqrt(2) * (1.0 + 4e-13)
    path.write_text(dump_json(StateFile(2, 2, psi).to_dict()))
    loaded = load_state_file(str(path))
    assert loaded.norm_correction is None and np.array_equal(loaded.amplitudes, psi)


def test_load_rejects_bad_norm(tmp_path):
    psi = np.array([1.0, 1.0], dtype=complex)
    path = tmp_path / "state.json"
    path.write_text(dump_json({"dims": [1, 2], "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}))
    with pytest.raises(StateFileError, match="norm"):
        load_state_file(str(path))


def test_load_truncated_file_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dims": [2, 2],\n  "amplitudes": [[1.0, 0.0]')
    with pytest.raises(StateFileError, match="line 2"):
        load_state_file(str(path))


def test_load_rejects_amplitude_count_mismatch(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(dump_json({"dims": [2, 2], "amplitudes": [[1.0, 0.0]]}))
    with pytest.raises(ShapeError, match="amplitudes"):
        load_state_file(str(path))


def test_load_missing_key(tmp_path):
    path = tmp_path / "nokey.json"
    path.write_text('{"dims": [2, 2]}')
    with pytest.raises(StateFileError, match="missing"):
        load_state_file(str(path))


def per_row_csv(header, rows) -> str:
    """The CSV text with one encoder call per row: the oracle of render_csv's one call."""
    enc = json.JSONEncoder(allow_nan=False, separators=(",", ":"), default=lambda o: o.tolist())
    return "\n".join([",".join(header), *(enc.encode(list(row))[1:-1] for row in rows)]) + "\n"


@pytest.mark.parametrize("rows", [
    [],
    [[0]],
    [(k, np.float64(x), x) for k, x in enumerate([0.5, -0.0, 5e-324, -5e-324, 1e308, -MAX])],
    [[np.int64(-3), np.float64(1 / 3), 1 + 2**-52], [], [2, 1e-300, np.float64(-0.0)]],
    [np.array([1.5, -0.0, 5e-324]), np.array([1e308, 2.0, 3.0])],
], ids=["no-rows", "one-cell", "zip-like", "mixed", "arrays"])
def test_render_csv_matches_one_encoder_call_per_row(rows):
    header = ["sample", "a", "b"]
    text = render_csv(header, iter(rows))
    assert text == per_row_csv(header, rows)
    if not rows:
        assert text == "sample,a,b\n"
    with pytest.raises(ValueError):
        render_csv(header, [*rows, [0, 0.5, np.float64(math.nan)]])


def test_render_csv_deterministic():
    text = render_csv(["a", "b"], [[1, 0.5], [2, 1.0 / 3.0]])
    assert text == "a,b\n1,0.5\n2,0.3333333333333333\n"


@pytest.mark.parametrize("rotation", ["unitary", "reflector"])
def test_tps_with_a_rotation_and_a_map_round_trips(rotation, tmp_path):
    rng = np.random.default_rng(7)
    bij = sum_diff_bijection(3)
    r = random_unitary(9, rng) if rotation == "unitary" else 2.0 * haar_state(9, rng)
    tps = TensorProductStructure(3, 3, relabeling=bij, **{rotation: r})
    path = tmp_path / "state.json"
    write_state(path, StateFile(3, 3, haar_state(9, rng), tps=tps))
    assert sorted(json.loads(path.read_text())["tps"]) == ["d1", "d2", "map", rotation]
    loaded = load_state_file(str(path)).tps
    assert np.array_equal(getattr(loaded, rotation), r)
    assert np.array_equal(loaded.relabeling.targets, bij.targets)
    again = tmp_path / "again.json"
    write_state(again, load_state_file(str(path)))
    assert again.read_bytes() == path.read_bytes()


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([None, "unitary", "reflector"]),
       st.booleans(), st.floats(1e-150, 1e150), st.integers(0, 2**32 - 1))
def test_state_file_round_trip_is_bit_exact_for_every_tps_block(d1, d2, rotation, relabeled,
                                                                scale, seed):
    rng = np.random.default_rng(seed)
    dim = d1 * d2
    parts = {"relabeling": random_bijection(d1, d2, rng)} if relabeled or rotation is None else {}
    if rotation == "unitary":
        parts["unitary"] = random_unitary(dim, rng)
    elif rotation == "reflector":
        parts["reflector"] = scale * haar_state(dim, rng)  # any nonzero length
    sf = StateFile(d1, d2, haar_state(dim, rng), tps=TensorProductStructure(d1, d2, **parts))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        write_state(first, sf)
        loaded = load_state_file(str(first))
        write_state(second, loaded)
        assert second.read_bytes() == first.read_bytes()
    assert np.array_equal(loaded.amplitudes, sf.amplitudes)
    for name in ("unitary", "reflector"):
        wanted, got = getattr(sf.tps, name), getattr(loaded.tps, name)
        assert (got is None) if wanted is None else np.array_equal(got, wanted)
    if "relabeling" in parts:
        assert np.array_equal(loaded.tps.relabeling.targets, parts["relabeling"].targets)
    else:
        assert loaded.tps.relabeling is None
