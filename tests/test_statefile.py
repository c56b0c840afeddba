"""State-file round-trips, canonical JSON, and parse diagnostics."""

import json

import numpy as np
import pytest

from tpslab.errors import ShapeError, StateFileError
from tpslab.sampling import haar_state, random_unitary
from tpslab.statefile import (
    StateFile,
    dump_json,
    format_float,
    load_state_file,
    render_csv,
    save_state_file,
    tps_from_dict,
    tps_to_dict,
)
from tpslab.tps import TensorProductStructure, relabel_tps, sum_diff_bijection, trivial_tps


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(0)
    values = list(rng.normal(size=200)) + [
        0.0, -0.0, 1e-300, -1e300, 1 / 3, np.pi, 2**-1074, 1 + 2**-52,
    ]
    for x in values:
        parsed = float(json.loads(format_float(float(x))))
        assert parsed == float(x)
        assert np.signbit(parsed) == np.signbit(float(x))


def test_dump_json_sorted_and_newline_terminated():
    text = dump_json({"b": 1, "a": [1.5, None, True]})
    assert text == '{"a": [1.5, null, true], "b": 1}\n'


def test_dump_json_rejects_unserializable():
    with pytest.raises(TypeError):
        dump_json({"x": object()})


def test_state_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    psi = haar_state(6, rng)
    path = tmp_path / "state.json"
    save_state_file(str(path), StateFile(2, 3, psi, metadata={"k": "v"}))
    loaded = load_state_file(str(path))
    assert np.array_equal(loaded.amplitudes, psi)
    assert (loaded.d1, loaded.d2) == (2, 3)
    assert loaded.metadata == {"k": "v"}
    # a second round trip is byte-identical
    path2 = tmp_path / "state2.json"
    save_state_file(str(path2), loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_state_file_with_tps_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    psi = haar_state(9, rng)
    tps = relabel_tps(sum_diff_bijection(3))
    path = tmp_path / "state.json"
    save_state_file(str(path), StateFile(3, 3, psi, tps=tps))
    loaded = load_state_file(str(path))
    assert loaded.tps is not None and loaded.tps.unitary is None
    assert np.array_equal(loaded.tps.relabeling.targets, tps.relabeling.targets)


def test_tps_dict_round_trip():
    tps = trivial_tps(2, 2)
    again = tps_from_dict(tps_to_dict(tps))
    assert again.unitary is None
    assert np.array_equal(again.relabeling.targets, np.arange(4))
    dense = TensorProductStructure(2, 2, np.eye(4, dtype=complex))
    assert np.array_equal(tps_from_dict(tps_to_dict(dense)).unitary, dense.unitary)


def test_load_normalizes_with_warning(tmp_path):
    psi = np.array([1.0, 0, 0, 1.0], dtype=complex) / np.sqrt(2)
    psi *= 1.0 + 5e-10  # within 1e-8, beyond the bit-exactness window
    path = tmp_path / "state.json"
    path.write_text(dump_json(StateFile(2, 2, psi).to_dict()))
    with pytest.warns(UserWarning, match="normalizing"):
        loaded = load_state_file(str(path))
    assert np.linalg.norm(loaded.amplitudes) == pytest.approx(1.0, abs=1e-14)


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


def test_render_csv_deterministic():
    text = render_csv(["a", "b"], [[1, 0.5], [2, 1.0 / 3.0]])
    assert text == "a,b\n1,0.5\n2,0.33333333333333331\n"


def test_tps_labels_survive_round_trip():
    from tpslab.spins import chi_basis

    tps, _ = chi_basis()
    assert tps.label_left == ("F=1", "F=0")
    assert tps.label_right == ("G=1", "G=0")
    again = tps_from_dict(tps_to_dict(tps))
    assert again.label_left == tps.label_left
    assert again.label_right == tps.label_right


@pytest.mark.parametrize("rotation", ["unitary", "reflector"])
def test_tps_with_a_rotation_and_a_map_round_trips(rotation, tmp_path):
    rng = np.random.default_rng(7)
    bij = sum_diff_bijection(3)
    r = random_unitary(9, rng) if rotation == "unitary" else 2.0 * haar_state(9, rng)
    tps = TensorProductStructure(3, 3, relabeling=bij, **{rotation: r})
    path = tmp_path / "state.json"
    save_state_file(str(path), StateFile(3, 3, haar_state(9, rng), tps=tps))
    assert sorted(json.loads(path.read_text())["tps"]) == ["d1", "d2", "map", rotation]
    loaded = load_state_file(str(path)).tps
    assert np.array_equal(getattr(loaded, rotation), r)
    assert np.array_equal(loaded.relabeling.targets, bij.targets)
    again = tmp_path / "again.json"
    save_state_file(str(again), load_state_file(str(path)))
    assert again.read_bytes() == path.read_bytes()
