"""CLI subcommands, exit codes, and report determinism."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from demo_oracle import even_blocks_per_sigma
from samplers import random_product_state, random_unitary

import tpslab.cli
import tpslab.statefile
from tpslab import grid as grid_module
from tpslab.cli import _parse, build_parser, main
from tpslab.errors import SizeLimitError, UnknownObservableError
from tpslab.grid import Grid, demo_sum_diff, double_gaussian_profile, gaussian_profile
from tpslab.qcf import qcf_local
from tpslab.sampling import haar_state
from tpslab.spins import PAULI_Z
from tpslab.statefile import (
    StateFile,
    dump_json,
    load_state_file,
    tps_from_dict,
    tps_to_dict,
)
from tpslab.tps import (
    TensorProductStructure,
    coefficient_matrix,
    random_bijection,
    sum_diff_bijection,
    tps_with_spectrum,
    trivial_tps,
)

SQ2 = np.sqrt(2.0)


def write_state(path, sf: StateFile) -> None:
    """A state file as ``refactor`` writes it: the canonical JSON of ``sf.to_dict()``."""
    Path(path).write_text(dump_json(sf.to_dict()), encoding="utf-8")


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    psi = np.array([1, 0, 0, 1], dtype=complex) / SQ2
    write_state(path, StateFile(2, 2, psi))
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    path = tmp_path / "product.json"
    psi = random_product_state(3, 3, np.random.default_rng(12))
    write_state(path, StateFile(3, 3, psi))
    return str(path)


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def test_schmidt_bell_report(bell_file, tmp_path):
    code, out = run(["schmidt", bell_file], tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["rank"] == 2
    assert report["factorizable"] is False
    np.testing.assert_allclose(report["coefficients"], [0.70710678, 0.70710678], atol=1e-8)


def test_schmidt_product_factorizable(product_file, tmp_path):
    code, out = run(["schmidt", product_file], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["factorizable"] is True


def test_schmidt_truncated_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [2, 2],\n"amplitudes": [[1.0')
    assert main(["schmidt", str(bad)]) == 2


@pytest.mark.parametrize("which", ["state", "tps", "bijection", "matrix"])
def test_json_file_that_is_not_utf8_exits_2(which, bell_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"dims": [2, 2]}')
    out = tmp_path / "o.json"
    argv = {"state": ["schmidt", str(bad)],
            "tps": ["schmidt", bell_file, "--tps", str(bad)],
            "bijection": ["refactor", bell_file, "--bijection", str(bad), "--out", str(out)],
            "matrix": ["qcf", bell_file, "--obs-a", str(bad), "--obs-b", "pauli-z", "--local"]}
    assert main(argv[which]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {str(bad)!r}: ") and err.count("\n") == 1


def test_schmidt_dimension_mismatch_exits_3(tmp_path):
    short = tmp_path / "short.json"
    short.write_text(dump_json({"dims": [2, 2], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
    assert main(["schmidt", str(short)]) == 3


def test_qcf_local_zz_witnesses(bell_file, tmp_path):
    code, out = run(
        ["qcf", bell_file, "--obs-a", "pauli-z", "--obs-b", "pauli-z", "--local"], tmp_path
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "entangled-witnessed"
    assert report["value"][0] == pytest.approx(1.0, abs=1e-10)


def test_qcf_local_zx_inconclusive(bell_file, tmp_path):
    code, out = run(
        ["qcf", bell_file, "--obs-a", "pauli-z", "--obs-b", "pauli-x", "--local"], tmp_path
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "inconclusive"
    assert abs(complex(*report["value"])) <= report["witness_threshold"]


def test_qcf_global_custom_matrix(bell_file, tmp_path):
    mat = tmp_path / "zz.json"
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    mat.write_text(
        dump_json({"dim": 4, "entries": [[float(x.real), float(x.imag)] for x in zz.astype(complex).ravel()]})
    )
    code, out = run(["qcf", bell_file, "--obs-a", str(mat), "--obs-b", str(mat)], tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "not-applicable"
    assert report["value"][0] == pytest.approx(0.0, abs=1e-10)  # <ZZ^2> - <ZZ>^2 = 1 - 1


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 4, "entries": [["a", 0]] + [[0.0, 0.0]] * 15},
        {"dim": "4", "entries": [[0.0, 0.0]] * 16},
        {"dim": 4, "entries": [["1", 0]] + [[0.0, 0.0]] * 15},
        {"dim": 4, "entries": [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 14},
        {"dim": 4, "entries": [[True, 0]] + [[0.0, 0.0]] * 15},
    ],
    ids=["string-entry", "string-dim", "numeric-string-entry", "not-hermitian", "bool-entry"],
)
def test_qcf_malformed_matrix_file_exits_2(doc, bell_file, tmp_path, capsys):
    mat = tmp_path / "bad.json"
    mat.write_text(json.dumps(doc))
    assert main(["qcf", bell_file, "--obs-a", str(mat), "--obs-b", str(mat)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_qcf_unknown_observable_exits_4(bell_file, tmp_path):
    code = main(["qcf", bell_file, "--obs-a", "pauli-q", "--obs-b", "pauli-z"])
    assert code == 4


def test_demo_coords_defaults(tmp_path):
    code, out = run(["demo", "coords"], tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    pair = report["gaussian_pair"]
    assert pair["rank_xy"] == 1
    assert pair["qcf_ab"] == pytest.approx(-3.0, abs=3e-3)
    assert abs(report["equal_sigma"]["qcf_ab"]) <= 1e-8
    assert report["double_gaussian"]["rank_ab"] >= 2
    assert pair["warnings"] == []


def test_demo_coords_even_grid_exits_5(tmp_path):
    assert main(["demo", "coords", "--d", "128"]) == 5


@pytest.mark.parametrize(
    "widths",
    [["--sigma2", "1e300"], ["--sigma1", "1e-300", "--sigma2", "1e-300"]],
    ids=["square-overflows", "square-underflows"],
)
def test_demo_coords_extreme_widths_exit_5(widths, capsys):
    assert main(["demo", "coords", *widths]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("which", ["spins", "bell"])
def test_demo_samples_above_the_cap_exit_3_before_any_draw(which, monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew states for a refused sample count")

    monkeypatch.setattr("tpslab.spins.haar_state", no_draw)
    monkeypatch.setattr("tpslab.bell.random_entangled_state", no_draw)
    assert main(["demo", which, "--samples", "1048577"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_demo_spins_report(tmp_path):
    code, out = run(["demo", "spins", "--samples", "300", "--seed", "9"], tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["closed_form_residual_max"] <= 1e-12
    assert report["fraction_nonzero"] >= 0.99
    assert report["chi_tps_rank_examples"] == [1, 1, 1, 1]
    assert report["sampled_rank2_fraction"] >= 0.99


def test_demo_spins_csv_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["demo", "spins", "--samples", "50", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample,residual,qcf_value"
    assert len(lines) == 51


def test_demo_coords_csv_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["demo", "coords", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "param,rank_ab,qcf_ab,variance_diff"
    assert len(lines) == 12
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(2.0)
    assert float(last[2]) == pytest.approx(-3.0, abs=3e-3)


def test_demo_coords_csv_rows_equal_single_pair_calls(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["demo", "coords", "--d", "33", "--sigma1", "0.7", "--sigma2", "2.3", "--format", "csv"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    grid = Grid.spanning(33, 8.0 * 2.3)
    widths = np.linspace(0.7, 2.3, 11)
    assert len(rows) == widths.size
    for row, s2 in zip(rows, widths):
        rep = demo_sum_diff([gaussian_profile(grid, 0.0, 0.7)],
                            [gaussian_profile(grid, 0.0, float(s2))])[0]
        assert [float(row[0]), int(row[1]), float(row[2]), float(row[3])] == [
            s2, rep.rank_ab, rep.qcf_ab, rep.variance_diff]


@pytest.mark.parametrize("caller", ["library", "json", "csv"])
def test_demo_coords_takes_two_half_size_eigensolves(caller, monkeypatch, tmp_path):
    calls = []

    def counting(name):
        solver = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls.append((name, np.shape(args[0])))
            return solver(*args, **kwargs)
        return call

    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    if caller == "library":
        # an off-centre g has no reflection parity: one SVD of the relabeled stack
        grid = Grid.spanning(33, 8.0)
        fs = [gaussian_profile(grid, 0.0, s) for s in (0.8, 1.0, 1.3)]
        gs = [gaussian_profile(grid, 0.2, s) for s in (1.1, 0.9, 1.6)]
        assert len(demo_sum_diff(fs, gs)) == 3
        assert calls == [("svd", (3, 33, 33))]
    else:
        # centred Gaussians are even and real: each parity block, (d+1)/2 and (d-1)/2
        # square, is symmetric and takes one eigensolve; no SVD runs
        out = tmp_path / f"out.{caller}"
        assert main(["demo", "coords", "--d", "33", "--format", caller, "--out", str(out)]) == 0
        n = 11 if caller == "csv" else 3
        assert calls == [("eigvalsh", (n, 17, 17)), ("eigvalsh", (n, 16, 16))]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_demo_coords_bytes_equal_the_per_sigma_block_route(fmt, monkeypatch, capsys):
    argv = ["demo", "coords", "--d", "65", "--sigma1", "0.8", "--sigma2", "2.1", "--sep", "3",
            "--format", fmt]
    assert main(argv) == 0
    change = capsys.readouterr()
    monkeypatch.setattr(grid_module, "_even_block_values", even_blocks_per_sigma)
    assert main(argv) == 0
    oracle = capsys.readouterr()
    assert change.out and (change.out, change.err) == (oracle.out, oracle.err)


def test_demo_coords_json_sections_equal_single_pair_calls(tmp_path):
    argv = ["demo", "coords", "--d", "33", "--sigma1", "0.7", "--sigma2", "2.3", "--sep", "3"]
    code, out = run(argv, tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    wide, tight, lobes = (Grid.spanning(33, hw) for hw in (8.0 * 2.3, 8.0 * 0.7, 3.0 + 8.0 * 0.7))
    pairs = {
        "gaussian_pair": (gaussian_profile(wide, 0.0, 0.7), gaussian_profile(wide, 0.0, 2.3)),
        "equal_sigma": (gaussian_profile(tight, 0.0, 0.7), gaussian_profile(tight, 0.0, 0.7)),
        "double_gaussian": (double_gaussian_profile(lobes, 3.0, 0.7),
                            gaussian_profile(lobes, 0.0, 0.7)),
    }
    for name, (f, g) in pairs.items():
        rep = demo_sum_diff([f], [g])[0]
        assert report[name] == {**vars(rep), "warnings": list(rep.warnings)}


@pytest.mark.parametrize("sigma", ["1e-160", "1e-154"])
def test_demo_coords_tiny_widths_run_silently(sigma, tmp_path, capsys):
    # the Gaussian exponents overflow to -inf off the center; exp gives the exact 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(["demo", "coords", "--sigma1", sigma, "--sigma2", sigma], tmp_path)
    assert code == 0
    assert capsys.readouterr().err == ""


def test_demo_coords_pair_grid_above_the_cap_exits_3_before_any_profile(monkeypatch, capsys):
    def no_profile(*args, **kwargs):
        raise AssertionError("sampled a profile for a refused grid size")

    monkeypatch.setattr("tpslab.cli.gaussian_profile", no_profile)
    monkeypatch.setattr("tpslab.cli.double_gaussian_profile", no_profile)
    for fmt in ("json", "csv"):
        assert main(["demo", "coords", "--d", "1025", "--format", fmt]) == 3  # 1025^2 > 2^20
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def square_state_file(tmp_path, d, tps=None):
    path = tmp_path / f"state-{d}.json"
    psi = random_product_state(d, d, np.random.default_rng(d))
    write_state(path, StateFile(d, d, psi))
    if tps is not None:
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "tps": tps}))
    return str(path)


@pytest.mark.parametrize("where", ["state", "tps-file"])
@pytest.mark.parametrize("d, code", [(33, 3), (32, 2)])
def test_dense_unitary_block_above_the_cap_exits_3_before_any_entry(where, d, code, tmp_path,
                                                                   capsys):
    # D = 1089 gives D^2 > 2^20 from the declared dims alone; at D = 1024 the
    # unreadable block is parsed and refused as malformed (exit 2)
    tps = {"d1": d, "d2": d, "unitary": "never read"}
    if where == "state":
        argv = ["schmidt", square_state_file(tmp_path, d, tps)]
    else:
        tps_path = tmp_path / "tps.json"
        tps_path.write_text(json.dumps(tps))
        argv = ["schmidt", square_state_file(tmp_path, d), "--tps", str(tps_path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("exceed the configured maximum" in err) == (code == 3)


@pytest.mark.parametrize("d, code", [(33, 3), (32, 4)])
def test_global_qcf_above_the_dense_cap_exits_3_before_any_observable(d, code, monkeypatch,
                                                                     tmp_path, capsys):
    state = square_state_file(tmp_path, d)
    assert run(["qcf", state, "--obs-a", "position", "--obs-b", "position", "--local"],
               tmp_path)[0] == 0
    resolved = []

    def unknown(spec, dim):
        resolved.append(dim)
        raise UnknownObservableError(f"stub for {spec}")

    monkeypatch.setattr("tpslab.cli.resolve_observable", unknown)
    assert main(["qcf", state, "--obs-a", "position", "--obs-b", "position"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # D = 1024 still reaches the observables (here a stub that exits 4)
    assert resolved == ([] if code == 3 else [d * d])


@pytest.mark.parametrize(
    "argv",
    [
        ["schmidt", "{over_state}"],
        ["schmidt", "{huge_state}"],
        ["schmidt", "{state}", "--tps", "{over_tps}"],
        ["schmidt", "{state}", "--tps", "{dense_tps}"],
        ["qcf", "{state}", "--obs-a", "position", "--obs-b", "position"],
        ["qcf", "{wide_state}", "--obs-a", "position", "--obs-b", "position", "--local"],
        ["demo", "coords", "--d", "1025"],
        ["demo", "coords", "--d", "1" + "0" * 399 + "1"],
        ["demo", "spins", "--samples", "1048577"],
        ["demo", "bell", "--samples", "1048577"],
    ],
    ids=["state-dims", "state-dims-past-str", "tps-dims", "dense-unitary", "global-qcf",
         "local-qcf-observable", "coords-grid", "coords-grid-past-float", "spins-samples", "bell-samples"],
)
def test_every_size_gate_exits_3_with_the_shared_message(argv, tmp_path, capsys):
    # state and TPS dims above 2^20, a dense 33x33 unitary and a global qcf at
    # D = 1089 (D^2 > 2^20), a dense position observable on a factor of 1025,
    # a 1025x1025 pair grid and 2^20 + 1 samples; two
    # 3000-digit dims multiply to more digits than str() writes, and a
    # 401-digit grid size is refused before it is converted to a float
    docs = {"over_state": {"dims": [2048, 1024], "amplitudes": []},
            "huge_state": {"dims": [int("1" * 3000)] * 2, "amplitudes": []},
            "over_tps": {"d1": 2048, "d2": 1024, "map": []},
            "dense_tps": {"d1": 33, "d2": 33, "unitary": "never read"},
            "wide_state": {"dims": [1, 1025], "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 1024}}
    paths = {"state": square_state_file(tmp_path, 33)}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert main([a.format(**paths) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "entries exceed the configured maximum 1048576" in err


def test_demo_bell_small_sample(tmp_path):
    code, out = run(["demo", "bell", "--samples", "10", "--seed", "3"], tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["bell_state_value"] == pytest.approx(2 * SQ2, abs=1e-6)
    assert report["max_oracle_residual"] <= 1e-4
    assert report["min_value"] > 2.0 + 1e-3
    assert report["fraction_violating"] == 1.0


@pytest.mark.parametrize("seed", [1721069095, 1366289310])
def test_demo_bell_settings_reach_closed_form(seed, tmp_path):
    # seeds at which an iterative settings search stalled about 1e-4 below the maximum
    code, out = run(["demo", "bell", "--samples", "16", "--seed", str(seed)], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["max_oracle_residual"] <= 1e-12


def test_chsh_subcommand(bell_file, tmp_path):
    code, out = run(["chsh", bell_file], tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["value"] == pytest.approx(2 * SQ2, abs=1e-6)
    assert report["closed_form"] == pytest.approx(2 * SQ2, abs=1e-12)


def test_chsh_wrong_dims_exits_3(product_file):
    assert main(["chsh", product_file]) == 3


@pytest.mark.parametrize("state, spectrum, wanted", [
    (np.array([1, 0, 0, 1]) / SQ2, "product", 2.0),
    (np.array([1, 1, 1, 1]) / 2.0, "maximal", 2.0 * SQ2),
], ids=["bell-as-product", "product-as-bell"])
def test_chsh_reads_the_state_files_tps(state, spectrum, wanted, tmp_path):
    # the same amplitudes give the CHSH maximum of their Schmidt spectrum in the file's TPS
    src, refactored = tmp_path / "state.json", tmp_path / "refactored.json"
    write_state(src, StateFile(2, 2, state.astype(complex)))
    assert main(["refactor", str(src), "--spectrum", spectrum, "--out", str(refactored)]) == 0
    code, out = run(["chsh", str(refactored)], tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["closed_form"] == pytest.approx(wanted, abs=1e-12)
    assert report["value"] == pytest.approx(wanted, abs=1e-9)


def test_chsh_takes_one_svd(bell_file, monkeypatch, tmp_path):
    # the settings and the closed form come from one SVD of the correlation matrix
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert run(["chsh", bell_file], tmp_path)[0] == 0
    assert calls == [(3, 3)]


@pytest.mark.parametrize("defect, code", [(4.4e-10, 0), (1e-9, 2)])
@pytest.mark.parametrize(
    "command",
    [["schmidt"], ["qcf", "--local", "--obs-a", "pauli-z", "--obs-b", "pauli-x"]],
    ids=["schmidt", "qcf-local"],
)
def test_a_unitary_within_its_tolerance_passes_the_norm_check(defect, code, command, tmp_path,
                                                              capsys):
    # U = (1 + e) I has max|U^dagger U - I| = 2e + e^2: accepted at load for
    # e = 4.4e-10, so its coefficients' norm 1 + e must pass too; e = 1e-9 is refused
    s = 1.0 + defect
    unitary = [[s if i == j else 0.0, 0.0] for i in range(4) for j in range(4)]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dims": [2, 2], "amplitudes": [[0.5, 0.0]] * 4,
                                "tps": {"d1": 2, "d2": 2, "unitary": unitary}}))
    argv = [command[0], str(path), *command[1:]]
    assert run(argv, tmp_path)[0] == code
    err = capsys.readouterr().err
    assert (err == "") if code == 0 else ("not unitary: max defect 2.000e-09" in err)


def test_refactor_sumdiff_entangles_product(product_file, tmp_path):
    refactored = tmp_path / "refactored.json"
    assert main(["refactor", product_file, "--bijection", "sumdiff", "--out", str(refactored)]) == 0
    out = tmp_path / "schmidt.json"
    assert main(["schmidt", str(refactored), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rank"] >= 2
    # amplitudes pass through untouched
    original = json.loads(Path(product_file).read_text())
    rewritten = json.loads(refactored.read_text())
    assert rewritten["amplitudes"] == original["amplitudes"]


def test_refactor_swap_twice_restores_tps(product_file, tmp_path):
    once = tmp_path / "once.json"
    twice = tmp_path / "twice.json"
    assert main(["refactor", product_file, "--bijection", "swap", "--out", str(once)]) == 0
    assert main(["refactor", str(once), "--bijection", "swap", "--out", str(twice)]) == 0
    tps = json.loads(twice.read_text())["tps"]
    assert "unitary" not in tps
    assert tps["map"] == list(range(9))


def test_refactor_identity_tps_block_stable(product_file, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["refactor", product_file, "--bijection", "identity", "--out", str(first)]) == 0
    assert main(["refactor", str(first), "--bijection", "identity", "--out", str(second)]) == 0
    a = json.loads(first.read_text())["tps"]
    b = json.loads(second.read_text())["tps"]
    assert dump_json(a) == dump_json(b)


@pytest.mark.parametrize("part", [None, "relabeling", "reflector", "unitary"])
def test_refactor_identity_writes_the_input_tps(part, tmp_path, monkeypatch, capsys):
    # the written block is the input's TPS, the trivial one for a file without a block,
    # and schmidt reads the output as it reads the input
    rng = np.random.default_rng(5)
    psi = haar_state(12, rng)
    parts = {None: {}, "relabeling": {"relabeling": random_bijection(3, 4, rng)},
             "reflector": {"reflector": tps_with_spectrum(psi, (0.5, 0.5), trivial_tps(3, 4)
                                                          ).reflector},
             "unitary": {"unitary": random_unitary(12, rng)}}[part]
    tps = TensorProductStructure(3, 4, **parts)
    (tmp_path / "in").mkdir()
    (tmp_path / "out").mkdir()
    write_state(tmp_path / "in" / "state.json", StateFile(3, 4, psi, tps=tps if parts else None))
    assert main(["refactor", str(tmp_path / "in" / "state.json"), "--bijection", "identity",
                 "--out", str(tmp_path / "out" / "state.json")]) == 0
    written = json.loads((tmp_path / "out" / "state.json").read_text())["tps"]
    assert dump_json(written) == dump_json(tps_to_dict(tps))
    reports = []
    for where in ("in", "out"):
        monkeypatch.chdir(tmp_path / where)
        assert main(["schmidt", "state.json"]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]


def test_refactor_keeps_metadata_values(tmp_path):
    state = tmp_path / "state.json"
    metadata = {"k": [1, 2], "n": 3, "s": "v", "z": None}
    psi = random_product_state(2, 2, np.random.default_rng(0))
    write_state(state, StateFile(2, 2, psi, metadata=metadata))
    out = tmp_path / "out.json"
    assert main(["refactor", str(state), "--bijection", "identity", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["metadata"] == metadata


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "[1, -Infinity]"])
def test_refactor_refuses_non_finite_metadata(bad, tmp_path, capsys):
    state = tmp_path / "state.json"
    psi = random_product_state(2, 2, np.random.default_rng(0))
    write_state(state, StateFile(2, 2, psi, metadata={"x": 0}))
    state.write_text(state.read_text().replace('"x": 0', f'"x": {bad}'))
    out = tmp_path / "out.json"
    assert main(["refactor", str(state), "--bijection", "identity", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_refactor_bijection_file_with_repeats_exits_6(tmp_path):
    state = tmp_path / "state.json"
    psi = random_product_state(2, 2, np.random.default_rng(0))
    write_state(state, StateFile(2, 2, psi))
    bij = tmp_path / "bij.json"
    bij.write_text(
        dump_json({"map": [[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]})
    )
    assert main(["refactor", str(state), "--bijection", str(bij), "--out", str(tmp_path / "o.json")]) == 6


def test_refactor_bijection_file_roundtrip(tmp_path):
    state = tmp_path / "state.json"
    psi = random_product_state(2, 2, np.random.default_rng(0))
    write_state(state, StateFile(2, 2, psi))
    bij = tmp_path / "bij.json"
    bij.write_text(
        dump_json({"map": [[0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0]]})
    )
    out = tmp_path / "o.json"
    assert main(["refactor", str(state), "--bijection", str(bij), "--out", str(out)]) == 0


def test_reports_are_byte_identical_across_reruns(bell_file, tmp_path):
    for args, name in [
        (["schmidt", bell_file], "s"),
        (["demo", "spins", "--samples", "40", "--seed", "11"], "d"),
        (["demo", "bell", "--samples", "3", "--seed", "2"], "b"),
        (["chsh", bell_file], "c"),
    ]:
        out1 = tmp_path / f"{name}1.json"
        out2 = tmp_path / f"{name}2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_schmidt_with_tps_override_file(product_file, tmp_path):
    from tpslab.statefile import tps_to_dict

    tps = TensorProductStructure(3, 3, relabeling=sum_diff_bijection(3))
    tps_file = tmp_path / "tps.json"
    tps_file.write_text(dump_json(tps_to_dict(tps)))
    code, out = run(["schmidt", product_file, "--tps", str(tps_file)], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["rank"] >= 2


def test_schmidt_tps_override_wrong_dims_exits_3(bell_file, tmp_path):
    from tpslab.statefile import tps_to_dict
    from tpslab.tps import trivial_tps

    tps_file = tmp_path / "tps.json"
    tps_file.write_text(dump_json(tps_to_dict(trivial_tps(3, 3))))
    assert main(["schmidt", bell_file, "--tps", str(tps_file)]) == 3


def test_qcf_global_position_observables(tmp_path):
    state = tmp_path / "nine.json"
    psi = random_product_state(3, 3, np.random.default_rng(5))
    write_state(state, StateFile(3, 3, psi))
    code, out = run(["qcf", str(state), "--obs-a", "position", "--obs-b", "position"], tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "not-applicable"
    assert report["value"][1] == pytest.approx(0.0, abs=1e-12)


def test_qcf_global_accepts_a_large_multiple_of_the_identity(tmp_path, capsys):
    # the imaginary rounding of <1e8 I> reaches 1e-8, inside the tolerance scaled by |A|
    mat = tmp_path / "big.json"
    big = 1e8 * np.eye(4)
    mat.write_text(dump_json({"dim": 4, "entries": [[float(x), 0.0] for x in big.ravel()]}))
    rng = np.random.default_rng(90)
    for n in range(6):
        state = tmp_path / f"haar{n}.json"
        write_state(state, StateFile(2, 2, haar_state(4, rng)))
        code, out = run(["qcf", str(state), "--obs-a", str(mat), "--obs-b", str(mat)], tmp_path)
        assert code == 0, capsys.readouterr().err
        assert json.loads(out.read_text())["witness_threshold"] == 4e-12 * 1e8 * 1e8


def test_qcf_global_accepts_an_observable_within_the_hermitian_tolerance(tmp_path, capsys):
    # a 9e-10 i defect passes check_hermitian; its Hermitian part is what qcf reads
    mat = tmp_path / "near.json"
    entries = [[0.0, 0.0]] * 16
    entries[1] = [0.0, 9e-10]
    mat.write_text(dump_json({"dim": 4, "entries": entries}))
    state = tmp_path / "uniform.json"
    write_state(state, StateFile(2, 2, np.full(4, 0.5, dtype=complex)))
    code, _ = run(["qcf", str(state), "--obs-a", str(mat), "--obs-b", str(mat)], tmp_path)
    assert code == 0, capsys.readouterr().err


def test_qcf_local_accepts_a_rounded_observable_of_norm_1e8(tmp_path, capsys):
    # V diag(1e8, -1e8) V^dagger leaves a defect of 4.2e-9, inside the tolerance scaled by
    # |A|inf; an absolute 1e-9 exited 2 with "observable is not Hermitian"
    v = random_unitary(2, np.random.default_rng(2))
    a = (v * np.array([1e8, -1e8])) @ v.conj().T
    assert np.max(np.abs(a - a.conj().T)) > 1e-9
    mat = tmp_path / "rotated.json"
    mat.write_text(dump_json({"dim": 2, "entries": [[x.real, x.imag] for x in a.ravel()]}))
    psi = haar_state(4, np.random.default_rng(3))
    state = tmp_path / "haar.json"
    write_state(state, StateFile(2, 2, psi))
    code, out = run(["qcf", str(state), "--obs-a", str(mat), "--obs-b", "pauli-z", "--local"],
                    tmp_path)
    assert code == 0, capsys.readouterr().err
    value = qcf_local(a, PAULI_Z, psi, trivial_tps(2, 2)).value
    assert json.loads(out.read_text())["value"] == [value.real, value.imag]


def test_qcf_pauli_name_at_wrong_dim_exits_3(product_file):
    assert main(["qcf", product_file, "--obs-a", "pauli-z", "--obs-b", "pauli-z"]) == 3


def test_qcf_local_tol_overrides_witness_threshold(bell_file, tmp_path):
    code, out = run(
        ["qcf", bell_file, "--obs-a", "pauli-z", "--obs-b", "pauli-z", "--local",
         "--tol", "2.0"],
        tmp_path,
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["witness_threshold"] == 2.0
    assert report["verdict"] == "inconclusive"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1", "2"])
def test_non_finite_tol_rejected_at_parse(bell_file, tol, capsys):
    # a rank cut of 1 or more counts no coefficient, so a product state would read rank 0
    with pytest.raises(SystemExit) as exc:
        main(["schmidt", bell_file, "--tol", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--tol: must be a number in [0, 1), got {tol}" in err


@pytest.mark.parametrize("sep", ["-4", "-20", "nan", "inf"])
def test_negative_or_non_finite_sep_rejected_at_parse(sep, capsys):
    # the double-Gaussian grid spans sep + 8 sigma1 on each side: a negative sep shrank
    # it around lobes that sit at +-|sep|, and -20, nan and inf failed the grid check
    with pytest.raises(SystemExit) as exc:
        main(["demo", "coords", "--d", "33", f"--sep={sep}"])
    assert exc.value.code == 2
    assert f"--sep: must be a finite non-negative number, got {sep}" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["spins", "bell"])
def test_negative_seed_rejected_at_parse(which, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", which, "--samples", "2", "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err


IDENTITY_16 = [[1.0 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]
HALF = [[0.5, 0.0]] * 4


@pytest.mark.parametrize(
    "doc",
    [
        {"dims": ["a", 2], "amplitudes": HALF},
        {"dims": [2, 2], "amplitudes": HALF, "tps": {"d1": "x", "d2": 2, "unitary": IDENTITY_16}},
        {"dims": [2.5, 2], "amplitudes": HALF},
    ],
    ids=["string-dim", "string-tps-dim", "float-dim"],
)
def test_non_integer_dims_exit_2(doc, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(doc))
    assert main(["schmidt", str(state)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_refactor_sumdiff_even_square_exits_5(tmp_path):
    state = tmp_path / "even.json"
    psi = random_product_state(2, 2, np.random.default_rng(1))
    write_state(state, StateFile(2, 2, psi))
    assert main(["refactor", str(state), "--bijection", "sumdiff",
                 "--out", str(tmp_path / "o.json")]) == 5


def test_refactor_swap_non_square_exits_6(tmp_path):
    state = tmp_path / "rect.json"
    psi = random_product_state(2, 3, np.random.default_rng(1))
    write_state(state, StateFile(2, 3, psi))
    assert main(["refactor", str(state), "--bijection", "swap",
                 "--out", str(tmp_path / "o.json")]) == 6


def test_refactor_requires_out(bell_file, capsys):
    with pytest.raises(SystemExit):
        main(["refactor", bell_file, "--bijection", "swap"])


NOT_UNITARY_16 = [[1.0, 0.0]] * 16


@pytest.mark.parametrize(
    "tps",
    [
        [1, 2],
        "tps",
        {"d1": 2, "d2": 2, "unitary": IDENTITY_16, "reflector": HALF},
        {"d1": 2, "d2": 2, "map": 5},
        {"d1": 2, "d2": 2, "map": [0, 1, 2.0, 3]},
        {"d1": 2, "d2": 2, "map": [0, 1, True, 3]},
        {"d1": 2, "d2": 2, "map": [0, 1, "2", 3]},
        {"d1": 2, "d2": 2, "map": [0, 1, -2, 3]},
        {"d1": 2, "d2": 2, "unitary": NOT_UNITARY_16},
        {"d1": 2, "d2": 2, "unitary": [[float("nan"), 0.0]] + IDENTITY_16[1:]},
        {"d1": 2, "d2": 2, "unitary": [["1", 0.0]] + IDENTITY_16[1:]},
        {"d1": 2, "d2": 2, "unitary": [[True, 0.0]] + IDENTITY_16[1:]},
        {"d1": 2, "d2": 2, "reflector": [[0.0, 0.0]] * 4},
        {"d1": 2, "d2": 2, "reflector": [[True, 0.0]] + HALF[1:]},
        {"d1": 2, "d2": 2, "reflector": 5},
    ],
    ids=[
        "list-block",
        "string-block",
        "unitary-and-reflector",
        "int-map",
        "float-map-entry",
        "bool-map-entry",
        "string-map-entry",
        "negative-map-entry",
        "non-unitary",
        "nan-unitary-entry",
        "numeric-string-unitary-entry",
        "bool-unitary-entry",
        "zero-reflector",
        "bool-reflector-entry",
        "int-reflector",
    ],
)
def test_malformed_tps_block_exits_2(tps, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dims": [2, 2], "amplitudes": HALF, "tps": tps}))
    assert main(["schmidt", str(state)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["schmidt"],
        ["chsh"],
        ["qcf", "--obs-a", "pauli-x", "--obs-b", "pauli-z", "--local"],
        ["refactor", "--bijection", "swap"],
        ["refactor", "--spectrum", "maximal"],
    ],
    ids=["schmidt", "chsh", "qcf-local", "refactor-swap", "refactor-maximal"],
)
def test_a_bare_tps_block_reads_as_no_block(argv, tmp_path, monkeypatch, capsys):
    # {"d1", "d2"} is the trivial TPS; both files are read as state.json in their own
    # folder, so even the path echoed in the manifest is the same
    psi = haar_state(4, np.random.default_rng(31))
    runs = []
    for name, block in (("plain", {}), ("bare", {"tps": {"d1": 2, "d2": 2}})):
        folder = tmp_path / name
        folder.mkdir()
        (folder / "state.json").write_text(dump_json({**StateFile(2, 2, psi).to_dict(), **block}))
        monkeypatch.chdir(folder)
        code = main([argv[0], "state.json", *argv[1:], "--out", "out.json"])
        runs.append((code, capsys.readouterr(), (folder / "out.json").read_bytes()))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def test_a_bare_tps_file_overrides_a_map_block_with_the_trivial_tps(tmp_path, capsys):
    # a product state read through the sum/difference map is entangled; --tps with a bare
    # block reads it as stored, as its twin without a block is read
    psi = random_product_state(3, 3, np.random.default_rng(32))
    mapped, plain, bare = tmp_path / "mapped.json", tmp_path / "plain.json", tmp_path / "bare.json"
    write_state(mapped, StateFile(3, 3, psi, tps=TensorProductStructure(
        3, 3, relabeling=sum_diff_bijection(3))))
    write_state(plain, StateFile(3, 3, psi))
    bare.write_text(dump_json({"d1": 3, "d2": 3}))
    reports = []
    for argv in ([str(mapped)], [str(mapped), "--tps", str(bare)], [str(plain)]):
        code, out = run(["schmidt", *argv], tmp_path)
        assert code == 0, capsys.readouterr().err
        reports.append(json.loads(out.read_text()))
        del reports[-1]["manifest"]
    assert reports[0]["rank"] > 1
    assert reports[1] == reports[2] and reports[2]["rank"] == 1


@pytest.mark.parametrize(
    "tps,code",
    [
        ({"d1": 2, "d2": 2, "map": [0, 1, 1, 3]}, 6),
        ({"d1": 2, "d2": 2, "map": [0, 1, 2, 4]}, 6),
        ({"d1": 2, "d2": 2, "map": [0, 1, 2]}, 3),
        ({"d1": 2, "d2": 2, "map": [0, 1, 2, 10**29]}, 6),
    ],
    ids=["repeated-label", "label-off-grid", "short-map", "huge-label"],
)
def test_tps_map_that_is_not_a_bijection_exits_with_its_code(tps, code, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dims": [2, 2], "amplitudes": HALF, "tps": tps}))
    assert main(["schmidt", str(state)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("block", [{"map": [0, 2, 1, 3]}, {"unitary": IDENTITY_16},
                                   {"reflector": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}],
                         ids=["map", "unitary", "reflector"])
@pytest.mark.parametrize(
    "labels",
    [
        {"label_left": ["F=1", "F=0"], "label_right": ["G=1", "G=0"]},
        {"label_left": 5},
        {"label_right": [0, 1]},
        {"label_left": ["a"]},
        {"label_right": ["a", "b", "c"]},
    ],
    ids=["string-labels", "int-label", "non-string-labels", "wrong-length-label_left",
         "wrong-length-label_right"],
)
def test_tps_labels_of_older_files_are_ignored(block, labels, tmp_path, capsys):
    # files written before the factor labels were dropped still load, labels unread
    psi = haar_state(4, np.random.default_rng(3))
    state = tmp_path / "state.json"
    reports = []
    for tps in ({"d1": 2, "d2": 2, **block}, {"d1": 2, "d2": 2, **block, **labels}):
        doc = {"dims": [2, 2], "amplitudes": [[z.real, z.imag] for z in psi], "tps": tps}
        state.write_text(json.dumps(doc))
        assert main(["schmidt", str(state)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


VALID_MAP_2x2 = [[0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0]]


UNKNOWN_KEY_RUNS = [("schmidt", "state-file"), ("chsh", "state-file"), ("schmidt", "tps-block"),
                    ("chsh", "tps-block"), ("schmidt", "tps-file"), ("qcf", "tps-file"),
                    ("qcf", "matrix-file"), ("refactor", "bijection-file")]
MAP_BLOCK = {"d1": 2, "d2": 2, "map": [0, 2, 1, 3]}
REFLECTER = ("reflecter", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
# the misspelled key, and what it holds, of each input object
TYPOS = {"state-file": ("tsp", MAP_BLOCK), "tps-block": REFLECTER, "tps-file": REFLECTER,
         "matrix-file": ("extra", 1), "bijection-file": ("mapp", 3)}


@pytest.mark.parametrize("command,where", UNKNOWN_KEY_RUNS,
                         ids=[f"{command}-{where}" for command, where in UNKNOWN_KEY_RUNS])
def test_an_unknown_key_exits_2_naming_it(command, where, tmp_path, capsys):
    # a misspelled key used to drop what it held: the run read the trivial TPS,
    # or the map without its rotation, and exited 0
    key, value = TYPOS[where]
    state, tps = tmp_path / "state.json", tmp_path / "tps.json"
    matrix, bij = tmp_path / "matrix.json", tmp_path / "bij.json"
    argv = [command, str(state)]
    if command == "qcf":
        obs = str(matrix) if where == "matrix-file" else "pauli-z"
        argv += ["--obs-a", obs, "--obs-b", "pauli-z", "--local"]
    if where == "tps-file":
        argv += ["--tps", str(tps)]
    if command == "refactor":
        argv += ["--bijection", str(bij), "--out", str(tmp_path / "out.json")]
    for extra, code in (({}, 0), ({key: value}, 2)):
        doc = {"dims": [2, 2], "amplitudes": HALF, **(extra if where == "state-file" else {})}
        if where == "tps-block":
            doc["tps"] = {**MAP_BLOCK, **extra}
        state.write_text(json.dumps(doc))
        tps.write_text(json.dumps({**MAP_BLOCK, **(extra if where == "tps-file" else {})}))
        matrix.write_text(json.dumps({"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                                            [-1.0, 0.0]],
                                      **(extra if where == "matrix-file" else {})}))
        bij.write_text(json.dumps({"map": VALID_MAP_2x2,
                                   **(extra if where == "bijection-file" else {})}))
        capsys.readouterr()
        assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(key) in captured.err


@pytest.mark.parametrize(
    "amplitude",
    [float("nan"), float("inf"), "0.5"],
    ids=["nan-amplitude", "inf-amplitude", "numeric-string-amplitude"],
)
def test_non_finite_amplitude_exits_2(amplitude, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dims": [2, 2], "amplitudes": [[amplitude, 0.0]] + HALF[1:]}))
    assert main(["schmidt", str(state)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("pair", [[True, 0], [1.0, False]], ids=["bool-real", "bool-imag"])
def test_boolean_amplitude_exits_2(pair, tmp_path, capsys):
    # a unit-norm state once booleans are read as 0 and 1
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dims": [2, 2], "amplitudes": [pair] + [[0.0, 0.0]] * 3}))
    assert main(["schmidt", str(state)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"map": 5},
        {"map": [[0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0.9, 1.2]]},
        {"map": [["0", 0, 1, 1]] + VALID_MAP_2x2[1:]},
        {"map": [[0, 0, True, 1]] + VALID_MAP_2x2[1:]},
        {"map": [[0, 0, 1]] + VALID_MAP_2x2[1:]},
        {"map": [5] + VALID_MAP_2x2[1:]},
        [VALID_MAP_2x2],
    ],
    ids=["int-map", "float-entry", "string-entry", "bool-entry", "short-entry",
         "int-entry", "list-file"],
)
def test_malformed_bijection_file_exits_2(doc, tmp_path, capsys):
    state = tmp_path / "state.json"
    write_state(state, StateFile(2, 2, random_product_state(2, 2, np.random.default_rng(0))))
    bij = tmp_path / "bij.json"
    bij.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    assert main(["refactor", str(state), "--bijection", str(bij), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "image", [[2, 0], [0, 10**29], [10**29, 1]], ids=["off-grid", "huge-b", "huge-a"]
)
def test_bijection_file_image_off_the_grid_exits_6(image, tmp_path, capsys):
    state = tmp_path / "state.json"
    write_state(state, StateFile(2, 2, random_product_state(2, 2, np.random.default_rng(0))))
    bij = tmp_path / "bij.json"
    bij.write_text(json.dumps({"map": [[0, 0, *image]] + VALID_MAP_2x2[1:]}))
    out = tmp_path / "o.json"
    assert main(["refactor", str(state), "--bijection", str(bij), "--out", str(out)]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_old_dense_permutation_block_reports_like_the_map(tmp_path, monkeypatch, capsys):
    # a dense permutation block, written entry by entry as the dense refactor
    # wrote it, and the map that refactor writes now give the same report
    from tps_oracle import permutation_matrix

    from tpslab.statefile import complex_pairs
    from tpslab.tps import sum_diff_bijection

    psi = random_product_state(5, 5, np.random.default_rng(3))
    dense_doc = StateFile(5, 5, psi).to_dict()
    dense_doc["tps"] = {
        "d1": 5, "d2": 5, "unitary": complex_pairs(permutation_matrix(sum_diff_bijection(5)).ravel())
    }
    reports = []
    for name in ("dense", "map"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        if name == "dense":
            (tmp_path / name / "state.json").write_text(dump_json(dense_doc))
        else:
            write_state("plain.json", StateFile(5, 5, psi))
            assert main(["refactor", "plain.json", "--bijection", "sumdiff",
                         "--out", "state.json"]) == 0
            tps = json.loads((tmp_path / name / "state.json").read_text())["tps"]
            assert sorted(tps) == ["d1", "d2", "map"]
        assert main(["schmidt", "state.json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["rank"] >= 2


def test_refactor_beyond_the_old_dense_limit(tmp_path):
    # D = 65 * 65 = 4225 was refused when refactor wrote dense blocks
    d = 65
    psi = random_product_state(d, d, np.random.default_rng(65))
    state = tmp_path / "big.json"
    write_state(state, StateFile(d, d, psi))
    refactored = tmp_path / "big-sumdiff.json"
    assert main(["refactor", str(state), "--bijection", "sumdiff", "--out", str(refactored)]) == 0
    tps = json.loads(refactored.read_text())["tps"]
    assert len(tps["map"]) == d * d and all(type(t) is int for t in tps["map"])
    i, j = np.divmod(np.arange(d * d), d)
    scattered = np.zeros((d, d), dtype=complex)
    scattered[(i + j) % d, (i - j) % d] = psi
    code, out = run(["schmidt", str(refactored)], tmp_path)
    assert code == 0
    coefficients = np.array(json.loads(out.read_text())["coefficients"])
    np.testing.assert_allclose(
        coefficients, np.linalg.svd(scattered, compute_uv=False), rtol=0, atol=1e-12
    )


def test_schmidt_reads_a_dense_unitary_followed_by_a_map(tmp_path):
    # a block with both keys is the rotation U followed by the relabeling
    from tps_oracle import permutation_matrix

    from tpslab.statefile import complex_pairs

    rng = np.random.default_rng(31)
    psi, u, bij = haar_state(9, rng), random_unitary(9, rng), sum_diff_bijection(3)
    doc = StateFile(3, 3, psi).to_dict()
    doc["tps"] = {"d1": 3, "d2": 3, "unitary": complex_pairs(u.ravel()),
                  "map": bij.targets.tolist()}
    state = tmp_path / "state.json"
    state.write_text(dump_json(doc))
    code, out = run(["schmidt", str(state)], tmp_path)
    assert code == 0
    wanted = np.linalg.svd(((u @ permutation_matrix(bij)).conj().T @ psi).reshape(3, 3),
                           compute_uv=False)
    np.testing.assert_allclose(json.loads(out.read_text())["coefficients"], wanted,
                               rtol=0, atol=1e-12)


OVER = {"d1": 2048, "d2": 1024}  # 2^21 > MAX_GLOBAL_DIM
TWO = {"d1": 2, "d2": 2}


def no_parse(pairs, what):
    raise AssertionError(f"{what} was parsed")


@pytest.mark.parametrize(
    "doc",
    [
        {"dims": [2048, 1024], "amplitudes": HALF},
        {"dims": [2, 2], "amplitudes": HALF, "tps": {**OVER, "unitary": IDENTITY_16}},
        {"dims": [2, 2], "amplitudes": HALF, "tps": {**OVER, "reflector": HALF}},
        {"dims": [2, 2], "amplitudes": HALF, "tps": {**OVER, "map": [0, 1, 2, 3]}},
        {"dims": [2, 2], "amplitudes": HALF[:3]},
        {"dims": [2, 2], "amplitudes": HALF, "tps": {**TWO, "unitary": IDENTITY_16[:15]}},
        {"dims": [2, 2], "amplitudes": HALF, "tps": {**TWO, "reflector": HALF[:3]}},
        {"dims": [2, 2], "amplitudes": HALF, "tps": {**TWO, "map": [0, 1, 2, 3, 0]}},
        {"dim": 4, "entries": IDENTITY_16},
        {"dim": 2, "entries": HALF[:3]},
        {"dim": 2, "entries": HALF + HALF[:1]},
    ],
    ids=["state-over-size", "unitary-over-size", "reflector-over-size", "map-over-size",
         "short-amplitudes", "short-unitary", "short-reflector", "long-map",
         "matrix-wrong-dim", "short-matrix", "long-matrix"],
)
def test_sizes_are_checked_from_the_declared_dims_before_any_entry_is_read(
    doc, bell_file, tmp_path, monkeypatch, capsys
):
    def no_map_entry(value, what, low=1):
        if what == "tps map entry":
            raise AssertionError("a map entry was parsed")
        return int(value)

    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    if "entries" in doc:  # a matrix file, read after the state it acts on
        argv = ["qcf", bell_file, "--obs-a", str(path), "--obs-b", "pauli-z", "--local"]
        parse = tpslab.statefile.pairs_to_complex
        monkeypatch.setattr("tpslab.statefile.pairs_to_complex", lambda pairs, what: (
            no_parse if what.endswith("matrix entries") else parse)(pairs, what))
    else:
        argv = ["schmidt", str(path)]
        monkeypatch.setattr("tpslab.statefile.pairs_to_complex", no_parse)
    monkeypatch.setattr("tpslab.statefile.json_int", no_map_entry)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tps_from_dict_refuses_over_size_dims_before_any_entry_is_read(monkeypatch):
    # the route of a --tps override file
    monkeypatch.setattr("tpslab.statefile.pairs_to_complex", no_parse)
    with pytest.raises(SizeLimitError):
        tps_from_dict({**OVER, "unitary": IDENTITY_16}, (2, 2))


@pytest.mark.parametrize("spectrum", ["product", "maximal"])
@pytest.mark.parametrize("d1,d2", [(3, 3), (3, 4)])
def test_refactor_spectrum_sets_the_schmidt_coefficients(spectrum, d1, d2, tmp_path):
    rng = np.random.default_rng(d1 * d2)
    state = tmp_path / "state.json"
    base = TensorProductStructure(d1, d2, relabeling=random_bijection(d1, d2, rng))
    write_state(state, StateFile(d1, d2, haar_state(d1 * d2, rng), tps=base))
    out = tmp_path / "spectrum.json"
    assert main(["refactor", str(state), "--spectrum", spectrum, "--out", str(out)]) == 0
    assert sorted(json.loads(out.read_text())["tps"]) == ["d1", "d2", "reflector"]
    code, report = run(["schmidt", str(out)], tmp_path, "report.json")
    assert code == 0
    rep = json.loads(report.read_text())
    n = 1 if spectrum == "product" else min(d1, d2)
    wanted = [1.0 / np.sqrt(n)] * n + [0.0] * (min(d1, d2) - n)
    assert rep["rank"] == n and rep["factorizable"] == (n == 1)
    np.testing.assert_allclose(rep["coefficients"], wanted, rtol=0, atol=1e-12)


@pytest.mark.parametrize("flags", [["--bijection", "swap", "--spectrum", "product"], []],
                         ids=["both", "neither"])
def test_refactor_needs_exactly_one_of_bijection_and_spectrum(flags, bell_file, tmp_path):
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        main(["refactor", bell_file, *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("rotation", ["unitary", "reflector"])
@pytest.mark.parametrize("relabeled", [False, True], ids=["no-map", "map"])
def test_refactor_keeps_the_rotation_and_composes_the_maps(rotation, relabeled, tmp_path):
    from tps_oracle import dense_unitary, permutation_matrix

    rng = np.random.default_rng(41)
    psi = haar_state(12, rng)
    parts = {"unitary": random_unitary(12, rng)} if rotation == "unitary" else {
        "reflector": tps_with_spectrum(psi, (0.5, 0.3, 0.2), trivial_tps(3, 4)).reflector}
    if relabeled:
        parts["relabeling"] = random_bijection(3, 4, rng)
    base = TensorProductStructure(3, 4, **parts)
    state = tmp_path / "state.json"
    write_state(state, StateFile(3, 4, psi, tps=base))
    bij = random_bijection(3, 4, rng)
    bij_file = tmp_path / "bij.json"
    bij_file.write_text(json.dumps({"map": [[*divmod(g, 4), *divmod(int(t), 4)]
                                            for g, t in enumerate(bij.targets)]}))
    out = tmp_path / "out.json"
    assert main(["refactor", str(state), "--bijection", str(bij_file), "--out", str(out)]) == 0
    tps = load_state_file(str(out)).tps
    assert np.array_equal(getattr(tps, rotation), getattr(base, rotation))
    dense = dense_unitary(base) @ permutation_matrix(bij)
    np.testing.assert_allclose(coefficient_matrix(psi, tps), (dense.conj().T @ psi).reshape(3, 4),
                               rtol=0, atol=1e-12)


def test_refactor_checks_a_dense_rotation_once(tmp_path, monkeypatch):
    # the base's unitary is checked when the state file loads; relabeling it
    # keeps the checked matrix instead of building a new TPS from it
    import tpslab.tps

    calls = []
    check = tpslab.tps._check_unitary

    def counted(u, *args):
        calls.append(u.shape)
        return check(u, *args)

    rng = np.random.default_rng(7)
    dense = tmp_path / "dense.json"
    base = TensorProductStructure(3, 3, random_unitary(9, rng))
    write_state(dense, StateFile(3, 3, haar_state(9, rng), tps=base))
    monkeypatch.setattr(tpslab.tps, "_check_unitary", counted)
    out = tmp_path / "swapped.json"
    assert main(["refactor", str(dense), "--bijection", "swap", "--out", str(out)]) == 0
    assert calls == [(9, 9)]
    assert sorted(json.loads(out.read_text())["tps"]) == ["d1", "d2", "map", "unitary"]


def test_demo_coords_wide_equal_widths_pass_the_variance_identity(tmp_path):
    # the identity's rounding scales with Var1 + Var2 (here about 2e10)
    code, out = run(["demo", "coords", "--d", "33", "--sigma1", "1e5", "--sigma2", "1e5"], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["equal_sigma"]["rank_xy"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["schmidt", "{deep}"],
        ["schmidt", "{state}", "--tps", "{deep}"],
        ["qcf", "{state}", "--obs-a", "{deep}", "--obs-b", "pauli-z"],
        ["refactor", "{state}", "--bijection", "{deep}", "--out", "{out}"],
    ],
    ids=["state", "tps", "matrix", "bijection"],
)
def test_deeply_nested_json_exits_2(argv, bell_file, tmp_path, capsys):
    # the decoder recurses once per nesting level and gives up at the recursion limit,
    # and refuses an integer literal of more than 4300 digits with a ValueError
    deep, out = tmp_path / "deep.json", tmp_path / "out.json"
    for text, message in (("[" * 100_000 + "]" * 100_000, "nested too deeply"),
                          ('{"dims": [' + "1" * 5000 + ', 1]}', "unreadable JSON number")):
        deep.write_text(text)
        assert main([a.format(deep=deep, state=bell_file, out=out) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()


def test_qcf_tol_without_local_exits_2(bell_file, capsys):
    # the global route reports the default threshold, so a --tol there would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["qcf", bell_file, "--obs-a", "position", "--obs-b", "position", "--tol", "2.0"])
    assert exc.value.code == 2
    assert "--tol sets the witness threshold of --local" in capsys.readouterr().err


@pytest.mark.parametrize("labels", [[0, 2, 1, 3], [0, 1, 1, 3]], ids=["swap", "repeated-label"])
def test_qcf_tps_without_local_exits_2(labels, bell_file, tmp_path, capsys):
    # the global route reads no TPS: a valid --tps changed nothing, a bad one exited 6
    tps = tmp_path / "tps.json"
    tps.write_text(json.dumps({"d1": 2, "d2": 2, "map": labels}))
    with pytest.raises(SystemExit) as exc:
        main(["qcf", bell_file, "--obs-a", "position", "--obs-b", "position", "--tps", str(tps)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tps its TPS" in captured.err


@pytest.mark.parametrize("argv", [["schmidt"],
                                  ["qcf", "--obs-a", "position", "--obs-b", "position", "--local"]],
                         ids=["schmidt", "qcf-local"])
def test_an_empty_tps_path_exits_2(argv, bell_file, tmp_path, capsys):
    # an empty --tps names no file: it is refused, not read as no override
    out = tmp_path / "out.json"
    assert main([argv[0], bell_file, *argv[1:], "--tps", "", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: cannot read '': No such file or directory\n"


@pytest.fixture
def denorm_file(tmp_path):
    """The Bell state at norm 1 + 1e-9: corrected on load, beyond the bit-exact window."""
    path = tmp_path / "denorm.json"
    psi = np.array([1, 0, 0, 1], dtype=complex) / SQ2 * (1 + 1e-9)
    write_state(path, StateFile(2, 2, psi))
    return str(path)


def norm_notice(path: str) -> str:
    """The notice of a state file: its norm as stored, before the correction."""
    psi = np.array([complex(*pair) for pair in json.loads(Path(path).read_text())["amplitudes"]])
    return f"warning: {path}: normalizing state with norm {float(np.linalg.norm(psi))!r}\n"


# every subcommand that reads a state file, with --out where it writes one
NOTICE_ARGV = {
    "schmidt": ["schmidt"],
    "chsh": ["chsh"],
    "qcf-local": ["qcf", "--obs-a", "pauli-z", "--obs-b", "pauli-z", "--local"],
    "qcf-global": ["qcf", "--obs-a", "position", "--obs-b", "position"],
    "refactor-spectrum": ["refactor", "--spectrum", "product", "--out", "{out}"],
    "refactor-bijection": ["refactor", "--bijection", "swap", "--out", "{out}"],
}


@pytest.mark.parametrize("argv", NOTICE_ARGV.values(), ids=NOTICE_ARGV)
def test_a_norm_correction_prints_one_warning_line_on_every_run(argv, denorm_file, tmp_path,
                                                               capsys):
    # a Python warning printed the installed source path and line, and once per process only
    out = tmp_path / "out.json"
    argv = [argv[0], denorm_file, *(a.format(out=out) for a in argv[1:])]
    for _ in range(2):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == norm_notice(denorm_file) and ".py:" not in captured.err
        assert json.loads(captured.out or out.read_text())  # the report or the state file


@pytest.mark.parametrize("argv,message", [
    (["schmidt", "{state}", "--tps", "{missing}"], "error: cannot read {missing!r}: "),
    (["qcf", "{state}", "--obs-a", "nope", "--obs-b", "pauli-z", "--local"],
     "error: unknown observable 'nope': "),
], ids=["tps-missing", "qcf-unknown-observable"])
def test_a_failing_run_prints_its_error_line_alone(argv, message, denorm_file, tmp_path, capsys):
    # the state was read and corrected, but a run that fails reports its error alone
    names = {"state": denorm_file, "missing": str(tmp_path / "missing.json")}
    code = main([a.format(**names) for a in argv])
    captured = capsys.readouterr()
    assert code in (2, 4) and captured.out == ""
    assert captured.err.startswith(message.format(**names)) and captured.err.count("\n") == 1


def test_an_unwritable_out_prints_the_notice_then_the_error(denorm_file, tmp_path, capsys):
    # the report was computed, so its notice comes before the failed write's error
    out = tmp_path / "missing" / "out.json"
    assert main(["schmidt", denorm_file, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    notice, error = captured.err.splitlines(keepends=True)
    assert captured.out == "" and notice == norm_notice(denorm_file)
    assert error.startswith(f"error: cannot write {str(out)!r}: ")


SIXTH = [[1 / np.sqrt(6), 0.0]] * 6


@pytest.mark.parametrize(
    "doc,argv,code,message",
    [
        ({"dims": [2, 3], "amplitudes": SIXTH}, ["refactor", "--bijection", "sumdiff"], 6,
         "sumdiff needs a square grid, got 2x3"),
        ({"dims": [4], "amplitudes": HALF}, ["schmidt"], 2,
         "{state}: dims must be a [d1, d2] pair"),
        ({"dims": 4, "amplitudes": HALF}, ["schmidt"], 2,
         "{state}: dims must be a [d1, d2] pair"),
        ({"dims": [2, 2], "amplitudes": HALF, "metadata": [1]}, ["schmidt"], 2,
         "{state}: metadata must be an object"),
        ({"dims": [2, 2], "amplitudes": HALF, "metadata": None}, ["schmidt"], 2,
         "{state}: metadata must be an object"),
        # a null block was read as no TPS
        ({"dims": [2, 2], "amplitudes": HALF, "tps": None}, ["schmidt"], 2,
         "tps block must be a JSON object"),
    ],
    ids=["sumdiff-non-square", "one-dim", "int-dims", "list-metadata", "null-metadata",
         "null-tps"],
)
def test_refused_state_inputs_exit_with_one_error_line(doc, argv, code, message, tmp_path,
                                                       capsys):
    state, out = tmp_path / "state.json", tmp_path / "out.json"
    state.write_text(json.dumps(doc))
    assert main([argv[0], str(state), *argv[1:], "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {message.format(state=state)}\n"


def flags_by_command(parser, path=""):
    """{"demo coords": {"--d", ...}, ...}: the options each leaf subcommand accepts."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}}
    return {k: v for name, sub in subs[0].choices.items()
            for k, v in flags_by_command(sub, f"{path} {name}".lstrip()).items()}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    flags = flags_by_command(build_parser())
    sampling = {"--out", "--samples", "--seed", "--format"}
    assert flags == {
        "schmidt": {"--out", "--tps", "--tol"},
        "qcf": {"--out", "--obs-a", "--obs-b", "--local", "--tps", "--tol"},
        "demo coords": {"--out", "--d", "--sigma1", "--sigma2", "--sep", "--format"},
        "demo spins": sampling,
        "demo bell": sampling,
        "refactor": {"--out", "--bijection", "--spectrum"},
        "chsh": {"--out"},
    }
    assert sum(map(len, flags.values())) == 27


VALID_ARGV = {
    "schmidt": ["schmidt", "{state}"],
    "qcf": ["qcf", "{state}", "--obs-a", "pauli-z", "--obs-b", "pauli-z", "--local"],
    "demo coords": ["demo", "coords", "--d", "9"],
    "demo spins": ["demo", "spins", "--samples", "2"],
    "demo bell": ["demo", "bell", "--samples", "2"],
    "refactor": ["refactor", "{state}", "--bijection", "swap"],
    "chsh": ["chsh", "{state}"],
}
# every subcommand but refactor, whose required --out receives a state file
REPORT_ARGV = {command: argv for command, argv in VALID_ARGV.items() if command != "refactor"}


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", VALID_ARGV)
def test_an_unwritable_out_exits_2_with_one_error_line(command, target, bell_file, tmp_path,
                                                       capsys):
    # main's one write, of a report or of refactor's state file, used to raise a traceback
    out = tmp_path / "missing" / "out.json" if target == "missing-dir" else tmp_path / "taken"
    if target == "directory":
        out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main([a.format(state=bell_file) for a in VALID_ARGV[command]] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {str(out)!r}: ")
    assert captured.err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_writes_to_stdout_by_default(bell_file, tmp_path, capsys):
    # main alone writes a report: the bytes --out receives go to stdout without it
    flags = flags_by_command(build_parser())
    out = tmp_path / "out"
    for command, argv in REPORT_ARGV.items():
        formats = [["--format", "json"], ["--format", "csv"]] if "--format" in flags[command] else [[]]
        for fmt in formats:
            full = [a.format(state=bell_file) for a in argv] + fmt
            assert main(full) == 0
            printed = capsys.readouterr().out
            assert main(full + ["--out", str(out)]) == 0
            assert capsys.readouterr().out == ""
            assert out.read_text(encoding="utf-8") == printed != ""


@pytest.mark.parametrize("command", REPORT_ARGV)
def test_the_manifest_parameters_are_the_declared_flags(command, bell_file, tmp_path):
    # every flag but --out and --format, with the state file or the demo's name
    declared = {flag[2:].replace("-", "_") for flag in flags_by_command(build_parser())[command]}
    declared = declared - {"out", "format"} | {"which" if command.startswith("demo") else "state"}
    code, out = run([a.format(state=bell_file) for a in REPORT_ARGV[command]], tmp_path)
    assert code == 0
    assert set(json.loads(out.read_text())["manifest"]["parameters"]) == declared


UNREAD_BY_SAMPLING = ("--d 9", "--sigma1 1", "--sigma2 1", "--sep 1", "--tol 1", "--timestamp x")
UNREAD_FLAGS = {
    "schmidt": ("--format csv", "--seed 7", "--timestamp x"),
    "qcf": ("--format csv", "--seed 7", "--timestamp x"),
    "demo coords": ("--samples 2", "--tol 1", "--seed 1", "--timestamp x"),
    "demo spins": UNREAD_BY_SAMPLING,
    "demo bell": UNREAD_BY_SAMPLING,
    "refactor": ("--format csv", "--tol 1", "--seed 7", "--timestamp x"),
    "chsh": ("--format csv", "--tol 5", "--seed 7", "--timestamp x"),
}


@pytest.mark.parametrize(
    "command,flag",
    [(command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags],
)
def test_a_flag_the_subcommand_does_not_read_exits_2(command, flag, bell_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = [a.format(state=bell_file) for a in VALID_ARGV[command]] + ["--out", str(out)]
    assert main(argv) == 0
    out.unlink()
    with pytest.raises(SystemExit) as exc:
        main(argv + flag.split())
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,recorded",
    [
        (["schmidt", "{state}"], {"tol": 1e-10}),
        (["schmidt", "{state}", "--tol", "0.5"], {"tol": 0.5}),
        (["qcf", "{state}", "--obs-a", "pauli-z", "--obs-b", "pauli-z", "--local", "--tol", "2.0"],
         {"tol": 2.0}),
        (["qcf", "{state}", "--obs-a", "position", "--obs-b", "position"], {"tol": None}),
        (["demo", "coords", "--d", "9"], {"which": "coords", "d": 9}),
        (["demo", "spins", "--samples", "3"], {"which": "spins", "seed": 42}),
        (["demo", "bell", "--samples", "3", "--seed", "8"], {"which": "bell", "seed": 8}),
        (["chsh", "{state}"], {}),
    ],
)
def test_the_manifest_records_what_the_run_read(argv, recorded, bell_file, tmp_path):
    code, out = run([a.format(state=bell_file) for a in argv], tmp_path)
    assert code == 0
    manifest = json.loads(out.read_text())["manifest"]
    assert sorted(manifest) == ["parameters", "subcommand", "version"]
    assert manifest["subcommand"] == argv[0]
    assert recorded.items() <= manifest["parameters"].items()


def parse_outcome(parse, argv, capsys):
    """(exit code, vars of the namespace or None, stdout, stderr) of one parse."""
    try:
        code, parsed = 0, vars(parse(argv))
    except SystemExit as exc:
        code, parsed = exc.code, None
    return (code, parsed, *capsys.readouterr())


def _corpus():
    valid = [[a.format(state="state.json") for a in argv] for argv in VALID_ARGV.values()]
    unread = [argv + flag.split() for command, argv in zip(VALID_ARGV, valid)
              for flag in UNREAD_FLAGS[command]]
    helps = [["-h"]] + [[command, "-h"] for command in ("schmidt", "qcf", "demo", "refactor",
                                                         "chsh")]
    helps += [["demo", which, "-h"] for which in ("coords", "spins", "bell")]
    odd = [["--version"], [], ["demo"], ["sch"], ["demo", "bel"], ["coords"], ["bell"],
           ["schmidt", "chsh"], ["chsh", "demo"], ["schmidt", "demo", "--tol", "0.5"],
           ["demo", "bell", "--out", "spins"], ["--bogus", "chsh", "s.json"], ["demo bell"]]
    # a leaf's own errors, words it leaves over, "--" on either side of the name, abbreviations
    odd += [argv.split() for argv in (
        "chsh", "chsh a b", "chsh s.json --out", "chsh s.json --version", "chsh -- s.json",
        "-- chsh s.json", "demo bell --samples 0", "demo bell --format jsn",
        "demo bell -h --bogus", "refactor s.json",
        "refactor s.json --bijection swap --spectrum product --out o", "schmidt s.json --tol 1",
        "schmidt s.json --to 0.5", "demo coords --d 9 --sigma 1",
        "qcf s --obs-a x --obs-b y --tol 1")]
    return valid + unread + helps + odd


@pytest.mark.parametrize("argv", _corpus(), ids=" ".join)
def test_the_route_parses_argv_as_the_full_parser_does(argv, capsys):
    # exit code, namespace, stdout and stderr, -h text and usage errors included
    assert parse_outcome(_parse, argv, capsys) == parse_outcome(build_parser().parse_args, argv,
                                                                capsys)


@pytest.mark.parametrize("command", VALID_ARGV)
def test_a_valid_leaf_argv_is_parsed_without_the_full_parser(command, monkeypatch):
    argv = [a.format(state="s.json") for a in VALID_ARGV[command]] + ["--out", "o"]
    full = vars(build_parser().parse_args(argv))
    monkeypatch.setattr(tpslab.cli, "build_parser", None)
    assert vars(_parse(argv)) == full


@pytest.mark.parametrize("argv,code", [
    (["--version"], 0), (["-h"], 0), (["demo", "-h"], 0),
    (["qcf", "{state}", "--obs-a", "pauli-z", "--obs-b", "pauli-z", "--tol", "1"], 2),
    (["chsh", "{state}", "--bogus"], 2), (["demo", "bell", "--samples", "0"], 2),
    (["chsh", "{state}"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_repeated_calls_in_one_process_give_the_same_exit_and_bytes(argv, code, bell_file,
                                                                   capsys):
    argv = [a.format(state=bell_file) for a in argv]
    outcomes = []
    for _ in range(3):
        try:
            exit_code = main(argv)
        except SystemExit as exc:
            exit_code = exc.code
        outcomes.append((exit_code, *capsys.readouterr()))
    assert outcomes == [outcomes[0]] * 3 and outcomes[0][0] == code


def test_main_reads_argv_from_any_iterable(bell_file, capsys):
    # the route reads it more than once, so an iterator is listed once
    assert main(iter(["chsh", bell_file])) == 0
    printed = capsys.readouterr()
    assert main(["chsh", bell_file]) == 0
    assert capsys.readouterr() == printed


@pytest.mark.parametrize("module", ["tpslab", "tpslab.cli"])
@pytest.mark.parametrize(
    "argv",
    [["--version"], ["chsh", "{state}"], ["demo", "bell", "--samples", "2", "--seed", "1"],
     ["demo", "-h"], ["chsh", "{state}", "--bogus"], ["demo", "bell", "--samples", "0"]],
    ids=" ".join,
)
def test_python_m_matches_main_in_process(module, argv, bell_file, monkeypatch, capsys):
    # the argv=None path: main reads sys.argv[1:]
    argv = [a.format(state=bell_file) for a in argv]
    monkeypatch.setenv("COLUMNS", "100")  # the -h width, in this process and the child
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True,
                          env=env, check=False)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, *capsys.readouterr())
