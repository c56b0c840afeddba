"""Command-line interface: schmidt | qcf | demo coords|spins|bell | refactor | chsh.

Each subcommand accepts ``--out`` and only the flags it reads; any other flag
is a usage error.  A JSON report opens with the manifest
``{"subcommand", "parameters", "version"}``, whose parameters are the inputs
the run read, the tolerance or seed among them.  Reports are deterministic:
identical invocations (same seed, same inputs) produce byte-identical output.
Exit codes: 0 ok, 2 usage error or unparseable input file, 3 dimension
mismatch, 4 unknown observable, 5 grid constraint violated, 6 bad bijection,
1 any other toolkit error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .bell import chsh_max, chsh_max_closed_form, demo_bell
from .errors import (
    BijectionError,
    GridSpecError,
    ShapeError,
    SizeLimitError,
    StateFileError,
    ToolkitError,
    UnknownObservableError,
)
from .grid import (
    Grid,
    demo_sum_diff,
    double_gaussian_profile,
    gaussian_profile,
    position_operator,
    sum_diff_spectra,
)
from .qcf import default_witness_threshold, qcf, qcf_local
from .schmidt import DEFAULT_TRUNCATION_TOL, rank_from_singular_values, schmidt
from .spins import PAULI_X, PAULI_Y, PAULI_Z, demo_spins
from .statefile import (
    StateFile,
    dump_json,
    load_bijection_file,
    load_matrix_file,
    load_state_file,
    read_json,
    render_csv,
    save_state_file,
    tps_from_dict,
)
from .tps import (
    TensorProductStructure,
    identity_bijection,
    relabeled,
    sum_diff_bijection,
    swap_bijection,
    tps_with_spectrum,
    trivial_tps,
)

OBSERVABLE_NAMES = ("pauli-x", "pauli-y", "pauli-z", "position")
_PAULI_BY_NAME = {"pauli-x": PAULI_X, "pauli-y": PAULI_Y, "pauli-z": PAULI_Z}

EXIT_CODES = (
    (StateFileError, 2),
    (ShapeError, 3),
    (SizeLimitError, 3),
    (UnknownObservableError, 4),
    (GridSpecError, 5),
    (BijectionError, 6),
)


def _manifest(args: argparse.Namespace, parameters: dict) -> dict:
    return {"subcommand": args.command, "parameters": parameters, "version": __version__}


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def resolve_observable(spec: str, dim: int) -> np.ndarray:
    """An observable by name (pauli-x|y|z, position) or a JSON matrix file path."""
    if spec in _PAULI_BY_NAME:
        if dim != 2:
            raise ShapeError(f"observable {spec} is 2-dimensional, needed dim {dim}")
        return _PAULI_BY_NAME[spec]
    if spec == "position":
        return position_operator(np.arange(dim) - (dim - 1) / 2.0)
    if not os.path.isfile(spec):
        raise UnknownObservableError(
            f"unknown observable {spec!r}: expected one of {', '.join(OBSERVABLE_NAMES)} "
            "or a JSON matrix file"
        )
    return load_matrix_file(spec, dim)


def _resolve_tps(sf: StateFile, tps_path: str | None) -> TensorProductStructure:
    if tps_path:
        tps = tps_from_dict(read_json(tps_path))
        if (tps.d1, tps.d2) != (sf.d1, sf.d2):
            raise ShapeError(
                f"{tps_path}: tps dims ({tps.d1}, {tps.d2}) vs state dims ({sf.d1}, {sf.d2})"
            )
        return tps
    if sf.tps is not None:
        return sf.tps
    return trivial_tps(sf.d1, sf.d2)


def cmd_schmidt(args: argparse.Namespace) -> int:
    sf = load_state_file(args.state)
    tps = _resolve_tps(sf, args.tps)
    sd = schmidt(sf.amplitudes, tps, truncation_tol=args.tol)
    report = {
        "manifest": _manifest(args, {"state": args.state, "tps": args.tps, "tol": args.tol}),
        "rank": sd.rank,
        "coefficients": sd.coefficients,
        "factorizable": sd.rank == 1,
    }
    _emit(args, dump_json(report))
    return 0


def cmd_qcf(args: argparse.Namespace) -> int:
    sf = load_state_file(args.state)
    tps = _resolve_tps(sf, args.tps)
    if args.local:
        obs_a = resolve_observable(args.obs_a, tps.d1)
        obs_b = resolve_observable(args.obs_b, tps.d2)
        rep = qcf_local(obs_a, obs_b, sf.amplitudes, tps, witness_threshold=args.tol)
        value, threshold, verdict = rep.value, rep.witness_threshold, rep.verdict
    else:
        dim = sf.d1 * sf.d2
        obs_a = resolve_observable(args.obs_a, dim)
        obs_b = resolve_observable(args.obs_b, dim)
        value = qcf(obs_a, obs_b, sf.amplitudes)
        threshold = default_witness_threshold(dim)
        verdict = "not-applicable"
    report = {
        "manifest": _manifest(
            args,
            {
                "state": args.state,
                "obs_a": args.obs_a,
                "obs_b": args.obs_b,
                "local": args.local,
                "tps": args.tps,
                "tol": args.tol,
            },
        ),
        "value": [value.real, value.imag],
        "abs": abs(value),
        "witness_threshold": threshold,
        "verdict": verdict,
    }
    _emit(args, dump_json(report))
    return 0


def _demo_coords(args: argparse.Namespace, want_rows: bool) -> tuple[dict, Iterable]:
    if args.d % 2 == 0:
        raise GridSpecError(
            f"--d must be odd for the coordinate demo (got {args.d}): the "
            "sum/difference relabeling needs 2 invertible mod d"
        )
    smax = max(args.sigma1, args.sigma2)
    grid = Grid.spanning(args.d, 8.0 * smax)
    f = gaussian_profile(grid, 0.0, args.sigma1)
    if want_rows:
        widths = np.linspace(args.sigma1, args.sigma2, 11)
        spectra = sum_diff_spectra(
            [f] * widths.size, [gaussian_profile(grid, 0.0, float(s2)) for s2 in widths]
        )
        ranks = rank_from_singular_values(spectra.values_ab, DEFAULT_TRUNCATION_TOL)
        columns = (widths, ranks, spectra.qcf_ab, spectra.variance_diff)
        return {}, zip(*columns)
    pairs = [(f, gaussian_profile(grid, 0.0, args.sigma2))]
    grid_eq = Grid.spanning(args.d, 8.0 * args.sigma1)
    pairs.append((gaussian_profile(grid_eq, 0.0, args.sigma1),) * 2)
    grid_dg = Grid.spanning(args.d, args.sep + 8.0 * args.sigma1)
    pairs.append((double_gaussian_profile(grid_dg, args.sep, args.sigma1),
                  gaussian_profile(grid_dg, 0.0, args.sigma1)))
    reports = demo_sum_diff(*zip(*pairs))
    body = {
        "grid": {"d": args.d, "halfwidth": 8.0 * smax},
        **{name: asdict(rep) for name, rep in
           zip(("gaussian_pair", "equal_sigma", "double_gaussian"), reports)},
    }
    return body, []


def cmd_demo(args: argparse.Namespace) -> int:
    if args.which == "coords":
        body, rows = _demo_coords(args, args.format == "csv")
        header = ["param", "rank_ab", "qcf_ab", "variance_diff"]
        params = {
            "d": args.d,
            "sigma1": args.sigma1,
            "sigma2": args.sigma2,
            "sep": args.sep,
        }
    else:
        if args.which == "spins":
            report = demo_spins(samples=args.samples, seed=args.seed)
            header = ["sample", "residual", "qcf_value"]
            columns = (report.residuals, report.qcf_values)
        else:
            report = demo_bell(samples=args.samples, seed=args.seed)
            header = ["sample", "chsh_value", "oracle_value"]
            columns = (report.values, report.closed_forms)
        # a sampling demo's compared report fields are its JSON body (the seed
        # is in the manifest); its per-sample arrays are the CSV rows
        body = {f.name: getattr(report, f.name) for f in fields(report)
                if f.compare and f.name != "seed"}
        rows = zip(range(args.samples), *columns)
        params = {"samples": args.samples, "seed": args.seed}
    if args.format == "csv":
        _emit(args, render_csv(header, rows))
        return 0
    report = {"manifest": _manifest(args, {"which": args.which, **params}), **body}
    _emit(args, dump_json(report))
    return 0


def _relabeled_tps(sf: StateFile, spec: str) -> TensorProductStructure:
    d1, d2 = sf.d1, sf.d2
    if spec == "sumdiff":
        if d1 != d2:
            raise BijectionError(f"sumdiff needs a square grid, got {d1}x{d2}")
        bij = sum_diff_bijection(d1)
    elif spec == "swap":
        if d1 != d2:
            raise BijectionError(f"swap needs a square grid, got {d1}x{d2}")
        bij = swap_bijection(d1)
    elif spec == "identity":
        bij = identity_bijection(d1, d2)
    else:
        bij = load_bijection_file(spec, d1, d2)
    return relabeled(sf.tps if sf.tps is not None else trivial_tps(d1, d2), bij)


def cmd_refactor(args: argparse.Namespace) -> int:
    sf = load_state_file(args.state)
    if args.spectrum is None:
        new_tps = _relabeled_tps(sf, args.bijection)
    else:
        n = 1 if args.spectrum == "product" else min(sf.d1, sf.d2)
        new_tps = tps_with_spectrum(sf.amplitudes, (1.0 / n,) * n, trivial_tps(sf.d1, sf.d2))
    out = StateFile(d1=sf.d1, d2=sf.d2, amplitudes=sf.amplitudes, tps=new_tps, metadata=sf.metadata)
    save_state_file(args.out, out)
    return 0


def cmd_chsh(args: argparse.Namespace) -> int:
    sf = load_state_file(args.state)
    if (sf.d1, sf.d2) != (2, 2):
        raise ShapeError(f"chsh needs a two-qubit state, got dims ({sf.d1}, {sf.d2})")
    result = chsh_max(sf.amplitudes)
    report = {
        "manifest": _manifest(args, {"state": args.state}),
        "value": result.value,
        "closed_form": chsh_max_closed_form(sf.amplitudes),
        "settings": asdict(result.settings),
    }
    _emit(args, dump_json(report))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite non-negative number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpslab",
        description="Tensor-product-structure toolkit: Schmidt decompositions, "
        "quantum covariance, relabelings, and CHSH checks.",
    )
    parser.add_argument("--version", action="version", version=f"tpslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name: str, func, help: str, required: bool = False,
                out: str = "write the report to this path instead of stdout"):
        p = parent.add_parser(name, help=help)
        p.add_argument("--out", required=required, help=out)
        p.set_defaults(func=func)
        return p

    p = command(sub, "schmidt", cmd_schmidt, "Schmidt decomposition of a state file")
    p.add_argument("state")
    p.add_argument("--tps", help="JSON file overriding the state's TPS block")
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TRUNCATION_TOL,
                   help="rank cut: count the coefficients above tol times the largest")

    p = command(sub, "qcf", cmd_qcf, "quantum covariance of two observables")
    p.add_argument("state")
    p.add_argument("--obs-a", required=True,
                   help=f"{'|'.join(OBSERVABLE_NAMES)} or a JSON matrix file")
    p.add_argument("--obs-b", required=True)
    p.add_argument("--local", action="store_true",
                   help="treat observables as acting on the two TPS factors")
    p.add_argument("--tps", help="JSON file overriding the state's TPS block")
    p.add_argument("--tol", type=_finite_float, default=None,
                   help="witness threshold of --local (default: the global dimension times 1e-12)")

    demo = sub.add_parser("demo", help="run a built-in demonstration")
    demos = demo.add_subparsers(dest="which", required=True)
    p = command(demos, "coords", cmd_demo, "product of two Gaussians under the "
                "modular sum/difference relabeling")
    p.add_argument("--d", type=int, default=129, help="grid points per coordinate")
    p.add_argument("--sigma1", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=2.0)
    p.add_argument("--sep", type=float, default=4.0, help="double-gaussian lobe separation")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv emits the rows of a sweep of the second width from sigma1 to sigma2")
    for which, help in (("spins", "random product spin pairs read in the total-spin TPS"),
                        ("bell", "maximal CHSH values of seeded entangled two-qubit states")):
        p = command(demos, which, cmd_demo, help)
        p.add_argument("--samples", type=_positive_int, default=1000)
        p.add_argument("--seed", type=_non_negative_int, default=42, help="random seed")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="csv emits one row per sample")

    p = command(sub, "refactor", cmd_refactor, "rewrite a state file with a relabeled TPS, "
                "or with one in which the state has a given Schmidt spectrum",
                required=True, out="write the rewritten state file to this path")
    p.add_argument("state")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--bijection",
                        help="sumdiff | swap | identity | path to a JSON bijection file")
    target.add_argument("--spectrum", choices=("product", "maximal"),
                        help="a reflector TPS in which the state is a product, or "
                        "maximally entangled over min(d1, d2) terms")

    p = command(sub, "chsh", cmd_chsh, "maximal CHSH value of a two-qubit state file")
    p.add_argument("state")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "qcf" and args.tol is not None and not args.local:
        parser.error("qcf --tol sets the witness threshold of --local")
    try:
        return args.func(args)
    except ToolkitError as exc:
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
