"""Command-line interface: schmidt | qcf | demo coords|spins|bell | refactor | chsh.

Each subcommand accepts ``--out`` and only the flags it reads; any other flag
is a usage error.  ``main`` parses argv with ``build_parser(argv)``, in which
only the subcommands that a token of argv names get a parser of their own; the
others keep their name and help but share one empty placeholder parser
(``build_parser()`` is the full parser).  This is exact, as argparse parses
with a choice's parser only on an argv token equal to its name.  A JSON report
opens with the manifest ``{"subcommand", "parameters", "version"}``, whose
parameters are the parsed arguments: every flag the subcommand declares except
``--out`` and ``--format``, its positional state file, and the demo's name.
Each handler takes the state file that ``main`` read, its ``tps`` set to the
run's one TPS (the ``--tps`` file, else the file's block, else the trivial TPS;
a demo gets None), and returns its text; ``main`` alone writes it, to ``--out``
or stdout after a ``warning:`` line for a norm corrected on load, or maps a
toolkit error to its exit code and one ``error:`` line.  Reports are
deterministic: identical invocations (same seed, same inputs) produce
byte-identical output.
Exit codes: 0 ok, 2 usage error, unparseable input file (including a missing
or unknown key) or unwritable ``--out``, 3 dimension mismatch or size cap,
4 unknown observable, 5 grid constraint violated, 6 bad bijection, 1 any
other toolkit error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .bell import chsh_max, demo_bell
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
)
from .linalg import check_size
from .qcf import default_witness_threshold, qcf, qcf_local
from .schmidt import DEFAULT_TRUNCATION_TOL, schmidt
from .spins import PAULI_X, PAULI_Y, PAULI_Z, demo_spins
from .statefile import (
    StateFile,
    dump_json,
    load_bijection_file,
    load_matrix_file,
    load_state_file,
    read_json,
    render_csv,
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


def _report(args: argparse.Namespace, body: dict) -> str:
    """The JSON report of a run: its manifest, then body."""
    parameters = {k: v for k, v in vars(args).items()
                  if k not in ("command", "func", "out", "format")}
    manifest = {"subcommand": args.command, "parameters": parameters, "version": __version__}
    return dump_json({"manifest": manifest, **body})


def resolve_observable(spec: str, dim: int) -> np.ndarray:
    """An observable by name (pauli-x|y|z, position) or a JSON matrix file path; the
    dense ones, all but the 2x2 Paulis, are capped at dim^2 entries by ``check_size``."""
    if spec in _PAULI_BY_NAME:
        if dim != 2:
            raise ShapeError(f"observable {spec} is 2-dimensional, needed dim {dim}")
        return _PAULI_BY_NAME[spec]
    if spec != "position" and not os.path.isfile(spec):
        raise UnknownObservableError(
            f"unknown observable {spec!r}: expected one of {', '.join(OBSERVABLE_NAMES)} "
            "or a JSON matrix file"
        )
    check_size(dim * dim, f"a dense {dim}x{dim} qcf observable")
    if spec == "position":
        return position_operator(np.arange(dim) - (dim - 1) / 2.0)
    return load_matrix_file(spec, dim)


def cmd_schmidt(args: argparse.Namespace, sf: StateFile) -> str:
    sd = schmidt(sf.amplitudes, sf.tps, truncation_tol=args.tol)
    return _report(args, {"rank": sd.rank, "coefficients": sd.coefficients,
                          "factorizable": sd.rank == 1})


def cmd_qcf(args: argparse.Namespace, sf: StateFile) -> str:
    if args.local:
        obs_a = resolve_observable(args.obs_a, sf.d1)
        obs_b = resolve_observable(args.obs_b, sf.d2)
        rep = qcf_local(obs_a, obs_b, sf.amplitudes, sf.tps, witness_threshold=args.tol)
        value, threshold, verdict = rep.value, rep.witness_threshold, rep.verdict
    else:
        dim = sf.d1 * sf.d2
        check_size(dim * dim, f"a dense {dim}x{dim} global qcf observable (use --local)")
        obs_a = resolve_observable(args.obs_a, dim)
        obs_b = resolve_observable(args.obs_b, dim)
        value = qcf(obs_a, obs_b, sf.amplitudes)
        threshold = default_witness_threshold(dim, obs_a, obs_b)
        verdict = "not-applicable"
    return _report(args, {"value": [value.real, value.imag], "abs": abs(value),
                          "witness_threshold": threshold, "verdict": verdict})


def cmd_coords(args: argparse.Namespace, _: None) -> str:
    if args.d % 2 == 0:
        raise GridSpecError(
            f"--d must be odd for the coordinate demo (got {args.d}): the "
            "sum/difference relabeling needs 2 invertible mod d"
        )
    smax = max(args.sigma1, args.sigma2)
    grid = Grid.spanning(args.d, 8.0 * smax)
    f = gaussian_profile(grid, 0.0, args.sigma1)
    if args.format == "csv":
        widths = np.linspace(args.sigma1, args.sigma2, 11)
        reports = demo_sum_diff(
            [f] * widths.size, [gaussian_profile(grid, 0.0, float(s2)) for s2 in widths]
        )
        return render_csv(["param", "rank_ab", "qcf_ab", "variance_diff"],
                          ((s2, r.rank_ab, r.qcf_ab, r.variance_diff)
                           for s2, r in zip(widths, reports)))
    pairs = [(f, gaussian_profile(grid, 0.0, args.sigma2))]
    grid_eq = Grid.spanning(args.d, 8.0 * args.sigma1)
    pairs.append((gaussian_profile(grid_eq, 0.0, args.sigma1),) * 2)
    grid_dg = Grid.spanning(args.d, args.sep + 8.0 * args.sigma1)
    pairs.append((double_gaussian_profile(grid_dg, args.sep, args.sigma1),
                  gaussian_profile(grid_dg, 0.0, args.sigma1)))
    reports = demo_sum_diff(*zip(*pairs))
    return _report(args, {
        "grid": {"d": args.d, "halfwidth": 8.0 * smax},
        **{name: vars(rep) for name, rep in
           zip(("gaussian_pair", "equal_sigma", "double_gaussian"), reports)},
    })


def cmd_sampling_demo(args: argparse.Namespace, _: None) -> str:
    demo, header = {"spins": (demo_spins, ["sample", "residual", "qcf_value"]),
                    "bell": (demo_bell, ["sample", "chsh_value", "oracle_value"])}[args.which]
    report = demo(samples=args.samples, seed=args.seed)
    # the per-sample arrays, the report's uncompared fields, are the CSV columns;
    # the compared fields are the JSON body
    if args.format == "csv":
        columns = [getattr(report, f.name) for f in fields(report) if not f.compare]
        return render_csv(header, zip(range(args.samples), *columns))
    return _report(args, {f.name: getattr(report, f.name) for f in fields(report) if f.compare})


def _relabeled_tps(sf: StateFile, spec: str) -> TensorProductStructure:
    d1, d2 = sf.d1, sf.d2
    square = {"sumdiff": sum_diff_bijection, "swap": swap_bijection}
    if spec in square:
        if d1 != d2:
            raise BijectionError(f"{spec} needs a square grid, got {d1}x{d2}")
        bij = square[spec](d1)
    elif spec == "identity":
        bij = identity_bijection(d1, d2)
    else:
        bij = load_bijection_file(spec, d1, d2)
    return relabeled(sf.tps, bij)


def cmd_refactor(args: argparse.Namespace, sf: StateFile) -> str:
    if args.spectrum is None:
        new_tps = _relabeled_tps(sf, args.bijection)
    else:
        n = 1 if args.spectrum == "product" else min(sf.d1, sf.d2)
        new_tps = tps_with_spectrum(sf.amplitudes, (1.0 / n,) * n, trivial_tps(sf.d1, sf.d2))
    out = StateFile(d1=sf.d1, d2=sf.d2, amplitudes=sf.amplitudes, tps=new_tps, metadata=sf.metadata)
    return dump_json(out.to_dict())


def cmd_chsh(args: argparse.Namespace, sf: StateFile) -> str:
    result = chsh_max(sf.amplitudes, sf.tps)
    return _report(args, {"value": result.value, "closed_form": result.closed_form,
                          "settings": vars(result.settings)})


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


def _rank_cut(text: str) -> float:
    value = float(text)
    if not 0 <= value < 1:  # at 1 or more no coefficient lies above the cut, not even the largest
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1), got {text}")
    return value


def build_parser(argv=None) -> argparse.ArgumentParser:
    """Every subcommand's name and help, but a parser of its own only for those named by a
    token of argv; the rest share one empty placeholder parser, which is exact: argparse
    parses with a choice's parser only on an argv token equal to its name.
    ``build_parser()`` is the full parser."""
    stub = argparse.ArgumentParser(add_help=False)

    def parser_class(prog: str, **kwargs):
        # prog is "tpslab NAME" or "tpslab demo NAME"; kwargs is the rest of what add_parser
        # passes, which grows with the Python version (3.14 adds color=).  add_parser may call
        # methods of what this returns, so an off-path name gets the stub, never None.
        if argv is None or prog.rsplit(" ", 1)[-1] in argv:
            return argparse.ArgumentParser(prog=prog, **kwargs)
        return stub

    parser = argparse.ArgumentParser(
        prog="tpslab",
        description="Tensor-product-structure toolkit: Schmidt decompositions, "
        "quantum covariance, relabelings, and CHSH checks.",
    )
    parser.add_argument("--version", action="version", version=f"tpslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    def command(parent, name: str, func, help: str, required: bool = False,
                out: str = "write the report to this path instead of stdout"):
        if (p := parent.add_parser(name, help=help)) is stub:
            return None
        p.add_argument("--out", required=required, help=out)
        p.set_defaults(func=func)
        return p

    if p := command(sub, "schmidt", cmd_schmidt, "Schmidt decomposition of a state file"):
        p.add_argument("state")
        p.add_argument("--tps", help="JSON file overriding the state's TPS block")
        p.add_argument("--tol", type=_rank_cut, default=DEFAULT_TRUNCATION_TOL,
                       help="rank cut, 0 <= tol < 1: count the coefficients above tol times "
                       "the largest")

    if p := command(sub, "qcf", cmd_qcf, "quantum covariance of two observables"):
        p.add_argument("state")
        p.add_argument("--obs-a", required=True,
                       help=f"{'|'.join(OBSERVABLE_NAMES)} or a JSON matrix file")
        p.add_argument("--obs-b", required=True)
        p.add_argument("--local", action="store_true",
                       help="treat observables as acting on the two TPS factors")
        p.add_argument("--tps", help="JSON file overriding the state's TPS block")
        p.add_argument("--tol", type=_finite_float, default=None,
                       help="witness threshold of --local (default: the global dimension times "
                       "1e-12 times max(1, |A|inf |B|inf), |.|inf the largest absolute row sum)")

    if (demo := sub.add_parser("demo", help="run a built-in demonstration")) is not stub:
        demos = demo.add_subparsers(dest="which", required=True, parser_class=parser_class)
        if p := command(demos, "coords", cmd_coords, "product of two Gaussians under the "
                        "modular sum/difference relabeling"):
            p.add_argument("--d", type=int, default=129, help="grid points per coordinate")
            p.add_argument("--sigma1", type=float, default=1.0)
            p.add_argument("--sigma2", type=float, default=2.0)
            p.add_argument("--sep", type=_finite_float, default=4.0,
                           help="double-gaussian lobe separation")
            p.add_argument("--format", choices=("json", "csv"), default="json",
                           help="csv emits the rows of a sweep of the second width from "
                           "sigma1 to sigma2")
        for which, help in (("spins", "random product spin pairs read in the total-spin TPS"),
                            ("bell", "maximal CHSH values of seeded entangled two-qubit states")):
            if p := command(demos, which, cmd_sampling_demo, help):
                p.add_argument("--samples", type=_positive_int, default=1000)
                p.add_argument("--seed", type=_non_negative_int, default=42, help="random seed")
                p.add_argument("--format", choices=("json", "csv"), default="json",
                               help="csv emits one row per sample")

    if p := command(sub, "refactor", cmd_refactor, "rewrite a state file with a relabeled TPS, "
                    "or with one in which the state has a given Schmidt spectrum",
                    required=True, out="write the rewritten state file to this path"):
        p.add_argument("state")
        target = p.add_mutually_exclusive_group(required=True)
        target.add_argument("--bijection",
                            help="sumdiff | swap | identity | path to a JSON bijection file")
        target.add_argument("--spectrum", choices=("product", "maximal"),
                            help="a reflector TPS in which the state is a product, or "
                            "maximally entangled over min(d1, d2) terms")

    if p := command(sub, "chsh", cmd_chsh, "maximal CHSH value of a two-qubit state file"):
        p.add_argument("state")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    if args.command == "qcf" and not args.local and (args.tol is not None or args.tps is not None):
        parser.error("qcf --tol sets the witness threshold of --local, and --tps its TPS")
    try:
        sf = load_state_file(args.state) if "state" in args else None
        if sf is not None and getattr(args, "tps", None) is not None:
            sf.tps = tps_from_dict(read_json(args.tps), (sf.d1, sf.d2))
        elif sf is not None and sf.tps is None:
            sf.tps = trivial_tps(sf.d1, sf.d2)
        text = args.func(args, sf)
        if sf is not None and sf.norm_correction is not None:
            print(f"warning: {args.state}: normalizing state with norm {sf.norm_correction!r}",
                  file=sys.stderr)
        if args.out is None:
            sys.stdout.write(text)
            return 0
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise StateFileError(f"cannot write {args.out!r}: {exc.strerror}") from exc
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for klass, code in EXIT_CODES if isinstance(exc, klass)), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
