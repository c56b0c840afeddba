"""The four request workloads: generated inputs, requests, and their checks.

Every workload is a closed loop with one client that runs rounds of
requests.  A round is a fixed list of request types, so each complete round
has the same mix; only the generated inputs, drawn from the workload seed
and the round number, change.  Each round carries exactly one malformed
input whose documented exit code holds at the seed commit.  Input files are
written to the current directory under relative names, so reports (which
echo paths) have the same bytes wherever the benchmark runs.

Why these workloads:
- bell: the iterative CHSH optimizer dominates; a closed-form CHSH would
  move it and nothing else.
- spins: tens of thousands of tiny D=4 calls into tps/qcf/schmidt, where
  per-call validation and small-array overhead dominate; batched demos
  would move it.
- coords: the grid layer's permutation path at D = d^2, where a dense TPS
  cannot be built at all; the only workload that measures `grid`.
- tps-files: dense TPS files written and read back; `statefile`, `tps` and
  `qcf` carry it, so a structured TPS representation would move it.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np

import oracles as ora
import tpslab
from harness import Outcome, Request, close, error_line, expect

UNITS = {
    "bell": "CHSH maximizations",
    "spins": "spin samples",
    "coords": "coordinate demo reports",
    "tps-files": "state sessions",
}
# rounds of the traced run: about five seconds of requests each way at the seed
TRACE_ROUNDS = {"bell": 10, "spins": 10, "coords": 8, "tps-files": 2}

RANK_TOL = 1e-10  # the CLI's default Schmidt truncation tolerance
VIOLATION = 2.0 + 1e-3  # `demo bell` counts values above this as violating
# accuracy of the CHSH optimizer against the closed form, as the acceptance
# suite states it (criterion c10); the closed-form fields must agree to 1e-9
CHSH_OPT_TOL = 1e-4
NONZERO = 1e-8  # `demo spins` counts covariances above this as nonzero
UNKNOWN_OBSERVABLES = ("momentum", "pauli-w", "spin-z", "energy")


def round_rng(workload: str, seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([abs(seed), int(seed < 0), sorted(UNITS).index(workload), r])


def make_round(workload: str, seed: int, r: int) -> list[Request]:
    """Write round `r`'s input files into the current directory and return its requests."""
    build = {"bell": bell_round, "spins": spins_round, "coords": coords_round,
             "tps-files": tps_files_round}[workload]
    return build(round_rng(workload, seed, r), r)


def write_json(path: str, obj) -> None:
    write_text(path, json.dumps(obj))


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def state_doc(psi: np.ndarray, d1: int, d2: int) -> dict:
    return {"dims": [d1, d2], "amplitudes": [[float(z.real), float(z.imag)] for z in psi]}


def new_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def malformed(kind: str, argv: list[str], code: int, writes: tuple[str, ...] = ()) -> Request:
    def check(outcome: Outcome) -> None:
        error_line(outcome)
        expect(not outcome.files, "a rejected request wrote its output file")

    return Request(f"malformed-{kind}", check, argv=argv, expect_code=code, writes=writes)


# --- bell ------------------------------------------------------------------


def two_qubit_states(rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    local = lambda: np.kron(ora.haar_unitary(rng, 2), ora.haar_unitary(rng, 2))  # noqa: E731
    theta = rng.uniform(0.15, 0.6)
    return [
        ("bell", local() @ (np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0))),
        ("product", np.kron(ora.haar(rng, 2), ora.haar(rng, 2))),
        ("partial", local() @ np.array([np.cos(theta), 0, 0, np.sin(theta)], dtype=complex)),
        ("haar", ora.haar(rng, 4)),
    ]


def check_chsh(outcome: Outcome, psi: np.ndarray) -> None:
    rep = outcome.report()
    wanted = ora.chsh_closed_form(psi)
    close(rep["value"], wanted, CHSH_OPT_TOL, "chsh value")
    close(rep["closed_form"], wanted, 1e-9, "chsh closed_form")
    s = rep["settings"]
    for key in ("a", "a_prime", "b", "b_prime"):
        close(float(np.linalg.norm(s[key])), 1.0, 1e-9, f"|{key}|")
    at = ora.chsh_at(ora.correlation_matrix(psi), s["a"], s["a_prime"], s["b"], s["b_prime"])
    close(rep["value"], at, 1e-9, "chsh value at the reported settings")


def check_demo_bell(outcome: Outcome, samples: int, seed: int) -> None:
    rep = outcome.report()
    expect(rep["samples"] == samples, f"samples {rep['samples']} != {samples}")
    values = np.array([ora.chsh_closed_form(p) for p in ora.entangled_draws(seed, samples)])
    close(rep["bell_state_value"], ora.TSIRELSON, 1e-6, "bell_state_value")
    close(rep["min_value"], float(values.min()), CHSH_OPT_TOL, "min_value")
    expect(0.0 <= rep["max_oracle_residual"] <= CHSH_OPT_TOL,
           f"max_oracle_residual {rep['max_oracle_residual']!r} above {CHSH_OPT_TOL}")
    near = int(np.sum(np.abs(values - VIOLATION) <= CHSH_OPT_TOL))
    violating = int(np.sum(values > VIOLATION))
    expect(abs(rep["fraction_violating"] * samples - violating) <= near + 1e-9,
           f"fraction_violating {rep['fraction_violating']!r} vs {violating}/{samples}")


def bell_round(rng: np.random.Generator, r: int) -> list[Request]:
    tag, reqs = f"r{r}", []
    for copy in range(2):
        for name, psi in two_qubit_states(rng):
            path = f"{tag}-{copy}-{name}.json"
            write_json(path, state_doc(psi, 2, 2))
            reqs.append(Request("chsh", partial(check_chsh, psi=psi), argv=["chsh", path],
                                units=1))
    # the largest request type appears once per round, dozens of times per
    # run, so the tail falls well inside its latency distribution
    for n in (16, 64):
        k = new_seed(rng)
        argv = ["demo", "bell", "--samples", str(n), "--seed", str(k)]
        # n sampled states plus the Bell state are maximized
        reqs.append(Request(f"demo-bell-{n}", partial(check_demo_bell, samples=n, seed=k),
                            argv=argv, units=n + 1))
    if r % 2 == 0:
        text = json.dumps(state_doc(ora.haar(rng, 4), 2, 2))
        write_text(f"{tag}-bad.json", text[: int(rng.integers(1, len(text) - 1))])
        reqs.append(malformed("json", ["chsh", f"{tag}-bad.json"], 2))
    else:
        write_json(f"{tag}-qutrits.json", state_doc(ora.haar(rng, 9), 3, 3))
        reqs.append(malformed("dims", ["chsh", f"{tag}-qutrits.json"], 3))
    return reqs


# --- spins -----------------------------------------------------------------


def check_spins_json(outcome: Outcome, samples: int, seed: int) -> None:
    rep = outcome.report()
    expect(rep["samples"] == samples, f"samples {rep['samples']} != {samples}")
    closed = ora.spin_closed_form(ora.spin_pairs(seed, samples))
    expect(0.0 <= rep["closed_form_residual_max"] <= 1e-10,
           f"closed_form_residual_max {rep['closed_form_residual_max']!r} above 1e-10")
    expect(rep["chi_tps_rank_examples"] == [1, 1, 1, 1],
           f"chi_tps_rank_examples {rep['chi_tps_rank_examples']}")
    near = int(np.sum(np.abs(np.abs(closed) - NONZERO) <= 1e-10))
    nonzero = int(np.sum(np.abs(closed) > NONZERO))
    expect(abs(rep["fraction_nonzero"] * samples - nonzero) <= near + 1e-9,
           f"fraction_nonzero {rep['fraction_nonzero']!r} vs {nonzero}/{samples}")


def check_spins_csv(outcome: Outcome, samples: int, seed: int) -> None:
    lines = outcome.stdout.splitlines()
    expect(lines[0] == "sample,residual,qcf_value", f"csv header {lines[0]!r}")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    expect(rows.shape == (samples, 3), f"csv rows shaped {rows.shape}")
    closed = ora.spin_closed_form(ora.spin_pairs(seed, samples))
    expect(np.array_equal(rows[:, 0], np.arange(samples)), "csv sample column")
    expect(float(rows[:, 1].max()) <= 1e-10, f"csv residual {rows[:, 1].max()!r} above 1e-10")
    err = float(np.max(np.abs(rows[:, 2] - closed)))
    expect(err <= 1e-10, f"csv qcf_value off the closed form by {err:.3e}")


def spins_round(rng: np.random.Generator, r: int) -> list[Request]:
    tag, reqs = f"r{r}", []
    for n in (50, 100, 150, 200, 250):
        for fmt, check in (("json", check_spins_json), ("csv", check_spins_csv)):
            k = new_seed(rng)
            argv = ["demo", "spins", "--samples", str(n), "--seed", str(k), "--format", fmt]
            reqs.append(Request(f"demo-spins-{fmt}-{n}", partial(check, samples=n, seed=k),
                                argv=argv, units=n))
    path = f"{tag}-pair.json"
    write_json(path, state_doc(np.kron(ora.haar(rng, 2), ora.haar(rng, 2)), 2, 2))
    name = UNKNOWN_OBSERVABLES[int(rng.integers(len(UNKNOWN_OBSERVABLES)))]
    reqs.append(malformed("observable", ["qcf", path, "--obs-a", name, "--obs-b", "pauli-z",
                                         "--local"], 4))
    return reqs


# --- coords ----------------------------------------------------------------


def variance_gap(x: np.ndarray, f: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Var(X1) - Var(X2) for the product f (x) g, and a scale for its tolerance."""
    vf, vg = ora.position_variance(x, f), ora.position_variance(x, g)
    return vf - vg, 1e-9 * max(1.0, vf + vg)


def check_section(sec: dict, gap: tuple[float, float], what: str) -> None:
    wanted, tol = gap
    close(sec["qcf_ab"], wanted, tol, f"{what} qcf_ab")
    close(sec["variance_diff"], wanted, tol, f"{what} variance_diff")
    expect(sec["rank_xy"] == 1, f"{what} rank_xy {sec['rank_xy']} for a product state")


def check_coords_json(outcome: Outcome, d: int, s1: float, s2: float, sep: float) -> None:
    rep = outcome.report()
    hw = 8.0 * max(s1, s2)
    expect(rep["grid"]["d"] == d, f"grid d {rep['grid']['d']} != {d}")
    close(rep["grid"]["halfwidth"], hw, 1e-12 * hw, "grid halfwidth")
    x = ora.grid_points(d, hw)
    check_section(rep["gaussian_pair"], variance_gap(x, ora.gaussian(x, s1), ora.gaussian(x, s2)),
                  "gaussian_pair")
    x = ora.grid_points(d, 8.0 * s1)
    check_section(rep["equal_sigma"], variance_gap(x, ora.gaussian(x, s1), ora.gaussian(x, s1)),
                  "equal_sigma")
    x = ora.grid_points(d, sep + 8.0 * s1)
    check_section(rep["double_gaussian"],
                  variance_gap(x, ora.double_gaussian(x, sep, s1), ora.gaussian(x, s1)),
                  "double_gaussian")


def check_coords_csv(outcome: Outcome, d: int, s1: float, s2: float) -> None:
    lines = outcome.stdout.splitlines()
    expect(lines[0] == "param,rank_ab,qcf_ab,variance_diff", f"csv header {lines[0]!r}")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    widths = np.linspace(s1, s2, 11)
    expect(len(rows) == widths.size, f"{len(rows)} csv rows, expected {widths.size}")
    x = ora.grid_points(d, 8.0 * max(s1, s2))
    for row, s in zip(rows, widths):
        close(row[0], float(s), 1e-12 * s, "csv width")
        wanted, tol = variance_gap(x, ora.gaussian(x, s1), ora.gaussian(x, float(s)))
        close(row[2], wanted, tol, f"csv qcf_ab at width {s}")
        close(row[3], wanted, tol, f"csv variance_diff at width {s}")


def coords_round(rng: np.random.Generator, r: int) -> list[Request]:
    reqs = []
    # three copies of the middle size keep the median inside one request type
    for d, fmt in [(d, "json") for d in (65, 129, 129, 129, 193, 257)] + \
                  [(d, "csv") for d in (65, 97, 129)]:
        s1, s2, sep = (float(v) for v in (rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0),
                                          rng.uniform(1.0, 6.0)))
        argv = ["demo", "coords", "--d", str(d), "--sigma1", repr(s1), "--sigma2", repr(s2),
                "--sep", repr(sep), "--format", fmt]
        if fmt == "json":
            reqs.append(Request(f"demo-coords-json-{d}",
                                partial(check_coords_json, d=d, s1=s1, s2=s2, sep=sep),
                                argv=argv, units=1))
        else:
            reqs.append(Request(f"demo-coords-csv-{d}",
                                partial(check_coords_csv, d=d, s1=s1, s2=s2),
                                argv=argv, units=1))
    even = 2 * int(rng.integers(16, 129))
    reqs.append(malformed("even-d", ["demo", "coords", "--d", str(even)], 5))
    return reqs


# --- tps-files -------------------------------------------------------------

# most sessions share one size, so the median and the tail each fall inside
# one request type instead of on the edge between two
SESSION_DIMS = (9, 15, 15, 15)
STATE_KINDS = ("gaussian", "haar", "plane")
BIJECTIONS = ("sumdiff", "swap", "file")


def make_state(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    k = np.arange(d)
    if kind == "haar":
        return ora.haar(rng, d * d)
    if kind == "plane":
        f, g = (np.exp(2j * np.pi * int(m) * k / d) for m in rng.integers(d, size=2))
    else:
        x = k - (d - 1) / 2.0
        f, g = (ora.gaussian(x, rng.uniform(0.8, d / 4.0), rng.uniform(-d / 6.0, d / 6.0))
                for _ in range(2))
    psi = np.kron(f / np.linalg.norm(f), g / np.linalg.norm(g))
    return psi / np.linalg.norm(psi)


def random_map(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A uniformly random bijection of the d x d grid, as target tables."""
    fa, fb = np.divmod(rng.permutation(d * d), d)
    return fa.reshape(d, d), fb.reshape(d, d)


def bijection_doc(fa: np.ndarray, fb: np.ndarray) -> dict:
    d1, d2 = fa.shape
    return {"map": [[i, j, int(fa[i, j]), int(fb[i, j])] for i in range(d1) for j in range(d2)]}


def check_refactor(outcome: Outcome, out: str, psi: np.ndarray, d: int) -> None:
    expect(outcome.stdout == "", "refactor printed a report")
    data = json.loads(outcome.files[out])
    expect(data["dims"] == [d, d], f"refactored dims {data['dims']}")
    amps = np.array(data["amplitudes"], dtype=float)
    expect(np.array_equal(amps[:, 0], psi.real) and np.array_equal(amps[:, 1], psi.imag),
           "refactor changed the amplitudes")


def check_schmidt(outcome: Outcome, c: np.ndarray) -> None:
    rep = outcome.report()
    values = np.linalg.svd(c, compute_uv=False)
    coeffs = np.array(rep["coefficients"], dtype=float)
    expect(coeffs.shape == values.shape, f"{coeffs.size} coefficients, expected {values.size}")
    err = float(np.max(np.abs(coeffs - values)))
    expect(err <= 1e-10, f"Schmidt coefficients off the permutation+SVD route by {err:.3e}")
    rank, ambiguous = ora.rank(values, RANK_TOL)
    expect(ambiguous or rep["rank"] == rank, f"rank {rep['rank']}, expected {rank}")
    expect(rep["factorizable"] == (rep["rank"] == 1), "factorizable disagrees with rank")


def check_qcf(outcome: Outcome, c: np.ndarray) -> None:
    rep = outcome.report()
    d = c.shape[0]
    pos = ora.position(d)
    wanted = ora.local_covariance(c, pos, pos)
    value = complex(rep["value"][0], rep["value"][1])
    tol = 1e-9 * max(1.0, ((d - 1) / 2.0) ** 2)
    expect(abs(value - wanted) <= tol, f"qcf value {value!r} vs trace formula {wanted!r}")
    close(rep["abs"], abs(wanted), tol, "qcf abs")
    threshold = rep["witness_threshold"]
    if abs(wanted) > 10.0 * threshold:
        expect(rep["verdict"] == "entangled-witnessed", f"verdict {rep['verdict']!r}")
    elif abs(wanted) < threshold / 10.0:
        expect(rep["verdict"] == "inconclusive", f"verdict {rep['verdict']!r}")


def disentangle_then_schmidt(psi: np.ndarray, d: int) -> dict:
    tps = tpslab.disentangling_tps(psi, tpslab.trivial_tps(d, d))
    sd = tpslab.schmidt(psi, tps)
    return {"rank": int(sd.rank), "coefficients": [float(x) for x in sd.coefficients]}


def check_disentangled(outcome: Outcome, d: int) -> None:
    v = outcome.value
    expect(v["rank"] == 1, f"rank {v['rank']} after disentangling_tps")
    expect(len(v["coefficients"]) == d, f"{len(v['coefficients'])} coefficients for d={d}")
    close(v["coefficients"][0], 1.0, 1e-10, "leading coefficient after disentangling_tps")


def session(rng: np.random.Generator, tag: str, d: int, kind: str, bij: str) -> list[Request]:
    psi = make_state(kind, d, rng)
    state, out = f"{tag}-state.json", f"{tag}-refactored.json"
    write_json(state, state_doc(psi, d, d))
    if bij == "sumdiff":
        fa, fb = ora.sum_diff_map(d)
    elif bij == "swap":
        fa, fb = ora.swap_map(d)
    else:
        fa, fb = random_map(rng, d)
        bij = f"{tag}-bijection.json"
        write_json(bij, bijection_doc(fa, fb))
    c = psi.reshape(d, d)
    c_new = ora.relabeled(c, fa, fb)
    return [
        Request(f"refactor-{d}", partial(check_refactor, out=out, psi=psi, d=d),
                argv=["refactor", state, "--bijection", bij, "--out", out], writes=(out,)),
        Request(f"schmidt-refactored-{d}", partial(check_schmidt, c=c_new), argv=["schmidt", out]),
        Request(f"schmidt-trivial-{d}", partial(check_schmidt, c=c), argv=["schmidt", state]),
        Request(f"qcf-local-{d}", partial(check_qcf, c=c_new),
                argv=["qcf", out, "--obs-a", "position", "--obs-b", "position", "--local"]),
        Request(f"disentangle-{d}", partial(check_disentangled, d=d),
                call=partial(disentangle_then_schmidt, psi, d), units=1),
    ]


def tps_files_malformed(rng: np.random.Generator, tag: str, state: str, d: int, which: int) -> Request:
    if which == 0:
        with open(state, encoding="utf-8") as fh:
            text = fh.read()
        write_text(f"{tag}-bad.json", text[: int(rng.integers(1, len(text) - 1))])
        return malformed("json", ["schmidt", f"{tag}-bad.json"], 2)
    if which == 1:
        small = 3  # any factor size other than d
        eye = np.eye(small * small).ravel()
        write_json(f"{tag}-tps.json", {"d1": small, "d2": small,
                                       "unitary": [[float(v), 0.0] for v in eye]})
        return malformed("tps-dims", ["schmidt", state, "--tps", f"{tag}-tps.json"], 3)
    if which == 2:
        name = UNKNOWN_OBSERVABLES[int(rng.integers(len(UNKNOWN_OBSERVABLES)))]
        return malformed("observable", ["qcf", state, "--obs-a", name, "--obs-b", "position",
                                        "--local"], 4)
    fa, fb = random_map(rng, d)
    src, dst = rng.choice(d * d, size=2, replace=False)
    fa.flat[src], fb.flat[src] = fa.flat[dst], fb.flat[dst]
    write_json(f"{tag}-dup.json", bijection_doc(fa, fb))
    out = f"{tag}-not-written.json"
    return malformed("bijection", ["refactor", state, "--bijection", f"{tag}-dup.json",
                                   "--out", out], 6, writes=(out,))


def tps_files_round(rng: np.random.Generator, r: int) -> list[Request]:
    tag, reqs = f"r{r}", []
    for s, d in enumerate(SESSION_DIMS):
        n = r * len(SESSION_DIMS) + s
        reqs += session(rng, f"{tag}-{s}", d, STATE_KINDS[n % 3], BIJECTIONS[n // 3 % 3])
    reqs.append(tps_files_malformed(rng, tag, f"{tag}-0-state.json", SESSION_DIMS[0], r % 4))
    return reqs
