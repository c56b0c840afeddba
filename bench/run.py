"""tpslab benchmark: one closed-loop client driving tpslab in-process.

    python3 bench/run.py --workload {bell,spins,coords,tps-files} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; tpslab is imported from `src/`.
With `--trace 0` it runs rounds of requests for S seconds of request time,
scaled to a nominal host speed (see REF_NOMINAL_S), and reports the
end-to-end metrics; cold starts are scaled the same way.  With `--trace 1` it runs
a fixed number of rounds, each once untraced and once traced, and reports
per-layer metrics.  Every request's output is checked by an independent
numpy route.  The last line of stdout is one JSON object; full results
(environment, per-request-type latencies, failures, spans, per-layer
tables) go to `bench/results/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: at most nproc on any host, and steady on a shared one.
BLAS_THREADS = 1
BLAS_ENV = {k: str(BLAS_THREADS) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")}

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
WORK = ROOT / "bench" / ".work"
WORKLOADS = ("bell", "spins", "coords", "tps-files")
SETUP_REPEATS = 21
TAIL_BEYOND = 10
# Time of the `Reference` kernel at this host type's usual speed.  Request
# and cold-start times are scaled by REF_NOMINAL_S / (mean of the reference
# times read just before and after each cold start or stretch of about
# SEGMENT_S of requests), so a shared host's speed swings (+-20% over
# seconds, hitting Python and numpy alike) cancel; the raw wall times are
# kept in the detail record.
REF_NOMINAL_S = 0.002
SEGMENT_S = 0.25  # request time between two readings of the reference kernel
RAW_LIMIT = 1.25  # a run's requests stop after this many times --seconds of raw request time


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def blas_threads_in_use() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo", encoding="utf-8") as fh:
        mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "host_note": "shared host: other tenants' load adds noise to every timing",
    }


class Reference:
    """A fixed kernel independent of tpslab whose time tracks the host's
    current speed.  It mixes the kinds of work the workloads do: JSON text
    round trips, an interpreter loop, many tiny numpy calls, a small SVD and
    a complex matmul."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.data = [[i * 0.37, -i * 1.1] for i in range(150)]
        self.vec = rng.normal(size=64) + 1j * rng.normal(size=64)
        self.small = rng.normal(size=(32, 32))
        self.mid = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))

    def seconds(self) -> float:
        """Median of three timings of the kernel."""
        gc.collect()  # garbage the requests left is not charged to the reference
        np, v = self.np, self.vec
        times = []
        for _ in range(3):
            t0 = perf_counter()
            json.loads(json.dumps(self.data))
            acc = 0
            for i in range(2000):
                acc += i * i
            for _ in range(150):
                v = v - v * np.vdot(v, v) * 1e-3
            np.linalg.svd(self.small)
            self.mid @ self.mid
            times.append(perf_counter() - t0)
        return statistics.median(times)


def cold_start(version: str, loop: "Loop") -> float:
    """Wall time of a fresh interpreter running `python -m tpslab.cli --version`;
    a wrong answer counts as a failure."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tpslab.cli", "--version"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    loop.attempted += 1
    if proc.returncode != 0 or proc.stdout.strip() != f"tpslab {version}":
        loop.failures.append(f"cold start: exit {proc.returncode}, stdout {proc.stdout[:80]!r}")
    return elapsed


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency with exactly TAIL_BEYOND requests above it, and its percentile."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Loop:
    """Runs rounds of requests one after another, checking each result."""

    def __init__(self, workload: str, seed: int):
        from workloads import make_round

        self.workload, self.seed, self.make_round = workload, seed, make_round
        self.attempted = 0
        self.failures: list[str] = []

    def run_one(self, req, tracer=None) -> tuple:
        """Execute and check one request: (latency, kind, units, bytes, fingerprint)."""
        from harness import execute, out_bytes, verify

        if tracer is not None:
            tracer.request = self.attempted
        elapsed, outcome = execute(req)
        self.attempted += 1
        problem = verify(req, outcome)
        if problem is not None:
            self.fail(req, problem)
        return elapsed, req.kind, req.units, out_bytes(outcome), outcome.fingerprint()

    def run_round(self, reqs, tracer=None) -> list[tuple]:
        return [self.run_one(req, tracer) for req in reqs]

    def fail(self, req, problem: str) -> None:
        self.failures.append(f"{req.kind} {req.argv or 'library call'}: {problem}")


def measure(args, loop: Loop, version: str) -> tuple[list, int, list, list[float]]:
    """Whole rounds of requests until their scaled time reaches `args.seconds`
    (at least one round), as (scaled latency, raw latency, kind, units, bytes)
    per request; SETUP_REPEATS cold starts, as (scaled, raw) seconds, taken
    between rounds and spread over the run; and the reference readings.
    Counting scaled rather than wall time keeps the number of requests, and
    with it the tail's percentile, the same whether the host is having a slow
    or a fast minute."""
    loop.run_round(loop.make_round(args.workload, args.seed, 0))  # warm-up, not timed
    reference = Reference()
    records, rounds, setup, refs = [], 0, [], [reference.seconds()]
    scaled = busy = 0.0

    def timed_cold_start() -> None:
        raw = cold_start(version, loop)
        refs.append(reference.seconds())
        setup.append((raw * 2.0 * REF_NOMINAL_S / (refs[-2] + refs[-1]), raw))

    # a very slow host ends the run early instead of stretching it without limit
    while rounds == 0 or (scaled < args.seconds and busy < RAW_LIMIT * args.seconds):
        rounds += 1
        reqs = loop.make_round(args.workload, args.seed, rounds)
        segment = []
        for req in reqs:
            segment.append(loop.run_one(req))
            if req is reqs[-1] or sum(d[0] for d in segment) >= SEGMENT_S:
                refs.append(reference.seconds())
                scale = 2.0 * REF_NOMINAL_S / (refs[-2] + refs[-1])
                records += [(d[0] * scale, d[0], d[1], d[2], d[3]) for d in segment]
                busy += sum(d[0] for d in segment)
                scaled += scale * sum(d[0] for d in segment)
                segment = []
        while len(setup) < SETUP_REPEATS * min(1.0, scaled / args.seconds):
            timed_cold_start()
    while len(setup) < SETUP_REPEATS:
        timed_cold_start()
    return records, rounds, setup, refs


def end_to_end(args, loop: Loop, env: dict) -> tuple[dict, dict]:
    from workloads import UNITS

    records, rounds, setup, refs = measure(args, loop, env["tpslab"])
    lat = [r[0] for r in records]
    raw = [r[1] for r in records]
    busy = sum(lat)
    tail_s, tail_pct = tail(lat)
    error_rate = len(loop.failures) / loop.attempted
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setup), "s"),
        "req_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "req_tail_ms": (1e3 * tail_s, "ms"),
        "work_per_s": (sum(r[3] for r in records) / busy, "1/s"),
        "success_rate": (1.0 - error_rate, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "out_bytes": (sum(r[4] for r in records) / len(records), "bytes"),
    }
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r[2], []).append(r[0])
    detail = {
        "error_rate": error_rate,
        "setup_runs_s": [s[0] for s in setup],
        "raw_setup_runs_s": [s[1] for s in setup],
        "raw_setup_s": statistics.median(s[1] for s in setup),
        "rounds": rounds,
        "requests": len(records),
        "tail_percentile": tail_pct,
        "requests_beyond_tail": TAIL_BEYOND,
        "request_seconds": busy,
        "raw_request_seconds": sum(raw),
        "reference_readings": len(refs),
        "reference_ms": {"p50": 1e3 * statistics.median(refs), "min": 1e3 * min(refs),
                         "max": 1e3 * max(refs)},
        "raw_req_p50_ms": 1e3 * statistics.median(raw),
        "raw_req_tail_ms": 1e3 * tail(raw)[0],
        "work_unit": UNITS[args.workload],
        "work_units": sum(r[3] for r in records),
        "latency_ms_by_kind": {k: {"n": len(v), "p50": 1e3 * statistics.median(v),
                                   "max": 1e3 * max(v)} for k, v in sorted(kinds.items())},
    }
    return metrics, detail


def traced(args, loop: Loop, stem: str) -> tuple[dict, dict]:
    from tracer import METRICS, Tracer, layer_table
    from workloads import TRACE_ROUNDS

    loop.run_round(loop.make_round(args.workload, args.seed, 0))  # warm-up
    rounds = [loop.make_round(args.workload, args.seed, r + 1)
              for r in range(TRACE_ROUNDS[args.workload])]
    tracer = Tracer()
    wall = untraced = 0.0
    # each round runs untraced and traced back to back, alternating which goes
    # first, so drift in the host's speed does not land on one side
    for i, reqs in enumerate(rounds):
        runs = {}
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                runs[with_trace] = loop.run_round(reqs, tracer=tracer if with_trace else None)
            finally:
                tracer.uninstall()
        for req, plain, traced_run in zip(reqs, runs[False], runs[True]):
            if plain[4] != traced_run[4]:
                loop.fail(req, "traced output differs from the untraced output")
        untraced += sum(d[0] for d in runs[False])
        wall += sum(d[0] for d in runs[True])
    values = tracer.metrics(wall, untraced)
    tracer.write_spans(RESULTS / f"{stem}.spans.tsv.gz")
    table = layer_table(values)
    (RESULTS / f"{stem}.layers.md").write_text(table, encoding="utf-8")
    print(table)
    metrics = {name: (values[name], unit) for name, unit, _ in METRICS}
    return metrics, {"rounds": len(rounds), "requests": sum(len(r) for r in rounds)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tpslab" / "__init__.py").is_file():
        print(f"bench: no tpslab source at {SRC / 'tpslab'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tpslab

    if Path(tpslab.__file__).resolve().parent != (SRC / "tpslab").resolve():
        print(f"bench: imported tpslab from {tpslab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = dict(environment(), tpslab=tpslab.__version__)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / stem
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    here = os.getcwd()
    os.chdir(work)  # requests name their files relative to the work directory
    try:
        loop = Loop(args.workload, args.seed)
        if args.trace:
            metrics, detail = traced(args, loop, stem)
        else:
            metrics, detail = end_to_end(args, loop, env)
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, detail=detail,
                  failures=loop.failures[:50])
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in loop.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.environ.update(BLAS_ENV)  # numpy is first imported inside main()
    sys.exit(main())
