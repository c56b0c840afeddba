"""One benchmark request: how it is run against tpslab, and how its result is judged.

A CLI request is a `tpslab.cli.main(argv)` call made in this process with
stdout and stderr captured; a library request calls public `tpslab`
functions.  Both are looked up at call time, so the traced run's wrappers
see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import tpslab.cli


class CheckFailed(Exception):
    """A request's output disagrees with the benchmark's independent route."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual: float, wanted: float, tol: float, what: str) -> None:
    expect(abs(actual - wanted) <= tol, f"{what}: {actual!r} vs independent {wanted!r} (tol {tol:g})")


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    files: dict[str, bytes] = field(default_factory=dict)
    value: object = None
    uncaught: str | None = None

    def report(self) -> dict:
        return json.loads(self.stdout)

    def fingerprint(self) -> str:
        """Digest of everything the request produced, for traced/untraced comparison."""
        h = hashlib.sha256()
        h.update(repr((self.code, self.stdout, self.stderr, self.uncaught)).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name])
        if self.value is not None:
            h.update(repr(sorted(self.value.items(), key=lambda kv: kv[0])).encode())
        return h.hexdigest()


@dataclass
class Request:
    """`kind` groups requests for per-type statistics; `units` is the work it
    completes in the workload's unit; `writes` lists files it creates."""

    kind: str
    check: Callable[[Outcome], None]
    argv: list[str] | None = None
    call: Callable[[], dict] | None = None
    expect_code: int = 0
    writes: tuple[str, ...] = ()
    units: float = 0.0


def execute(req: Request) -> tuple[float, Outcome]:
    """Run one request; returns its wall time in seconds and what it produced."""
    out, err = io.StringIO(), io.StringIO()
    code, value, uncaught = None, None, None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if req.argv is not None:
                code = tpslab.cli.main(req.argv)
            else:
                value = req.call()
                code = 0
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught exception is a traceback for a CLI user
        uncaught = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    elapsed = perf_counter() - t0
    files = {p: Path(p).read_bytes() for p in req.writes if Path(p).is_file()}
    return elapsed, Outcome(code, out.getvalue(), err.getvalue(), files, value, uncaught)


def verify(req: Request, outcome: Outcome) -> str | None:
    """None if the request behaved as documented, else why it failed."""
    if outcome.uncaught is not None:
        return f"uncaught exception: {outcome.uncaught}"
    if outcome.code != req.expect_code:
        return f"exit code {outcome.code}, expected {req.expect_code}: {outcome.stderr.strip()[:200]}"
    if "Traceback" in outcome.stderr:
        return "traceback on stderr"
    try:
        req.check(outcome)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    return None


def out_bytes(outcome: Outcome) -> int:
    """Bytes a request wrote: its report on stdout plus the files it created."""
    return len(outcome.stdout.encode()) + sum(len(b) for b in outcome.files.values())


def error_line(outcome: Outcome) -> None:
    """Malformed input must end with nothing on stdout and one `error:` line on stderr."""
    expect(outcome.stdout == "", "output on stdout for a rejected input")
    lines = outcome.stderr.splitlines()
    expect(len(lines) == 1 and lines[0].startswith("error: "),
           f"stderr is not one 'error:' line: {outcome.stderr[:200]!r}")
