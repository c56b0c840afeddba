"""Property tests for the flags of ``demo coords``, ``demo spins`` and ``demo bell``.

Each case draws one argv from ordinary and extreme flag values and runs it in
process.  The run must exit 0 with a parseable report and empty stderr, or
exit 2, 3 or 5 with one ``error:`` line; a usage error is argparse's
``SystemExit(2)``, whose last stderr line holds ``error:`` after the program
name.  Values are passed as ``--flag=value``, so that argparse does not read
``-inf`` as a flag.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tpslab.cli import main

SETTINGS = settings(derandomize=True, deadline=None, max_examples=250, database=None)



def mostly(ordinary, extreme):
    """Ordinary values three times in four, extreme ones otherwise."""
    return st.integers(0, 3).flatmap(lambda k: extreme if k == 0 else ordinary)


GRID_SIZES = mostly(
    st.integers(1, 32).map(lambda k: 2 * k + 1),  # odd 3..65
    st.one_of(st.integers(0, 33).map(lambda k: 2 * k), st.sampled_from([1, -3, 1025, 10**400 + 1])),
)
WIDTHS = mostly(
    st.floats(0.3, 4.0),
    st.one_of(st.floats(-4.0, -0.1), st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                                     0.0, -0.0, 1e-170, 1e200, 1e308])),
)
FORMATS = st.sampled_from(["json", "csv"])


def run(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2, argv
            code = "usage"
    return code, out.getvalue(), err.getvalue()


def check(argv: list, fmt: str, rows: int) -> None:
    """One documented outcome: a report of `rows` CSV rows, or an error line."""
    code, out, err = run(argv)
    if code == 0:
        assert err == "", argv
        if fmt == "json":
            assert json.loads(out)["manifest"]["subcommand"] == "demo", argv
        else:
            lines = out.splitlines()
            assert len(lines) == 1 + rows, argv
            for line in lines[1:]:
                [float(cell) for cell in line.split(",")]
    elif code == "usage":
        assert ": error: " in err.splitlines()[-1], argv
    else:
        assert code in (2, 3, 5), (argv, code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@SETTINGS
@given(d=GRID_SIZES, sigma1=WIDTHS, sigma2=WIDTHS, sep=WIDTHS, fmt=FORMATS)
def test_demo_coords_flags_exit_with_a_report_or_one_error_line(d, sigma1, sigma2, sep, fmt):
    argv = ["demo", "coords", f"--d={d}", f"--sigma1={sigma1!r}", f"--sigma2={sigma2!r}",
            f"--sep={sep!r}", f"--format={fmt}"]
    check(argv, fmt, 11)


@SETTINGS
@given(
    which=st.sampled_from(["spins", "bell"]),
    samples=st.one_of(st.integers(1, 64), st.sampled_from([0, 1048577])),
    seed=st.one_of(st.integers(0, 2**32), st.integers(0, 10**400 - 1)),
    fmt=FORMATS,
)
def test_sampling_demo_flags_exit_with_a_report_or_one_error_line(which, samples, seed, fmt):
    argv = ["demo", which, f"--samples={samples}", f"--seed={seed}", f"--format={fmt}"]
    check(argv, fmt, samples)
