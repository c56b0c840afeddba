"""Property tests for matrix files, the observables of ``qcf``.

Each test draws a state on a grid of at most 4 x 4, a Hermitian matrix for
one factor and an optional mutation of its file, and runs ``qcf --local``
with the file on that factor and ``position`` on the other.  The CLI must
exit 0 on an unmutated file, with the covariance of the trace formula
computed here, and exit 2 or 3 with one ``error:`` line on the rest.  A
``huge`` mutation writes a Hermitian pair of entries near the double range,
whose products would overflow the covariance; the explicit examples are
files of that kind that once ended in a traceback or a warning.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpslab.cli import main

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200, database=None)
MUTATIONS = (None, "bool", "numeric-string", "nan", "wrong-count", "wrong-dim",
             "non-hermitian", "not-an-object", "non-utf8", "huge")


@dataclass
class Case:
    d1: int
    d2: int
    left: bool  # whether the file is the observable of factor 1
    mutation: str | None
    k: int  # the entry the mutation changes
    part: int  # 0 for the real part of that entry, 1 for the imaginary part
    flag: bool  # the boolean written, whether a wrong count or dim grows, or a huge entry is 1e308
    seed: int
    file: dict | None = None  # a file written as it is, in place of the drawn matrix


@st.composite
def cases(draw) -> Case:
    d1, d2, left = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.booleans())
    n = d1 if left else d2
    return Case(d1, d2, left, draw(st.sampled_from(MUTATIONS)), draw(st.integers(0, n * n - 1)),
                draw(st.integers(0, 1)), draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


def position(n: int) -> np.ndarray:
    return np.diag(np.arange(n) - (n - 1) / 2.0)


def matrix_bytes(case: Case, a: np.ndarray) -> bytes:
    """The file holding a, changed by the case's mutation."""
    n = a.shape[0]
    entries = [[z.real, z.imag] for z in a.ravel().tolist()]
    doc = {"dim": n, "entries": entries}
    m, k, part = case.mutation, case.k, case.part
    if m == "bool":
        entries[k][part] = case.flag
    elif m == "numeric-string":
        entries[k][part] = str(entries[k][part])
    elif m == "nan":
        entries[k][part] = float("nan")
    elif m == "wrong-count":
        doc["entries"] = entries + [[0.0, 0.0]] if case.flag else entries[:-1]
    elif m == "wrong-dim":
        doc["dim"] = n + 1 if case.flag else n - 1
    elif m == "non-hermitian":  # A_ij + i, with A_ji left as it was
        entries[k][1] += 1.0
    elif m == "not-an-object":
        doc = entries
    elif m == "huge":  # a_ij and a_ji = conj(a_ij), or a real diagonal a_ii
        i, j = divmod(k, n)
        part = part if i != j else 0
        value = (1e308 if case.flag else 1e200) * (-1) ** (i + j)
        entries[k][part] = value
        entries[j * n + i][part] = value if part == 0 else -value
    text = json.dumps(doc).encode()
    return b"\xff\xfe" + text if m == "non-utf8" else text


def run(argv: list) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def huge_example(entries: list) -> Case:
    return Case(2, 2, True, "huge", 0, 0, True, 0, {"dim": 2, "entries": entries})


@SETTINGS
@given(cases())
@example(huge_example([[1e308, 0.0]] * 4))
@example(huge_example([[1e200, 0.0], [0.0, 0.0], [0.0, 0.0], [1e200, 0.0]]))
@example(huge_example([[1e308, 0.0], [1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]]))
def test_qcf_local_reads_a_matrix_file_or_exits_with_one_error_line(case):
    rng = np.random.default_rng(case.seed)
    d1, d2 = case.d1, case.d2
    n = d1 if case.left else d2
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    matrix = (g + g.conj().T) / 2
    a, b = (matrix, position(d2)) if case.left else (position(d1), matrix)
    c = rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2))
    c /= np.linalg.norm(c)
    state = {"dims": [d1, d2], "amplitudes": [[z.real, z.imag] for z in c.ravel().tolist()]}
    with tempfile.TemporaryDirectory() as tmp:
        state_path, mat, report = (Path(tmp, name) for name in
                                   ("state.json", "matrix.json", "report.json"))
        state_path.write_text(json.dumps(state))
        mat.write_bytes(matrix_bytes(case, matrix) if case.file is None else
                        json.dumps(case.file).encode())
        obs = ["--obs-a", str(mat), "--obs-b", "position"] if case.left else \
              ["--obs-a", "position", "--obs-b", str(mat)]
        code, err = run(["qcf", str(state_path), *obs, "--local", "--out", str(report)])
        if case.mutation is not None:
            assert code in (2, 3), (code, err)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return
        assert (code, err) == (0, "")
        value = complex(*json.loads(report.read_text())["value"])
    # <A(x)B> - <A(x)1><1(x)B> with psi_ij = c_ij
    cross = np.einsum("ij,ik,jl,kl->", c.conj(), a, b, c)
    wanted = cross - np.einsum("ij,ik,kj->", c.conj(), a, c) * np.einsum("ij,jl,il->", c.conj(), b, c)
    assert abs(value - wanted) <= 1e-12
