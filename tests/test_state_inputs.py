"""Property tests for state files: amplitudes and the ``unitary`` and ``reflector`` TPS blocks.

Each test draws a state on a grid of at most 3 x 3, an optional TPS block
holding a Haar unitary or a random reflector vector, and an optional mutation
of one block: an entry replaced by an ordinary or an extreme value (1e308,
1e-320, NaN and infinity literals, a boolean, a 400-digit integer, numeric
text), every entry replaced by one such value, or a malformed shape.  The file
goes through ``schmidt``, ``chsh``, ``qcf --local`` and ``refactor --spectrum
product``.  Each run must exit 0 with a report that agrees with the numbers
computed here from the file, or exit 2 or 3 with one ``error:`` line and
nothing else on stderr: no warning either, as a fresh process would print it.
"""

import contextlib
import io
import json
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from demo_oracle import chsh_closed_form
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpslab.cli import main
from tpslab.statefile import load_state_file

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150, database=None)
VALUES = (0.0, 0.5, -3.0, 1e308, -1e308, 1e-320, -1e-320, float("nan"), float("inf"),
          float("-inf"), True, False, 10**400, -(10**400), "0.5")
SHAPES = ("short", "long", "triple", "scalar", "not-a-list")
DIMS = ((2, 2), (2, 2), (1, 3), (3, 2), (3, 3))


@dataclass
class Case:
    d1: int
    d2: int
    rotation: str | None  # "unitary", "reflector" or no TPS block
    block: str  # "amplitudes" or the rotation's key: the block the mutation changes
    mutation: str | None  # "entry", "fill", one of SHAPES, or None
    value: object  # what "entry" and "fill" write
    k: int  # the entry "entry" changes
    part: int  # 0 for the real part of that entry, 1 for the imaginary part
    seed: int


@st.composite
def cases(draw) -> Case:
    d1, d2 = draw(st.sampled_from(DIMS))
    rotation = draw(st.sampled_from((None, "unitary", "reflector")))
    block = draw(st.sampled_from(("amplitudes",) if rotation is None else ("amplitudes", rotation)))
    size = (d1 * d2) ** 2 if block == "unitary" else d1 * d2
    return Case(d1, d2, rotation, block,
                draw(st.sampled_from((None, "entry", "entry", "fill") + SHAPES)),
                draw(st.sampled_from(VALUES)), draw(st.integers(0, size - 1)),
                draw(st.integers(0, 1)), draw(st.integers(0, 2**32 - 1)))


def pairs(z: np.ndarray) -> list:
    return [[v.real, v.imag] for v in z.ravel().tolist()]


def state_doc(case: Case) -> dict:
    """The state file of the case: a random unit state, its TPS block, then the mutation."""
    rng = np.random.default_rng(case.seed)
    dim = case.d1 * case.d2
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    doc = {"dims": [case.d1, case.d2], "amplitudes": pairs(psi / np.linalg.norm(psi))}
    if case.rotation == "unitary":
        q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        doc["tps"] = {"d1": case.d1, "d2": case.d2, "unitary": pairs(q * np.sign(np.diag(r)))}
    elif case.rotation == "reflector":
        w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        doc["tps"] = {"d1": case.d1, "d2": case.d2, "reflector": pairs(w)}
    holder = doc if case.block == "amplitudes" else doc["tps"]
    entries = holder[case.block]
    m = case.mutation
    if m == "entry":
        entries[case.k][case.part] = case.value
    elif m == "fill":
        holder[case.block] = [[case.value, case.value] for _ in entries]
    elif m == "short":
        holder[case.block] = entries[:-1]
    elif m == "long":
        holder[case.block] = entries + [[0.0, 0.0]]
    elif m == "triple":
        entries[case.k].append(0.0)
    elif m == "scalar":
        entries[case.k] = 0.5
    elif m == "not-a-list":
        holder[case.block] = {"re": 0.5}
    return doc


def coefficients(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """The file's state, normalized, and its d1 x d2 coefficients in the file's TPS."""
    d1, d2 = doc["dims"]
    psi = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    psi /= np.linalg.norm(psi)
    c = psi
    tps = doc.get("tps", {})
    if "unitary" in tps:
        u = np.array([complex(re, im) for re, im in tps["unitary"]]).reshape(d1 * d2, d1 * d2)
        c = u.conj().T @ psi
    elif "reflector" in tps:
        w = np.array([complex(re, im) for re, im in tps["reflector"]])
        c = psi - 2.0 * w * np.vdot(w, psi) / np.vdot(w, w).real
    return psi, c.reshape(d1, d2)


def run(argv: list) -> tuple[int, str, list]:
    """Exit code, stderr and the warnings of one in-process run, every warning shown."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


def check_report(command: str, doc: dict, out: Path) -> None:
    """A report that exited 0 agrees with the numbers computed from the file."""
    psi, c = coefficients(doc)
    values = np.linalg.svd(c, compute_uv=False)
    if command == "refactor":
        sf = load_state_file(str(out))
        np.testing.assert_allclose(sf.amplitudes, psi, rtol=0, atol=1e-12)
        _, product = coefficients(json.loads(out.read_text()))
        assert np.linalg.svd(product, compute_uv=False)[1:].max(initial=0.0) <= 1e-9
        return
    report = json.loads(out.read_text())
    if command == "schmidt":
        rank = report["rank"]
        assert 1 <= rank <= min(c.shape) and report["factorizable"] == (rank == 1)
        np.testing.assert_allclose(report["coefficients"], values[:rank], rtol=0, atol=1e-9)
        assert values[rank:].max(initial=0.0) <= 1e-9
    elif command == "chsh":  # read, like the other reports, through the file's TPS
        wanted = chsh_closed_form(c.ravel())
        assert abs(report["value"] - wanted) <= 1e-9 and abs(report["closed_form"] - wanted) <= 1e-9
    else:  # qcf --local with position on both factors
        xa, xb = (np.arange(n) - (n - 1) / 2.0 for n in c.shape)
        p = np.abs(c) ** 2
        wanted = xa @ p @ xb - (xa @ p.sum(axis=1)) * (p.sum(axis=0) @ xb)
        assert abs(complex(*report["value"]) - wanted) <= 1e-9


@SETTINGS
@given(cases())
# the two overflows a fresh process printed as numpy warnings before its error line
@example(Case(2, 2, None, "amplitudes", "fill", 1e308, 0, 0, 1))
@example(Case(2, 2, "unitary", "unitary", "fill", 1e308, 0, 0, 1))
def test_a_state_file_gives_a_valid_report_or_one_error_line(case):
    doc = state_doc(case)
    with tempfile.TemporaryDirectory() as tmp:
        state, out = Path(tmp, "state.json"), Path(tmp, "out.json")
        state.write_text(json.dumps(doc))
        for command, flags in (("schmidt", []), ("chsh", []), ("refactor", ["--spectrum", "product"]),
                               ("qcf", ["--obs-a", "position", "--obs-b", "position", "--local"])):
            code, err, caught = run([command, str(state), *flags, "--out", str(out)])
            if code == 0:
                assert (err, caught) == ("", []), (command, err, caught)
                check_report(command, doc, out)
                continue
            assert code in (2, 3), (command, code, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
            assert caught == [], (command, caught)
            if case.mutation is None:  # only chsh may refuse an unmutated file: not two qubits
                assert (command, code) == ("chsh", 3) and (case.d1, case.d2) != (2, 2)
