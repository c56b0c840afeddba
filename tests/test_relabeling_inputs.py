"""Property tests for the inputs that carry a relabeling.

A relabeling reaches the program three ways: as targets handed to
``IndexBijection``, as the ``map`` of a state file's TPS block, and as a
``[i, j, a, b]`` bijection file for ``refactor``.  Each test draws a grid of
at most 6 x 6, a permutation of its indices and an optional mutation of it.
The library constructor must accept exactly the permutations; the CLI must
exit 0 on those and exit 2, 3 or 6 with one ``error:`` line on the rest, and
its Schmidt coefficients must be the singular values of the scatter computed
here.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tpslab.cli import main
from tpslab.errors import BijectionError, ShapeError
from tpslab.tps import IndexBijection

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200, database=None)
MUTATIONS = (None, "duplicate", "negative", "off-grid", "huge", "bool", "float", "string",
             "wrong-length", "missing-source")


@dataclass
class Case:
    d1: int
    d2: int
    targets: list  # a permutation of range(d1 * d2)
    base: list  # a second permutation, the map of the state that refactor relabels
    mutation: str | None
    k: int  # the index of the entry the mutation changes
    field: int  # in a bijection file entry [i, j, a, b], the number it changes
    flag: bool  # the boolean written, or whether a wrong-length list grows
    seed: int


@st.composite
def cases(draw) -> Case:
    d1, d2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dim = d1 * d2
    return Case(d1, d2, draw(st.permutations(range(dim))), draw(st.permutations(range(dim))),
                draw(st.sampled_from(MUTATIONS)), draw(st.integers(0, dim - 1)),
                draw(st.integers(0, 3)), draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


def mutate(values: list, k: int, mutation: str | None, bound: int, flag: bool) -> list:
    """A copy of values (integers below bound) with entry k changed by the mutation."""
    out = list(values)
    if mutation == "duplicate":
        out[k] = out[(k + 1) % len(out)]
    elif mutation == "negative":
        out[k] = -1 - out[k]
    elif mutation == "off-grid":
        out[k] += bound
    elif mutation == "huge":
        out[k] = 10**29
    elif mutation == "bool":
        out[k] = flag
    elif mutation == "float":
        out[k] = float(out[k])
    elif mutation == "string":
        out[k] = str(out[k])
    elif mutation == "wrong-length":
        out = out + [0] if flag else out[:-1]
    elif mutation == "missing-source":
        del out[k]
    return out


def as_permutation(values, dim: int, is_integer) -> np.ndarray | None:
    """values as an array if they are integers forming a permutation of range(dim), else None."""
    if len(values) == dim and all(is_integer(x) for x in values) and sorted(values) == list(range(dim)):
        return np.array(values, dtype=int)
    return None


def json_integer(x) -> bool:
    return type(x) is int


def file_targets(entries: list, d1: int, d2: int) -> np.ndarray | None:
    """The targets of bijection file entries, or None if they are not a bijection of the grid."""
    if not all(isinstance(e, list) and len(e) == 4 and all(map(json_integer, e)) for e in entries):
        return None
    if not all(0 <= i < d1 and 0 <= j < d2 and 0 <= a < d1 and 0 <= b < d2
               for i, j, a, b in entries):
        return None
    sources = as_permutation([i * d2 + j for i, j, _, _ in entries], d1 * d2, json_integer)
    images = as_permutation([a * d2 + b for _, _, a, b in entries], d1 * d2, json_integer)
    if sources is None or images is None:
        return None
    targets = np.empty(d1 * d2, dtype=int)
    targets[sources] = images
    return targets


def state_doc(case: Case, psi: np.ndarray, labels: list | None) -> dict:
    doc = {"dims": [case.d1, case.d2], "amplitudes": [[v.real, v.imag] for v in psi.tolist()]}
    if labels is not None:
        doc["tps"] = {"d1": case.d1, "d2": case.d2, "map": labels}
    return doc


def haar(case: Case) -> np.ndarray:
    rng = np.random.default_rng(case.seed)
    psi = rng.normal(size=case.d1 * case.d2) + 1j * rng.normal(size=case.d1 * case.d2)
    return psi / np.linalg.norm(psi)


def run(argv: list) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_outcome(code: int, err: str, expected: np.ndarray | None, psi, case, report: Path):
    """Exit 0 exactly when the input is a bijection, with the coefficients of the scatter."""
    if expected is None:
        assert code in (2, 3, 6), (code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert (code, err) == (0, "")
    c = np.zeros(case.d1 * case.d2, dtype=complex)
    c[expected] = psi
    wanted = np.linalg.svd(c.reshape(case.d1, case.d2), compute_uv=False)
    coefficients = json.loads(report.read_text())["coefficients"]
    np.testing.assert_allclose(coefficients, wanted, rtol=0, atol=1e-12)


@SETTINGS
@given(cases())
def test_index_bijection_accepts_exactly_the_permutations(case):
    dim = case.d1 * case.d2
    targets = mutate(case.targets, case.k, case.mutation, dim, case.flag)
    # a bool is refused, even among integers, where numpy would store it as 0 or 1
    expected = as_permutation(targets, dim, json_integer)
    try:
        bij = IndexBijection(case.d1, case.d2, targets)
    except (BijectionError, ShapeError):
        assert expected is None
    else:
        assert expected is not None
        assert np.array_equal(bij.targets, expected)


@SETTINGS
@given(cases())
def test_schmidt_reads_a_tps_map_or_exits_with_one_error_line(case):
    dim = case.d1 * case.d2
    labels = mutate(case.targets, case.k, case.mutation, dim, case.flag)
    psi = haar(case)
    with tempfile.TemporaryDirectory() as tmp:
        state, report = Path(tmp, "state.json"), Path(tmp, "report.json")
        state.write_text(json.dumps(state_doc(case, psi, labels)))
        code, err = run(["schmidt", str(state), "--out", str(report)])
        check_outcome(code, err, as_permutation(labels, dim, json_integer), psi, case, report)


@SETTINGS
@given(cases())
def test_refactor_reads_a_bijection_file_or_exits_with_one_error_line(case):
    d1, d2 = case.d1, case.d2
    entries = [[*divmod(g, d2), *divmod(t, d2)] for g, t in enumerate(case.targets)]
    np.random.default_rng(case.seed).shuffle(entries)
    if case.mutation == "duplicate" and case.field < 2:  # entry k, twice
        entries.append(list(entries[case.k]))
    elif case.mutation == "duplicate":  # the image of the next entry, again
        entries[case.k][2:] = entries[(case.k + 1) % len(entries)][2:]
    elif case.mutation == "missing-source":
        del entries[case.k]
    elif case.mutation is not None:
        bound = d1 if case.field % 2 == 0 else d2
        entries[case.k] = mutate(entries[case.k], case.field, case.mutation, bound, case.flag)
    psi = haar(case)
    with tempfile.TemporaryDirectory() as tmp:
        state, bij, out, report = (Path(tmp, name) for name in
                                   ("state.json", "bij.json", "out.json", "report.json"))
        state.write_text(json.dumps(state_doc(case, psi, case.base)))
        bij.write_text(json.dumps({"map": entries}))
        code, err = run(["refactor", str(state), "--bijection", str(bij), "--out", str(out)])
        expected = file_targets(entries, d1, d2)
        if code == 0:  # the state's labels, relabeled by the file
            assert expected is not None, entries
            code, err = run(["schmidt", str(out), "--out", str(report)])
            expected = expected[case.base]
        else:
            assert not out.exists()
        check_outcome(code, err, expected, psi, case, report)
