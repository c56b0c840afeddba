"""CHSH: raw values, the closed-form settings, and the iterative search oracle."""

import itertools

import numpy as np
import pytest
from chsh_oracle import (
    bloch_direction,
    chsh_at,
    chsh_search,
    correlation_matrix_by_directions,
    raw_chsh_value,
    spin_correlation_matrix,
)
from demo_oracle import bell_loop, chsh_closed_form
from samplers import random_product_state

from tpslab import bell
from tpslab.bell import ChshSettings, chsh_max, demo_bell
from tpslab.errors import ContractError, ShapeError, SizeLimitError
from tpslab.linalg import MAX_GLOBAL_DIM
from tpslab.sampling import haar_state, random_entangled_state
from tpslab.schmidt import schmidt
from tpslab.tps import trivial_tps

SQ2 = np.sqrt(2.0)
TSIRELSON_BOUND = 2.0 * SQ2
BELL = np.array([1, 0, 0, 1], dtype=complex) / SQ2

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
STANDARD = ChshSettings(a=Z, a_prime=X, b=(Z + X) / SQ2, b_prime=(Z - X) / SQ2)


def test_settings_require_unit_vectors():
    with pytest.raises(ContractError):
        ChshSettings(a=[0, 0, 2.0], a_prime=X, b=Z, b_prime=X)


def test_correlation_bell_zz():
    t = bell._correlation_matrix(BELL.reshape(2, 2))
    assert t[2, 2] == pytest.approx(1.0, abs=1e-12)
    assert t[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_chsh_bell_standard_angles():
    assert chsh_at(spin_correlation_matrix(BELL), STANDARD) == pytest.approx(2 * SQ2, abs=1e-9)


def test_chsh_product_states_respect_classical_bound():
    rng = np.random.default_rng(0)
    for _ in range(50):
        psi = random_product_state(2, 2, rng)
        val = chsh_at(spin_correlation_matrix(psi), STANDARD)
        assert abs(val) <= 2.0 + 1e-9


def test_chsh_degenerate_equal_settings():
    # the oracle's value at a = a' = b = b' = z against the library's T_zz
    s = ChshSettings(a=Z, a_prime=Z, b=Z, b_prime=Z)
    rng = np.random.default_rng(1)
    for _ in range(20):
        psi = haar_state(4, rng)
        val = chsh_at(spin_correlation_matrix(psi), s)
        assert abs(val - 2.0 * bell._correlation_matrix(psi.reshape(2, 2))[2, 2]) <= 1e-12
        assert abs(val) <= 2.0 + 1e-12


def test_correlation_matrix_bell():
    t = bell._correlation_matrix(BELL.reshape(2, 2))
    np.testing.assert_allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)


def test_closed_form_bell_is_tsirelson():
    assert chsh_max(BELL, trivial_tps(2, 2)).closed_form == pytest.approx(2 * SQ2, abs=1e-12)


def test_chsh_max_bell_state():
    res = chsh_max(BELL, trivial_tps(2, 2))
    assert res.value == pytest.approx(2 * SQ2, abs=1e-6)


def test_chsh_max_product_state_no_violation():
    rng = np.random.default_rng(2)
    for _ in range(10):
        psi = random_product_state(2, 2, rng)
        res = chsh_max(psi, trivial_tps(2, 2))
        assert res.value <= 2.0 + 1e-6


@pytest.mark.parametrize("theta", [np.pi / 8, 0.2, 0.7])
def test_chsh_max_schmidt_angle_family(theta):
    # cos(theta)|00> + sin(theta)|11> maximizes at 2 sqrt(1 + sin^2 2 theta)
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = np.cos(theta), np.sin(theta)
    expected = 2.0 * np.sqrt(1.0 + np.sin(2 * theta) ** 2)
    res = chsh_max(psi, trivial_tps(2, 2))
    assert res.value == pytest.approx(expected, abs=1e-5)
    assert res.closed_form == pytest.approx(expected, abs=1e-12)


def test_chsh_max_agrees_with_oracle_on_random_states():
    rng = np.random.default_rng(3)
    for _ in range(150):
        psi = haar_state(4, rng)
        res = chsh_max(psi, trivial_tps(2, 2))
        searched = chsh_search(psi)
        assert abs(res.value - searched) <= 1e-4
        assert searched <= res.value + 1e-9
        assert res.value <= TSIRELSON_BOUND + 1e-6
        # the reported value and closed form are reproducible through the
        # oracle's correlation matrix
        assert chsh_at(spin_correlation_matrix(psi), res.settings) == pytest.approx(
            res.value, abs=1e-12)
        assert res.closed_form == pytest.approx(chsh_closed_form(psi), abs=1e-12)


def _haar_and_product_states(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    products = [random_product_state(2, 2, rng) for _ in range(n // 2)]
    return np.concatenate([haar_state(4, rng, (n - n // 2,)), products])


def test_chsh_value_matches_the_raw_definition_one_state_at_a_time():
    # u^T T v summed over the four setting pairs against four correlations
    # read from the state itself
    for psi in _haar_and_product_states(10_000, 7):
        res = chsh_max(psi, trivial_tps(2, 2))
        s = res.settings
        raw = raw_chsh_value(psi, s.a, s.a_prime, s.b, s.b_prime)
        assert abs(res.value - raw) <= 4.5e-15


def test_chsh_value_matches_the_raw_definition_on_a_stack():
    psi = _haar_and_product_states(10_000, 8)
    values, _, settings = bell._chsh_max(psi.reshape(-1, 2, 2))
    assert values.shape == (10_000,)
    assert np.max(np.abs(values - raw_chsh_value(psi, *settings))) <= 4.5e-15


def test_chsh_max_reads_the_state_once(monkeypatch):
    # the only read of the state builds T; the value is a bilinear form on it
    calls = []
    correlation_matrix = bell._correlation_matrix

    def counting(c):
        calls.append(np.shape(c))
        return correlation_matrix(c)

    monkeypatch.setattr(bell, "_correlation_matrix", counting)
    psi = _haar_and_product_states(9, 9)
    bell._chsh_max(psi.reshape(-1, 2, 2))
    assert calls == [(9, 2, 2)]


def test_correlation_matrix_keeps_the_bits_of_the_direction_route():
    # T in one contraction against one correlation per pair of axes, bit for bit with
    # the sign of zero, on a stack and one state at a time; the entries from
    # {0, +-1, +-i, 1/2, sqrt(1/2)} give exact zeros in C and in T
    exact = np.array(list(itertools.product((0, 1, -1, 1j, -1j, 0.5, np.sqrt(0.5)), repeat=4)),
                     dtype=complex)
    for psi in (_haar_and_product_states(2000, 11), exact):
        c = psi.reshape(-1, 2, 2)
        wanted = correlation_matrix_by_directions(c)
        for t in (bell._correlation_matrix(c), [bell._correlation_matrix(m) for m in c]):
            assert np.array_equal(t, wanted) and np.array_equal(np.signbit(t), np.signbit(wanted))


def test_entangled_states_always_violate():
    rng = np.random.default_rng(4)
    for _ in range(100):
        psi = random_entangled_state(2, 2, rng)
        vals = schmidt(psi, trivial_tps(2, 2)).coefficients
        assert vals[1] > 1e-3 * vals[0]
        assert chsh_max(psi, trivial_tps(2, 2)).value > 2.0 + 1e-3


def test_chsh_max_rejects_wrong_dimension():
    with pytest.raises(ShapeError, match="two-qubit"):
        chsh_max(haar_state(4, np.random.default_rng(0)), trivial_tps(1, 4))
    with pytest.raises(ShapeError, match="two-qubit"):
        chsh_max(haar_state(9, np.random.default_rng(0)), trivial_tps(3, 3))


def test_bloch_direction_unit():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = bloch_direction(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_settings_bracket_both_routes():
    # random-settings search never exceeds the closed-form bound, and the
    # optimizer dominates the random search: brute-force evidence that both
    # routes describe the same maximum
    rng = np.random.default_rng(6)

    def random_direction():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    for _ in range(5):
        psi = haar_state(4, rng)
        bound = chsh_max(psi, trivial_tps(2, 2)).closed_form
        t = spin_correlation_matrix(psi)
        best_sampled = -np.inf
        for _ in range(2000):
            s = ChshSettings(
                a=random_direction(),
                a_prime=random_direction(),
                b=random_direction(),
                b_prime=random_direction(),
            )
            val = chsh_at(t, s)
            assert val <= bound + 1e-9
            best_sampled = max(best_sampled, val)
        assert chsh_max(psi, trivial_tps(2, 2)).value >= best_sampled - 1e-9


@pytest.mark.parametrize(
    "seed,samples,rejected",
    [(42, 1000, 11), (9, 16, 2), (1721069095, 16, None), (1366289310, 16, None)],
)
def test_demo_bell_matches_per_sample_loop(seed, samples, rejected):
    oracle = bell_loop(samples, seed)
    if rejected is not None:
        assert oracle["rejected"] == rejected
    rng = np.random.default_rng(seed)
    stacked = random_entangled_state(2, 2, rng, shape=(samples,))
    assert np.max(np.abs(stacked - oracle["states"])) <= 1e-14
    # the stacked draws stop at the last accepted state, as the loop does
    assert rng.normal() == oracle["next_draw"]
    report = demo_bell(samples=samples, seed=seed)
    closed = oracle["closed"]
    assert np.max(np.abs(report.closed_forms - closed)) <= 1e-14
    assert np.max(np.abs(report.values - closed)) <= 1e-14
    assert abs(report.min_value - closed.min()) <= 1e-14
    assert report.fraction_violating == np.count_nonzero(closed > 2.0 + 1e-3) / samples
    assert abs(report.bell_state_value - TSIRELSON_BOUND) <= 1e-14


@pytest.mark.parametrize("dims", [(1, 4), (4, 1), (1, 1)])
def test_entangled_states_need_two_factors_of_dimension_two(dims):
    rng = np.random.default_rng(3)
    with pytest.raises(ShapeError, match="no entangled state"):
        random_entangled_state(*dims, rng)
    # refused before any draw
    assert rng.normal() == np.random.default_rng(3).normal()


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 2)])
def test_an_empty_stack_of_entangled_states_draws_nothing(shape):
    rng = np.random.default_rng(3)
    psi = random_entangled_state(2, 3, rng, shape=shape)
    assert psi.shape == (*shape, 6) and psi.dtype == complex
    assert rng.normal() == np.random.default_rng(3).normal()


def test_demo_bell_rejects_more_samples_than_the_cap():
    with pytest.raises(SizeLimitError):
        demo_bell(samples=MAX_GLOBAL_DIM + 1, seed=42)


@pytest.mark.parametrize("name", ["a", "a_prime", "b", "b_prime"])
def test_settings_require_three_vectors(name):
    directions = {"a": Z, "a_prime": X, "b": Z, "b_prime": X, name: np.array([1.0, 0.0])}
    with pytest.raises(ShapeError, match=name):
        ChshSettings(**directions)
