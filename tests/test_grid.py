"""Grid profiles, sum/difference relabeling demo, and the covariance identity."""

import math
import warnings

import numpy as np
import pytest
from demo_oracle import coords_pair, even_blocks_per_sigma
from tps_oracle import permutation_matrix, qcf_local_global

from tpslab import grid as grid_module
from tpslab.errors import (
    DegenerateInputError,
    GridSpecError,
    NumericalError,
    ShapeError,
    SizeLimitError,
)
from tpslab.grid import (
    Grid,
    SampledProfile,
    demo_sum_diff,
    double_gaussian_profile,
    fourier_profile,
    gaussian_profile,
    odd_profile,
    position_operator,
)
from tpslab.linalg import tensor_vec
from tpslab.qcf import qcf, qcf_local
from tpslab.sampling import random_hermitian
from tpslab.schmidt import DEFAULT_TRUNCATION_TOL, rank_from_singular_values, schmidt
from tpslab.tps import (
    TensorProductStructure,
    coefficient_matrix,
    factor_local_bijection,
    random_bijection,
    relabel_tps,
    sum_diff_bijection,
    swap_bijection,
)


def std_grid(d=129, halfwidth=8.0):
    return Grid.spanning(d, halfwidth)


def test_grid_requires_odd_size():
    with pytest.raises(GridSpecError):
        Grid(128, 0.1)


def test_grid_points_centered():
    g = Grid(5, 0.5)
    np.testing.assert_allclose(g.points, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_gaussian_symmetric_mean_zero():
    f = gaussian_profile(std_grid(), 0.0, 1.0)
    assert np.sum(f.grid.points * f.samples**2) == pytest.approx(0.0, abs=1e-12)
    assert f.truncation_warning is None


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_gaussian_variance_matches_sigma_squared(sigma):
    # direct summation oracle on a grid spanning +-8 sigma
    f = gaussian_profile(std_grid(129, 8.0 * sigma), 0.0, sigma)
    assert abs(f.position_variance() - sigma**2) <= 1e-6


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(GridSpecError):
        gaussian_profile(std_grid(), 0.0, 0.0)


def test_gaussian_boundary_warning_when_support_tight():
    f = gaussian_profile(std_grid(33, 3.0), 0.0, 1.0)  # edges at 3 sigma
    assert f.truncation_warning is not None


def test_double_gaussian_zero_separation_equals_single():
    g = std_grid()
    d0 = double_gaussian_profile(g, 0.0, 1.0)
    s0 = gaussian_profile(g, 0.0, 1.0)
    np.testing.assert_allclose(d0.samples, s0.samples, atol=1e-14)


def test_double_gaussian_mean_zero():
    d = double_gaussian_profile(std_grid(129, 12.0), 4.0, 1.0)
    assert np.sum(d.grid.points * d.samples**2) == pytest.approx(0.0, abs=1e-12)


def test_fourier_mode_zero_uniform():
    f = fourier_profile(std_grid(9), 0)
    np.testing.assert_allclose(f.samples, np.ones(9) / 3.0)


def test_fourier_modes_orthogonal():
    g = std_grid(9)
    for m1 in range(9):
        for m2 in range(m1 + 1, 9):
            ov = np.vdot(fourier_profile(g, m1).samples, fourier_profile(g, m2).samples)
            assert abs(ov) <= 1e-12


def test_fourier_mode_out_of_range():
    with pytest.raises(GridSpecError):
        fourier_profile(std_grid(9), 9)


@pytest.mark.parametrize(
    "bij",
    [
        sum_diff_bijection(5),
        swap_bijection(3),
        random_bijection(3, 4, np.random.default_rng(3)),
    ],
    ids=["sumdiff5", "swap3", "random3x4"],
)
def test_relabeling_tps_matches_dense_permutation_tps(bij):
    # the relabeling kind (a scatter of amplitudes to their labels) against a
    # dense TPS holding the explicit permutation matrix
    rng = np.random.default_rng(bij.d1 * bij.d2)
    psi = rng.normal(size=bij.d1 * bij.d2) + 1j * rng.normal(size=bij.d1 * bij.d2)
    psi /= np.linalg.norm(psi)
    relabeled = relabel_tps(bij)
    dense = TensorProductStructure(bij.d1, bij.d2, permutation_matrix(bij))
    assert relabeled.unitary is None
    np.testing.assert_array_equal(
        coefficient_matrix(psi, relabeled), coefficient_matrix(psi, dense)
    )
    np.testing.assert_array_equal(schmidt(psi, relabeled).coefficients, schmidt(psi, dense).coefficients)
    a1, b2 = random_hermitian(bij.d1, rng), random_hermitian(bij.d2, rng)
    value = qcf_local(a1, b2, psi, relabeled).value
    assert abs(value - qcf_local(a1, b2, psi, dense).value) <= 1e-12
    assert abs(value - qcf_local_global(a1, b2, psi, dense.unitary)) <= 1e-12


def test_demo_qcf_matches_dense_operator_route():
    d = 7
    g = std_grid(d, 4.0)
    f = gaussian_profile(g, 0.3, 1.0)
    h = gaussian_profile(g, -0.2, 1.4)
    report = demo_sum_diff([f], [h])[0]
    x = position_operator(g.points)
    eye = np.eye(d, dtype=complex)
    a = np.kron(x, eye) + np.kron(eye, x)
    b = np.kron(x, eye) - np.kron(eye, x)
    psi = tensor_vec(f.samples, h.samples)
    dense = qcf(a, b, psi)
    assert report.qcf_ab == pytest.approx(dense.real, abs=1e-10)
    assert abs(dense.imag) <= 1e-12


def test_demo_sum_diff_product_input_rank_xy_one():
    g = std_grid()
    report = demo_sum_diff([gaussian_profile(g, 0.0, 1.0)], [gaussian_profile(g, 0.5, 1.3)])[0]
    assert report.rank_xy == 1


@pytest.mark.parametrize("tol", [1e-300, 1e-17, 1e-10, 0.5, 1.0])
def test_rank_xy_is_exact_at_every_tolerance(tol):
    # an SVD rounds the zeros of a product's spectrum to about 1e-17, so a
    # tolerance below rounding needs the exact spectrum (1, 0, ..., 0): rank 1
    # below tolerance 1, and 0 from 1 on
    g = Grid.spanning(65, 16.0)
    report = demo_sum_diff([gaussian_profile(g, 0.0, 1.0)], [gaussian_profile(g, 0.3, 2.0)],
                           truncation_tol=tol)[0]
    assert report.rank_xy == (1 if tol < 1.0 else 0)
    if tol == 1.0:
        assert report.rank_xy == report.rank_ab


def test_demo_sum_diff_unequal_sigmas_variance_difference():
    g = Grid.spanning(129, 16.0)
    report = demo_sum_diff([gaussian_profile(g, 0.0, 1.0)], [gaussian_profile(g, 0.0, 2.0)])[0]
    assert abs(report.qcf_ab - (-3.0)) <= 1e-3 * 3.0
    assert abs(report.qcf_ab - report.variance_diff) <= 1e-9
    assert report.rank_ab >= 2  # mixing the coordinates destroys the factorization


def test_demo_sum_diff_equal_sigmas_covariance_vanishes():
    g = std_grid()
    report = demo_sum_diff([gaussian_profile(g, 0.0, 1.0)], [gaussian_profile(g, 0.0, 1.0)])[0]
    assert abs(report.qcf_ab) <= 1e-8
    assert report.rank_xy == 1
    # the modular relabeling splits a localized profile into two wrap-parity
    # sectors (the parity of the centered lifts of the sum and difference
    # labels, equal for every unwrapped pair) of nearly equal weight; the
    # mixed-parity labels carry only the wrapped tail weight, so the relabeled
    # state is entangled with two balanced leading coefficients even at equal
    # widths
    assert report.rank_ab >= 2
    assert report.alpha_ratio_ab == pytest.approx(1.0, abs=1e-5)


def test_demo_sum_diff_double_gaussian_entangles():
    sep, sigma = 4.0, 1.0
    g = Grid.spanning(129, sep + 8.0 * sigma)
    report = demo_sum_diff(
        [double_gaussian_profile(g, sep, sigma)], [gaussian_profile(g, 0.0, sigma)]
    )[0]
    assert report.rank_ab >= 2
    assert report.alpha_ratio_ab > 0.1


def test_demo_sum_diff_odd_profile_zero_line():
    # a zero of one factor forces a vanishing line, which no product matches
    g = std_grid()
    report = demo_sum_diff([odd_profile(g, 1.0)], [gaussian_profile(g, 0.0, 1.3)])[0]
    assert report.rank_ab >= 2
    assert report.alpha_ratio_ab > 0.1


@pytest.mark.parametrize("d", [9])
def test_fourier_products_relabel_exactly(d):
    # exhaustive: every mode pair stays exactly rank one, landing on the
    # modular sum/difference mode pair
    g = std_grid(d)
    bij = sum_diff_bijection(d)
    inv2 = (d + 1) // 2
    for m1 in range(d):
        for m2 in range(d):
            f = fourier_profile(g, m1)
            h = fourier_profile(g, m2)
            c = np.outer(f.samples, h.samples)
            relabeled = coefficient_matrix(c.ravel(), relabel_tps(bij))
            vals = np.linalg.svd(relabeled, compute_uv=False)
            assert vals[1] <= 1e-12
            mu, mv = (inv2 * (m1 + m2)) % d, (inv2 * (m1 - m2)) % d
            predicted = np.outer(fourier_profile(g, mu).samples, fourier_profile(g, mv).samples)
            overlap = abs(np.vdot(predicted.ravel(), relabeled.ravel()))
            assert overlap == pytest.approx(1.0, abs=1e-12)


def test_factor_local_relabeling_preserves_the_schmidt_coefficients():
    d = 9
    g = std_grid(d)
    f = gaussian_profile(g, 0.0, 1.0)
    h = gaussian_profile(g, 0.4, 1.2)
    rng = np.random.default_rng(1)
    bij = factor_local_bijection(rng.permutation(d), rng.permutation(d))
    c = np.outer(f.samples, h.samples)
    base = np.linalg.svd(c, compute_uv=False)
    moved = schmidt(c.ravel(), relabel_tps(bij)).coefficients
    np.testing.assert_allclose(moved, base, atol=1e-10)


def test_demo_rejects_mismatched_grids():
    with pytest.raises(ShapeError):
        demo_sum_diff(
            [gaussian_profile(std_grid(9), 0.0, 1.0)],
            [gaussian_profile(std_grid(11), 0.0, 1.0)],
        )


def test_demo_propagates_truncation_warnings():
    g = std_grid(33, 3.0)
    rep = demo_sum_diff([gaussian_profile(g, 0.0, 1.0)], [gaussian_profile(g, 0.0, 1.0)])[0]
    assert len(rep.warnings) == 2


def test_grid_caps_the_pair_grid_at_the_global_dimension():
    assert Grid(1023, 0.1).d == 1023  # 1023^2 = 1 046 529 <= 2^20
    with pytest.raises(SizeLimitError):
        Grid(1025, 0.1)  # 1025^2 = 1 050 625 > 2^20


def test_real_profiles_keep_a_real_dtype():
    g = std_grid(9)
    for p in (gaussian_profile(g, 0.0, 1.0), double_gaussian_profile(g, 2.0, 1.0),
              odd_profile(g, 1.0)):
        assert p.samples.dtype == np.float64
    assert fourier_profile(g, 2).samples.dtype == np.complex128


@pytest.mark.parametrize("sigma", [1e-160, 1e-154])
def test_tiny_widths_reach_the_zero_limit_silently(sigma):
    # (x - c)^2 / (4 sigma^2) overflows off the center; exp(-inf) = 0 is exact
    g = Grid.spanning(129, 4.0 + 8.0 * sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = gaussian_profile(g, 0.0, sigma)
        h = double_gaussian_profile(g, 4.0, sigma)
        with pytest.raises(DegenerateInputError):
            odd_profile(g, sigma)  # zero at the center and exp(-inf) elsewhere
    assert f.samples[64] == 1.0 and np.count_nonzero(f.samples) == 1
    assert np.count_nonzero(h.samples) == 2  # the lobes at -4 and +4 sit on the edge points


def test_a_profile_whose_norm_underflows_is_scaled_by_its_peak():
    # samples near 7e-166 square to 0.0, so the plain norm vanishes though the peak does not
    g = Grid.spanning(9, 1.0)
    f = gaussian_profile(g, 40.0, 1.0)  # a unit profile: SampledProfile checks the norm
    assert np.argmax(f.samples) == 8  # the edge point nearest the centre
    assert "at the grid edge" in f.truncation_warning
    amp = np.exp(-((g.points - 40.0) ** 2) / 4.0)
    unit = amp / amp.max()
    np.testing.assert_allclose(f.samples, unit / np.linalg.norm(unit), rtol=1e-13)
    with pytest.raises(DegenerateInputError, match="every sample vanishes"):
        gaussian_profile(g, 1e3, 1.0)  # every sample is exactly 0


def test_an_ordinary_profile_keeps_its_bits():
    g = Grid.spanning(9, 1.0)
    amp = np.exp(-((g.points - 0.3) ** 2) / 4.0)
    assert gaussian_profile(g, 0.3, 1.0).samples.tobytes() == (amp / np.linalg.norm(amp)).tobytes()


def sum_diff_targets(d):
    i, j = np.divmod(np.arange(d * d), d)
    return ((i + j) % d) * d + (i - j) % d


def assert_matches_oracle(report, f, g, targets):
    want = coords_pair(f.samples, g.samples, f.grid.points, targets)
    assert (report.rank_xy, report.rank_ab) == (want["rank_xy"], want["rank_ab"])
    scale = f.position_variance() + g.position_variance()
    for key in ("qcf_ab", "variance_diff", "alpha_ratio_ab"):
        assert getattr(report, key) == pytest.approx(want[key], rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("d", [9, 65, 129])
def test_stacked_sum_diff_matches_per_pair_complex_oracle(d):
    # the three pairs of `demo coords`, each on its own grid, for random
    # widths and separations, all in one stacked call
    rng = np.random.default_rng(d)
    fs, gs = [], []
    for _ in range(4):
        s1, s2, sep = rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0), rng.uniform(1.0, 6.0)
        wide = Grid.spanning(d, 8.0 * max(s1, s2))
        tight = Grid.spanning(d, 8.0 * s1)
        lobes = Grid.spanning(d, sep + 8.0 * s1)
        fs += [gaussian_profile(wide, 0.0, s1), gaussian_profile(tight, 0.0, s1),
               double_gaussian_profile(lobes, sep, s1)]
        gs += [gaussian_profile(wide, rng.uniform(-1.0, 1.0), s2),
               gaussian_profile(tight, 0.0, s1), gaussian_profile(lobes, 0.0, s1)]
    reports = demo_sum_diff(fs, gs)
    assert len(reports) == len(fs)
    for rep, f, g in zip(reports, fs, gs):
        assert_matches_oracle(rep, f, g, sum_diff_targets(d))


@pytest.mark.parametrize("d", [9, 65])
def test_general_bijection_matches_per_pair_complex_oracle(d):
    # complex Fourier modes and odd profiles, which the Gaussian stacks above do not reach
    g = std_grid(d)
    pairs = [
        (fourier_profile(g, 1), fourier_profile(g, 3)),
        (odd_profile(g, 1.0), gaussian_profile(g, 0.4, 1.3)),
        (fourier_profile(g, 2), odd_profile(g, 0.8)),
    ]
    for f, h in pairs:
        assert_matches_oracle(demo_sum_diff([f], [h])[0], f, h, sum_diff_targets(d))


def test_stacked_reports_equal_the_single_pair_calls():
    g, wide = std_grid(33), std_grid(33, 12.0)
    fs = [gaussian_profile(g, 0.0, 1.0), odd_profile(wide, 1.2)]
    gs = [gaussian_profile(g, 0.3, 1.4), gaussian_profile(wide, 0.0, 0.9)]
    assert demo_sum_diff(fs, gs) == tuple(demo_sum_diff([f], [h])[0] for f, h in zip(fs, gs))
    values = grid_module._relabeled_values(fs, gs, 33)
    for k, (f, h) in enumerate(zip(fs, gs)):
        np.testing.assert_array_equal(values[k], grid_module._relabeled_values([f], [h], 33)[0])


PARITY = {"even": 1, "odd": -1, "none": 0}
PARITY_CLASSES = [("even", "even"), ("odd", "odd"), ("even", "odd"), ("odd", "even"),
                  ("none", "even")]


def reflection_parity(v):
    """+1 if v is even under x -> -x (v[d-1-i] == v[i] exactly), -1 if odd, 0 if neither."""
    return 1 if np.array_equal(v, v[::-1]) else -1 if np.array_equal(v, -v[::-1]) else 0


def parity_profile(grid, kind, source, rng):
    """A unit profile that is even, odd or neither under x -> -x: a centred
    Gaussian, x times one, or an off-centre one; or a symmetrized random vector."""
    if source == "gaussian":
        width = rng.uniform(0.5, 1.5)
        if kind == "odd":
            return odd_profile(grid, width)
        return gaussian_profile(grid, 0.0 if kind == "even" else rng.uniform(0.2, 1.0), width)
    v = rng.normal(size=grid.d)
    v = {"even": v + v[::-1], "odd": v - v[::-1], "none": v}[kind]
    return SampledProfile(grid=grid, samples=v / np.linalg.norm(v))


@pytest.mark.parametrize("source", ["gaussian", "random"])
@pytest.mark.parametrize(
    "d, kinds",
    # every one-point profile is even
    [(1, ("even", "even"))] + [(d, kinds) for d in (3, 5, 9, 65) for kinds in PARITY_CLASSES],
)
def test_parity_blocks_match_the_dense_oracle(d, kinds, source):
    # two even real profiles take two half-size block eigensolves, every other pair
    # the relabeled d x d SVD; both must give the oracle's dense spectrum
    rng = np.random.default_rng(d)
    grid = Grid(1, 1.0) if d == 1 else Grid.spanning(d, 6.0)
    f, g = (parity_profile(grid, kind, source, rng) for kind in kinds)
    parities = [reflection_parity(p.samples) for p in (f, g)]
    assert parities == [PARITY[k] for k in kinds]
    want = coords_pair(f.samples, g.samples, grid.points, sum_diff_targets(d))
    values = grid_module._relabeled_values([f], [g], d)[0]
    assert values.shape == (d,)
    want_values = want["values_ab"]
    np.testing.assert_allclose(values, want_values, rtol=0, atol=1e-12 * want_values[0])
    assert_matches_oracle(demo_sum_diff([f], [g])[0], f, g, sum_diff_targets(d))


# six sources of even real pairs: centred Gaussians, symmetrized random vectors, double Gaussians
EVEN_SOURCES = [("gaussian", "gaussian"), ("random", "random"), ("gaussian", "random"),
                ("random", "gaussian"), ("double", "gaussian"), ("gaussian", "double")]


@pytest.mark.parametrize("kinds", EVEN_SOURCES)
@pytest.mark.parametrize("d", [3, 5, 33])
def test_parity_blocks_are_symmetric_up_to_the_second_parity(d, kinds, monkeypatch):
    # for two even real profiles block(sigma, sigma) is its own transpose bit for bit,
    # so its eigenvalue moduli are its singular values
    rng = np.random.default_rng(d)
    grid = Grid.spanning(d, 6.0)
    f, g = (double_gaussian_profile(grid, 2.0, rng.uniform(0.5, 1.5)) if source == "double"
            else parity_profile(grid, "even", source, rng) for source in kinds)
    assert reflection_parity(f.samples) == reflection_parity(g.samples) == 1
    blocks, solvers = [], []

    def capture(name, solver):
        def call(block, *args, **kwargs):
            blocks.append(block.copy())
            solvers.append(name)
            return solver(block, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "svd", capture("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", capture("eigvalsh", np.linalg.eigvalsh))
    values = grid_module._even_block_values(f.samples[None], g.samples[None])[0]
    monkeypatch.undo()
    assert solvers == ["eigvalsh"] * 2
    assert [b.shape for b in blocks] == [(1, (d + 1) // 2, (d + 1) // 2), (1, d // 2, d // 2)]
    assert all(np.array_equal(b, np.swapaxes(b, 1, 2)) for b in blocks)
    want = np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks],
                                  axis=1))[0, ::-1]
    np.testing.assert_allclose(values, want, rtol=0, atol=1e-14 * want[0])
    assert rank_from_singular_values(values, DEFAULT_TRUNCATION_TOL) == \
        rank_from_singular_values(want, DEFAULT_TRUNCATION_TOL)


def even_stack(grid, n, rng):
    """(n, d) unit even real profiles: centred Gaussians, double Gaussians and
    symmetrized random vectors, which have negative entries, in a seeded order."""
    make = [lambda w: gaussian_profile(grid, 0.0, w),
            lambda w: double_gaussian_profile(grid, rng.uniform(1.0, 3.0), w),
            lambda w: parity_profile(grid, "even", "random", rng)]
    return np.stack([make[m](rng.uniform(0.5, 1.5)).samples for m in rng.integers(3, size=n)])


@pytest.mark.parametrize("n", [1, 3, 11])
@pytest.mark.parametrize("d", [3, 5, 9, 33, 129])
def test_even_blocks_equal_the_per_sigma_route_bit_for_bit(d, n):
    # one gather of the sigma = +1 grid serves both blocks with the per-block route's
    # floating-point operations, so every eigvalsh input and output keeps its bits
    rng = np.random.default_rng(100 * d + n)
    grid = Grid.spanning(d, 6.0)
    f, g = even_stack(grid, n, rng), even_stack(grid, n, rng)
    assert all(np.array_equal(v, v[::-1]) for v in np.concatenate([f, g]))
    assert np.array_equal(grid_module._even_block_values(f, g), even_blocks_per_sigma(f, g))


@pytest.mark.parametrize("d", [3, 9, 129])
def test_equal_profiles_have_an_exactly_zero_odd_block(d, monkeypatch):
    # f == g: f[i] g[j] and f[j] g[i] are one product, so P - Q is exactly 0
    rng = np.random.default_rng(d)
    f = even_stack(Grid.spanning(d, 6.0), 5, rng)
    blocks, eigvalsh = [], np.linalg.eigvalsh

    def capture(block, *args, **kwargs):
        blocks.append(block.copy())
        return eigvalsh(block, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", capture)
    values = grid_module._even_block_values(f, f.copy())
    monkeypatch.undo()
    assert [b.shape for b in blocks] == [(5, (d + 1) // 2, (d + 1) // 2), (5, d // 2, d // 2)]
    assert not blocks[1].any()
    assert not values[:, (d + 1) // 2:].any()
    assert np.array_equal(values, even_blocks_per_sigma(f, f))


def test_a_stack_of_every_parity_class_equals_the_single_pair_calls():
    rng = np.random.default_rng(7)
    grid = Grid.spanning(33, 6.0)
    pairs = [tuple(parity_profile(grid, kind, source, rng) for kind in kinds)
             for source in ("gaussian", "random") for kinds in PARITY_CLASSES]
    # complex profiles: the constant Fourier mode is even, the others have no parity
    pairs += [(fourier_profile(grid, 0), gaussian_profile(grid, 0.0, 1.0)),
              (fourier_profile(grid, 2), gaussian_profile(grid, 0.0, 1.0))]
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    fs, gs = zip(*pairs)
    values = grid_module._relabeled_values(fs, gs, 33)
    for k, (f, g) in enumerate(pairs):
        np.testing.assert_array_equal(values[k], grid_module._relabeled_values([f], [g], 33)[0])
    # the reports' qcf_ab and variance_diff compare exactly
    assert demo_sum_diff(fs, gs) == tuple(demo_sum_diff([f], [g])[0] for f, g in pairs)


def test_stacks_need_equal_lengths_and_one_grid_size():
    f9, f11 = gaussian_profile(std_grid(9), 0.0, 1.0), gaussian_profile(std_grid(11), 0.0, 1.0)
    with pytest.raises(ShapeError):
        demo_sum_diff([f9, f9], [f9])
    with pytest.raises(ShapeError):
        demo_sum_diff([], [])
    with pytest.raises(ShapeError):
        demo_sum_diff([f9, f11], [f9, f11])


@pytest.mark.parametrize("sigma", [1.0, 1e5])
def test_corrupted_covariance_fails_the_variance_identity(sigma, monkeypatch):
    # a covariance off by ten times the tolerance 1e-9 max(1, Var1 + Var2)
    grid = Grid.spanning(33, 8.0 * sigma)
    f, g = gaussian_profile(grid, 0.0, sigma), gaussian_profile(grid, 0.0, sigma)
    offset = 1e-8 * max(1.0, f.position_variance() + g.position_variance())
    exact = grid_module._sum_diff_covariance
    monkeypatch.setattr(grid_module, "_sum_diff_covariance",
                        lambda x, f, g: exact(x, f, g) + offset)
    with pytest.raises(NumericalError, match="deviates from the variance difference"):
        demo_sum_diff([f], [g])


def test_identical_profiles_have_covariance_exactly_zero():
    # X1 + X2 against X1 - X2 on f (x) f: both marginals give the same moments
    # bit for bit, so the covariance is 0.0 exactly, like the variance difference
    g, wide = std_grid(33), std_grid(33, 12.0)
    profiles = [gaussian_profile(g, 0.0, 1.0), gaussian_profile(wide, -1.7, 0.9),
                odd_profile(g, 1.2), double_gaussian_profile(wide, 3.0, 0.8),
                fourier_profile(g, 5)]
    for rep in demo_sum_diff(profiles, profiles):
        assert rep.qcf_ab == rep.variance_diff == 0.0
        assert math.copysign(1.0, rep.qcf_ab) == 1.0  # reports print 0.0, not -0.0


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: SampledProfile(std_grid(9), np.full(7, 1 / math.sqrt(7))), ShapeError),
        (lambda: SampledProfile(std_grid(9), np.full(9, 0.5)), GridSpecError),
        (lambda: gaussian_profile(std_grid(9), 0.0, 1e200), GridSpecError),
    ],
    ids=["sample-count", "non-unit-norm", "sigma-square-overflows"],
)
def test_malformed_profiles_are_refused(call, error):
    with pytest.raises(error):
        call()
