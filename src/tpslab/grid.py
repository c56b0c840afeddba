"""Two coordinates on an odd grid: profiles, sum/difference relabeling, covariance.

Discretizes a pair of continuous coordinates on a centered odd grid.  Product
wavefunctions f(x1)g(x2) are built from sampled profiles; the modular
sum/difference relabeling re-reads the same state in "center of mass" and
"relative distance" style labels, where Schmidt rank and the covariance of
X1 + X2 against X1 - X2 expose whether factorizability survives.

A caveat that matters for interpreting ranks: the modular relabeling is an
index bijection, not a change of continuous coordinates.  The wrap-parity
sector of a relabeled label is the parity of its centered lift into [-c, c],
c = (d-1)/2: the sum label a lifts to (a - (d-1)) mod d and the difference
label b to b mod d, each mapped into [-c, c].  The map has determinant 2, so
every pair (i, j) whose sum and difference stay on the grid lands on lifts of
equal parity; the mixed-parity labels carry only the wrapped tail weight.
Localized profiles (Gaussians) therefore split into the (even, even) and
(odd, odd) sectors with nearly equal weight, and their relabeled Schmidt rank
is 2 even for equal widths, where the continuum analogy suggests a product:
the state is a product inside each sector, and the shared parity bit adds one
ebit.  Grid-periodic profiles (discrete Fourier modes) relabel exactly.

Reflection parity, distinct from the wrap parity above, is the symmetry of a
profile under x -> -x, i -> d-1-i; centred Gaussians and double Gaussians are
even.  The relabeling turns the reflection of a pair into the index
involutions a -> -2-a and b -> -b (mod d) of the new factors, so for two even
profiles the relabeled matrix is block diagonal in each factor's parity basis,
a local orthogonal change that keeps the Schmidt coefficients.

Real profiles (Gaussians, double Gaussians, real caller-built
``SampledProfile``s) keep a real dtype, so their coefficients and Schmidt
spectra are computed in real arithmetic; complex samples stay complex.  A
demo request is one stacked pass over n profile pairs on grids of one size d,
on two routes.  A pair of two even real profiles, every pair the CLI sends,
takes two half-size symmetric eigensolves of its parity blocks, built
straight from the profiles, of sides (d+1)/2 and (d-1)/2: about a quarter of
one d x d SVD.  Every other pair (off-centre Gaussians, or caller-built
profiles that are odd or complex; library callers only) takes one batched
``schmidt.spectra`` of its products in the sum/difference TPS.  Only the
relabeled spectrum is computed: a product f (x) g of unit profiles has the
exact x-y spectrum (1, 0, ..., 0), so its x-y rank follows from the tolerance
alone; the SVD cross-check of that rank lives in ``tests/demo_oracle.py``,
beside the joint-distribution route of the covariance of X1 + X2 against
X1 - X2, which takes O(d) per pair here from the moments of the marginals
|f|^2 and |g|^2.  A grid's d x d pair grid is capped at ``MAX_GLOBAL_DIM``
points, so d^2 <= 2^20 is checked before any profile is sampled.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    GridSpecError,
    NumericalError,
    ShapeError,
)
from .linalg import check_size
from .schmidt import DEFAULT_TRUNCATION_TOL, rank_from_singular_values, spectra
from .tps import TensorProductStructure, sum_diff_bijection

EDGE_DENSITY_TOL = 1e-12


def _check_pair_grid(d: int) -> None:
    check_size(d * d, f"a {d}x{d} pair grid")


@dataclass(frozen=True)
class Grid:
    """Centered one-dimensional grid: x_i = (i - (d-1)/2) * spacing."""

    d: int
    spacing: float

    def __post_init__(self):
        if self.d < 1 or self.d % 2 == 0:
            raise GridSpecError(f"grid size must be odd and positive, got d={self.d}")
        _check_pair_grid(self.d)
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise GridSpecError(f"grid spacing must be finite and positive, got {self.spacing}")
        # covariances square the sum and difference of two points
        extent = self.spacing * (self.d - 1)
        if not math.isfinite(extent * extent):
            raise GridSpecError(f"grid extent {extent / 2.0!r} is too wide: its square overflows")

    @classmethod
    def spanning(cls, d: int, halfwidth: float) -> "Grid":
        """Grid of d points covering [-halfwidth, +halfwidth]."""
        if d < 3:
            raise GridSpecError("a spanning grid needs at least 3 points")
        _check_pair_grid(d)  # before d - 1 is converted to a float
        return cls(d=d, spacing=2.0 * halfwidth / (d - 1))

    @property
    def points(self) -> np.ndarray:
        return (np.arange(self.d) - (self.d - 1) / 2.0) * self.spacing


@dataclass(frozen=True)
class SampledProfile:
    """Unit-norm samples of a one-coordinate wavefunction on a grid; real stays real."""

    grid: Grid
    samples: np.ndarray
    truncation_warning: str | None = None

    def __post_init__(self):
        s = np.asarray(self.samples)
        s = s.astype(np.result_type(s, float), copy=False)
        if s.shape != (self.grid.d,):
            raise ShapeError(f"expected {self.grid.d} samples, got shape {s.shape}")
        n = float(np.linalg.norm(s))
        if not abs(n - 1.0) <= 1e-10:
            raise GridSpecError(f"profile norm {n!r} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "samples", s)

    def position_variance(self) -> float:
        p = np.abs(self.samples) ** 2
        x = self.grid.points
        mean = float(np.sum(x * p))
        return float(np.sum((x - mean) ** 2 * p))


def _edge_warning(samples: np.ndarray, what: str) -> str | None:
    dens = np.abs(samples) ** 2
    peak = float(dens.max())  # nonzero: a zero peak means a zero norm, refused first
    edge = max(float(dens[0]), float(dens[-1])) / peak
    if edge > EDGE_DENSITY_TOL:
        return (
            f"{what}: relative probability density {edge:.3e} at the grid edge "
            f"exceeds {EDGE_DENSITY_TOL:.0e}; wraparound effects are not negligible"
        )
    return None


def _four_sigma_squared(sigma: float) -> float:
    """The Gaussian denominator 4 sigma^2; it must be a positive finite double."""
    try:
        den = 4.0 * sigma**2
    except OverflowError:
        den = math.inf
    if not (sigma > 0 and 0.0 < den < math.inf):
        raise GridSpecError(f"sigma must be positive with a finite nonzero square, got {sigma}")
    return den


def _gaussian(x: np.ndarray, center: float, den: float) -> np.ndarray:
    """exp(-(x - center)^2 / den); an exponent that overflows gives its exact limit 0."""
    with np.errstate(over="ignore"):
        return np.exp(-((x - center) ** 2) / den)


def _real_profile(grid: Grid, amp: np.ndarray, what: str) -> SampledProfile:
    """Normalize real amplitudes into a profile carrying their edge warning."""
    n = float(np.linalg.norm(amp))
    if n == 0.0:
        # the squares of samples below about 1e-162 underflow: scale by the peak first
        peak = float(np.max(np.abs(amp)))
        if peak == 0.0:
            raise DegenerateInputError(f"{what}: every sample vanishes on the grid")
        amp = amp / peak
        n = float(np.linalg.norm(amp))
    return SampledProfile(grid=grid, samples=amp / n, truncation_warning=_edge_warning(amp, what))


def gaussian_profile(grid: Grid, center: float, sigma: float) -> SampledProfile:
    """Gaussian amplitude exp(-(x-center)^2 / (4 sigma^2)); density variance sigma^2."""
    den = _four_sigma_squared(sigma)
    amp = _gaussian(grid.points, center, den)
    return _real_profile(grid, amp, f"gaussian(center={center}, sigma={sigma})")


def double_gaussian_profile(grid: Grid, separation: float, sigma: float) -> SampledProfile:
    """Symmetric pair of Gaussian lobes at +-separation with common width sigma."""
    den = _four_sigma_squared(sigma)
    x = grid.points
    amp = _gaussian(x, separation, den) + _gaussian(x, -separation, den)
    return _real_profile(grid, amp, f"double_gaussian(separation={separation}, sigma={sigma})")


def position_operator(points) -> np.ndarray:
    """The diagonal position observable diag(x_i) of sample points x_i."""
    return np.diag(points).astype(complex)


@dataclass(frozen=True)
class CoordinateDemoReport:
    """Ranks and covariance data for a product state under a grid relabeling.

    ``rank_xy`` is exact by construction, the rank of the spectrum
    (1, 0, ..., 0) at the report's tolerance (cross-checked by SVD in
    ``tests/demo_oracle.py``); ``rank_ab`` and ``alpha_ratio_ab`` come from
    the singular values of the relabeled coefficients.
    """

    rank_xy: int
    rank_ab: int
    qcf_ab: float
    variance_diff: float
    alpha_ratio_ab: float
    warnings: tuple[str, ...]


def _pairs(fs, gs) -> tuple[tuple[SampledProfile, ...], tuple[SampledProfile, ...], int]:
    """Two equal-length tuples of profiles, pairwise on one grid, and the common grid size."""
    fs, gs = tuple(fs), tuple(gs)
    if not fs or len(fs) != len(gs):
        raise ShapeError(f"{len(fs)} first profiles for {len(gs)} second profiles")
    if any(fk.grid != gk.grid for fk, gk in zip(fs, gs)):
        raise ShapeError("profiles live on different grids")
    sizes = {fk.grid.d for fk in fs}
    if len(sizes) != 1:
        raise ShapeError(f"a stack of pairs needs one grid size, got {sorted(sizes)}")
    return fs, gs, sizes.pop()


def _sum_diff_covariance(x: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    """Covariance of X1 + X2 against X1 - X2 under |f(x1) g(x2)|^2, from the marginals.

    Under the product distribution p_f(x1) p_g(x2), with p = |samples|^2,
    E[(X1 + X2)(X1 - X2)] = <x^2>_f - <x^2>_g and E[X1 +- X2] = m_f +- m_g.
    """
    pf, pg = np.abs(f) ** 2, np.abs(g) ** 2
    mf, mg = float(x @ pf), float(x @ pg)
    return (float(x * x @ pf) - float(x * x @ pg)) - (mf + mg) * (mf - mg)


def _even_block_values(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(n, d) descending relabeled Schmidt coefficients of pairs f_k (x) g_k of even real profiles.

    The reflection maps a relabeled row a to -2-a and a column b to -b
    (mod d), so in each factor's parity basis the relabeled matrix of two even
    profiles splits into the blocks (sigma, sigma), sigma = +-1.  Entry (a, b)
    of a block is w_a w_b (f[i] g[j] + sigma f[j] g[i]), i = (a+b)k,
    j = (a-b)k mod d, k = (d+1)/2, with w = 1/sqrt(2) on the fixed row d-1 or
    column 0.  The row-to-column map a -> a+1 sends j to its reflection d-1-j
    and keeps i, so each block is real symmetric, and its singular values are
    the moduli of its eigenvalues: one ``eigvalsh`` per block.

    One gather of the sigma = +1 grid serves both blocks: rows 0..h-1 then
    d-1, columns 1..h then 0, h = (d-1)/2, give P = f[i] g[j] and
    Q = f[j] g[i].  The sigma = -1 grid is its leading h x h corner, so that
    block is the corner of P - Q; P + Q, with its fixed row and column scaled
    by w, is the sigma = +1 block.  Each entry is rounded exactly as the
    definition's f[i] g[j] + sigma (f[j] g[i]): a product by sigma = +-1 is
    exact, and a + (-b) = a - b, so the blocks are the definition's bit for
    bit.
    """
    d = f.shape[1]
    h, k = (d - 1) // 2, (d + 1) // 2
    a = np.arange(h + 1)[:, None]  # rows 0..h-1, then d-1
    b = a.T + 1  # columns 1..h, then 0
    a[h:], b[:, h:] = d - 1, 0
    i, j = (a + b) * k % d, (a - b) * k % d
    plus = np.take(f, i, axis=1)
    plus *= np.take(g, j, axis=1)
    second = np.take(f, j, axis=1)
    second *= np.take(g, i, axis=1)
    minus = plus[:, :h, :h] - second[:, :h, :h]
    plus += second
    plus[:, h:] *= math.sqrt(0.5)  # the fixed row
    plus[:, :, h:] *= math.sqrt(0.5)  # the fixed column
    parts = [np.abs(np.linalg.eigvalsh(block)) for block in (plus, minus)]
    return np.sort(np.concatenate(parts, axis=1), axis=1)[:, ::-1]


def _relabeled_values(fs, gs, d: int) -> np.ndarray:
    """(n, d) descending Schmidt coefficients of each pair after the sum/difference relabeling.

    Pairs are batched by whether both profiles are real and exactly even
    (v[d-1-i] == v[i]) and by dtype, so a stacked call gives every pair the
    bits of its single-pair call.  Even real pairs take their two half-size
    parity blocks; every other pair takes ``spectra`` of its product in the
    sum/difference TPS.
    """
    groups: dict[tuple, list[int]] = {}
    for k, (fk, gk) in enumerate(zip(fs, gs)):
        even = all(np.isrealobj(v) and np.array_equal(v, v[::-1])
                   for v in (fk.samples, gk.samples))
        groups.setdefault((even, np.result_type(fk.samples, gk.samples)), []).append(k)
    values = np.empty((len(fs), d))
    for (even, _), idx in groups.items():
        f, g = np.stack([fs[k].samples for k in idx]), np.stack([gs[k].samples for k in idx])
        if even:
            values[idx] = _even_block_values(f, g)
        else:
            c = (f[:, :, None] * g[:, None, :]).reshape(len(idx), d * d)
            values[idx] = spectra(c, TensorProductStructure(d, d, relabeling=sum_diff_bijection(d)))
    return values


def demo_sum_diff(
    fs: Sequence[SampledProfile],
    gs: Sequence[SampledProfile],
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> tuple[CoordinateDemoReport, ...]:
    """Relabel each product state f_k (x) g_k by modular sum/difference and report.

    fs and gs are equal-length sequences of profiles on grids of one size;
    one stacked pass gives one report per pair.  rank_xy is the Schmidt rank
    in the original labels, exact by construction: a product of two unit
    profiles has the spectrum (1, 0, ..., 0), so rank_xy is 1 for a tolerance
    below 1 and 0 from 1 on (its SVD cross-check lives in
    ``tests/demo_oracle.py``).  rank_ab and alpha_ratio_ab come from the
    relabeled Schmidt coefficients; qcf_ab is the covariance of X1 + X2
    against X1 - X2 from the marginals' raw moments, which must equal the
    difference of the two centred position variances to 1e-9
    max(1, Var1 + Var2): both sides are sums of squared positions, so their
    rounding grows with the variances.
    """
    fs, gs, d = _pairs(fs, gs)
    values_ab = _relabeled_values(fs, gs, d)
    var_f = np.array([fk.position_variance() for fk in fs])
    var_g = np.array([gk.position_variance() for gk in gs])
    qcf_ab = np.array([_sum_diff_covariance(fk.grid.points, fk.samples, gk.samples)
                       for fk, gk in zip(fs, gs)])
    variance_diff = var_f - var_g
    tol = 1e-9 * np.maximum(1.0, var_f + var_g)
    bad = ~(np.abs(qcf_ab - variance_diff) <= tol)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericalError(
            f"sum/difference covariance {float(qcf_ab[k])!r} deviates from the "
            f"variance difference {float(variance_diff[k])!r} beyond {float(tol[k]):.3g}"
        )
    # every pair's exact x-y spectrum is (1, 0, ..., 0)
    rank_xy = rank_from_singular_values(np.eye(1, d)[0], truncation_tol)
    rank_ab = rank_from_singular_values(values_ab, truncation_tol)
    return tuple(
        CoordinateDemoReport(
            rank_xy=rank_xy,
            rank_ab=int(rank_ab[k]),
            qcf_ab=float(qcf_ab[k]),
            variance_diff=float(variance_diff[k]),
            alpha_ratio_ab=float(v[1] / v[0]) if v.size > 1 and v[0] > 0 else 0.0,
            warnings=tuple(
                w for w in (fk.truncation_warning, gk.truncation_warning) if w is not None
            ),
        )
        for k, (fk, gk, v) in enumerate(zip(fs, gs, values_ab))
    )
