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

Real profiles (Gaussians, double Gaussians, odd profiles) keep a real dtype,
so their coefficients and Schmidt spectra are computed in real arithmetic;
Fourier modes stay complex.  A demo request is one stacked pass: n profile
pairs on grids of one size d give (n, d, d) coefficients, relabeled once and
decomposed by one batched SVD.  Only the relabeled stack is decomposed: a
product f (x) g of unit profiles has the exact x-y spectrum (1, 0, ..., 0),
so its x-y rank follows from the tolerance alone; the SVD cross-check of that
rank lives in ``tests/demo_oracle.py``.  A grid's d x d pair grid is
capped at ``MAX_GLOBAL_DIM`` points, so d^2 <= 2^20 is checked before any
profile is sampled.
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
    SizeLimitError,
)
from .linalg import MAX_GLOBAL_DIM
from .schmidt import DEFAULT_TRUNCATION_TOL, rank_from_singular_values
from .tps import IndexBijection, _coefficients, relabel_tps, sum_diff_bijection

EDGE_DENSITY_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Centered one-dimensional grid: x_i = (i - (d-1)/2) * spacing + origin_offset."""

    d: int
    spacing: float
    origin_offset: float = 0.0

    def __post_init__(self):
        if self.d < 1 or self.d % 2 == 0:
            raise GridSpecError(f"grid size must be odd and positive, got d={self.d}")
        if self.d * self.d > MAX_GLOBAL_DIM:
            raise SizeLimitError(
                f"a {self.d}x{self.d} pair grid exceeds the configured maximum {MAX_GLOBAL_DIM}"
            )
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise GridSpecError(f"grid spacing must be finite and positive, got {self.spacing}")
        # covariances square the sum and difference of two points
        extent = 2.0 * (abs(self.origin_offset) + self.spacing * (self.d - 1) / 2.0)
        if not math.isfinite(extent * extent):
            raise GridSpecError(f"grid extent {extent / 2.0!r} is too wide: its square overflows")

    @classmethod
    def spanning(cls, d: int, halfwidth: float, origin_offset: float = 0.0) -> "Grid":
        """Grid of d points covering [-halfwidth, +halfwidth] around the offset."""
        if d < 3:
            raise GridSpecError("a spanning grid needs at least 3 points")
        return cls(d=d, spacing=2.0 * halfwidth / (d - 1), origin_offset=origin_offset)

    @property
    def points(self) -> np.ndarray:
        return (np.arange(self.d) - (self.d - 1) / 2.0) * self.spacing + self.origin_offset


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
    peak = float(dens.max())
    if peak == 0.0:
        return None
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
        raise DegenerateInputError(f"{what}: every sample vanishes on the grid")
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


def fourier_profile(grid: Grid, mode: int) -> SampledProfile:
    """Discrete Fourier mode exp(2 pi i m k / d) / sqrt(d); exactly grid-periodic."""
    if not (0 <= mode < grid.d):
        raise GridSpecError(f"mode must satisfy 0 <= m < {grid.d}, got {mode}")
    k = np.arange(grid.d)
    samples = np.exp(2j * np.pi * mode * k / grid.d) / np.sqrt(grid.d)
    return SampledProfile(grid=grid, samples=samples)


def odd_profile(grid: Grid, sigma: float) -> SampledProfile:
    """Antisymmetric profile x exp(-x^2 / (4 sigma^2)); vanishes at the origin."""
    den = _four_sigma_squared(sigma)
    x = grid.points
    return _real_profile(grid, x * _gaussian(x, 0.0, den), f"odd(sigma={sigma})")


def position_operator(points) -> np.ndarray:
    """The diagonal position observable diag(x_i) of sample points x_i."""
    return np.diag(points).astype(complex)


@dataclass(frozen=True)
class CoordinateSpectra:
    """Relabeled Schmidt spectra of a stack of n product pairs f_k (x) g_k.

    ``values_ab`` holds the (n, d) descending Schmidt coefficients after the
    relabeling, ``qcf_ab`` the covariance of X1 + X2 against X1 - X2 and
    ``variance_diff`` Var(X1) - Var(X2), one per pair.  The spectrum in the
    original labels is not computed: for unit profiles it is exactly
    (1, 0, ..., 0), and ``tests/demo_oracle.py`` checks it by SVD.
    """

    values_ab: np.ndarray
    qcf_ab: np.ndarray
    variance_diff: np.ndarray


@dataclass(frozen=True)
class CoordinateDemoReport:
    """Ranks and covariance data for a product state under a grid relabeling.

    ``rank_xy`` is exact by construction, the rank of the spectrum
    (1, 0, ..., 0) at the report's tolerance (cross-checked by SVD in
    ``tests/demo_oracle.py``); ``rank_ab`` and ``alpha_ratio_ab`` come from
    the SVD of the relabeled coefficients.
    """

    rank_xy: int
    rank_ab: int
    qcf_ab: float
    variance_diff: float
    alpha_ratio_ab: float
    warnings: tuple[str, ...]


def _pairs(f, g) -> tuple[tuple[SampledProfile, ...], tuple[SampledProfile, ...], int]:
    """Two equal-length tuples of profiles, pairwise on one grid, and the common grid size."""
    fs = (f,) if isinstance(f, SampledProfile) else tuple(f)
    gs = (g,) if isinstance(g, SampledProfile) else tuple(g)
    if not fs or len(fs) != len(gs):
        raise ShapeError(f"{len(fs)} first profiles for {len(gs)} second profiles")
    if any(fk.grid != gk.grid for fk, gk in zip(fs, gs)):
        raise ShapeError("profiles live on different grids")
    sizes = {fk.grid.d for fk in fs}
    if len(sizes) != 1:
        raise ShapeError(f"a stack of pairs needs one grid size, got {sorted(sizes)}")
    return fs, gs, sizes.pop()


def _diag_qcf(a_diag: np.ndarray, b_diag: np.ndarray, prob: np.ndarray) -> float:
    """Covariance of two commuting diagonal observables under a probability vector."""
    ea = float(np.sum(a_diag * prob))
    eb = float(np.sum(b_diag * prob))
    eab = float(np.sum(a_diag * b_diag * prob))
    return eab - ea * eb


def _sum_diff_covariance(x: np.ndarray, c: np.ndarray) -> float:
    """Covariance of X1 + X2 against X1 - X2 under the joint distribution |c_ij|^2."""
    a_diag = np.add.outer(x, x).ravel()       # X (x) I + I (x) X
    b_diag = np.subtract.outer(x, x).ravel()  # X (x) I - I (x) X
    return _diag_qcf(a_diag, b_diag, np.abs(c.ravel()) ** 2)


def _spectra(fs, gs, bij: IndexBijection) -> CoordinateSpectra:
    """One relabeling and one batched SVD for the validated pairs.

    The covariances run pair by pair, so their d^2-sized temporaries are
    held for one pair at a time; the (n, d, d) product stack is freed on
    return.
    """
    n, d = len(fs), bij.d1
    f_stack, g_stack = np.stack([fk.samples for fk in fs]), np.stack([gk.samples for gk in gs])
    c = f_stack[:, :, None] * g_stack[:, None, :]
    relabeled = _coefficients(c.reshape(n, d * d), relabel_tps(bij))
    return CoordinateSpectra(
        values_ab=np.linalg.svd(relabeled, compute_uv=False),
        qcf_ab=np.array([_sum_diff_covariance(fk.grid.points, ck) for fk, ck in zip(fs, c)]),
        variance_diff=np.array(
            [fk.position_variance() - gk.position_variance() for fk, gk in zip(fs, gs)]
        ),
    )


def sum_diff_spectra(
    f: SampledProfile | Sequence[SampledProfile],
    g: SampledProfile | Sequence[SampledProfile],
) -> CoordinateSpectra:
    """Spectra of profile pairs under the modular sum/difference relabeling.

    f and g are profiles or equal-length sequences of them on grids of one
    size.  The covariance qcf_ab must equal the variance difference for every
    pair, to 1e-9 max(1, Var1 + Var2): both sides are sums of squared
    positions, so their rounding grows with the variances.
    """
    fs, gs, d = _pairs(f, g)
    spectra = _spectra(fs, gs, sum_diff_bijection(d))
    tol = 1e-9 * np.maximum(
        1.0, [fk.position_variance() + gk.position_variance() for fk, gk in zip(fs, gs)]
    )
    bad = ~(np.abs(spectra.qcf_ab - spectra.variance_diff) <= tol)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericalError(
            f"sum/difference covariance {float(spectra.qcf_ab[k])!r} deviates from the "
            f"variance difference {float(spectra.variance_diff[k])!r} beyond {float(tol[k]):.3g}"
        )
    return spectra


def _reports(fs, gs, spectra: CoordinateSpectra, truncation_tol: float):
    """The reports of the stacked pairs: the spectra plus the x-y ranks and warnings."""
    # every pair's exact x-y spectrum is (1, 0, ..., 0)
    rank_xy = rank_from_singular_values(np.eye(1, spectra.values_ab.shape[-1])[0], truncation_tol)
    rank_ab = rank_from_singular_values(spectra.values_ab, truncation_tol)
    return tuple(
        CoordinateDemoReport(
            rank_xy=rank_xy,
            rank_ab=int(rank_ab[k]),
            qcf_ab=float(spectra.qcf_ab[k]),
            variance_diff=float(spectra.variance_diff[k]),
            alpha_ratio_ab=float(v[1] / v[0]) if v.size > 1 and v[0] > 0 else 0.0,
            warnings=tuple(
                w for w in (fk.truncation_warning, gk.truncation_warning) if w is not None
            ),
        )
        for k, (fk, gk, v) in enumerate(zip(fs, gs, spectra.values_ab))
    )


def demo_sum_diff(
    f: SampledProfile | Sequence[SampledProfile],
    g: SampledProfile | Sequence[SampledProfile],
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> CoordinateDemoReport | tuple[CoordinateDemoReport, ...]:
    """Relabel the product state f (x) g by modular sum/difference and report.

    rank_xy is the Schmidt rank in the original labels, exact by
    construction: a product of two unit profiles has the spectrum
    (1, 0, ..., 0), so rank_xy is 1 for a tolerance below 1 and 0 from 1 on
    (its SVD cross-check lives in ``tests/demo_oracle.py``).  rank_ab is the
    rank after relabeling, from the one batched SVD; qcf_ab the covariance
    of X1 + X2 against X1 - X2, which always equals the difference of the
    two position variances (enforced to 1e-9 max(1, Var1 + Var2)).  Given
    equal-length sequences of profiles on grids of one size, it returns a
    tuple of reports from one stacked pass.
    """
    fs, gs, _ = _pairs(f, g)
    reports = _reports(fs, gs, sum_diff_spectra(fs, gs), truncation_tol)
    return reports[0] if isinstance(f, SampledProfile) else reports

