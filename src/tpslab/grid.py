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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridSpecError, NumericalError, ShapeError
from .linalg import normalize
from .schmidt import DEFAULT_TRUNCATION_TOL, rank_from_singular_values, schmidt_values
from .tps import IndexBijection, relabel_tps, sum_diff_bijection

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
    """Unit-norm complex samples of a one-coordinate wavefunction on a grid."""

    grid: Grid
    samples: np.ndarray
    truncation_warning: str | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.shape != (self.grid.d,):
            raise ShapeError(f"expected {self.grid.d} samples, got shape {s.shape}")
        n = float(np.linalg.norm(s))
        if abs(n - 1.0) > 1e-10:
            raise GridSpecError(f"profile norm {n!r} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "samples", s)

    def position_expectation(self) -> float:
        p = np.abs(self.samples) ** 2
        return float(np.sum(self.grid.points * p))

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


def gaussian_profile(grid: Grid, center: float, sigma: float) -> SampledProfile:
    """Gaussian amplitude exp(-(x-center)^2 / (4 sigma^2)); density variance sigma^2."""
    den = _four_sigma_squared(sigma)
    x = grid.points
    amp = np.exp(-((x - center) ** 2) / den).astype(complex)
    warning = _edge_warning(amp, f"gaussian(center={center}, sigma={sigma})")
    return SampledProfile(grid=grid, samples=normalize(amp), truncation_warning=warning)


def double_gaussian_profile(grid: Grid, separation: float, sigma: float) -> SampledProfile:
    """Symmetric pair of Gaussian lobes at +-separation with common width sigma."""
    den = _four_sigma_squared(sigma)
    x = grid.points
    amp = (
        np.exp(-((x - separation) ** 2) / den)
        + np.exp(-((x + separation) ** 2) / den)
    ).astype(complex)
    warning = _edge_warning(amp, f"double_gaussian(separation={separation}, sigma={sigma})")
    return SampledProfile(grid=grid, samples=normalize(amp), truncation_warning=warning)


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
    amp = (x * np.exp(-(x**2) / den)).astype(complex)
    warning = _edge_warning(amp, f"odd(sigma={sigma})")
    return SampledProfile(grid=grid, samples=normalize(amp), truncation_warning=warning)


def position_operator(points) -> np.ndarray:
    """The diagonal position observable diag(x_i) of sample points x_i."""
    return np.diag(points).astype(complex)


@dataclass(frozen=True)
class CoordinateDemoReport:
    """Ranks and covariance data for a product state under a grid relabeling."""

    rank_xy: int
    rank_ab: int
    qcf_ab: float
    variance_diff: float
    alpha_ratio_ab: float
    warnings: tuple[str, ...]


def _diag_qcf(a_diag: np.ndarray, b_diag: np.ndarray, prob: np.ndarray) -> float:
    """Covariance of two commuting diagonal observables under a probability vector."""
    ea = float(np.sum(a_diag * prob))
    eb = float(np.sum(b_diag * prob))
    eab = float(np.sum(a_diag * b_diag * prob))
    return eab - ea * eb


def _demo_report(
    f: SampledProfile,
    g: SampledProfile,
    bij: IndexBijection,
    check_identity: bool,
    truncation_tol: float,
) -> CoordinateDemoReport:
    if f.grid != g.grid:
        raise ShapeError("profiles live on different grids")
    c = np.outer(f.samples, g.samples)
    vals_xy = np.linalg.svd(c, compute_uv=False)
    vals_ab = schmidt_values(c.ravel(), relabel_tps(bij))

    x = f.grid.points
    prob = np.abs(c.ravel()) ** 2
    a_diag = np.add.outer(x, x).ravel()       # X (x) I + I (x) X
    b_diag = np.subtract.outer(x, x).ravel()  # X (x) I - I (x) X
    qcf_ab = _diag_qcf(a_diag, b_diag, prob)
    variance_diff = f.position_variance() - g.position_variance()
    if check_identity and abs(qcf_ab - variance_diff) > 1e-9:
        raise NumericalError(
            f"sum/difference covariance {qcf_ab!r} deviates from the variance "
            f"difference {variance_diff!r} beyond 1e-9"
        )
    warnings = tuple(
        w for w in (f.truncation_warning, g.truncation_warning) if w is not None
    )
    ratio = float(vals_ab[1] / vals_ab[0]) if vals_ab.size > 1 and vals_ab[0] > 0 else 0.0
    return CoordinateDemoReport(
        rank_xy=rank_from_singular_values(vals_xy, truncation_tol),
        rank_ab=rank_from_singular_values(vals_ab, truncation_tol),
        qcf_ab=qcf_ab,
        variance_diff=variance_diff,
        alpha_ratio_ab=ratio,
        warnings=warnings,
    )


def demo_sum_diff(
    f: SampledProfile,
    g: SampledProfile,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> CoordinateDemoReport:
    """Relabel the product state f (x) g by modular sum/difference and report.

    rank_xy is the Schmidt rank in the original labels (1 for any product
    input); rank_ab the rank after relabeling; qcf_ab the covariance of
    X1 + X2 against X1 - X2, which always equals the difference of the two
    position variances (enforced to 1e-9).
    """
    return _demo_report(f, g, sum_diff_bijection(f.grid.d), True, truncation_tol)


def demo_general_bijection(
    f: SampledProfile,
    g: SampledProfile,
    bij: IndexBijection,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> CoordinateDemoReport:
    """Same report for an arbitrary grid bijection.

    The variance identity holds only for the sum/difference pair, so it is
    reported but not enforced here.
    """
    if bij.d1 != f.grid.d or bij.d2 != g.grid.d:
        raise ShapeError(
            f"bijection grid ({bij.d1}, {bij.d2}) vs profile grids "
            f"({f.grid.d}, {g.grid.d})"
        )
    return _demo_report(f, g, bij, False, truncation_tol)
