"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Each
criterion states its tolerance inline; nothing is deferred to calibration.
"""

import math

import numpy as np
import pytest
from chsh_oracle import chsh_search

from tpslab.bell import chsh_max
from tpslab.cli import main
from tpslab.grid import (
    Grid,
    demo_sum_diff,
    fourier_profile,
    gaussian_profile,
    odd_profile,
)
from tpslab.linalg import tensor_vec
from tpslab.qcf import qcf, qcf_local, variance
from tpslab.sampling import (
    haar_state,
    random_entangled_state,
    random_hermitian,
    random_product_pair,
    random_unitary,
)
from tpslab.schmidt import schmidt
from tpslab.spins import TOTAL_X2, TOTAL_Z2, chi_basis, demo_spins
from tpslab.tps import (
    TensorProductStructure,
    coefficient_matrix,
    disentangling_tps,
    factor_local_bijection,
    relabel_tps,
    sum_diff_bijection,
    trivial_tps,
)

SQ2 = np.sqrt(2.0)


def criterion(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_c01_product_state_covariance_vanishes():
    rng = np.random.default_rng(101)
    worst = 0.0
    failures = 0
    total = 0
    for d1, d2 in [(2, 2), (2, 3), (3, 3)]:
        tps = trivial_tps(d1, d2)
        threshold = d1 * d2 * 1e-12
        for _ in range(1000):
            u, v = random_product_pair(d1, d2, rng)
            rep = qcf_local(
                random_hermitian(d1, rng), random_hermitian(d2, rng), tensor_vec(u, v), tps
            )
            total += 1
            worst = max(worst, abs(rep.value) / threshold)
            failures += abs(rep.value) > threshold
    criterion(
        1,
        "product-state covariance vanishing",
        failures == 0,
        f"{total} cases, worst |Q|/threshold = {worst:.3e}, failures = {failures}",
    )


def test_c02_variance_identity():
    # Q(A(x)1 + 1(x)B, A(x)1 - 1(x)B, psi1 (x) psi2) = Var(A, psi1) - Var(B, psi2)
    rng = np.random.default_rng(202)
    worst = 0.0
    failures = 0
    for d1, d2 in [(2, 2), (2, 3), (3, 3)]:
        for _ in range(334):
            a1 = random_hermitian(d1, rng)
            b2 = random_hermitian(d2, rng)
            psi1, psi2 = haar_state(d1, rng), haar_state(d2, rng)
            a, b = np.kron(a1, np.eye(d2)), np.kron(np.eye(d1), b2)
            lhs = qcf(a + b, a - b, np.kron(psi1, psi2)).real
            rhs = variance(a1, psi1) - variance(b2, psi2)
            worst = max(worst, abs(lhs - rhs))
            failures += abs(lhs - rhs) > 1e-10
    criterion(
        2,
        "sum/difference variance identity",
        failures == 0,
        f"1002 instances, worst |lhs-rhs| = {worst:.3e} (tol 1e-10)",
    )


def test_c03_spin_covariance_closed_form():
    report = demo_spins(samples=10000, seed=303)
    ok = report.closed_form_residual_max <= 1e-12 and report.fraction_nonzero >= 0.99
    criterion(
        3,
        "spin closed form vs direct covariance",
        ok,
        f"max residual = {report.closed_form_residual_max:.3e} (tol 1e-12), "
        f"nonzero fraction = {report.fraction_nonzero:.4f} (need >= 0.99)",
    )


def test_c04_chi_basis_reproduction():
    rows = chi_basis().unitary.T
    expected = np.array(
        [
            [1, 0, 0, 1],
            [1, 0, 0, -1],
            [0, 1, 1, 0],
            [0, 1, -1, 0],
        ]
    ) / SQ2
    entry_defect = float(np.max(np.abs(np.abs(rows) - np.abs(expected))))
    eig_defect = 0.0
    for k, (s, t) in enumerate([(1, 1), (1, 0), (0, 1), (0, 0)]):
        chi = rows[k]
        eig_defect = max(
            eig_defect,
            float(np.max(np.abs(TOTAL_Z2 @ chi - s * chi))),
            float(np.max(np.abs(TOTAL_X2 @ chi - t * chi))),
        )
    ok = entry_defect <= 1e-12 and eig_defect <= 1e-12
    criterion(
        4,
        "joint-eigenbasis matrix reproduction",
        ok,
        f"entrywise |.| defect = {entry_defect:.3e}, eigen-equation defect = {eig_defect:.3e} "
        "(tol 1e-12)",
    )


def test_c05a_gaussian_demo_unequal_widths():
    grid = Grid.spanning(129, 8.0 * 2.0)
    report = demo_sum_diff(
        [gaussian_profile(grid, 0.0, 1.0)], [gaussian_profile(grid, 0.0, 2.0)]
    )[0]
    ok = (
        report.rank_xy == 1
        and abs(report.qcf_ab - (-3.0)) <= 1e-3 * 3.0
        and not report.warnings
    )
    criterion(
        5,
        "gaussian demo, widths (1, 2)",
        ok,
        f"rank_xy = {report.rank_xy}, qcf_ab = {report.qcf_ab:.6f} "
        f"(want -3 within 3e-3), warnings = {list(report.warnings)}",
    )


def _parity_sectors(f, g):
    """Split the sum/difference-relabeled product f (x) g by wrap-parity sector.

    The wrap-parity sector of a label is the parity of its centered lift into
    [-c, c], c = (d-1)/2: the sum label a lifts to ((a - (d-1)) mod d) and the
    difference label b to (b mod d), each mapped into [-c, c].  Returns the
    second-to-first singular value ratio of the (even, even) and (odd, odd)
    blocks and the total weight of the two mixed-parity blocks.
    """
    d = f.grid.d
    c = (d - 1) // 2
    psi = np.outer(f.samples, g.samples).ravel()
    m = coefficient_matrix(psi, relabel_tps(sum_diff_bijection(d)))
    labels = np.arange(d)
    parity_a = ((labels - (d - 1) + c) % d - c) % 2
    parity_b = ((labels + c) % d - c) % 2
    ratios = []
    for p in (0, 1):
        vals = np.linalg.svd(m[np.ix_(parity_a == p, parity_b == p)], compute_uv=False)
        ratios.append(float(vals[1] / vals[0]))
    mixed = sum(
        float(np.sum(np.abs(m[np.ix_(parity_a == p, parity_b != p)]) ** 2)) for p in (0, 1)
    )
    return ratios, mixed


def _wrapped_tail_bound(halfwidth, sigma1, sigma2):
    """P(|X1+X2| > L) + P(|X1-X2| > L) for independent centered Gaussians."""
    return 2.0 * math.erfc(halfwidth / math.sqrt(2.0 * (sigma1**2 + sigma2**2)))


def test_c05b_gaussian_demo_equal_widths():
    """Equal widths stay a product inside each wrap-parity sector.

    The continuum identity exp(-(x1^2+x2^2)/4) = exp(-(u^2+v^2)/8), with
    u = x1+x2 and v = x1-x2, does not make the modular relabeling rank one:
    (i, j) -> ((i+j) mod d, (i-j) mod d) has determinant 2, so an unwrapped
    pair lands on centered lifts (a~, b~) = (x1+x2, x1-x2)/h of equal parity.
    The relabeled matrix is a Gaussian on a checkerboard: its (even, even)
    and (odd, odd) blocks are each the sampled product exp(-(u^2+v^2)/8),
    cut to the box |a~|, |b~| <= c, which is still a product, so each block
    has alpha2/alpha1 at rounding level (asserted <= 1e-8).  Only a pair whose
    sum or difference leaves [-L, L] (L the half-width) wraps by the odd d and
    lands in a mixed-parity block, so the mixed weight W is at most
    P(|X1+X2| > L) + P(|X1-X2| > L) = 2 erfc(L / sqrt(2 (s1^2 + s2^2))),
    which is 2 erfc(4) ~ 3.1e-8 here.  The main blocks occupy disjoint rows
    and columns, so the full relabeled matrix has two nearly equal Schmidt
    coefficients, each near 1/sqrt(2) > 1/2, from the shared parity bit; by
    Weyl's inequality every further one is at most the mixed blocks'
    Frobenius norm sqrt(W), so the rank at truncation 2 sqrt(W) is exactly 2.

    Contrast, the unequal widths (1, 2) of c05a: the sector block samples
    exp(-(p (u^2+v^2) + 2 q u v) / 16), p = 1/s1^2 + 1/s2^2,
    q = 1/s1^2 - 1/s2^2.  By Mehler's formula its Schmidt coefficients fall
    geometrically with ratio (p - sqrt(p^2 - q^2)) / q = (s2-s1)/(s2+s1) = 1/3;
    cutting the lattice to the box moves the ratio by at most about
    3 sqrt(W), W = 2 erfc(16 / sqrt(10)) ~ 2e-12.
    """
    grid = Grid.spanning(129, 8.0)
    f = gaussian_profile(grid, 0.0, 1.0)
    tail = _wrapped_tail_bound(8.0, 1.0, 1.0)
    rank_tol = 2.0 * math.sqrt(tail)
    report = demo_sum_diff([f], [f], truncation_tol=rank_tol)[0]
    assert abs(report.qcf_ab) <= 1e-8, f"equal-width covariance {report.qcf_ab!r}"
    ratios, mixed = _parity_sectors(f, f)

    wide = Grid.spanning(129, 8.0 * 2.0)
    contrast, _ = _parity_sectors(
        gaussian_profile(wide, 0.0, 1.0), gaussian_profile(wide, 0.0, 2.0)
    )
    contrast_tol = 3.0 * math.sqrt(_wrapped_tail_bound(16.0, 1.0, 2.0))

    ok = (
        max(ratios) <= 1e-8
        and mixed <= tail
        and report.rank_ab == 2
        and all(abs(r - 1.0 / 3.0) <= contrast_tol for r in contrast)
    )
    criterion(
        5,
        "gaussian demo, equal widths, product in each wrap-parity sector",
        ok,
        f"|qcf_ab| = {abs(report.qcf_ab):.3e} <= 1e-8, sector alpha2/alpha1 = "
        f"{ratios[0]:.3e}, {ratios[1]:.3e} (tol 1e-8), mixed-parity weight "
        f"{mixed:.3e} (bound {tail:.3e}), rank_ab = {report.rank_ab} at "
        f"truncation {rank_tol:.3e} (want 2, the parity bit); "
        f"widths (1, 2) sector ratios {contrast[0]:.14f}, {contrast[1]:.14f} "
        f"(want 1/3 within {contrast_tol:.1e})",
    )


def test_c06_plane_waves_relabel_exactly():
    d = 9
    grid = Grid.spanning(d, 4.0)
    bij = sum_diff_bijection(d)
    worst = 0.0
    for m1 in range(d):
        for m2 in range(d):
            c = np.outer(fourier_profile(grid, m1).samples, fourier_profile(grid, m2).samples)
            vals = schmidt(c.ravel(), relabel_tps(bij)).coefficients
            worst = max(worst, float(vals[1]))
    criterion(
        6,
        "plane-wave relabeling exactness",
        worst <= 1e-12,
        f"81 mode pairs, worst alpha_2 = {worst:.3e} (tol 1e-12)",
    )


def test_c07_zero_line_argument():
    grid = Grid.spanning(129, 8.0 * 1.3)
    report = demo_sum_diff([odd_profile(grid, 1.0)], [gaussian_profile(grid, 0.0, 1.3)])[0]
    ok = report.rank_ab >= 2 and report.alpha_ratio_ab > 0.1
    criterion(
        7,
        "zero-line nonfactorizability",
        ok,
        f"rank_ab = {report.rank_ab}, alpha2/alpha1 = {report.alpha_ratio_ab:.4f} (need > 0.1)",
    )


def test_c08_tps_invariance_under_local_maps():
    rng = np.random.default_rng(808)
    worst = 0.0
    failures = 0
    for d1, d2 in [(2, 2), (2, 3), (3, 3)]:
        tps = trivial_tps(d1, d2)
        for _ in range(334):
            u, v = random_product_pair(d1, d2, rng)
            psi = tensor_vec(u, v)
            base = schmidt(psi, tps).coefficients
            rotated = TensorProductStructure(
                d1, d2, np.kron(random_unitary(d1, rng), random_unitary(d2, rng))
            )
            diff = float(np.max(np.abs(schmidt(psi, rotated).coefficients - base)))
            relabeled = relabel_tps(
                factor_local_bijection(rng.permutation(d1), rng.permutation(d2))
            )
            diff = max(diff, float(np.max(np.abs(schmidt(psi, relabeled).coefficients - base))))
            worst = max(worst, diff)
            failures += diff > 1e-10
    criterion(
        8,
        "local maps preserve Schmidt coefficients",
        failures == 0,
        f"1002 triples, worst coefficient drift = {worst:.3e} (tol 1e-10)",
    )


def test_c09_disentangling_tps():
    rng = np.random.default_rng(909)
    failures = 0
    for d in (2, 3):
        tps = trivial_tps(d, d)
        for _ in range(100):
            psi = random_entangled_state(d, d, rng)
            out = disentangling_tps(psi, tps)
            failures += schmidt(psi, out).rank != 1
    criterion(
        9,
        "disentangling TPS reaches rank one",
        failures == 0,
        f"200 entangled states in (2,2) and (3,3), failures = {failures}",
    )


def test_c10_bell_violation_for_entangled_states():
    rng = np.random.default_rng(1010)
    bell = np.array([1, 0, 0, 1], dtype=complex) / SQ2
    bell_value = chsh_max(bell, trivial_tps(2, 2)).value
    worst_gap = 0.0
    min_value = np.inf
    failures = 0
    # minimum-entanglement floor alpha2/alpha1 >= 0.05 keeps the guaranteed
    # violation margin above 1e-3 (it vanishes as alpha2 -> 0)
    for _ in range(1000):
        psi = random_entangled_state(2, 2, rng)
        res = chsh_max(psi, trivial_tps(2, 2))
        searched = chsh_search(psi)
        gap = abs(res.value - searched)
        worst_gap = max(worst_gap, gap)
        min_value = min(min_value, res.value)
        failures += (res.value <= 2.0 + 1e-3) or (gap > 1e-4) or (searched > res.value + 1e-9)
    ok = failures == 0 and abs(bell_value - 2 * SQ2) <= 1e-6
    criterion(
        10,
        "CHSH violation and closed-form/search agreement",
        ok,
        f"1000 states, min value = {min_value:.6f} (need > 2.001), worst "
        f"|closed-form - search| = {worst_gap:.3e} (tol 1e-4, search never above), "
        f"Bell value = {bell_value:.9f} (want 2*sqrt(2) within 1e-6)",
    )


def test_c11_witness_soundness():
    rng = np.random.default_rng(1111)
    counterexamples = 0
    witnessed_total = 0
    for d1, d2 in [(2, 2), (2, 3), (3, 3)]:
        tps = trivial_tps(d1, d2)
        for k in range(334):
            if k % 2 == 0:
                u, v = random_product_pair(d1, d2, rng)
                psi = tensor_vec(u, v)
            else:
                psi = haar_state(d1 * d2, rng)
            rep = qcf_local(random_hermitian(d1, rng), random_hermitian(d2, rng), psi, tps)
            if rep.witnessed:
                witnessed_total += 1
                vals = schmidt(psi, tps).coefficients
                if vals[1] <= 1e-10 * vals[0]:
                    counterexamples += 1
    criterion(
        11,
        "witness soundness (witnessed implies rank >= 2)",
        counterexamples == 0 and witnessed_total > 100,
        f"{witnessed_total} witnessed verdicts, counterexamples = {counterexamples}",
    )


def test_c12_deterministic_reports(tmp_path):
    from tpslab.statefile import StateFile, dump_json

    bell_path = tmp_path / "bell.json"
    bell = StateFile(2, 2, np.array([1, 0, 0, 1], dtype=complex) / SQ2)
    bell_path.write_text(dump_json(bell.to_dict()), encoding="utf-8")
    suites = [
        ["schmidt", str(bell_path)],
        ["qcf", str(bell_path), "--obs-a", "pauli-z", "--obs-b", "pauli-z", "--local"],
        ["demo", "coords", "--d", "65"],
        ["demo", "spins", "--samples", "200", "--seed", "5"],
        ["demo", "bell", "--samples", "15", "--seed", "8"],
        ["chsh", str(bell_path)],
    ]
    mismatches = []
    for idx, args in enumerate(suites):
        out1 = tmp_path / f"run{idx}_1.json"
        out2 = tmp_path / f"run{idx}_2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        if out1.read_bytes() != out2.read_bytes():
            mismatches.append(args[0])
    criterion(
        12,
        "byte-identical reports under fixed seeds",
        not mismatches,
        f"{len(suites)} suites rerun, mismatches = {mismatches or 'none'}",
    )
