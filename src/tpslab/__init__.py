"""tpslab: factorizability of quantum states relative to tensor product structures.

Small dense-linear-algebra toolkit for exploring how Schmidt rank, the
quantum covariance function, and Bell-inequality violations change when the
same global state is read through different tensor product structures.
"""

__version__ = "0.1.0"

from .bell import ChshMaxResult, ChshSettings, chsh_max, chsh_max_closed_form, chsh_value, demo_bell
from .errors import ToolkitError
from .grid import (
    CoordinateDemoReport,
    CoordinateSpectra,
    Grid,
    SampledProfile,
    demo_sum_diff,
    double_gaussian_profile,
    fourier_profile,
    gaussian_profile,
    odd_profile,
    position_operator,
    sum_diff_spectra,
)
from .linalg import eigh, expectation, svd, tensor_op, tensor_vec
from .qcf import QcfReport, qcf, qcf_local, variance
from .sampling import (
    haar_state,
    random_entangled_state,
    random_hermitian,
    random_product_state,
    random_unitary,
)
from .schmidt import SchmidtDecomposition, schmidt, schmidt_values
from .spins import SpinConfig, chi_basis, demo_spins, spin_operators, spin_qcf_closed_form, total_spin_squares
from .tps import (
    IndexBijection,
    TensorProductStructure,
    coefficient_matrix,
    disentangling_tps,
    factor_local_bijection,
    identity_bijection,
    random_bijection,
    relabel_tps,
    relabeled,
    sum_diff_bijection,
    swap_bijection,
    tps_from_joint_eigenbasis,
    tps_with_spectrum,
    trivial_tps,
)
