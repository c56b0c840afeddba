"""tpslab: factorizability of quantum states relative to tensor product structures.

Small dense-linear-algebra toolkit for exploring how Schmidt rank, the
quantum covariance function, and Bell-inequality violations change when the
same global state is read through different tensor product structures.
"""

__version__ = "0.1.0"

from .bell import ChshMaxResult, ChshSettings, chsh_max, demo_bell
from .errors import ToolkitError
from .grid import (
    CoordinateDemoReport,
    Grid,
    SampledProfile,
    demo_sum_diff,
    double_gaussian_profile,
    gaussian_profile,
    position_operator,
)
from .qcf import QcfReport, qcf, qcf_local
from .sampling import haar_state, random_entangled_state
from .schmidt import SchmidtDecomposition, schmidt
from .spins import chi_basis, demo_spins
from .tps import (
    IndexBijection,
    TensorProductStructure,
    coefficient_matrix,
    disentangling_tps,
    factor_local_bijection,
    random_bijection,
    relabeled,
    sum_diff_bijection,
    swap_bijection,
    tps_with_spectrum,
    trivial_tps,
)
