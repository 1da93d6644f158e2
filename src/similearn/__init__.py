"""similearn: kernel self-expression similarity learning.

Learns an n x n coefficient matrix from a kernel matrix by regularized
self-expression with a similarity-preserving penalty, then uses it for
spectral clustering or graph-based semi-supervised classification.
"""

__version__ = "0.1.0"

from .kernels import (
    KernelMatrix,
    KernelSpec,
    build_kernel_bank,
    compute_kernel,
    normalize_kernel,
)
from .solver import (
    SolverConfig,
    Solution,
    evaluate_objective,
    prox_l1,
    prox_nuclear,
    solve,
)
from .graph import cluster, kmeans, spectral_embed
from .semisupervised import lgc_propagate, ssl_experiment
from .metrics import accuracy, nmi
