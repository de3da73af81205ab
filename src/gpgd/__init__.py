"""Projected gradient descent for inverse problems with pluggable
generalized projections, learned dense projective priors, and empirical
verification of the restricted-isometry convergence theory."""

from .signals import NoiseSpec, add_noise, psnr
from .operators import (
    Blur,
    Composition,
    DenseOperator,
    PixelMask,
    gaussian_blur_kernel,
    make_inpainting_operator,
    make_superres_operator,
)
from .models import (
    ExactProjector,
    KSparse,
    PerturbedProjector,
    UnionOfLines,
    hard_threshold,
    project,
    project_union,
)
from .solver import GpgdConfig, convergence_iteration, default_step_size, gpgd_run
from .nets import DenseNet, NetProjector, TrainConfig, make_net, train
from .theory import (
    orthogonality_report,
    restricted_lipschitz_sampled,
    ric_exact_ksparse,
    ric_sampled,
    theorem1_bound,
    theorem3_bound,
)

__version__ = "0.23.0"
