"""Adaptive Gaussian smoothing of 3D volumes with an end-to-end trained width.

A width-predicting network estimates per-volume noise through a fixed
Laplacian response and emits a Gaussian filter width; the main path builds
the filter, smooths the volume and classifies it, and the whole graph is
trained jointly so the smoothing degree serves the decoding task.
"""

from .volume_io import (
    DatasetManifest,
    ManifestEntry,
    Volume,
    add_gaussian_noise,
    normalize_subject,
    read_manifest,
    read_nifti,
    read_volume,
    write_manifest,
    write_volume,
)
from .gaussian_filter import (
    GaussianFilter,
    apply_degenerate_policy,
    build_filter,
    fwhm_mm_to_sigma,
    sigma_to_fwhm_mm,
)
from .conv3d import convolve, convolve_separable
from .params_net import (
    ParamsNetWeights,
    map_to_sigma,
    map_to_sigma_backward,
    noise_feature,
)
from .classifier import ClassifierWeights, bce_loss, l2_penalty
from .trainer import TrainConfig, TrainReport, evaluate, grid_search, train
from .phantom import PhantomSpec, generate
from .errors import AdaptSmoothError, DataError, NumericalError, UsageError

__version__ = "0.1.0"
