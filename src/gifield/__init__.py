"""Coherence-optimized light fields for compressive ghost imaging.

Pipeline: learn a constrained sparsifying dictionary from images
(:mod:`gifield.dictionary`), derive the closed-form coherence-optimized
sampling matrix from its eigenstructure (:mod:`gifield.fieldopt`), simulate
bucket-detector measurements and reconstruct by sparse coding
(:mod:`gifield.imaging`), score with PSNR/SSIM/coherence
(:mod:`gifield.metrics`), and sweep sampling ratios into CSV tables
(:mod:`gifield.harness`).
"""

from .data import (
    Dataset,
    load_idx_images,
    random_subset,
    read_matrix,
    read_matrix_meta,
    write_matrix,
)
from .dictionary import (
    Dictionary,
    TrainingConfig,
    ksvd_train,
    omp,
    sparse_code_columns,
)
from .errors import (
    CorruptionError,
    FormatError,
    GifieldError,
    ValidationError,
)
from .fieldopt import (
    FieldOptState,
    build_state,
    design_objective,
    gaussian_sampling,
    nn_lift,
    optimize_sampling,
    quantize_matrix,
)
from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    load_config,
    load_dictionary,
    run_experiment,
    train_dictionary,
)
from .imaging import (
    NoiseModel,
    measure,
    reconstruct,
)
from .metrics import QualityReport, aggregate, mse, mutual_coherence, psnr, ssim

__version__ = "0.1.0"

__all__ = [
    "CorruptionError",
    "Dataset",
    "Dictionary",
    "ExperimentConfig",
    "ExperimentRecord",
    "FieldOptState",
    "FormatError",
    "GifieldError",
    "NoiseModel",
    "QualityReport",
    "TrainingConfig",
    "ValidationError",
    "aggregate",
    "build_state",
    "design_objective",
    "gaussian_sampling",
    "ksvd_train",
    "load_config",
    "load_dictionary",
    "load_idx_images",
    "measure",
    "mse",
    "mutual_coherence",
    "nn_lift",
    "omp",
    "optimize_sampling",
    "psnr",
    "quantize_matrix",
    "random_subset",
    "read_matrix",
    "read_matrix_meta",
    "reconstruct",
    "run_experiment",
    "sparse_code_columns",
    "ssim",
    "train_dictionary",
    "write_matrix",
]
