"""Trimmed density ratio estimation.

A convex, outlier-robust estimator of the density ratio p(x)/q(x): the
classical log-linear KLIEP objective is made robust by keeping only the
nu-fraction of numerator samples with the smallest fitted log-ratio,
re-chosen at every ascent step. The package ships the estimator, the
untrimmed baseline, synthetic generators and evaluation metrics for the
reference experiments, brute-force oracles for cross-checking, and a CLI
(``trdre fit | experiment | gen``).
"""

from .baselines import brute_force_maxmin_1d, enumerate_weight_vertices
from .estimator import (
    FitDivergedError,
    FitResult,
    KKTReport,
    TrimConfig,
    assign_weights,
    fit,
    fit_featurized,
    fit_kliep,
    fit_many,
    fit_result_to_dict,
    gradient,
    kkt_check,
    objective,
)
from .evaluation import (
    SupportCurve,
    auc_tnr_tpr,
    differential_precision_matrix,
    error_scaling,
    ratio_curve_error,
    support_curve,
    support_metrics,
    true_gaussian_log_ratio,
)
from .ratio_model import (
    FeatureMap,
    GaussianKernelFeatures,
    LinearFeatures,
    PairwiseQuadraticFeatures,
    as_sample_matrix,
    feature_map_from_name,
    featurize,
    log_ratios,
    median_pairwise_distance,
    softmax_weights,
)
from .synthetic import (
    GaussianMNPair,
    gen_gaussian_mn_pair,
    gen_outlier_1d,
    gen_truncation_1d,
    inject_outliers,
    sample_gaussian,
    sample_truncated_gaussian,
)

__version__ = "0.1.0"
