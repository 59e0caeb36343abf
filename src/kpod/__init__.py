"""k-POD: k-means clustering of partially observed data.

The core fit (:func:`kpod_fit`) minimizes the squared error between the data
and a clustered reconstruction over the observed entries only, by alternating
model-based fill-in of the unobserved cells with complete-data k-means. The
package also ships the surrounding experiment machinery: mean-impute and
column-deletion baselines, MCAR/MAR/NMAR amputation, Gaussian-mixture
simulation, Rand-index scoring, CSV conventions, and a benchmark runner.
"""

from .baselines import delete_cluster, mean_impute_cluster
from .benchmark import (
    FileDataset,
    ReportRow,
    ScenarioGrid,
    aggregate_rows,
    dataset_for_trial,
    derive_seed,
    run_benchmark,
    write_report,
)
from .csv_io import read_labels_csv, read_masked_csv, write_labels_csv, write_masked_csv
from .errors import (
    CsvParseError,
    DegenerateColumnError,
    DegenerateRowError,
    DeletionInfeasibleError,
    DuplicateCentersWarning,
    InfeasibleError,
    KPodError,
    QuantileFallbackWarning,
    ShapeMismatchError,
)
from .evaluation import PairCounts, adjusted_rand_index, pair_counts, rand_index
from .kmeans import (
    Assignment,
    Centroids,
    EngineSettings,
    KMeansResult,
    assign_step,
    kmeans_objective,
    kmeanspp_init,
    lloyd,
    update_step,
)
from .masked import ColumnStats, MaskedMatrix, column_stats, fill_unobserved, project_observed, standardize
from .missingness import Mechanism, MechanismSpec, MixtureSpec, ampute, perturb_dataset, simulate_mixture
from .mm import KPodConfig, KPodResult, init_fill, kpod_fit, majorization_value

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Centroids",
    "ColumnStats",
    "CsvParseError",
    "DegenerateColumnError",
    "DegenerateRowError",
    "DeletionInfeasibleError",
    "DuplicateCentersWarning",
    "EngineSettings",
    "FileDataset",
    "InfeasibleError",
    "KMeansResult",
    "KPodConfig",
    "KPodError",
    "KPodResult",
    "MaskedMatrix",
    "Mechanism",
    "MechanismSpec",
    "MixtureSpec",
    "PairCounts",
    "QuantileFallbackWarning",
    "ReportRow",
    "ScenarioGrid",
    "ShapeMismatchError",
    "adjusted_rand_index",
    "aggregate_rows",
    "ampute",
    "assign_step",
    "column_stats",
    "dataset_for_trial",
    "delete_cluster",
    "derive_seed",
    "fill_unobserved",
    "init_fill",
    "kmeans_objective",
    "kmeanspp_init",
    "kpod_fit",
    "lloyd",
    "majorization_value",
    "mean_impute_cluster",
    "pair_counts",
    "perturb_dataset",
    "project_observed",
    "rand_index",
    "read_labels_csv",
    "read_masked_csv",
    "run_benchmark",
    "simulate_mixture",
    "standardize",
    "update_step",
    "write_labels_csv",
    "write_masked_csv",
    "write_report",
]
