"""Unsupervised feature selection for incomplete multi-view data.

Weighted nonnegative matrix factorization with complementary similarity-graph
reconstruction, a consensus cluster indicator, adaptive view weights and l2,p
row sparsity, plus the clustering-based evaluation protocol.
"""

from .datamodel import (
    DatasetError,
    MultiViewDataset,
    SyntheticSpec,
    build_view_weights,
    generate_synthetic,
    impute_missing,
    load_dataset,
    save_dataset,
    simulate_missing,
)
from .evaluation import EvaluationReport, acc, kmeans, nmi, run_protocol
from .graph import (
    build_initial_similarity,
    laplacian,
    pairwise_sq_dists,
    update_similarity,
)
from .selection import FeatureRanking, score_features, select_top
from .simplex import project_offdiag_columns, project_offdiag_simplex, project_simplex
from .solver import (
    Hyperparameters,
    SolverResult,
    SolverState,
    fit,
    initialize,
    objective,
    update_alpha,
)

__version__ = "0.1.0"
