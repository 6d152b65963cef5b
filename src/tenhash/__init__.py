"""Multi-view clustering via tensorized projection hashing.

Pipeline: kernelize each view against sampled anchors, learn per-view
projection and sign-code matrices with a four-block ADMM whose stacked
tensors are pushed toward low rank, fuse the codes by majority vote, and
cluster them with binary k-means in Hamming space.
"""

from .data import (
    MultiViewData,
    gen_gaussian_clusters,
    load_multiview,
    salt_pepper,
    save_multiview,
)
from .hamming_kmeans import (
    ClusterModel,
    assign_step,
    binary_kmeans,
    binary_kmeans_restarts,
    centroid_step,
)
from .kernel import (
    estimate_bandwidth,
    kernelize,
    kernelize_views,
    sample_anchors,
    standardize_features,
)
from .metrics import accuracy, all_metrics, ari, contingency_table, f_score, nmi, purity
from .solver import (
    HashCodes,
    IterationRecord,
    SolverConfig,
    SolverState,
    fuse_codes,
    gram_factors,
    init_state,
    solve,
)
from .tensor_ops import (
    TSvd,
    enhanced_tensor_nuclear_norm,
    enhanced_tensor_svt,
    extract_core_matrix,
    fold_core_matrix,
    matrix_svt,
    t_product,
    t_svd,
    t_transpose,
    tensor_nuclear_norm,
    tensor_svt,
)

__version__ = "0.1.0"
