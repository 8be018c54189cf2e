"""spectramap: fuzzy k-NN graph embedding with a spectral equivalence bench.

Pipeline: exact k-NN search -> smooth-knn calibration -> fuzzy similarity
graph -> spectral initialization -> negative-sampling SGD. The equivalence
module certifies numerically that the pieces compose into normalized
spectral clustering on the fuzzy graph.
"""

from .datasets import (
    DataMatrix,
    LabeledDataset,
    gen_blobs,
    gen_two_moons,
    load_csv,
    save_csv,
)
from .equivalence import (
    CLAIM_IDS,
    EquivalenceReport,
    SuiteResult,
    run_suite,
)
from .errors import (
    ConfigurationError,
    EigensolverError,
    GraphStructureError,
    KernelFitError,
    OptimizationError,
    ParseError,
)
from .fuzzy import (
    SimilarityGraph,
    SmoothKnnParams,
    build_similarity_graph,
    directed_weights,
    smooth_knn_params,
    symmetrize,
    t_conorm,
)
from .kernels import (
    KernelParams,
    MinDistFit,
    fit_ab,
    log_phi,
    one_minus_phi,
)
from .knn import KnnGraph, knn_search
from .losses import (
    LossReport,
    attractive_term,
    cross_entropy_loss,
    expected_sgd_loss,
    first_order,
    step_losses,
)
from .optim import (
    EdgeSampler,
    Embedding,
    OptimizeResult,
    OptimizerConfig,
    optimize,
    random_embedding,
    spectral_embedding,
)
from .spectra import (
    SpectralSolution,
    laplacian_quadratic,
    normalized_laplacian,
    spectral_init,
)

__version__ = "0.1.0"
