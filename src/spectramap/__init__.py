"""spectramap: fuzzy k-NN graph embedding with a spectral equivalence bench.

Pipeline: exact k-NN search -> smooth-knn calibration -> fuzzy similarity
graph -> spectral initialization -> negative-sampling SGD. The equivalence
module certifies numerically that the pieces compose into normalized
spectral clustering on the fuzzy graph.

``import spectramap`` runs the stdlib only. ``_EXPORTS`` maps each
pipeline module to the names the package exports from it; the module
``__getattr__`` (PEP 562) imports a module, and with it numpy, when the
module or one of its names is first read, and caches the name here. So a
caller that reads ``load_csv`` and ``fit_ab`` loads ``datasets``,
``kernels`` and ``errors``, not the graph, solver and SGD modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "datasets": ("DataMatrix", "LabeledDataset", "gen_blobs", "gen_two_moons", "load_csv",
                 "save_csv"),
    "equivalence": ("CLAIM_IDS", "EquivalenceReport", "SuiteResult", "run_suite"),
    "errors": ("ConfigurationError", "EigensolverError", "GraphStructureError",
               "KernelFitError", "OptimizationError", "ParseError"),
    "fuzzy": ("SimilarityGraph", "SmoothKnnParams", "build_similarity_graph",
              "directed_weights", "smooth_knn_params", "symmetrize", "t_conorm"),
    "kernels": ("KernelParams", "MinDistFit", "fit_ab", "log_phi", "one_minus_phi"),
    "knn": ("KnnGraph", "knn_search"),
    "losses": ("LossReport", "attractive_term", "cross_entropy_loss", "expected_sgd_loss",
               "first_order", "sampled_cross_entropy", "step_losses"),
    "optim": ("EdgeSampler", "Embedding", "OptimizeResult", "OptimizerConfig", "optimize",
              "random_embedding", "spectral_embedding"),
    "spectra": ("SpectralSolution", "laplacian_quadratic", "normalized_laplacian",
                "spectral_init"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_MODULE_OF[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
