"""Numerical certification that the embedding objective, its optimizer, and
its initialization are spectral clustering on the fuzzy neighbor graph.

Each check builds instances through the real pipeline (data -> k-NN ->
fuzzy graph), computes one quantity along two independent routes, and
reports the measured residual against its tolerance. Claim ids:

    thm3.1a          Gaussian attraction == (1/tau) tr(Y^T L Y), to rounding
    thm3.1b          Cauchy attraction -> a sum w s^b (2a tr(Y^T L Y) at b=1) as scales shrink
    thm3.1c          spectral layout minimizes the normalized trace objective
    eq13_montecarlo  sampled step losses average to the expected epoch loss
                     (a 3-standard-error test: fails for ~0.27% of seeds)
    lemmaA1          the Gaussian form's edge sum equals the matrix form tr(Z^T L Z)
    eq20_bound       the curvature bound dominates the Cauchy attraction's gap to a sum w s^b
    a3_relaxation    (L, D) generalized eigenpairs map onto normalized ones

``CLAIM_REGISTRY`` sets the run order and each claim's stream key.
The dense oracles of thm3.1c, lemmaA1 and a3_relaxation, and thm3.1a's
matrix route, live in their claims, never in the modules they certify.
The identities hold for any symmetric W, so a fault in the calibration or
in the t-conorm is outside the suite's scope; tests/test_fuzzy.py covers
those layers.
"""

from __future__ import annotations

import importlib
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .datasets import gen_blobs
from .errors import ConfigurationError, GraphStructureError
from .fuzzy import SimilarityGraph, build_similarity_graph
from .kernels import DEFAULT_MIN_DIST, KernelParams, fit_ab
from .losses import edge_sq_lengths, expected_sgd_loss, first_order, step_losses
from .optim import SPECTRAL_MAX_ABS, EdgeSampler
from .spectra import normalized_laplacian, spectral_init

# the dense oracles treat eigenvalues at or below this as the zero eigenspace
NULL_SPACE_TOL = 1e-8
# Monte Carlo draws evaluated per step_losses call in the eq13 check
MC_SLICE = 2**14
# distance between the two blob centres of pipeline_graph
BLOB_SEPARATION = 6.0
# chance of each off-backbone edge in random_connected_graph
EXTRA_EDGE_PROB = 0.15


@dataclass(frozen=True)
class EquivalenceReport:
    """One measured residual against its tolerance, with instance context."""

    claim: str
    residual: float
    tolerance: float
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.claim not in CLAIM_IDS:
            raise ConfigurationError(f"unknown claim id {self.claim!r}")
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)


def _blob_graph(seed, per: int, centers, k: int) -> SimilarityGraph:
    """Fuzzy k-NN graph of ``per`` unit-spread points around each centre,
    drawn from the first integer of ``default_rng(seed)``."""
    ds = gen_blobs(per, centers, std=1.0, seed=int(np.random.default_rng(seed).integers(2**31)))
    return build_similarity_graph(ds.data, k)


def pipeline_graph(n: int, seed, k: int | None = None) -> SimilarityGraph:
    """Fuzzy graph of a two-blob cloud of n // 2 points per blob, built
    through the real pipeline; an odd n loses one point."""
    if n < 4:
        raise ConfigurationError("need n >= 4")
    if k is None:
        k = min(10, n // 2 * 2 - 1)
    return _blob_graph(seed, n // 2, [(0.0, 0.0, 0.0), (BLOB_SEPARATION, 0.0, 0.0)], k)


def connected_two_blob_graph(seed=0) -> SimilarityGraph:
    """Two overlapping blobs of 50 points whose fuzzy graph (k = 15) is a
    single component."""
    V = _blob_graph(seed, 50, [(0.0, 0.0), (4.0, 0.0)], 15)
    if V.components[0] != 1:
        raise GraphStructureError("expected the overlapping blobs to be connected")
    return V


def random_connected_graph(n: int, rng: np.random.Generator) -> SimilarityGraph:
    """Random weighted graph with a permuted path backbone (hence connected)."""
    order = rng.permutation(n)
    dense = np.zeros((n, n))
    dense[order[:-1], order[1:]] = rng.uniform(0.2, 1.0, size=n - 1)
    iu, ju = np.triu_indices(n, k=1)
    extra = rng.random(iu.size) < EXTRA_EDGE_PROB
    dense[iu[extra], ju[extra]] = rng.uniform(0.2, 1.0, size=int(extra.sum()))
    return SimilarityGraph.from_dense(np.maximum(dense, dense.T))


def check_gaussian_exactness(n: int, d: int, tau: float, seed) -> EquivalenceReport:
    """Relative gap between the Gaussian attraction and (1/tau) tr(Y^T L Y).

    Y is uniform in [-0.5, 0.5]^d, and the same Y is evaluated again rescaled
    to max-abs ``SPECTRAL_MAX_ABS``, the scale of the pipeline's spectral
    start. The sides under test are ``losses.first_order``'s attraction
    (closed-form log phi, no clamp) and its form, the ``laplacian_form`` of
    ``embed``'s trace; both sum w s over ``edge_sq_lengths``. The reference
    is the matrix route (1/tau) (sum_i d_i ||y_i||^2 - sum_ij w_ij y_i^T y_j)
    through ``degrees`` and ``matrix`` @ Y, which shares no step with them.
    The residual is the worse of the two sides' gaps to it, relative to the
    attraction, at the worse scale. The tolerance is Higham's bound on
    recursive summation (Accuracy and Stability of Numerical Algorithms,
    2002, ch. 3-4), gamma_m (sum d ||y||^2 + |sum w y^T y|) / (tau |attraction|)
    with gamma_m = m u / (1 - m u) and m = nnz + n d, at the tighter scale:
    no chain of sums in either route accumulates more than m terms.
    """
    V = pipeline_graph(n, seed)
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-0.5, 0.5, size=(V.n, d))
    p = KernelParams.gaussian(tau)
    deg = V.degrees()
    m_u = (V.nnz + V.n * d) * np.finfo(np.float64).eps / 2
    gamma = m_u / (1 - m_u)
    scales, residuals, bounds = [], [], []
    for Ys in (Y, Y * (SPECTRAL_MAX_ABS / np.abs(Y).max())):
        att, form, _ = first_order(V, Ys, p)
        diag = float(np.einsum("i,ij,ij->", deg, Ys, Ys))
        cross = float(np.einsum("ij,ij->", Ys, V.matrix @ Ys))
        reference = (diag - cross) / tau
        size = abs(att) or 1.0
        residuals.append(max(abs(att - reference), abs(form - reference)) / size)
        bounds.append(gamma * (diag + abs(cross)) / (tau * size))
        scales.append(float(np.abs(Ys).max()))
    return EquivalenceReport(
        claim="thm3.1a",
        residual=max(residuals),
        tolerance=min(bounds),
        context={
            "n": V.n, "d": d, "kernel": "gaussian", "tau": tau, "max_abs_y": scales,
            "residuals": residuals, "bounds": bounds, "seed": str(seed),
        },
    )


def _scaled_instance(n, d, p, scale, seed):
    """``first_order`` on a pipeline graph and a random Y shrunk so the longest
    edge has sq-dist ``scale``, with the context the thm3.1b and eq20 reports share."""
    V = pipeline_graph(n, seed)
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((V.n, d))
    Y *= np.sqrt(scale / edge_sq_lengths(V, Y)[1].max())
    context = {"n": V.n, "d": d, "kernel": "cauchy(a=%g, b=%g)" % (p.a, p.b), "scale": scale}
    return *first_order(V, Y, p), context


def check_cauchy_first_order(
    n: int, d: int, p: KernelParams, scale: float, seed
) -> EquivalenceReport:
    """Relative gap between the Cauchy attraction and its form a sum w s^b.

    Y is rescaled so every edge has s <= ``scale``, so x = a s^b <= X =
    a scale^b; the gap is then at most (X/2) form, and the relative gap at
    most (X/2) / (1 - X/2) <= X, the tolerance, while X <= 1.
    """
    att, form, _, context = _scaled_instance(n, d, p, scale, seed)
    return EquivalenceReport(claim="thm3.1b", residual=abs(att - form) / abs(att),
                             tolerance=p.a * scale**p.b, context={**context, "seed": str(seed)})


def check_taylor_bound(
    n: int, d: int, p: KernelParams, scale: float, seed
) -> EquivalenceReport:
    """The Cauchy kernel's measured first-order gap over its curvature bound (< 1)."""
    att, form, bound, context = _scaled_instance(n, d, p, scale, seed)
    gap = abs(att - form)
    residual = gap / bound if bound > 0 else (0.0 if gap == 0 else np.inf)
    return EquivalenceReport(claim="eq20_bound", residual=residual, tolerance=1.0,
                             context={**context, "gap": gap, "bound": bound, "seed": str(seed)})


def check_spectral_optimality(
    V: SimilarityGraph, d: int, trials: int, seed
) -> EquivalenceReport:
    """The spectral layout's trace can never exceed a competing frame's.

    Compares tr(Y^T Lnorm Y) of the spectral solution against ``trials``
    random orthonormal frames orthogonal to the null space (QR of a Gaussian
    draw less its null-space part), and against the eigenvalue sum from an
    independent dense decomposition. The combined residual folds the
    eigenvalue-sum check in at a tenth of its 1e-8 tolerance so a single
    1e-9 threshold covers both.
    """
    if V.components[0] != 1:
        raise GraphStructureError("spectral optimality check requires a connected graph")
    sol = spectral_init(V, d)
    Ln = normalized_laplacian(V).toarray()
    tr_sp = float(np.sum(sol.vectors * (Ln @ sol.vectors)))

    vals = np.linalg.eigvalsh(Ln)
    above = vals[vals > NULL_SPACE_TOL]
    eig_sum = float(above[:d].sum())

    null = np.sqrt(V.degrees())
    null = (null / np.linalg.norm(null))[:, None]
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(trials):
        G = rng.standard_normal((V.n, d))
        Q, _ = np.linalg.qr(G - null @ (null.T @ G))
        tr_q = float(np.sum(Q * (Ln @ Q)))
        worst = max(worst, tr_sp - tr_q)

    residual = max(worst, abs(tr_sp - eig_sum) / 10.0)
    return EquivalenceReport(
        claim="thm3.1c",
        residual=residual,
        tolerance=1e-9,
        context={
            "n": V.n,
            "d": d,
            "trials": trials,
            "trace": tr_sp,
            "eigenvalue_sum": eig_sum,
            "worst_frame_margin": worst,
            "seed": str(seed),
        },
    )


def mc_step_losses(
    V: SimilarityGraph,
    Y: np.ndarray,
    p: KernelParams,
    n_neg: int,
    n_draws: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draws of the per-event loss under the real sampling scheme.

    The events are the optimizer's, ``EdgeSampler.draw_events``'s stream,
    and ``losses.step_losses`` evaluates every draw at Y, the same
    arithmetic the optimizer traces each epoch with. Each draw's loss
    depends on that draw alone, so after the pairs the draws go
    ``MC_SLICE`` at a time: each slice's negatives are drawn just before
    they are scored into one output array, so neither the whole negatives
    block nor the evaluation's temporaries are held at once.
    """
    sampler = EdgeSampler(V)
    anchors, partners = sampler.draw_pairs(rng, n_draws)
    losses = np.empty(n_draws)
    for lo in range(0, n_draws, MC_SLICE):
        s = slice(lo, lo + MC_SLICE)
        negs = sampler.draw_negatives(rng, anchors[s].size, n_neg)
        losses[s] = step_losses(Y, anchors[s], partners[s], negs, p)
    return losses


def check_expected_loss(
    V: SimilarityGraph,
    Y: np.ndarray,
    p: KernelParams,
    n_neg: int,
    n_draws: int,
    seed,
) -> EquivalenceReport:
    """Monte Carlo epoch aggregate vs the closed-form expectation, in SE units.

    Draws that are all equal have standard error exactly 0 (``np.std`` can
    return a few ulps there); the check then asks the Monte Carlo mean to
    match the expectation to 1e-12 relative.
    """
    if n_draws < 2:
        raise ConfigurationError("need at least two draws for a standard error")
    rng = np.random.default_rng(seed)
    losses = mc_step_losses(V, Y, p, n_neg, n_draws, rng)
    total_w = float(np.sum(V.weights))  # v_ij over ordered pairs
    mc = total_w * float(losses.mean())
    if np.ptp(losses) == 0:
        se = 0.0
    else:
        se = total_w * float(losses.std(ddof=1)) / np.sqrt(n_draws)
    expected = expected_sgd_loss(V, Y, p, n_neg)
    if se == 0.0:
        residual = 0.0 if abs(mc - expected) <= 1e-12 * max(abs(expected), 1.0) else np.inf
    else:
        residual = abs(mc - expected) / se
    return EquivalenceReport(
        claim="eq13_montecarlo",
        residual=residual,
        tolerance=3.0,
        context={
            "n": V.n,
            "n_neg": n_neg,
            "n_draws": n_draws,
            "monte_carlo": mc,
            "expected": expected,
            "standard_error": se,
            "seed": str(seed),
        },
    )


def check_laplacian_identity(trials: int, seed) -> EquivalenceReport:
    """Edge-sum vs dense-trace forms of the quadratic identity, worst case.

    The edge sum is ``first_order``'s Gaussian form at tau = 1, the dense
    side sum Z * (L @ Z) with L = D - W.
    """
    rng = np.random.default_rng(seed)
    p = KernelParams.gaussian(1.0)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 6))
        A = rng.uniform(0.0, 1.0, size=(n, n))
        W = (A + A.T) / 2.0
        np.fill_diagonal(W, 0.0)
        Z = rng.standard_normal((n, d))
        graph = SimilarityGraph.from_dense(W)
        edge_form = first_order(graph, Z, p)[1]
        L = np.diag(W.sum(axis=1)) - W
        dense_form = float(np.sum(Z * (L @ Z)))
        rel = abs(edge_form - dense_form) / max(abs(dense_form), 1e-300)
        worst = max(worst, rel)
    return EquivalenceReport(
        claim="lemmaA1",
        residual=worst,
        tolerance=1e-12,
        context={"trials": trials, "seed": str(seed)},
    )


def check_ncut_relaxation(n_graphs: int, seed) -> EquivalenceReport:
    """Generalized-vs-normalized eigenproblem agreement over random graphs.

    Two dense solves on each graph give the 3 pairs above the null space:
    L u = lambda D u through the nonsymmetric ``np.linalg.eig`` of the
    random-walk matrix D^-1 L, sorted by real part, and Lnorm v = lambda v
    through the symmetric ``np.linalg.eigh``. u -> D^{1/2} u must map one
    subspace onto the other (von Luxburg, "A tutorial on spectral
    clustering", 2007, Prop. 3). The eigenvalue gap includes the compared
    pairs' largest |Im lambda|, so a complex pair fails the claim. The
    largest principal angle is arcsin of the top singular value of
    Q_a - Q_b (Q_b^T Q_a), which stays accurate for small angles (Knyazev &
    Argentati, SIAM J. Sci. Comput. 2002). Residual is the worse of
    (eigenvalue gap / 1e-8) and (principal angle / 1e-6), so 1.0 is the
    pass line for both at once.
    """
    rng = np.random.default_rng(seed)
    worst = worst_gap = worst_angle = 0.0
    for _ in range(n_graphs):
        V = random_connected_graph(int(rng.integers(10, 31)), rng)
        deg = V.degrees()
        gvals, gvecs = np.linalg.eig((np.diag(deg) - V.matrix.toarray()) / deg[:, None])
        order = np.argsort(gvals.real)
        gvals, gvecs = gvals[order], gvecs[:, order]
        nvals, nvecs = np.linalg.eigh(normalized_laplacian(V).toarray())
        gn = int(np.sum(gvals.real <= NULL_SPACE_TOL))
        nn = int(np.sum(nvals <= NULL_SPACE_TOL))
        wanted = gvals[gn : gn + 3]
        gap = float(max(np.abs(wanted.real - nvals[nn : nn + 3]).max(),
                        np.abs(wanted.imag).max()))
        mapped, _ = np.linalg.qr(np.sqrt(deg)[:, None] * gvecs[:, gn : gn + 3].real)
        ortho = nvecs[:, nn : nn + 3]
        sine = np.linalg.svd(mapped - ortho @ (ortho.T @ mapped), compute_uv=False).max()
        angle = float(np.arcsin(min(sine, 1.0)))
        worst_gap = max(worst_gap, gap)
        worst_angle = max(worst_angle, angle)
        worst = max(worst, gap / 1e-8, angle / 1e-6)
    return EquivalenceReport(
        claim="a3_relaxation",
        residual=worst,
        tolerance=1.0,
        context={
            "graphs": n_graphs,
            "max_value_gap": worst_gap,
            "max_principal_angle": worst_angle,
            "seed": str(seed),
        },
    )


@dataclass
class SuiteResult:
    """The claim reports (thm3.1b and eq20_bound on the b = 1 kernel and on
    ``fit_ab(DEFAULT_MIN_DIST)``'s, whose first-order form is the p-Laplacian
    energy with p = 2b), each claim's wall time in seconds and the time spent
    importing ``scipy.sparse`` before the first clock. Wall times
    differ run to run and so stay out of report.json."""

    reports: list[EquivalenceReport]
    claim_wall_s: dict[str, float] = field(default_factory=dict)
    import_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)


DEFAULT_N = 30
DEFAULT_D = 2
CAUCHY_SCALES = (0.1, 0.01, 0.001)

def _run_thm3_1a(rng, n_draws):
    return [check_gaussian_exactness(DEFAULT_N, DEFAULT_D, tau, rng.integers(2**31))
            for tau in (0.5, 1.0, 2.0, 0.7)]


def _cauchy_kernels():
    """The b = 1 kernel, then the kernel ``embed`` fits at its default min-dist."""
    fit = fit_ab(DEFAULT_MIN_DIST)
    return KernelParams.cauchy(1.0, 1.0), KernelParams.cauchy(fit.fitted_a, fit.fitted_b)


def _run_thm3_1b(rng, n_draws):
    seeds = rng.integers(2**31, size=len(CAUCHY_SCALES))
    return [check_cauchy_first_order(DEFAULT_N, DEFAULT_D, p, scale, s)
            for p in _cauchy_kernels() for scale, s in zip(CAUCHY_SCALES, seeds)]


def _run_eq20_bound(rng, n_draws):
    seeds = rng.integers(2**31, size=2)
    return [check_taylor_bound(DEFAULT_N, DEFAULT_D, p, scale, s)
            for p in _cauchy_kernels() for scale, s in zip((0.5, 0.05), seeds)]


def _run_thm3_1c(rng, n_draws):
    V = connected_two_blob_graph(rng.integers(2**31))
    return [check_spectral_optimality(V, d=2, trials=100, seed=rng.integers(2**31))]


def _run_eq13_montecarlo(rng, n_draws):
    V = pipeline_graph(8, rng.integers(2**31), k=3)
    Y = rng.uniform(-1.0, 1.0, size=(V.n, DEFAULT_D))
    return [check_expected_loss(V, Y, KernelParams.cauchy(), 5, n_draws, rng.integers(2**31))]


def _run_lemmaA1(rng, n_draws):
    return [check_laplacian_identity(1000, rng.integers(2**31))]


def _run_a3_relaxation(rng, n_draws):
    return [check_ncut_relaxation(20, rng.integers(2**31))]


# (claim id, stream key, runner) in run order; runner(rng, n_draws) returns
# the claim's reports, and a claim's key never changes, so neither do its draws
CLAIM_REGISTRY = (
    ("thm3.1a", 0, _run_thm3_1a),
    ("thm3.1b", 1, _run_thm3_1b),
    ("eq20_bound", 5, _run_eq20_bound),
    ("thm3.1c", 2, _run_thm3_1c),
    ("eq13_montecarlo", 3, _run_eq13_montecarlo),
    ("lemmaA1", 4, _run_lemmaA1),
    ("a3_relaxation", 6, _run_a3_relaxation),
)
CLAIM_IDS = tuple(claim for claim, _, _ in CLAIM_REGISTRY)


def run_suite(
    master_seed: int = 42,
    claims: list[str] | None = None,
    n_draws: int = 200_000,
) -> SuiteResult:
    """Evaluate every claim (or a filtered subset) in ``CLAIM_REGISTRY``'s
    order, each on its own stream, ``default_rng([master_seed, key])``.
    Every claim but lemmaA1 builds a CSR matrix, so unless lemmaA1 runs
    alone ``scipy.sparse`` is imported before the first claim's clock and
    ``import_s`` books it: no claim's wall time holds a first-use import."""
    wanted = set(CLAIM_IDS if claims is None else claims)
    if not wanted:
        raise ConfigurationError("no claim ids to run")
    if not wanted <= set(CLAIM_IDS):
        raise ConfigurationError(f"unknown claim ids: {sorted(wanted - set(CLAIM_IDS))}; "
                                 f"valid ids: {', '.join(CLAIM_IDS)}")

    result = SuiteResult(reports=[])
    if wanted != {"lemmaA1"}:
        start = time.perf_counter()
        importlib.import_module("scipy.sparse")
        result.import_s = time.perf_counter() - start
    for claim, key, run in CLAIM_REGISTRY:
        if claim in wanted:
            start = time.perf_counter()
            result.reports += run(np.random.default_rng([master_seed, key]), n_draws)
            result.claim_wall_s[claim] = time.perf_counter() - start
    return result


def format_table(result: SuiteResult) -> str:
    """Plain-text kernel-by-kernel summary of the equivalence measurements."""
    gauss = [r for r in result.reports if r.claim == "thm3.1a"]
    cauchy = [r for r in result.reports if r.claim == "thm3.1b"]
    lines = [
        "kernel                    attraction equals          nature       residual",
        "-" * 78,
    ]
    if gauss:
        worst = max(r.residual for r in gauss)
        lines.append(
            f"{'gaussian exp(-s/2tau)':<25} {'(1/tau) tr(Y^T L Y)':<26} "
            f"{'exact':<12} {worst:.3e}"
        )
    for kernel in dict.fromkeys(r.context["kernel"] for r in cauchy):
        smallest = min((r for r in cauchy if r.context["kernel"] == kernel),
                       key=lambda r: r.context["scale"])
        a, b = map(float, re.findall(r"=([^,)]+)", kernel))
        lines.append(
            f"{'cauchy a=%.3f b=%.3f' % (a, b):<25} {'a sum w s^b (p=2b)':<26} "
            f"{'1st-order':<12} {smallest.residual:.3e}"
        )
    lines.append("")
    lines.append("claims:")
    for r in result.reports:
        status = "PASS" if r.passed else "FAIL"
        extra = ""
        if "tau" in r.context:
            extra = f" tau={r.context['tau']}"
        if "scale" in r.context:
            extra = f" scale={r.context['scale']}"
        lines.append(
            f"  [{status}] {r.claim:<16} residual={r.residual:.6e} "
            f"tolerance={r.tolerance:.1e}{extra}"
        )
    return "\n".join(lines)
