"""Numerical certification that the embedding objective, its optimizer, and
its initialization are spectral clustering on the fuzzy neighbor graph.

Each check builds instances through the real pipeline (data -> k-NN ->
fuzzy graph), computes one quantity along two independent routes, and
reports the measured residual against a fixed tolerance. Claim ids:

    thm3.1a          Gaussian attraction == (1/tau) tr(Y^T L Y), exactly
    thm3.1b          Cauchy attraction -> a sum w s^b (2a tr(Y^T L Y) at b=1) as scales shrink
    thm3.1c          spectral layout minimizes the normalized trace objective
    eq13_montecarlo  sampled step losses average to the expected epoch loss
    lemmaA1          edge-sum and matrix forms of the quadratic identity agree
    eq20_bound       the curvature bound dominates the Cauchy attraction's gap to a sum w s^b
    a3_relaxation    (L, D) generalized eigenpairs map onto normalized ones

``run_suite`` runs them in the order thm3.1a, thm3.1b, eq20_bound, thm3.1c,
eq13_montecarlo, lemmaA1, a3_relaxation, each on its own stream, keyed by
the claim's place in ``CLAIM_IDS`` (the order above).
The dense oracles of thm3.1c, lemmaA1 and a3_relaxation live in their
claims, never in the modules they certify.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .datasets import gen_blobs
from .errors import ConfigurationError, GraphStructureError
from .fuzzy import SimilarityGraph, build_similarity_graph
from .kernels import KernelParams, fit_ab
from .losses import expected_sgd_loss, first_order, step_losses
from .optim import SPECTRAL_MAX_ABS, EdgeSampler
from .spectra import edge_sq_lengths, laplacian_quadratic, normalized_laplacian, spectral_init

CLAIM_IDS = (
    "thm3.1a",
    "thm3.1b",
    "thm3.1c",
    "eq13_montecarlo",
    "lemmaA1",
    "eq20_bound",
    "a3_relaxation",
)
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

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "context": dict(self.context),
        }


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
    start. The residual is the worse of the two. Both sides come from
    ``losses.first_order``, whose form is the ``laplacian_form`` of
    ``embed``'s trace; its attraction takes the closed-form log phi with no
    clamp, so the identity holds at any scale.
    """
    V = pipeline_graph(n, seed)
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-0.5, 0.5, size=(V.n, d))
    p = KernelParams.gaussian(tau)
    scales, residuals = [], []
    for Ys in (Y, Y * (SPECTRAL_MAX_ABS / np.abs(Y).max())):
        att, lap, _ = first_order(V, Ys, p)
        residuals.append(abs(att - lap) / abs(att) if att != 0 else abs(att - lap))
        scales.append(float(np.abs(Ys).max()))
    return EquivalenceReport(
        claim="thm3.1a",
        residual=max(residuals),
        tolerance=1e-10,
        context={
            "n": V.n, "d": d, "kernel": "gaussian", "tau": tau,
            "max_abs_y": scales, "residuals": residuals, "seed": str(seed),
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

    ``EdgeSampler.draw_events`` draws the events as the optimizer does, and
    ``losses.step_losses`` evaluates every draw at Y, the same arithmetic the
    optimizer traces each epoch with. Each draw's loss depends on that draw
    alone, so they are evaluated ``MC_SLICE`` draws at a time into one
    output array, keeping the evaluation's temporaries small.
    """
    anchors, partners, negs = EdgeSampler(V).draw_events(rng, n_draws, n_neg)
    losses = np.empty(n_draws)
    for lo in range(0, n_draws, MC_SLICE):
        s = slice(lo, lo + MC_SLICE)
        losses[s] = step_losses(Y, anchors[s], partners[s], negs[s], p)
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
    """Edge-sum vs dense-trace forms of the quadratic identity, worst case."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 6))
        A = rng.uniform(0.0, 1.0, size=(n, n))
        W = (A + A.T) / 2.0
        np.fill_diagonal(W, 0.0)
        Z = rng.standard_normal((n, d))
        graph = SimilarityGraph.from_dense(W)
        edge_form = laplacian_quadratic(graph, Z)
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

    Dense solves of L u = lambda D u and Lnorm v = lambda v on each graph give
    the 3 pairs above the null space; u -> D^{1/2} u must map one subspace
    onto the other. Residual is the worse of (eigenvalue gap / 1e-8) and
    (principal angle / 1e-6), so 1.0 is the pass line for both at once.
    """
    import scipy.linalg  # about 0.2 s to import, which embed never pays

    rng = np.random.default_rng(seed)
    worst = worst_gap = worst_angle = 0.0
    for _ in range(n_graphs):
        V = random_connected_graph(int(rng.integers(10, 31)), rng)
        deg = V.degrees()
        gvals, gvecs = scipy.linalg.eigh(np.diag(deg) - V.matrix.toarray(), np.diag(deg))
        nvals, nvecs = scipy.linalg.eigh(normalized_laplacian(V).toarray())
        gn = int(np.sum(gvals <= NULL_SPACE_TOL))
        nn = int(np.sum(nvals <= NULL_SPACE_TOL))
        gap = float(np.abs(gvals[gn : gn + 3] - nvals[nn : nn + 3]).max())
        mapped = np.sqrt(deg)[:, None] * gvecs[:, gn : gn + 3]
        angle = float(scipy.linalg.subspace_angles(mapped, nvecs[:, nn : nn + 3]).max())
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
    ``fit_ab(0.1)``'s, whose first-order form is the p-Laplacian energy with
    p = 2b) and each claim's wall time in seconds, which differs run to run
    and so stays out of ``to_json``."""

    reports: list[EquivalenceReport]
    claim_wall_s: dict[str, float] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_json(self) -> str:
        body = {
            "all_passed": self.all_passed,
            "reports": [r.to_json_dict() for r in self.reports],
        }
        return json.dumps(body, indent=2)


DEFAULT_N = 30
DEFAULT_D = 2
CAUCHY_SCALES = (0.1, 0.01, 0.001)

def _run_thm3_1a(rng, n_draws, result):
    result.reports += [check_gaussian_exactness(DEFAULT_N, DEFAULT_D, tau, rng.integers(2**31))
                       for tau in (0.5, 1.0, 2.0)]


def _cauchy_kernels():
    """The b = 1 kernel, then the kernel ``embed`` fits at its default min-dist."""
    fit = fit_ab(0.1)
    return KernelParams.cauchy(1.0, 1.0), KernelParams.cauchy(fit.fitted_a, fit.fitted_b)


def _run_thm3_1b(rng, n_draws, result):
    seeds = rng.integers(2**31, size=len(CAUCHY_SCALES))
    result.reports += [check_cauchy_first_order(DEFAULT_N, DEFAULT_D, p, scale, s)
                       for p in _cauchy_kernels() for scale, s in zip(CAUCHY_SCALES, seeds)]


def _run_eq20_bound(rng, n_draws, result):
    seeds = rng.integers(2**31, size=2)
    result.reports += [check_taylor_bound(DEFAULT_N, DEFAULT_D, p, scale, s)
                       for p in _cauchy_kernels() for scale, s in zip((0.5, 0.05), seeds)]


def _run_thm3_1c(rng, n_draws, result):
    V = connected_two_blob_graph(rng.integers(2**31))
    result.reports.append(check_spectral_optimality(V, d=2, trials=100, seed=rng.integers(2**31)))


def _run_eq13_montecarlo(rng, n_draws, result):
    V = pipeline_graph(8, rng.integers(2**31), k=3)
    Y = rng.uniform(-1.0, 1.0, size=(V.n, DEFAULT_D))
    p = KernelParams.cauchy()
    result.reports.append(check_expected_loss(V, Y, p, 5, n_draws, rng.integers(2**31)))


def _run_lemmaA1(rng, n_draws, result):
    result.reports.append(check_laplacian_identity(1000, rng.integers(2**31)))


def _run_a3_relaxation(rng, n_draws, result):
    result.reports.append(check_ncut_relaxation(20, rng.integers(2**31)))


# the suite's run order; each claim adds its reports to the result
_CLAIM_RUNS = {
    "thm3.1a": _run_thm3_1a,
    "thm3.1b": _run_thm3_1b,
    "eq20_bound": _run_eq20_bound,
    "thm3.1c": _run_thm3_1c,
    "eq13_montecarlo": _run_eq13_montecarlo,
    "lemmaA1": _run_lemmaA1,
    "a3_relaxation": _run_a3_relaxation,
}


def run_suite(
    master_seed: int = 42,
    claims: list[str] | None = None,
    n_draws: int = 200_000,
) -> SuiteResult:
    """Evaluate every claim (or a filtered subset) in the run order of the
    module docstring, each on its own stream keyed by its place in ``CLAIM_IDS``."""
    wanted = set(CLAIM_IDS if claims is None else claims)
    if not wanted:
        raise ConfigurationError("no claim ids to run")
    if not wanted <= set(CLAIM_IDS):
        raise ConfigurationError(f"unknown claim ids: {sorted(wanted - set(CLAIM_IDS))}")

    result = SuiteResult(reports=[])
    for claim, run in _CLAIM_RUNS.items():
        if claim in wanted:
            start = time.perf_counter()
            run(np.random.default_rng([master_seed, CLAIM_IDS.index(claim)]), n_draws, result)
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
