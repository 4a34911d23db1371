"""GMM-UBM baseline: diagonal-covariance EM, k-means++ initialized UBM,
per-concept adaptation by EM re-estimation, and log-likelihood-ratio
frame scoring with one log-sum-exp over the stacked UBM and concept
component densities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataTooSmall, DimensionMismatch, EmptyInput

RESP_MASS_FLOOR = 1e-8
VAR_FLOOR_FRACTION = 1e-3
DEFAULT_LL_GAIN_STOP = 1e-4  # per-frame log-likelihood gain
SCORE_ROW_BLOCK = 1024  # frames scored at once against the stacked bank


@dataclass
class DiagGmm:
    weights: np.ndarray    # K, on the simplex
    means: np.ndarray      # K x D
    variances: np.ndarray  # K x D, positive

    @property
    def num_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def copy(self) -> "DiagGmm":
        return DiagGmm(self.weights.copy(), self.means.copy(), self.variances.copy())


@dataclass
class GmmConceptBank:
    ubm: DiagGmm
    concept_models: dict[str, DiagGmm]
    labels: list[str]


def _component_log_densities(gmm: DiagGmm, data: np.ndarray) -> np.ndarray:
    """N x K matrix of ln(w_k N(x | mu_k, diag sigma_k))."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[1] != gmm.dim:
        raise DimensionMismatch(f"data dim {data.shape[1]} != gmm dim {gmm.dim}")
    const = -0.5 * (gmm.dim * np.log(2.0 * np.pi)
                    + np.log(gmm.variances).sum(axis=1))  # K
    inv_var = 1.0 / gmm.variances
    # expand (x - mu)^2 / var without materializing N x K x D
    quad = (data ** 2) @ inv_var.T - 2.0 * data @ (gmm.means * inv_var).T \
        + ((gmm.means ** 2) * inv_var).sum(axis=1)
    return np.log(gmm.weights) + const - 0.5 * quad


def logsumexp(a: np.ndarray) -> np.ndarray:
    """ln sum(exp(a)) over the last axis, with the arithmetic of
    ``scipy.special.logsumexp(a, axis=-1)`` and bitwise equal to it.

    The maxima are counted and taken out of the sum, so the result is
    log1p(s / m) + ln m + max with s the sum of the other terms. Rows
    where that is not finite (all -inf, +inf or NaN entries) take the
    direct ln sum(exp(a)) instead.
    """
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=-1, keepdims=True)
        is_max = a == a_max
        m = is_max.sum(axis=-1, keepdims=True, dtype=np.float64)
        e = np.where(is_max, -np.inf, a)
        np.subtract(e, a_max, out=e)
        s = np.exp(e, out=e).sum(axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[..., 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=-1))
    return out


def log_likelihoods(gmm: DiagGmm, data: np.ndarray) -> np.ndarray:
    """Per-frame ln p(x) via log-sum-exp over components."""
    return logsumexp(_component_log_densities(gmm, data))


def _global_var_floor(data: np.ndarray) -> np.ndarray:
    return np.maximum(VAR_FLOOR_FRACTION * data.var(axis=0), 1e-12)


def em_train(init: DiagGmm, data: np.ndarray, iterations: int,
             var_floor: np.ndarray | None = None,
             ll_gain_stop: float | None = None) -> tuple[DiagGmm, list[float]]:
    """Diagonal-covariance EM. Returns (model, per-iteration total log-likelihoods).

    Components whose responsibility mass collapses below the floor are
    reset to global data statistics. Variances are floored after every
    M-step. With ``ll_gain_stop`` set, iteration ends early once the
    per-frame log-likelihood gain drops below it.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
    if n == 0:
        raise EmptyInput("no frames for EM")
    gmm = init.copy()
    if var_floor is None:
        var_floor = _global_var_floor(data)
    global_mean = data.mean(axis=0)
    global_var = np.maximum(data.var(axis=0), var_floor)
    ll_history: list[float] = []
    for _ in range(iterations):
        comp_ll = _component_log_densities(gmm, data)
        total = logsumexp(comp_ll)
        ll_history.append(float(total.sum()))
        resp = np.exp(comp_ll - total[:, None])  # N x K
        nk = resp.sum(axis=0)
        degenerate = nk < RESP_MASS_FLOOR
        safe_nk = np.maximum(nk, RESP_MASS_FLOOR)
        gmm.means = (resp.T @ data) / safe_nk[:, None]
        second = (resp.T @ (data ** 2)) / safe_nk[:, None]
        gmm.variances = np.maximum(second - gmm.means ** 2, var_floor)
        gmm.weights = nk / n
        if degenerate.any():
            gmm.means[degenerate] = global_mean
            gmm.variances[degenerate] = global_var
            gmm.weights[degenerate] = 1.0 / n
        gmm.weights = gmm.weights / gmm.weights.sum()
        if ll_gain_stop is not None and len(ll_history) >= 2:
            if (ll_history[-1] - ll_history[-2]) / n < ll_gain_stop:
                break
    return gmm, ll_history


def kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator,
                   subsample: int = 10000, lloyd_iterations: int = 10) -> DiagGmm:
    """Seeded k-means++ centers plus a few Lloyd passes on a subsample,
    turned into a diagonal GMM (cluster fractions, means, variances)."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
    if n < k:
        raise DataTooSmall(f"{n} frames < {k} components")
    if n > subsample:
        data = data[rng.choice(n, size=subsample, replace=False)]
        n = subsample
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[j] = data[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((data - centers[j]) ** 2).sum(axis=1))
    assign = None
    for _ in range(lloyd_iterations):
        dist = (data ** 2).sum(axis=1)[:, None] - 2 * data @ centers.T \
            + (centers ** 2).sum(axis=1)
        new_assign = dist.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = data[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    floor = _global_var_floor(data)
    weights = np.empty(k)
    variances = np.empty_like(centers)
    for j in range(k):
        members = data[assign == j] if assign is not None else data
        weights[j] = max(len(members), 1)
        variances[j] = np.maximum(members.var(axis=0), floor) if len(members) \
            else np.maximum(data.var(axis=0), floor)
    weights /= weights.sum()
    return DiagGmm(weights=weights, means=centers, variances=variances)


def train_ubm(data: np.ndarray, k: int = 256, iterations: int = 20,
              seed: int = 0, ll_gain_stop: float = DEFAULT_LL_GAIN_STOP) -> DiagGmm:
    """Concept-independent background model on pooled training frames."""
    rng = np.random.default_rng(seed)
    init = kmeans_pp_init(data, k, rng)
    ubm, _ = em_train(init, data, iterations, ll_gain_stop=ll_gain_stop)
    return ubm


def ubm_global_variance(ubm: DiagGmm) -> np.ndarray:
    """Per-dimension variance of the UBM mixture (law of total variance)."""
    mean = ubm.weights @ ubm.means
    second = ubm.weights @ (ubm.variances + ubm.means ** 2)
    return second - mean ** 2


def adapt_concept(ubm: DiagGmm, concept_data: np.ndarray,
                  iterations: int = 5) -> DiagGmm:
    """Concept model by EM re-estimation initialized from the UBM.

    All parameters (weights, means, variances) are updated on the
    concept's frames. When the concept has fewer frames than mixture
    components, only the means are adapted.
    """
    concept_data = np.atleast_2d(np.asarray(concept_data, dtype=np.float64))
    if concept_data.shape[0] == 0:
        raise EmptyInput("concept has no frames")
    var_floor = np.maximum(VAR_FLOOR_FRACTION * ubm_global_variance(ubm), 1e-12)
    if concept_data.shape[0] < ubm.num_components:
        return _adapt_means_only(ubm, concept_data, iterations)
    model, _ = em_train(ubm, concept_data, iterations, var_floor=var_floor)
    return model


def _adapt_means_only(ubm: DiagGmm, data: np.ndarray, iterations: int) -> DiagGmm:
    model = ubm.copy()
    for _ in range(iterations):
        comp_ll = _component_log_densities(model, data)
        resp = np.exp(comp_ll - logsumexp(comp_ll)[:, None])
        nk = resp.sum(axis=0)
        updated = nk > RESP_MASS_FLOOR
        means = (resp.T @ data) / np.maximum(nk, RESP_MASS_FLOOR)[:, None]
        model.means[updated] = means[updated]
    return model


def log_likelihood_ratios(bank: GmmConceptBank, frames: np.ndarray) -> np.ndarray:
    """N x C matrix of ln p(x | concept) - ln p(x | UBM), columns in label order.

    The component log densities of the UBM and the C concept models are
    stacked into one N x (C+1) x K array and reduced by one log-sum-exp,
    SCORE_ROW_BLOCK frames at a time. Each model's densities come from
    its own products: BLAS picks its kernel, and with it the rounding, by
    the shape of a product, so one product over all (C+1)K components
    would not be bitwise equal to scoring each model by itself.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    models = [bank.ubm] + [bank.concept_models[label] for label in bank.labels]
    blocks = max(1, -(-frames.shape[0] // SCORE_ROW_BLOCK))
    llrs = []
    # near-equal blocks: a last block of a few rows would take another BLAS
    # kernel than the whole input does, and round otherwise
    for block in np.array_split(frames, blocks):
        ll = logsumexp(np.stack([_component_log_densities(model, block)
                                 for model in models], axis=1))
        llrs.append(ll[:, 1:] - ll[:, :1])
    return np.concatenate(llrs)


def classify_frames(bank: GmmConceptBank, frames: np.ndarray) -> np.ndarray:
    """Per-frame argmax of the concept LLRs (lowest-index tie-break)."""
    return log_likelihood_ratios(bank, frames).argmax(axis=1)
