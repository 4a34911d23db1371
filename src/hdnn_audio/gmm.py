"""GMM-UBM baseline: diagonal-covariance EM, k-means++ initialized UBM,
per-concept adaptation by EM re-estimation, and log-likelihood-ratio
frame scoring."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DataTooSmall, DimensionMismatch, EmptyInput

RESP_MASS_FLOOR = 1e-8
VAR_FLOOR_FRACTION = 1e-3
DEFAULT_LL_GAIN_STOP = 1e-4  # per-frame log-likelihood gain


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


def log_likelihoods(gmm: DiagGmm, data: np.ndarray) -> np.ndarray:
    """Per-frame ln p(x) via log-sum-exp over components."""
    return logsumexp(_component_log_densities(gmm, data), axis=1)


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
        total = logsumexp(comp_ll, axis=1)
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
        resp = np.exp(comp_ll - logsumexp(comp_ll, axis=1)[:, None])
        nk = resp.sum(axis=0)
        updated = nk > RESP_MASS_FLOOR
        means = (resp.T @ data) / np.maximum(nk, RESP_MASS_FLOOR)[:, None]
        model.means[updated] = means[updated]
    return model


def llr_score(model: DiagGmm, ubm: DiagGmm, frame: np.ndarray) -> float:
    """ln p(frame | model) - ln p(frame | ubm)."""
    frame = np.atleast_2d(frame)
    return float(log_likelihoods(model, frame)[0] - log_likelihoods(ubm, frame)[0])


def classify_frames(bank: GmmConceptBank, frames: np.ndarray) -> np.ndarray:
    """Per-frame argmax of the concept LLRs (lowest-index tie-break)."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    ubm_ll = log_likelihoods(bank.ubm, frames)
    scores = np.stack([log_likelihoods(bank.concept_models[label], frames) - ubm_ll
                       for label in bank.labels], axis=1)
    return scores.argmax(axis=1)


def classify_frame(bank: GmmConceptBank, frame: np.ndarray) -> int:
    return int(classify_frames(bank, np.atleast_2d(frame))[0])


# --- bank file format ("ACGM") ---

_BANK_MAGIC = b"ACGM"
_BANK_VERSION = 1


def _write_gmm(f, gmm: DiagGmm) -> None:
    f.write(gmm.weights.astype("<f8").tobytes())
    f.write(gmm.means.astype("<f8").tobytes())
    f.write(gmm.variances.astype("<f8").tobytes())


def _read_gmm(f, k: int, d: int) -> DiagGmm:
    weights = np.frombuffer(f.read(8 * k), dtype="<f8").copy()
    means = np.frombuffer(f.read(8 * k * d), dtype="<f8").reshape(k, d).copy()
    variances = np.frombuffer(f.read(8 * k * d), dtype="<f8").reshape(k, d).copy()
    return DiagGmm(weights=weights, means=means, variances=variances)


def save_bank(bank: GmmConceptBank, path) -> None:
    k, d = bank.ubm.num_components, bank.ubm.dim
    with open(path, "wb") as f:
        f.write(_BANK_MAGIC)
        f.write(struct.pack("<III", _BANK_VERSION, k, d))
        f.write(struct.pack("<I", len(bank.labels)))
        for label in bank.labels:
            raw = label.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
        _write_gmm(f, bank.ubm)
        for label in bank.labels:
            _write_gmm(f, bank.concept_models[label])


def load_bank(path) -> GmmConceptBank:
    with open(path, "rb") as f:
        if f.read(4) != _BANK_MAGIC:
            raise DimensionMismatch(f"{path}: not a concept bank file")
        version, k, d = struct.unpack("<III", f.read(12))
        if version != _BANK_VERSION:
            raise DimensionMismatch(f"{path}: unsupported version {version}")
        (num_labels,) = struct.unpack("<I", f.read(4))
        labels = []
        for _ in range(num_labels):
            (length,) = struct.unpack("<I", f.read(4))
            labels.append(f.read(length).decode("utf-8"))
        ubm = _read_gmm(f, k, d)
        models = {label: _read_gmm(f, k, d) for label in labels}
    return GmmConceptBank(ubm=ubm, concept_models=models, labels=labels)
