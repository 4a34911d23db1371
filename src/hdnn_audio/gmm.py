"""GMM-UBM baseline: diagonal-covariance EM, k-means++ initialized UBM,
per-concept adaptation by EM re-estimation, and log-likelihood-ratio
frame scoring with one log-sum-exp over the stacked UBM and concept
component densities.

Every component log density comes from one routine, ``_log_densities``,
over a model's density terms (``_DensityTerms``). A ``GmmConceptBank``
computes its models' terms once, at its first scoring, and scoring
writes each model's N x K densities from them into one model-major
(C+1) x N x K buffer; EM's E-step (``_e_step``) builds them from the
model in every iteration and writes into two N x K buffers per EM run,
``dens`` and ``resp``; ``resp`` is the log-sum-exp's scratch array until
the responsibilities are written into it. The cached K x D terms go into
the products transposed, into C-contiguous N x K outputs, as when they
were computed per call: OpenBLAS picks its kernel, and with it the
rounding, by the shape and layout of a product, so the scores keep their
bits.

With 64 components on up to 294 dimensions, most component log densities
of a frame sit hundreds of nats below its best one. Slow paths of NumPy
and OpenBLAS follow from that, and each is kept off without changing a
bit:

- ``np.exp`` is several times slower on any argument whose result is
  not a normal number, -inf included. So the entries whose term must be
  +0.0 are left out of it (``_exp_except``): in ``logsumexp`` the
  maxima, which the sum takes out, and the arguments below
  EXP_ZERO_BELOW; in EM the log-responsibilities below RESP_LOG_FLOOR.
  They go in as 0.0, and the results are multiplied by the mask of the
  other entries, which gives +0.0 where ``np.exp`` gave +0.0 on -inf and
  leaves every other result, NaN and inf included, as it was.
  ``logsumexp`` stays exact: ``np.exp`` gives +0.0 below EXP_ZERO_BELOW
  anyway, and its subnormal terms above that are kept.
- EM drops responsibilities below 2**-1022 (log-responsibilities below
  RESP_LOG_FLOOR), so no subnormal reaches ``nk`` or the M-step
  products, where OpenBLAS takes microcode assists on them. Such a
  responsibility, times a feature value or its square, is under half an
  ulp of any running sum above about 1e-280, so dropping it leaves every
  sum's bits as they were. A component whose sums all stay below that
  has ``nk < RESP_MASS_FLOOR`` and is reset to the global statistics (or,
  in means-only adaptation, kept) either way.

k-means++ seeding computes each center's squared distances as
max(|x|^2 - 2 x.c + |c|^2, 0), one matrix-vector product, with |x|^2
computed once for it and the Lloyd passes. The distances round otherwise
than the subtract form's, but a pick moves only when a draw lands within
that rounding of a bin edge of the cumulative distribution; the clamp
keeps them non-negative, as ``rng.choice`` requires, and a row equal to
a center gets exactly 0 and is never drawn again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import functools

import numpy as np

from .errors import DataTooSmall, DimensionMismatch, EmptyInput

RESP_MASS_FLOOR = 1e-8
VAR_FLOOR_FRACTION = 1e-3
UBM_LL_GAIN_STOP = 1e-4  # per-frame log-likelihood gain that ends UBM EM
LLOYD_ITERATIONS = 10  # after k-means++ seeding
SCORE_ROW_BLOCK = 1024  # frames scored at once against the stacked bank
SQ_NORM_ROW_BLOCK = 1024  # rows squared at once for k-means++ |x|^2
# np.exp returns +0.0 for every argument below -745.1332
EXP_ZERO_BELOW = -746.0
# ln of the smallest normal double: exp of anything below is subnormal or 0
RESP_LOG_FLOOR = float(np.log(np.finfo(np.float64).tiny))


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


class _DensityTerms(NamedTuple):
    """The parts of ln(w_k N(x | mu_k, diag sigma_k)) that depend on the
    model alone."""
    inv_var: np.ndarray           # K x D, 1 / variances
    two_mean_inv_var: np.ndarray  # K x D, 2 means / variances
    mean_sq_inv_var: np.ndarray   # K, sum over D of means^2 / variances
    log_weight_const: np.ndarray  # K, ln w - 0.5 (D ln 2 pi + sum ln variances)


def _density_terms(gmm: DiagGmm) -> _DensityTerms:
    const = -0.5 * (gmm.dim * np.log(2.0 * np.pi)
                    + np.log(gmm.variances).sum(axis=1))  # K
    inv_var = 1.0 / gmm.variances
    # scaling by 2 is exact, so the bits are those of 2x @ (mu iv)
    return _DensityTerms(inv_var, 2.0 * (gmm.means * inv_var),
                         ((gmm.means ** 2) * inv_var).sum(axis=1),
                         np.log(gmm.weights) + const)


@dataclass
class GmmConceptBank:
    ubm: DiagGmm
    concept_models: dict[str, DiagGmm]
    labels: list[str]

    @functools.cached_property
    def terms(self) -> list[_DensityTerms]:
        """The density terms of the UBM and then of each concept in label
        order, computed once, at the first scoring; a bank's models are
        not changed after it is built. Not a field, so not part of the
        bank's ``==`` or ``repr``. Not computed with the bank, so these
        long-lived arrays are not placed in the heap amid later training,
        where they raised the peak RSS."""
        return [_density_terms(model) for model in
                [self.ubm] + [self.concept_models[label] for label in self.labels]]


def _log_densities(terms: _DensityTerms, data: np.ndarray, sq: np.ndarray,
                   out: np.ndarray | None = None,
                   work: np.ndarray | None = None) -> np.ndarray:
    """N x K component log densities of ``data`` (``sq`` its square) from
    a model's density terms, into ``out``, with ``work`` for the second
    product; each N x K, allocated here by default.

    (x - mu)^2 / var is expanded without materializing N x K x D, in
    place, in the order ln w + const - 0.5 * (x^2 @ iv - x @ 2 mu iv +
    mu^2 iv); the K x D terms go into the products transposed (see the
    module docstring).
    """
    quad = np.matmul(sq, terms.inv_var.T, out=out)
    quad -= np.matmul(data, terms.two_mean_inv_var.T, out=work)
    quad += terms.mean_sq_inv_var
    quad *= 0.5
    return np.subtract(terms.log_weight_const, quad, out=quad)


def logsumexp(a: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """ln sum(exp(a)) over the last axis, with the arithmetic of
    ``scipy.special.logsumexp(a, axis=-1)`` and bitwise equal to it.
    ``work``, an array of ``a``'s shape allocated here by default and not
    ``a`` itself, takes the differences a - max; ``a`` is only read.

    The maxima are counted and taken out of the sum, so the result is
    log1p(s / m) + ln m + max with s the sum of the other terms. Rows
    where that is not finite (all -inf, +inf or NaN entries) take the
    direct ln sum(exp(a)) instead. The maxima and the differences below
    EXP_ZERO_BELOW are left out of ``np.exp`` (see the module docstring):
    they are set to 0.0 before it and their results to +0.0 after it.
    """
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=-1, keepdims=True)
        is_max = a == a_max
        m = is_max.sum(axis=-1, keepdims=True, dtype=np.float64)
        e = np.subtract(a, a_max, out=work)
        is_max |= e < EXP_ZERO_BELOW
        s = _exp_except(e, is_max).sum(axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[..., 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=-1))
    return out


def _exp_except(a: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """exp(a) in place, with +0.0 where ``skip``: the skipped entries go
    into ``np.exp`` as 0.0, and its results are multiplied by ``~skip``
    (x * 1 is x, 1 * 0 is +0.0; see the module docstring). With nothing
    to skip that is ``np.exp`` alone, so the mask passes are left out."""
    if not skip.any():
        return np.exp(a, out=a)
    np.putmask(a, skip, 0.0)
    np.exp(a, out=a)
    a *= ~skip
    return a


def _e_step(gmm: DiagGmm, data: np.ndarray, sq: np.ndarray, dens: np.ndarray,
            resp: np.ndarray) -> np.ndarray:
    """EM's E-step: the component log densities of ``data`` into ``dens``
    and the responsibilities into ``resp``, N x K buffers that EM
    allocates once per run, with ``sq`` the run's ``data ** 2``; the
    responsibilities below exp(RESP_LOG_FLOOR) are set to 0 (see the
    module docstring). ``resp`` is free until the responsibilities are
    written, so it is the scratch array of the densities' second product
    and of the log-sum-exp. Returns the per-frame ln p(x)."""
    _log_densities(_density_terms(gmm), data, sq, out=dens, work=resp)
    total = logsumexp(dens, work=resp)
    np.subtract(dens, total[:, None], out=resp)
    _exp_except(resp, resp < RESP_LOG_FLOOR)
    return total


def _check_dim(model: DiagGmm, data: np.ndarray) -> None:
    """DimensionMismatch unless the N x D ``data`` has the model's D."""
    if data.shape[1] != model.dim:
        raise DimensionMismatch(f"data dim {data.shape[1]} != gmm dim {model.dim}")


def _global_var_floor(data_var: np.ndarray) -> np.ndarray:
    """Variance floor from the data's per-dimension variance."""
    return np.maximum(VAR_FLOOR_FRACTION * data_var, 1e-12)


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
    _check_dim(init, data)
    gmm = init.copy()
    data_var = data.var(axis=0)
    if var_floor is None:
        var_floor = _global_var_floor(data_var)
    global_mean = data.mean(axis=0)
    global_var = np.maximum(data_var, var_floor)
    ll_history: list[float] = []
    sq = np.square(data)  # shared by every E- and M-step
    # two N x K arrays, and the E-step's log-sum-exp works in ``resp``:
    # one 2 x N x K array raised the peak RSS
    dens = np.empty((n, gmm.num_components))
    resp = np.empty_like(dens)
    for _ in range(iterations):
        total = _e_step(gmm, data, sq, dens, resp)
        ll_history.append(float(total.sum()))
        nk = resp.sum(axis=0)
        degenerate = nk < RESP_MASS_FLOOR
        safe_nk = np.maximum(nk, RESP_MASS_FLOOR)
        gmm.means = (resp.T @ data) / safe_nk[:, None]
        second = (resp.T @ sq) / safe_nk[:, None]
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
                   subsample: int = 10000) -> DiagGmm:
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
    # |x|^2, for the Lloyd passes too, a block of rows at a time: each row's
    # sum is its own, and no n x D square is held
    sq_norms = np.empty(n)
    for start in range(0, n, SQ_NORM_ROW_BLOCK):
        stop = start + SQ_NORM_ROW_BLOCK
        np.square(data[start:stop]).sum(axis=1, out=sq_norms[start:stop])
    first = rng.integers(n)
    centers[0] = data[first]
    d2 = _sq_dists(data, sq_norms, first)
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        pick = rng.choice(n, p=probs)
        centers[j] = data[pick]
        d2 = np.minimum(d2, _sq_dists(data, sq_norms, pick))
    assign = None
    for _ in range(LLOYD_ITERATIONS):
        dist = sq_norms[:, None] - data @ (2 * centers).T + (centers ** 2).sum(axis=1)
        new_assign = dist.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = data[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    data_var = data.var(axis=0)
    floor = _global_var_floor(data_var)
    weights = np.empty(k)
    variances = np.empty_like(centers)
    for j in range(k):
        members = data[assign == j]
        weights[j] = max(len(members), 1)
        variances[j] = np.maximum(members.var(axis=0), floor) if len(members) \
            else np.maximum(data_var, floor)
    weights /= weights.sum()
    return DiagGmm(weights=weights, means=centers, variances=variances)


def _sq_dists(data: np.ndarray, sq_norms: np.ndarray, index: int) -> np.ndarray:
    """Squared distance of every row of ``data`` to row ``index``, as
    max(|x|^2 - 2 x.c + |c|^2, 0): one matrix-vector product. Rows equal
    to that row get exactly 0, as in the subtract form."""
    center = data[index]
    d2 = data @ center
    d2 *= -2.0
    d2 += sq_norms
    d2 += sq_norms[index]
    np.maximum(d2, 0.0, out=d2)
    # a row equal to the center has its |x|^2 bits, but x.c may round apart
    same_norm = np.flatnonzero(sq_norms == sq_norms[index])
    d2[same_norm[(data[same_norm] == center).all(axis=1)]] = 0.0
    return d2


def train_ubm(data: np.ndarray, k: int = 256, iterations: int = 20,
              seed: int = 0) -> DiagGmm:
    """Concept-independent background model on pooled training frames:
    EM from a k-means++ init, stopped early at a per-frame
    log-likelihood gain below UBM_LL_GAIN_STOP."""
    rng = np.random.default_rng(seed)
    init = kmeans_pp_init(data, k, rng)
    ubm, _ = em_train(init, data, iterations, ll_gain_stop=UBM_LL_GAIN_STOP)
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
    _check_dim(ubm, concept_data)
    if concept_data.shape[0] < ubm.num_components:
        return _adapt_means_only(ubm, concept_data, iterations)
    model, _ = em_train(ubm, concept_data, iterations,
                        var_floor=_global_var_floor(ubm_global_variance(ubm)))
    return model


def _adapt_means_only(ubm: DiagGmm, data: np.ndarray, iterations: int) -> DiagGmm:
    model = ubm.copy()
    sq = np.square(data)
    dens = np.empty((data.shape[0], model.num_components))
    resp = np.empty_like(dens)
    for _ in range(iterations):
        _e_step(model, data, sq, dens, resp)
        nk = resp.sum(axis=0)
        updated = nk > RESP_MASS_FLOOR
        means = (resp.T @ data) / np.maximum(nk, RESP_MASS_FLOOR)[:, None]
        model.means[updated] = means[updated]
    return model


def log_likelihood_ratios(bank: GmmConceptBank, frames: np.ndarray) -> np.ndarray:
    """N x C matrix of ln p(x | concept) - ln p(x | UBM), columns in label order.

    SCORE_ROW_BLOCK frames at a time, each model's component densities
    are written from the bank's density terms into one model-major
    (C+1) x N x K buffer and reduced by one log-sum-exp. Each model's
    densities come from its own products: BLAS picks its kernel, and with
    it the rounding, by the shape of a product, so one product over all
    (C+1)K components would not be bitwise equal to scoring each model by
    itself.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    _check_dim(bank.ubm, frames)
    blocks = max(1, -(-frames.shape[0] // SCORE_ROW_BLOCK))
    llrs = []
    # near-equal blocks: a last block of a few rows would take another BLAS
    # kernel than the whole input does, and round otherwise
    for block in np.array_split(frames, blocks):
        sq = np.square(block)
        dens = np.empty((len(bank.terms), block.shape[0], bank.ubm.num_components))
        work = np.empty(dens.shape[1:])
        for terms, out in zip(bank.terms, dens):
            _log_densities(terms, block, sq, out=out, work=work)
        ll = logsumexp(dens)
        llrs.append((ll[1:] - ll[0]).T)
    return np.concatenate(llrs)


def classify_frames(bank: GmmConceptBank, frames: np.ndarray) -> np.ndarray:
    """Per-frame argmax of the concept LLRs (lowest-index tie-break)."""
    return log_likelihood_ratios(bank, frames).argmax(axis=1)
