"""Greedy layer-wise RBM pre-training (CD-1) used to initialize the
hidden layers of the first-stage deep network.

The bottom RBM is Gaussian-Bernoulli over the normalized real-valued
features (unit-variance visibles, mean reconstruction); the stacked
RBMs above it are Bernoulli-Bernoulli over hidden probabilities.
``pretrain_stack`` consumes its training matrix: each upper RBM's input
is written over the buffer of the input below it whenever it fits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteUpdate
from .mlp import sigmoid


# Reconstruction error only tracks progress (it steers nothing), so a
# subsample of this many rows is enough to watch it each epoch.
RECON_ERROR_ROWS = 1000
# CD-1 learning rates of the bottom Gaussian-Bernoulli RBM and of the
# Bernoulli-Bernoulli RBMs stacked above it
GB_LR = 0.005
BB_LR = 0.05
# rows per hidden_probabilities call when pretrain_stack computes an upper
# RBM's input, so the sigmoid's temporaries stay one block in size
UPPER_INPUT_ROW_BLOCK = 1024


class RbmKind(enum.Enum):
    GAUSSIAN_BERNOULLI = "gaussian_bernoulli"
    BERNOULLI_BERNOULLI = "bernoulli_bernoulli"


@dataclass
class RbmModel:
    kind: RbmKind
    weights: np.ndarray       # H x V
    visible_bias: np.ndarray  # V
    hidden_bias: np.ndarray   # H

    @property
    def num_visible(self) -> int:
        return self.weights.shape[1]

    @property
    def num_hidden(self) -> int:
        return self.weights.shape[0]


@dataclass
class PretrainConfig:
    """Layer-wise pre-training hyperparameters."""

    gb_epochs: int = 10
    bb_epochs: int = 5
    minibatch: int = 1024
    rng_seed: int = 0

    def __post_init__(self):
        if self.gb_epochs < 0 or self.bb_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.minibatch < 1:
            raise ValueError("minibatch must be positive")


def init_rbm(kind: RbmKind, num_visible: int, num_hidden: int,
             rng: np.random.Generator) -> RbmModel:
    """Small-Gaussian weight init (std 0.01), zero biases."""
    return RbmModel(kind=kind,
                    weights=rng.normal(0.0, 0.01, size=(num_hidden, num_visible)),
                    visible_bias=np.zeros(num_visible),
                    hidden_bias=np.zeros(num_hidden))


def hidden_probabilities(rbm: RbmModel, visible: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """B x H hidden probabilities of a B x V batch, written into ``out``
    (allocated here by default): the product, then the bias and the
    sigmoid in place."""
    if visible.shape[1] != rbm.num_visible:
        raise DimensionMismatch(
            f"batch dim {visible.shape[1]} != visible units {rbm.num_visible}")
    pre = np.matmul(visible, rbm.weights.T, out=out)
    pre += rbm.hidden_bias
    return sigmoid(pre, out=pre)


def visible_mean(rbm: RbmModel, hidden: np.ndarray) -> np.ndarray:
    pre = hidden @ rbm.weights
    pre += rbm.visible_bias
    if rbm.kind is RbmKind.GAUSSIAN_BERNOULLI:
        return pre
    return sigmoid(pre, out=pre)


def cd1_step(rbm: RbmModel, batch: np.ndarray, lr: float,
             rng: np.random.Generator) -> RbmModel:
    """One contrastive-divergence-1 update, in place.

    Positive phase uses hidden probabilities; the negative phase samples
    hidden units binary, reconstructs visibles as their mean, and takes
    one more hidden pass. Every gradient is checked before any array is
    updated, so a NonFiniteUpdate leaves the RBM unchanged.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    b = batch.shape[0]
    h_pos = hidden_probabilities(rbm, batch)
    # the binary sample is written over its uniform draws
    h_sample = rng.random(h_pos.shape)
    np.less(h_sample, h_pos, out=h_sample)
    v_neg = visible_mean(rbm, h_sample)
    h_neg = hidden_probabilities(rbm, v_neg)

    grad_w = h_pos.T @ batch
    grad_w -= h_neg.T @ v_neg
    grad_w /= b
    grad_vb = np.subtract(batch, v_neg, out=v_neg).mean(axis=0)
    grad_hb = np.subtract(h_pos, h_neg, out=h_neg).mean(axis=0)
    if not (np.isfinite(grad_w).all() and np.isfinite(grad_vb).all()
            and np.isfinite(grad_hb).all()):
        raise NonFiniteUpdate("non-finite CD-1 update")
    for param, grad in ((rbm.weights, grad_w), (rbm.visible_bias, grad_vb),
                        (rbm.hidden_bias, grad_hb)):
        grad *= lr
        param += grad
    return rbm


def reconstruction_error(rbm: RbmModel, batch: np.ndarray) -> float:
    """Mean squared error of the one-step mean-field reconstruction."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    recon = visible_mean(rbm, hidden_probabilities(rbm, batch))
    # (recon - batch)^2 has the bits of (batch - recon)^2
    recon -= batch
    recon *= recon
    return float(np.mean(recon))


def train_rbm(rbm: RbmModel, data: np.ndarray, lr: float, epochs: int,
              minibatch: int, rng: np.random.Generator) -> list[float]:
    """CD-1 over shuffled minibatches; returns per-epoch reconstruction
    error on a fixed strided subsample of at most RECON_ERROR_ROWS rows.

    The subsample draws nothing from ``rng``, so the CD-1 trajectory does
    not depend on it.
    """
    data = np.asarray(data, dtype=np.float64)
    stride = max(1, -(-data.shape[0] // RECON_ERROR_ROWS))  # ceiling division
    probe = data[::stride]
    history = []
    for _ in range(epochs):
        order = rng.permutation(data.shape[0])
        for start in range(0, len(order), minibatch):
            cd1_step(rbm, data[order[start:start + minibatch]], lr, rng)
        history.append(reconstruction_error(rbm, probe))
    return history


def pretrain_stack(hidden_dims: list[int], data: np.ndarray,
                   config: PretrainConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Train a stack of RBMs greedily; returns (weights, hidden_bias) per
    hidden layer in MLP orientation (out_dim x in_dim).

    The first RBM is Gaussian-Bernoulli on the data; the rest are
    Bernoulli-Bernoulli on the previous layer's hidden probabilities.
    The softmax output layer is left to random initialization.

    ``data`` is overwritten when it is a writeable C-contiguous float64
    array: each upper RBM's N x H input is written over the first N x H
    elements of the buffer of the N x W input below it whenever H <= W,
    and is allocated only when H > W.
    """
    rng = np.random.default_rng(config.rng_seed)
    layer_input = np.asarray(data, dtype=np.float64)
    result = []
    for i, h in enumerate(hidden_dims):
        if i == 0:
            kind, lr, epochs = RbmKind.GAUSSIAN_BERNOULLI, GB_LR, config.gb_epochs
        else:
            # the RBM below is trained; its hidden probabilities feed this
            # one, as a C-contiguous prefix of its own input when they fit
            n, w = layer_input.shape
            out = None
            if rbm.num_hidden <= w and layer_input.flags.carray:
                out = layer_input.reshape(-1)[:n * rbm.num_hidden].reshape(
                    n, rbm.num_hidden)
            layer_input = _blocked_hidden_probabilities(rbm, layer_input, out=out)
            kind, lr, epochs = RbmKind.BERNOULLI_BERNOULLI, BB_LR, config.bb_epochs
        rbm = init_rbm(kind, layer_input.shape[1], h, rng)
        train_rbm(rbm, layer_input, lr, epochs, config.minibatch, rng)
        result.append((rbm.weights.copy(), rbm.hidden_bias.copy()))
    return result


def _blocked_hidden_probabilities(rbm: RbmModel, visible: np.ndarray,
                                  out: np.ndarray | None = None) -> np.ndarray:
    """``hidden_probabilities`` of every row, UPPER_INPUT_ROW_BLOCK rows
    at a time, written into ``out``, an N x H array allocated here by
    default. Each row's result depends on that row alone, so the bits are
    those of the one-shot pass. ``out`` may share ``visible``'s buffer
    as its C-contiguous prefix (H <= V): rows [s, e) are written below
    element e * H <= e * V, so no unread row is touched, and NumPy
    buffers a product whose output overlaps its input."""
    if out is None:
        out = np.empty((visible.shape[0], rbm.num_hidden))
    for start in range(0, visible.shape[0], UPPER_INPUT_ROW_BLOCK):
        stop = start + UPPER_INPUT_ROW_BLOCK
        hidden_probabilities(rbm, visible[start:stop], out=out[start:stop])
    return out
