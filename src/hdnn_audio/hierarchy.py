"""Two-stage posterior cascade: first-stage network produces a
posteriorgram, sparse temporal offsets sample it, and a second network
classifies the sampled long-term context."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mlp, rbm
from .errors import DimensionMismatch
from .features import FeatureKind, FeatureSequence

DEFAULT_OFFSETS = (-10, -5, 0, 5, 10)


@dataclass
class SparseContextConfig:
    """Frame offsets at which stage-1 posteriors are sampled."""

    offsets: tuple[int, ...] = DEFAULT_OFFSETS

    def __post_init__(self):
        self.offsets = tuple(self.offsets)
        if any(a >= b for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("offsets must be strictly increasing")
        if 0 not in self.offsets:
            raise ValueError("offsets must contain 0")


@dataclass
class CascadeModel:
    first_stage: mlp.MlpModel
    sparse: SparseContextConfig
    second_stage: mlp.MlpModel

    def __post_init__(self):
        expected = len(self.sparse.offsets) * self.first_stage.output_dim
        if self.second_stage.input_dim != expected:
            raise DimensionMismatch(
                f"second stage input {self.second_stage.input_dim} != "
                f"|offsets| * C = {expected}")


def posteriorgram(first_stage: mlp.MlpModel, seq: FeatureSequence) -> FeatureSequence:
    """T x C posterior matrix from the first-stage network."""
    _, post = mlp.forward(first_stage, seq.frames)
    return FeatureSequence(frames=post, feature_kind=FeatureKind.POSTERIOR,
                           frame_shift_ms=seq.frame_shift_ms,
                           frame_length_ms=seq.frame_length_ms)


def sparse_stack(post: np.ndarray, config: SparseContextConfig) -> np.ndarray:
    """Concatenate posterior rows at each configured offset, clamped to
    the clip boundaries. Output is T x (|offsets| * C)."""
    post = np.atleast_2d(np.asarray(post, dtype=np.float64))
    t = post.shape[0]
    idx = np.clip(np.arange(t)[:, None] + np.asarray(config.offsets)[None, :], 0, t - 1)
    return post[idx].reshape(t, len(config.offsets) * post.shape[1])


def second_stage_inputs(cascade_first: mlp.MlpModel, config: SparseContextConfig,
                        seq: FeatureSequence) -> np.ndarray:
    return sparse_stack(posteriorgram(cascade_first, seq).frames, config)


def train_cascade(train_clips: list[tuple[FeatureSequence, int]],
                  num_classes: int,
                  stage1_hidden: list[int],
                  stage2_hidden: list[int],
                  schedule_first: mlp.TrainSchedule,
                  schedule_second: mlp.TrainSchedule,
                  pretrain_config: rbm.PretrainConfig | None = None,
                  sparse: SparseContextConfig | None = None) -> CascadeModel:
    """Train the full cascade.

    Stage 1 is (optionally RBM pre-trained and) fine-tuned on the pooled
    low-level frames; it is then frozen, its sparse-stacked posteriors
    over the same clips become stage 2's training inputs (per-frame
    labels unchanged), and stage 2 is trained from random init.
    """
    if sparse is None:
        sparse = SparseContextConfig()
    x1 = np.vstack([seq.frames for seq, _ in train_clips])
    y1 = np.concatenate([np.full(seq.num_frames, label, dtype=np.int64)
                         for seq, label in train_clips])
    input_dim = x1.shape[1]
    rng1 = np.random.default_rng(schedule_first.rng_seed)
    stage1_init = mlp.init_random([input_dim] + stage1_hidden + [num_classes], rng1)
    if pretrain_config is not None and stage1_hidden:
        stack = rbm.pretrain_stack(stage1_hidden, x1, pretrain_config)
        for layer, (weights, bias) in zip(stage1_init.layers, stack):
            layer.weights = weights
            layer.bias = bias
    stage1, _ = mlp.train(stage1_init, (x1, y1), schedule_first)

    x2 = np.vstack([second_stage_inputs(stage1, sparse, seq)
                    for seq, _ in train_clips])
    rng2 = np.random.default_rng(schedule_second.rng_seed)
    stage2_init = mlp.init_random(
        [len(sparse.offsets) * num_classes] + stage2_hidden + [num_classes], rng2)
    stage2, _ = mlp.train(stage2_init, (x2, y1), schedule_second)
    return CascadeModel(first_stage=stage1, sparse=sparse, second_stage=stage2)


def classify(cascade: CascadeModel, seq: FeatureSequence) -> np.ndarray:
    """Per-frame labels from the full cascade (lowest-index tie-break)."""
    x2 = second_stage_inputs(cascade.first_stage, cascade.sparse, seq)
    return mlp.predict_frames(cascade.second_stage, x2)

