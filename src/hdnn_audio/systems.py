"""End-to-end system builders: wire the feature pipeline into trained
NN / DNN / H-DNN / GMM classifiers that can be handed to the evaluator.

All classifiers returned here are closures over frozen models that map
a normalized 14-dim MFCC sequence to per-frame labels; each system
applies its own context transform internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gmm, hierarchy, mlp, rbm
from .data import AnnotatedSegment, load_segment_audio, split_dataset
from .features import (ContextConfig, FeatureSequence, NormStats, append_deltas,
                       apply_norm, fit_norm_stats, mfcc_sequence, stack_context,
                       temporal_dct_reduce)


@dataclass
class PreparedCorpus:
    """Normalized MFCC sequences split into train/test clip sets."""

    labels: list[str]
    train: list[tuple[FeatureSequence, int]]
    test: list[tuple[FeatureSequence, int]]
    norm: NormStats


def prepare_corpus(segments: list[AnnotatedSegment], audio_root,
                   seed: int = 0, train_fraction: float = 0.8) -> PreparedCorpus:
    """Extract MFCCs for every segment, split at the clip level, and
    normalize with statistics fit on the training split only."""
    labels = sorted({seg.label for seg in segments})
    label_index = {label: i for i, label in enumerate(labels)}
    train_segs, test_segs = split_dataset(segments, train_fraction, seed)

    def extract(segs):
        return [(mfcc_sequence(load_segment_audio(seg, audio_root)),
                 label_index[seg.label]) for seg in segs]

    train_raw = extract(train_segs)
    test_raw = extract(test_segs)
    norm = fit_norm_stats([seq for seq, _ in train_raw])
    return PreparedCorpus(
        labels=labels,
        train=[(apply_norm(seq, norm), y) for seq, y in train_raw],
        test=[(apply_norm(seq, norm), y) for seq, y in test_raw],
        norm=norm)


def context_transform(width: int, dct_keep: int | None = None):
    """Sequence transform for one context geometry (stack, optional DCT)."""
    def transform(seq: FeatureSequence) -> FeatureSequence:
        if width == 1 and dct_keep is None:
            return seq
        stacked = stack_context(seq, width)
        if dct_keep is None:
            return stacked
        return temporal_dct_reduce(stacked, width, dct_keep)
    return transform


def pool_frames(clips: list[tuple[FeatureSequence, int]],
                transform=None) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for seq, label in clips:
        if transform is not None:
            seq = transform(seq)
        xs.append(seq.frames)
        ys.append(np.full(seq.num_frames, label, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def train_nn_system(corpus: PreparedCorpus, hidden_dims: list[int],
                    width: int, schedule: mlp.TrainSchedule,
                    dct_keep: int | None = None,
                    pretrain: rbm.PretrainConfig | None = None):
    """Train a single MLP on context-windowed (optionally DCT-reduced)
    features. Returns (model, classifier closure)."""
    base_transform = context_transform(width, dct_keep)
    pre = [(base_transform(seq), y) for seq, y in corpus.train]
    # re-normalize the NN input stream: DCT/stacking changes per-dimension
    # scales and the networks (and GB-RBM) expect unit-variance inputs
    input_norm = fit_norm_stats([seq for seq, _ in pre])

    def transform(seq: FeatureSequence) -> FeatureSequence:
        return apply_norm(base_transform(seq), input_norm)

    x, y = pool_frames([(apply_norm(seq, input_norm), lab) for seq, lab in pre])
    num_classes = len(corpus.labels)
    rng = np.random.default_rng(schedule.rng_seed)
    init = mlp.init_random([x.shape[1]] + hidden_dims + [num_classes], rng)
    if pretrain is not None and hidden_dims:
        stack = rbm.pretrain_stack(hidden_dims, x, pretrain)
        for layer, (weights, bias) in zip(init.layers, stack):
            layer.weights = weights
            layer.bias = bias
    model, history = mlp.train(init, (x, y), schedule)

    def classifier(seq: FeatureSequence) -> np.ndarray:
        return mlp.predict_frames(model, transform(seq))

    return model, classifier, history


def train_hdnn_system(corpus: PreparedCorpus, context: ContextConfig,
                      stage1_hidden: list[int], stage2_hidden: list[int],
                      schedule_first: mlp.TrainSchedule,
                      schedule_second: mlp.TrainSchedule,
                      pretrain: rbm.PretrainConfig | None = None,
                      sparse: hierarchy.SparseContextConfig | None = None):
    """Train the two-stage cascade on DCT-reduced context features.
    Returns (cascade, classifier closure)."""
    base_transform = context_transform(context.width, context.dct_keep)
    pre = [(base_transform(seq), y) for seq, y in corpus.train]
    input_norm = fit_norm_stats([seq for seq, _ in pre])

    def transform(seq: FeatureSequence) -> FeatureSequence:
        return apply_norm(base_transform(seq), input_norm)

    train_clips = [(apply_norm(seq, input_norm), y) for seq, y in pre]
    cascade = hierarchy.train_cascade(
        train_clips, num_classes=len(corpus.labels),
        stage1_hidden=stage1_hidden, stage2_hidden=stage2_hidden,
        schedule_first=schedule_first, schedule_second=schedule_second,
        pretrain_config=pretrain, sparse=sparse)

    def classifier(seq: FeatureSequence) -> np.ndarray:
        return hierarchy.classify(cascade, transform(seq))

    return cascade, classifier


def train_gmm_system(corpus: PreparedCorpus, num_components: int,
                     iterations: int = 20, seed: int = 0,
                     feature_mode: str = "delta42", width: int = 5):
    """GMM-UBM bank on delta features or raw context-stacked MFCCs.

    ``feature_mode``: "delta42" (statics+deltas+delta-deltas) or
    "stacked" (width consecutive frames, no DCT).
    Returns (bank, classifier closure).
    """
    if feature_mode == "delta42":
        def transform(seq):
            return append_deltas(seq)
    elif feature_mode == "stacked":
        def transform(seq):
            return stack_context(seq, width)
    else:
        raise ValueError(f"unknown feature_mode {feature_mode!r}")

    x, y = pool_frames(corpus.train, transform)
    ubm = gmm.train_ubm(x, k=num_components, iterations=iterations, seed=seed)
    models = {}
    for i, label in enumerate(corpus.labels):
        models[label] = gmm.adapt_concept(ubm, x[y == i], iterations=iterations)
    bank = gmm.GmmConceptBank(ubm=ubm, concept_models=models, labels=list(corpus.labels))

    def classifier(seq: FeatureSequence) -> np.ndarray:
        return gmm.classify_frames(bank, transform(seq).frames)

    return bank, classifier
