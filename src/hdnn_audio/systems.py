"""End-to-end systems: the feature pipeline plus a trained NN / DNN /
H-DNN / GMM classifier, as one ``System`` saved in one file format.

A ``System`` maps a normalized 14-dim MFCC sequence to per-frame labels
and carries everything it needs to do so: the MFCC normalization, the
front-end geometry, the input normalization and the model. What is
trained is exactly what ``load_system`` gives back to the evaluator.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gmm, hierarchy, mlp, rbm
from .data import AnnotatedSegment, load_segment_audio, split_dataset
from .errors import DataError, HdnnError
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
                   seed: int = 0, train_fraction: float = 0.8,
                   norm: NormStats | None = None) -> PreparedCorpus:
    """Extract MFCCs for every segment, split at the clip level, and
    normalize with ``norm``, or with statistics fit on the training
    split only when ``norm`` is None."""
    labels = sorted({seg.label for seg in segments})
    label_index = {label: i for i, label in enumerate(labels)}
    train_segs, test_segs = split_dataset(segments, train_fraction, seed)

    def extract(segs):
        return [(mfcc_sequence(load_segment_audio(seg, audio_root)),
                 label_index[seg.label]) for seg in segs]

    train_raw = extract(train_segs)
    test_raw = extract(test_segs)
    if norm is None:
        norm = fit_norm_stats([seq for seq, _ in train_raw])
    return PreparedCorpus(
        labels=labels,
        train=[(apply_norm(seq, norm), y) for seq, y in train_raw],
        test=[(apply_norm(seq, norm), y) for seq, y in test_raw],
        norm=norm)


@dataclass
class System:
    """A trained classifier with its whole front-end.

    ``features`` turns a normalized MFCC sequence into the model's
    input: delta42 when ``deltas``, else ``width`` stacked frames
    (``width`` 1 without DCT is the MFCC stream itself), reduced by the
    temporal DCT to ``dct_keep`` coefficients per band unless that is
    None, then normalized by ``input_norm`` unless that is None.
    """

    labels: list[str]
    mfcc_norm: NormStats
    width: int = 1
    dct_keep: int | None = None
    deltas: bool = False
    input_norm: NormStats | None = None
    model: mlp.MlpModel | hierarchy.CascadeModel | gmm.GmmConceptBank | None = None
    config_fingerprint: str = ""

    def features(self, seq: FeatureSequence) -> FeatureSequence:
        if self.deltas:
            seq = append_deltas(seq)
        elif self.width > 1 or self.dct_keep is not None:
            seq = stack_context(seq, self.width)
            if self.dct_keep is not None:
                seq = temporal_dct_reduce(seq, self.width, self.dct_keep)
        if self.input_norm is not None:
            seq = apply_norm(seq, self.input_norm)
        return seq

    def classify(self, seq: FeatureSequence) -> np.ndarray:
        """Per-frame labels of a normalized MFCC sequence."""
        x = self.features(seq)
        if isinstance(self.model, mlp.MlpModel):
            return mlp.predict_frames(self.model, x)
        if isinstance(self.model, hierarchy.CascadeModel):
            return hierarchy.classify(self.model, x)
        return gmm.classify_frames(self.model, x.frames)


def pool_frames(clips: list[tuple[FeatureSequence, int]],
                transform=None) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for seq, label in clips:
        if transform is not None:
            seq = transform(seq)
        xs.append(seq.frames)
        ys.append(np.full(seq.num_frames, label, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def _fit_input_norm(system: System, corpus: PreparedCorpus
                    ) -> list[tuple[FeatureSequence, int]]:
    """Fit ``system.input_norm`` on the front-end output of the training
    clips; returns those clips normalized."""
    # re-normalize the NN input stream: DCT/stacking changes per-dimension
    # scales and the networks (and GB-RBM) expect unit-variance inputs
    pre = [(system.features(seq), y) for seq, y in corpus.train]
    system.input_norm = fit_norm_stats([seq for seq, _ in pre])
    return [(apply_norm(seq, system.input_norm), y) for seq, y in pre]


def train_nn_system(corpus: PreparedCorpus, hidden_dims: list[int],
                    width: int, schedule: mlp.TrainSchedule,
                    dct_keep: int | None = None,
                    pretrain: rbm.PretrainConfig | None = None):
    """Train a single MLP on context-windowed (optionally DCT-reduced)
    features. Returns (system, system.classify, history)."""
    system = System(labels=list(corpus.labels), mfcc_norm=corpus.norm,
                    width=width, dct_keep=dct_keep)
    x, y = pool_frames(_fit_input_norm(system, corpus))
    rng = np.random.default_rng(schedule.rng_seed)
    init = mlp.init_random([x.shape[1]] + hidden_dims + [len(corpus.labels)], rng)
    if pretrain is not None and hidden_dims:
        stack = rbm.pretrain_stack(hidden_dims, x, pretrain)
        for layer, (weights, bias) in zip(init.layers, stack):
            layer.weights = weights
            layer.bias = bias
    system.model, history = mlp.train(init, (x, y), schedule)
    return system, system.classify, history


def train_hdnn_system(corpus: PreparedCorpus, context: ContextConfig,
                      stage1_hidden: list[int], stage2_hidden: list[int],
                      schedule_first: mlp.TrainSchedule,
                      schedule_second: mlp.TrainSchedule,
                      pretrain: rbm.PretrainConfig | None = None,
                      sparse: hierarchy.SparseContextConfig | None = None):
    """Train the two-stage cascade on DCT-reduced context features.
    Returns (system, system.classify)."""
    system = System(labels=list(corpus.labels), mfcc_norm=corpus.norm,
                    width=context.width, dct_keep=context.dct_keep)
    system.model = hierarchy.train_cascade(
        _fit_input_norm(system, corpus), num_classes=len(corpus.labels),
        stage1_hidden=stage1_hidden, stage2_hidden=stage2_hidden,
        schedule_first=schedule_first, schedule_second=schedule_second,
        pretrain_config=pretrain, sparse=sparse)
    return system, system.classify


def train_gmm_system(corpus: PreparedCorpus, num_components: int,
                     iterations: int = 20, seed: int = 0,
                     feature_mode: str = "delta42", width: int = 5):
    """GMM-UBM bank on delta features or raw context-stacked MFCCs.

    ``feature_mode``: "delta42" (statics+deltas+delta-deltas) or
    "stacked" (width consecutive frames, no DCT).
    Returns (system, system.classify).
    """
    if feature_mode not in ("delta42", "stacked"):
        raise ValueError(f"unknown feature_mode {feature_mode!r}")
    stacked = feature_mode == "stacked"
    system = System(labels=list(corpus.labels), mfcc_norm=corpus.norm,
                    width=width if stacked else 1, deltas=not stacked)

    x, y = pool_frames(corpus.train, system.features)
    ubm = gmm.train_ubm(x, k=num_components, iterations=iterations, seed=seed)
    models = {}
    for i, label in enumerate(corpus.labels):
        models[label] = gmm.adapt_concept(ubm, x[y == i], iterations=iterations)
    system.model = gmm.GmmConceptBank(ubm=ubm, concept_models=models,
                                      labels=list(corpus.labels))
    return system, system.classify


# --- system file format ("ACSY") ---

SYSTEM_MAGIC = b"ACSY"
SYSTEM_VERSION = 1
# magic, version, header length; then the header (JSON, sorted keys), then
# every array it names as <f8, in header order. Activations are not
# stored: an MlpModel has sigmoid layers and a softmax last one.
_PREAMBLE = struct.Struct("<4sII")
_ARRAY_FIELDS = {NormStats: ("mean", "std"), mlp.Layer: ("weights", "bias"),
                 gmm.DiagGmm: ("weights", "means", "variances")}


def save_system(system: System, path) -> None:
    """Write ``system`` to ``path``; equal systems give equal bytes."""
    model = system.model
    header = {"labels": list(system.labels), "width": system.width,
              "dct_keep": system.dct_keep, "deltas": system.deltas,
              "config_fingerprint": system.config_fingerprint}
    parts = [("mfcc_norm", system.mfcc_norm), ("input_norm", system.input_norm)]
    if isinstance(model, mlp.MlpModel):
        header.update(kind="mlp", layers=[len(model.layers)])
        parts += [(f"net.{i}", layer) for i, layer in enumerate(model.layers)]
    elif isinstance(model, hierarchy.CascadeModel):
        nets = {"stage1": model.first_stage, "stage2": model.second_stage}
        header.update(kind="cascade", offsets=list(model.sparse.offsets),
                      layers=[len(net.layers) for net in nets.values()])
        parts += [(f"{stage}.{i}", layer) for stage, net in nets.items()
                  for i, layer in enumerate(net.layers)]
    else:
        header.update(kind="gmm")
        parts += [("ubm", model.ubm)] + [
            (f"concept.{i}", model.concept_models[label])
            for i, label in enumerate(model.labels)]
    arrays = {f"{prefix}.{name}": getattr(part, name) for prefix, part in parts
              if part is not None for name in _ARRAY_FIELDS[type(part)]}
    header["arrays"] = [[name, list(a.shape)] for name, a in arrays.items()]
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_PREAMBLE.pack(SYSTEM_MAGIC, SYSTEM_VERSION, len(head)) + head)
        for a in arrays.values():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_system(path) -> System:
    """Read a system file; every fault is a DataError naming ``path``."""
    try:
        return _parse_system(Path(path).read_bytes())
    except OSError as exc:
        raise DataError(f"{path}: cannot read system file: {exc.strerror}") from exc
    except (HdnnError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad system file: {exc}") from exc


def _parse_system(blob: bytes) -> System:
    if len(blob) < _PREAMBLE.size or blob[:4] != SYSTEM_MAGIC:
        raise ValueError("not a system file")
    _, version, head_len = _PREAMBLE.unpack_from(blob)
    if version != SYSTEM_VERSION:
        raise ValueError(f"unsupported version {version}")
    pos = _PREAMBLE.size + head_len
    if len(blob) < pos:
        raise ValueError("truncated")
    header = json.loads(blob[_PREAMBLE.size:pos])
    shapes = {name: tuple(shape) for name, shape in header["arrays"]}
    if not all(type(n) is int and n >= 0 for s in shapes.values() for n in s):
        raise ValueError("array shapes must be non-negative integers")
    end = pos + 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(blob) != end:
        raise ValueError("truncated" if len(blob) < end
                         else f"{len(blob) - end} trailing bytes")
    arrays = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=count,
                                     offset=pos).reshape(shape).copy()
        pos += 8 * count

    def take(cls, prefix, **extra):
        return cls(**{name: arrays[f"{prefix}.{name}"]
                      for name in _ARRAY_FIELDS[cls]}, **extra)

    def net(prefix, num_layers):
        return mlp.MlpModel(layers=[
            take(mlp.Layer, f"{prefix}.{i}",
                 activation=(mlp.Activation.SOFTMAX if i == num_layers - 1
                             else mlp.Activation.SIGMOID))
            for i in range(num_layers)])

    labels = [str(label) for label in header["labels"]]
    if header["kind"] == "mlp":
        (num_layers,) = header["layers"]
        model = net("net", num_layers)
    elif header["kind"] == "cascade":
        first, second = header["layers"]
        model = hierarchy.CascadeModel(
            first_stage=net("stage1", first),
            sparse=hierarchy.SparseContextConfig(offsets=header["offsets"]),
            second_stage=net("stage2", second))
    elif header["kind"] == "gmm":
        model = gmm.GmmConceptBank(
            ubm=take(gmm.DiagGmm, "ubm"), labels=labels,
            concept_models={label: take(gmm.DiagGmm, f"concept.{i}")
                            for i, label in enumerate(labels)})
    else:
        raise ValueError(f"unknown kind {header['kind']!r}")
    input_norm = take(NormStats, "input_norm") if "input_norm.mean" in arrays else None
    return System(labels=labels, mfcc_norm=take(NormStats, "mfcc_norm"),
                  width=header["width"], dct_keep=header["dct_keep"],
                  deltas=header["deltas"], input_norm=input_norm, model=model,
                  config_fingerprint=header["config_fingerprint"])
