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
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import gmm, hierarchy, mlp, rbm
from .data import AnnotatedSegment, load_segment_audio, split_dataset
from .errors import (ClipTooShort, DataError, DimensionMismatch, EmptyInput,
                     HdnnError)
from .features import (NUM_CEPS, ContextConfig, FeatureSequence, NormStats,
                       append_deltas, apply_norm, fit_norm_stats, mfcc_sequence,
                       stack_context, temporal_dct_reduce)

GMM_FEATURE_MODES = ("delta42", "stacked")  # train_gmm_system's front-ends

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
    """Split the segments at the clip level, extract MFCCs and normalize
    them with statistics fit on the training split.

    Given a ``norm`` (a trained system's), only the test split is
    extracted and normalized with it, and ``train`` is left empty. A
    segment too short for one frame raises ClipTooShort naming it.
    """
    labels = sorted({seg.label for seg in segments})
    label_index = {label: i for i, label in enumerate(labels)}
    train_segs, test_segs = split_dataset(segments, train_fraction, seed)

    def mfccs(seg):
        try:
            return mfcc_sequence(load_segment_audio(seg, audio_root))
        except ClipTooShort as exc:
            raise ClipTooShort(f"{seg.clip_path} segment {seg.start_s}-{seg.end_s} s: "
                               f"{exc}") from exc

    def extract(segs):
        return [(mfccs(seg), label_index[seg.label]) for seg in segs]

    train_raw = extract(train_segs) if norm is None else []
    test_raw = extract(test_segs)
    if norm is None:
        norm = fit_norm_stats(np.vstack([seq.frames for seq, _ in train_raw]))
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
        elif self.width != 1 or self.dct_keep is not None:
            seq = stack_context(seq, self.width)
            if self.dct_keep is not None:
                seq = temporal_dct_reduce(seq, self.width, self.dct_keep)
        if self.input_norm is not None:
            seq = apply_norm(seq, self.input_norm)
        return seq

    def classify(self, seq: FeatureSequence) -> np.ndarray:
        """Per-frame labels of a normalized MFCC sequence."""
        x = self.features(seq).frames
        if isinstance(self.model, mlp.MlpModel):
            return mlp.predict_frames(self.model, x)
        if isinstance(self.model, hierarchy.CascadeModel):
            return hierarchy.classify(self.model, x)
        return gmm.classify_frames(self.model, x)


def pool_frames(clips: list[tuple[FeatureSequence, int]],
                transform) -> tuple[np.ndarray, np.ndarray]:
    """Every frame of ``transform`` of each clip, as one matrix, with the
    clips' labels per frame.

    Each clip's frames are written straight into the one matrix, so the
    pool is never held twice. ``transform`` must keep a clip's frame
    count, since the labels are per input frame.
    """
    if not clips:
        raise EmptyInput("no clips to pool")
    counts = [seq.num_frames for seq, _ in clips]
    y = np.repeat(np.array([label for _, label in clips], dtype=np.int64), counts)
    x = None
    end = 0
    for (seq, _), count in zip(clips, counts):
        frames = transform(seq).frames
        if x is None:
            x = np.empty((len(y), frames.shape[1]))
        if frames.shape != (count, x.shape[1]):
            raise DimensionMismatch(f"transform gave {frames.shape[0]} x "
                                    f"{frames.shape[1]} frames for a {count}-frame "
                                    f"clip of a {x.shape[1]}-dim pool")
        x[end:end + count] = frames
        end += count
    return x, y


def train_network(x: np.ndarray, y: np.ndarray, hidden_dims: list[int],
                  num_classes: int, schedule: mlp.TrainSchedule,
                  stack: Sequence[mlp.Layer] = ()
                  ) -> tuple[mlp.MlpModel, list[mlp.EpochRecord]]:
    """The one recipe every network is built by: random init seeded by
    ``schedule.rng_seed``, its bottom hidden layers replaced by
    ``stack``'s pre-trained layers themselves, then SGD fine-tuning of
    that model on ``x``. Returns (model, per-epoch history)."""
    rng = np.random.default_rng(schedule.rng_seed)
    model = mlp.init_random([x.shape[1]] + hidden_dims + [num_classes], rng)
    model.layers[:len(stack)] = stack
    return mlp.train(model, (x, y), schedule)


def train_nn_system(corpus: PreparedCorpus, hidden_dims: list[int],
                    width: int, schedule: mlp.TrainSchedule,
                    dct_keep: int | None = None,
                    pretrain: rbm.PretrainConfig | None = None):
    """Train a single MLP on context-windowed (optionally DCT-reduced)
    features, its hidden layers pre-trained as an RBM stack first when
    ``pretrain`` is set. Returns (system, system.classify, history).

    Pre-training consumes the pooled training matrix, so the pool is
    taken again, through the now normalizing front end, for fine-tuning:
    one N x D matrix is live at a time, with the bits of the pool
    normalized in place.
    """
    system = System(labels=list(corpus.labels), mfcc_norm=corpus.norm,
                    width=width, dct_keep=dct_keep)
    # re-normalize the NN input stream: DCT/stacking changes per-dimension
    # scales and the networks (and GB-RBM) expect unit-variance inputs
    x, y = pool_frames(corpus.train, system.features)
    system.input_norm = fit_norm_stats(x)
    x -= system.input_norm.mean
    x /= system.input_norm.std
    stack = []
    if pretrain is not None and hidden_dims:
        stack = rbm.pretrain_stack(hidden_dims, x, pretrain)
        del x  # freed first, or the two pools would be held at once
        x, _ = pool_frames(corpus.train, system.features)
    system.model, history = train_network(x, y, hidden_dims, len(corpus.labels),
                                          schedule, stack)
    return system, system.classify, history


def add_second_stage(first: System, corpus: PreparedCorpus, hidden_dims: list[int],
                     schedule: mlp.TrainSchedule,
                     sparse: hierarchy.SparseContextConfig) -> System:
    """A new system: ``first``'s trained network, frozen, under a second
    stage trained from random init on its sparse-stacked posteriors over
    the training clips, computed clip by clip as ``classify`` computes
    them. ``first`` is left as it was."""
    x, y = pool_frames(corpus.train, lambda seq: FeatureSequence(
        hierarchy.second_stage_inputs(first.model, sparse, first.features(seq).frames)))
    second, _ = train_network(x, y, hidden_dims, len(corpus.labels), schedule)
    return replace(first, model=hierarchy.CascadeModel(
        first_stage=first.model, sparse=sparse, second_stage=second))


def train_hdnn_system(corpus: PreparedCorpus, context: ContextConfig,
                      stage1_hidden: list[int], stage2_hidden: list[int],
                      schedule_first: mlp.TrainSchedule,
                      schedule_second: mlp.TrainSchedule,
                      pretrain: rbm.PretrainConfig | None = None,
                      sparse: hierarchy.SparseContextConfig | None = None):
    """The H-DNN: ``add_second_stage`` on the network ``train_nn_system``
    trains on ``context``'s features, as the CLI builds it. Returns
    (system, system.classify)."""
    first, _, _ = train_nn_system(corpus, stage1_hidden, context.width,
                                  schedule_first, context.dct_keep, pretrain)
    system = add_second_stage(first, corpus, stage2_hidden, schedule_second,
                              sparse or hierarchy.SparseContextConfig())
    return system, system.classify


def train_gmm_system(corpus: PreparedCorpus, num_components: int,
                     iterations: int = 20, seed: int = 0,
                     feature_mode: str = "delta42", width: int = 5):
    """GMM-UBM bank on delta features or raw context-stacked MFCCs.

    ``feature_mode``: "delta42" (statics+deltas+delta-deltas) or
    "stacked" (width consecutive frames, no DCT).
    Returns (system, system.classify).
    """
    if feature_mode not in GMM_FEATURE_MODES:
        raise ValueError(f"unknown feature_mode {feature_mode!r}")
    stacked = feature_mode == "stacked"
    system = System(labels=list(corpus.labels), mfcc_norm=corpus.norm,
                    width=width if stacked else 1, deltas=not stacked)

    x, y = pool_frames(corpus.train, system.features)
    ubm = gmm.train_ubm(x, k=num_components, iterations=iterations, seed=seed)
    system.model = gmm.GmmConceptBank(ubm=ubm, concepts=[
        gmm.adapt_concept(ubm, x[y == i], iterations=iterations)
        for i in range(len(corpus.labels))])
    return system, system.classify


# --- system file format ("ACSY") ---

SYSTEM_MAGIC = b"ACSY"
SYSTEM_VERSION = 1
# magic, version, header length; then the header (JSON, sorted keys), then
# every array it names as <f8, in header order. A network is stored as
# its weights and biases alone: every MlpModel is sigmoid layers under a
# softmax one.
_PREAMBLE = struct.Struct("<4sII")
# each stored field of a part with its axes; a letter is one size per part
_ARRAY_FIELDS = {NormStats: {"mean": "d", "std": "d"},
                 mlp.Layer: {"weights": "oi", "bias": "o"},
                 gmm.DiagGmm: {"weights": "k", "means": "kd", "variances": "kd"}}
# JSON types of the header's scalar fields (bool is not an int here)
_HEADER_TYPES = {"labels": (list,), "width": (int,), "dct_keep": (int, type(None)),
                 "deltas": (bool,), "config_fingerprint": (str,)}


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
        parts += [("ubm", model.ubm)] + [(f"concept.{i}", concept)
                                         for i, concept in enumerate(model.concepts)]
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

    def take(cls, prefix):
        fields = {name: arrays[f"{prefix}.{name}"] for name in _ARRAY_FIELDS[cls]}
        sizes = {}
        for name, axes in _ARRAY_FIELDS[cls].items():
            shape = fields[name].shape
            if len(shape) != len(axes) or any(sizes.setdefault(axis, n) != n
                                              for axis, n in zip(axes, shape)):
                raise ValueError(f"{prefix}.{name} has shape {list(shape)}, "
                                 f"which does not fit the other {prefix} arrays")
        return cls(**fields)

    def net(prefix, num_layers):
        if num_layers < 1:
            raise ValueError(f"{prefix} has no layers")
        return mlp.MlpModel(layers=[take(mlp.Layer, f"{prefix}.{i}")
                                    for i in range(num_layers)])

    for key, types in _HEADER_TYPES.items():
        if type(header[key]) not in types:
            raise ValueError(f"{key} has the wrong type: {header[key]!r}")
    labels = header["labels"]
    if not all(type(label) is str for label in labels):
        raise ValueError(f"labels must be strings, got {labels!r}")
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
        model = gmm.GmmConceptBank(ubm=take(gmm.DiagGmm, "ubm"), concepts=[
            take(gmm.DiagGmm, f"concept.{i}") for i in range(len(labels))])
    else:
        raise ValueError(f"unknown kind {header['kind']!r}")
    input_norm = take(NormStats, "input_norm") if "input_norm.mean" in arrays else None
    system = System(labels=labels, mfcc_norm=take(NormStats, "mfcc_norm"),
                    width=header["width"], dct_keep=header["dct_keep"],
                    deltas=header["deltas"],
                    input_norm=input_norm, model=model,
                    config_fingerprint=header["config_fingerprint"])
    _check_dims(system)
    return system


def _check_dims(system: System) -> None:
    """Raise unless the MFCC norm, the front-end, the input norm, the
    model and the labels fit together. The front end's own checks reject
    its geometry and input norm when it runs on one frame; a delta front
    end, which reads neither, must store width 1 and no DCT."""
    model = system.model
    if isinstance(model, gmm.GmmConceptBank):
        if any(g.means.shape != model.ubm.means.shape for g in model.concepts):
            raise ValueError("concept models differ in shape from the UBM")
        in_dim, out_dim = model.ubm.dim, len(model.concepts)
    else:
        nets = ([model] if isinstance(model, mlp.MlpModel)
                else [model.first_stage, model.second_stage])
        in_dim, out_dim = nets[0].input_dim, nets[-1].output_dim
    mfcc_dim = len(system.mfcc_norm.mean)
    if mfcc_dim != NUM_CEPS + 1:
        raise ValueError(f"MFCC norm has {mfcc_dim} dims, not {NUM_CEPS + 1}")
    if system.deltas and (system.width, system.dct_keep) != (1, None):
        raise ValueError(f"deltas with width {system.width}, dct_keep {system.dct_keep}")
    feature_dim = system.features(FeatureSequence(np.zeros((1, mfcc_dim)))).dim
    if feature_dim != in_dim:
        raise ValueError(f"front-end gives {feature_dim} dims, model takes {in_dim}")
    if out_dim != len(system.labels):
        raise ValueError(f"{len(system.labels)} labels for {out_dim} model outputs")
