import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hdnn_audio import hierarchy, mlp, rbm, systems
from hdnn_audio.errors import DimensionMismatch, EmptyInput
from hdnn_audio.features import (ContextConfig, FeatureSequence, NormStats,
                                 apply_norm, fit_norm_stats, mfcc_sequence)


def schedule(seed):
    return mlp.TrainSchedule(initial_lr=0.4, minibatch_frames=32,
                             max_epochs=2, rng_seed=seed)


@pytest.fixture(scope="module")
def corpus(tiny_segments, tiny_corpus_dir):
    return systems.prepare_corpus(tiny_segments, tiny_corpus_dir, seed=7)


# each builder's result tuple, keyed by the system it trains
BUILDERS = {
    "nn": lambda corpus: systems.train_nn_system(
        corpus, hidden_dims=[8], width=5, schedule=schedule(0), dct_keep=3),
    "hdnn": lambda corpus: systems.train_hdnn_system(
        corpus, ContextConfig(width=9, dct_enabled=True, dct_keep_per_band=3),
        stage1_hidden=[8], stage2_hidden=[6], schedule_first=schedule(0),
        schedule_second=schedule(1),
        sparse=hierarchy.SparseContextConfig(offsets=(-2, 0, 2))),
    "gmm_delta42": lambda corpus: systems.train_gmm_system(
        corpus, num_components=2, iterations=2, feature_mode="delta42"),
    "gmm_stacked": lambda corpus: systems.train_gmm_system(
        corpus, num_components=2, iterations=2, feature_mode="stacked", width=3),
}


@pytest.fixture(scope="module")
def trained(corpus):
    return {name: build(corpus) for name, build in BUILDERS.items()}


def model_arrays(model):
    """Every parameter array of a model, in a fixed order."""
    if isinstance(model, mlp.MlpModel):
        return [a for layer in model.layers for a in (layer.weights, layer.bias)]
    if isinstance(model, hierarchy.CascadeModel):
        return model_arrays(model.first_stage) + model_arrays(model.second_stage)
    return [a for g in [model.ubm] + [model.concept_models[label]
                                      for label in model.labels]
            for a in (g.weights, g.means, g.variances)]


def test_prepare_corpus_applies_a_given_norm(tiny_segments, tiny_corpus_dir,
                                              corpus):
    norm = NormStats(mean=corpus.norm.mean + 1.0, std=corpus.norm.std * 2.0)
    again = systems.prepare_corpus(tiny_segments, tiny_corpus_dir, seed=7,
                                   norm=norm)
    assert again.norm is norm
    assert again.train == []
    for (fitted, _), (given, _) in zip(corpus.test, again.test, strict=True):
        np.testing.assert_allclose(given.frames,
                                   (fitted.frames - 1.0 / corpus.norm.std) / 2.0)


class TestSystemFile:
    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_round_trip_is_exact(self, name, trained, corpus, tmp_path):
        system = dataclasses.replace(trained[name][0],
                                     config_fingerprint="0123456789abcdef")
        systems.save_system(system, tmp_path / "a.acsy")
        loaded = systems.load_system(tmp_path / "a.acsy")

        assert type(loaded.model) is type(system.model)
        assert (loaded.labels, loaded.width, loaded.dct_keep, loaded.deltas,
                loaded.config_fingerprint) == (
            system.labels, system.width, system.dct_keep, system.deltas,
            system.config_fingerprint)
        for a, b in zip(model_arrays(loaded.model), model_arrays(system.model),
                        strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        for norm in ("mfcc_norm", "input_norm"):
            stats, ref = getattr(loaded, norm), getattr(system, norm)
            assert (stats is None) == (ref is None)
            if ref is not None:
                assert np.array_equal(stats.mean, ref.mean)
                assert np.array_equal(stats.std, ref.std)
        if isinstance(system.model, hierarchy.CascadeModel):
            assert loaded.model.sparse.offsets == system.model.sparse.offsets

        systems.save_system(loaded, tmp_path / "b.acsy")
        assert (tmp_path / "b.acsy").read_bytes() == (tmp_path / "a.acsy").read_bytes()
        for seq, _ in corpus.test:
            assert np.array_equal(loaded.classify(seq), system.classify(seq))

    def test_front_end_of_each_system(self, trained):
        assert trained["nn"][0].input_norm.mean.shape == (14 * 3,)
        assert trained["hdnn"][0].input_norm.mean.shape == (14 * 3,)
        assert trained["gmm_delta42"][0].deltas
        assert trained["gmm_delta42"][0].input_norm is None
        assert trained["gmm_stacked"][0].model.ubm.dim == 14 * 3


def random_clips(rng, num_clips=100, t=200, d=32):
    """Clips of t to t + 6 random frames, labelled 0, 1, 2 in turn."""
    return [(FeatureSequence(rng.standard_normal((t + i % 7, d))), i % 3)
            for i in range(num_clips)]


class TestPoolFrames:

    def test_equals_stacked_transformed_clips(self, corpus):
        system = systems.System(corpus.labels, corpus.norm, width=9, dct_keep=3)
        x, y = systems.pool_frames(corpus.train, system.features)
        want = np.vstack([system.features(seq).frames for seq, _ in corpus.train])
        np.testing.assert_array_equal(x.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(y, np.concatenate(
            [np.full(seq.num_frames, label) for seq, label in corpus.train]))
        assert y.dtype == np.int64

    def test_transform_that_drops_a_frame_is_refused(self, rng):
        with pytest.raises(DimensionMismatch):
            systems.pool_frames(random_clips(rng, num_clips=3),
                                lambda seq: FeatureSequence(seq.frames[1:]))

    def test_transform_that_changes_the_width_is_refused(self, rng):
        clips = random_clips(rng, num_clips=3)
        with pytest.raises(DimensionMismatch):
            systems.pool_frames(clips, lambda seq: FeatureSequence(
                seq.frames[:, :1] if seq is clips[2][0] else seq.frames))

    def test_no_clips_is_refused(self):
        with pytest.raises(EmptyInput):
            systems.pool_frames([], lambda seq: seq)

    def test_normalizing_front_end_equals_the_pool_normalized_in_place(self, corpus):
        system = systems.System(corpus.labels, corpus.norm, width=9, dct_keep=3)
        x, _ = systems.pool_frames(corpus.train, system.features)
        system.input_norm = fit_norm_stats(x)
        x -= system.input_norm.mean
        x /= system.input_norm.std
        again, _ = systems.pool_frames(corpus.train, system.features)
        np.testing.assert_array_equal(again.view(np.uint64), x.view(np.uint64))

    def test_holds_the_pool_once(self, rng, traced_peak_bytes):
        clips = random_clips(rng)
        out = {}

        def pool():
            out["x"], _ = systems.pool_frames(
                clips, lambda seq: FeatureSequence(seq.frames * 2.0))
        peak = traced_peak_bytes(pool)
        # the pool, its labels and one transformed clip
        assert peak < 1.25 * out["x"].nbytes


class TestTrainNetwork:
    def test_fine_tunes_the_pretrained_layers_themselves(self, rng):
        x = rng.standard_normal((300, 10))
        y = rng.integers(0, 3, size=300)
        stack = rbm.pretrain_stack([8, 6], x.copy(), rbm.PretrainConfig(
            gb_epochs=1, bb_epochs=1, minibatch=64))
        arrays = [(layer.weights, layer.bias) for layer in stack]
        before = [w.copy() for w, _ in arrays]
        model, _ = systems.train_network(x, y, [8, 6], 3, schedule(0), stack)
        assert len(model.layers) == 3
        for layer, (weights, bias), old in zip(model.layers, arrays, before):
            assert layer.weights is weights and layer.bias is bias
            assert not np.array_equal(weights, old)

    def test_holds_the_network_once(self, rng, traced_peak_bytes):
        # a wide network on few rows, so that its weights set the peak
        x = rng.standard_normal((64, 256))
        y = rng.integers(0, 4, size=64)
        stack = [mlp.Layer(rng.standard_normal((1024, 256)), np.zeros(1024)),
                 mlp.Layer(rng.standard_normal((1024, 1024)), np.zeros(1024))]
        net_bytes = sum(layer.weights.nbytes for layer in stack)
        peak = traced_peak_bytes(lambda: systems.train_network(
            x, y, [1024, 1024], 4, mlp.TrainSchedule(
                initial_lr=0.01, minibatch_frames=64, max_epochs=1), stack))
        # the random init and one step's gradients, one network each
        # (1.20 measured; 2.21 when training copied the model it was handed)
        assert peak < 1.5 * net_bytes


class TestTrainNnSystem:
    def test_pretrained_network_fine_tunes_on_the_pool_it_consumed(self, corpus):
        pretrain = rbm.PretrainConfig(gb_epochs=1, bb_epochs=1, minibatch=64)
        system, _, _ = systems.train_nn_system(corpus, [8, 8], width=5,
                                               schedule=schedule(0), dct_keep=3,
                                               pretrain=pretrain)
        # the recipe on a pool that pre-training leaves intact
        x, y = systems.pool_frames(corpus.train, system.features)
        stack = rbm.pretrain_stack([8, 8], x.copy(), pretrain)
        want, _ = systems.train_network(x, y, [8, 8], len(corpus.labels),
                                        schedule(0), stack)
        for a, b in zip(model_arrays(system.model), model_arrays(want), strict=True):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("pretrain", [
        rbm.PretrainConfig(gb_epochs=1, bb_epochs=1, minibatch=256), None],
        ids=["pretrained", "random_init"])
    def test_holds_one_pool_at_a_time(self, rng, traced_peak_bytes, pretrain):
        clips = random_clips(rng, num_clips=60, d=14)
        corpus = systems.PreparedCorpus(labels=["a", "b", "c"], train=clips, test=[],
                                        norm=NormStats(np.zeros(14), np.ones(14)))
        peak = traced_peak_bytes(lambda: systems.train_nn_system(
            corpus, [96, 96], width=9, schedule=mlp.TrainSchedule(
                initial_lr=0.4, minibatch_frames=256, max_epochs=1),
            pretrain=pretrain))
        pool_bytes = sum(seq.num_frames for seq, _ in clips) * 9 * 14 * 8
        # the pool and fine-tuning's CV split and passes: 1.40 measured
        # either way; 2.00 with pre-training when the 96-wide upper input
        # was a new array beside the pool
        assert peak < 1.6 * pool_bytes


class TestAddSecondStage:
    def test_first_system_is_left_as_it_was(self, trained, corpus, tmp_path):
        first = trained["nn"][0]
        systems.save_system(first, tmp_path / "before.acsy")
        labels = [first.classify(seq) for seq, _ in corpus.test]

        system = systems.add_second_stage(
            first, corpus, [6], schedule(1),
            hierarchy.SparseContextConfig(offsets=(-2, 0, 2)))

        assert system.model.first_stage is first.model
        assert isinstance(first.model, mlp.MlpModel)
        systems.save_system(first, tmp_path / "after.acsy")
        assert ((tmp_path / "after.acsy").read_bytes()
                == (tmp_path / "before.acsy").read_bytes())
        for (seq, _), before in zip(corpus.test, labels, strict=True):
            assert np.array_equal(first.classify(seq), before)


class TestBenchmarkContract:
    """The benchmark uses element 1 of a builder's result as the
    classifier and feeds it normalized MFCC sequences."""

    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_element_one_classifies_normalized_mfcc(self, name, trained, corpus):
        result = trained[name]
        classifier = result[1]
        assert callable(classifier)
        for seq, _ in corpus.test:
            labels = np.asarray(classifier(seq))
            assert labels.shape == (seq.num_frames,)
            assert np.issubdtype(labels.dtype, np.integer)
            assert labels.min() >= 0 and labels.max() < len(corpus.labels)
            assert np.array_equal(labels, result[0].classify(seq))


class TestTrainCascade:
    def separable_clips(self, rng, num_classes=2, clips_per_class=4, t=30, d=4):
        clips = []
        for c in range(num_classes):
            for _ in range(clips_per_class):
                frames = rng.standard_normal((t, d)) + 3.0 * c
                clips.append((FeatureSequence(frames), c))
        return clips

    def train(self, clips, offsets):
        """The cascade alone: a width-1 front-end without DCT passes the
        clips' frames through to the input normalization."""
        d = clips[0][0].dim
        corpus = systems.PreparedCorpus(
            labels=["a", "b"], train=clips, test=[],
            norm=NormStats(np.zeros(d), np.ones(d)))
        system, _ = systems.train_hdnn_system(
            corpus, ContextConfig(width=1, dct_enabled=False),
            stage1_hidden=[8], stage2_hidden=[6],
            schedule_first=self.schedule(), schedule_second=self.schedule(),
            sparse=hierarchy.SparseContextConfig(offsets=offsets))
        return system

    def schedule(self):
        return mlp.TrainSchedule(initial_lr=0.5, minibatch_frames=32,
                                 max_epochs=5, rng_seed=0)

    def test_learns_separable_clips(self, rng):
        clips = self.separable_clips(rng)
        system = self.train(clips, (-2, 0, 2))
        correct = total = 0
        for seq, label in clips:
            pred = system.classify(seq)
            correct += int(np.sum(pred == label))
            total += len(pred)
        assert correct / total > 0.9

    def test_deterministic(self, rng):
        clips = self.separable_clips(rng)
        outs = []
        for _ in range(2):
            cascade = self.train(clips, (-1, 0, 1)).model
            outs.append([array.tobytes() for net in (cascade.first_stage,
                                                     cascade.second_stage)
                         for layer in net.layers
                         for array in (layer.weights, layer.bias)])
        assert outs[0] == outs[1]


def load_tracing(monkeypatch):
    """perfbench/tracing.py, imported from its file for this test only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestTracedNames:
    """The benchmark's per-layer trace wraps package functions by module
    attribute and reads the frame shift off feature sequences."""

    def test_tracer_finds_every_name_and_restores_it(self, monkeypatch):
        tracing = load_tracing(monkeypatch)
        modules = {name: importlib.import_module(f"hdnn_audio.{name}")
                   for name, *_ in tracing.WRAPS}
        before = {(name, attr): getattr(modules[name], attr)
                  for name, attr, *_ in tracing.WRAPS}
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert tracer.missing == set()
            assert all(getattr(modules[name], attr) is not fn
                       for (name, attr), fn in before.items())
        finally:
            tracer.uninstall()
        assert all(getattr(modules[name], attr) is fn
                   for (name, attr), fn in before.items())

    def test_frame_shift_survives_normalization(self, tone_clip):
        seq = mfcc_sequence(tone_clip)
        assert seq.frame_shift_ms == 10.0
        norm = NormStats(np.zeros(seq.dim), np.ones(seq.dim))
        assert apply_norm(seq, norm).frame_shift_ms == 10.0
