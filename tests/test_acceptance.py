"""End-to-end acceptance suite.

Everything here runs on the structured synthetic corpus at desk scale
(small networks, 64-component mixtures) with fixed seeds. The expensive
fixtures (corpus synthesis, system training) are module-scoped so each
system is trained exactly once.
"""

import numpy as np
import pytest
from scipy.stats import norm

from hdnn_audio import evaluation, gmm, hierarchy, mlp, rbm, systems
from hdnn_audio.data import (SynthConfig, concept_families,
                             generate_synthetic_corpus, load_annotations)
from hdnn_audio.features import (FeatureSequence, invert_temporal_dct,
                                 stack_context, temporal_dct_reduce)

SEED = 0
GMM_COMPONENTS = 64
GMM_ITERATIONS = 15
SWEEP_WIDTHS = (1, 9, 17, 25, 33)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "corpus"
    generate_synthetic_corpus(
        SynthConfig(clips_per_concept=32, rng_seed=SEED), out)
    return out


@pytest.fixture(scope="module")
def corpus(corpus_dir):
    segments = load_annotations(corpus_dir / "annotations.csv",
                                check_audio=True)
    return systems.prepare_corpus(segments, corpus_dir, seed=SEED)


def desk_schedule(seed=SEED):
    return mlp.TrainSchedule(initial_lr=0.4, minibatch_frames=16,
                             max_epochs=30, min_epochs=8, rng_seed=seed)


def desk_pretrain():
    return rbm.PretrainConfig(minibatch=128, rng_seed=SEED)


@pytest.fixture(scope="module")
def nn_sweep(corpus):
    """1x1000 networks on raw stacked context, one per sweep width."""
    reports = {}
    for width in SWEEP_WIDTHS:
        _, classifier, _ = systems.train_nn_system(
            corpus, hidden_dims=[1000], width=width, schedule=desk_schedule())
        reports[width] = evaluation.evaluate(classifier, corpus.test,
                                             corpus.labels)
    return reports


@pytest.fixture(scope="module")
def gmm_reports(corpus):
    reports = {}
    for name, mode, width in (("delta42", "delta42", 0),
                              ("stack5", "stacked", 5),
                              ("stack21", "stacked", 21)):
        _, classifier = systems.train_gmm_system(
            corpus, num_components=GMM_COMPONENTS, iterations=GMM_ITERATIONS,
            seed=SEED, feature_mode=mode, width=width)
        reports[name] = evaluation.evaluate(classifier, corpus.test,
                                            corpus.labels)
    return reports


@pytest.fixture(scope="module")
def dnn_system(corpus):
    system, _, _ = systems.train_nn_system(
        corpus, hidden_dims=[256, 256, 256], width=49,
        schedule=desk_schedule(), dct_keep=33, pretrain=desk_pretrain())
    return system


@pytest.fixture(scope="module")
def dnn_report(dnn_system, corpus):
    return evaluation.evaluate(dnn_system.classify, corpus.test, corpus.labels)


@pytest.fixture(scope="module")
def hdnn_report(dnn_system, corpus):
    """The H-DNN as train_hdnn_system builds it: a second stage on the DNN."""
    system = systems.add_second_stage(dnn_system, corpus, [128, 128],
                                      desk_schedule(SEED + 1),
                                      hierarchy.SparseContextConfig())
    return evaluation.evaluate(system.classify, corpus.test, corpus.labels)


class TestCriterion1GradientCorrectness:
    """Backprop matches central finite differences on random small MLPs."""

    def finite_difference(self, model, batch, labels, h=1e-5):
        fd = []
        for layer in model.layers:
            gw = np.zeros_like(layer.weights)
            for idx in np.ndindex(layer.weights.shape):
                orig = layer.weights[idx]
                layer.weights[idx] = orig + h
                up = mlp.cross_entropy(mlp.forward(model, batch)[1], labels)
                layer.weights[idx] = orig - h
                dn = mlp.cross_entropy(mlp.forward(model, batch)[1], labels)
                layer.weights[idx] = orig
                gw[idx] = (up - dn) / (2 * h)
            gb = np.zeros_like(layer.bias)
            for i in range(len(layer.bias)):
                orig = layer.bias[i]
                layer.bias[i] = orig + h
                up = mlp.cross_entropy(mlp.forward(model, batch)[1], labels)
                layer.bias[i] = orig - h
                dn = mlp.cross_entropy(mlp.forward(model, batch)[1], labels)
                layer.bias[i] = orig
                gb[i] = (up - dn) / (2 * h)
            fd.append((gw, gb))
        return fd

    def test_twenty_random_networks(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            depth = int(rng.integers(1, 4))
            dims = ([int(rng.integers(2, 8))]
                    + [int(rng.integers(2, 21)) for _ in range(depth)]
                    + [int(rng.integers(2, 6))])
            model = mlp.init_random(dims, rng)
            batch = rng.standard_normal((6, dims[0]))
            labels = rng.integers(0, dims[-1], size=6)
            _, analytic = mlp.loss_and_gradients(model, batch, labels)
            numeric = self.finite_difference(model, batch, labels)
            for (aw, ab), (nw, nb) in zip(analytic, numeric):
                scale = max(np.abs(nw).max(), np.abs(nb).max(), 1e-8)
                assert np.abs(aw - nw).max() / scale < 1e-4
                assert np.abs(ab - nb).max() / scale < 1e-4


class TestCriterion2EmMonotonicity:
    def test_fifty_random_datasets(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            n = int(rng.integers(50, 2001))
            d = int(rng.integers(1, 15))
            k = int(rng.integers(1, 17))
            centers = rng.standard_normal((4, d)) * 3.0
            data = centers[rng.integers(0, 4, size=n)] \
                + rng.standard_normal((n, d))
            init = gmm.kmeans_pp_init(data, k, rng)
            _, ll = gmm.em_train(init, data, iterations=10)
            assert np.all(np.diff(ll) >= -1e-6)


class TestCriterion3DctReduction:
    def make_stacked(self, rng, t=12, bands=14, width=49):
        seq = FeatureSequence(frames=rng.standard_normal((t, bands)))
        return stack_context(seq, width)

    def test_full_coefficients_round_trip(self, rng):
        stacked = self.make_stacked(rng)
        reduced = temporal_dct_reduce(stacked, 49, 49)
        back = invert_temporal_dct(reduced, 49, 49)
        err = np.abs(back.frames - stacked.frames).max()
        assert err / np.abs(stacked.frames).max() < 1e-10

    def test_constant_trajectory_single_coefficient(self):
        frames = np.tile(np.arange(14.0), (49, 1)).reshape(1, -1)
        stacked = FeatureSequence(frames=frames)
        coeffs = temporal_dct_reduce(stacked, 49, 49).frames.reshape(14, 49)
        assert np.all(np.abs(coeffs[:, 1:]) < 1e-10)
        assert np.abs(coeffs[1:, 0]).min() > 0

    def test_reduced_dimension_is_462(self, rng):
        reduced = temporal_dct_reduce(self.make_stacked(rng), 49, 33)
        assert reduced.dim == 14 * 33 == 462


class TestCriterion4RbmHealth:
    def test_gb_rbm_reduces_reconstruction_error(self, corpus):
        transform = systems.System(corpus.labels, corpus.norm, width=49,
                                   dct_keep=33).features
        x, _ = systems.pool_frames(corpus.train, transform)
        # normalize as the training pipeline does: GB-RBM assumes
        # unit-variance visibles
        x = (x - x.mean(axis=0)) / np.maximum(x.std(axis=0), 1e-8)
        rng = np.random.default_rng(SEED)
        x = x[rng.permutation(len(x))[:8000]]
        model = rbm.init_rbm(rbm.RbmKind.GAUSSIAN_BERNOULLI, 462, 64, rng)
        before = rbm.reconstruction_error(model, x)
        history = rbm.train_rbm(model, x, lr=0.005, epochs=10,
                                minibatch=128, rng=rng)
        assert history[-1] < before


class TestCriterion5ScheduleConformance:
    def test_scripted_trace(self):
        nb = mlp.NewbobSchedule(mlp.TrainSchedule(), baseline_accuracy=0.0)
        lrs, stops = [], []
        for acc in (10.0, 20.0, 30.0, 30.4, 30.45):
            lrs.append(nb.lr)
            stops.append(nb.update(acc))
        assert lrs == [0.002, 0.002, 0.002, 0.002, 0.001]
        assert stops == [False, False, False, False, True]


class TestCriterion6NnContextTrend:
    def test_wide_context_beats_single_frame(self, nn_sweep):
        assert nn_sweep[33].overall_fa >= nn_sweep[1].overall_fa + 10.0

    def test_non_decreasing_within_noise_band(self, nn_sweep):
        fas = [nn_sweep[w].overall_fa for w in SWEEP_WIDTHS]
        for prev, cur in zip(fas, fas[1:]):
            assert cur >= prev - 1.0


class TestCriterion7GmmContextFlat:
    def test_wide_stacking_gains_bounded(self, gmm_reports):
        assert gmm_reports["stack21"].overall_fa \
            <= gmm_reports["stack5"].overall_fa + 2.0


class TestCriterion8SystemOrdering:
    def test_ordering_with_gaps(self, gmm_reports, nn_sweep, dnn_report,
                                hdnn_report):
        best_gmm = max(r.overall_fa for r in gmm_reports.values())
        nn9 = nn_sweep[9].overall_fa
        assert nn9 >= best_gmm + 2.0
        assert dnn_report.overall_fa >= nn9 + 2.0
        assert hdnn_report.overall_fa >= dnn_report.overall_fa + 2.0

    def test_hierarchy_gains_in_long_period_families(self, dnn_report,
                                                     hdnn_report):
        families = concept_families(8)
        gains = {label: hdnn_report.per_concept_fa[label]
                 - dnn_report.per_concept_fa[label]
                 for label in dnn_report.per_concept_fa}
        long_period = [g for label, g in gains.items()
                       if families[label] in ("c", "d")]
        short_period = [g for label, g in gains.items()
                        if families[label] in ("a", "b")]
        assert families[max(gains, key=gains.get)] in ("c", "d")
        assert np.mean(long_period) > np.mean(short_period)


class TestCriterion9OracleEquivalence:
    def test_mlp_matches_manual_forward(self):
        rng = np.random.default_rng(909)
        model = mlp.init_random([10, 12, 5], rng)
        frames = rng.standard_normal((1000, 10))

        a = frames
        for layer in model.layers[:-1]:
            a = 1.0 / (1.0 + np.exp(-(a @ layer.weights.T + layer.bias)))
        z = a @ model.layers[-1].weights.T + model.layers[-1].bias
        expected = z.argmax(axis=1)  # softmax is monotone in its logits

        predicted = mlp.predict_frames(model, frames)
        assert np.array_equal(predicted, expected)

    def test_gmm_matches_bruteforce_density_argmax(self):
        rng = np.random.default_rng(910)
        d = 4
        data = rng.standard_normal((600, d))
        labels = rng.integers(0, 3, size=600)
        ubm = gmm.train_ubm(data, k=4, iterations=5, seed=1)
        bank = gmm.GmmConceptBank(
            ubm=ubm,
            concepts=[gmm.adapt_concept(ubm, data[labels == c], iterations=5)
                      for c in range(3)])
        frames = rng.standard_normal((1000, d))

        def density(model, x):
            per_comp = model.weights[:, None] * np.prod(
                norm.pdf(x[None, :], loc=model.means,
                         scale=np.sqrt(model.variances)), axis=1)[:, None]
            return per_comp.sum()

        expected = []
        for x in frames:
            ubm_ll = np.log(density(bank.ubm, x))
            scores = [np.log(density(concept, x)) - ubm_ll
                      for concept in bank.concepts]
            expected.append(int(np.argmax(scores)))

        assert np.array_equal(gmm.classify_frames(bank, frames), expected)

    def test_cascade_matches_composed_stages(self):
        rng = np.random.default_rng(911)
        sparse = hierarchy.SparseContextConfig()
        first = mlp.init_random([14, 10, 4], rng)
        second = mlp.init_random([4 * len(sparse.offsets), 10, 4], rng)
        cascade = hierarchy.CascadeModel(first_stage=first, sparse=sparse,
                                         second_stage=second)
        seq = FeatureSequence(frames=rng.standard_normal((1000, 14)))

        post = mlp.forward(first, seq.frames)[1]
        stacked = hierarchy.sparse_stack(post, sparse)
        expected = mlp.forward(second, stacked)[1].argmax(axis=1)

        assert np.array_equal(hierarchy.classify(cascade, seq.frames), expected)


class TestCriterion10Determinism:
    def train_gmm_bytes(self, corpus, tmp_path, tag):
        system, classifier = systems.train_gmm_system(
            corpus, num_components=8, iterations=5, seed=SEED,
            feature_mode="stacked", width=5)
        path = tmp_path / f"gmm_{tag}.acsy"
        systems.save_system(system, path)
        report = evaluation.evaluate(classifier, corpus.test, corpus.labels)
        return path.read_bytes(), report

    def test_gmm_pipeline_bitwise(self, corpus, tmp_path):
        blob_a, report_a = self.train_gmm_bytes(corpus, tmp_path, "a")
        blob_b, report_b = self.train_gmm_bytes(corpus, tmp_path, "b")
        assert blob_a == blob_b
        assert report_a == report_b

    def train_nn_bytes(self, corpus, tmp_path, tag):
        schedule = mlp.TrainSchedule(initial_lr=0.4, minibatch_frames=64,
                                     max_epochs=3, rng_seed=SEED)
        system, classifier, _ = systems.train_nn_system(
            corpus, hidden_dims=[32], width=1, schedule=schedule)
        path = tmp_path / f"nn_{tag}.acsy"
        systems.save_system(system, path)
        report = evaluation.evaluate(classifier, corpus.test, corpus.labels)
        return path.read_bytes(), report

    def test_nn_pipeline_bitwise(self, corpus, tmp_path):
        blob_a, report_a = self.train_nn_bytes(corpus, tmp_path, "a")
        blob_b, report_b = self.train_nn_bytes(corpus, tmp_path, "b")
        assert blob_a == blob_b
        assert report_a == report_b
