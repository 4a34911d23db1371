"""The benchmark's three workloads.

Each workload sets up several times (``setup_s`` is the median), trains
its systems on a fixed reference corpus, scores that corpus's test split
(``fa_pct``), classifies held-out clips made from the seed for the
requested number of seconds, and checks every output. The package is
called only through its public functions, resolved at call time through
the module (``features.mfcc_sequence``, not a name imported here), so
the tracer in ``tracing.py`` sees every call.

An operation is one system trained or one clip classified. An operation
that raises or returns malformed labels is counted as failed; the run
goes on.
"""

from __future__ import annotations

import io
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io.wavfile

from hdnn_audio import data, evaluation, features, hierarchy, mlp, rbm, systems

NUM_CONCEPTS = 8
SAMPLE_RATE = 16000
NOISE_DB = -30.0
CLIP_SECONDS = (1.2, 2.0)
# set up at least SETUP_REPEATS times and for at least SETUP_MIN_S: the
# first set-ups of a process run cold, and a short set-up needs more
# samples for a steady median
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
# held-out queries: untimed warm-up operations, and the fewest timed
# ones; the query accuracy pools over the first MIN_OPS (a multiple of 8
# concepts times 1, 2 or 3 systems)
WARMUP_OPS = 4
MIN_OPS = 192
# seed streams of the held-out query clips and the warm-up clips
QUERY_STREAM, WARMUP_STREAM = 1, 2
# the training corpora and every training seed are the reference ones
# (seed 0) in every run, so fa_pct is exact and any accuracy change shows;
# --seed makes the held-out query stream
REFERENCE_SEED = 0


def desk_schedule(seed: int, epochs: int) -> mlp.TrainSchedule:
    """Desk-scale SGD recipe (lr 0.4, 16-frame minibatches). Warm-up and
    maximum epochs are equal, so every seed trains the same number of
    epochs and train_s does not depend on when newbob would stop."""
    return mlp.TrainSchedule(initial_lr=0.4, minibatch_frames=16,
                             min_epochs=epochs, max_epochs=epochs, rng_seed=seed)


def train_desk_cascade(outcome: "Outcome", corpus, seed: int, epochs: int,
                       pretrain: rbm.PretrainConfig | None):
    """The desk H-DNN cascade: 3x256 stage 1 on 49-frame DCT-33 context,
    128x128 stage 2. Returns the classifier, or None if training failed."""
    result = outcome.train(
        "hdnn", systems.train_hdnn_system, corpus,
        features.ContextConfig(width=49, dct_enabled=True, dct_keep_per_band=33),
        stage1_hidden=[256, 256, 256], stage2_hidden=[128, 128],
        schedule_first=desk_schedule(seed, epochs),
        schedule_second=desk_schedule(seed + 1, epochs),
        pretrain=pretrain, sparse=hierarchy.SparseContextConfig())
    return None if result is None else result[1]


def valid_labels(labels: np.ndarray, num_frames: int) -> bool:
    """One integer concept index per frame."""
    return (labels.shape == (num_frames,)
            and np.issubdtype(labels.dtype, np.integer)
            and labels.min() >= 0 and labels.max() < NUM_CONCEPTS)


@dataclass
class Outcome:
    """Operation counts, timings and checks of one workload run."""

    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    # one (start, system, seconds, audio seconds) per classified clip
    clips: list[tuple[float, str, float, float]] = field(default_factory=list)
    query_frames: int = 0
    query_correct: int = 0
    test_split_fa: dict[str, float] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)

    def train(self, what: str, fn, *args, **kwargs):
        """One training operation; returns the system, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # an operation boundary: count it and go on
            traceback.print_exc()
            self.fail(what)
            return None

    def classify_clip(self, system: str, pipeline, *args):
        """One classification operation: ``pipeline(*args)`` returns the
        clip's feature sequence and its labels. Returns the labels, or
        None if the operation failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            seq, labels = pipeline(*args)
            labels = np.asarray(labels)
        except Exception:  # an operation boundary: count it and go on
            traceback.print_exc()
            seq = labels = None
        elapsed = time.perf_counter() - start
        if seq is None or not valid_labels(labels, seq.num_frames):
            self.fail(f"{system} classification")
            return None
        self.clips.append((start, system, elapsed,
                           seq.num_frames * seq.frame_shift_ms / 1e3))
        return labels

    def checked(self, system: str, classifier):
        """A per-frame classifier for ``evaluation.evaluate`` whose every
        call is one checked operation; a failed clip scores as all wrong."""
        def classify(seq: features.FeatureSequence) -> np.ndarray:
            labels = self.classify_clip(system, lambda: (seq, classifier(seq)))
            return np.full(seq.num_frames, -1) if labels is None else labels
        return classify

    @property
    def fa_pct(self) -> float:
        """Test-split frame accuracy pooled over the systems; every system
        scores the same frames, so the pool is the mean."""
        fas = list(self.test_split_fa.values())
        return statistics.fmean(fas) if fas else 0.0

    @property
    def query_fa_pct(self) -> float:
        return 100.0 * self.query_correct / max(self.query_frames, 1)


def synth_corpus(seed: int, clips_per_concept: int, out_dir: Path):
    config = data.SynthConfig(num_concepts=NUM_CONCEPTS,
                              clips_per_concept=clips_per_concept,
                              clip_seconds_range=CLIP_SECONDS,
                              sample_rate=SAMPLE_RATE, noise_db=NOISE_DB,
                              rng_seed=seed)
    segments = data.generate_synthetic_corpus(config, out_dir)
    return systems.prepare_corpus(segments, out_dir, seed=seed)


def timed_setups(outcome: Outcome, setup):
    """Run ``setup`` at least SETUP_REPEATS times and SETUP_MIN_S
    seconds; keep the last result."""
    while len(outcome.setup_s) < SETUP_REPEATS or sum(outcome.setup_s) < SETUP_MIN_S:
        start = time.perf_counter()
        result = setup()
        outcome.setup_s.append(time.perf_counter() - start)
    return result


def train_passes(outcome: Outcome, passes: int, train_all) -> dict:
    """Run ``train_all`` ``passes`` times; each pass's wall time is one
    train_s sample."""
    for _ in range(passes):
        start = time.perf_counter()
        classifiers = train_all()
        outcome.train_s.append(time.perf_counter() - start)
    return classifiers


def score_test_split(outcome: Outcome, corpus, classifiers: dict) -> None:
    """Frame accuracy of each system on the corpus's own test split."""
    for name, classifier in classifiers.items():
        report = evaluation.evaluate(outcome.checked(name, classifier),
                                     corpus.test, corpus.labels)
        outcome.test_split_fa[name] = report.overall_fa


def query_wav(seed: int, stream: int, index: int, num_systems: int) -> tuple[bytes, str]:
    """A distinct held-out clip as 16-bit WAV bytes, and its concept name.

    Queries go round the systems and, for each system, round the
    concepts, so every system sees every concept equally often.
    """
    spec = data.concept_table(NUM_CONCEPTS)[(index // num_systems) % NUM_CONCEPTS]
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, index]))
    duration = float(rng.uniform(*CLIP_SECONDS))
    samples = data.synthesize_clip(spec, duration, SAMPLE_RATE, NOISE_DB, rng)
    buffer = io.BytesIO()
    scipy.io.wavfile.write(buffer, SAMPLE_RATE,
                           np.round(samples * 32767.0).astype(np.int16))
    return buffer.getvalue(), spec.name


def query_loop(outcome: Outcome, seed: int, corpus, classifiers: dict,
               seconds: float) -> None:
    """Closed loop, one client: classify distinct held-out WAVs
    (WAV -> MFCC -> norm -> system -> labels), going round the systems,
    for ``seconds`` and at least MIN_OPS operations."""
    names = list(classifiers)

    def pipeline(wav: bytes, classifier):
        clip = features.load_wav(io.BytesIO(wav))
        seq = features.apply_norm(features.mfcc_sequence(clip), corpus.norm)
        return seq, classifier(seq)

    def run_op(stream: int, index: int):
        wav, concept = query_wav(seed, stream, index, len(names))
        system = names[index % len(names)]
        labels = outcome.classify_clip(system, pipeline, wav, classifiers[system])
        return labels, corpus.labels.index(concept)

    # the lazy filterbank cache and the BLAS pool start outside the timing
    for index in range(WARMUP_OPS):
        run_op(WARMUP_STREAM, index)
    outcome.clips.clear()

    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_OPS or time.perf_counter() < deadline:
        labels, concept = run_op(QUERY_STREAM, index)
        if index < MIN_OPS and labels is not None:
            outcome.query_frames += len(labels)
            outcome.query_correct += int(np.sum(labels == concept))
        index += 1


def hdnn_train(seed: int, seconds: float, workdir: Path) -> Outcome:
    """The RBM-pretrained desk cascade, 8 epochs per stage, on a 48-clip
    corpus."""
    outcome = Outcome()
    corpus = timed_setups(outcome, lambda: synth_corpus(REFERENCE_SEED, 6, workdir))

    def train_all():
        cascade = train_desk_cascade(
            outcome, corpus, REFERENCE_SEED, 8,
            rbm.PretrainConfig(minibatch=128, rng_seed=REFERENCE_SEED))
        return {} if cascade is None else {"hdnn": cascade}

    classifiers = train_passes(outcome, 1, train_all)
    if classifiers:
        score_test_split(outcome, corpus, classifiers)
        query_loop(outcome, seed, corpus, classifiers, seconds)
    return outcome


GMM_FRONT_ENDS = (("gmm_delta42", "delta42", 5),
                  ("gmm_stack5", "stacked", 5),
                  ("gmm_stack21", "stacked", 21))


# two passes of 128 clips instead of one of 256: the median of two
# passes is steadier than one pass on a shared host
GMM_CLIPS_PER_CONCEPT = 16
GMM_PASSES = 2


def gmm_train(seed: int, seconds: float, workdir: Path) -> Outcome:
    """The three GMM-UBM front-ends (64 components, 15 EM iterations) on a
    128-clip corpus, trained GMM_PASSES times."""
    outcome = Outcome()
    corpus = timed_setups(
        outcome, lambda: synth_corpus(REFERENCE_SEED, GMM_CLIPS_PER_CONCEPT, workdir))

    def train_all():
        classifiers = {}
        for name, mode, width in GMM_FRONT_ENDS:
            result = outcome.train(
                name, systems.train_gmm_system, corpus, num_components=64,
                iterations=15, seed=REFERENCE_SEED, feature_mode=mode, width=width)
            if result is not None:
                classifiers[name] = result[1]
        return classifiers

    classifiers = train_passes(outcome, GMM_PASSES, train_all)
    if len(classifiers) == len(GMM_FRONT_ENDS):
        score_test_split(outcome, corpus, classifiers)
        query_loop(outcome, seed, corpus, classifiers, seconds)
    return outcome


def classify(seed: int, seconds: float, workdir: Path) -> Outcome:
    """Closed loop over held-out WAVs, alternating the desk cascade and the
    delta42 GMM bank, both trained on the 48-clip corpus in set-up."""
    outcome = Outcome()

    def setup():
        corpus = synth_corpus(REFERENCE_SEED, 6, workdir)
        start = time.perf_counter()
        # forward cost depends only on the architecture, so the cascade
        # gets two epochs and no pretraining
        hdnn = train_desk_cascade(outcome, corpus, REFERENCE_SEED, 2, None)
        bank = outcome.train(
            "gmm", systems.train_gmm_system, corpus, num_components=64,
            iterations=5, seed=REFERENCE_SEED, feature_mode="delta42")
        outcome.train_s.append(time.perf_counter() - start)
        return corpus, hdnn, bank

    corpus, hdnn, bank = timed_setups(outcome, setup)
    if hdnn is not None and bank is not None:
        classifiers = {"hdnn": hdnn, "gmm": bank[1]}
        score_test_split(outcome, corpus, classifiers)
        query_loop(outcome, seed, corpus, classifiers, seconds)
    return outcome


WORKLOADS = {"hdnn_train": hdnn_train, "gmm_train": gmm_train, "classify": classify}


def run_workload(name: str, seed: int, seconds: float, root: Path) -> Outcome:
    """Run one workload in a scratch directory under ``root``, removed after."""
    work_parent = root / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_parent))
    try:
        return WORKLOADS[name](seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def clip_ms(clips, q: float, system: str | None = None) -> float:
    """Percentile ``q`` of the clip latencies in ms, of one system's
    clips (the system name up to its first underscore) or of all."""
    latencies = [clip[2] * 1e3 for clip in clips
                 if system is None or clip[1].split("_")[0] == system]
    return float(np.percentile(latencies, q)) if latencies else 0.0


def summarize(outcome: Outcome) -> dict[str, float]:
    """End-to-end metric values of one run: medians over the set-ups and
    training passes, latency and throughput over every timed clip."""
    busy_s = sum(clip[2] for clip in outcome.clips)
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "train_s": statistics.median(outcome.train_s) if outcome.train_s else 0.0,
        "fa_pct": outcome.fa_pct,
        "audio_x_realtime": (sum(clip[3] for clip in outcome.clips) / busy_s
                             if busy_s else 0.0),
        "clip_ms_p50": clip_ms(outcome.clips, 50),
        "clip_ms_p90": clip_ms(outcome.clips, 90),
    }
