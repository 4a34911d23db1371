import tracemalloc

import numpy as np
import pytest

from hdnn_audio.data import SynthConfig, generate_synthetic_corpus, load_annotations
from hdnn_audio.features import AudioClip, FeatureSequence


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def traced_peak_bytes():
    """``traced_peak_bytes(fn)``: the most memory allocated at once while
    ``fn()`` runs, above what was allocated before it, from
    ``tracemalloc``, which sees NumPy's array buffers too."""
    def measure(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure


@pytest.fixture
def tone_clip():
    """One second of a 440 Hz tone at 16 kHz."""
    t = np.arange(16000) / 16000.0
    return AudioClip(samples=0.5 * np.sin(2 * np.pi * 440.0 * t), sample_rate=16000)


@pytest.fixture
def small_seq(rng):
    return FeatureSequence(frames=rng.standard_normal((20, 14)))


@pytest.fixture(scope="session")
def tiny_corpus_dir(tmp_path_factory):
    """Small synthetic corpus shared by the data/CLI/system unit tests."""
    out = tmp_path_factory.mktemp("tiny_corpus")
    config = SynthConfig(clips_per_concept=3, clip_seconds_range=(0.6, 0.9),
                         rng_seed=7)
    generate_synthetic_corpus(config, out)
    return out


@pytest.fixture(scope="session")
def tiny_segments(tiny_corpus_dir):
    return load_annotations(tiny_corpus_dir / "annotations.csv")
