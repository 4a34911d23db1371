import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings, strategies as st

from hdnn_audio import data
from hdnn_audio.data import (AnnotatedSegment, SynthConfig, concept_families,
                             concept_table, generate_synthetic_corpus,
                             load_annotations, load_segment_audio,
                             split_dataset, synthesize_clip)
from hdnn_audio.errors import ConceptTooSmall, MissingAudio, ParseError


class TestAnnotations:
    def write(self, tmp_path, text):
        path = tmp_path / "annotations.csv"
        path.write_text(text)
        return path

    def test_parses_and_sorts(self, tmp_path):
        path = self.write(tmp_path,
                          "clip,start_s,end_s,label\n"
                          "b.wav,0.0,1.0,dog\n"
                          "a.wav,0.5,1.5,cat\n"
                          "a.wav,0.0,0.5,cat\n")
        segs = load_annotations(path)
        assert [s.clip_path for s in segs] == ["a.wav", "a.wav", "b.wav"]
        assert segs[0].start_s == 0.0 and segs[0].label == "cat"

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path,
                          "clip,start_s,end_s,label\n\na.wav,0,1,x\n  \n")
        assert len(load_annotations(path)) == 1

    def test_field_count_error_names_line(self, tmp_path):
        path = self.write(tmp_path, "clip,start_s,end_s,label\na.wav,0,1\n")
        with pytest.raises(ParseError, match=":2:"):
            load_annotations(path)

    def test_bad_timestamp(self, tmp_path):
        path = self.write(tmp_path, "clip,start_s,end_s,label\na.wav,x,1,y\n")
        with pytest.raises(ParseError, match="timestamp"):
            load_annotations(path)

    def test_inverted_interval(self, tmp_path):
        path = self.write(tmp_path, "clip,start_s,end_s,label\na.wav,1.0,0.5,y\n")
        with pytest.raises(ParseError):
            load_annotations(path)

    def test_empty_label(self, tmp_path):
        path = self.write(tmp_path, "clip,start_s,end_s,label\na.wav,0,1, \n")
        with pytest.raises(ParseError, match="label"):
            load_annotations(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            load_annotations(self.write(tmp_path, ""))

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "annotations.csv"
        path.write_bytes("clip,start_s,end_s,label\ncaf\xe9.wav,0,1,x\n".encode("latin-1"))
        with pytest.raises(ParseError, match="annotations.csv: not UTF-8 text"):
            load_annotations(path)

    def test_missing_audio_check(self, tmp_path):
        path = self.write(tmp_path, "clip,start_s,end_s,label\nghost.wav,0,1,x\n")
        with pytest.raises(MissingAudio, match="ghost.wav"):
            load_annotations(path, check_audio=True)

    def test_check_audio_passes_when_present(self, tiny_corpus_dir):
        segs = load_annotations(tiny_corpus_dir / "annotations.csv",
                                check_audio=True)
        assert len(segs) == 24  # 8 concepts x 3 clips


class TestSplit:
    def make_segments(self, per_label):
        segs = []
        for label, n in per_label.items():
            for i in range(n):
                segs.append(AnnotatedSegment(f"{label}_{i}.wav", 0.0, 1.0, label))
        return segs

    def test_disjoint_and_exhaustive(self):
        segs = self.make_segments({"a": 10, "b": 10})
        train, test = split_dataset(segs, 0.8, seed=3)
        assert len(train) + len(test) == 20
        ids = {id(s) for s in segs}
        assert {id(s) for s in train} | {id(s) for s in test} == ids
        assert {id(s) for s in train} & {id(s) for s in test} == set()

    def test_stratified(self):
        segs = self.make_segments({"a": 10, "b": 5})
        train, test = split_dataset(segs, 0.8, seed=0)
        assert sum(s.label == "a" for s in train) == 8
        assert sum(s.label == "b" for s in train) == 4

    def test_every_label_in_both_splits(self):
        segs = self.make_segments({"a": 2, "b": 2})
        for frac in (0.01, 0.99):
            train, test = split_dataset(segs, frac, seed=0)
            for part in (train, test):
                assert {s.label for s in part} == {"a", "b"}

    def test_too_small_concept(self):
        with pytest.raises(ConceptTooSmall):
            split_dataset(self.make_segments({"a": 1, "b": 5}), 0.8)

    def test_seeded_determinism(self):
        segs = self.make_segments({"a": 9, "b": 7})
        a = split_dataset(segs, 0.75, seed=11)
        b = split_dataset(segs, 0.75, seed=11)
        assert [s.clip_path for s in a[0]] == [s.clip_path for s in b[0]]

    def test_a_clip_falls_on_one_side(self):
        # 6 clips of 4 one-concept segments each; a segment-level split
        # put segments of 4 of the 6 clips on both sides at seed 0
        segs = [AnnotatedSegment(f"c{i}.wav", float(k), k + 1.0, "a")
                for i in range(6) for k in range(4)]
        train, test = split_dataset(segs, 0.5, seed=0)
        assert len(train) == len(test) == 12
        assert {s.clip_path for s in train}.isdisjoint({s.clip_path for s in test})

    @pytest.mark.parametrize("seed", range(5))
    def test_a_two_concept_clip_falls_on_one_side(self, seed):
        # a split per concept put 2, 2, 4, 2 and 4 of these clips on both
        # sides at seeds 0-4
        segs = [AnnotatedSegment(f"c{i}.wav", float(k), k + 1.0, label)
                for i in range(4) for k, label in enumerate("ab")]
        train, test = split_dataset(segs, 0.5, seed)
        assert len(train) == len(test) == 4
        assert {s.clip_path for s in train}.isdisjoint({s.clip_path for s in test})

    def test_a_concept_in_no_training_clip(self):
        # b is in one clip only, and never a clip's first concept
        segs = [AnnotatedSegment("c0.wav", 0.0, 1.0, "a"),
                AnnotatedSegment("c0.wav", 1.0, 2.0, "b"),
                AnnotatedSegment("c1.wav", 0.0, 1.0, "a")]
        raised = 0
        for seed in range(6):
            try:
                train, _ = split_dataset(segs, 0.5, seed)
            except ConceptTooSmall as exc:
                assert "['b']" in str(exc)
                raised += 1
            else:
                assert "b" in {s.label for s in train}
        assert 0 < raised < 6

    def test_a_concept_needs_two_clips(self):
        segs = [AnnotatedSegment("one.wav", float(k), k + 1.0, "a") for k in range(5)]
        segs += self.make_segments({"b": 3})
        with pytest.raises(ConceptTooSmall, match="1 clip"):
            split_dataset(segs, 0.8)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_one_segment_per_clip_splits_as_by_segment(self, tiny_segments, seed):
        # the split by segments that the split by clips replaced: with one
        # segment per clip, both make the same permutation calls
        by_label = {}
        for seg in tiny_segments:
            by_label.setdefault(seg.label, []).append(seg)
        rng = np.random.default_rng(seed)
        want_train, want_test = [], []
        for label in sorted(by_label):
            group = by_label[label]
            order = rng.permutation(len(group))
            n_train = min(max(int(round(0.8 * len(group))), 1), len(group) - 1)
            for i, j in enumerate(order):
                (want_train if i < n_train else want_test).append(group[j])
        train, test = split_dataset(tiny_segments, 0.8, seed)
        assert train == want_train and test == want_test

    @given(n=st.integers(2, 30), frac=st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_split_sizes_always_valid(self, n, frac):
        segs = self.make_segments({"a": n})
        train, test = split_dataset(segs, frac, seed=0)
        assert 1 <= len(train) <= n - 1
        assert len(train) + len(test) == n


class TestConceptTable:
    def test_base_inventory(self):
        table = concept_table(8)
        assert len(table) == 8
        assert len({spec.name for spec in table}) == 8
        assert {spec.family for spec in table} == {"a", "b", "c", "d"}

    def test_confusable_pairs_share_kind(self):
        by_name = {s.name: s for s in concept_table(8)}
        assert by_name["am_fast"].params["kind"] == by_name["am_slow"].params["kind"]
        assert by_name["am_fast"].params["period_s"] \
            != by_name["am_slow"].params["period_s"]

    def test_fewer_concepts_are_a_prefix(self):
        full = concept_table(data.MAX_CONCEPTS)
        assert len(full) == data.MAX_CONCEPTS
        for n in range(2, data.MAX_CONCEPTS + 1):
            assert concept_table(n) == full[:n]

    def test_families_map(self):
        fam = concept_families(8)
        assert fam["band_low"] == "a"
        assert fam["clap_steady"] == "c"
        assert fam["knock_double"] == "d"


class TestSynthesis:
    def test_clip_in_range_and_finite(self, rng):
        for spec in concept_table(8):
            sig = synthesize_clip(spec, 0.5, 16000, -30.0, rng)
            assert sig.shape == (8000,)
            assert np.all(np.isfinite(sig))
            assert np.abs(sig).max() <= 1.0
            assert np.abs(sig).max() > 1e-4  # not silence

    @staticmethod
    def bands():
        """Every band the concept inventory band-passes, and one outside it."""
        params = [spec.params for spec in concept_table(8)]
        return ([(p["low_hz"], p["high_hz"]) for p in params if "low_hz" in p]
                + [p["marker_hz"] for p in params if "marker_hz" in p]
                + [(300.0, 1200.0)])

    def test_bandpass_response_matches_butter(self):
        for low, high in self.bands():
            sos = scipy.signal.butter(4, [low, high], btype="bandpass", fs=16000,
                                      output="sos")
            for m in (8192, 40960):
                response = data._bandpass_response(low, high, 16000, m)
                _, expected = scipy.signal.sosfreqz(
                    sos, worN=2 * np.pi * np.arange(m // 2 + 1) / m)
                np.testing.assert_allclose(response, expected, rtol=0, atol=1e-12)
                # one read-only array per band and length
                assert data._bandpass_response(low, high, 16000, m) is response
                assert not response.flags.writeable

    def test_band_noise_matches_sosfilt(self):
        for low, high in self.bands():
            sos = scipy.signal.butter(4, [low, high], btype="bandpass", fs=16000,
                                      output="sos")
            # the last length is the shortest padding the FFT grid allows
            for n in (8000, 19200, 32000,
                      3 * data.FFT_GRID - data._decay_samples(low, high, 16000)):
                noise = data._synth_band_noise(np.random.default_rng(n), n, 16000,
                                               low, high)
                filtered = scipy.signal.sosfilt(
                    sos, np.random.default_rng(n).standard_normal(n))
                expected = 0.25 * filtered / np.sqrt(np.mean(filtered ** 2))
                assert np.abs(noise - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_corpus_wav_bytes_pinned(self, tmp_path):
        # the WAVs of the sosfilt-based generator this one replaced; a
        # float-level change that reaches a quantised sample shows here
        segments = generate_synthetic_corpus(SynthConfig(clips_per_concept=2,
                                                         rng_seed=0), tmp_path)
        digest = hashlib.sha256()
        for seg in segments:
            digest.update((tmp_path / seg.clip_path).read_bytes())
        assert len(segments) == 16
        assert digest.hexdigest() == (
            "85df4c4fc68cd4d9b1dd96833190a8048de031fec17b229b31933402ea6dd539")

    def test_package_import_leaves_out_scipy_signal(self):
        code = ("import sys\n"
                "import hdnn_audio.cli, hdnn_audio.data, hdnn_audio.features, "
                "hdnn_audio.systems\n"
                "print('scipy.signal' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(data.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(num_concepts=1)
        with pytest.raises(ValueError, match=r"\[2, 8\]"):
            SynthConfig(num_concepts=9)
        with pytest.raises(ValueError):
            SynthConfig(clip_seconds_range=(2.0, 1.0))
        assert max(map(max, self.bands()[:-1])) == data.MAX_BAND_EDGE_HZ
        with pytest.raises(ValueError, match="above 6800 Hz.*got 6800"):
            SynthConfig(sample_rate=6800)
        SynthConfig(sample_rate=6801)

    def test_corpus_layout(self, tiny_corpus_dir, tiny_segments):
        assert len(tiny_segments) == 24
        # the annotation CSV and one WAV per segment, and nothing else
        assert sorted(path.name for path in tiny_corpus_dir.iterdir()) == sorted(
            ["annotations.csv"] + [seg.clip_path for seg in tiny_segments])

    def test_segment_audio_loads(self, tiny_corpus_dir, tiny_segments):
        clip = load_segment_audio(tiny_segments[0], tiny_corpus_dir)
        assert clip.sample_rate == 16000
        assert len(clip.samples) > 0

    def test_bitwise_deterministic(self, tmp_path):
        config = SynthConfig(clips_per_concept=2, clip_seconds_range=(0.5, 0.6),
                             rng_seed=3)
        generate_synthetic_corpus(config, tmp_path / "one")
        generate_synthetic_corpus(config, tmp_path / "two")
        for wav in sorted((tmp_path / "one").glob("*.wav")):
            assert wav.read_bytes() == (tmp_path / "two" / wav.name).read_bytes()
        assert (tmp_path / "one" / "annotations.csv").read_text() \
            == (tmp_path / "two" / "annotations.csv").read_text()

    def test_seed_changes_audio(self, tmp_path):
        a = SynthConfig(clips_per_concept=2, clip_seconds_range=(0.5, 0.6),
                        rng_seed=3)
        b = SynthConfig(clips_per_concept=2, clip_seconds_range=(0.5, 0.6),
                        rng_seed=4)
        generate_synthetic_corpus(a, tmp_path / "one")
        generate_synthetic_corpus(b, tmp_path / "two")
        names = sorted(p.name for p in (tmp_path / "one").glob("*.wav"))
        assert any((tmp_path / "one" / n).read_bytes()
                   != (tmp_path / "two" / n).read_bytes()
                   for n in names if (tmp_path / "two" / n).exists())
