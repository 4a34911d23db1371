"""Corpus handling: annotation CSV ingest, stratified splitting, and the
synthetic-concept generator used for desk-scale experiments.

The generator emits four concept families:
  a) stationary band-limited noise (separable without temporal context),
  b) amplitude-modulated tones with short periods (need a context window),
  c) long-period pulse trains, e.g. synthetic clapping (need the sparse
     posterior context of the cascade),
  d) confusable pairs differing only in modulation period.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io.wavfile
import scipy.signal

from .errors import ConceptTooSmall, MissingAudio, ParseError
from .features import AudioClip, load_wav


@dataclass
class AnnotatedSegment:
    clip_path: str
    start_s: float
    end_s: float
    label: str


MAX_CONCEPTS = 8  # the entries of concept_table's inventory


@dataclass
class SynthConfig:
    num_concepts: int = MAX_CONCEPTS
    clips_per_concept: int = 26
    clip_seconds_range: tuple[float, float] = (1.2, 2.0)
    sample_rate: int = 16000
    noise_db: float = -30.0
    rng_seed: int = 0

    def __post_init__(self):
        if not 2 <= self.num_concepts <= MAX_CONCEPTS:
            raise ValueError(f"num_concepts must lie in [2, {MAX_CONCEPTS}], "
                             f"got {self.num_concepts}")
        lo, hi = self.clip_seconds_range
        if lo > hi or lo <= 0:
            raise ValueError("invalid clip duration range")


def load_annotations(csv_path, check_audio: bool = False) -> list[AnnotatedSegment]:
    """Parse an annotation CSV (clip,start_s,end_s,label; header row).

    Malformed rows raise ParseError naming the line. With
    ``check_audio``, clips missing on disk (relative to the CSV) raise
    MissingAudio listing every absent file.
    """
    csv_path = Path(csv_path)
    segments = []
    with open(csv_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{csv_path}: empty file")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise ParseError(f"{csv_path}:{lineno}: expected 4 fields, got {len(row)}")
            clip, start_raw, end_raw, label = [cell.strip() for cell in row]
            try:
                start, end = float(start_raw), float(end_raw)
            except ValueError as exc:
                raise ParseError(f"{csv_path}:{lineno}: bad timestamp: {exc}") from exc
            if start < 0 or end <= start:
                raise ParseError(
                    f"{csv_path}:{lineno}: need 0 <= start < end, got {start}..{end}")
            if not label:
                raise ParseError(f"{csv_path}:{lineno}: empty label")
            segments.append(AnnotatedSegment(clip_path=clip, start_s=start,
                                             end_s=end, label=label))
    segments.sort(key=lambda s: (s.clip_path, s.start_s))
    if check_audio:
        missing = [s.clip_path for s in segments
                   if not (csv_path.parent / s.clip_path).exists()]
        if missing:
            raise MissingAudio(f"missing audio files: {sorted(set(missing))}")
    return segments


def split_dataset(segments: list[AnnotatedSegment], train_fraction: float = 0.8,
                  seed: int = 0) -> tuple[list[AnnotatedSegment], list[AnnotatedSegment]]:
    """Seeded split of whole clips, stratified by each clip's first
    concept; disjoint and exhaustive.

    A clip's first concept is the label of its first segment in
    ``segments``. The clips of each first concept, in order of first
    appearance, are permuted and split, and all of a clip's segments go
    to one side, so no audio file feeds both. ConceptTooSmall if a concept
    is the first concept of one clip only, or in no training clip.
    """
    clips: dict[str, list[AnnotatedSegment]] = {}
    for seg in segments:
        clips.setdefault(seg.clip_path, []).append(seg)
    by_label: dict[str, list[list[AnnotatedSegment]]] = {}
    for clip in clips.values():
        by_label.setdefault(clip[0].label, []).append(clip)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label in sorted(by_label):
        group = by_label[label]
        if len(group) < 2:
            raise ConceptTooSmall(f"concept {label!r} is the first concept of "
                                  f"{len(group)} clip(s), need >= 2")
        order = rng.permutation(len(group))
        n_train = int(round(train_fraction * len(group)))
        n_train = min(max(n_train, 1), len(group) - 1)
        for i, j in enumerate(order):
            (train if i < n_train else test).extend(group[j])
    untrained = sorted({seg.label for seg in segments} - {seg.label for seg in train})
    if untrained:
        raise ConceptTooSmall(f"concepts {untrained} are in no training clip")
    return train, test


def load_segment_audio(segment: AnnotatedSegment, root) -> AudioClip:
    """Load and trim one annotated segment to a standalone clip."""
    clip = load_wav(Path(root) / segment.clip_path)
    lo = int(round(segment.start_s * clip.sample_rate))
    hi = int(round(segment.end_s * clip.sample_rate))
    return AudioClip(samples=clip.samples[lo:hi], sample_rate=clip.sample_rate)


# --- synthetic corpus ---

@dataclass
class ConceptSpec:
    name: str
    family: str  # a / b / c / d
    params: dict


def concept_table(num_concepts: int) -> list[ConceptSpec]:
    """The first ``num_concepts`` (at most MAX_CONCEPTS) entries of the
    concept inventory, which covers all four families."""
    # the pulse pairs share one average burst rate: a regular train vs a
    # doublet pattern of twice the period. Short windows then see identical
    # statistics and only long-range context can tell them apart.
    return [
        ConceptSpec("band_low", "a", {"kind": "band_noise", "low_hz": 400, "high_hz": 900}),
        ConceptSpec("band_high", "a", {"kind": "band_noise", "low_hz": 2200, "high_hz": 3200}),
        ConceptSpec("am_fast", "b", {"kind": "am_tone", "carrier_hz": 1000, "period_s": 0.05}),
        ConceptSpec("am_slow", "d", {"kind": "am_tone", "carrier_hz": 1000, "period_s": 0.09}),
        ConceptSpec("clap_steady", "c", {"kind": "pulse_train", "period_s": 0.35,
                                         "burst": "noise", "marker_hz": (2600, 3400)}),
        ConceptSpec("clap_double", "d", {"kind": "pulse_train", "period_s": 0.70,
                                         "burst": "noise", "doublet_gap_s": 0.30,
                                         "marker_hz": (2600, 3400)}),
        ConceptSpec("knock_steady", "c", {"kind": "pulse_train", "period_s": 0.45,
                                          "burst": "tone", "marker_hz": (350, 700)}),
        ConceptSpec("knock_double", "d", {"kind": "pulse_train", "period_s": 0.90,
                                          "burst": "tone", "doublet_gap_s": 0.35,
                                          "marker_hz": (350, 700)}),
    ][:num_concepts]


@functools.cache
def _bandpass_sos(low_hz, high_hz, sr) -> np.ndarray:
    """Read-only 4th-order Butterworth band-pass design, built once per band."""
    sos = scipy.signal.butter(4, [low_hz, high_hz], btype="bandpass",
                              fs=sr, output="sos")
    sos.flags.writeable = False
    return sos


def _synth_band_noise(rng, n, sr, low_hz, high_hz):
    # sosfilt rejects a read-only design, so it filters with a copy
    sig = scipy.signal.sosfilt(_bandpass_sos(low_hz, high_hz, sr).copy(),
                               rng.standard_normal(n))
    return 0.25 * sig / max(np.sqrt(np.mean(sig ** 2)), 1e-12)


def _synth_am_tone(rng, n, sr, carrier_hz, period_s):
    t = np.arange(n) / sr
    carrier_phase = rng.uniform(0, 2 * np.pi)
    # per-clip modulation depth jitter keeps envelope-slope magnitude from
    # identifying the period on its own; deep modulation keeps the envelope
    # cue dominant over channel tilt
    depth = rng.uniform(0.85, 0.95)
    # pseudo-periodic envelope: each cycle's duration jitters +/-8%, so
    # the envelope phase drifts and fixed-phase templates do not tile it
    phase = np.empty(n)
    pos, cur = 0, rng.uniform(0, 2 * np.pi)
    while pos < n:
        steps = max(int(round(period_s * rng.uniform(0.92, 1.08) * sr)), 1)
        end = min(pos + steps, n)
        phase[pos:end] = cur + 2 * np.pi * np.arange(end - pos) / steps
        cur += 2 * np.pi * (end - pos) / steps
        pos = end
    envelope = 1.0 - depth + depth * np.sin(phase)
    return 0.30 * envelope * np.sin(2 * np.pi * carrier_hz * t + carrier_phase)


def _synth_pulse_train(rng, n, sr, period_s, marker_hz, burst="noise",
                       doublet_gap_s=None, burst_s=0.03, jitter=0.08):
    # bursts are locally identical across concepts: only inter-burst timing
    # carries the concept, which needs long-range context to classify. The
    # continuous marker band identifies the pair (clap vs knock) from a
    # single frame, so context only helps with the timing pattern.
    # band noise comes back RMS-normalized to 0.25
    sig = 0.20 * _synth_band_noise(rng, n, sr, marker_hz[0], marker_hz[1])
    burst_len = int(round(burst_s * sr))
    window = np.hanning(burst_len)
    tone = np.sin(2 * np.pi * 1800.0 * np.arange(burst_len) / sr)

    def add_burst(start):
        if start >= n:
            return
        end = min(start + burst_len, n)
        if burst == "tone":
            sig[start:end] += 0.5 * window[:end - start] * tone[:end - start]
        else:
            sig[start:end] += 0.5 * window[:end - start] * rng.standard_normal(end - start)

    start = int(rng.uniform(0, period_s) * sr)
    while start < n:
        add_burst(start)
        if doublet_gap_s is not None:
            gap = doublet_gap_s * rng.uniform(1 - jitter, 1 + jitter)
            add_burst(start + int(round(gap * sr)))
        start += max(int(round(period_s * rng.uniform(1 - jitter, 1 + jitter) * sr)),
                     burst_len)
    return sig


_SYNTHESIZERS = {
    "band_noise": _synth_band_noise,
    "am_tone": _synth_am_tone,
    "pulse_train": _synth_pulse_train,
}


def synthesize_clip(spec: ConceptSpec, duration_s: float, sample_rate: int,
                    noise_db: float, rng: np.random.Generator) -> np.ndarray:
    n = int(round(duration_s * sample_rate))
    params = {k: v for k, v in spec.params.items() if k != "kind"}
    sig = _SYNTHESIZERS[spec.params["kind"]](rng, n, sample_rate, **params)
    # per-clip channel simulation: a random spectral tilt (one-zero filter,
    # roughly +/-7 dB across the band) plus gain jitter (+/-4 dB), so
    # absolute level and fixed spectral shape are not reliable cues
    tilt = rng.uniform(-0.4, 0.4)
    sig = np.append(sig[0], sig[1:] - tilt * sig[:-1])
    sig = sig * 10.0 ** (rng.uniform(-4.0, 4.0) / 20.0)
    noise_amp = 10.0 ** (noise_db / 20.0)
    sig = sig + noise_amp * rng.standard_normal(n)
    return np.clip(sig, -1.0, 1.0)


def generate_synthetic_corpus(config: SynthConfig, out_dir) -> list[AnnotatedSegment]:
    """Write WAV clips, an annotation CSV, and a JSONL manifest.

    Bitwise deterministic for a given config (per-clip child seeds from
    the config seed).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = concept_table(config.num_concepts)
    seeds = np.random.SeedSequence(config.rng_seed).spawn(
        config.num_concepts * config.clips_per_concept)
    segments = []
    manifest_rows = []
    lo, hi = config.clip_seconds_range
    for ci, spec in enumerate(table):
        for k in range(config.clips_per_concept):
            seed = seeds[ci * config.clips_per_concept + k]
            rng = np.random.default_rng(seed)
            duration = float(rng.uniform(lo, hi))
            sig = synthesize_clip(spec, duration, config.sample_rate,
                                  config.noise_db, rng)
            name = f"{spec.name}_{k:03d}.wav"
            pcm = np.round(sig * 32767.0).astype(np.int16)
            scipy.io.wavfile.write(out_dir / name, config.sample_rate, pcm)
            actual_duration = len(pcm) / config.sample_rate
            segments.append(AnnotatedSegment(clip_path=name, start_s=0.0,
                                             end_s=actual_duration, label=spec.name))
            manifest_rows.append({"path": name, "label": spec.name,
                                  "family": spec.family,
                                  "duration_s": actual_duration,
                                  "params": spec.params})
    with open(out_dir / "annotations.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["clip", "start_s", "end_s", "label"])
        for seg in segments:
            writer.writerow([seg.clip_path, seg.start_s, seg.end_s, seg.label])
    with open(out_dir / "manifest.jsonl", "w") as f:
        for row in manifest_rows:
            f.write(json.dumps(row) + "\n")
    return segments


def concept_families(num_concepts: int) -> dict[str, str]:
    """Concept name -> family letter, for per-family reporting."""
    return {spec.name: spec.family for spec in concept_table(num_concepts)}
