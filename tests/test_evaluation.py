import csv

import numpy as np
import pytest

from hdnn_audio.errors import EmptyInput, LengthMismatch
from hdnn_audio.evaluation import (EvalReport, architecture_grid,
                                   context_sweep, evaluate, format_report,
                                   frame_accuracy, write_report_csv)
from hdnn_audio.features import FeatureSequence


def make_test_set(rng, labels=("x", "y"), clips_per=2, t=10, d=3):
    out = []
    for c in range(len(labels)):
        for _ in range(clips_per):
            seq = FeatureSequence(frames=rng.standard_normal((t, d)))
            out.append((seq, c))
    return out


class TestFrameAccuracy:
    def test_basic(self):
        assert frame_accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 75.0

    def test_perfect_and_zero(self):
        assert frame_accuracy([1, 1], [1, 1]) == 100.0
        assert frame_accuracy([0, 0], [1, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            frame_accuracy([0, 1], [0, 1, 2])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            frame_accuracy([], [])


class TestEvaluate:
    def test_oracle_system_scores_100(self, rng):
        test_set = make_test_set(rng)
        by_id = {id(seq): c for seq, c in test_set}

        def oracle(seq):
            return np.full(seq.num_frames, by_id[id(seq)])

        report = evaluate(oracle, test_set, ["x", "y"], "fp123")
        assert report.overall_fa == 100.0
        assert report.per_concept_fa == {"x": 100.0, "y": 100.0}
        assert report.frame_counts == {"x": 20, "y": 20}
        assert report.config_fingerprint == "fp123"

    def test_constant_system(self, rng):
        test_set = make_test_set(rng)
        report = evaluate(lambda seq: np.zeros(seq.num_frames, dtype=int),
                          test_set, ["x", "y"])
        assert report.overall_fa == 50.0
        assert report.per_concept_fa == {"x": 100.0, "y": 0.0}

    def test_empty_test_set(self):
        with pytest.raises(EmptyInput):
            evaluate(lambda seq: np.zeros(0), [], ["x"])


class TestSweeps:
    def test_context_sweep_rows_and_csv(self, rng, tmp_path):
        test_set = make_test_set(rng)

        def factory(width):
            return lambda seq: np.zeros(seq.num_frames, dtype=int)

        csv_path = tmp_path / "sweep.csv"
        rows = context_sweep([1, 3], factory, test_set, ["x", "y"], csv_path)
        assert rows == [(1, 50.0), (3, 50.0)]
        with open(csv_path) as f:
            parsed = list(csv.reader(f))
        assert parsed[0] == ["width", "frame_accuracy"]
        assert len(parsed) == 3

    def test_context_sweep_rejects_even_width(self, rng):
        with pytest.raises(ValueError):
            context_sweep([2], lambda w: None, make_test_set(rng), ["x", "y"])

    def test_architecture_grid(self, tmp_path):
        calls = []

        def runner(depth, width, pretrain):
            calls.append((depth, width, pretrain))
            return float(depth * width + pretrain)

        rows = architecture_grid([1, 2], [10], [False, True], runner,
                                 tmp_path / "grid.csv")
        assert len(rows) == 4
        assert (2, 10, True, 21.0) in rows
        with open(tmp_path / "grid.csv") as f:
            parsed = list(csv.reader(f))
        assert parsed[0] == ["depth", "neurons", "pretrain", "frame_accuracy"]
        assert parsed[1][2] in ("RBM", "RND")


class TestReports:
    def report(self):
        return EvalReport(overall_fa=75.5,
                          per_concept_fa={"ding": 100.0, "thud": 51.0},
                          frame_counts={"ding": 40, "thud": 40},
                          config_fingerprint="abc123")

    def test_format_contains_rows(self):
        text = format_report(self.report())
        assert "75.50%" in text
        assert "ding" in text and "thud" in text
        assert "abc123" in text

    def test_csv_has_overall_row(self, tmp_path):
        write_report_csv(self.report(), tmp_path / "r.csv")
        with open(tmp_path / "r.csv") as f:
            rows = list(csv.reader(f))
        assert rows[-1][0] == "OVERALL"
        assert float(rows[-1][2]) == 75.5
