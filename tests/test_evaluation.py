import csv

import numpy as np
import pytest

from hdnn_audio.cli import main
from hdnn_audio.errors import EmptyInput, LengthMismatch
from hdnn_audio.evaluation import (EvalReport, evaluate, format_report,
                                   frame_accuracy, relative_error_reduction,
                                   write_report_csv)
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

    @pytest.mark.parametrize("predict", [
        lambda seq: np.zeros(seq.num_frames - 1, dtype=int),
        lambda seq: np.zeros((seq.num_frames, 2)),
        lambda seq: np.zeros((seq.num_frames, 1), dtype=int),
    ], ids=["short", "scores", "column"])
    def test_wrong_length_prediction_raises(self, rng, predict):
        with pytest.raises(LengthMismatch):
            evaluate(predict, make_test_set(rng), ["x", "y"])

    def test_empty_test_set(self):
        with pytest.raises(EmptyInput):
            evaluate(lambda seq: np.zeros(0), [], ["x"])


class TestSweeps:
    def test_context_sweep_rejects_even_width(self, tmp_path, capsys):
        # every width is checked before the first network is trained
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(out_dir), "sweep-context", "--widths", "1,2"])
        assert exc.value.code == 2
        assert "odd" in capsys.readouterr().err
        assert not (out_dir / "sweep.csv").exists()


class TestRelativeErrorReduction:
    def test_desk_reference_numbers(self):
        # the H-DNN at 82.3 % over GMM 69.8, NN 73.9 and DNN 80.1 %
        reductions = [relative_error_reduction(base, 82.3)
                      for base in (69.8, 73.9, 80.1)]
        assert reductions == pytest.approx([41.4, 32.2, 11.1], abs=0.05)

    def test_no_gain_and_perfect_baseline(self):
        assert relative_error_reduction(70.0, 70.0) == 0.0
        assert relative_error_reduction(70.0, 100.0) == 100.0
        assert np.isnan(relative_error_reduction(100.0, 90.0))


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
