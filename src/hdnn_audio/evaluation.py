"""Frame-accuracy metric, per-concept reports and CSV tables."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyInput, LengthMismatch
from .features import FeatureSequence


@dataclass
class EvalReport:
    overall_fa: float
    per_concept_fa: dict[str, float]
    frame_counts: dict[str, int]
    config_fingerprint: str = ""


def frame_accuracy(predicted, truth) -> float:
    """Percentage of frames whose predicted label matches ground truth."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise LengthMismatch(
            f"prediction length {predicted.shape} != truth length {truth.shape}")
    if predicted.size == 0:
        raise EmptyInput("cannot score an empty label sequence")
    return float(100.0 * np.mean(predicted == truth))


def relative_error_reduction(base_fa: float, fa: float) -> float:
    """Frame-error reduction (%) of accuracy ``fa`` relative to accuracy
    ``base_fa``, an error being 100 - F.A.; NaN when ``base_fa`` is 100."""
    base_err = 100.0 - base_fa
    if base_err == 0:
        return float("nan")
    return 100.0 * (base_err - (100.0 - fa)) / base_err


def evaluate(system: Callable[[FeatureSequence], np.ndarray],
             test_set: list[tuple[FeatureSequence, int]],
             labels: list[str],
             config_fingerprint: str = "") -> EvalReport:
    """Run a per-frame classifier over a labeled clip set.

    ``test_set`` holds (sequence, concept index) pairs; every frame of a
    clip carries the clip's concept label. ``system`` must return one
    label per frame; any other shape raises LengthMismatch.
    """
    correct = {label: 0 for label in labels}
    total = {label: 0 for label in labels}
    for seq, concept in test_set:
        pred = np.asarray(system(seq))
        if pred.shape != (seq.num_frames,):
            raise LengthMismatch(f"prediction shape {pred.shape} != "
                                 f"({seq.num_frames},) frames of the clip")
        label = labels[concept]
        correct[label] += int(np.sum(pred == concept))
        total[label] += seq.num_frames
    overall_num = sum(correct.values())
    overall_den = sum(total.values())
    if overall_den == 0:
        raise EmptyInput("test set has no frames")
    per_concept = {label: (100.0 * correct[label] / total[label]
                           if total[label] else 0.0)
                   for label in labels}
    return EvalReport(overall_fa=100.0 * overall_num / overall_den,
                      per_concept_fa=per_concept,
                      frame_counts=dict(total),
                      config_fingerprint=config_fingerprint)


def format_report(report: EvalReport) -> str:
    """Pretty text table: overall plus per-concept frame accuracy."""
    lines = [f"overall F.A.: {report.overall_fa:.2f}%"]
    if report.config_fingerprint:
        lines.append(f"config fingerprint: {report.config_fingerprint}")
    width = max((len(label) for label in report.per_concept_fa), default=7)
    lines.append(f"{'concept'.ljust(width)}  frames    F.A.%")
    for label, fa in report.per_concept_fa.items():
        lines.append(f"{label.ljust(width)}  {report.frame_counts[label]:6d}  {fa:7.2f}")
    return "\n".join(lines)


def write_csv(path, header: list[str], rows) -> None:
    """One CSV table: the header row, then ``rows``."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_report_csv(report: EvalReport, path) -> None:
    rows = [[label, report.frame_counts[label], fa]
            for label, fa in report.per_concept_fa.items()]
    rows.append(["OVERALL", sum(report.frame_counts.values()), report.overall_fa])
    write_csv(path, ["concept", "frames", "frame_accuracy"], rows)
