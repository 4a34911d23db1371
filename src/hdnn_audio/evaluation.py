"""Frame-accuracy metric, per-concept reports, and the sweep drivers
(context-window sweep, architecture grid)."""

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


def evaluate(system: Callable[[FeatureSequence], np.ndarray],
             test_set: list[tuple[FeatureSequence, int]],
             labels: list[str],
             config_fingerprint: str = "") -> EvalReport:
    """Run a per-frame classifier over a labeled clip set.

    ``test_set`` holds (sequence, concept index) pairs; every frame of a
    clip carries the clip's concept label.
    """
    correct = {label: 0 for label in labels}
    total = {label: 0 for label in labels}
    for seq, concept in test_set:
        pred = np.asarray(system(seq))
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


def context_sweep(widths: list[int],
                  system_factory: Callable[[int], Callable[[FeatureSequence], np.ndarray]],
                  test_set: list[tuple[FeatureSequence, int]],
                  labels: list[str],
                  csv_path=None) -> list[tuple[int, float]]:
    """Train/evaluate one system per context width.

    ``system_factory(width)`` must return a trained per-frame classifier
    closure for that width (sharing seeds across widths is the caller's
    responsibility).
    """
    rows = []
    for width in widths:
        if width % 2 == 0:
            raise ValueError(f"context widths must be odd, got {width}")
        system = system_factory(width)
        report = evaluate(system, test_set, labels)
        rows.append((width, report.overall_fa))
    if csv_path is not None:
        with open(csv_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["width", "frame_accuracy"])
            writer.writerows(rows)
    return rows


def architecture_grid(depths: list[int], layer_widths: list[int],
                      pretrain_options: list[bool],
                      cell_runner: Callable[[int, int, bool], float],
                      csv_path=None) -> list[tuple[int, int, bool, float]]:
    """Evaluate every (depth, width, pretrain) cell with a caller-supplied
    runner returning the cell's frame accuracy."""
    rows = []
    for depth in depths:
        for width in layer_widths:
            for pretrain in pretrain_options:
                fa = cell_runner(depth, width, pretrain)
                rows.append((depth, width, pretrain, fa))
    if csv_path is not None:
        with open(csv_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["depth", "neurons", "pretrain", "frame_accuracy"])
            for depth, width, pretrain, fa in rows:
                writer.writerow([depth, width, "RBM" if pretrain else "RND", fa])
    return rows


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


def write_report_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["concept", "frames", "frame_accuracy"])
        for label, fa in report.per_concept_fa.items():
            writer.writerow([label, report.frame_counts[label], fa])
        writer.writerow(["OVERALL", sum(report.frame_counts.values()),
                         report.overall_fa])
