#!/usr/bin/env python3
"""Train the four systems on one corpus and print the accuracy ordering.

Systems, weakest to strongest:
  - GMM baselines (delta features and stacked frames; best one is reported)
  - shallow NN on 9 stacked frames
  - deep NN on 49 frames with temporal-DCT reduction and RBM pre-training
  - two-stage hierarchical network on top of the deep NN's posteriors

Usage: python scripts/run_ordering.py [--config configs/desk_scale.yaml]
                                      [--corpus-dir corpus] [--seed 0]
"""

import argparse
import sys
from pathlib import Path

from hdnn_audio import evaluation, systems
from hdnn_audio.config import load_config
from hdnn_audio.data import load_annotations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/desk_scale.yaml")
    parser.add_argument("--corpus-dir", default="corpus")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="runs/ordering")
    args = parser.parse_args()

    cfg = load_config(args.config, [f"seed={args.seed}"])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    segments = load_annotations(Path(args.corpus_dir) / "annotations.csv",
                                check_audio=True)
    corpus = systems.prepare_corpus(segments, args.corpus_dir, seed=cfg.seed,
                                    train_fraction=cfg.train_fraction)
    reports = {}

    gmm_reports = {}
    for name, mode, width in (("gmm-delta42", "delta42", 0),
                              ("gmm-stack5", "stacked", 5),
                              ("gmm-stack21", "stacked", 21)):
        _, classifier = systems.train_gmm_system(
            corpus, num_components=cfg.gmm.num_components,
            iterations=cfg.gmm.iterations, seed=cfg.seed,
            feature_mode=mode, width=width)
        gmm_reports[name] = evaluation.evaluate(classifier, corpus.test,
                                                corpus.labels)
        print(f"{name}: {gmm_reports[name].overall_fa:.2f}%", flush=True)
    best_name = max(gmm_reports, key=lambda n: gmm_reports[n].overall_fa)
    reports[f"best GMM ({best_name})"] = gmm_reports[best_name]

    _, classifier, _ = systems.train_nn_system(
        corpus, hidden_dims=[1000], width=9, schedule=cfg.nn.schedule)
    reports["NN 1x1000 x9"] = evaluation.evaluate(classifier, corpus.test,
                                                  corpus.labels)
    print(f"NN x9: {reports['NN 1x1000 x9'].overall_fa:.2f}%", flush=True)

    _, classifier, _ = systems.train_nn_system(
        corpus, hidden_dims=cfg.nn.hidden_dims, width=cfg.context.width,
        schedule=cfg.nn.schedule, dct_keep=cfg.context.dct_keep,
        pretrain=cfg.pretrain)
    reports["DNN RBM+DCT x49"] = evaluation.evaluate(classifier, corpus.test,
                                                     corpus.labels)
    print(f"DNN x49: {reports['DNN RBM+DCT x49'].overall_fa:.2f}%", flush=True)

    _, classifier = systems.train_hdnn_system(
        corpus, cfg.context,
        stage1_hidden=cfg.nn.hidden_dims, stage2_hidden=cfg.stage2.hidden_dims,
        schedule_first=cfg.nn.schedule, schedule_second=cfg.stage2.schedule,
        pretrain=cfg.pretrain, sparse=cfg.sparse)
    reports["H-DNN"] = evaluation.evaluate(classifier, corpus.test,
                                           corpus.labels)

    lines = []
    for name, report in reports.items():
        lines.append(f"== {name}: {report.overall_fa:.2f}% ==")
        lines.append(evaluation.format_report(report))
    text = "\n".join(lines)
    print(text)
    (out_dir / "ordering.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
