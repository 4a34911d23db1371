#!/usr/bin/env python3
"""Compare stacked-frame GMMs at narrow and wide context widths.

Unlike the discriminative models, the generative baseline gains little
from wider stacking: frame accuracy at width 21 should land within a
couple of points of width 5.

Usage: python scripts/run_gmm_width.py [--config configs/desk_scale.yaml]
                                       [--corpus-dir corpus] [--widths 5,21]
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
    parser.add_argument("--widths", default="5,21")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cfg = load_config(args.config, [f"seed={args.seed}"])
    segments = load_annotations(Path(args.corpus_dir) / "annotations.csv",
                                check_audio=True)
    corpus = systems.prepare_corpus(segments, args.corpus_dir, seed=cfg.seed,
                                    train_fraction=cfg.train_fraction)
    for width in (int(w) for w in args.widths.split(",")):
        _, classifier = systems.train_gmm_system(
            corpus, num_components=cfg.gmm.num_components,
            iterations=cfg.gmm.iterations, seed=cfg.seed,
            feature_mode="stacked", width=width)
        report = evaluation.evaluate(classifier, corpus.test, corpus.labels)
        print(f"width {width:3d}: {report.overall_fa:6.2f}%", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
