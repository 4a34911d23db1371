#!/usr/bin/env python3
"""Sweep the input context width for a shallow 1x1000 network.

Reproduces the "wider context helps the discriminative model" trend:
frame accuracy should rise steadily from width 1 to width 33.

Usage: python scripts/run_context_sweep.py [--config configs/desk_scale.yaml]
                                           [--corpus-dir corpus]
                                           [--widths 1,9,17,25,33]
"""

import argparse
import json
import sys

from hdnn_audio.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/desk_scale.yaml")
    parser.add_argument("--corpus-dir", default="corpus")
    parser.add_argument("--widths", default="1,9,17,25,33")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="runs/context_sweep")
    args = parser.parse_args()
    return cli_main(["--config", args.config,
                     "--set", f"paths.corpus_dir={json.dumps(args.corpus_dir)}",
                     "--set", "nn.hidden_dims=[1000]",
                     "--seed", str(args.seed),
                     "--out-dir", args.out_dir,
                     "sweep-context", "--widths", args.widths])


if __name__ == "__main__":
    sys.exit(main())
