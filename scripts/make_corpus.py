#!/usr/bin/env python3
"""Generate the desk-scale synthetic concept corpus.

Usage: python scripts/make_corpus.py [--config configs/desk_scale.yaml]
                                     [--corpus-dir corpus] [--seed 0]
"""

import argparse
import json
import sys

from hdnn_audio.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/desk_scale.yaml")
    parser.add_argument("--corpus-dir", default="corpus")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="runs/synth")
    args = parser.parse_args()
    return cli_main(["--config", args.config,
                     "--set", f"paths.corpus_dir={json.dumps(args.corpus_dir)}",
                     "--seed", str(args.seed),
                     "--out-dir", args.out_dir,
                     "synth-data"])


if __name__ == "__main__":
    sys.exit(main())
