#!/usr/bin/env python3
"""Grid over network depth, layer width, and RBM pre-training on/off.

Usage: python scripts/run_arch_grid.py [--config configs/desk_scale.yaml]
                                       [--corpus-dir corpus]
                                       [--depths 1,2,3] [--neurons 256,512]
"""

import argparse
import json
import sys

from hdnn_audio.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/desk_scale.yaml")
    parser.add_argument("--corpus-dir", default="corpus")
    parser.add_argument("--depths", default="1,2,3")
    parser.add_argument("--neurons", default="256,512")
    parser.add_argument("--pretrain", default="on,off")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="runs/arch_grid")
    args = parser.parse_args()
    return cli_main(["--config", args.config,
                     "--set", f"paths.corpus_dir={json.dumps(args.corpus_dir)}",
                     "--seed", str(args.seed),
                     "--out-dir", args.out_dir,
                     "grid-arch", "--depths", args.depths,
                     "--neurons", args.neurons,
                     "--pretrain", args.pretrain])


if __name__ == "__main__":
    sys.exit(main())
