#!/usr/bin/env python3
"""Regenerate the shipped policy files from a configuration.

A config that cannot be read or is not valid prints one `error: bad config
PATH: …` line, writes nothing and exits 2, as `dcmon bench --config` does.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dcmon.cli import EXIT_IO, read_config
from dcmon.corpus import POLICY_DIR, write_policy_files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None, help="config JSON (defaults to built-in)")
    parser.add_argument("--dest", default=str(POLICY_DIR))
    args = parser.parse_args()
    config = read_config(args.config)
    if config is None:
        return EXIT_IO
    dest = Path(args.dest)
    write_policy_files(dest, config)
    print(f"wrote policy corpus to {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
