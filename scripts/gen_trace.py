#!/usr/bin/env python3
"""Generate a trace file, either randomized or the dense bench layout."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dcmon.sim import write_trace
from dcmon.tracegen import PROFILES, make_bench_trace, make_trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-events", type=int, default=2000)
    parser.add_argument("--max-apps", type=int, default=5)
    parser.add_argument("--max-days", type=int, default=7)
    parser.add_argument("--profile", choices=PROFILES, default=None)
    parser.add_argument("--bench", action="store_true", help="deterministic interleaved bench trace")
    parser.add_argument("--per-kind", type=int, default=200, help="events per call kind for --bench")
    args = parser.parse_args()
    try:
        if args.bench:
            trace = make_bench_trace(per_kind=args.per_kind)
        else:
            trace = make_trace(
                args.seed, max_apps=args.max_apps, max_events=args.max_events, max_days=args.max_days,
                profile=args.profile,
            )
    except ValueError as ex:
        parser.error(str(ex))
    write_trace(args.out, trace)
    print(f"wrote {len(trace)} events to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
