"""Command-line front end.

    dcmon compile <policy.dcp>
    dcmon run <policy.dcp> <trace.jsonl> --out <dir>
    dcmon bench --policies all|Id[,Id...] --trace <file> [--reps N] --out <report.json>
    dcmon report <report.json>

Exit codes: 0 success; 1 policy does not compile (diagnostics on stderr,
one `LINE:COL: code: message` per line); 2 I/O or config problems;
3 trace or catalog mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .bench import MIN_REPETITIONS, BenchError, render_table, run_bench
from .config import DEFAULT_CONFIG, ConfigError, SimConfig, load_config
from .corpus import CORPUS_IDS, UnknownPolicyId
from .dsl import ParseError, parse_policy, validate_policy
from .sim import CatalogMismatch, TraceFormatError, load_trace, run

EXIT_OK = 0
EXIT_COMPILE = 1
EXIT_IO = 2
EXIT_TRACE = 3


def _read_policy(path: str):
    """Returns (compiled, exit_code); prints diagnostics on failure."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as ex:
        print(f"error: cannot read {path}: {ex}", file=sys.stderr)
        return None, EXIT_IO
    try:
        spec = parse_policy(text)
    except ParseError as ex:
        print(ex.diagnostic(), file=sys.stderr)
        return None, EXIT_COMPILE
    result = validate_policy(spec)
    if isinstance(result, list):
        for err in result:
            print(err.diagnostic(), file=sys.stderr)
        return None, EXIT_COMPILE
    return result, EXIT_OK


def _read_trace(path: str):
    """Returns (trace, exit_code); prints the error on failure."""
    try:
        return load_trace(path), EXIT_OK
    except (OSError, UnicodeDecodeError) as ex:
        print(f"error: cannot read trace: {ex}", file=sys.stderr)
        return None, EXIT_IO
    except TraceFormatError as ex:
        print(f"error: bad trace: {ex}", file=sys.stderr)
        return None, EXIT_TRACE


def _read_config(path: Optional[str]) -> Optional[SimConfig]:
    if path is None:
        return DEFAULT_CONFIG
    try:
        return load_config(path)
    except (OSError, UnicodeDecodeError, ConfigError) as ex:
        print(f"error: bad config {path}: {ex}", file=sys.stderr)
        return None


def _print_table(table: str, what: str) -> int:
    """Prints `table`, or, when stdout cannot encode it, one error line
    and nothing on stdout."""
    try:
        # with stdout's own error handler, which in UTF-8 mode writes back
        # the bytes of an undecodable file name that `bench` took as the
        # trace label
        table.encode(sys.stdout.encoding or "utf-8", sys.stdout.errors or "strict")
    except UnicodeEncodeError as ex:
        # such as a lone surrogate, which JSON's \u escapes can spell, or
        # that file name under a strict error handler
        print(f"error: cannot print {what}: {ex}", file=sys.stderr)
        return EXIT_IO
    print(table)
    return EXIT_OK


def cmd_compile(args) -> int:
    cp, code = _read_policy(args.policy)
    if cp is not None:
        print(f"{args.policy}: ok ({len(cp.events)} events, {len(cp.rules)} rules)")
    return code


def cmd_run(args) -> int:
    cp, code = _read_policy(args.policy)
    if cp is None:
        return code
    trace, code = _read_trace(args.trace)
    if trace is None:
        return code
    try:
        result = run(trace, cp, measure_latency=args.measure_latency)
    except CatalogMismatch as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_TRACE
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "verdicts.jsonl").write_text(result.verdict_lines(), encoding="utf-8")
        (out / "snapshot.json").write_text(result.snapshot + "\n", encoding="utf-8")
        (out / "channel.jsonl").write_text(result.channel_lines(), encoding="utf-8")
        (out / "faults.jsonl").write_text(result.fault_lines(), encoding="utf-8")
    except OSError as ex:
        print(f"error: cannot write outputs: {ex}", file=sys.stderr)
        return EXIT_IO
    blocked = sum(1 for v in result.verdicts if v.decision == "Blocked")
    print(f"{len(result.verdicts)} events, {blocked} blocked; outputs in {out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.policies.strip().lower() == "all":
        policy_ids: List[str] = list(CORPUS_IDS)
    else:
        policy_ids = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policy_ids:
        print("error: --policies names no policy", file=sys.stderr)
        return EXIT_IO
    if args.reps < MIN_REPETITIONS:
        print(f"error: --reps must be at least {MIN_REPETITIONS}", file=sys.stderr)
        return EXIT_IO
    config = _read_config(args.config)
    if config is None:
        return EXIT_IO
    trace, code = _read_trace(args.trace)
    if trace is None:
        return code
    try:
        report = run_bench(policy_ids, trace, config, repetitions=args.reps, trace_label=args.trace)
    except UnknownPolicyId as ex:
        print(f"error: unknown policy id {ex}", file=sys.stderr)
        return EXIT_IO
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_TRACE
    if args.out:
        try:
            Path(args.out).write_text(report.to_json(), encoding="utf-8")
        except OSError as ex:
            print(f"error: cannot write report: {ex}", file=sys.stderr)
            return EXIT_IO
    return _print_table(render_table(report.to_doc()), "the bench table")


def cmd_report(args) -> int:
    try:
        doc = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as ex:
        print(f"error: cannot read report: {ex}", file=sys.stderr)
        return EXIT_IO
    try:
        table = render_table(doc)
    except (LookupError, TypeError, ValueError, AttributeError) as ex:
        # valid JSON of another shape
        print(f"error: {args.report} is not a bench report: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_IO
    return _print_table(table, args.report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcmon", description="device-centric policy monitor")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="parse and validate a policy file")
    p.add_argument("policy")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="replay a trace under a policy")
    p.add_argument("policy")
    p.add_argument("trace")
    p.add_argument("--out", required=True)
    p.add_argument("--measure-latency", action="store_true", help="record wall-clock latencies (output no longer byte-stable)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="latency and state-size comparison")
    p.add_argument("--policies", required=True, help="'all' or comma-separated policy ids")
    p.add_argument("--trace", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="pretty-print a bench report")
    p.add_argument("report")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
