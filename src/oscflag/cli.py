"""Command-line front end: catalog listing and verification runs.

Exit codes: 0 success, 1 invariant failure (findings present), 2 usage or
configuration error, 3 numerical degeneracy or failure during a run (no
usable sample points, a degenerate extension, a rank that changes across a
stencil, or any other numerical error).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import BUILDERS, entry_schema, get_entry
from .errors import OscflagError, ParameterError, UsageError
from .verify import Report, RunConfig, run_verification

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _parse_value(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        params[key.strip()] = _parse_value(raw.strip())
    return params


def cmd_list(args: argparse.Namespace) -> int:
    print("catalog entries:")
    for name in sorted(BUILDERS):
        print(f"\n  {name}({entry_schema(name)})")
        print(f"      {BUILDERS[name][1]}")
        if args.verbose:
            entry = get_entry(name)
            for exp in entry.expected:
                print(f"      - {exp.check}: {exp.description}")
            for ex in entry.split_exercises:
                expect = ", ".join(f"{k}={v}" for k, v
                                   in sorted(ex.expected.items()))
                print(f"      - splitting exercise {ex.name!r}: {expect}")
    return EXIT_OK


def _print_summary(report: Report):
    cfg = report.config
    print(f"entry {cfg['entry']} params={cfg['params']} "
          f"samples={cfg['samples']} seed={cfg['seed']}")
    cases = sorted({p["case"] for p in report.points})
    ss = sorted({p["s"] for p in report.points})
    ps = sorted({p["p"] for p in report.points})
    ds = sorted({p["d"] for p in report.points})
    print(f"  points: {len(report.points)}  p={ps} s={ss} d={ds} "
          f"case={cases}")
    for v in report.verdicts:
        status = "PASS" if v["passed"] else "FAIL"
        resid = ""
        if v["residual"] is not None:
            resid = f"  residual={v['residual']:.3e}"
            if v["tolerance"] is not None:
                resid += f" (tol {v['tolerance']:.1e})"
        print(f"  [{status}] {v['name']}{resid}")
    print(f"  findings: {len(report.findings)}  "
          f"wall: {report.timings.get('total_s', '?')}s")


def cmd_verify(args: argparse.Namespace) -> int:
    config = RunConfig(
        entry=args.entry,
        params=_parse_params(args.param or []),
        samples=args.samples,
        seed=args.seed,
        rank_tol=args.rank_tol,
        out=args.out,
    )
    if args.out and (Path(args.out).is_dir()
                     or not Path(args.out).parent.is_dir()):
        # found before the run; the write below can still fail
        raise UsageError(f"cannot write the report to {args.out}: it is a "
                         "directory, or its directory does not exist")
    report = run_verification(config)
    if args.out:
        try:
            Path(args.out).write_text(report.to_json(), encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write the report to {args.out}: "
                             f"{exc.strerror}") from exc
        print(f"report written to {args.out}")
    _print_summary(report)
    return EXIT_OK if report.passed else EXIT_FINDINGS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscflag",
        description="pointwise verification of osculating-flag invariants "
                    "on a catalog of exactly constructed submanifolds")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_list = subparsers.add_parser("list", help="list catalog entries")
    p_list.add_argument("--verbose", action="store_true",
                        help="include declared invariants per entry")
    p_list.set_defaults(fn=cmd_list)

    p_verify = subparsers.add_parser("verify", help="run a verification")
    p_verify.add_argument("entry", help="catalog entry name")
    p_verify.add_argument("--param", action="append", metavar="K=V",
                          help="entry parameter (repeatable)")
    p_verify.add_argument("--samples", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--rank-tol", dest="rank_tol", type=float,
                          default=1e-8)
    p_verify.add_argument("--out", default=None,
                          help="write the JSON report to this path")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, ParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OscflagError as exc:
        print(f"degeneracy: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
