"""Command-line front end.

Subcommands:

* measure      -- report every measure of one state (file or built-in),
* sweep        -- theta sweep of one family to CSV, optional gnuplot script,
* closed-form  -- GHZ/W closed-form table to CSV,
* ordering     -- mine two family sweeps for ordering reversals, to JSON.

Exit codes: 0 success, 2 invalid arguments, 1 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .closedform import closed_form_table, emit_closed_form_csv
from .measures import full_report
from .states import FAMILIES, PureState, make_ghz, make_w
from .sweep import (
    SweepSpec,
    _require_tolerances,
    emit_csv,
    emit_ordering,
    emit_plotscript,
    find_ordering_reversals,
    run_sweep,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = getattr(exc, "filename", None) or "<io>"
        print(f"i/o error: {where}: {exc.strerror or exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmean",
        description="Multipartite entanglement measures for pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="measure a single state")
    source = measure.add_mutually_exclusive_group(required=True)
    source.add_argument("--state-file", help="JSON state document to load")
    source.add_argument("--ghz", type=int, metavar="N", help="built-in GHZ state")
    source.add_argument("--w", type=int, metavar="N", help="built-in W state")
    measure.add_argument("--json", action="store_true", help="emit JSON")
    measure.set_defaults(handler=_cmd_measure)

    sweep = sub.add_parser("sweep", help="theta sweep of one family")
    families = sorted(FAMILIES)
    sweep.add_argument("--family", required=True, choices=families)
    sweep.add_argument("--steps", type=int, default=201)
    sweep.add_argument(
        "--measures",
        help="comma-separated subset of gbc,gmc,ggm,fill (default: all valid)",
    )
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.add_argument("--plot", help="also write a gnuplot script here")
    sweep.set_defaults(handler=_cmd_sweep)

    closed = sub.add_parser("closed-form", help="GHZ/W closed-form table")
    closed.add_argument("--n-max", type=int, required=True)
    closed.add_argument("--out", required=True, help="CSV output path")
    closed.set_defaults(handler=_cmd_closed_form)

    ordering = sub.add_parser("ordering", help="mine sweeps for ordering reversals")
    ordering.add_argument("--family-x", required=True, choices=families)
    ordering.add_argument("--family-y", required=True, choices=families)
    ordering.add_argument("--x", required=True, help="measure matched within tolerance")
    ordering.add_argument("--y", required=True, help="measure checked for separation")
    ordering.add_argument("--match-tol", type=float, default=1e-4)
    ordering.add_argument("--sep-min", type=float, default=1e-2)
    ordering.add_argument("--steps", type=int, default=201)
    ordering.add_argument("--out", required=True, help="JSON output path")
    ordering.set_defaults(handler=_cmd_ordering)

    return parser


def _cmd_measure(args) -> int:
    if args.state_file is not None:
        with open(args.state_file, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        state = PureState.from_json_dict(doc)
    elif args.ghz is not None:
        state = make_ghz(args.ghz)
    else:
        state = make_w(args.w)
    report = full_report(state)
    if args.json:
        doc = report.to_json_dict()
        doc["dims"] = list(state.dims)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"state: {state.n_parties} parties, dims {'x'.join(map(str, state.dims))}")
    print(f"bipartitions: {report.cardinality}")
    for part, value in report.per_bipartition:
        print(f"  {part.label:<12} {value!r}")
    print(f"gbc  {report.gbc!r}")
    print(f"gmc  {report.gmc!r}")
    print(f"ggm  {report.ggm!r}")
    if report.fill is not None:
        print(f"fill {report.fill!r}")
    return 0


def _cmd_sweep(args) -> int:
    chosen = None
    if args.measures:
        chosen = tuple(name.strip() for name in args.measures.split(",") if name.strip())
    spec = SweepSpec(family=args.family, steps=args.steps, measures=chosen)
    rows = run_sweep(spec)
    emit_csv(rows, args.out)
    if args.plot:
        emit_plotscript(rows, args.plot, csv_path=args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_closed_form(args) -> int:
    table = closed_form_table(args.n_max)
    emit_closed_form_csv(table, args.out)
    print(f"wrote {len(table)} rows to {args.out}")
    return 0


def _cmd_ordering(args) -> int:
    # before the sweeps, which take 250-350 ms at 10001 steps
    _require_tolerances(args.match_tol, args.sep_min)
    needed = tuple(dict.fromkeys((args.x, args.y)))
    # one sweep per distinct family; the miner scans a repeated list once
    rows = {f: run_sweep(SweepSpec(family=f, steps=args.steps, measures=needed))
            for f in dict.fromkeys((args.family_x, args.family_y))}
    findings = find_ordering_reversals(
        rows[args.family_x], rows[args.family_y], x=args.x, y=args.y,
        match_tol=args.match_tol, sep_min=args.sep_min,
    )
    doc = {
        "family_x": args.family_x,
        "family_y": args.family_y,
        "x": args.x,
        "y": args.y,
        "match_tol": args.match_tol,
        "sep_min": args.sep_min,
        "findings": [vars(f) for f in findings],
    }
    emit_ordering(doc, args.out)
    print(f"wrote {len(findings)} findings to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
