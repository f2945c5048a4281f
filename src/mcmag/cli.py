"""Command-line front end.

Subcommands:
  sweep <config>      evaluate a sweep config, write its CSV
  neumark <config>    dump the projective extension at one point
  validate <config>   run Monte Carlo consistency checks
  plot <csv>          render a sweep CSV as an SVG file

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
contract violation (including failed Monte Carlo consistency), 1 I/O or
unexpected failure.

Each subcommand imports only what it runs: ``plot`` needs the standard
library alone (no numpy), the others load the sweep layer.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, DomainError, NumericalContractError

#: Each subcommand: name, help, its one positional argument, help of --out.
_COMMANDS = (
    ("sweep", "run a sweep config, write CSV", "config", "override the config's out path"),
    ("neumark", "dump the projective extension", "config", "write the dump here instead of stdout"),
    ("validate", "Monte Carlo consistency checks", "config", "also write the report here"),
    ("plot", "render a sweep CSV to SVG", "csv", "SVG path (default: csv path with .svg)"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmag",
        description="Maximum-confidence magnetic-field detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arg, out_help in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        command.add_argument(arg)
        command.add_argument("--out", default=None, help=out_help)
    return parser


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            from .plot import plot_csv

            with open(args.csv, "r", encoding="utf-8") as fh:
                csv_text = fh.read()
            svg = plot_csv(csv_text, title=args.csv)
            out = args.out or (os.path.splitext(args.csv)[0] + ".svg")
            _write_text(out, svg)
            print(f"wrote {out}")
            return 0
        from . import sweep

        cfg = sweep.load_config(args.config)
        out = args.out or cfg.out
        if args.command == "sweep":
            if out is None:
                raise ConfigError("no output path: set 'out' in the config")
            _write_text(out, sweep.rows_to_csv(sweep.run_sweep(cfg)))
            print(f"wrote {out}")
        elif args.command == "neumark":
            report = sweep.neumark_report(cfg)
            if out:
                _write_text(out, report)
                print(f"wrote {out}")
            else:
                sys.stdout.write(report)
        elif args.command == "validate":
            report, ok = sweep.validate_report(cfg)
            if out:
                _write_text(out, report)
            sys.stdout.write(report)
            if not ok:
                return 3
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalContractError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
