"""Command-line interface: run scenarios, list presets, check configs."""

import argparse
import sys

from .app import EXIT_CONFIG, EXIT_OK, run
from .config import PRESETS, ConfigError, load_config, parse_overrides

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="solver",
        description="High-order incompressible flow solver with "
                    "projection-based stabilization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("config", help="INI config file or run.json manifest")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override one config entry (repeatable)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-record progress lines")

    sub.add_parser("presets", help="list the built-in case presets")

    p_check = sub.add_parser("check-config",
                             help="resolve and echo a config without running")
    p_check.add_argument("config")
    p_check.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="SECTION.KEY=VALUE")
    return parser


def _cmd_presets():
    width = max(len(name) for name in PRESETS) + 2
    for name in sorted(PRESETS):
        print(f"{name:<{width}}{PRESETS[name].description}")
    return EXIT_OK


def _cmd_check(args):
    cfg = load_config(args.config, parse_overrides(args.overrides))
    for section, body in cfg.as_nested_dict().items():
        print(f"[{section}]")
        for key, value in body.items():
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            print(f"{key} = {value}")
        print()
    return EXIT_OK


def _cmd_run(args):
    cfg = load_config(args.config, parse_overrides(args.overrides))
    log = (lambda _msg: None) if args.quiet else print
    result = run(cfg, log=log)
    if result.exit_code == EXIT_OK:
        print(f"run complete: outputs in {result.out_dir}")
    else:
        print(f"run aborted: {result.message}", file=sys.stderr)
    return result.exit_code


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            return _cmd_presets()
        if args.command == "check-config":
            return _cmd_check(args)
        return _cmd_run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
