"""Command-line entry point: run scenarios, validate configs, export results.

Exit codes: 0 on success, 1 for configuration and usage errors, 2 for
runtime failures (a run that crashes, a missing run directory).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ScenarioConfig, load_config
from .engine import run as run_scenario
from .export import export_csv, export_geojson, export_html

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on bad usage, with the usage text shown."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chargesim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    p_run.add_argument("--config", type=Path, default=None, help="YAML scenario file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--provider", choices=["mock", "live"], default=None)
    p_run.add_argument("--out", type=Path, required=True, help="run directory to create")

    p_export = sub.add_parser("export", help="export artifacts from a finished run")
    p_export.add_argument("--run", type=Path, required=True, help="run directory")
    p_export.add_argument("--format", choices=["geojson", "html", "csv"], required=True)
    p_export.add_argument("--out", type=Path, default=None, help="output file path")

    p_validate = sub.add_parser("validate", help="check a configuration file")
    p_validate.add_argument("--config", type=Path, required=True)

    return parser


def _checked_config(path: Path | None, seed=None, provider=None) -> ScenarioConfig | None:
    """The config at path (the default one when path is None) with the seed and
    provider overrides applied, or None after printing each of its problems."""
    try:
        config = ScenarioConfig() if path is None else load_config(path)
    except (OSError, ValueError) as exc:
        problems = [str(exc)]
    else:
        if seed is not None:
            config.seed = seed
        if provider is not None:
            config.provider = provider
        problems = config.validate()
    for problem in problems:
        print(f"config error: {problem}", file=sys.stderr)
    return None if problems else config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _checked_config(args.config, args.seed, args.provider)
    if config is None:
        return EXIT_CONFIG
    try:
        artifacts = run_scenario(config, args.out)
    except Exception as exc:  # noqa: BLE001 - surface anything as a runtime failure
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    fleet = artifacts.summary["fleet"]
    print(f"run complete: {artifacts.run_dir}")
    print(
        f"  agents={artifacts.summary['num_agents']} "
        f"charges={fleet['charge_count']} "
        f"energy={fleet['total_kwh_charged']:.1f} kWh "
        f"cost={fleet['total_cost']:.2f} "
        f"distance={fleet['total_km']:.0f} km "
        f"elapsed={artifacts.elapsed_s:.2f} s"
    )
    print(f"  behavior log sha256: {artifacts.behavior_digest}")
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    exporters = {"geojson": export_geojson, "html": export_html, "csv": export_csv}
    try:
        out = exporters[args.format](args.run, args.out)
    except Exception as exc:  # noqa: BLE001 - a missing artifact or a failed run
        print(f"export failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    if _checked_config(args.config) is None:
        return EXIT_CONFIG
    print("configuration is valid")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "validate":
        return _cmd_validate(args)
    parser.print_usage(sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
