"""Command-line interface.

Subcommands: ``selfsim``, ``clt-rate``, ``coupling-sweep``, ``chaos-test``
run the corresponding experiment from a config file; ``validate`` checks a
config and audits the model assumptions without running anything.

Flags may be overridden by environment variables ``STABLECHAOS_SEED``,
``STABLECHAOS_OUT`` and ``STABLECHAOS_THREADS``.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from .errors import ConfigError, StableChaosError
from .harness import parse_config, run_experiment
from .models import assumption_audit

_EXPERIMENTS = ("selfsim", "clt-rate", "coupling-sweep", "chaos-test")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablechaos",
        description="Monte Carlo experiments for stable-driven mean-field systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENTS + ("validate",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=1, help="worker processes")
    return parser


def _env_int(name: str, default):
    """Integer override from the environment, or ``default`` when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = os.environ.get("STABLECHAOS_OUT", args.out)

    try:
        seed = args.seed if args.seed is not None else _env_int("STABLECHAOS_SEED", None)
        threads = _env_int("STABLECHAOS_THREADS", args.threads)
        if threads < 1:
            source = "STABLECHAOS_THREADS" if "STABLECHAOS_THREADS" in os.environ else "--threads"
            raise ConfigError(f"{source} must be at least 1, got {threads}")
        cfg = parse_config(args.config, seed_override=seed)
    except (StableChaosError, OSError, KeyError, TypeError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        try:
            cfg.validate()
        except StableChaosError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 2
        q = cfg.alpha_minus if cfg.alpha_minus is not None else min(0.9 * cfg.alpha, 0.99)
        report = assumption_audit(cfg.model, min(q, 1.0))
        print(report)
        return 0 if report.passed else 2

    if cfg.experiment != args.command:
        print(
            f"config declares experiment {cfg.experiment!r} but subcommand is {args.command!r}",
            file=sys.stderr,
        )
        return 2
    return run_experiment(cfg, out_dir, threads)


if __name__ == "__main__":
    sys.exit(main())
