"""Synthetic trace export CLI.

Generates observed flow traces from a scenario and writes them to disk
(CSV or the binary format), so the synthetic data can feed external flow
tooling or serve as test fixtures::

    repro-tracegen --vantage ixp --days 40 42 --out /tmp/ixp.bin
    repro-tracegen --vantage tier2 --days 80 81 --format csv --out day80.csv
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from repro.booter.market import MarketConfig
from repro.flows.binio import write_flows_binary
from repro.flows.io import write_flows_csv
from repro.flows.records import FlowTable
from repro.logutil import LOG_LEVELS, configure_cli_logging
from repro.netmodel.topology import TopologyConfig
from repro.scenario import Scenario, ScenarioConfig
from repro.scenario.scenario import KINDS

__all__ = ["main", "generate_trace"]

# Explicit name: __name__ is "__main__" under ``python -m repro.tracegen``,
# which would fall outside the "repro" hierarchy configure_cli_logging sets up.
_log = logging.getLogger("repro.tracegen")


def _small_config(seed: int, scale: float) -> ScenarioConfig:
    return ScenarioConfig(
        seed=seed,
        scale=scale,
        topology=TopologyConfig(n_tier1=3, n_tier2=12, n_stub=80),
        market=MarketConfig(daily_attacks=120.0, n_victims=600),
        pool_sizes=(
            ("ntp", 2000),
            ("dns", 1500),
            ("cldap", 600),
            ("memcached", 300),
            ("ssdp", 400),
        ),
    )


def generate_trace(
    vantage: str,
    day_range: tuple[int, int],
    seed: int = 2018,
    scale: float = 0.1,
    kinds: tuple[str, ...] = KINDS,
    config: ScenarioConfig | None = None,
) -> FlowTable:
    """Generate the observed trace of ``vantage`` over ``day_range``.

    ``config`` overrides the built-in small world (e.g. a manifest loaded
    with :func:`repro.scenario.load_config`); ``seed``/``scale`` are
    ignored when it is given.
    """
    start, end = day_range
    if end <= start:
        raise ValueError("empty day range")
    scenario = Scenario(config if config is not None else _small_config(seed, scale))
    tables = []
    for day in range(start, end):
        traffic = scenario.day_traffic(day)
        tables.append(scenario.observe_day(vantage, traffic, kinds=kinds))
    return FlowTable.concat(tables).sort_by_time()


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tracegen",
        description="Export synthetic observed flow traces.",
    )
    parser.add_argument("--vantage", choices=("ixp", "tier1", "tier2"), default="ixp")
    parser.add_argument(
        "--days",
        nargs=2,
        type=int,
        metavar=("START", "END"),
        default=(40, 41),
        help="half-open scenario day range (default: 40 41)",
    )
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--format", choices=("csv", "binary"), default="binary")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument(
        "--kinds",
        nargs="+",
        choices=KINDS,
        default=KINDS,
    )
    parser.add_argument(
        "--config",
        help="scenario manifest (JSON from repro.scenario.save_config); "
        "overrides --seed/--scale",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="stderr logging verbosity (default: info)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: generate and write one observed trace."""
    args = _parser().parse_args(argv)
    configure_cli_logging(args.log_level)
    try:
        config = None
        if args.config:
            from repro.scenario.serialize import load_config

            config = load_config(args.config)
        table = generate_trace(
            vantage=args.vantage,
            day_range=tuple(args.days),
            seed=args.seed,
            scale=args.scale,
            kinds=tuple(args.kinds),
            config=config,
        )
    except (ValueError, KeyError, OSError) as exc:
        _log.error("error: %s", exc)
        return 2
    out = Path(args.out)
    if args.format == "csv":
        n = write_flows_csv(table, out)
    else:
        n = write_flows_binary(table, out)
    _log.info(
        "wrote %d flows (%s packets) from %s days [%d, %d) to %s",
        n,
        f"{table.total_packets:,}",
        args.vantage,
        args.days[0],
        args.days[1],
        out,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
