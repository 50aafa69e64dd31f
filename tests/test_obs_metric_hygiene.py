"""Metric-name hygiene: every counter family is classified on purpose.

The drift gate digests only ``DETERMINISTIC_PREFIXES`` families
(``scenario.`` / ``streaming.`` / ``pipeline.``); everything
environment-dependent (``cache.`` / ``pool.`` / ``serve.`` / ...) must
live under ``EXCLUDED_PREFIXES``. This test walks the source tree with
the ``ast`` module and collects every literal metric name passed to
``inc`` / ``observe`` / ``gauge``, so a new family with an unclassified
prefix — which would either silently skew the digest or silently escape
it — fails CI instead of surfacing as a drift-gate mystery later.
"""

import ast
from pathlib import Path

from repro.obs.runledger import (
    DETERMINISTIC_PREFIXES,
    EXCLUDED_PREFIXES,
    deterministic_counters,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
METRIC_METHODS = {"inc", "observe", "gauge"}
ALL_PREFIXES = DETERMINISTIC_PREFIXES + EXCLUDED_PREFIXES


def _literal_prefix(node: ast.expr) -> str | None:
    """The literal (or f-string literal prefix) of a metric-name arg."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value
    return None


def _collect_metric_names() -> dict[str, list[str]]:
    """Map literal metric name -> ``file:line`` call sites across src/."""
    names: dict[str, list[str]] = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_METHODS
                and node.args
            ):
                continue
            literal = _literal_prefix(node.args[0])
            # Non-literal first args (histogram.observe(value), vantage
            # observers, passthrough helpers) are not metric families.
            if literal is None or "." not in literal:
                continue
            site = f"{path.relative_to(SRC_ROOT)}:{node.lineno}"
            names.setdefault(literal, []).append(site)
    return names


def test_scan_finds_the_known_families():
    names = _collect_metric_names()
    assert "serve.requests" in names
    assert "scenario.days_generated" in names
    assert "cache.hits" in names
    assert "pool.busy_s" in names
    assert len(names) > 25


def test_scan_covers_the_economics_plane():
    """The ledger/replica counters are visible to the hygiene scan."""
    names = _collect_metric_names()
    assert any(site.startswith("economics/") for site in names["econ.signups"])
    assert "econ.customer_days" in names
    assert "econ.replicas" in names
    assert "market.step_chunks" in names
    assert "market.replica_tasks" in names
    assert "market.ledger_resident_bytes" in names


def test_every_literal_metric_name_is_classified():
    unclassified = {
        name: sites
        for name, sites in _collect_metric_names().items()
        if not name.startswith(ALL_PREFIXES)
    }
    assert not unclassified, (
        "metric families with no drift-gate classification — add their "
        "prefix to DETERMINISTIC_PREFIXES (digested) or EXCLUDED_PREFIXES "
        f"(environment-dependent) in repro/obs/runledger.py: {unclassified}"
    )


def test_deterministic_families_carry_no_timing_suffix():
    """Wall-clock families (``*_s``) can never be digest-stable."""
    offenders = {
        name: sites
        for name, sites in _collect_metric_names().items()
        if name.startswith(DETERMINISTIC_PREFIXES) and name.endswith("_s")
    }
    assert not offenders, offenders


def test_prefix_lists_are_disjoint():
    assert not set(DETERMINISTIC_PREFIXES) & set(EXCLUDED_PREFIXES)


def test_deterministic_counters_drops_every_excluded_family():
    counters = {
        "scenario.days_generated": 5.0,
        "streaming.flows_ingested": 100.0,
        "pipeline.days_processed": 5.0,
        "econ.customer_days": 1e6,
        "cache.hits": 3.0,
        "pool.busy_s": 0.4,
        "serve.requests": 9.0,
        "pool.tasks": 8.0,
        "matrix.blocks_built": 7.0,
        "parallel.days_dispatched": 5.0,
        "market.step_chunks": 12.0,
        "market.ledger_resident_bytes": 9e7,
    }
    kept = deterministic_counters(counters)
    assert set(kept) == {
        "scenario.days_generated",
        "streaming.flows_ingested",
        "pipeline.days_processed",
        "econ.customer_days",
    }
    for name in counters:
        if name not in kept:
            assert name.startswith(EXCLUDED_PREFIXES), name
