"""Reference ledger step: one active-row buffer per booter, stepped booter by booter.

Production (:class:`repro.economics.ledger.CustomerLedger`) keeps every
booter's active sequence as a region of one flat slot array and steps a
day with a fixed number of array operations over that day's events. The
code here is the shape it replaced: a list of per-booter int32 buffers,
churn skip-sampled booter by booter (:func:`skip_sample`), tombstones,
migrant and birth appends and compactions done in per-booter loops.
:class:`ReferenceLedger` shares construction, the state columns and the
read-out methods with production and replaces everything that touches
the active set, so ``tests/test_ledger_parity.py`` can require the two
to agree day by day: counts, digest, tenure histogram, migration matrix
and the ``econ.*`` / ``market.step_chunks`` counters.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.economics.ledger import (
    _DENSE_CHURN_THRESHOLD,
    _MAX_DAY,
    ACTIVE,
    CHURNED,
    DISPLACED,
    MIGRANT,
    CustomerLedger,
)
from repro.obs import metrics

__all__ = ["ReferenceLedger", "skip_sample"]


def skip_sample(rng, m: int, p: float) -> np.ndarray:
    """Positions in ``[0, m)`` of iid Bernoulli(``p``) events.

    One geometric gap per event, drawn in batches of ``int(m p + 6
    sqrt(m p + 1) + 16)`` uniforms and refilled until the running
    position passes ``m``.
    """
    if p >= 1.0:
        return np.arange(m, dtype=np.int64)
    log_q = np.log1p(-p)
    parts = []
    pos = -1.0
    while True:
        expect = (m - pos - 1) * p
        k = int(expect + 6.0 * np.sqrt(expect + 1.0) + 16.0)
        with np.errstate(over="ignore"):
            gaps = np.ceil(np.log1p(-rng.random(k)) / log_q)
            np.maximum(gaps, 1.0, out=gaps)
            points = pos + np.cumsum(gaps)
        cut = int(np.searchsorted(points, float(m), side="left"))
        parts.append(points[:cut].astype(np.int64))
        if cut < k:  # this batch overshot m: every event is collected
            break
        pos = float(points[-1])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class ReferenceLedger(CustomerLedger):
    """A :class:`CustomerLedger` whose active set is one buffer per booter."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        del self._slots, self._start, self._cap
        offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self._arows = [
            np.arange(offsets[b], offsets[b + 1], dtype=np.int32)
            for b in range(len(self.names))
        ]
        self._aused = self.counts.astype(np.int64)
        self._adead = np.zeros(len(self.names), dtype=np.int64)

    def _append_active(self, b: int, rows: np.ndarray) -> None:
        used = int(self._aused[b])
        need = used + rows.size
        arr = self._arows[b]
        if need > arr.size:
            cap = max(need, arr.size + (arr.size >> 1), 64)
            grown = np.empty(cap, dtype=np.int32)
            grown[:used] = arr[:used]
            self._arows[b] = arr = grown
        arr[used:need] = rows
        self._aused[b] = need

    def _compact_active(self, b: int) -> None:
        arr = self._arows[b][: self._aused[b]]
        live = arr[arr >= 0]
        buf = np.empty(max(live.size + (live.size >> 1), 64), dtype=np.int32)
        buf[: live.size] = live
        self._arows[b] = buf
        self._aused[b] = live.size
        self._adead[b] = 0

    def _active_rows(self, b: int) -> np.ndarray:
        arr = self._arows[b][: self._aused[b]]
        return arr[arr >= 0]

    def _churn_events(self, rng, p_total: np.ndarray, p_forced: np.ndarray):
        n_booters = len(self.names)
        empty_pos = np.empty(0, dtype=np.int64)
        pos_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        forced_parts: list[np.ndarray] = []
        events = np.zeros(n_booters, dtype=np.int64)
        n_chunks = 0
        for b in range(n_booters):
            m_b = int(self._aused[b])
            p = float(p_total[b])
            pf = float(p_forced[b])
            if m_b == 0 or p <= 0.0:
                pos_parts.append(empty_pos)
                row_parts.append(empty_pos)
                forced_parts.append(np.empty(0, dtype=bool))
                continue
            if p < _DENSE_CHURN_THRESHOLD:
                n_chunks += 1
                pos = skip_sample(rng, m_b, p)
                if pf > 0.0:
                    forced = rng.random(pos.size) * p < pf
                else:
                    forced = np.zeros(pos.size, dtype=bool)
            else:
                chunks_pos = []
                chunks_f = []
                for c0 in range(0, m_b, self.chunk_rows):
                    c1 = min(m_b, c0 + self.chunk_rows)
                    n_chunks += 1
                    uu = rng.random(c1 - c0)
                    hits = np.flatnonzero(uu < p)
                    if hits.size:
                        chunks_pos.append(c0 + hits.astype(np.int64))
                        chunks_f.append(uu[hits] < pf)
                pos = np.concatenate(chunks_pos) if chunks_pos else empty_pos
                forced = (
                    np.concatenate(chunks_f) if chunks_f else np.empty(0, dtype=bool)
                )
            rows = self._arows[b][pos]
            if self._adead[b]:
                live = rows >= 0
                pos, rows, forced = pos[live], rows[live], forced[live]
            pos_parts.append(pos)
            row_parts.append(rows)
            forced_parts.append(forced)
            events[b] = pos.size
        return pos_parts, row_parts, forced_parts, events, n_chunks

    def step(
        self,
        day: int,
        signup_mult: Mapping[str, float] | np.ndarray | None = None,
        extra_churn: Mapping[str, float] | np.ndarray | None = None,
        migration_fraction: float = 0.8,
    ) -> np.ndarray:
        if not 0.0 <= migration_fraction <= 1.0:
            raise ValueError("migration_fraction must be in [0, 1]")
        if not 0 <= day <= _MAX_DAY:
            raise ValueError(f"day must be in [0, {_MAX_DAY}] for int16 signup days")
        if day != self.days_stepped:
            raise ValueError(
                f"ledger days advance consecutively: expected day {self.days_stepped}"
            )
        n_booters = len(self.names)
        mult = self._per_booter(signup_mult, 1.0)
        extra = self._per_booter(extra_churn, 0.0)
        if (mult < 0).any() or (extra < 0).any() or (extra > 1).any():
            raise ValueError("invalid intervention multipliers")

        registry = metrics()
        weights = self.popularity * mult
        total_weight = weights.sum()
        dest_cdf = np.cumsum(weights / total_weight) if total_weight > 0 else None
        p_forced = np.clip(extra, 0.0, 1.0)
        p_total = np.clip(self.dynamics.churn_per_day + extra, 0.0, 1.0)

        rng_day = self._seeds.child("day", day).rng()
        level = rng_day.lognormal(0.0, self.dynamics.signup_noise_sigma)
        if total_weight > 0:
            lam = self.dynamics.market_signups_per_day * level * (weights / total_weight)
            births = rng_day.poisson(lam).astype(np.int64)
        else:
            births = np.zeros(n_booters, dtype=np.int64)

        rng_churn = self._seeds.child("day", day, "churn").rng()
        rng_migrate = self._seeds.child("day", day, "migrate").rng()

        active_before = int(self.counts.sum())
        pos_parts, row_parts, forced_parts, events, n_chunks = self._churn_events(
            rng_churn, p_total, p_forced
        )

        n_churned = int(events.sum())
        n_displaced = n_migrated = 0
        if n_churned:
            for b in range(n_booters):
                if pos_parts[b].size:
                    self._arows[b][pos_parts[b]] = -1
            self._adead += events
            churn_rows = np.concatenate(row_parts)
            b_churn = np.repeat(np.arange(n_booters, dtype=np.intp), events)
            stint_days = (day - self._signup_day[churn_rows]).astype(np.int64)
            self._bump_tenure(stint_days)
            self.counts -= events
            st = self._state[churn_rows]
            st &= np.uint8(~ACTIVE & 0xFF)
            st |= CHURNED
            if self._price_f32 is not None:
                self._spend[churn_rows] += np.repeat(self._price_f32, events) * stint_days

            forced_mask = np.concatenate(forced_parts)
            forced_rows = churn_rows[forced_mask]
            if forced_rows.size:
                st[forced_mask] |= DISPLACED
                n_displaced = forced_rows.size
                v = rng_migrate.random(forced_rows.size)
                if dest_cdf is not None and migration_fraction > 0:
                    migrate_mask = v < migration_fraction
                    if migrate_mask.any():
                        dest = np.searchsorted(
                            dest_cdf, v[migrate_mask] / migration_fraction, side="right"
                        ).astype(np.intp)
                        np.clip(dest, 0, n_booters - 1, out=dest)
                        migrant_rows = forced_rows[migrate_mask]
                        origin = b_churn[forced_mask][migrate_mask]
                        forced_pos = np.flatnonzero(forced_mask)
                        st[forced_pos[migrate_mask]] |= ACTIVE | MIGRANT
                        self._booter[migrant_rows] = dest.astype(np.int16)
                        self._signup_day[migrant_rows] = day
                        self.counts += np.bincount(dest, minlength=n_booters)
                        self.migration_matrix.ravel()[:] += np.bincount(
                            origin * n_booters + dest, minlength=n_booters * n_booters
                        )
                        n_migrated = migrant_rows.size
                        dest_counts = np.bincount(dest, minlength=n_booters)
                        for b in range(n_booters):
                            if dest_counts[b]:
                                self._append_active(b, migrant_rows[dest == b])
            self._state[churn_rows] = st

        total_births = int(births.sum())
        if total_births:
            self._ensure_capacity(self._n + total_births)
            grow = slice(self._n, self._n + total_births)
            self._booter[grow] = np.repeat(np.arange(n_booters, dtype=np.int16), births)
            self._signup_day[grow] = day
            self._spend[grow] = 0.0
            self._state[grow] = ACTIVE
            birth_offsets = self._n + np.concatenate([[0], np.cumsum(births)])
            self._n += total_births
            self.counts += births
            for b in range(n_booters):
                if births[b]:
                    self._append_active(
                        b,
                        np.arange(
                            birth_offsets[b], birth_offsets[b + 1], dtype=np.int32
                        ),
                    )

        for b in range(n_booters):
            if self._adead[b] * 2 > self._aused[b]:
                self._compact_active(b)

        self.days_stepped += 1
        if registry.enabled:
            registry.inc("econ.customer_days", active_before)
            registry.inc("econ.signups", total_births)
            registry.inc("econ.churned", n_churned)
            registry.inc("econ.displaced", n_displaced)
            registry.inc("econ.migrated", n_migrated)
            registry.inc("market.step_chunks", n_chunks)
            registry.gauge("market.ledger_resident_bytes", self.nbytes())
        return self.counts.copy()

    def _materialized_spend(self) -> np.ndarray:
        spend = self._spend[: self._n].copy()
        if self._price_f32 is not None:
            for b in range(len(self.names)):
                rows = self._active_rows(b)
                if rows.size:
                    open_days = (self.days_stepped - self._signup_day[rows]).astype(
                        np.int64
                    )
                    spend[rows] += self._price_f32[b] * open_days
        return spend

    def nbytes(self) -> int:
        return (
            self._booter.nbytes
            + self._signup_day.nbytes
            + self._spend.nbytes
            + self._state.nbytes
            + sum(arr.nbytes for arr in self._arows)
            + self.counts.nbytes
            + self.migration_matrix.nbytes
            + self._tenure.nbytes
        )
