"""Columnar per-customer market ledger: millions of customers at array speed.

The aggregate :class:`~repro.economics.customers.CustomerPopulationModel`
steps one float per booter per day — it cannot say anything about
*customers*: how long they stayed before churning, where the displaced
re-signed after a seizure, or what fraction of a seized booter's base
came back to the market (the recidivism measure of "Assessing the
Aftermath", Vu et al.). This module keeps every simulated customer as a
row across packed parallel arrays (struct-of-arrays, the same columnar
playbook as the flow and topology planes):

* ``booter`` — int16 index of the customer's current (or last) booter;
* ``signup_day`` — int16 day the customer's latest stint started;
* ``spend`` — float32 lifetime spend in USD (closed stints; open stints
  are materialized on demand);
* ``state`` — uint8 flag byte (:data:`ACTIVE` / :data:`CHURNED` /
  :data:`DISPLACED` / :data:`MIGRANT`).

That is 9 bytes per customer, so 10^7 customers hold ~90 MB of ledger
plus the active-row index and bounded per-day transients.

The daily step is event-driven rather than per-row: the active rows
are kept as one index array *per booter*, so each booter's churn
probability is a scalar along its own sequence and the step
skip-samples churn *events* with geometric gaps (one draw per event,
no thinning envelope). On a typical day only ~2% of customers churn,
and an intervention day only pays event costs on the seized booter's
rows. A booter whose churn probability crosses
:data:`_DENSE_CHURN_THRESHOLD` falls back to the dense per-row path,
chunked to the ``chunk_bytes`` transient budget. Both paths consume
dedicated :class:`~repro.stats.rng.SeedSequenceTree` child streams in
booter-then-sequence order, and the path choice depends only on the
day's parameters — never on chunking — so the same seed yields
bit-identical ledgers (same :meth:`CustomerLedger.digest`) for every
chunk size and ``jobs`` value.

Displaced churners re-sign at surviving booters through a single
inverse-CDF draw (``v < migration_fraction`` gates the re-sign and ``v /
migration_fraction`` picks the destination, so one uniform per displaced
customer does both). Spend never costs a per-row pass: a stint's spend
is ``daily_price[booter] x stint days``, added to the row when the stint
closes (churn) and materialized for open stints only at observation
points (:meth:`CustomerLedger.digest` / :meth:`CustomerLedger.spend_total`).

At matched parameters the ledger's per-booter daily counts equal the
aggregate model's step in expectation (property-tested in
``tests/test_economics_ledger.py``); what the aggregate model can never
produce are the per-customer outputs: tenure-at-churn distributions,
the booter-to-booter migration matrix, and the repeat-customer fraction
after an intervention.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Sequence

import numpy as np

from repro.economics.customers import CustomerDynamics, normalize_popularity
from repro.obs import metrics
from repro.stats.rng import SeedSequenceTree

__all__ = [
    "ACTIVE",
    "CHURNED",
    "DISPLACED",
    "MIGRANT",
    "BYTES_PER_CUSTOMER",
    "CustomerLedger",
]

#: State flags (one uint8 per customer, OR-combined).
ACTIVE = np.uint8(1)  #: currently subscribed to some booter
CHURNED = np.uint8(2)  #: ended at least one subscription stint
DISPLACED = np.uint8(4)  #: forcibly churned by an intervention at least once
MIGRANT = np.uint8(8)  #: re-signed somewhere after being displaced (recidivist)

#: Packed bytes per ledger row (int16 + int16 + float32 + uint8).
BYTES_PER_CUSTOMER = 9

#: Transient working bytes per active row in one dense-path chunk
#: (uniform draw + gathered booter ids + masks + collected events);
#: sizes the chunk rows from the ``chunk_bytes`` budget.
_TRANSIENT_BYTES_PER_ROW = 48

#: Highest per-booter churn probability the sparse event path handles.
#: Above this, geometric gaps are mostly 1 and one uniform per row is
#: cheaper (and memory-bounded via chunking) than one geometric draw
#: per event. The cutoff is a *parameter* of the booter's day, never of
#: the chunking, so it cannot break chunk-size determinism.
_DENSE_CHURN_THRESHOLD = 0.30

#: int16 day ceiling: the ledger addresses days and signup days as
#: int16, which bounds a simulation horizon far beyond any study here.
_MAX_DAY = np.iinfo(np.int16).max


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Split ``total`` integer customers over ``weights`` (largest remainder).

    Deterministic, exact (sums to ``total``), and order-stable — the
    integer analogue of ``weights * total`` for seeding the initial
    cohort without a random draw.
    """
    raw = weights * float(total)
    base = np.floor(raw).astype(np.int64)
    missing = int(total - base.sum())
    if missing > 0:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:missing]] += 1
    return base


def _skip_sample(rng, m: int, p: float) -> np.ndarray:
    """Positions in ``[0, m)`` of iid Bernoulli(``p``) events.

    Draws one geometric gap per event (batched, refilling until the
    running position passes ``m``), so a 2%-churn day over 10^7 rows
    consumes ~2 x 10^5 draws instead of 10^7. The number of generator
    draws depends only on the realized gaps — never on chunking — so the
    consumption pattern is deterministic per seed.
    """
    if p >= 1.0:
        return np.arange(m, dtype=np.int64)
    # Geometric gaps by exact inversion in float64: unlike
    # ``rng.geometric`` this cannot overflow int64 when ``p`` is
    # vanishingly small (gaps become +inf and simply overshoot ``m``).
    log_q = np.log1p(-p)
    parts = []
    pos = -1.0
    while True:
        expect = (m - pos - 1) * p
        k = int(expect + 6.0 * np.sqrt(expect + 1.0) + 16.0)
        # gap = ceil(log(1-u)/log(1-p)) is the inversion; the ratio is
        # almost surely non-integral, so ceil == floor + 1. For
        # vanishingly small p the ratio overflows to +inf, which is the
        # correct "no event before m" outcome — not an error.
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


class CustomerLedger:
    """All customers of a booter market as packed parallel arrays.

    Construct via :meth:`from_market` (weights from live services) or
    directly from names + popularity weights. ``n_customers`` seeds the
    initial cohort, apportioned over booters by popularity;
    ``daily_price`` (optional, per booter, USD/day) accrues lifetime
    spend for active customers; ``chunk_bytes`` bounds per-step
    transient memory — it is a pure execution knob and never changes
    results (property-tested: digests are identical across chunk sizes).

    Days advance consecutively: the ``day`` passed to :meth:`step` must
    equal :attr:`days_stepped` (0, 1, 2, ...), which lets open-stint
    spend be priced as ``daily_price x stint days`` without a per-row
    pass per day.
    """

    def __init__(
        self,
        names: Sequence[str],
        popularity: np.ndarray,
        dynamics: CustomerDynamics,
        seeds: SeedSequenceTree,
        n_customers: int,
        *,
        daily_price: np.ndarray | None = None,
        chunk_bytes: int = 32 << 20,
        reserve_rows: int | None = None,
    ) -> None:
        if n_customers < 0:
            raise ValueError("n_customers cannot be negative")
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if reserve_rows is not None and reserve_rows < 0:
            raise ValueError("reserve_rows cannot be negative")
        self.names = list(names)
        if len(self.names) > np.iinfo(np.int16).max:
            raise ValueError("too many booters for int16 ids")
        self.popularity = normalize_popularity(popularity)
        if self.popularity.size != len(self.names):
            raise ValueError("popularity length must match names")
        self.dynamics = dynamics
        self._seeds = seeds
        self.daily_price = (
            None if daily_price is None else np.asarray(daily_price, dtype=np.float64)
        )
        if self.daily_price is not None and self.daily_price.size != len(self.names):
            raise ValueError("daily_price length must match names")
        self._price_f32 = (
            None if self.daily_price is None else self.daily_price.astype(np.float32)
        )
        self.chunk_rows = max(16_384, int(chunk_bytes) // _TRANSIENT_BYTES_PER_ROW)

        n_booters = len(self.names)
        initial = _apportion(self.popularity, n_customers)
        capacity = max(n_customers, reserve_rows or 0, 1024)
        self._booter = np.empty(capacity, dtype=np.int16)
        self._signup_day = np.empty(capacity, dtype=np.int16)
        self._spend = np.empty(capacity, dtype=np.float32)
        self._state = np.empty(capacity, dtype=np.uint8)
        self._n = n_customers
        self._booter[:n_customers] = np.repeat(
            np.arange(n_booters, dtype=np.int16), initial
        )
        self._signup_day[:n_customers] = 0
        self._spend[:n_customers] = 0.0
        self._state[:n_customers] = ACTIVE
        # Active row indices, one append-buffer per booter — each
        # booter's churn probability is a scalar along its own sequence,
        # so churn events skip-sample with no thinning and no step
        # rescans the state column. Churned rows become -1 tombstones in
        # place (an O(events) scatter, not an O(active) rebuild) and a
        # buffer compacts only once tombstones pass a quarter of its
        # slots, so active-set upkeep is amortized O(1) per event.
        # Sequence order is insertion order (deterministic).
        offsets = np.concatenate([[0], np.cumsum(initial)])
        self._arows = [
            np.arange(offsets[b], offsets[b + 1], dtype=np.int32)
            for b in range(n_booters)
        ]
        self._aused = initial.astype(np.int64)
        self._adead = np.zeros(n_booters, dtype=np.int64)
        #: Live subscriber count per booter (maintained incrementally).
        self.counts = initial.copy()
        #: Cumulative booter-to-booter re-sign counts (from-row, to-column).
        self.migration_matrix = np.zeros((n_booters, n_booters), dtype=np.int64)
        self._tenure = np.zeros(128, dtype=np.int64)
        self.days_stepped = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_market(
        cls,
        market,
        dynamics: CustomerDynamics,
        seeds: SeedSequenceTree,
        n_customers: int,
        *,
        daily_price: np.ndarray | None = None,
        chunk_bytes: int = 32 << 20,
        reserve_rows: int | None = None,
    ) -> "CustomerLedger":
        """Build a ledger over a :class:`~repro.booter.market.BooterMarket`."""
        names = market.service_names()
        popularity = market.popularity_vector(names)
        return cls(
            names,
            popularity,
            dynamics,
            seeds,
            n_customers,
            daily_price=daily_price,
            chunk_bytes=chunk_bytes,
            reserve_rows=reserve_rows,
        )

    # -- capacity management --------------------------------------------------

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self._booter.size
        if needed <= capacity:
            return
        # 1.5x geometric growth: amortized O(1) per appended row without
        # the ~2x capacity a doubling schedule can strand on a 10^7-row
        # ledger. Callers that know their horizon can pre-reserve via
        # ``reserve_rows`` and never pay a regrowth copy at all.
        new_cap = max(needed, capacity + (capacity >> 1), 1024)
        for attr in ("_booter", "_signup_day", "_spend", "_state"):
            old = getattr(self, attr)
            grown = np.empty(new_cap, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, attr, grown)

    def _append_active(self, b: int, rows: np.ndarray) -> None:
        """Append row ids to booter ``b``'s active sequence (amortized O(1))."""
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
        """Drop booter ``b``'s tombstones (keeps growth slack for appends)."""
        arr = self._arows[b][: self._aused[b]]
        live = arr[arr >= 0]
        buf = np.empty(max(live.size + (live.size >> 1), 64), dtype=np.int32)
        buf[: live.size] = live
        self._arows[b] = buf
        self._aused[b] = live.size
        self._adead[b] = 0

    def _active_rows(self, b: int) -> np.ndarray:
        """Booter ``b``'s live row ids in sequence order (observation path)."""
        arr = self._arows[b][: self._aused[b]]
        return arr[arr >= 0]

    def _bump_tenure(self, tenures: np.ndarray) -> None:
        if tenures.size == 0:
            return
        top = int(tenures.max())
        if top >= self._tenure.size:
            grown = np.zeros(max(top + 1, self._tenure.size * 2), dtype=np.int64)
            grown[: self._tenure.size] = self._tenure
            self._tenure = grown
        self._tenure += np.bincount(tenures, minlength=self._tenure.size)

    # -- the daily step -------------------------------------------------------

    def _per_booter(
        self, mapping: Mapping[str, float] | np.ndarray | None, default: float
    ) -> np.ndarray:
        if mapping is None:
            return np.full(len(self.names), default)
        if isinstance(mapping, Mapping):
            return np.array([mapping.get(n, default) for n in self.names], dtype=np.float64)
        arr = np.asarray(mapping, dtype=np.float64)
        if arr.shape != (len(self.names),):
            raise ValueError("per-booter array must have one entry per booter")
        return arr

    def _churn_events(self, rng, p_total: np.ndarray, p_forced: np.ndarray):
        """Select this day's churners along each booter's active sequence.

        Returns ``(pos_parts, row_parts, forced_parts, events,
        n_chunks)``: per booter, the ascending event slot positions into
        that booter's active buffer, the live row ids at those slots,
        and a boolean per churner marking intervention-forced churn
        (the deciding uniform conditioned on the event is U(0,
        ``p_total[b]``); forced means it landed below ``p_forced[b]``),
        plus the per-booter event counts. Within a booter the churn
        probability is a single scalar, so a sparse day skip-samples the
        events directly — every candidate *is* a churner, no thinning —
        and skips the classifying uniforms entirely for booters with no
        intervention (``p_forced == 0``); a booter pushed past
        :data:`_DENSE_CHURN_THRESHOLD` draws one uniform per slot,
        chunked to the transient budget. Events landing on tombstone
        slots are discarded after the draw, which leaves every live row
        an independent Bernoulli(``p``) and keeps draw consumption a
        function of day parameters and the (deterministic) buffer
        length only. Draws are consumed booter by booter in index order.
        """
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
                pos = _skip_sample(rng, m_b, p)
                # The conditional law of the deciding uniform given a
                # churn event is U(0, p) — regenerated here so the skip
                # path and the dense path classify forced churn alike.
                # With no intervention on this booter the classification
                # is vacuous and the draw is skipped (a day-parameter
                # decision, so determinism is unaffected).
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
                    np.concatenate(chunks_f)
                    if chunks_f
                    else np.empty(0, dtype=bool)
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
        """Advance one day; returns the per-booter live subscriber counts.

        Semantics match the aggregate model in expectation: organic
        signups are Poisson with the day's popularity-x-multiplier
        weights, every customer churns with probability ``churn +
        extra_churn[booter]`` (the ``extra_churn`` share counts as
        intervention-displaced), and a ``migration_fraction`` slice of
        the displaced re-signs immediately at a booter drawn from the
        surviving signup weights (recorded in the migration matrix, the
        tenure histogram, and the customer's flag byte). When every
        signup weight is zero there is nowhere to re-sign and the
        displaced leave the market — the same fallback as the aggregate
        model rather than a division by zero.
        """
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

        # Day-level draws (booter granularity, one stream per day).
        rng_day = self._seeds.child("day", day).rng()
        level = rng_day.lognormal(0.0, self.dynamics.signup_noise_sigma)
        if total_weight > 0:
            lam = self.dynamics.market_signups_per_day * level * (weights / total_weight)
            births = rng_day.poisson(lam).astype(np.int64)
        else:
            births = np.zeros(n_booters, dtype=np.int64)

        # Per-customer draws: one dedicated stream per operation, each
        # consumed booter by booter along that booter's active sequence
        # — neither chunk boundaries nor the sparse/dense path split (a
        # day-level parameter) changes which draw a given customer sees.
        rng_churn = self._seeds.child("day", day, "churn").rng()
        rng_migrate = self._seeds.child("day", day, "migrate").rng()

        active_before = int(self.counts.sum())
        pos_parts, row_parts, forced_parts, events, n_chunks = self._churn_events(
            rng_churn, p_total, p_forced
        )

        # Close the churned stints: tenure, counts, flags, stint spend.
        n_churned = int(events.sum())
        n_displaced = n_migrated = 0
        if n_churned:
            # Tombstone the churned slots in place; compaction (below)
            # reclaims them only when a buffer turns half dead.
            for b in range(n_booters):
                if pos_parts[b].size:
                    self._arows[b][pos_parts[b]] = -1
            self._adead += events
            churn_rows = np.concatenate(row_parts)
            b_churn = np.repeat(np.arange(n_booters, dtype=np.intp), events)
            stint_days = (day - self._signup_day[churn_rows]).astype(np.int64)
            self._bump_tenure(stint_days)
            self.counts -= events
            # Flag updates happen on a compact gather of the event rows
            # and scatter back in a single pass at the end — churn,
            # displacement, and migrant re-activation together — instead
            # of one read-modify-write sweep over the column per flag.
            st = self._state[churn_rows]
            st &= np.uint8(~ACTIVE & 0xFF)
            st |= CHURNED
            if self._price_f32 is not None:
                # Churners do not pay on the churn day itself, so the
                # closed stint is worth price x (day - signup_day).
                self._spend[churn_rows] += np.repeat(self._price_f32, events) * stint_days

            forced_mask = np.concatenate(forced_parts)
            forced_rows = churn_rows[forced_mask]
            if forced_rows.size:
                st[forced_mask] |= DISPLACED
                n_displaced = forced_rows.size
                # One uniform decides re-sign *and* destination: v <
                # migration_fraction gates the re-sign, and within that
                # event v / migration_fraction is again uniform, so the
                # inverse-CDF lookup reuses it for the destination.
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
                        # Append the migrants to their destination
                        # sequences, grouped by one mask pass per booter
                        # (order within a destination stays the stable
                        # arrival order, so it is deterministic).
                        dest_counts = np.bincount(dest, minlength=n_booters)
                        for b in range(n_booters):
                            if dest_counts[b]:
                                self._append_active(b, migrant_rows[dest == b])
            self._state[churn_rows] = st

        # Organic signups: fresh rows appended booter-major (no draw
        # needed beyond the per-booter Poisson counts above).
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

        # Amortized upkeep: compact any buffer whose tombstones passed
        # half of its slots (a deterministic trigger — it depends only
        # on the event history, never on chunking or timing). The lazy
        # threshold trades some tombstone-slot oversampling in the
        # churn draw for half as many O(live) compaction copies.
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

    # -- outputs the aggregate model cannot produce ---------------------------

    def tenure_at_churn(self) -> np.ndarray:
        """Histogram of subscription lengths (days) at churn, index = tenure."""
        top = int(np.flatnonzero(self._tenure).max()) + 1 if self._tenure.any() else 0
        return self._tenure[:top].copy()

    def repeat_customer_fraction(self) -> float:
        """Of all intervention-displaced customers, the share that re-signed.

        This is the ledger's analogue of the recidivism measure in
        "Assessing the Aftermath" (Vu et al.): a seizure whose displaced
        customers mostly come back moved demand around without shrinking
        it. ``0.0`` when no customer was ever displaced.
        """
        state = self._state[: self._n]
        displaced = state & DISPLACED != 0
        total = int(displaced.sum())
        if total == 0:
            return 0.0
        came_back = int((state[displaced] & MIGRANT != 0).sum())
        return came_back / total

    # -- accounting -----------------------------------------------------------

    @property
    def n_customers(self) -> int:
        """Total rows ever materialized (active + churned)."""
        return self._n

    def active_customers(self) -> int:
        """Current market-wide live subscriber count."""
        return int(self.counts.sum())

    def by_name(self) -> dict[str, float]:
        """Live subscriber counts keyed by booter name."""
        return dict(zip(self.names, self.counts.astype(np.float64).tolist()))

    def total(self) -> float:
        """Live subscriber total as a float (aggregate-model API shape)."""
        return float(self.counts.sum())

    def _materialized_spend(self) -> np.ndarray:
        """Lifetime spend per row with the open stints priced in.

        Closed stints were added to the column when they churned; active
        customers have paid every day from their stint's signup day
        through the last stepped day inclusive.
        """
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

    def spend_total(self) -> float:
        """Lifetime spend accrued across every customer row (USD)."""
        return float(self._materialized_spend().sum(dtype=np.float64))

    def nbytes(self) -> int:
        """Resident bytes of the packed customer arrays (capacity, not rows)."""
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

    def digest(self) -> str:
        """SHA-256 over the live ledger state (hex).

        Covers every per-customer column (spend with open stints
        materialized) plus the derived accumulators, so two ledgers
        agree on the digest iff they agree on every customer — the
        determinism pin for chunk-size and ``jobs`` parity tests.
        """
        h = hashlib.sha256()
        h.update(int(self._n).to_bytes(8, "little"))
        h.update(self._booter[: self._n].tobytes())
        h.update(self._signup_day[: self._n].tobytes())
        h.update(self._materialized_spend().tobytes())
        h.update(self._state[: self._n].tobytes())
        h.update(self.counts.tobytes())
        h.update(self.migration_matrix.tobytes())
        h.update(self.tenure_at_churn().tobytes())
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CustomerLedger(n={self._n}, active={self.active_customers()}, "
            f"booters={len(self.names)}, days={self.days_stepped})"
        )
