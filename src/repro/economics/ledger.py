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
plus the active-slot array (4 bytes per used slot, with growth slack)
and bounded per-day transients.

The daily step is event-driven rather than per-row. The active rows
live in one flat int32 slot array in which every booter owns a region,
so each booter's churn probability is a scalar along its own sequence
and the step skip-samples churn *events* with geometric gaps (one draw
per event, no thinning envelope). A day costs a fixed number of array
operations over its events, not a loop over booters: the churn
uniforms of consecutive booters are drawn as one block, and their
gaps, event positions, tombstones, closed stints and appends are
computed for all of them at once. On a typical day only ~2% of
customers churn, and an intervention day only pays event costs on the
seized booter's rows. A booter whose churn probability crosses
:data:`_DENSE_CHURN_THRESHOLD` falls back to the dense per-row path,
chunked to the :data:`_CHUNK_BYTES` transient budget. Both paths consume
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
from dataclasses import dataclass, field
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
#: sizes the chunk rows from the :data:`_CHUNK_BYTES` budget.
_TRANSIENT_BYTES_PER_ROW = 48

#: Transient memory budget of one dense-path chunk.
_CHUNK_BYTES = 32 << 20

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


#: Float64 integers are exact below this: a block of clipped gaps whose
#: total stays under it has an exact cumulative sum.
_EXACT_FLOAT_INT = float(1 << 53)


class _UniformStream:
    """One generator's uniforms in stream order, with read-ahead that can be put back.

    ``Generator.random(n)`` spends one 64-bit output per double, so a
    block read here and handed out in order gives every consumer the
    uniforms its own ``random`` call would have drawn. Uniforms read
    ahead and :meth:`unread` go to the next reader first.
    """

    __slots__ = ("_rng", "_buf", "_at")

    def __init__(self, rng) -> None:
        self._rng = rng
        self._buf = np.empty(0)
        self._at = 0

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms (a read-only view; do not write to it)."""
        have = self._buf.size - self._at
        if n > have:
            fresh = self._rng.random(n - have)
            self._buf = fresh if have == 0 else np.concatenate((self._buf[self._at :], fresh))
            self._at = 0
        out = self._buf[self._at : self._at + n]
        self._at += n
        return out

    def unread(self, n: int) -> None:
        """Put the last ``n`` uniforms of the latest read back at the head."""
        self._at -= n


@dataclass
class _ChurnDay:
    """One day's churn sampling: its per-booter inputs and the events so far.

    ``batch`` is each sparse booter's first batch of gap uniforms (0 for
    the rest), ``limit`` its used-slot count + 1 (1 for the rest) and
    ``forced_end`` marks sparse booters with forced churn. ``slots``
    collects event slot positions booter-major, before the tombstone
    filter, and ``raw`` counts them per booter; ``forced`` collects
    ``(booter, values, scale)``: that booter's churners are forced where
    ``values * scale < p_forced``.
    """

    stream: _UniformStream
    p_total: np.ndarray
    p_forced: np.ndarray
    log_q: np.ndarray
    batch: np.ndarray
    limit: np.ndarray
    forced_end: np.ndarray
    raw: np.ndarray
    slots: list = field(default_factory=list)
    forced: list = field(default_factory=list)


def _skip_sample(rng, m: int, p: float) -> np.ndarray:
    """Positions in ``[0, m)`` of iid Bernoulli(``p``) events, ``0 < p < 1``.

    Draws one geometric gap per event (batched, refilling until the
    running position passes ``m``), so a 2%-churn day over 10^7 rows
    consumes ~2 x 10^5 draws instead of 10^7. The number of generator
    draws depends only on the realized gaps — never on chunking — so the
    consumption pattern is deterministic per seed. The step computes a
    first batch for many booters at once and calls this only for a
    booter whose first batch ended below ``m``.
    """
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
    spend for active customers. :attr:`chunk_rows` bounds per-step
    transient memory to :data:`_CHUNK_BYTES`; it never changes results
    (property-tested: digests are identical across chunk sizes).

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
        reserve_rows: int | None = None,
    ) -> None:
        if n_customers < 0:
            raise ValueError("n_customers cannot be negative")
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
        self.chunk_rows = _CHUNK_BYTES // _TRANSIENT_BYTES_PER_ROW

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
        # Active row indices: one int32 slot array in which booter b owns
        # the region [_start[b], _start[b] + _cap[b]) and uses its first
        # _aused[b] slots, in insertion order (deterministic). Each
        # booter's churn probability is a scalar along its own sequence,
        # so churn events skip-sample with no thinning and no step
        # rescans the state column. Churned rows become -1 tombstones in
        # place (an O(events) scatter, not an O(active) rebuild) and a
        # region compacts only once tombstones pass half of its used
        # slots, so active-set upkeep is amortized O(1) per event.
        self._cap = np.maximum(initial + (initial >> 1), 64)
        self._start = np.cumsum(self._cap) - self._cap
        self._slots = np.empty(int(self._cap.sum()), dtype=np.int32)
        row = 0
        for b in np.flatnonzero(initial):
            s, n = int(self._start[b]), int(initial[b])
            self._slots[s : s + n] = np.arange(row, row + n, dtype=np.int32)
            row += n
        self._aused = initial.astype(np.int64)
        self._adead = np.zeros(n_booters, dtype=np.int64)
        self._known = frozenset(self.names)
        self._ids = np.arange(n_booters)
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

    def _relayout(self, need: np.ndarray) -> None:
        """Move every region to a fresh slot array with room for ``need`` slots.

        Each booter gets 1.5x its need (amortized O(1) per append); the
        used slots, tombstones included, are copied region by region.
        """
        cap = np.maximum(need + (need >> 1), 64)
        start = np.cumsum(cap) - cap
        slots = np.empty(int(cap.sum()), dtype=np.int32)
        for b in np.flatnonzero(self._aused):
            old, new, used = int(self._start[b]), int(start[b]), int(self._aused[b])
            slots[new : new + used] = self._slots[old : old + used]
        self._slots, self._start, self._cap = slots, start, cap

    def _append_active(
        self,
        migrants: np.ndarray,
        dest: np.ndarray,
        dest_counts: np.ndarray,
        births: np.ndarray,
        first_birth: int,
    ) -> None:
        """Append the day's arrivals to their booters' sequences, all booters at once.

        Each booter gets its migrants first, in arrival order, then its
        newborn rows; the newborn rows are numbered from
        ``first_birth`` booter-major.
        """
        need = self._aused + dest_counts + births
        if (need > self._cap).any():
            self._relayout(need)
        tail = self._start + self._aused
        if migrants.size:
            # A stable sort groups the migrants by destination and keeps
            # their arrival order inside each group.
            order = dest.argsort(kind="stable")
            offset = tail - dest_counts.cumsum() + dest_counts
            at = np.arange(migrants.size) + offset.repeat(dest_counts)
            self._slots[at] = migrants[order]
            tail += dest_counts
        n_births = int(births.sum())
        if n_births:
            rows = np.arange(n_births)
            offset = tail - births.cumsum() + births
            self._slots[rows + offset.repeat(births)] = rows + first_birth
        self._aused = need

    def _compact(self) -> None:
        """Drop the tombstones of every region that turned half dead.

        A deterministic trigger (it depends only on the event history,
        never on chunking or timing); a booter compacts about once a
        month at the default churn, so this visits few regions a day.
        """
        for b in (self._adead * 2 > self._aused).nonzero()[0]:
            start, used = int(self._start[b]), int(self._aused[b])
            region = self._slots[start : start + used]
            live = region[region >= 0]
            self._slots[start : start + live.size] = live
            self._aused[b] = live.size
            self._adead[b] = 0

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
        if mapping is None or (isinstance(mapping, Mapping) and not mapping):
            return np.full(len(self.names), default)
        if isinstance(mapping, Mapping):
            unknown = [name for name in mapping if name not in self._known]
            if unknown:
                raise ValueError(
                    f"unknown booters {sorted(unknown)!r}: the market has {self.names!r}"
                )
            return np.array([mapping.get(n, default) for n in self.names], dtype=np.float64)
        arr = np.asarray(mapping, dtype=np.float64)
        if arr.shape != (len(self.names),):
            raise ValueError("per-booter array must have one entry per booter")
        return arr

    def _churn_events(self, rng, p_total: np.ndarray, p_forced: np.ndarray):
        """Select this day's churners along each booter's active sequence.

        Returns ``(slots, rows, forced, events, n_chunks)``: the slot
        indices of the churned live rows, booter-major and ascending
        within a booter; the row ids in those slots; a boolean per
        churner marking intervention-forced churn (``None`` when no
        booter has any), where the deciding uniform conditioned on the
        event is U(0, ``p_total[b]``) and forced means it landed below
        ``p_forced[b]``; and the per-booter event counts.

        Within a booter the churn probability is a single scalar, so a
        sparse booter skip-samples its events directly (every candidate
        *is* a churner, no thinning) and draws classifying uniforms only
        when it has an intervention (``p_forced > 0``), right after its
        gap batch. A booter pushed past :data:`_DENSE_CHURN_THRESHOLD`
        draws one uniform per slot, chunked to the transient budget.
        Draws are consumed booter by booter in index order; the sparse
        booters between two dense ones form one section, whose
        uniforms are read as one block (:meth:`_sparse_section`). Events
        landing on tombstone slots are discarded after the draw, which
        leaves every live row an independent Bernoulli(``p``) and keeps
        draw consumption a function of day parameters and the
        (deterministic) used-slot counts only.
        """
        n_booters = len(self.names)
        used = self._aused
        expect = used * p_total
        sparse = expect > 0.0  # draws at all; dense booters are removed below
        dense_at = (sparse & (p_total >= _DENSE_CHURN_THRESHOLD)).nonzero()[0]
        if dense_at.size:
            sparse[dense_at] = False
        batch = (expect + 6.0 * np.sqrt(expect + 1.0) + 16.0).astype(np.int64)
        batch *= sparse
        n_chunks = int(np.count_nonzero(sparse))
        with np.errstate(over="ignore", divide="ignore"):
            day = _ChurnDay(
                stream=_UniformStream(rng),
                p_total=p_total,
                p_forced=p_forced,
                log_q=np.log1p(-p_total),
                batch=batch,
                limit=used * sparse + 1.0,
                forced_end=sparse & (p_forced > 0.0),
                raw=np.zeros(n_booters, dtype=np.int64),
            )
            lo = 0
            for d in dense_at.tolist() + [n_booters]:
                while lo < d:
                    lo = self._sparse_section(day, lo, d)
                if d < n_booters:
                    n_chunks += self._dense_booter(day, d)
                lo = d + 1

        raw = day.raw
        if not day.slots:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty.astype(np.int32), None, raw, n_chunks
        # Regions lie in booter order and each part ascends, so ``slots``
        # ascends: it is sorted by booter as well as within each booter.
        slots = np.concatenate(day.slots, dtype=np.intp, casting="unsafe")
        rows = self._slots[slots]
        forced = None
        if day.forced:
            booters, values, scales = zip(*day.forced)
            booters = np.array(booters)
            n_forced = raw[booters]
            values = np.concatenate(values)
            values *= np.array(scales).repeat(n_forced)
            # Each forced booter's churners sit at its offset in ``slots``.
            offset = raw.cumsum() - raw
            offset = offset[booters] - n_forced.cumsum() + n_forced
            forced = np.zeros(slots.size, dtype=bool)
            forced[np.arange(values.size) + offset.repeat(n_forced)] = (
                values < p_forced[booters].repeat(n_forced)
            )
        live = rows >= 0
        if live.all():
            return slots, rows, forced, raw, n_chunks
        slots = slots[live]
        events = np.diff(slots.searchsorted(self._start), append=slots.size)
        return (
            slots,
            rows[live],
            None if forced is None else forced[live],
            events,
            n_chunks,
        )

    def _sparse_section(self, day: "_ChurnDay", lo: int, hi: int) -> int:
        """Skip-sample the sparse booters of ``[lo, hi)`` from one block of uniforms.

        The stream holds each booter's first gap batch in booter order,
        and after a booter with forced churn as many classifying
        uniforms as it has events. So the section splits into *runs*
        that end at each such booter: a run's batches are contiguous and
        its gaps, cuts and event positions are computed for all of its
        booters at once, while the next run starts only once the forced
        booter's event count is known. The block holds every batch plus
        the most classifying uniforms a first batch can produce (one
        less than its size); what the runs leave is put back.

        A booter whose first batch ends below its used-slot count needs
        refill batches drawn right after it; the section stops there,
        that booter is sampled by :func:`_skip_sample` from the stream,
        and the next section starts after it. Returns the booter index
        to continue from.
        """
        batch = day.batch[lo:hi]
        ends = day.forced_end[lo:hi].nonzero()[0]
        need = int(batch.sum()) + int(batch[ends].sum()) - ends.size
        if need == 0:
            return hi
        block = day.stream.random(need)
        # log(1 - u) of the whole block: the gap numerators of every batch.
        logs = np.log1p(-block)
        at = 0
        first = lo
        for last in (ends + lo).tolist() + [hi - 1]:
            if last < first:
                continue
            if first == last:
                stop, at = self._sparse_booter(day, logs, at, first)
            else:
                stop, at = self._sparse_run(day, logs, at, first, last)
            if stop is not None:  # a first batch ended below m: refill
                day.stream.unread(need - at)
                self._refill_booter(day, stop)
                return stop + 1
            if day.forced_end[last]:
                n = int(day.raw[last])
                day.forced.append((last, block[at : at + n], day.p_total[last]))
                at += n
            first = last + 1
        day.stream.unread(need - at)
        return hi

    def _sparse_booter(self, day: "_ChurnDay", logs: np.ndarray, at: int, b: int):
        """One booter's first batch at ``logs[at:]``; returns ``(refill, at)``."""
        k = int(day.batch[b])
        if k == 0:  # draws nothing today
            return None, at
        gaps = logs[at : at + k] / day.log_q[b]
        np.ceil(gaps, out=gaps)
        np.maximum(gaps, 1.0, out=gaps)
        points = np.add.accumulate(gaps)  # event slot + 1 along the sequence
        # Integral points: ``points - 1 < m`` iff ``points < m + 1``.
        cut = int(points.searchsorted(day.limit[b]))
        if cut == k:
            return b, at
        points = points[:cut]
        points += float(self._start[b] - 1)
        day.slots.append(points)
        day.raw[b] = cut
        return None, at + k

    def _sparse_run(self, day: "_ChurnDay", logs: np.ndarray, at: int, lo: int, hi: int):
        """The first batches of booters ``lo..hi`` at ``logs[at:]``, all at once.

        Gaps are clipped to the largest used-slot count + 1 (a larger
        gap overshoots every sequence anyway), so their cumulative sum
        over the whole run is exact in float64; one ``searchsorted`` of
        per-booter thresholds into it finds every booter's cut.
        Returns ``(refill, at)``: the first booter whose batch ended
        below its count (events kept only for booters before it), or
        ``None`` and the offset after the run.
        """
        ks = day.batch[lo : hi + 1]
        total = int(ks.sum())
        cap = float(day.limit[lo : hi + 1].max())
        if total * cap >= _EXACT_FLOAT_INT:  # beyond exact sums: one by one
            for b in range(lo, hi + 1):
                stop, at = self._sparse_booter(day, logs, at, b)
                if stop is not None:
                    return stop, at
            return None, at
        sums = np.empty(total + 1)
        sums[0] = 0.0
        gaps = sums[1:]
        np.divide(logs[at : at + total], day.log_q[lo : hi + 1].repeat(ks), out=gaps)
        np.ceil(gaps, out=gaps)
        np.maximum(gaps, 1.0, out=gaps)
        np.minimum(gaps, cap, out=gaps)
        np.add.accumulate(sums, out=sums)
        points = sums[1:]
        starts = ks.cumsum()
        starts -= ks
        before = sums[starts]
        # A booter's events are its batch's points below ``before + m + 1``;
        # a booter that draws nothing has limit ``before + 1`` and none.
        limit = before + day.limit[lo : hi + 1]
        cuts = points.searchsorted(limit)
        cuts -= starts
        short = ((cuts >= ks) & (ks > 0)).nonzero()[0]
        if short.size:
            stop = int(short[0])
            ks, limit, before, cuts = ks[:stop], limit[:stop], before[:stop], cuts[:stop]
            total = int(starts[stop])
            points = points[:total]
        events = points[points < limit.repeat(ks)]
        events += (self._start[lo : lo + ks.size] - 1 - before).repeat(cuts)
        day.slots.append(events)
        day.raw[lo : lo + ks.size] = cuts
        return (lo + stop if short.size else None), at + total

    def _refill_booter(self, day: "_ChurnDay", b: int) -> None:
        """Sample booter ``b``, whose first batch ended below its used-slot count."""
        pos = _skip_sample(day.stream, int(self._aused[b]), float(day.p_total[b]))
        day.slots.append(pos + self._start[b])
        day.raw[b] = pos.size
        if day.forced_end[b]:
            day.forced.append((b, day.stream.random(pos.size), day.p_total[b]))

    def _dense_booter(self, day: "_ChurnDay", b: int) -> int:
        """One uniform per used slot of booter ``b``, chunk by chunk; returns chunks."""
        used, start = int(self._aused[b]), int(self._start[b])
        p, pf = float(day.p_total[b]), float(day.p_forced[b])
        hits_parts, values = [], []
        n_chunks = 0
        for c0 in range(0, used, self.chunk_rows):
            c1 = min(used, c0 + self.chunk_rows)
            n_chunks += 1
            uu = day.stream.random(c1 - c0)
            hits = (uu < p).nonzero()[0]
            if hits.size:
                hits_parts.append(hits + (start + c0))
                values.append(uu[hits])
        if hits_parts:
            hits = np.concatenate(hits_parts)
            day.slots.append(hits)
            day.raw[b] = hits.size
            if pf > 0.0:
                day.forced.append((b, np.concatenate(values), 1.0))
        return n_chunks

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
        model rather than a division by zero. A mapping that names a
        booter the market does not have raises :class:`ValueError`.
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
        p_forced = self._per_booter(extra_churn, 0.0)
        # min/max propagate NaN, so a NaN entry fails these checks too.
        if not (mult.min() >= 0.0 and p_forced.min() >= 0.0 and p_forced.max() <= 1.0):
            raise ValueError("invalid intervention multipliers")

        registry = metrics()
        weights = self.popularity * mult
        total_weight = weights.sum()
        p_total = np.minimum(self.dynamics.churn_per_day + p_forced, 1.0)

        # Day-level draws (booter granularity, one stream per day).
        rng_day = self._seeds.child("day", day).rng()
        level = rng_day.lognormal(0.0, self.dynamics.signup_noise_sigma)
        if total_weight > 0:
            lam = self.dynamics.market_signups_per_day * level * (weights / total_weight)
            births = rng_day.poisson(lam).astype(np.int64, copy=False)
        else:
            births = np.zeros(n_booters, dtype=np.int64)

        # Per-customer draws: one dedicated stream per operation, each
        # consumed booter by booter along that booter's active sequence
        # — neither chunk boundaries nor the sparse/dense path split (a
        # day-level parameter) changes which draw a given customer sees.
        active_before = int(self.counts.sum())
        slots, churn_rows, forced, events, n_chunks = self._churn_events(
            self._seeds.child("day", day, "churn").rng(), p_total, p_forced
        )

        # Close the churned stints: tenure, counts, flags, stint spend.
        n_churned = int(events.sum())
        n_displaced = n_migrated = 0
        migrants = np.empty(0, dtype=np.int32)
        dest = np.empty(0, dtype=np.int16)
        dest_counts = np.zeros(n_booters, dtype=np.int64)
        if n_churned:
            # Tombstone the churned slots in place; compaction (below)
            # reclaims them only when a region turns half dead.
            self._slots[slots] = -1
            self._adead += events
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
                self._spend[churn_rows] += self._price_f32.repeat(events) * stint_days

            if forced is not None:
                n_displaced = int(np.count_nonzero(forced))
            if n_displaced:
                st[forced] |= DISPLACED
                forced_rows = churn_rows[forced]
                # One uniform decides re-sign *and* destination: v <
                # migration_fraction gates the re-sign, and within that
                # event v / migration_fraction is again uniform, so the
                # inverse-CDF lookup reuses it for the destination. The
                # stream is fresh each day, so it is built only on a day
                # with displaced churners.
                v = self._seeds.child("day", day, "migrate").rng().random(n_displaced)
                if total_weight > 0 and migration_fraction > 0:
                    migrate_mask = v < migration_fraction
                    n_migrated = int(np.count_nonzero(migrate_mask))
                if n_migrated:
                    dest_cdf = np.cumsum(weights / total_weight)
                    to = np.searchsorted(
                        dest_cdf, v[migrate_mask] / migration_fraction, side="right"
                    )
                    np.minimum(to, n_booters - 1, out=to)
                    migrants = forced_rows[migrate_mask]
                    origin = self._ids.repeat(events)[forced][migrate_mask]
                    st[forced.nonzero()[0][migrate_mask]] |= ACTIVE | MIGRANT
                    dest = to.astype(np.int16)
                    self._booter[migrants] = dest
                    self._signup_day[migrants] = day
                    dest_counts = np.bincount(to, minlength=n_booters)
                    self.counts += dest_counts
                    self.migration_matrix.ravel()[:] += np.bincount(
                        origin * n_booters + to, minlength=n_booters * n_booters
                    )
            self._state[churn_rows] = st

        # Organic signups: fresh rows appended booter-major (no draw
        # needed beyond the per-booter Poisson counts above).
        total_births = int(births.sum())
        first_birth = self._n
        if total_births:
            self._ensure_capacity(self._n + total_births)
            grow = slice(self._n, self._n + total_births)
            self._booter[grow] = self._ids.repeat(births)
            self._signup_day[grow] = day
            self._spend[grow] = 0.0
            self._state[grow] = ACTIVE
            self._n += total_births
            self.counts += births
        if n_migrated or total_births:
            self._append_active(migrants, dest, dest_counts, births, first_birth)

        # Amortized upkeep: the lazy half-dead threshold trades some
        # tombstone-slot oversampling in the churn draw for half as many
        # O(live) compaction copies.
        self._compact()

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
            # Region by region, so the transients stay one booter's size.
            for b in self._aused.nonzero()[0]:
                start = int(self._start[b])
                region = self._slots[start : start + int(self._aused[b])]
                rows = region[region >= 0]
                open_days = (self.days_stepped - self._signup_day[rows]).astype(np.int64)
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
            + self._slots.nbytes
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
