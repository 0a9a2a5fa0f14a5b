//! Per-channel command scheduling with an FR-FCFS reordering window.
//!
//! The window lives in a slab of `sched_window + 1` request slots linked
//! in arrival order on a doubly linked list, so a request picked out of
//! FCFS order unlinks in O(1). The arrival head is always the oldest live
//! request; nothing goes stale and nothing is allocated after
//! construction. The scheduler runs in one of two states, told apart by
//! the count of pending row queues that mismatch their bank's open row:
//!
//! * **All hits** (`mismatched_total == 0`): every queued request hits its
//!   bank's open row, so the FR-FCFS pick is the arrival head and there is
//!   no background preparation to do. The window is the arrival list
//!   alone — a push links one slot, a pick unlinks the head — and the row
//!   index below is empty. Long streaming sweeps spend almost every issue
//!   here.
//! * **Indexed**: a push that misses its bank's open row, or a refresh
//!   that closes the banks, builds the row index from the arrival list (at
//!   most `sched_window` entries). Each slot then also sits on its bank's
//!   per-row queue (singly linked in arrival order, headed by a small
//!   per-bank row index), and the scheduler maintains the per-bank count
//!   of mismatching rows and the per-bank front seq of the open row's
//!   queue (the hit index). The oldest request decides most picks: if it
//!   is a row hit it *is* the oldest hit; if it is a non-hit it is the
//!   background preparation candidate, and a successful activation makes
//!   it the pick. Only a victim-blocked preparation takes the minimum over
//!   the hit index, whose entries pack `(front_seq << bank_bits) | bank`
//!   so that a plain `min` over one flat array yields both the oldest hit
//!   and its bank. Once background preparation activates the last
//!   mismatching row, the index is dropped again.
//!
//! Either way every pick is a row hit: activations happen only in
//! background preparation, so issuing a request is one column command,
//! gated by the bank's row-ready cycle, tCCD_L/tCCD_S, the data bus and
//! read/write turnaround.

use crate::bank::{Bank, RowOutcome};
use crate::config::DramConfig;
use crate::stats::DramStats;
use guardnn_obs::Recorder;
use std::collections::VecDeque;

/// Null slab link.
const NIL: usize = usize::MAX;

/// Hit-index entry of a bank without a pending row hit; above every
/// packed key.
const NO_HIT: u64 = u64::MAX;

/// A decoded transaction bound for one channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Flat bank index within the channel (rank × group × bank).
    pub bank: usize,
    /// Bank-group index (for tCCD_L vs tCCD_S).
    pub bank_group: usize,
    /// Row within the bank.
    pub row: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
}

/// One slab slot: a queued request and its intrusive list links. Free
/// slots are chained through `next_in_row`, which is meaningful for a live
/// slot only while the row index is built.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Global arrival sequence number (FCFS tiebreak).
    seq: u64,
    bank: usize,
    bank_group: usize,
    row: u64,
    is_write: bool,
    /// Next request of the same (bank, row) queue, or the next free slot.
    next_in_row: usize,
    /// Older neighbour on the arrival list.
    prev: usize,
    /// Younger neighbour on the arrival list.
    next: usize,
}

/// Pending requests for one row of one bank: a slab list from `head` to
/// `tail` in arrival order. Row queues are dropped when drained, so the
/// list is never empty; `front_seq` is the seq of `head`, cached for the
/// pick/prep scans.
#[derive(Clone, Copy, Debug)]
struct RowQueue {
    row: u64,
    head: usize,
    tail: usize,
    front_seq: u64,
}

/// One memory channel: banks, scheduler queues, shared data bus.
#[derive(Clone, Debug)]
pub struct Channel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    /// Per-bank row queues, empty in the all-hit state. A realistic window
    /// holds a handful of rows per bank, so the row list is a plain vector
    /// scanned linearly.
    pending: Vec<Vec<RowQueue>>,
    /// The window's request slots (`sched_window + 1`: a push may overfill
    /// the window by one before it issues).
    slots: Vec<Slot>,
    /// Head of the free-slot chain.
    free: usize,
    /// Arrival-list head (the oldest live request) and tail.
    oldest: usize,
    newest: usize,
    /// Live (unissued) requests across all row queues.
    queued: usize,
    /// Next arrival sequence number.
    next_seq: u64,
    /// Per-bank count of row queues whose row is not the bank's open row —
    /// the requests background row preparation could work on (all zero in
    /// the all-hit state).
    mismatched: Vec<usize>,
    /// Per-bank key `(front_seq << bank_bits) | bank` of the row queue
    /// matching the bank's open row ([`NO_HIT`] when none): the dense hit
    /// index. A bank holds at most one such queue and seqs are unique, so
    /// the minimum key anywhere is the oldest pending row hit, bank
    /// included — the victim-blocked FR-FCFS pick is one `min` over this
    /// array instead of a rescan of every row queue, and `try_prepare`'s
    /// victim check is a single compare. Padded with [`NO_HIT`] to a
    /// multiple of 8 entries for the pick's fixed-width chunks; all
    /// [`NO_HIT`] in the all-hit state.
    hit_front: Vec<u64>,
    /// Bits holding the bank index in a `hit_front` key.
    bank_bits: u32,
    /// Sum of `mismatched` across banks. Zero is the all-hit state: every
    /// pending request is a row hit, the row index is not maintained and
    /// the pick is the arrival head.
    mismatched_total: usize,
    /// Cached oldest pending non-hit for background preparation:
    /// `None` = stale (recompute), `Some(x)` = known answer. Unused in the
    /// all-hit state.
    mis_cache: Option<Option<(u64, usize, u64)>>,
    /// Current scheduling time (cycle of the last issued column command).
    now: u64,
    /// Cycle at which the data bus becomes free.
    bus_free: u64,
    /// Earliest cycle of the next column command per bank group: the
    /// group's last column command plus tCCD_L (0 before its first).
    ccd_l_gate: Vec<u64>,
    /// Earliest cycle of the next column command in any group: the last
    /// column command plus tCCD_S (0 before the first).
    ccd_s_gate: u64,
    /// Whether the previous burst was a write (turnaround penalties).
    last_was_write: bool,
    /// Cycle the most recent write burst left the data bus (tWTR counts
    /// from here, not from the WRITE command).
    last_write_end: u64,
    /// Recent activate timestamps for the tFAW window.
    recent_acts: VecDeque<u64>,
    /// Next scheduled refresh.
    next_refresh: u64,
    stats: DramStats,
    /// Metrics hook; `None` (the default) costs one branch per issue.
    /// Boxed so the disabled case adds no bulk to the scheduler's
    /// cache-resident state.
    obs: Option<Box<ChannelObs>>,
}

/// Issues between consecutive time-series samples. Sampling is on the
/// scheduler's hot path, so it is throttled rather than per-issue.
const OBS_SAMPLE_EVERY: u32 = 1024;

/// Per-channel observability state: bounded time-series of queue depth
/// and cumulative row hit-rate keyed by scheduler cycle, plus workspace
/// counter deltas exported at drain time. Purely passive — it reads
/// scheduler state and never influences a scheduling decision, so
/// observed and unobserved runs stay bit-identical.
#[derive(Clone, Debug)]
struct ChannelObs {
    rec: Recorder,
    /// Issues remaining until the next series sample.
    sample_left: u32,
    /// Stats already exported as counters; drain exports the delta.
    reported: DramStats,
    /// Cached series names (avoid a `format!` per sample).
    qd_name: String,
    hr_name: String,
}

impl ChannelObs {
    /// Samples queue depth and row hit-rate at scheduler cycle `now`.
    fn sample(&mut self, now: u64, queued: usize, stats: &DramStats) {
        self.rec.sample(&self.qd_name, now, queued as f64);
        let cols = stats.row_hits + stats.row_misses + stats.row_conflicts;
        if cols > 0 {
            self.rec
                .sample(&self.hr_name, now, stats.row_hits as f64 / cols as f64);
        }
    }

    /// Exports the counter delta since the previous drain.
    fn export(&mut self, stats: &DramStats) {
        let r = self.reported;
        self.rec.add("dram.reads", stats.reads - r.reads);
        self.rec.add("dram.writes", stats.writes - r.writes);
        self.rec.add("dram.row_hits", stats.row_hits - r.row_hits);
        self.rec
            .add("dram.row_misses", stats.row_misses - r.row_misses);
        self.rec
            .add("dram.row_conflicts", stats.row_conflicts - r.row_conflicts);
        self.rec
            .add("dram.refreshes", stats.refreshes - r.refreshes);
        self.reported = *stats;
    }
}

impl Channel {
    /// Creates an idle channel reporting to the process-global recorder
    /// (a no-op unless observability is enabled) as channel index 0.
    pub fn new(cfg: DramConfig) -> Self {
        Self::with_observer(cfg, Recorder::global().clone(), 0)
    }

    /// Creates an idle channel reporting metrics to `recorder` under the
    /// per-channel names `dram.chan{index}.*`.
    pub fn with_observer(cfg: DramConfig, recorder: Recorder, index: usize) -> Self {
        let obs = recorder.is_enabled().then(|| {
            Box::new(ChannelObs {
                rec: recorder,
                sample_left: OBS_SAMPLE_EVERY,
                reported: DramStats::default(),
                qd_name: format!("dram.chan{index}.queue_depth"),
                hr_name: format!("dram.chan{index}.row_hit_rate"),
            })
        });
        let banks = vec![Bank::new(); cfg.banks_per_channel()];
        let pending = vec![Vec::new(); cfg.banks_per_channel()];
        let mismatched = vec![0; cfg.banks_per_channel()];
        let hit_front = vec![NO_HIT; cfg.banks_per_channel().next_multiple_of(8)];
        let bank_bits = usize::BITS - cfg.banks_per_channel().saturating_sub(1).leading_zeros();
        let ccd_l_gate = vec![0; cfg.bank_groups];
        let slots = (1..=cfg.sched_window + 1)
            .map(|next_free| Slot {
                next_in_row: if next_free > cfg.sched_window {
                    NIL
                } else {
                    next_free
                },
                ..Slot::default()
            })
            .collect();
        Self {
            next_refresh: cfg.timing.refi,
            cfg,
            banks,
            pending,
            slots,
            free: 0,
            oldest: NIL,
            newest: NIL,
            queued: 0,
            next_seq: 0,
            mismatched,
            hit_front,
            bank_bits,
            mismatched_total: 0,
            mis_cache: Some(None),
            now: 0,
            bus_free: 0,
            ccd_l_gate,
            ccd_s_gate: 0,
            last_was_write: false,
            last_write_end: 0,
            recent_acts: VecDeque::new(),
            stats: DramStats::default(),
            obs,
        }
    }

    /// Enqueues a transaction, issuing older ones when the scheduler window
    /// fills.
    #[inline]
    pub fn push(&mut self, req: Request) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free;
        self.free = self.slots[slot].next_in_row;
        self.slots[slot] = Slot {
            seq,
            bank: req.bank,
            bank_group: req.bank_group,
            row: req.row,
            is_write: req.is_write,
            next_in_row: NIL,
            prev: self.newest,
            next: NIL,
        };
        match self.newest {
            NIL => self.oldest = slot,
            newest => self.slots[newest].next = slot,
        }
        self.newest = slot;
        self.queued += 1;
        if self.mismatched_total > 0 {
            self.index_slot(slot);
        } else if self.banks[req.bank].open_row() != Some(req.row) {
            self.build_index();
        }
        while self.queued > self.cfg.sched_window {
            self.issue_one();
        }
    }

    /// Issues everything still queued and returns the statistics so far.
    pub fn drain(&mut self) -> DramStats {
        while self.queued > 0 {
            self.issue_one();
        }
        if let Some(obs) = &mut self.obs {
            obs.export(&self.stats);
        }
        self.stats
    }

    /// Current statistics without draining.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The hit-index key of a hit queue fronted by `seq` in `bank`.
    #[inline]
    fn hit_key(&self, seq: u64, bank: usize) -> u64 {
        seq << self.bank_bits | bank as u64
    }

    /// Files `slot`, the youngest request indexed so far, at the tail of
    /// its bank's row queue, maintaining the mismatch counts and the hit
    /// index.
    #[inline]
    fn index_slot(&mut self, slot: usize) {
        let Slot { seq, bank, row, .. } = self.slots[slot];
        let rows = &mut self.pending[bank];
        if let Some(rq) = rows.iter_mut().find(|rq| rq.row == row) {
            self.slots[rq.tail].next_in_row = slot;
            rq.tail = slot;
        } else {
            rows.push(RowQueue {
                row,
                head: slot,
                tail: slot,
                front_seq: seq,
            });
            if self.banks[bank].open_row() != Some(row) {
                self.mismatched[bank] += 1;
                self.mismatched_total += 1;
                // A new queue carries the youngest seq, so it only fills an
                // empty (but valid) preparation cache.
                if let Some(cached @ None) = &mut self.mis_cache {
                    *cached = Some((seq, bank, row));
                }
            } else {
                // At most one queue per row, so this bank had no hit queue
                // before: the new queue's front is its hit front.
                self.hit_front[bank] = self.hit_key(seq, bank);
            }
        }
    }

    /// Leaves the all-hit state: files every queued request under the row
    /// index, oldest first. The walk visits at most `sched_window + 1`
    /// slots and leaves the preparation cache valid.
    fn build_index(&mut self) {
        self.mis_cache = Some(None);
        let mut slot = self.oldest;
        while slot != NIL {
            // Start each rebuilt row queue from clean links, whatever the
            // slot linked before the last drop.
            self.slots[slot].next_in_row = NIL;
            self.index_slot(slot);
            slot = self.slots[slot].next;
        }
    }

    /// Returns to the all-hit state once no pending row mismatches its
    /// bank's open row: the row queues and the hit index are emptied.
    fn drop_index(&mut self) {
        debug_assert_eq!(self.mismatched_total, 0);
        for rows in &mut self.pending {
            rows.clear();
        }
        self.hit_front.fill(NO_HIT);
    }

    /// Unfiles the front request of `bank`'s queue for its open `row` and
    /// returns its slot, maintaining the hit index. Every pick is a row
    /// hit, so the mismatch counts never change here.
    #[inline]
    fn pop_row_front(&mut self, bank: usize, row: u64) -> usize {
        let rows = &mut self.pending[bank];
        let idx = rows
            .iter()
            .position(|rq| rq.row == row)
            // lint:allow(panic-discipline) — callers pass (bank, row) taken from the pending index
            .expect("pending row present");
        let slot = rows[idx].head;
        let next = self.slots[slot].next_in_row;
        if next == NIL {
            rows.swap_remove(idx);
            self.hit_front[bank] = NO_HIT;
        } else {
            let next_seq = self.slots[next].seq;
            rows[idx].head = next;
            rows[idx].front_seq = next_seq;
            self.hit_front[bank] = self.hit_key(next_seq, bank);
        }
        slot
    }

    /// Removes `slot` from the arrival list, frees it and returns its
    /// request.
    #[inline]
    fn unlink(&mut self, slot: usize) -> Request {
        let s = self.slots[slot];
        match s.prev {
            NIL => self.oldest = s.next,
            prev => self.slots[prev].next = s.next,
        }
        match s.next {
            NIL => self.newest = s.prev,
            next => self.slots[next].prev = s.prev,
        }
        self.slots[slot].next_in_row = self.free;
        self.free = slot;
        self.queued -= 1;
        Request {
            bank: s.bank,
            bank_group: s.bank_group,
            row: s.row,
            is_write: s.is_write,
        }
    }

    /// Earliest cycle the tFAW window allows another activate.
    fn faw_gate(&self) -> u64 {
        match self.recent_acts.len() {
            4 => self.recent_acts[0] + self.cfg.timing.faw,
            _ => 0,
        }
    }

    /// Records `bank`'s activate in the tFAW window and re-indexes its
    /// pending rows against the newly open row.
    fn note_activate(&mut self, bank: usize) {
        if self.recent_acts.len() == 4 {
            self.recent_acts.pop_front();
        }
        self.recent_acts.push_back(self.banks[bank].activated_at());
        self.note_row_change(bank);
    }

    /// Recomputes the mismatch count and the hit front for `bank` after
    /// its open row changed (activation or refresh).
    #[inline]
    fn note_row_change(&mut self, bank: usize) {
        self.mis_cache = None;
        let open = self.banks[bank].open_row();
        let mut new = 0;
        let mut hit_front = NO_HIT;
        for rq in &self.pending[bank] {
            if Some(rq.row) == open {
                hit_front = self.hit_key(rq.front_seq, bank);
            } else {
                new += 1;
            }
        }
        self.hit_front[bank] = hit_front;
        self.mismatched_total = self.mismatched_total - self.mismatched[bank] + new;
        self.mismatched[bank] = new;
    }

    /// Recomputes (or returns the cached) oldest pending non-hit — the
    /// background row-preparation candidate. The cache is invalidated by
    /// open-row changes; pushes only ever append younger requests, so they
    /// cannot displace a valid minimum, and pops only take row hits.
    fn oldest_mismatched(&mut self) -> Option<(u64, usize, u64)> {
        if let Some(cached) = self.mis_cache {
            return cached;
        }
        let mut best: Option<(u64, usize, u64)> = None;
        for (bank_idx, rows) in self.pending.iter().enumerate() {
            if self.mismatched[bank_idx] == 0 {
                continue;
            }
            let open = self.banks[bank_idx].open_row();
            for rq in rows {
                if open != Some(rq.row) && best.is_none_or(|(s, _, _)| rq.front_seq < s) {
                    best = Some((rq.front_seq, bank_idx, rq.row));
                }
            }
        }
        self.mis_cache = Some(best);
        best
    }

    /// Background row preparation: ACT/PRE for `(bank, row)` — unless
    /// another queued request still wants the victim row. Returns whether
    /// the activation happened. The victim check is one read of the hit
    /// index: a pending queue for the open row exists iff the bank's hit
    /// front is set.
    fn try_prepare(&mut self, bank: usize, row: u64) -> bool {
        if self.hit_front[bank] != NO_HIT {
            return false;
        }
        let issue_from = self.now.max(self.faw_gate());
        let (outcome, _) = self.banks[bank].access_row(row, issue_from, &self.cfg.timing);
        self.note_activate(bank);
        match outcome {
            RowOutcome::Hit => {}
            RowOutcome::Miss => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        true
    }

    /// The FR-FCFS pick — oldest row hit first, else the oldest request —
    /// after background row preparation. In the all-hit state the arrival
    /// head is the oldest hit and there is nothing to prepare.
    #[inline]
    fn pick(&mut self) -> Request {
        let slot = if self.mismatched_total == 0 {
            self.oldest
        } else {
            self.pick_indexed()
        };
        self.unlink(slot)
    }

    /// The indexed pick: background preparation, then the slot of the
    /// oldest row hit, unfiled from the row index.
    ///
    /// The oldest live request (the arrival head) collapses most of the
    /// work: if it is a hit, it *is* the oldest hit, and preparation works
    /// on the cached oldest non-hit; if it is a non-hit, it *is* the
    /// preparation candidate, and a successful activation turns it into
    /// the pick. Only a victim-blocked preparation needs a scan over the
    /// open-row index to find the oldest hit.
    fn pick_indexed(&mut self) -> usize {
        let front = self.slots[self.oldest];
        let (bank, row) = if self.banks[front.bank].open_row() == Some(front.row) {
            if let Some((_, bank, row)) = self.oldest_mismatched() {
                self.try_prepare(bank, row);
            }
            (front.bank, front.row)
        } else if self.try_prepare(front.bank, front.row) {
            // The oldest request was the oldest non-hit: its row is now
            // open, so it is the oldest hit.
            (front.bank, front.row)
        } else {
            // Preparation refused to close the victim row, so its pending
            // hits exist; the oldest hit anywhere goes first. Its packed
            // key is the min of the dense hit index, and the key's low bits
            // name its bank — no rescan of the row queues and no argmin
            // (this branch takes about half of all issues on
            // conflict-heavy BP workloads). The min runs over fixed 8-wide
            // chunks: without 64-bit vector min instructions (baseline
            // x86-64), a min over a runtime-length slice compiles to one
            // long emulated-compare chain that took 2.5× as long as the
            // old argmin for 32 banks.
            let oldest_hit = self.hit_front.chunks_exact(8).fold(NO_HIT, |m, chunk| {
                m.min(chunk.iter().copied().fold(NO_HIT, u64::min))
            });
            let bank = (oldest_hit & ((1 << self.bank_bits) - 1)) as usize;
            let row = self.banks[bank]
                .open_row()
                // lint:allow(panic-discipline) — hit_front is set only while the bank row is open
                .expect("hit front implies open row");
            (bank, row)
        };
        if self.mismatched_total == 0 {
            // Preparation opened the last mismatching row: every request
            // now hits, so the arrival head (the front picked above) is the
            // oldest hit and the index goes.
            self.drop_index();
            return self.oldest;
        }
        self.pop_row_front(bank, row)
    }

    #[inline]
    fn issue_one(&mut self) {
        self.maybe_refresh();
        let req = self.pick();
        let t = self.cfg.timing;
        let bank = &self.banks[req.bank];
        debug_assert_eq!(bank.open_row(), Some(req.row), "every pick is a row hit");

        // Column command: after the row is ready, tCCD_L since the last
        // column in the same group, tCCD_S since the last column in any
        // group, and bus turnaround. Write-to-read turnaround counts from
        // the end of the preceding write burst (DDR4 tWTR), not from its
        // command.
        let turnaround_gate = match (self.last_was_write, req.is_write) {
            (true, false) => self.last_write_end + t.wtr,
            (false, true) => self.now + t.rtw,
            _ => 0,
        };
        let mut cmd_at = bank
            .ready_at()
            .max(self.ccd_l_gate[req.bank_group])
            .max(self.ccd_s_gate)
            .max(turnaround_gate)
            .max(self.now);
        // Data must find the bus free; CAS latency separates command from data.
        let data_start = (cmd_at + t.cl).max(self.bus_free);
        cmd_at = data_start - t.cl;
        let data_end = data_start + t.burst_cycles();

        self.ccd_l_gate[req.bank_group] = cmd_at + t.ccd_l;
        self.ccd_s_gate = cmd_at + t.ccd_s;
        self.bus_free = data_end;
        self.now = cmd_at;
        self.last_was_write = req.is_write;
        if req.is_write {
            self.last_write_end = data_end;
            self.banks[req.bank].note_write(data_end, &t);
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.stats.row_hits += 1;
        self.stats.total_cycles = self.stats.total_cycles.max(data_end);
        if let Some(obs) = &mut self.obs {
            obs.sample_left -= 1;
            if obs.sample_left == 0 {
                obs.sample_left = OBS_SAMPLE_EVERY;
                obs.sample(self.now, self.queued, &self.stats);
            }
        }
    }

    #[inline]
    fn maybe_refresh(&mut self) {
        if self.now < self.next_refresh {
            return;
        }
        let t = self.cfg.timing;
        while self.now >= self.next_refresh {
            for bank in &mut self.banks {
                bank.close();
            }
            // All-bank refresh blocks the channel for tRFC.
            self.now = self.next_refresh + t.rfc;
            self.bus_free = self.bus_free.max(self.now);
            self.next_refresh += t.refi;
            self.stats.refreshes += 1;
        }
        // Every queued request (there is at least one) now misses.
        if self.mismatched_total == 0 {
            self.build_index();
        } else {
            for bank in 0..self.banks.len() {
                self.note_row_change(bank);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DdrTiming;

    fn cfg() -> DramConfig {
        DramConfig::test_single_channel()
    }

    /// Reference scheduler: the original flat-queue O(window) FR-FCFS
    /// algorithm with the same timing rules, used as a differential
    /// oracle for the indexed scheduler.
    struct FlatChannel {
        cfg: DramConfig,
        banks: Vec<Bank>,
        queue: VecDeque<Request>,
        now: u64,
        bus_free: u64,
        last_col: Vec<Option<u64>>,
        last_col_any: Option<u64>,
        last_was_write: bool,
        last_write_end: u64,
        recent_acts: VecDeque<u64>,
        next_refresh: u64,
        stats: DramStats,
    }

    impl FlatChannel {
        fn new(cfg: DramConfig) -> Self {
            Self {
                next_refresh: cfg.timing.refi,
                banks: vec![Bank::new(); cfg.banks_per_channel()],
                queue: VecDeque::new(),
                now: 0,
                bus_free: 0,
                last_col: vec![None; cfg.bank_groups],
                last_col_any: None,
                last_was_write: false,
                last_write_end: 0,
                recent_acts: VecDeque::new(),
                stats: DramStats::default(),
                cfg,
            }
        }

        fn push(&mut self, req: Request) {
            self.queue.push_back(req);
            while self.queue.len() > self.cfg.sched_window {
                self.issue_one();
            }
        }

        fn drain(&mut self) -> DramStats {
            while !self.queue.is_empty() {
                self.issue_one();
            }
            self.stats
        }

        fn issue_one(&mut self) {
            let t = self.cfg.timing;
            // Refresh.
            while self.now >= self.next_refresh {
                for bank in &mut self.banks {
                    bank.close();
                }
                self.now = self.next_refresh + t.rfc;
                self.bus_free = self.bus_free.max(self.now);
                self.next_refresh += t.refi;
                self.stats.refreshes += 1;
            }
            // Background row preparation.
            let candidate = self
                .queue
                .iter()
                .find(|r| self.banks[r.bank].open_row() != Some(r.row))
                .copied();
            if let Some(req) = candidate {
                let victim_wanted = self.queue.iter().any(|q| {
                    q.bank == req.bank
                        && q.row != req.row
                        && self.banks[q.bank].open_row() == Some(q.row)
                });
                if !victim_wanted {
                    let act_gate = if self.recent_acts.len() >= 4 {
                        self.recent_acts[self.recent_acts.len() - 4] + t.faw
                    } else {
                        0
                    };
                    let issue_from = self.now.max(act_gate);
                    let (outcome, _) = self.banks[req.bank].access_row(req.row, issue_from, &t);
                    let act_at = self.banks[req.bank].activated_at();
                    self.recent_acts.push_back(act_at);
                    while self.recent_acts.len() > 4 {
                        self.recent_acts.pop_front();
                    }
                    match outcome {
                        RowOutcome::Hit => {}
                        RowOutcome::Miss => self.stats.row_misses += 1,
                        RowOutcome::Conflict => self.stats.row_conflicts += 1,
                    }
                }
            }
            // FR-FCFS pick.
            let pick = self
                .queue
                .iter()
                .position(|r| self.banks[r.bank].open_row() == Some(r.row))
                .unwrap_or(0);
            let req = self.queue.remove(pick).expect("queue nonempty");
            // Column timing (same rules as the indexed scheduler).
            let needs_act = self.banks[req.bank].open_row() != Some(req.row);
            let act_gate = if needs_act && self.recent_acts.len() >= 4 {
                self.recent_acts[self.recent_acts.len() - 4] + t.faw
            } else {
                0
            };
            let issue_from = self.now.max(act_gate);
            let (outcome, row_ready) = self.banks[req.bank].access_row(req.row, issue_from, &t);
            if needs_act {
                let act_at = self.banks[req.bank].activated_at();
                self.recent_acts.push_back(act_at);
                while self.recent_acts.len() > 4 {
                    self.recent_acts.pop_front();
                }
            }
            let ccd_l_gate = self.last_col[req.bank_group].map_or(0, |c| c + t.ccd_l);
            let ccd_s_gate = self.last_col_any.map_or(0, |c| c + t.ccd_s);
            let turnaround_gate = match (self.last_was_write, req.is_write) {
                (true, false) => self.last_write_end + t.wtr,
                (false, true) => self.now + t.rtw,
                _ => 0,
            };
            let mut cmd_at = row_ready
                .max(ccd_l_gate)
                .max(ccd_s_gate)
                .max(turnaround_gate)
                .max(self.now);
            let data_start = (cmd_at + t.cl).max(self.bus_free);
            cmd_at = data_start - t.cl;
            let data_end = data_start + t.burst_cycles();
            self.last_col[req.bank_group] = Some(cmd_at);
            self.last_col_any = Some(cmd_at);
            self.bus_free = data_end;
            self.now = cmd_at;
            self.last_was_write = req.is_write;
            if req.is_write {
                self.last_write_end = data_end;
                self.banks[req.bank].note_write(data_end, &t);
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
            match outcome {
                RowOutcome::Hit => self.stats.row_hits += 1,
                RowOutcome::Miss => self.stats.row_misses += 1,
                RowOutcome::Conflict => self.stats.row_conflicts += 1,
            }
            self.stats.total_cycles = self.stats.total_cycles.max(data_end);
        }
    }

    /// SplitMix64, for deterministic pseudorandom workloads.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Geometries for the differential tests: the unit-test channel with
    /// the slab at its smallest (`sched_window` 1 and 2) and at the
    /// production size (64), a 32-bank channel (the paper's two ranks), a
    /// 64-bank one (four ranks: six bank bits in the packed hit key),
    /// HBM-class timing (BL4, low tCCD) and LPDDR4's 8 banks in a single
    /// bank group.
    fn differential_cfgs() -> Vec<DramConfig> {
        let mut cfgs: Vec<DramConfig> = [1, 2, 64]
            .into_iter()
            .map(|sched_window| DramConfig {
                sched_window,
                ..cfg()
            })
            .collect();
        for ranks in [2, 4] {
            cfgs.push(DramConfig {
                channels: 1,
                ranks,
                ..DramConfig::ddr4_2400_16gb()
            });
        }
        for target in ["hbm-wide", "lpddr4-lowpower"] {
            let t = guardnn_targets::registry::get(target).expect("built-in target");
            cfgs.push(DramConfig {
                channels: 1,
                ..DramConfig::from_target(t)
            });
        }
        assert_eq!(cfgs[4].banks_per_channel(), 64);
        assert_eq!(cfgs[6].banks_per_channel(), 8);
        cfgs
    }

    #[test]
    fn indexed_scheduler_matches_flat_reference() {
        // Differential oracle: mixed streaming/scatter/write workloads must
        // produce identical statistics to the flat O(window) scheduler.
        for cfg in differential_cfgs() {
            indexed_matches_flat(cfg);
        }
    }

    fn indexed_matches_flat(cfg: DramConfig) {
        for seed in 0..8u64 {
            let mut state = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1;
            let mut fast = Channel::new(cfg);
            let mut flat = FlatChannel::new(cfg);
            let mut stream_addr = 0u64;
            for i in 0..6000u64 {
                let r = splitmix(&mut state);
                let req = if r % 100 < 70 {
                    // Streaming phase: sequential blocks.
                    stream_addr += 1;
                    Request {
                        bank: ((stream_addr / 4) % 8) as usize,
                        bank_group: (stream_addr % cfg.bank_groups as u64) as usize,
                        row: stream_addr / 512,
                        is_write: r.is_multiple_of(10),
                    }
                } else {
                    // Scatter phase.
                    Request {
                        bank: (r >> 8) as usize % cfg.banks_per_channel(),
                        bank_group: (r >> 16) as usize % cfg.bank_groups,
                        row: (r >> 24) % 64,
                        is_write: r.is_multiple_of(3),
                    }
                };
                fast.push(req);
                flat.push(req);
                if i % 1024 == 1023 {
                    // Mid-run checkpoints drain both to idle.
                    assert_eq!(fast.drain(), flat.drain(), "{cfg:?} seed {seed}, step {i}");
                }
            }
            assert_eq!(fast.drain(), flat.drain(), "{cfg:?} seed {seed}");
        }
    }

    #[test]
    fn victim_blocked_pick_matches_flat_reference() {
        // Regression pin for the hit-index fast path: a conflict storm on
        // a few banks keeps the arrival-list head a non-hit whose
        // preparation is victim-blocked (the open row still has pending
        // hits behind younger conflicting requests), so every issue takes
        // the oldest-hit branch. Schedules must stay identical to the
        // flat O(window) scan.
        for cfg in differential_cfgs() {
            victim_blocked_matches_flat(cfg);
        }
    }

    fn victim_blocked_matches_flat(cfg: DramConfig) {
        for seed in 0..6u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 3;
            let mut fast = Channel::new(cfg);
            let mut flat = FlatChannel::new(cfg);
            for i in 0..5000u64 {
                let r = splitmix(&mut state);
                // Two to three rows ping-ponging per bank over 2–4 banks:
                // maximal victim pressure inside the reorder window.
                let bank = (r % (2 + seed % 3)) as usize;
                let req = Request {
                    bank,
                    bank_group: bank % cfg.bank_groups,
                    row: (r >> 8) % (2 + (i % 2)),
                    is_write: r.is_multiple_of(7),
                };
                fast.push(req);
                flat.push(req);
                if i % 2048 == 2047 {
                    assert_eq!(fast.drain(), flat.drain(), "{cfg:?} seed {seed}, step {i}");
                }
            }
            assert_eq!(fast.drain(), flat.drain(), "{cfg:?} seed {seed}");
        }
    }

    #[test]
    fn lazy_index_transitions_match_flat_reference() {
        // The all-hit state keeps no row index: a conflicting push or a
        // refresh builds it from the arrival list, and activating the last
        // mismatching row drops it again. Long same-row runs broken by one
        // conflicting request every N pushes cross those transitions at
        // every phase of the window (N around the production window of 64
        // included); a short tREFI fires refreshes inside index-free
        // stretches; drains at seeded random points restart the window
        // mid-pattern.
        for cfg in differential_cfgs() {
            let short_refi = DramConfig {
                timing: DdrTiming {
                    refi: cfg.timing.rfc + 600,
                    ..cfg.timing
                },
                ..cfg
            };
            for cfg in [cfg, short_refi] {
                for every in [1, 7, 63, 64, 65, 500] {
                    transitions_match_flat(cfg, every);
                }
            }
        }
    }

    fn transitions_match_flat(cfg: DramConfig, every: u64) {
        let banks = cfg.banks_per_channel() as u64;
        let mut state = every.wrapping_mul(0x2545_F491_4F6C_DD1D) + cfg.timing.refi;
        let mut fast = Channel::new(cfg);
        let mut flat = FlatChannel::new(cfg);
        for i in 0..3000u64 {
            let r = splitmix(&mut state);
            // A sequential sweep: 16 blocks per bank in turn, each bank's
            // row advancing every 8 rounds of the banks.
            let bank = (i / 16) % banks;
            let row = i / (16 * banks * 8);
            let req = if i % every == every - 1 {
                // One request to a far region of the sweep's current bank:
                // a row conflict among hits.
                Request {
                    bank: bank as usize,
                    bank_group: bank as usize % cfg.bank_groups,
                    row: row + 1000 + r % 3,
                    is_write: r.is_multiple_of(2),
                }
            } else {
                Request {
                    bank: bank as usize,
                    bank_group: bank as usize % cfg.bank_groups,
                    row,
                    is_write: r.is_multiple_of(9),
                }
            };
            fast.push(req);
            flat.push(req);
            if (r >> 32).is_multiple_of(400) {
                assert_eq!(
                    fast.drain(),
                    flat.drain(),
                    "{cfg:?} every {every}, step {i}"
                );
            }
        }
        assert_eq!(fast.drain(), flat.drain(), "{cfg:?} every {every}");
    }

    fn stream(channel: &mut Channel, n: u64, same_row: bool) -> DramStats {
        for i in 0..n {
            channel.push(Request {
                bank: 0,
                bank_group: 0,
                row: if same_row { 0 } else { i },
                is_write: false,
            });
        }
        channel.drain()
    }

    #[test]
    fn row_hits_dominate_streaming() {
        // Command-level accounting: one activate (background-prepared),
        // then every column command hits the open row.
        let mut ch = Channel::new(cfg());
        let stats = stream(&mut ch, 100, true);
        assert_eq!(stats.row_misses, 1);
        assert_eq!(stats.row_hits, 100);
    }

    #[test]
    fn row_conflicts_hurt_throughput() {
        let mut hit_ch = Channel::new(cfg());
        let hit = stream(&mut hit_ch, 200, true);
        let mut miss_ch = Channel::new(cfg());
        let miss = stream(&mut miss_ch, 200, false);
        assert!(
            miss.total_cycles > 2 * hit.total_cycles,
            "conflicts {} vs hits {}",
            miss.total_cycles,
            hit.total_cycles
        );
    }

    #[test]
    fn streaming_approaches_bus_limit() {
        // Alternating bank groups (as the system address mapping produces)
        // is paced by the burst length, not tCCD_L.
        let mut ch = Channel::new(cfg());
        for i in 0..2000usize {
            ch.push(Request {
                bank: i % 4,
                bank_group: i % 4,
                row: 0,
                is_write: false,
            });
        }
        let stats = ch.drain();
        // BL8 occupies 4 cycles; perfect streaming is 16 B/cycle on one
        // channel. Allow for startup + refresh.
        let bpc = stats.bytes_per_cycle(64);
        assert!(bpc > 13.0, "got {bpc}");
    }

    #[test]
    fn single_bank_group_limited_by_ccd_l() {
        let mut ch = Channel::new(cfg());
        let stats = stream(&mut ch, 2000, true);
        let bpc = stats.bytes_per_cycle(64);
        // tCCD_L = 6 cycles per 64 B → ~10.7 B/cycle ceiling.
        assert!((9.0..11.5).contains(&bpc), "got {bpc}");
    }

    #[test]
    fn writes_then_reads_pay_turnaround() {
        let mut ch = Channel::new(cfg());
        for i in 0..100 {
            ch.push(Request {
                bank: 0,
                bank_group: 0,
                row: 0,
                is_write: i % 2 == 0,
            });
        }
        let alternating = ch.drain();
        let mut ch2 = Channel::new(cfg());
        let reads_only = stream(&mut ch2, 100, true);
        assert!(alternating.total_cycles > reads_only.total_cycles);
    }

    #[test]
    fn faw_throttles_activation_storms() {
        // Hammering different rows across many banks is limited by the
        // four-activate window; compare against hammering with generous
        // spacing (hits interleaved).
        let mut storm = Channel::new(cfg());
        for i in 0..256usize {
            storm.push(Request {
                bank: i % 16,
                bank_group: i % 4,
                row: i as u64,
                is_write: false,
            });
        }
        let storm_stats = storm.drain();
        let mut gentle = Channel::new(cfg());
        for i in 0..256usize {
            gentle.push(Request {
                bank: i % 4,
                bank_group: i % 4,
                row: 0,
                is_write: false,
            });
        }
        let gentle_stats = gentle.drain();
        assert!(
            storm_stats.total_cycles > gentle_stats.total_cycles,
            "storm {} vs gentle {}",
            storm_stats.total_cycles,
            gentle_stats.total_cycles
        );
    }

    #[test]
    fn background_activation_hides_row_misses() {
        // Alternating between two rows in two different banks: background
        // prep should overlap the second bank's activation with the first
        // bank's data, beating a strictly serial estimate.
        let mut ch = Channel::new(cfg());
        let n = 512usize;
        for i in 0..n {
            // Two banks, long runs per bank so rows stay open.
            let bank = (i / 64) % 2;
            ch.push(Request {
                bank,
                bank_group: bank,
                row: (i / 64) as u64,
                is_write: false,
            });
        }
        let stats = ch.drain();
        // Serial worst case: every 64-burst run pays full open latency on
        // top of the tCCD_L-paced column stream (all requests in a run
        // share a bank group).
        let t = cfg().timing;
        let serial_estimate = (n as u64 / 64) * (t.rp + t.rcd) + n as u64 * t.ccd_l;
        assert!(
            stats.total_cycles < serial_estimate,
            "got {} vs serial {}",
            stats.total_cycles,
            serial_estimate
        );
    }

    #[test]
    fn refresh_fires_on_long_runs() {
        let mut ch = Channel::new(cfg());
        let stats = stream(&mut ch, 60_000, false);
        assert!(stats.refreshes > 0, "long run must hit tREFI: {stats:?}");
    }

    #[test]
    fn fr_fcfs_prefers_open_rows() {
        let mut ch = Channel::new(cfg());
        // Open row 0 in bank 0, then interleave a conflicting request with
        // hits; the window should reorder hits ahead.
        ch.push(Request {
            bank: 0,
            bank_group: 0,
            row: 0,
            is_write: false,
        });
        ch.push(Request {
            bank: 0,
            bank_group: 0,
            row: 7,
            is_write: false,
        });
        for _ in 0..6 {
            ch.push(Request {
                bank: 0,
                bank_group: 0,
                row: 0,
                is_write: false,
            });
        }
        let stats = ch.drain();
        // Command-level accounting: 1 activate for row 0, then 7 column
        // hits on row 0, one conflict-activate for row 7 plus its column
        // hit.
        assert_eq!(stats.row_hits, 8);
        assert_eq!(stats.row_misses, 1);
        assert_eq!(stats.row_conflicts, 1);
    }

    #[test]
    fn cross_group_paced_by_ccd_s() {
        // With a synthetic tCCD_S above the burst length, alternating bank
        // groups is paced by tCCD_S: faster than the tCCD_L ceiling but
        // slower than the BL8 bus limit. This pins the tCCD_S gate — with
        // the field unread, the stream would sit at the bus limit.
        let timing = DdrTiming {
            ccd_s: 5,
            ..DdrTiming::ddr4_2400()
        };
        let mut ch = Channel::new(DramConfig { timing, ..cfg() });
        let n = 2000usize;
        for i in 0..n {
            ch.push(Request {
                bank: i % 4,
                bank_group: i % 4,
                row: 0,
                is_write: false,
            });
        }
        let stats = ch.drain();
        let bpc = stats.bytes_per_cycle(64);
        // 64 B / 5 cycles = 12.8 B/cycle; the bus limit is 16 and the
        // tCCD_L ceiling ~10.7. Allow startup + refresh slack.
        assert!((11.5..13.0).contains(&bpc), "got {bpc}");
    }

    #[test]
    fn cycle_zero_column_still_gates_successor() {
        // A legitimate column command at cycle 0 (zeroed row-open timings)
        // must still gate the next same-group column by tCCD_L. The old
        // `last_col == 0` sentinel erased this gate.
        let timing = DdrTiming {
            cl: 1,
            rcd: 0,
            rp: 1,
            ras: 1,
            ccd_l: 6,
            ccd_s: 4,
            rrd: 1,
            faw: 1,
            wr: 1,
            wtr: 1,
            rtw: 1,
            rfc: 1,
            refi: 1 << 40,
            bl: 8,
        };
        let mut ch = Channel::new(DramConfig { timing, ..cfg() });
        for _ in 0..2 {
            ch.push(Request {
                bank: 0,
                bank_group: 0,
                row: 0,
                is_write: false,
            });
        }
        let stats = ch.drain();
        // First column command lands at cycle 0 (tRCD = 0). The second is
        // gated to cycle tCCD_L; its data ends at tCCD_L + CL + BL/2.
        assert_eq!(
            stats.total_cycles,
            timing.ccd_l + timing.cl + timing.burst_cycles()
        );
    }

    #[test]
    fn wtr_counts_from_write_burst_end() {
        // One write then one read to the open row: the read command waits
        // until tWTR after the write burst has left the bus, not tWTR
        // after the write *command* (which would overlap the burst).
        let t = cfg().timing;
        let mut ch = Channel::new(cfg());
        ch.push(Request {
            bank: 0,
            bank_group: 0,
            row: 0,
            is_write: true,
        });
        ch.push(Request {
            bank: 0,
            bank_group: 0,
            row: 0,
            is_write: false,
        });
        let stats = ch.drain();
        // Write: ACT in prep, command at tRCD, burst ends at
        // tRCD + CL + BL/2. Read: command tWTR after that, data ends
        // CL + BL/2 later.
        let write_end = t.rcd + t.cl + t.burst_cycles();
        assert_eq!(
            stats.total_cycles,
            write_end + t.wtr + t.cl + t.burst_cycles()
        );
    }

    #[test]
    fn deep_window_reordering_matches_flat_scan() {
        // A pathological mix (interleaved conflicting rows on a few banks,
        // reads and writes) must drain completely with every request
        // issued exactly once, exercising the slow path and slot reuse
        // across out-of-order picks together.
        let mut ch = Channel::new(cfg());
        let n = 4096usize;
        for i in 0..n {
            ch.push(Request {
                bank: i % 3,
                bank_group: i % 3,
                row: (i % 7) as u64,
                is_write: i % 5 == 0,
            });
        }
        let stats = ch.drain();
        assert_eq!(stats.accesses(), n as u64);
        assert_eq!(stats.reads, (0..n).filter(|i| i % 5 != 0).count() as u64);
        assert!(stats.row_hits + stats.row_misses + stats.row_conflicts >= n as u64);
    }
}
