//! Per-bank DRAM state machine.

use crate::config::DdrTiming;

/// Result of a column access against a bank, for statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOutcome {
    /// Target row already open.
    Hit,
    /// Bank idle; one activate needed.
    Miss,
    /// A different row was open; precharge + activate needed.
    Conflict,
}

/// One DRAM bank: open-row tracking plus the timestamps that gate the next
/// command (all in memory-clock cycles).
#[derive(Clone, Copy, Debug, Default)]
pub struct Bank {
    /// Currently open row, if any.
    open_row: Option<u64>,
    /// Cycle at which the row becomes usable (ACT + tRCD satisfied).
    ready_at: u64,
    /// Cycle of the last activate (for tRAS accounting).
    activated_at: u64,
    /// Earliest cycle a precharge may complete given tRAS/tWR.
    precharge_ok_at: u64,
}

impl Bank {
    /// Creates an idle bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// The open row, if any (used by the FR-FCFS scheduler to find hits).
    #[inline]
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// The cycle at which the open row accepts a column command (its
    /// activate plus tRCD).
    #[inline]
    pub fn ready_at(&self) -> u64 {
        self.ready_at
    }

    /// Performs the row-management part of a column access that *issues* at
    /// `now`: returns the outcome and the cycle at which a column command
    /// may be driven to this bank.
    #[inline]
    pub fn access_row(&mut self, row: u64, now: u64, t: &DdrTiming) -> (RowOutcome, u64) {
        match self.open_row {
            Some(open) if open == row => {
                let cmd_at = now.max(self.ready_at);
                (RowOutcome::Hit, cmd_at)
            }
            Some(_) => {
                // Precharge (respecting tRAS since activate), then activate.
                let pre_at = now.max(self.precharge_ok_at).max(self.activated_at + t.ras);
                let act_at = pre_at + t.rp;
                self.open(row, act_at, t);
                (RowOutcome::Conflict, self.ready_at)
            }
            None => {
                let act_at = now;
                self.open(row, act_at, t);
                (RowOutcome::Miss, self.ready_at)
            }
        }
    }

    #[inline]
    fn open(&mut self, row: u64, act_at: u64, t: &DdrTiming) {
        self.open_row = Some(row);
        self.activated_at = act_at;
        self.ready_at = act_at + t.rcd;
        self.precharge_ok_at = act_at + t.ras;
    }

    /// Records write-recovery so a future precharge waits for tWR after the
    /// write burst ends at `data_end`.
    #[inline]
    pub fn note_write(&mut self, data_end: u64, t: &DdrTiming) {
        self.precharge_ok_at = self.precharge_ok_at.max(data_end + t.wr);
    }

    /// Forces the bank closed (refresh precharges all banks).
    pub fn close(&mut self) {
        self.open_row = None;
    }

    /// The cycle of the most recent activate (for tFAW tracking).
    #[inline]
    pub fn activated_at(&self) -> u64 {
        self.activated_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DdrTiming {
        DdrTiming::ddr4_2400()
    }

    #[test]
    fn idle_bank_miss_costs_rcd() {
        let mut b = Bank::new();
        let (outcome, cmd_at) = b.access_row(5, 100, &t());
        assert_eq!(outcome, RowOutcome::Miss);
        assert_eq!(cmd_at, 100 + t().rcd);
        assert_eq!(b.open_row(), Some(5));
    }

    #[test]
    fn same_row_hits_immediately() {
        let mut b = Bank::new();
        b.access_row(5, 0, &t());
        let (outcome, cmd_at) = b.access_row(5, 200, &t());
        assert_eq!(outcome, RowOutcome::Hit);
        assert_eq!(cmd_at, 200);
    }

    #[test]
    fn conflict_costs_precharge_plus_activate() {
        let mut b = Bank::new();
        b.access_row(5, 0, &t());
        let now = 1000; // well past tRAS
        let (outcome, cmd_at) = b.access_row(9, now, &t());
        assert_eq!(outcome, RowOutcome::Conflict);
        assert_eq!(cmd_at, now + t().rp + t().rcd);
        assert_eq!(b.open_row(), Some(9));
    }

    #[test]
    fn conflict_respects_ras() {
        let mut b = Bank::new();
        b.access_row(5, 0, &t());
        // Immediately conflicting: precharge must wait until tRAS elapses.
        let (_, cmd_at) = b.access_row(9, 1, &t());
        assert_eq!(cmd_at, t().ras + t().rp + t().rcd);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut b = Bank::new();
        b.access_row(5, 0, &t());
        b.note_write(100, &t());
        let (_, cmd_at) = b.access_row(9, 101, &t());
        // precharge at 100 + tWR, then +tRP +tRCD.
        assert_eq!(cmd_at, 100 + t().wr + t().rp + t().rcd);
    }

    #[test]
    fn refresh_closes_row() {
        let mut b = Bank::new();
        b.access_row(5, 0, &t());
        b.close();
        assert_eq!(b.open_row(), None);
    }
}
