//! Set-associative write-back metadata cache.
//!
//! The baseline protection (Intel MEE style) keeps recently used VN, MAC
//! and integrity-tree lines in a small on-chip cache; its miss behaviour is
//! what turns DNN streaming traffic into the ~35% metadata overhead the
//! paper measures. GuardNN_CI reuses the same structure for MAC lines.
//!
//! Every simulated span passes through here, so the slots are one flat
//! array indexed by a power-of-two set mask, and a memo of the last two
//! lines touched finds the lines a span touches — one GuardNN_CI MAC line,
//! or the VN and MAC lines BP touches alternately — without a set scan.
//! [`MetaCache::rehit`] then charges the rest of a span's guaranteed hits
//! in one step, with the stamps, counts and eviction order of touching
//! every block.

use crate::{exact_log2, MetaAccess};

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheAccess {
    /// The line was present.
    pub hit: bool,
    /// A dirty victim line was evicted and must be written back.
    pub writeback: Option<u64>,
}

/// A set-associative, write-back, LRU cache for 64-byte metadata lines.
#[derive(Clone, Debug)]
pub struct MetaCache {
    /// `n_sets × ways` slots, set-major. A set's resident lines fill a
    /// prefix of its slots: fills append; evictions `swap_remove` the
    /// victim and append the newcomer.
    slots: Vec<Line>,
    ways: usize,
    /// `n_sets - 1`.
    set_mask: u64,
    /// Line address and slot of the two most recently touched lines, most
    /// recent first; a miss clears the older one.
    memo: [(u64, usize); 2],
    accesses: u64,
    misses: u64,
}

#[derive(Clone, Copy, Debug)]
struct Line {
    /// Line address, or [`EMPTY`] for a free slot.
    tag: u64,
    dirty: bool,
    /// LRU timestamp (`0` for a free slot, below every live stamp).
    used: u64,
}

/// Tag of a free slot; never a line address (those are 64-aligned).
const EMPTY: u64 = u64::MAX;

impl MetaCache {
    /// Creates a cache of `capacity_bytes` with `ways`-way associativity
    /// and 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (fewer lines than ways, zero
    /// ways) or if the set count (`capacity_bytes / 64 / ways`) is not a
    /// power of two.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        let lines = capacity_bytes / 64;
        assert!(
            ways > 0 && lines >= ways as u64,
            "degenerate cache geometry"
        );
        let n_sets = lines / ways as u64;
        exact_log2("cache set count", n_sets);
        let free = Line {
            tag: EMPTY,
            dirty: false,
            used: 0,
        };
        Self {
            slots: vec![free; n_sets as usize * ways],
            ways,
            set_mask: n_sets - 1,
            memo: [(EMPTY, 0); 2],
            accesses: 0,
            misses: 0,
        }
    }

    /// First slot of the set holding `line_addr`.
    fn set_base(&self, line_addr: u64) -> usize {
        ((line_addr / 64) & self.set_mask) as usize * self.ways
    }

    /// Slot holding `line_addr`, if resident.
    fn find(&self, line_addr: u64) -> Option<usize> {
        let base = self.set_base(line_addr);
        self.slots[base..base + self.ways]
            .iter()
            .position(|l| l.tag == line_addr)
            .map(|i| base + i)
    }

    /// Touches the metadata line at `line_addr` (`write` dirties it) and
    /// appends the DRAM traffic that causes to `out`: a dirty victim's
    /// write-back, then on a miss the fill read — unless `fetch` is false
    /// because the caller regenerates the whole line (MACs are recomputed
    /// on write, never read-modify-written). Returns whether the line was
    /// resident.
    pub fn touch(
        &mut self,
        line_addr: u64,
        write: bool,
        fetch: bool,
        out: &mut Vec<MetaAccess>,
    ) -> bool {
        let res = self.access(line_addr, write);
        if let Some(victim) = res.writeback {
            out.push(MetaAccess {
                addr: victim,
                write: true,
            });
        }
        if !res.hit && fetch {
            out.push(MetaAccess {
                addr: line_addr,
                write: false,
            });
        }
        res.hit
    }

    /// Slot holding `line_addr`, if resident, trying the memo first.
    fn lookup(&self, line_addr: u64) -> Option<usize> {
        let [recent, older] = self.memo;
        if recent.0 == line_addr {
            Some(recent.1)
        } else if older.0 == line_addr {
            Some(older.1)
        } else {
            self.find(line_addr)
        }
    }

    /// Marks `slot` (holding `line_addr`) as the most recently touched line.
    fn remember(&mut self, line_addr: u64, slot: usize) {
        if self.memo[0].0 != line_addr {
            self.memo = [(line_addr, slot), self.memo[0]];
        }
    }

    /// Accesses the line containing `addr`; `write` marks it dirty.
    /// Returns hit/miss and any dirty write-back the fill victimized.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.accesses += 1;
        let stamp = self.accesses;
        let line_addr = addr & !63;
        if let Some(slot) = self.lookup(line_addr) {
            let line = &mut self.slots[slot];
            line.used = stamp;
            line.dirty |= write;
            self.remember(line_addr, slot);
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        // The least recently used slot; free slots (stamp 0) come first, and
        // the first of them is the end of the resident prefix.
        let base = self.set_base(line_addr);
        let last = base + self.ways - 1;
        let lru = (base..=last)
            .min_by_key(|&i| self.slots[i].used)
            .unwrap_or(last);
        // Free slots are never dirty, so only a resident victim writes back.
        let victim = self.slots[lru];
        let slot = if victim.tag == EMPTY {
            lru
        } else {
            // A full set: `swap_remove` the victim, append the newcomer.
            self.slots[lru] = self.slots[last];
            last
        };
        self.slots[slot] = Line {
            tag: line_addr,
            dirty: write,
            used: stamp,
        };
        // The eviction may have moved or dropped the memoized lines.
        self.memo = [(line_addr, slot), (EMPTY, 0)];
        CacheAccess {
            hit: false,
            writeback: victim.dirty.then_some(victim.tag),
        }
    }

    /// Replays `rounds` more rounds of read hits on the resident lines
    /// `line_addrs`, touched in order each round — the access count and
    /// LRU stamps `rounds × N` [`MetaCache::access`] hits would leave,
    /// in O(N). (A hit changes nothing else: a line the caller just
    /// touched with the same write flag already carries its dirty bit.)
    /// Returns false, changing nothing, if any line is not resident.
    pub fn rehit<const N: usize>(&mut self, line_addrs: [u64; N], rounds: u64) -> bool {
        let mut slots = [0; N];
        for (slot, &line_addr) in slots.iter_mut().zip(&line_addrs) {
            match self.lookup(line_addr) {
                Some(s) => *slot = s,
                None => return false,
            }
        }
        if rounds == 0 {
            return true;
        }
        self.accesses += rounds * N as u64;
        for (i, (&slot, &line_addr)) in slots.iter().zip(&line_addrs).enumerate() {
            self.slots[slot].used = self.accesses - (N - 1 - i) as u64;
            self.remember(line_addr, slot);
        }
        true
    }

    /// Returns true if the line containing `addr` is resident (no state
    /// change).
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr & !63).is_some()
    }

    /// Drains all dirty lines (end-of-run write-back), returning their
    /// write-backs in set order, then slot order.
    pub fn flush_dirty(&mut self) -> Vec<MetaAccess> {
        let mut out = Vec::new();
        for line in &mut self.slots {
            if line.dirty {
                out.push(MetaAccess {
                    addr: line.tag,
                    write: true,
                });
                line.dirty = false;
            }
        }
        out
    }

    /// Miss rate so far.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original per-set `Vec` cache: the differential oracle for the
    /// flat [`MetaCache`] (same LRU, fill and `swap_remove` eviction
    /// order, any set count).
    struct OracleCache {
        sets: Vec<Vec<Line>>,
        ways: usize,
        accesses: u64,
        misses: u64,
    }

    impl OracleCache {
        fn new(capacity_bytes: u64, ways: usize) -> Self {
            let n_sets = (capacity_bytes / 64 / ways as u64) as usize;
            Self {
                sets: vec![Vec::with_capacity(ways); n_sets],
                ways,
                accesses: 0,
                misses: 0,
            }
        }

        fn set_index(&self, line_addr: u64) -> usize {
            ((line_addr / 64) % self.sets.len() as u64) as usize
        }

        fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
            self.accesses += 1;
            let line_addr = addr / 64 * 64;
            let set_idx = self.set_index(line_addr);
            let stamp = self.accesses;
            let ways = self.ways;
            let set = &mut self.sets[set_idx];
            if let Some(line) = set.iter_mut().find(|l| l.tag == line_addr) {
                line.used = stamp;
                line.dirty |= write;
                return CacheAccess {
                    hit: true,
                    writeback: None,
                };
            }
            self.misses += 1;
            let mut writeback = None;
            if set.len() == ways {
                let lru = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.used)
                    .map(|(i, _)| i)
                    .expect("set is full");
                let victim = set.swap_remove(lru);
                if victim.dirty {
                    writeback = Some(victim.tag);
                }
            }
            set.push(Line {
                tag: line_addr,
                dirty: write,
                used: stamp,
            });
            CacheAccess {
                hit: false,
                writeback,
            }
        }

        fn contains(&self, addr: u64) -> bool {
            let line_addr = addr / 64 * 64;
            self.sets[self.set_index(line_addr)]
                .iter()
                .any(|l| l.tag == line_addr)
        }

        fn flush_dirty(&mut self) -> Vec<MetaAccess> {
            let mut out = Vec::new();
            for set in &mut self.sets {
                for line in set.iter_mut() {
                    if line.dirty {
                        out.push(MetaAccess {
                            addr: line.tag,
                            write: true,
                        });
                        line.dirty = false;
                    }
                }
            }
            out
        }

        fn miss_rate(&self) -> f64 {
            if self.accesses == 0 {
                0.0
            } else {
                self.misses as f64 / self.accesses as f64
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Each word is one access: bits 0–3 pick one of 16 lines (enough to
        /// overflow every geometry), bits 8–13 the byte within the line,
        /// bit 16 write vs read. Bits 20–21 then replay 0–3 rounds of hits
        /// on this line and the one before it through `rehit`, which the
        /// oracle sees as that many plain read accesses — or as nothing,
        /// when either line was evicted. Every step must agree with the
        /// oracle on hit, write-back, residency and miss rate; a
        /// mid-stream and a final flush must agree on the exact order.
        #[test]
        fn flat_cache_matches_per_set_oracle(
            geometry in prop::sample::select(vec![
                (64u64, 1usize), (256, 4), (512, 8), // one set
                (128, 1), (512, 4), (1024, 8),      // two sets
            ]),
            words in prop::collection::vec(any::<u64>(), 1..200),
            flush_at in 0usize..200,
        ) {
            let (capacity, ways) = geometry;
            let mut flat = MetaCache::new(capacity, ways);
            let mut oracle = OracleCache::new(capacity, ways);
            let mut prev_line = 0;
            for (i, &w) in words.iter().enumerate() {
                let addr = (w & 15) * 64 + ((w >> 8) & 63);
                let write = w >> 16 & 1 == 1;
                prop_assert_eq!(flat.access(addr, write), oracle.access(addr, write));
                let lines = [prev_line, addr & !63];
                let rounds = w >> 20 & 3;
                let resident = lines.iter().all(|&l| oracle.contains(l));
                prop_assert_eq!(flat.rehit(lines, rounds), resident);
                for _ in 0..rounds * resident as u64 {
                    for line in lines {
                        prop_assert!(oracle.access(line, false).hit);
                    }
                }
                prev_line = addr & !63;
                for line in 0..16 {
                    prop_assert_eq!(flat.contains(line * 64), oracle.contains(line * 64));
                }
                prop_assert_eq!(flat.miss_rate().to_bits(), oracle.miss_rate().to_bits());
                if i == flush_at {
                    prop_assert_eq!(flat.flush_dirty(), oracle.flush_dirty());
                }
            }
            prop_assert_eq!(flat.flush_dirty(), oracle.flush_dirty());
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut c = MetaCache::new(4096, 4);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13F, false).hit, "same 64B line");
        assert!(!c.access(0x140, false).hit, "next line");
    }

    #[test]
    fn lru_eviction() {
        // 4 lines total, 2 ways → 2 sets. Fill one set's both ways, then a
        // third line in that set evicts the LRU.
        let mut c = MetaCache::new(256, 2);
        // Set is (addr/64) % 2 — lines 0, 128, 256 share set 0.
        c.access(0, false);
        c.access(128, false);
        c.access(0, false); // touch line 0 → line 128 is LRU
        c.access(256, false); // evicts 128
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn dirty_eviction_emits_writeback() {
        let mut c = MetaCache::new(256, 2);
        c.access(0, true);
        c.access(128, false);
        c.access(256, false); // may evict 0 or 128 depending on LRU
        c.access(384, false);
        // After two more fills both originals are gone; at least one
        // write-back for line 0 must have been produced somewhere.
        let mut c2 = MetaCache::new(256, 2);
        c2.access(0, true);
        c2.access(128, false);
        let wb = c2.access(256, false).writeback;
        assert_eq!(wb, Some(0), "dirty LRU line written back");
    }

    #[test]
    fn flush_returns_dirty_lines_once() {
        let mut c = MetaCache::new(4096, 4);
        c.access(0x000, true);
        c.access(0x040, false);
        c.access(0x080, true);
        let mut dirty: Vec<u64> = c.flush_dirty().iter().map(|m| m.addr).collect();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0x000, 0x080]);
        assert!(c.flush_dirty().is_empty(), "flush clears dirty bits");
    }

    #[test]
    fn miss_rate_tracking() {
        let mut c = MetaCache::new(4096, 4);
        c.access(0, false);
        c.access(0, false);
        assert!((c.miss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "degenerate cache geometry")]
    fn rejects_zero_capacity() {
        let _ = MetaCache::new(0, 4);
    }
}
