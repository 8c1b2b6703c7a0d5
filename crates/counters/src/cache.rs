//! A two-level set-associative cache hierarchy simulator.
//!
//! Classifies memory accesses into L1 hits, L2 hits, and DRAM fetches at
//! 128-byte-line / 32-byte-sector granularity, mirroring how the Kepler
//! memory system counts the Table III events (`l1_global_load_hit` in
//! lines, `l2_*_sectors` and `fb_*_sectors` in 32 B sectors, with DRAM
//! traffic striped across two sub-partitions and L2 across four slices).
//!
//! The simulator is single-threaded, as is the instrumentation pass that
//! feeds it per-phase access streams at tile granularity.  Each call
//! tallies its events in locals and adds them to the caller's
//! [`crate::CounterSet`] once per event, so a many-line access costs one
//! counter update per event, not one per 32-byte sector.

use crate::events::CounterEvent;
use crate::registry::CounterSet;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.line_bytes * self.ways)
    }

    /// Kepler SMX L1: 16 KB (the 48/16 split favouring shared memory, as
    /// an FMM would configure it), 128 B lines, 4-way.
    pub fn kepler_l1() -> Self {
        CacheConfig { capacity_bytes: 16 * 1024, line_bytes: 128, ways: 4 }
    }

    /// Tegra K1 L2: 128 KB, 128 B lines, 8-way.
    pub fn tegra_l2() -> Self {
        CacheConfig { capacity_bytes: 128 * 1024, line_bytes: 128, ways: 8 }
    }
}

/// Where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// All sectors hit in L1.
    L1Hit,
    /// Missed L1, all missing sectors hit in L2.
    L2Hit,
    /// At least one sector came from DRAM.
    Dram,
}

/// The L2 slice events, indexed by the round-robin cursor mod 4.
const L2_SLICE_EVENTS: [CounterEvent; 4] = [
    CounterEvent::l2_subp0_read_l1_hit_sectors,
    CounterEvent::l2_subp1_read_l1_hit_sectors,
    CounterEvent::l2_subp2_read_l1_hit_sectors,
    CounterEvent::l2_subp3_read_l1_hit_sectors,
];

/// The DRAM sub-partition events, indexed by the cursor mod 2.
const DRAM_EVENTS: [CounterEvent; 2] =
    [CounterEvent::fb_subp0_read_sectors, CounterEvent::fb_subp1_read_sectors];

/// One set-associative LRU cache level.
///
/// Each set keeps its lines in recency order, so the victim of a miss
/// is simply the last way.  Which way holds a line is unobservable: this
/// evicts exactly the line a per-way LRU timestamp would pick, with
/// invalid ways filled first.
#[derive(Debug)]
struct Level {
    /// `tags[set * ways..][..ways]` holds the set's line numbers from most
    /// to least recently used; `u64::MAX` = invalid.
    tags: Vec<u64>,
    ways: usize,
    /// `sets - 1`; the set count is a power of two.
    set_mask: u64,
}

impl Level {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Level {
            tags: vec![u64::MAX; sets * config.ways],
            ways: config.ways,
            set_mask: sets as u64 - 1,
        }
    }

    /// Looks up line number `line`; inserts on miss, evicting the least
    /// recently used way.  Returns hit.
    #[inline]
    fn access(&mut self, line: u64) -> bool {
        let base = (line & self.set_mask) as usize * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        let found = set.iter().position(|&tag| tag == line);
        let pos = found.unwrap_or(set.len() - 1);
        set.copy_within(0..pos, 1);
        set[0] = line;
        found.is_some()
    }

    /// Invalidates every way.
    fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

/// Adds `times` runs of `n` sectors, each dealt round-robin from
/// position `cursor`, to `lanes`: lane `j` receives the sectors at
/// positions `≡ j (mod L)`.
#[inline]
fn stripe<const L: usize>(lanes: &mut [u64; L], cursor: usize, n: u64, times: u64) {
    let (each, extra) = (n / L as u64, (n % L as u64) as usize);
    for (j, lane) in lanes.iter_mut().enumerate() {
        // Offset of lane j's first sector from the cursor.
        let first = (j + L - cursor % L) % L;
        *lane += times * (each + u64::from(first < extra));
    }
}

/// The read events of one call, added to a [`CounterSet`] at its end.
#[derive(Default)]
struct ReadTally {
    l1_hit_lines: u64,
    /// Lines served by L2 and by DRAM, by where the round-robin cursor
    /// stood (mod 4) when each line's sectors were dealt.
    l2_lines: [u64; 4],
    dram_lines: [u64; 4],
}

impl ReadTally {
    fn add_to(&self, counters: &CounterSet, sectors_per_line: u64) {
        let (mut slices, mut subparts) = ([0; 4], [0; 2]);
        for cursor in 0..4 {
            stripe(&mut slices, cursor, sectors_per_line, self.l2_lines[cursor]);
            stripe(&mut subparts, cursor, sectors_per_line, self.dram_lines[cursor]);
        }
        let missed_lines: u64 = self.l2_lines.iter().chain(&self.dram_lines).sum();
        let events = [
            (CounterEvent::l1_global_load_hit, self.l1_hit_lines),
            (CounterEvent::l2_subp0_total_read_sector_queries, missed_lines * sectors_per_line),
        ]
        .into_iter()
        .chain(L2_SLICE_EVENTS.into_iter().zip(slices))
        .chain(DRAM_EVENTS.into_iter().zip(subparts));
        for (event, n) in events {
            if n > 0 {
                counters.add(event, n);
            }
        }
        counters.add(CounterEvent::gld_request, 1);
    }
}

/// The L1 → L2 → DRAM hierarchy.
#[derive(Debug)]
pub struct CacheSim {
    l1: Level,
    l2: Level,
    sector_bytes: usize,
    /// `log2(line_bytes)`.
    line_shift: u32,
    sectors_per_line: u64,
    /// Round-robin cursor for attributing sectors to L2 slices / DRAM
    /// sub-partitions (addresses are interleaved on real hardware).
    slice_cursor: usize,
}

impl CacheSim {
    /// A hierarchy with Kepler/Tegra K1 geometry.
    pub fn tegra_k1() -> Self {
        CacheSim::new(CacheConfig::kepler_l1(), CacheConfig::tegra_l2())
    }

    /// A hierarchy with explicit geometry.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        assert!(l1.line_bytes == l2.line_bytes, "uniform line size assumed");
        assert!(
            l1.line_bytes.is_power_of_two()
                && l1.sets().is_power_of_two()
                && l2.sets().is_power_of_two(),
            "power-of-two lines and sets assumed"
        );
        let sector_bytes = 32;
        CacheSim {
            l1: Level::new(l1),
            l2: Level::new(l2),
            sector_bytes,
            line_shift: l1.line_bytes.trailing_zeros(),
            sectors_per_line: (l1.line_bytes / sector_bytes) as u64,
            slice_cursor: 0,
        }
    }

    /// Sector granularity (32 B on Kepler).
    pub fn sector_bytes(&self) -> usize {
        self.sector_bytes
    }

    /// The first and last line numbers `bytes` bytes at `addr` touch.
    fn line_span(&self, addr: u64, bytes: usize) -> (u64, u64) {
        assert!(bytes > 0, "zero-length access");
        (addr >> self.line_shift, (addr + bytes as u64 - 1) >> self.line_shift)
    }

    /// Simulates a read of `bytes` bytes at `addr`, folding the hardware
    /// events it would generate into `counters`.  Returns the overall
    /// outcome (worst level touched).
    pub fn read(&mut self, addr: u64, bytes: usize, counters: &CounterSet) -> AccessOutcome {
        self.read_lines(addr, bytes, true, counters)
    }

    /// Simulates a read that bypasses L1 (Kepler's *default* global-load
    /// path: plain loads are cached in L2 only; L1 caching requires the
    /// read-only `__ldg` path, which [`CacheSim::read`] models).
    pub fn read_l2_only(
        &mut self,
        addr: u64,
        bytes: usize,
        counters: &CounterSet,
    ) -> AccessOutcome {
        self.read_lines(addr, bytes, false, counters)
    }

    /// The line loop behind both read paths.  An L1 miss (or every line,
    /// when `through_l1` is false) queries L2 for all of the line's
    /// sectors, which are attributed round-robin to the four L2 slices on
    /// a hit and to the two DRAM sub-partitions on a miss.
    fn read_lines(
        &mut self,
        addr: u64,
        bytes: usize,
        through_l1: bool,
        counters: &CounterSet,
    ) -> AccessOutcome {
        let (first_line, last_line) = self.line_span(addr, bytes);
        let sectors = self.sectors_per_line;
        let mut tally = ReadTally::default();
        let mut worst = if through_l1 { AccessOutcome::L1Hit } else { AccessOutcome::L2Hit };
        for line in first_line..=last_line {
            if through_l1 && self.l1.access(line) {
                tally.l1_hit_lines += 1;
                continue;
            }
            let at = self.slice_cursor % 4;
            if self.l2.access(line) {
                tally.l2_lines[at] += 1;
                if worst == AccessOutcome::L1Hit {
                    worst = AccessOutcome::L2Hit;
                }
            } else {
                tally.dram_lines[at] += 1;
                worst = AccessOutcome::Dram;
            }
            self.slice_cursor += sectors as usize;
        }
        tally.add_to(counters, sectors);
        worst
    }

    /// Simulates a write of `bytes` at `addr` (write-through to L2, as
    /// Kepler L1 does not cache global stores).
    pub fn write(&mut self, addr: u64, bytes: usize, counters: &CounterSet) {
        let (first_line, last_line) = self.line_span(addr, bytes);
        let sectors = bytes.div_ceil(self.sector_bytes) as u64;
        counters.add(CounterEvent::l2_subp0_total_write_sector_queries, sectors);
        counters.add(CounterEvent::gst_request, 1);
        // Keep L2 warm with the written lines.
        for line in first_line..=last_line {
            self.l2.access(line);
        }
    }

    /// Flushes both levels (between FMM phases, which stream different
    /// arrays).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }
}

/// A per-sector, timestamp-LRU line loop: the reference [`CacheSim`]'s
/// outcomes and counters must equal bit for bit.
#[cfg(test)]
mod reference {
    use super::{AccessOutcome, CacheConfig};
    use crate::events::CounterEvent;
    use crate::registry::CounterSet;

    #[derive(Debug)]
    struct Level {
        config: CacheConfig,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl Level {
        fn new(config: CacheConfig) -> Self {
            let slots = config.sets() * config.ways;
            Level { config, tags: vec![u64::MAX; slots], stamps: vec![0; slots], clock: 0 }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let line = addr / self.config.line_bytes as u64;
            let sets = self.config.sets() as u64;
            let set = (line % sets) as usize;
            let ways = self.config.ways;
            let base = set * ways;
            for w in 0..ways {
                if self.tags[base + w] == line {
                    self.stamps[base + w] = self.clock;
                    return true;
                }
            }
            let victim = (0..ways).min_by_key(|&w| self.stamps[base + w]).expect("ways > 0");
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.clock;
            false
        }
    }

    /// The hierarchy with one counter add per sector and an LRU
    /// timestamp per way.
    #[derive(Debug)]
    pub(super) struct ReferenceSim {
        l1: Level,
        l2: Level,
        sector_bytes: usize,
        slice_cursor: usize,
    }

    impl ReferenceSim {
        pub(super) fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
            ReferenceSim {
                l1: Level::new(l1),
                l2: Level::new(l2),
                sector_bytes: 32,
                slice_cursor: 0,
            }
        }

        fn l2_sectors(&mut self, sectors_per_line: u64, counters: &CounterSet) {
            for _ in 0..sectors_per_line {
                let ev = match self.slice_cursor % 4 {
                    0 => CounterEvent::l2_subp0_read_l1_hit_sectors,
                    1 => CounterEvent::l2_subp1_read_l1_hit_sectors,
                    2 => CounterEvent::l2_subp2_read_l1_hit_sectors,
                    _ => CounterEvent::l2_subp3_read_l1_hit_sectors,
                };
                counters.add(ev, 1);
                self.slice_cursor += 1;
            }
        }

        fn dram_sectors(&mut self, sectors_per_line: u64, counters: &CounterSet) {
            for _ in 0..sectors_per_line {
                let ev = if self.slice_cursor.is_multiple_of(2) {
                    CounterEvent::fb_subp0_read_sectors
                } else {
                    CounterEvent::fb_subp1_read_sectors
                };
                counters.add(ev, 1);
                self.slice_cursor += 1;
            }
        }

        pub(super) fn read(
            &mut self,
            addr: u64,
            bytes: usize,
            counters: &CounterSet,
        ) -> AccessOutcome {
            assert!(bytes > 0, "zero-length access");
            let line_bytes = self.l1.config.line_bytes as u64;
            let first_line = addr / line_bytes;
            let last_line = (addr + bytes as u64 - 1) / line_bytes;
            let sectors_per_line = (line_bytes as usize / self.sector_bytes) as u64;
            let mut worst = AccessOutcome::L1Hit;
            for line in first_line..=last_line {
                let line_addr = line * line_bytes;
                if self.l1.access(line_addr) {
                    counters.add(CounterEvent::l1_global_load_hit, 1);
                    continue;
                }
                for _ in 0..sectors_per_line {
                    counters.add(CounterEvent::l2_subp0_total_read_sector_queries, 1);
                }
                if self.l2.access(line_addr) {
                    self.l2_sectors(sectors_per_line, counters);
                    if worst == AccessOutcome::L1Hit {
                        worst = AccessOutcome::L2Hit;
                    }
                } else {
                    self.dram_sectors(sectors_per_line, counters);
                    worst = AccessOutcome::Dram;
                }
            }
            counters.add(CounterEvent::gld_request, 1);
            worst
        }

        pub(super) fn read_l2_only(
            &mut self,
            addr: u64,
            bytes: usize,
            counters: &CounterSet,
        ) -> AccessOutcome {
            assert!(bytes > 0, "zero-length access");
            let line_bytes = self.l1.config.line_bytes as u64;
            let first_line = addr / line_bytes;
            let last_line = (addr + bytes as u64 - 1) / line_bytes;
            let sectors_per_line = (line_bytes as usize / self.sector_bytes) as u64;
            let mut worst = AccessOutcome::L2Hit;
            for line in first_line..=last_line {
                let line_addr = line * line_bytes;
                for _ in 0..sectors_per_line {
                    counters.add(CounterEvent::l2_subp0_total_read_sector_queries, 1);
                }
                if self.l2.access(line_addr) {
                    self.l2_sectors(sectors_per_line, counters);
                } else {
                    self.dram_sectors(sectors_per_line, counters);
                    worst = AccessOutcome::Dram;
                }
            }
            counters.add(CounterEvent::gld_request, 1);
            worst
        }

        pub(super) fn write(&mut self, addr: u64, bytes: usize, counters: &CounterSet) {
            assert!(bytes > 0, "zero-length access");
            let sectors = bytes.div_ceil(self.sector_bytes) as u64;
            counters.add(CounterEvent::l2_subp0_total_write_sector_queries, sectors);
            counters.add(CounterEvent::gst_request, 1);
            let line_bytes = self.l1.config.line_bytes as u64;
            let first_line = addr / line_bytes;
            let last_line = (addr + bytes as u64 - 1) / line_bytes;
            for line in first_line..=last_line {
                self.l2.access(line * line_bytes);
            }
        }

        pub(super) fn flush(&mut self) {
            self.l1 = Level::new(self.l1.config);
            self.l2 = Level::new(self.l2.config);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compat::prop::prelude::*;

    fn tiny_l1() -> CacheConfig {
        // 2 sets x 2 ways x 128 B = 512 B.
        CacheConfig { capacity_bytes: 512, line_bytes: 128, ways: 2 }
    }

    fn tiny_l2() -> CacheConfig {
        // 4 sets x 2 ways x 128 B = 1 KB.
        CacheConfig { capacity_bytes: 1024, line_bytes: 128, ways: 2 }
    }

    fn tiny() -> CacheSim {
        CacheSim::new(tiny_l1(), tiny_l2())
    }

    #[test]
    fn first_touch_misses_to_dram_second_hits_l1() {
        let mut sim = tiny();
        let c = CounterSet::new();
        assert_eq!(sim.read(0, 8, &c), AccessOutcome::Dram);
        assert_eq!(sim.read(0, 8, &c), AccessOutcome::L1Hit);
        assert_eq!(c.get(CounterEvent::l1_global_load_hit), 1);
        assert_eq!(c.dram_read_sectors(), 4, "one 128 B line = 4 sectors");
        assert_eq!(c.get(CounterEvent::gld_request), 2);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut sim = tiny();
        let c = CounterSet::new();
        // Fill set 0 of L1 beyond its 2 ways: lines 0, 2, 4 map to set 0
        // (2 sets).  Line 0 gets evicted from L1 but stays in L2.
        sim.read(0, 8, &c);
        sim.read(2 * 128, 8, &c);
        sim.read(4 * 128, 8, &c);
        assert_eq!(sim.read(0, 8, &c), AccessOutcome::L2Hit, "L1 evicted, L2 retains");
        assert!(c.l2_read_hit_sectors() >= 4);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut sim = tiny();
        let c = CounterSet::new();
        sim.read(120, 16, &c); // bytes 120..136 cross the 128 B boundary
        assert_eq!(c.dram_read_sectors(), 8, "two lines fetched");
    }

    #[test]
    fn sector_queries_equal_hits_plus_dram() {
        // The identity behind the paper's "L2 reads = total queries −
        // DRAM reads" derivation.
        let mut sim = tiny();
        let c = CounterSet::new();
        for i in 0..64 {
            sim.read((i % 24) * 128, 8, &c);
        }
        let queries = c.get(CounterEvent::l2_subp0_total_read_sector_queries);
        assert_eq!(queries, c.l2_read_hit_sectors() + c.dram_read_sectors());
    }

    #[test]
    fn writes_count_store_sectors() {
        let mut sim = tiny();
        let c = CounterSet::new();
        sim.write(0, 64, &c);
        assert_eq!(c.get(CounterEvent::l2_subp0_total_write_sector_queries), 2);
        assert_eq!(c.get(CounterEvent::gst_request), 1);
    }

    #[test]
    fn flush_forgets_contents() {
        let mut sim = tiny();
        let c = CounterSet::new();
        sim.read(0, 8, &c);
        sim.flush();
        assert_eq!(sim.read(0, 8, &c), AccessOutcome::Dram);
    }

    #[test]
    fn dram_sectors_balance_across_subpartitions() {
        let mut sim = CacheSim::tegra_k1();
        let c = CounterSet::new();
        for i in 0..1000u64 {
            sim.read(i * 4096, 128, &c); // all misses, distinct lines
        }
        let a = c.get(CounterEvent::fb_subp0_read_sectors);
        let b = c.get(CounterEvent::fb_subp1_read_sectors);
        assert_eq!(a + b, 4000);
        assert!((a as i64 - b as i64).abs() <= 4, "round-robin stripes evenly");
    }

    #[test]
    fn working_set_inside_l1_stays_in_l1() {
        let mut sim = CacheSim::tegra_k1();
        let c = CounterSet::new();
        // 8 KB working set fits the 16 KB L1.
        for pass in 0..4 {
            for line in 0..64u64 {
                let outcome = sim.read(line * 128, 128, &c);
                if pass > 0 {
                    assert_eq!(outcome, AccessOutcome::L1Hit, "pass {pass} line {line}");
                }
            }
        }
    }

    #[test]
    fn l2_only_reads_never_touch_l1() {
        let mut sim = tiny();
        let c = CounterSet::new();
        assert_eq!(sim.read_l2_only(0, 8, &c), AccessOutcome::Dram);
        assert_eq!(sim.read_l2_only(0, 8, &c), AccessOutcome::L2Hit);
        assert_eq!(c.get(CounterEvent::l1_global_load_hit), 0);
        assert_eq!(c.l2_read_hit_sectors(), 4);
        // A later L1-path read still misses L1 (the line was never filled).
        let outcome = sim.read(0, 8, &c);
        assert_ne!(outcome, AccessOutcome::L1Hit);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_read_rejected() {
        let mut sim = tiny();
        let c = CounterSet::new();
        sim.read(0, 0, &c);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_sets_rejected() {
        // 3 sets x 2 ways x 128 B.
        let l1 = CacheConfig { capacity_bytes: 768, line_bytes: 128, ways: 2 };
        CacheSim::new(l1, tiny_l2());
    }

    #[test]
    fn stripe_deals_sectors_round_robin() {
        for cursor in 0..8 {
            for n in 0..11u64 {
                let mut lanes = [0u64; 4];
                stripe(&mut lanes, cursor, n, 1);
                let mut dealt = [0u64; 4];
                for k in 0..n as usize {
                    dealt[(cursor + k) % 4] += 1;
                }
                assert_eq!(lanes, dealt, "cursor {cursor}, {n} sectors");
            }
        }
    }

    /// One call on a hierarchy.
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Read(u64, usize),
        ReadL2Only(u64, usize),
        Write(u64, usize),
        Flush,
    }

    /// Random call streams of up to `max_bytes` per access over
    /// `2^addr_bits` bytes of address space, with roughly one flush per
    /// 32 calls.
    fn calls(addr_bits: u32, max_bytes: usize) -> impl Strategy<Value = Vec<Call>> {
        let call = (0u8..32, 0u64..(1 << addr_bits), 1usize..max_bytes);
        compat::prop::collection::vec(call, 1..400).prop_map(|raw| {
            raw.into_iter()
                .map(|(kind, addr, bytes)| match kind {
                    0 => Call::Flush,
                    1..=11 => Call::Read(addr, bytes),
                    12..=23 => Call::ReadL2Only(addr, bytes),
                    _ => Call::Write(addr, bytes),
                })
                .collect()
        })
    }

    /// Replays `calls` on [`CacheSim`] and the per-sector reference,
    /// requiring equal outcomes on every call and equal counters after
    /// every call.
    fn replay(l1: CacheConfig, l2: CacheConfig, calls: &[Call]) -> Result<(), TestCaseError> {
        let mut sim = CacheSim::new(l1, l2);
        let mut reference = reference::ReferenceSim::new(l1, l2);
        let (c, rc) = (CounterSet::new(), CounterSet::new());
        for (i, &call) in calls.iter().enumerate() {
            let (got, want) = match call {
                Call::Read(a, b) => (Some(sim.read(a, b, &c)), Some(reference.read(a, b, &rc))),
                Call::ReadL2Only(a, b) => {
                    (Some(sim.read_l2_only(a, b, &c)), Some(reference.read_l2_only(a, b, &rc)))
                }
                Call::Write(a, b) => {
                    sim.write(a, b, &c);
                    reference.write(a, b, &rc);
                    (None, None)
                }
                Call::Flush => {
                    sim.flush();
                    reference.flush();
                    (None, None)
                }
            };
            prop_assert_eq!(got, want, "call {} ({:?}): {:?} vs {:?}", i, call, got, want);
            let (snap, want_snap) = (c.snapshot(), rc.snapshot());
            prop_assert_eq!(
                snap,
                want_snap,
                "after call {} ({:?}): {:?} vs {:?}",
                i,
                call,
                snap,
                want_snap
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn tally_matches_the_per_sector_reference_on_tegra_k1(stream in calls(18, 1200)) {
            replay(CacheConfig::kepler_l1(), CacheConfig::tegra_l2(), &stream)?;
        }

        #[test]
        fn tally_matches_the_per_sector_reference_on_a_tiny_hierarchy(stream in calls(12, 600)) {
            replay(tiny_l1(), tiny_l2(), &stream)?;
        }

        #[test]
        fn tally_matches_the_per_sector_reference_with_short_lines(stream in calls(10, 160)) {
            // One- and two-sector lines make the slice and sub-partition
            // split depend on where the round-robin cursor stands.
            for line_bytes in [32, 64] {
                let l1 = CacheConfig { capacity_bytes: 4 * line_bytes, line_bytes, ways: 2 };
                let l2 = CacheConfig { capacity_bytes: 8 * line_bytes, line_bytes, ways: 2 };
                replay(l1, l2, &stream)?;
            }
        }
    }
}
