//! Two-level cache hierarchy with stride prefetching and a
//! bandwidth-limited HBM2 main memory (paper Table I).
//!
//! The model is a timing model over real tag state: set-associative LRU
//! arrays decide hit/miss; misses propagate downward and pay the
//! configured load-to-use latencies; L2 misses additionally queue on a
//! DRAM channel with finite bytes-per-cycle bandwidth (the resource that
//! caps multicore scaling in Fig. 13b).

use crate::config::{CacheConfig, CoreConfig};
use crate::stats::RunStats;

/// A set-associative LRU tag array.
///
/// Validity is generation-stamped: a way holds a line only when its
/// `gens` entry matches the array's current `generation`. This makes
/// [`reset`](CacheArray::reset) O(1) — bump the generation and every
/// way is invalid again — instead of refilling the tag and LRU vectors
/// (~3 MB for an 8 MB L2), which dominated per-pair cost in pooled
/// batch runs.
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: usize,
    /// `sets - 1` when `sets` is a power of two, so the set index is a
    /// mask; else `None` and `line % sets` (e.g. `share_of(3)`'s L2).
    set_mask: Option<u64>,
    ways: usize,
    line_bits: u32,
    /// `tags[set * ways + way]`; meaningful only when the matching
    /// `gens` entry equals `generation`.
    tags: Vec<u64>,
    /// Generation stamp parallel to `tags`: the way is valid iff
    /// `gens[i] == generation`.
    gens: Vec<u32>,
    /// LRU timestamps parallel to `tags`; consulted only for valid ways.
    stamps: Vec<u64>,
    tick: u64,
    /// Current validity generation. Starts at 1 so the zero-initialised
    /// `gens` mark every way empty.
    generation: u32,
}

impl CacheArray {
    /// Builds the tag array for a configuration.
    pub fn new(cfg: &CacheConfig) -> CacheArray {
        let sets = cfg.sets().max(1);
        CacheArray {
            sets,
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            ways: cfg.ways,
            line_bits: cfg.line.trailing_zeros(),
            tags: vec![0; sets * cfg.ways],
            gens: vec![0; sets * cfg.ways],
            stamps: vec![0; sets * cfg.ways],
            tick: 0,
            generation: 1,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.sets as u64) as usize,
        }
    }

    /// Line address (cache-line granularity) of a byte address.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_bits
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        1 << self.line_bits
    }

    /// Looks a line up, refreshing LRU state on hit.
    pub fn probe(&mut self, line: u64) -> bool {
        self.tick += 1;
        let set = self.set_of(line);
        for w in 0..self.ways {
            let i = set * self.ways + w;
            if self.gens[i] == self.generation && self.tags[i] == line {
                self.stamps[i] = self.tick;
                return true;
            }
        }
        false
    }

    /// Installs a line, evicting the LRU way. Returns the evicted line.
    pub fn install(&mut self, line: u64) -> Option<u64> {
        self.tick += 1;
        let set = self.set_of(line);
        // Victim choice mirrors the pre-generation behaviour exactly:
        // the first *empty* way wins, otherwise the least-recent valid
        // way (stale stamps belong to invalid ways and are never read).
        let mut victim = set * self.ways;
        for w in 0..self.ways {
            let i = set * self.ways + w;
            if self.gens[i] != self.generation {
                victim = i;
                break;
            }
            if self.stamps[i] < self.stamps[victim] {
                victim = i;
            }
        }
        let evicted = (self.gens[victim] == self.generation).then_some(self.tags[victim]);
        self.tags[victim] = line;
        self.gens[victim] = self.generation;
        self.stamps[victim] = self.tick;
        evicted
    }

    /// Whether a line is resident, without an LRU update (the prefetch
    /// path checks residency before installing).
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_of(line);
        (0..self.ways).any(|w| {
            let i = set * self.ways + w;
            self.gens[i] == self.generation && self.tags[i] == line
        })
    }

    /// Invalidates every line in place. Equivalent to rebuilding the
    /// array with `CacheArray::new`, but O(1): bumping the generation
    /// invalidates every way without touching the tag and LRU vectors
    /// (~3 MB for an 8 MB L2, previously refilled on every pooled-batch
    /// pair). Resetting the tick keeps post-reset LRU decisions
    /// bit-identical to a freshly built array.
    pub fn reset(&mut self) {
        self.tick = 0;
        self.generation += 1;
        // A u32 generation cannot realistically wrap (4 billion resets),
        // but if it does, fall back to the full wipe so stale ways from
        // generation N never masquerade as valid in generation N + 2^32.
        if self.generation == 0 {
            self.gens.fill(0);
            self.generation = 1;
        }
    }
}

/// Per-PC stride detector (degree-N line prefetcher on L1/L2, Table I).
#[derive(Debug, Clone, Default)]
struct StridePrefetcher {
    /// `table[pc]` = (last line, last stride, confidence), `None` until
    /// `pc` first touches memory. `pc` is an instruction index, so the
    /// table grows on demand to the largest memory-accessing pc.
    table: Vec<Option<(u64, i64, u8)>>,
}

impl StridePrefetcher {
    /// Observes a demand access; returns the stride to prefetch along
    /// once the same non-zero stride has repeated twice.
    fn observe(&mut self, pc: u64, line: u64) -> Option<i64> {
        let pc = pc as usize;
        if pc >= self.table.len() {
            self.table.resize(pc + 1, None);
        }
        let entry = self.table[pc].get_or_insert((line, 0, 0));
        let stride = line as i64 - entry.0 as i64;
        if stride != 0 && stride == entry.1 {
            entry.2 = entry.2.saturating_add(1);
        } else if stride != 0 {
            entry.1 = stride;
            entry.2 = 0;
        }
        entry.0 = line;
        (entry.2 >= 2 && entry.1 != 0).then_some(entry.1)
    }
}

/// The full memory system of one core: private L1D, (share of the)
/// shared L2, and the DRAM channel.
#[derive(Debug, Clone)]
pub struct MemSystem {
    l1: CacheArray,
    l2: CacheArray,
    l1_lat: u64,
    l2_lat: u64,
    dram_lat: u64,
    dram_bytes_per_cycle: f64,
    dram_next_free: f64,
    prefetcher: StridePrefetcher,
    prefetch_degree: usize,
}

impl MemSystem {
    /// Builds the memory system for a core configuration.
    pub fn new(cfg: &CoreConfig) -> MemSystem {
        MemSystem {
            l1: CacheArray::new(&cfg.l1d),
            l2: CacheArray::new(&cfg.l2),
            l1_lat: cfg.l1d.latency,
            l2_lat: cfg.l2.latency,
            dram_lat: cfg.mem.latency,
            dram_bytes_per_cycle: cfg.mem.bytes_per_cycle,
            dram_next_free: 0.0,
            prefetcher: StridePrefetcher::default(),
            prefetch_degree: cfg.prefetch_degree,
        }
    }

    /// Timing+state update for one demand access of `size` bytes at
    /// `addr`, issued at `cycle` by instruction `pc`. Returns the
    /// completion cycle. Stores are absorbed by the write buffer (they
    /// complete at L1 latency) but still install lines (write-allocate)
    /// and generate DRAM traffic on miss.
    pub fn access(
        &mut self,
        pc: u64,
        addr: u64,
        size: usize,
        is_store: bool,
        cycle: u64,
        stats: &mut RunStats,
    ) -> u64 {
        // Saturating end address: a guest access at the top of the
        // address space must not wrap `last` below `first`.
        let first = self.l1.line_of(addr);
        let last = self.l1.line_of(addr.saturating_add(size.max(1) as u64 - 1));
        let mut done = cycle;
        for line in first..=last {
            let t = self.access_line(line, cycle, stats);
            done = done.max(t);
            // Train the prefetcher on demand lines and install its
            // predictions without charging latency (they proceed in the
            // background; timing effect is the later hit).
            let Some(s) = self.prefetcher.observe(pc, line) else {
                continue;
            };
            let ahead =
                (1..=self.prefetch_degree as i64).filter_map(|k| line.checked_add_signed(s * k));
            for pl in ahead {
                if !self.l2.contains(pl) {
                    stats.prefetches += 1;
                    stats.dram_bytes += self.l2.line_bytes() as u64;
                    self.l2.install(pl);
                }
                if !self.l1.contains(pl) {
                    self.l1.install(pl);
                }
            }
        }
        if is_store {
            // Write buffer: the store retires at L1 speed regardless of
            // where the line was found.
            cycle + self.l1_lat
        } else {
            done
        }
    }

    fn access_line(&mut self, line: u64, cycle: u64, stats: &mut RunStats) -> u64 {
        if self.l1.probe(line) {
            stats.l1_hits += 1;
            return cycle + self.l1_lat;
        }
        stats.l1_misses += 1;
        if self.l2.probe(line) {
            self.l1.install(line);
            return cycle + self.l2_lat;
        }
        stats.l2_misses += 1;
        stats.dram_bytes += self.l1.line_bytes() as u64;
        // Queue on the DRAM channel: bandwidth-limited line transfer.
        let start = self.dram_next_free.max(cycle as f64);
        let transfer = self.l1.line_bytes() as f64 / self.dram_bytes_per_cycle;
        self.dram_next_free = start + transfer;
        self.l2.install(line);
        self.l1.install(line);
        (start + transfer).ceil() as u64 + self.dram_lat
    }

    /// L1 latency (used by the store-buffer path of the timing model).
    pub fn l1_latency(&self) -> u64 {
        self.l1_lat
    }

    /// Cold-boots the memory system in place: caches invalidated,
    /// prefetcher history and DRAM channel occupancy cleared. Behaves
    /// exactly like a freshly built `MemSystem` while keeping the large
    /// tag-array allocations alive.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.dram_next_free = 0.0;
        self.prefetcher.table.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;

    fn sys() -> (MemSystem, RunStats) {
        (
            MemSystem::new(&CoreConfig::a64fx_like()),
            RunStats::default(),
        )
    }

    #[test]
    fn first_access_misses_second_hits() {
        let (mut m, mut s) = sys();
        let t1 = m.access(0, 0x1000, 8, false, 0, &mut s);
        assert!(t1 >= 120, "cold miss pays DRAM latency, got {t1}");
        assert_eq!(s.l2_misses, 1);
        let t2 = m.access(0, 0x1008, 8, false, t1, &mut s);
        assert_eq!(t2, t1 + 4, "same line now hits L1");
        assert_eq!(s.l1_hits, 1);
    }

    #[test]
    fn l2_hit_pays_l2_latency() {
        let (mut m, mut s) = sys();
        m.access(0, 0x2000, 8, false, 0, &mut s);
        // Evict from L1 by filling its set: L1 has 128 sets, so lines
        // 0x2000 + k*128*64 collide in set.
        let stride = 128 * 64;
        for k in 1..=9u64 {
            m.access(1000 + k, 0x2000 + k * stride, 8, false, 0, &mut s);
        }
        let before_hits = s.l1_hits;
        let t = m.access(0, 0x2000, 8, false, 1000, &mut s);
        assert_eq!(s.l1_hits, before_hits, "L1 must miss after eviction");
        assert_eq!(t, 1000 + 37, "L2 hit latency");
    }

    #[test]
    fn stores_complete_at_l1_speed_but_generate_traffic() {
        let (mut m, mut s) = sys();
        let t = m.access(0, 0x9000, 8, true, 5, &mut s);
        assert_eq!(t, 5 + 4, "write buffer absorbs the store");
        assert!(s.dram_bytes > 0, "write-allocate fetched the line");
    }

    #[test]
    fn multi_line_access_touches_both_lines() {
        let (mut m, mut s) = sys();
        m.access(0, 0x1000 - 4, 8, false, 0, &mut s);
        assert_eq!(s.l1_misses, 2, "straddling access probes two lines");
    }

    #[test]
    fn stride_prefetcher_hides_streaming_latency() {
        let (mut m, mut s) = sys();
        // Stream 64 consecutive lines from the same pc.
        let mut cold = 0;
        for k in 0..64u64 {
            let t = m.access(7, 0x10_0000 + k * 64, 8, false, k * 200, &mut s);
            if t - k * 200 > 37 {
                cold += 1;
            }
        }
        assert!(
            cold <= 4,
            "after training, the stream should hit prefetched lines (cold={cold})"
        );
        assert!(s.prefetches > 0);
    }

    #[test]
    fn reset_replays_like_a_fresh_system() {
        // Five sparse pcs stream with different strides (one negative,
        // one straddling lines) and interleave, so the stride table
        // grows, trains and prefetches. The replay continues every
        // stride of the warm-up, so a reset that kept the table would
        // prefetch from its first access and diverge.
        fn stream(m: &mut MemSystem, from: u64) -> (Vec<u64>, RunStats) {
            let mut s = RunStats::default();
            let cycles = (from..from + 600)
                .map(|i| {
                    let (pc, k) = (i % 5, i / 5);
                    let addr = match pc {
                        0 => 0x10_0000 + k * 64,
                        1 => 0x80_0000 - k * 128,
                        2 => 0x20_0000 + k * 192 + 60,
                        3 => 0x30_0000 + (k % 7) * 64,
                        _ => 0x40_0000 + k * 4096,
                    };
                    m.access(pc * 97, addr, 8, pc == 3, i * 3, &mut s)
                })
                .collect();
            (cycles, s)
        }
        let (mut used, _) = sys();
        let (_, warm) = stream(&mut used, 0);
        assert!(warm.prefetches > 0, "the stream must train the prefetcher");
        used.reset();
        let (mut fresh, _) = sys();
        assert_eq!(stream(&mut used, 600), stream(&mut fresh, 600));
    }

    #[test]
    fn dram_bandwidth_throttles_burst() {
        let cfg = {
            let mut c = CoreConfig::a64fx_like();
            c.mem.bytes_per_cycle = 1.0; // 64 cycles per line
            c.prefetch_degree = 0;
            c
        };
        let mut m = MemSystem::new(&cfg);
        let mut s = RunStats::default();
        // Two simultaneous cold misses: the second queues behind the first.
        let t1 = m.access(0, 0, 8, false, 0, &mut s);
        let t2 = m.access(1, 1 << 20, 8, false, 0, &mut s);
        assert!(
            t2 >= t1 + 63,
            "second line waits for the channel: {t1} {t2}"
        );
    }

    #[test]
    fn lru_eviction_keeps_recent_lines() {
        let cfg = CacheConfig {
            capacity: 4 * 64,
            ways: 2,
            line: 64,
            latency: 1,
        };
        let mut a = CacheArray::new(&cfg);
        // Two sets; lines 0,2,4 map to set 0.
        a.install(0);
        a.install(2);
        assert!(a.probe(0)); // refresh 0 -> LRU is 2
        a.install(4); // evicts 2
        assert!(a.contains(0));
        assert!(!a.contains(2));
        assert!(a.contains(4));
    }

    #[test]
    fn set_index_is_line_mod_sets() {
        // The mask must name the same set as `line % sets` on the
        // power-of-two Table I levels, and the fallback must keep it on
        // the odd-core-count L2 share.
        let a64fx = CoreConfig::a64fx_like();
        let cases = [
            (a64fx.l1d, 128),
            (a64fx.l2, 8192),
            (a64fx.share_of(3).l2, 2730),
        ];
        let mut rng = quetzal_genomics::rng::SplitMix64::new(0x5E71D8);
        for (cfg, sets) in cases {
            let a = CacheArray::new(&cfg);
            assert_eq!(a.sets, sets);
            let n = sets as u64;
            let edges = [0, 1, n - 1, n, n + 1, 7 * n, u64::MAX / n * n, u64::MAX];
            let random = (0..10_000).map(|_| rng.next_u64());
            for line in edges.into_iter().chain(random) {
                assert_eq!(a.set_of(line) as u64, line % n, "sets={sets} line={line}");
            }
        }
    }
}
