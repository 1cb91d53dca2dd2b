//! Free-slot structures for the out-of-order timing engine.
//!
//! The seed engine tracked every functional-unit pool as a `Vec<u64>` of
//! per-slot free times and allocated by **min-scanning** the pool, and
//! tracked the store-to-load forwarding window as a fixed ring scanned
//! **in full** on every load. Both costs scale with the configured
//! structure size, which is exactly the wrong shape for design-space
//! sweeps over wide (8-/16-issue, deep-ring) configurations.
//!
//! This module replaces them with:
//!
//! * [`FreeSlots`] — a binary min-heap of per-unit free cycles.
//!   Allocation reads the root and sifts its new free cycle down:
//!   O(log w) for a pool of width w, and a single store for the 1–2
//!   unit pools of the Table I core.
//! * [`StoreIndex`] — the same FIFO forwarding window the ring
//!   implemented, plus a granule-keyed interval index so a load
//!   consults only the stores that touch its address neighbourhood,
//!   not the whole ring.
//! * [`RobWindow`] — the reorder buffer as a power-of-two window of
//!   commit cycles indexed by retire sequence number: one masked load
//!   at dispatch and one masked store at commit, with no queue
//!   bookkeeping and no division on the per-retire path.
//!
//! # Equivalence contract
//!
//! All three structures are **observationally identical** to their
//! linear-scan predecessors; `RunStats` produced through them is
//! bit-identical (pinned by `tests/timing_golden.rs` and the randomized
//! differential suite in `crates/quetzal-uarch/tests/wheel_reference.rs`):
//!
//! * A min-scan allocation's start time depends only on the *minimum*
//!   of the pool's free-time multiset, never on which slot holds it —
//!   so any structure that maintains the same multiset and extracts its
//!   minimum allocates identically. The heap holds exactly that
//!   multiset, one entry per unit, with the minimum at the root.
//! * The forwarding fold ignores non-overlapping stores entirely and
//!   combines overlapping ones with `max`/`or`, which is order- and
//!   duplicate-independent — so visiting any **superset** of the
//!   overlapping live stores (granule-bucket neighbours, hash-collision
//!   strays, a store visited twice because it and the load both
//!   straddle a granule boundary) folds to the same result as the full
//!   ring scan, which visited *every* live store.
//! * The seed ROB deque popped its oldest entry at dispatch once it held
//!   `rob_size` entries, and commit pushed one; commit's second pop
//!   (when over `rob_size`) could never fire after dispatch's. So
//!   instruction *k* ≥ `rob_size` is floored by exactly the commit cycle
//!   of instruction *k* − `rob_size`, and a zero-size ROB never floors.
//!   The window reads that commit cycle from slot
//!   `(k − rob_size) & mask` before commit overwrites slot `k & mask`.
//!   With at least `rob_size` slots, none of the instructions in
//!   between maps to that slot, so it still holds instruction
//!   *k* − `rob_size`'s commit cycle.

/// Free-cycle tracker for a pool of identical functional units or
/// ports: a binary min-heap with one entry per unit.
///
/// Semantics are exactly the seed min-scan with unit busy time: an
/// allocation at request cycle `at` starts at `max(pool minimum, at)`
/// and returns the slot to the pool `busy` cycles later.
#[derive(Debug, Clone)]
pub struct FreeSlots {
    /// Per-unit free cycles in heap order: `heap[i] <= heap[2i + 1]`
    /// and `heap[i] <= heap[2i + 2]`, so `heap[0]` is the pool minimum.
    heap: Box<[u64]>,
}

impl FreeSlots {
    /// A pool of `units` slots, all free at cycle 0. A zero-width pool
    /// would deadlock allocation, so it clamps to one unit.
    pub fn new(units: usize) -> FreeSlots {
        FreeSlots {
            heap: vec![0; units.max(1)].into_boxed_slice(),
        }
    }

    /// Returns every slot to "free at cycle 0" (cold boot).
    pub fn reset(&mut self) {
        self.heap.fill(0);
    }

    /// Allocates the earliest-free slot for a request at cycle `at`
    /// occupying the slot for `busy` cycles. Returns the start cycle:
    /// `max(earliest free, at)`, exactly as the seed min-scan did.
    #[inline]
    pub fn alloc(&mut self, at: u64, busy: u64) -> u64 {
        let start = self.heap[0].max(at);
        // Replace the root with the slot's new free cycle and sift it
        // down past every smaller child.
        let free = start + busy;
        let heap = &mut self.heap;
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < heap.len() && heap[right] < heap[left] {
                right
            } else {
                left
            };
            if heap[child] >= free {
                break;
            }
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = free;
        start
    }
}

/// Byte shift of the interval-index granule: stores and loads are
/// indexed by the 64-byte neighbourhoods they touch. 64 bytes is both
/// the cache-line size and the widest single access the ISA produces
/// (a full 512-bit unit-stride vector), so any access spans at most two
/// granules.
const GRANULE_SHIFT: u32 = 6;

/// Empty link / unlinked-node sentinel for the intrusive chains.
const NO_NODE: u32 = u32::MAX;

/// FIFO store-to-load forwarding window with a granule-hashed interval
/// index.
///
/// Holds the most recent `depth` stores (overwriting the oldest when
/// full, exactly like the seed ring). The index hashes each touched
/// granule into a power-of-two bucket table and chains stores through
/// two preallocated intrusive nodes per slot (a store spans at most two
/// granules), so pushes, evictions and candidate walks touch only flat
/// arrays — no hashing rounds beyond one multiply, no allocation.
///
/// A candidate walk yields a **superset** of the stores overlapping the
/// probed range: everything chained in the probed granules' buckets,
/// which may include hash-collision strays and a store visited twice
/// when it and the probe both straddle a granule boundary. All
/// candidates are live stores, and callers fold with overlap-checked,
/// duplicate-insensitive operations (`max`, `|=`) — exactly the fold
/// the seed applied to *every* live store — so the result is
/// bit-identical.
#[derive(Debug, Clone, Default)]
pub struct StoreIndex {
    /// `(address, bytes, completion cycle)` per slot, FIFO by `head`.
    slots: Vec<(u64, u32, u64)>,
    /// Live entries (saturates at `depth`).
    len: usize,
    /// Next slot to overwrite.
    head: usize,
    /// Window capacity.
    depth: usize,
    /// Bucket table: first chained node per bucket (power-of-two size).
    heads: Box<[u32]>,
    /// Forward links, two nodes per slot (`2 * slot`, `2 * slot + 1`).
    next: Box<[u32]>,
    /// Backward links (`NO_NODE` at a chain head).
    prev: Box<[u32]>,
    /// Bucket each node is chained in (`NO_NODE` when unlinked).
    node_bucket: Box<[u32]>,
    /// `64 - log2(bucket count)`, for the multiply-shift granule hash.
    shift: u32,
}

impl StoreIndex {
    /// An empty window of `depth` entries.
    pub fn new(depth: usize) -> StoreIndex {
        let depth = depth.max(1).min(u16::MAX as usize);
        // 4x oversized table keeps chains near length one.
        let buckets = (4 * depth).next_power_of_two();
        StoreIndex {
            slots: vec![(0, 0, 0); depth],
            len: 0,
            head: 0,
            depth,
            heads: vec![NO_NODE; buckets].into_boxed_slice(),
            next: vec![NO_NODE; 2 * depth].into_boxed_slice(),
            prev: vec![NO_NODE; 2 * depth].into_boxed_slice(),
            node_bucket: vec![NO_NODE; 2 * depth].into_boxed_slice(),
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    /// Empties the window (cold boot).
    pub fn reset(&mut self) {
        self.slots[..self.len].fill((0, 0, 0));
        self.len = 0;
        self.head = 0;
        self.heads.fill(NO_NODE);
        self.node_bucket.fill(NO_NODE);
    }

    /// Granule range of `[addr, addr + size)` with saturating ends
    /// (guest addresses can sit at the top of the address space).
    #[inline]
    fn granules(addr: u64, size: u32) -> std::ops::RangeInclusive<u64> {
        let last = addr.saturating_add(size.saturating_sub(1) as u64);
        (addr >> GRANULE_SHIFT)..=(last >> GRANULE_SHIFT)
    }

    /// Multiply-shift hash of a granule into a bucket index.
    #[inline]
    fn bucket_of(&self, granule: u64) -> usize {
        (granule.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Chains `node` at the head of `bucket`.
    #[inline]
    fn link(&mut self, node: u32, bucket: usize) {
        let old = self.heads[bucket];
        self.next[node as usize] = old;
        self.prev[node as usize] = NO_NODE;
        if old != NO_NODE {
            self.prev[old as usize] = node;
        }
        self.heads[bucket] = node;
        self.node_bucket[node as usize] = bucket as u32;
    }

    /// Unchains `node` from wherever it is linked (no-op if unlinked).
    #[inline]
    fn unlink(&mut self, node: u32) {
        let bucket = self.node_bucket[node as usize];
        if bucket == NO_NODE {
            return;
        }
        let (n, p) = (self.next[node as usize], self.prev[node as usize]);
        if p != NO_NODE {
            self.next[p as usize] = n;
        } else {
            self.heads[bucket as usize] = n;
        }
        if n != NO_NODE {
            self.prev[n as usize] = p;
        }
        self.node_bucket[node as usize] = NO_NODE;
    }

    /// Records a store that completes at cycle `done`, evicting the
    /// oldest entry when the window is full (its nodes are unlinked and
    /// reused — the index never grows past `2 * depth` nodes).
    pub fn push(&mut self, addr: u64, size: u32, done: u64) {
        let slot = self.head;
        let (n0, n1) = ((2 * slot) as u32, (2 * slot + 1) as u32);
        self.unlink(n0);
        self.unlink(n1);
        self.slots[slot] = (addr, size, done);
        self.head += 1;
        if self.head == self.depth {
            self.head = 0;
        }
        self.len = (self.len + 1).min(self.depth);
        let mut g = Self::granules(addr, size);
        let first = g.next().unwrap_or(addr >> GRANULE_SHIFT);
        self.link(n0, self.bucket_of(first));
        if let Some(second) = g.next() {
            self.link(n1, self.bucket_of(second));
        }
    }

    /// Calls `f(store_addr, store_size, store_done)` for every live
    /// store chained in a bucket the byte range `[addr, addr+size)`
    /// hashes to — a superset of the overlapping stores (see the type
    /// docs). Callers must fold with overlap-checked,
    /// duplicate-insensitive operations, which is what the
    /// forwarding-hazard model does.
    #[inline]
    pub fn for_each_candidate(&self, addr: u64, size: u32, mut f: impl FnMut(u64, u32, u64)) {
        for g in Self::granules(addr, size) {
            let mut node = self.heads[self.bucket_of(g)];
            while node != NO_NODE {
                let (sa, ss, done) = self.slots[(node >> 1) as usize];
                f(sa, ss, done);
                node = self.next[node as usize];
            }
        }
    }
}

/// Introspection for the window-bound tests.
#[cfg(test)]
impl StoreIndex {
    /// Live entry count.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no stores.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Window capacity.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Nodes currently chained in the index. Bounded by `2 * depth`
    /// however long the run: each live store owns exactly two
    /// preallocated nodes and eviction unlinks them.
    pub(crate) fn index_node_count(&self) -> usize {
        self.node_bucket.iter().filter(|&&b| b != NO_NODE).count()
    }

    /// The live entries, in no particular order (the forwarding fold is
    /// order-independent).
    pub(crate) fn entries(&self) -> &[(u64, u32, u64)] {
        &self.slots[..self.len]
    }
}

/// The reorder buffer as a window of commit cycles indexed by retire
/// sequence number (see the module docs for why it matches the seed's
/// deque). The slot count is `rob_size` rounded up to a power of two,
/// so both the dispatch read and the commit write are a mask.
#[derive(Debug, Clone)]
pub struct RobWindow {
    /// Commit cycle of instruction `seq` at `slots[seq & mask]`.
    slots: Box<[u64]>,
    mask: u64,
    /// Architectural ROB size: how far back the dispatch floor reads.
    size: u64,
    /// Instructions committed since the last [`clear`](RobWindow::clear).
    seq: u64,
}

impl RobWindow {
    /// An empty window for a `rob_size`-entry ROB.
    pub fn new(rob_size: usize) -> RobWindow {
        let slots = rob_size
            .max(1)
            .checked_next_power_of_two()
            .expect("ROB size too large for a power-of-two window");
        RobWindow {
            slots: vec![0; slots].into_boxed_slice(),
            mask: slots as u64 - 1,
            size: rob_size as u64,
            seq: 0,
        }
    }

    /// Forgets every committed instruction (cold boot).
    pub fn clear(&mut self) {
        self.seq = 0;
    }

    /// The dispatch floor of the next instruction: the commit cycle of
    /// the instruction `rob_size` older, whose ROB entry it must wait
    /// for, or 0 while the ROB has a free entry (and always for a
    /// zero-size ROB).
    #[inline]
    pub fn floor(&self) -> u64 {
        if self.size > 0 && self.seq >= self.size {
            self.slots[((self.seq - self.size) & self.mask) as usize]
        } else {
            0
        }
    }

    /// Records the next instruction's commit cycle.
    #[inline]
    pub fn commit(&mut self, cycle: u64) {
        self.slots[(self.seq & self.mask) as usize] = cycle;
        self.seq += 1;
    }
}

/// Introspection for the bounded-memory test.
#[cfg(test)]
impl RobWindow {
    /// Slots allocated for the window.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The seed engine's min-scan pool, verbatim (the reference model).
    struct LinearPool(Vec<u64>);

    impl LinearPool {
        fn alloc(&mut self, at: u64, busy: u64) -> u64 {
            let units = &mut self.0;
            let mut best = 0;
            for (i, &t) in units.iter().enumerate() {
                if t < units[best] {
                    best = i;
                }
            }
            let start = units[best].max(at);
            units[best] = start + busy;
            start
        }
    }

    /// SplitMix64 (in-tree RNG; no external dependencies).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn wheel_matches_linear_scan_on_random_schedules() {
        for units in [1usize, 2, 3, 8, 17] {
            let mut rng = Rng(0xC0FFEE ^ units as u64);
            let mut slots = FreeSlots::new(units);
            let mut lin = LinearPool(vec![0; units]);
            let mut at = 0u64;
            for step in 0..20_000u64 {
                // Mixed request pattern: local jitter, occasional big
                // forward jumps (operands from a miss chain), occasional
                // stale (past) request cycles.
                at = match rng.below(10) {
                    0 => at + rng.below(5000),
                    1 => at.saturating_sub(rng.below(100)),
                    _ => at + rng.below(4),
                };
                let busy = 1 + rng.below(3);
                assert_eq!(
                    slots.alloc(at, busy),
                    lin.alloc(at, busy),
                    "units={units} step={step}"
                );
            }
        }
    }

    #[test]
    fn wheel_reset_restores_cold_boot() {
        let mut w = FreeSlots::new(2);
        let mut fresh = FreeSlots::new(2);
        for at in [0, 5, 1_000_000, 3] {
            w.alloc(at, 1);
        }
        w.reset();
        for at in [0, 7, 2, 900] {
            assert_eq!(w.alloc(at, 1), fresh.alloc(at, 1));
        }
    }

    #[test]
    fn wheel_zero_width_pool_clamps_to_one() {
        let mut w = FreeSlots::new(0);
        assert_eq!(w.alloc(10, 1), 10);
        assert_eq!(w.alloc(0, 1), 11);
    }

    #[test]
    fn wheel_far_jump_then_stale_request() {
        // A request far beyond the pool's free cycle starts at the
        // request; a stale request after it queues behind it.
        let mut w = FreeSlots::new(1);
        assert_eq!(w.alloc(1000, 1), 1000);
        assert_eq!(w.alloc(0, 1), 1001);
        assert_eq!(w.alloc(5000, 1), 5000);
        assert_eq!(w.alloc(5001, 1), 5001);
    }

    #[test]
    fn store_index_is_fifo_bounded_and_indexed() {
        let mut s = StoreIndex::new(4);
        for i in 0..10u64 {
            s.push(i * 8, 8, i + 100);
        }
        assert_eq!(s.len(), 4);
        // Evicted stores are no longer visible. Candidates are granule
        // neighbours, not exact overlaps, so dedup before comparing.
        let mut seen = Vec::new();
        for a in 0..10u64 {
            s.for_each_candidate(a * 8, 8, |sa, _, _| seen.push(sa));
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![48, 56, 64, 72]);
        // Bounded index: at most 2 nodes per live store.
        assert!(s.index_node_count() <= 2 * s.depth());
        s.reset();
        assert!(s.is_empty());
        s.for_each_candidate(0, 1 << 20, |_, _, _| panic!("reset index not empty"));
    }

    #[test]
    fn store_index_straddling_accesses_are_found() {
        let mut s = StoreIndex::new(8);
        // A store straddling the granule boundary at 64.
        s.push(60, 8, 42);
        for probe in [(0u64, 64u32), (64, 8), (56, 8), (60, 1), (67, 1)] {
            let mut hits = 0;
            s.for_each_candidate(probe.0, probe.1, |sa, ss, done| {
                assert_eq!((sa, ss, done), (60, 8, 42));
                hits += 1;
            });
            assert!(hits >= 1, "probe {probe:?} missed the straddling store");
        }
    }

    #[test]
    fn store_index_top_of_address_space() {
        let mut s = StoreIndex::new(4);
        s.push(u64::MAX - 3, 8, 7); // saturating end
        let mut hits = 0;
        s.for_each_candidate(u64::MAX - 63, 64, |_, _, _| hits += 1);
        assert!(hits >= 1);
    }

    /// The seed ROB deque, verbatim: dispatch pops the oldest entry once
    /// `size` are live and floors on it; commit pushes, then pops again
    /// when over `size`. Returns the dispatch floor.
    fn deque_dispatch(q: &mut VecDeque<u64>, size: usize) -> u64 {
        if q.len() >= size {
            q.pop_front().unwrap_or(0)
        } else {
            0
        }
    }

    fn deque_commit(q: &mut VecDeque<u64>, size: usize, cycle: u64) {
        q.push_back(cycle);
        if q.len() > size {
            q.pop_front();
        }
    }

    #[test]
    fn rob_window_floors_like_the_seed_deque() {
        for size in (0..=9).chain([128, 129]) {
            let mut rng = Rng(0x0B ^ size as u64);
            let mut w = RobWindow::new(size);
            let mut q = VecDeque::new();
            assert!(w.slot_count() >= size && w.slot_count() < 2 * size.max(1));
            // Two passes across a clear, with a varying run length so the
            // clear lands at different window phases.
            for pass in 0..2 {
                let mut cycle = 0u64;
                for step in 0..(3 * size + 50 + pass * 7) {
                    assert_eq!(
                        w.floor(),
                        deque_dispatch(&mut q, size),
                        "size={size} pass={pass} step={step}"
                    );
                    cycle += rng.below(4);
                    w.commit(cycle);
                    deque_commit(&mut q, size, cycle);
                }
                w.clear();
                q.clear();
            }
        }
    }
}
