//! Architectural state: registers, simulated memory and accelerator.

use quetzal_accel::{QBuffers, QzConfig};
use quetzal_isa::{ElemSize, PReg, VReg, XReg, VLEN_BYTES};

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Pages kept on the free list across [`SimMemory::clear`] calls
/// (16 MiB): enough to recycle every page the repo's workloads touch
/// per pair, small enough that a one-off large run does not pin its
/// peak footprint forever.
const PAGE_POOL_CAP: usize = 4096;

/// Multiplicative hasher for the `u64` page-number keys.
///
/// The default SipHash costs more than the page access it guards —
/// every guest load and store in *both* execution engines pays it.
/// Page numbers are small and dense, so one odd-constant multiply
/// (Fibonacci hashing) spreads them across the table at a fraction of
/// the cost while keeping high bits well mixed for the control bytes.
#[derive(Default)]
struct PageNoHasher(u64);

impl Hasher for PageNoHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u64 keys below).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageNoHasher>>;

/// Default resident-page budget: 2^16 pages = 256 MiB of simulated
/// memory — far above any workload in the repo, far below what an
/// adversarial scatter across the 64-bit address space could otherwise
/// force the *host* to allocate.
pub const DEFAULT_PAGE_BUDGET: usize = 1 << 16;

/// A write needed a new page beyond the resident-page budget. Surfaced
/// by the interpreter as [`SimError::MemoryFault`](crate::SimError).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageBudgetExceeded;

/// Sparse, paged, byte-addressable simulated memory.
///
/// Unwritten memory reads as zero — convenient for buffers that
/// algorithms initialise lazily. The number of resident pages is capped
/// ([`DEFAULT_PAGE_BUDGET`]): guest writes that would exceed the cap
/// fail with [`PageBudgetExceeded`] instead of growing host memory
/// without bound.
#[derive(Debug, Clone)]
pub struct SimMemory {
    pages: PageMap,
    page_budget: usize,
    /// Recycled page allocations ([`clear`](Self::clear) parks pages
    /// here instead of freeing them). Invisible to guests: pooled pages
    /// are re-zeroed before reuse.
    pool: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl Default for SimMemory {
    fn default() -> SimMemory {
        SimMemory {
            pages: PageMap::default(),
            page_budget: DEFAULT_PAGE_BUDGET,
            pool: Vec::new(),
        }
    }
}

impl SimMemory {
    /// Creates an empty memory.
    pub fn new() -> SimMemory {
        SimMemory::default()
    }

    /// Sets the resident-page budget (tests and fault-injection harnesses
    /// lower it to keep adversarial cases cheap).
    pub fn set_page_budget(&mut self, pages: usize) {
        self.page_budget = pages;
    }

    /// The page a write to `addr` lands in, allocating it if the budget
    /// allows.
    fn page_for_write(
        &mut self,
        addr: u64,
    ) -> Result<&mut Box<[u8; PAGE_SIZE]>, PageBudgetExceeded> {
        use std::collections::hash_map::Entry;
        let resident = self.pages.len();
        match self.pages.entry(addr >> PAGE_BITS) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(v) => {
                if resident >= self.page_budget {
                    return Err(PageBudgetExceeded);
                }
                let page = match self.pool.pop() {
                    Some(mut p) => {
                        p.fill(0);
                        p
                    }
                    None => Box::new([0u8; PAGE_SIZE]),
                };
                Ok(v.insert(page))
            }
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte, failing if it needs a page beyond the budget.
    ///
    /// # Errors
    ///
    /// Returns [`PageBudgetExceeded`] when the write would allocate a
    /// page past the resident cap.
    pub fn try_write_u8(&mut self, addr: u64, value: u8) -> Result<(), PageBudgetExceeded> {
        let page = self.page_for_write(addr)?;
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
        Ok(())
    }

    /// Reads `n ≤ 8` bytes little-endian, zero-extended.
    ///
    /// Fast path: an access contained in one page costs a single page
    /// lookup instead of one per byte (the interpreter's dominant
    /// memory operation — every scalar/vector element read lands here).
    pub fn read_le(&self, addr: u64, n: usize) -> u64 {
        debug_assert!(n <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + n <= PAGE_SIZE {
            let Some(p) = self.pages.get(&(addr >> PAGE_BITS)) else {
                return 0;
            };
            let mut v = 0u64;
            for (i, &b) in p[off..off + n].iter().enumerate() {
                v |= (b as u64) << (8 * i);
            }
            v
        } else {
            // Page-straddling access: per-byte slow path. Wrapping
            // address arithmetic: an access at the top of the 64-bit
            // space wraps around, like the hardware bus would.
            let mut v = 0u64;
            for i in 0..n {
                v |= (self.read_u8(addr.wrapping_add(i as u64)) as u64) << (8 * i);
            }
            v
        }
    }

    /// Writes the low `n ≤ 8` bytes of `value` little-endian (single
    /// page lookup when the access stays within one page).
    ///
    /// # Errors
    ///
    /// Returns [`PageBudgetExceeded`] when the write would allocate a
    /// page past the resident cap.
    pub fn try_write_le(
        &mut self,
        addr: u64,
        value: u64,
        n: usize,
    ) -> Result<(), PageBudgetExceeded> {
        debug_assert!(n <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + n <= PAGE_SIZE {
            let page = self.page_for_write(addr)?;
            for (i, b) in page[off..off + n].iter_mut().enumerate() {
                *b = (value >> (8 * i)) as u8;
            }
        } else {
            for i in 0..n {
                self.try_write_u8(addr.wrapping_add(i as u64), (value >> (8 * i)) as u8)?;
            }
        }
        Ok(())
    }

    /// Writes the low `n ≤ 8` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if the resident-page budget is exceeded (host-staging API;
    /// guest writes go through [`try_write_le`](Self::try_write_le)).
    pub fn write_le(&mut self, addr: u64, value: u64, n: usize) {
        self.try_write_le(addr, value, n)
            .expect("simulated memory page budget exceeded");
    }

    /// Copies a byte slice into memory, page by page.
    ///
    /// # Panics
    ///
    /// Panics if the resident-page budget is exceeded (host-staging API).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let chunk = rest.len().min(PAGE_SIZE - off);
            let page = self
                .page_for_write(addr)
                .expect("simulated memory page budget exceeded");
            page[off..off + chunk].copy_from_slice(&rest[..chunk]);
            rest = &rest[chunk..];
            addr = addr.wrapping_add(chunk as u64);
        }
    }

    /// Reads `len` bytes into a fresh vector, page by page.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Fills `out` from memory at `addr`, one page lookup per page
    /// touched. Addresses wrap at 2^64; no page is allocated.
    pub(crate) fn read_into(&self, addr: u64, out: &mut [u8]) {
        let mut addr = addr;
        let mut rest = out;
        while !rest.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let chunk = rest.len().min(PAGE_SIZE - off);
            let (head, tail) = rest.split_at_mut(chunk);
            match self.pages.get(&(addr >> PAGE_BITS)) {
                Some(p) => head.copy_from_slice(&p[off..off + chunk]),
                None => head.fill(0),
            }
            rest = tail;
            addr = addr.wrapping_add(chunk as u64);
        }
    }

    /// Stores the lanes of `v` (`B` bytes each) that predicate `pred`
    /// activates to the unit-stride range at `base`, in lane order.
    ///
    /// When the whole register lies in one page, that page is looked up
    /// once (and only if some lane is active); a page-straddling store
    /// writes lane by lane. Either way the guest-visible effects are
    /// those of per-lane stores: no active lane allocates no page, and
    /// on a budget fault the lanes before the faulting one stay written.
    ///
    /// # Errors
    ///
    /// Returns the address of the first active lane that needed a page
    /// past the resident cap.
    pub(crate) fn try_store_lanes<const B: usize>(
        &mut self,
        base: u64,
        v: &VValue,
        pred: u64,
    ) -> Result<(), u64> {
        let active_lanes = pred & lane_mask::<B>();
        if active_lanes == 0 {
            return Ok(());
        }
        let off = (base as usize) & (PAGE_SIZE - 1);
        if off + VLEN_BYTES <= PAGE_SIZE {
            let first = base.wrapping_add(u64::from(active_lanes.trailing_zeros()));
            let page = self.page_for_write(base).map_err(|_| first)?;
            let dst = &mut page[off..off + VLEN_BYTES];
            for i in 0..VLEN_BYTES / B {
                if active::<B>(pred, i) {
                    dst[i * B..(i + 1) * B].copy_from_slice(&v[i * B..(i + 1) * B]);
                }
            }
        } else {
            for i in 0..VLEN_BYTES / B {
                if active::<B>(pred, i) {
                    let addr = base.wrapping_add((i * B) as u64);
                    self.try_write_le(addr, lane::<B>(v, i), B)
                        .map_err(|_| addr)?;
                }
            }
        }
        Ok(())
    }

    /// Number of resident pages (for footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Drops every page: all addresses read as zero again, as in a
    /// fresh memory. Keeps the page-table capacity so a pooled machine
    /// does not re-grow the map from scratch, and parks up to
    /// `PAGE_POOL_CAP` page allocations on a free list for reuse —
    /// per-pair page allocation was a measurable slice of pooled batch
    /// runs. Pages beyond the cap are freed, so retained footprint
    /// stays bounded across workloads.
    pub fn clear(&mut self) {
        for (_, page) in self.pages.drain() {
            if self.pool.len() < PAGE_POOL_CAP {
                self.pool.push(page);
            }
        }
    }
}

/// A 512-bit vector register value.
pub type VValue = [u8; VLEN_BYTES];

/// Full architectural state of one core plus its QUETZAL instance.
#[derive(Debug, Clone)]
pub struct ArchState {
    x: [u64; 32],
    v: [VValue; 32],
    /// Predicates: one bit per byte lane (bit *i* governs byte lane *i*,
    /// as in SVE). An element is active iff the bit of its first byte is
    /// set.
    p: [u64; 16],
    /// Simulated main memory.
    pub mem: SimMemory,
    /// QUETZAL accelerator state.
    pub qz: QBuffers,
}

impl ArchState {
    /// Fresh state with zeroed registers and the given accelerator
    /// configuration.
    pub fn new(qz_config: QzConfig) -> ArchState {
        ArchState {
            x: [0; 32],
            v: [[0; VLEN_BYTES]; 32],
            p: [0; 16],
            mem: SimMemory::new(),
            qz: QBuffers::new(qz_config),
        }
    }

    /// Zeroes registers, memory and the accelerator in place. A reset
    /// state is architecturally indistinguishable from
    /// `ArchState::new(self.qz.config())` — the machine-pool
    /// equivalence test pins this. The memory page budget returns to its
    /// default, like every other per-run knob.
    pub fn reset(&mut self) {
        self.x = [0; 32];
        self.v = [[0; VLEN_BYTES]; 32];
        self.p = [0; 16];
        self.mem.clear();
        self.mem.set_page_budget(DEFAULT_PAGE_BUDGET);
        self.qz.reset();
    }

    /// Scalar register value.
    pub fn x(&self, r: XReg) -> u64 {
        self.x[r.index() as usize]
    }

    /// Sets a scalar register.
    pub fn set_x(&mut self, r: XReg, v: u64) {
        self.x[r.index() as usize] = v;
    }

    /// Vector register bytes.
    pub fn v(&self, r: VReg) -> &VValue {
        &self.v[r.index() as usize]
    }

    /// Mutable vector register bytes.
    pub fn v_mut(&mut self, r: VReg) -> &mut VValue {
        &mut self.v[r.index() as usize]
    }

    /// Predicate register (bit per byte lane).
    pub fn p(&self, r: PReg) -> u64 {
        self.p[r.index() as usize]
    }

    /// Sets a predicate register.
    pub fn set_p(&mut self, r: PReg, v: u64) {
        self.p[r.index() as usize] = v;
    }

    /// Reads element `i` of vector `r`, zero-extended to 64 bits.
    pub fn v_elem(&self, r: VReg, i: usize, esize: ElemSize) -> u64 {
        by_width!(esize, |B| lane::<B>(self.v(r), i))
    }

    /// Reads element `i` of vector `r` sign-extended to `i64`.
    pub fn v_elem_i64(&self, r: VReg, i: usize, esize: ElemSize) -> i64 {
        by_width!(esize, |B| lane_i64::<B>(self.v(r), i))
    }

    /// Writes the low bits of `value` to element `i` of vector `r`.
    pub fn set_v_elem(&mut self, r: VReg, i: usize, esize: ElemSize, value: u64) {
        by_width!(esize, |B| set_lane::<B>(self.v_mut(r), i, value));
    }

    /// Counts active elements of a predicate at `esize`.
    pub fn pred_count(&self, pg: PReg, esize: ElemSize) -> u64 {
        by_width!(esize, |B| u64::from(
            (self.p(pg) & lane_mask::<B>()).count_ones()
        ))
    }

    /// The eight 64-bit lanes of a vector register.
    pub fn v_lanes64(&self, r: VReg) -> [u64; 8] {
        let v = self.v(r);
        std::array::from_fn(|i| lane::<8>(v, i))
    }

    /// Active-lane mask at 64-bit granularity.
    pub fn mask64(&self, pg: PReg) -> [bool; 8] {
        let p = self.p(pg);
        std::array::from_fn(|i| active::<8>(p, i))
    }
}

/// Evaluates `$body` with the const `$b` bound to the byte width of
/// `$esize` — one element-size dispatch, after which every lane access
/// in `$body` is monomorphised on a fixed width.
macro_rules! by_width {
    ($esize:expr, |$b:ident| $body:expr) => {
        match $esize {
            ElemSize::B8 => {
                const $b: usize = 1;
                $body
            }
            ElemSize::B16 => {
                const $b: usize = 2;
                $body
            }
            ElemSize::B32 => {
                const $b: usize = 4;
                $body
            }
            ElemSize::B64 => {
                const $b: usize = 8;
                $body
            }
        }
    };
}
pub(crate) use by_width;

/// Element `i` of a register of `B`-byte lanes, zero-extended.
#[inline(always)]
pub(crate) fn lane<const B: usize>(v: &VValue, i: usize) -> u64 {
    let mut le = [0u8; 8];
    le[..B].copy_from_slice(&v[i * B..(i + 1) * B]);
    u64::from_le_bytes(le)
}

/// Element `i` of a register of `B`-byte lanes, sign-extended.
#[inline(always)]
pub(crate) fn lane_i64<const B: usize>(v: &VValue, i: usize) -> i64 {
    let shift = 64 - 8 * B as u32;
    ((lane::<B>(v, i) << shift) as i64) >> shift
}

/// Writes the low `B` bytes of `x` to element `i` (truncating).
#[inline(always)]
pub(crate) fn set_lane<const B: usize>(v: &mut VValue, i: usize, x: u64) {
    v[i * B..(i + 1) * B].copy_from_slice(&x.to_le_bytes()[..B]);
}

/// Whether element `i` of `B`-byte lanes is active under predicate word
/// `p` (SVE layout: the bit of the element's first byte governs it).
#[inline(always)]
pub(crate) fn active<const B: usize>(p: u64, i: usize) -> bool {
    (p >> (i * B)) & 1 == 1
}

/// The predicate bits that govern `B`-byte lanes: every `B`-th bit.
#[inline(always)]
pub(crate) const fn lane_mask<const B: usize>() -> u64 {
    u64::MAX / ((1 << B) - 1)
}

/// A predicate word with the first `n` `B`-byte lanes active.
#[inline(always)]
pub(crate) fn first_n<const B: usize>(n: usize) -> u64 {
    let bits = n.saturating_mul(B);
    let low = if bits >= 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    };
    lane_mask::<B>() & low
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_isa::{P0, V0, X0};

    #[test]
    fn memory_reads_zero_when_untouched() {
        let m = SimMemory::new();
        assert_eq!(m.read_u8(0xDEAD_BEEF), 0);
        assert_eq!(m.read_le(12345, 8), 0);
    }

    #[test]
    fn memory_round_trip_across_page_boundary() {
        let mut m = SimMemory::new();
        let addr = (PAGE_SIZE - 3) as u64;
        m.write_le(addr, 0x1122_3344_5566_7788, 8);
        assert_eq!(m.read_le(addr, 8), 0x1122_3344_5566_7788);
        assert!(m.resident_pages() >= 2);
    }

    #[test]
    fn memory_bytes_round_trip() {
        let mut m = SimMemory::new();
        m.write_bytes(100, b"hello world");
        assert_eq!(m.read_bytes(100, 11), b"hello world");
    }

    #[test]
    fn vector_element_round_trip() {
        let mut s = ArchState::new(QzConfig::QZ_8P);
        for esize in ElemSize::all() {
            for i in 0..esize.lanes() {
                s.set_v_elem(V0, i, esize, (i as u64 * 3) & 0xFF);
            }
            for i in 0..esize.lanes() {
                assert_eq!(s.v_elem(V0, i, esize), (i as u64 * 3) & 0xFF);
            }
        }
    }

    #[test]
    fn sign_extension() {
        let mut v: VValue = [0; VLEN_BYTES];
        v[..4].copy_from_slice(&[0xFF, 0x7F, 0xFF, 0xFF]);
        assert_eq!(lane_i64::<1>(&v, 0), -1);
        assert_eq!(lane_i64::<1>(&v, 1), 127);
        assert_eq!(lane_i64::<2>(&v, 0), 0x7FFF);
        assert_eq!(lane_i64::<4>(&v, 0), -0x8001);
        v[8..16].fill(0xFF);
        assert_eq!(lane_i64::<4>(&v, 2), -1);
        assert_eq!(lane_i64::<8>(&v, 1), -1);
        assert_eq!(lane::<8>(&v, 1), u64::MAX);
    }

    #[test]
    fn truncation() {
        // Writes keep the low element bytes and never touch neighbours.
        let mut v: VValue = [0xAA; VLEN_BYTES];
        set_lane::<1>(&mut v, 1, -1i64 as u64);
        assert_eq!((v[0], v[1], v[2]), (0xAA, 0xFF, 0xAA));
        set_lane::<1>(&mut v, 1, 256);
        assert_eq!(lane::<1>(&v, 1), 0);
        set_lane::<2>(&mut v, 3, 0x1_2345);
        assert_eq!((lane::<2>(&v, 3), v[5], v[8]), (0x2345, 0xAA, 0xAA));
        set_lane::<8>(&mut v, 7, -1i64 as u64);
        assert_eq!(lane::<8>(&v, 7), u64::MAX);
    }

    #[test]
    fn predicates_at_element_granularity() {
        let mut s = ArchState::new(QzConfig::QZ_8P);
        s.set_p(P0, first_n::<8>(3));
        assert!(active::<8>(s.p(P0), 0));
        assert!(active::<8>(s.p(P0), 2));
        assert!(!active::<8>(s.p(P0), 3));
        assert_eq!(s.pred_count(P0, ElemSize::B64), 3);
        assert_eq!(lane_mask::<1>(), u64::MAX);
        assert_eq!(lane_mask::<2>(), 0x5555_5555_5555_5555);
        assert_eq!(lane_mask::<8>(), 0x0101_0101_0101_0101);
        assert_eq!(first_n::<4>(2), 0x11);
        assert_eq!(first_n::<2>(usize::MAX), lane_mask::<2>());
        s.set_p(P0, u64::MAX);
        assert_eq!(s.pred_count(P0, ElemSize::B32), 16);
    }

    #[test]
    fn scalar_registers() {
        let mut s = ArchState::new(QzConfig::QZ_8P);
        s.set_x(X0, 42);
        assert_eq!(s.x(X0), 42);
    }
}
