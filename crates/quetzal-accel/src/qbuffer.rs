//! The QBUFFER scratchpad pair and its access-control logic
//! (paper §IV-B and §IV-C).
//!
//! Each QBUFFER is a direct-mapped, index-addressed SRAM structure of
//! eight 64-bit-wide banks (one per VPU lane), replicated once per read
//! port. It supports three element sizes (2-, 8- and 64-bit) and
//! unaligned sub-word reads: a read fetches two consecutive words and
//! splices them at the element's bit offset (Fig. 10).
//!
//! Functional state and timing live together here so that the simulator
//! can both *compute* results and *charge* the right number of cycles:
//!
//! * vector read latency: `8 / ports + 1` cycles ([`QzConfig::read_latency`]);
//! * direct-mode write latency: the maximum number of requests landing
//!   on the same bank (§IV-B.2: "if all the requests go to the same
//!   bank, the direct-mode write latency will be eight cycles").

use crate::config::QzConfig;
use crate::count_alu::qzcount_segment;
use crate::encoder::encode_vector;
use quetzal_isa::{EncSize, QzOp, LANES_64, VLEN_BYTES};

/// Number of SRAM banks per read-port copy (one per 64-bit VPU lane).
pub const NUM_BANKS: usize = LANES_64;

/// Guest-reachable QBUFFER access faults. The hardware raises these as
/// precise exceptions at commit; the simulator surfaces them as typed
/// errors through
/// [`SimError::QBufferIndexOutOfRange`](../quetzal_uarch/interp/enum.SimError.html)
/// instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QzFault {
    /// An encoded-mode write (`qzencode`) used an element index that is
    /// not aligned to a whole SRAM word for the configured element size.
    MisalignedEncode {
        /// The offending element index.
        idx: u64,
        /// The required alignment in elements.
        align: u64,
    },
}

impl std::fmt::Display for QzFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QzFault::MisalignedEncode { idx, align } => {
                write!(f, "qzencode index {idx} not aligned to {align} elements")
            }
        }
    }
}

impl std::error::Error for QzFault {}

/// One direct-mapped scratchpad buffer.
///
/// Indices address *elements* (of the configured [`EncSize`]), not
/// bytes; out-of-range indices wrap modulo the capacity, mirroring
/// direct-mapped hardware aliasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QBuffer {
    words: Vec<u64>,
}

impl QBuffer {
    /// Creates a zero-filled buffer of `bytes` capacity.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a positive multiple of 8.
    pub fn new(bytes: usize) -> QBuffer {
        assert!(
            bytes > 0 && bytes.is_multiple_of(8),
            "QBUFFER capacity must be a positive multiple of 8 bytes"
        );
        QBuffer {
            words: vec![0u64; bytes / 8],
        }
    }

    /// Capacity in 64-bit words.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Capacity in elements of the given size.
    pub fn capacity_elems(&self, esize: EncSize) -> u64 {
        (self.words.len() * esize.per_word()) as u64
    }

    /// The word index an element maps to (after direct-mapped wrapping).
    fn word_of(&self, elem_idx: u64, esize: EncSize) -> usize {
        let wrapped = elem_idx % self.capacity_elems(esize);
        (wrapped / esize.per_word() as u64) as usize
    }

    /// The SRAM bank an element's word lives in (words are interleaved
    /// across banks like the VRF, §IV-B.1).
    pub fn bank_of(&self, elem_idx: u64, esize: EncSize) -> usize {
        self.word_of(elem_idx, esize) % NUM_BANKS
    }

    /// Reads the 64-bit segment starting at `elem_idx` (paper Fig. 10):
    /// two consecutive words are fetched and spliced at the element's bit
    /// offset. For 64-bit elements this returns the element itself.
    pub fn read_segment(&self, elem_idx: u64, esize: EncSize) -> u64 {
        let cap = self.capacity_elems(esize);
        let idx = elem_idx % cap;
        let per_word = esize.per_word() as u64;
        let word = (idx / per_word) as usize;
        let bit = ((idx % per_word) as usize) * esize.bits();
        let lo = self.words[word];
        if bit == 0 {
            lo
        } else {
            let hi = self.words[(word + 1) % self.words.len()];
            (lo >> bit) | (hi << (64 - bit))
        }
    }

    /// Writes a single element (read-modify-write for sub-word sizes).
    pub fn write_elem(&mut self, elem_idx: u64, value: u64, esize: EncSize) {
        let cap = self.capacity_elems(esize);
        let idx = elem_idx % cap;
        let per_word = esize.per_word() as u64;
        let word = (idx / per_word) as usize;
        match esize {
            EncSize::E64 => self.words[word] = value,
            _ => {
                let bit = ((idx % per_word) as usize) * esize.bits();
                let mask = ((1u64 << esize.bits()) - 1) << bit;
                self.words[word] = (self.words[word] & !mask) | ((value << bit) & mask);
            }
        }
    }

    /// Writes the two encoded segments produced by the data encoder into
    /// consecutive words starting at 2-bit element position `elem_idx`
    /// (encoded-mode write, §IV-B.2). `elem_idx` must be 32-aligned, as
    /// the hardware writes whole SRAM columns.
    ///
    /// # Panics
    ///
    /// Panics if `elem_idx` is not a multiple of 32.
    pub fn write_encoded(&mut self, elem_idx: u64, seg_a: u64, seg_b: u64) {
        assert!(
            elem_idx.is_multiple_of(32),
            "encoded-mode writes are word-aligned (32 bases)"
        );
        let cap = self.capacity_elems(EncSize::E2);
        let word = ((elem_idx % cap) / 32) as usize;
        let n = self.words.len();
        self.words[word] = seg_a;
        self.words[(word + 1) % n] = seg_b;
    }

    /// Raw word access (for tests and state save/restore).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Flips one SRAM bit (fault injection: models a soft error in the
    /// scratchpad array). `word` wraps modulo capacity and `bit` modulo
    /// 64, so any pair of values addresses a real cell.
    pub fn flip_bit(&mut self, word: usize, bit: u32) {
        let n = self.words.len();
        self.words[word % n] ^= 1u64 << (bit % 64);
    }

    /// Clears the buffer to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// Applies a `qzmhm`/`qzmm` combining operation to two 64-bit lane
/// values. `Count` routes through the count ALU over the full 64-bit
/// segments; every other operation works element-wise on the *first*
/// element at the addressed index (operands are masked to the configured
/// element width), so e.g. `qzmm<cmpeq>` compares single characters.
pub fn apply_qzop(op: QzOp, a: u64, b: u64, esize: EncSize) -> u64 {
    let (a, b) = if op == QzOp::Count {
        (a, b)
    } else {
        let m = elem_mask(esize);
        (a & m, b & m)
    };
    match op {
        QzOp::Count => qzcount_segment(a, b, esize),
        QzOp::Add => a.wrapping_add(b),
        QzOp::Sub => a.wrapping_sub(b),
        QzOp::CmpEq => u64::from(a == b),
        QzOp::Min => (a as i64).min(b as i64) as u64,
        QzOp::Max => (a as i64).max(b as i64) as u64,
        QzOp::Mul => a.wrapping_mul(b),
    }
}

/// Bit mask of one element at the configured size.
fn elem_mask(esize: EncSize) -> u64 {
    match esize {
        EncSize::E64 => u64::MAX,
        e => (1u64 << e.bits()) - 1,
    }
}

/// How one vector of direct-mode write requests lands on the SRAM banks
/// (§IV-B.2). Pure function of the addressed buffer geometry and the
/// lane indices — the write itself does not change bank mapping — so
/// timing models and observability probes can ask "how would this
/// vector serialise?" without touching buffer state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankProfile {
    /// Requests landing on each bank.
    pub per_bank: [u64; NUM_BANKS],
}

impl BankProfile {
    /// Profiles the bank distribution of `lanes` (direct-mode write
    /// requests against `buf` at element size `esize`).
    pub fn of(buf: &QBuffer, esize: EncSize, lanes: &[(u64, u64)]) -> BankProfile {
        let mut per_bank = [0u64; NUM_BANKS];
        for &(idx, _) in lanes {
            per_bank[buf.bank_of(idx, esize)] += 1;
        }
        BankProfile { per_bank }
    }

    /// The serialised latency of the write: the maximum number of
    /// requests hitting one bank, and never less than one cycle (an
    /// empty or conflict-free write still occupies its slot).
    pub fn serialisation(&self) -> u64 {
        self.per_bank.iter().copied().max().unwrap_or(0).max(1)
    }
}

/// The accelerator state visible to the core: two QBUFFERs plus the
/// access-control registers set by `qzconf` (§IV-C).
#[derive(Debug, Clone)]
pub struct QBuffers {
    bufs: [QBuffer; 2],
    /// Configured element counts (`Eb0`, `Eb1`).
    pub eb: [u64; 2],
    /// Configured element size (`Esiz`).
    pub esize: EncSize,
    cfg: QzConfig,
}

impl QBuffers {
    /// Creates the accelerator state for a hardware configuration.
    pub fn new(cfg: QzConfig) -> QBuffers {
        QBuffers {
            bufs: [
                QBuffer::new(cfg.bytes_per_buffer()),
                QBuffer::new(cfg.bytes_per_buffer()),
            ],
            eb: [0, 0],
            esize: EncSize::E64,
            cfg,
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> QzConfig {
        self.cfg
    }

    /// Restores power-on state (zeroed buffers, default access-control
    /// registers) without reallocating the SRAM arrays. A reset
    /// instance is indistinguishable from `QBuffers::new(self.config())`.
    pub fn reset(&mut self) {
        self.bufs[0].clear();
        self.bufs[1].clear();
        self.eb = [0, 0];
        self.esize = EncSize::E64;
    }

    /// Executes `qzconf`: sets element counts and element size.
    ///
    /// Returns `false` (and leaves state unchanged) if the `Esiz` field
    /// is not a valid encoding — the hardware would raise an undefined
    /// instruction fault.
    pub fn conf(&mut self, eb0: u64, eb1: u64, esiz_field: u64) -> bool {
        match EncSize::from_field(esiz_field) {
            Some(esize) => {
                self.eb = [eb0, eb1];
                self.esize = esize;
                true
            }
            None => false,
        }
    }

    /// Buffer accessor.
    pub fn buf(&self, sel: usize) -> &QBuffer {
        &self.bufs[sel]
    }

    /// Mutable buffer accessor.
    pub fn buf_mut(&mut self, sel: usize) -> &mut QBuffer {
        &mut self.bufs[sel]
    }

    /// Executes `qzencode`: bulk-stores one 512-bit vector into buffer
    /// `sel` at element position `idx`, applying the encoding selected
    /// by `qzconf`:
    ///
    /// * `E2` — 64 ASCII nucleotides are 2-bit encoded into 128 bits and
    ///   written in a single cycle (paper §IV-A/§IV-B.2);
    /// * `E8` — 64 characters pass through the encoder unchanged (the
    ///   paper's 8-bit protein encoding) and fill eight SRAM words;
    /// * `E64` — the eight 64-bit lanes are written to consecutive
    ///   words (used to stage DP values and lookup tables).
    ///
    /// Returns the latency in cycles (one per 128 bits written).
    ///
    /// # Errors
    ///
    /// Returns [`QzFault::MisalignedEncode`] if `idx` is not aligned to
    /// a whole SRAM word for the configured element size (32 elements in
    /// 2-bit mode, 8 in 8-bit mode; 64-bit mode has no constraint). The
    /// buffer is untouched on error — a precise commit-time fault.
    pub fn encode(
        &mut self,
        sel: usize,
        chars: &[u8; VLEN_BYTES],
        idx: u64,
    ) -> Result<u64, QzFault> {
        match self.esize {
            EncSize::E2 => {
                if !idx.is_multiple_of(32) {
                    return Err(QzFault::MisalignedEncode { idx, align: 32 });
                }
                let (a, b) = encode_vector(chars);
                self.bufs[sel].write_encoded(idx, a, b);
                Ok(crate::encoder::ENCODE_LATENCY)
            }
            EncSize::E8 => {
                if !idx.is_multiple_of(8) {
                    return Err(QzFault::MisalignedEncode { idx, align: 8 });
                }
                let buf = &mut self.bufs[sel];
                let cap = buf.capacity_elems(EncSize::E8);
                // Wrap the base index first so the per-word offsets can
                // never overflow, whatever the guest put in `idx`.
                let base = idx % cap;
                for (w, chunk) in chars.chunks(8).enumerate() {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(chunk);
                    let elem = (base + 8 * w as u64) % cap;
                    let wi = (elem / 8) as usize;
                    buf.words[wi] = u64::from_le_bytes(word);
                }
                Ok(4) // 512 bits at 128 bits per cycle
            }
            EncSize::E64 => {
                let buf = &mut self.bufs[sel];
                let cap = buf.capacity_elems(EncSize::E64);
                let base = idx % cap;
                for (w, chunk) in chars.chunks(8).enumerate() {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(chunk);
                    let elem = (base + w as u64) % cap;
                    buf.words[elem as usize] = u64::from_le_bytes(word);
                }
                Ok(4)
            }
        }
    }

    /// Profiles how a direct-mode write vector against buffer `sel`
    /// would land on the SRAM banks, without performing it.
    pub fn write_profile(&self, sel: usize, lanes: &[(u64, u64)]) -> BankProfile {
        BankProfile::of(&self.bufs[sel], self.esize, lanes)
    }

    /// Executes `qzstore` in direct mode: stores `(idx, val)` pairs for
    /// every active lane. Returns the latency: the maximum number of
    /// requests hitting the same bank (≥ 1).
    pub fn store(&mut self, sel: usize, lanes: &[(u64, u64)]) -> u64 {
        let profile = self.write_profile(sel, lanes);
        for &(idx, val) in lanes {
            self.bufs[sel].write_elem(idx, val, self.esize);
        }
        profile.serialisation()
    }

    /// Executes the read-modify-write `qzupdate<op>` in lane order, so
    /// duplicate indices accumulate (histogram semantics). Latency is
    /// bank-conflict serialised like `qzstore`.
    pub fn update(&mut self, sel: usize, op: QzOp, lanes: &[(u64, u64)]) -> u64 {
        let profile = self.write_profile(sel, lanes);
        for &(idx, val) in lanes {
            let old = self.bufs[sel].read_segment(idx, self.esize) & elem_mask(self.esize);
            self.bufs[sel].write_elem(idx, apply_qzop(op, old, val, self.esize), self.esize);
        }
        profile.serialisation()
    }

    /// Executes `qzload` for one vector of per-lane element indices.
    /// Inactive lanes (mask bit clear) return 0. Returns `(values,
    /// latency)`.
    pub fn load(
        &self,
        sel: usize,
        idx: &[u64; LANES_64],
        mask: &[bool; LANES_64],
    ) -> ([u64; LANES_64], u64) {
        let mut out = [0u64; LANES_64];
        for i in 0..LANES_64 {
            if mask[i] {
                out[i] = self.bufs[sel].read_segment(idx[i], self.esize);
            }
        }
        (out, self.cfg.read_latency())
    }

    /// Executes `qzmhm<op>`: reads both buffers at per-lane indices and
    /// combines. Returns `(values, latency)`; both buffer reads proceed
    /// in parallel (each buffer has its own ports), so latency is one
    /// buffer read plus the combining-ALU stage.
    pub fn mhm(
        &self,
        op: QzOp,
        idx0: &[u64; LANES_64],
        idx1: &[u64; LANES_64],
        mask: &[bool; LANES_64],
    ) -> ([u64; LANES_64], u64) {
        let mut out = [0u64; LANES_64];
        for i in 0..LANES_64 {
            if mask[i] {
                let a = self.bufs[0].read_segment(idx0[i], self.esize);
                let b = self.bufs[1].read_segment(idx1[i], self.esize);
                out[i] = apply_qzop(op, a, b, self.esize);
            }
        }
        (out, self.cfg.read_latency() + 1)
    }

    /// Executes `qzmm<op>`: combines a VRF vector with one buffer read.
    pub fn mm(
        &self,
        op: QzOp,
        sel: usize,
        val: &[u64; LANES_64],
        idx: &[u64; LANES_64],
        mask: &[bool; LANES_64],
    ) -> ([u64; LANES_64], u64) {
        let mut out = [0u64; LANES_64];
        for i in 0..LANES_64 {
            if mask[i] {
                let b = self.bufs[sel].read_segment(idx[i], self.esize);
                out[i] = apply_qzop(op, val[i], b, self.esize);
            }
        }
        (out, self.cfg.read_latency() + 1)
    }

    /// Loads an entire byte image into a buffer (used by the runtime to
    /// pre-stage sequences; equivalent to a loop of `qzencode`/`qzstore`).
    pub fn load_image(&mut self, sel: usize, image: &[u8]) {
        let buf = &mut self.bufs[sel];
        buf.clear();
        for (i, chunk) in image.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            let n = buf.num_words();
            buf.words[i % n] = u64::from_le_bytes(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_genomics::packed::Packed2;
    use quetzal_genomics::Alphabet;

    fn small() -> QBuffers {
        QBuffers::new(QzConfig::QZ_8P)
    }

    #[test]
    fn write_read_round_trip_e64() {
        let mut q = small();
        q.conf(100, 100, 2);
        q.buf_mut(0).write_elem(5, 0xDEAD_BEEF, EncSize::E64);
        assert_eq!(q.buf(0).read_segment(5, EncSize::E64), 0xDEAD_BEEF);
    }

    #[test]
    fn write_read_round_trip_e2() {
        let mut q = small();
        q.conf(64, 64, 0);
        for i in 0..64u64 {
            q.buf_mut(0).write_elem(i, i % 4, EncSize::E2);
        }
        for i in 0..64u64 {
            let seg = q.buf(0).read_segment(i, EncSize::E2);
            assert_eq!(seg & 3, i % 4, "element {i}");
        }
    }

    #[test]
    fn unaligned_segment_matches_packed2() {
        let seq: Vec<u8> = (0..200).map(|i| b"ACGT"[(i * 7 + 3) % 4]).collect();
        let packed = Packed2::from_bytes(&seq, Alphabet::Dna);
        let mut q = small();
        q.load_image(0, &packed.to_le_bytes());
        for start in [0usize, 1, 31, 32, 33, 63, 100, 150] {
            assert_eq!(
                q.buf(0).read_segment(start as u64, EncSize::E2),
                packed.segment(start),
                "segment at {start}"
            );
        }
    }

    #[test]
    fn encoded_mode_write_matches_encoder() {
        let mut q = small();
        q.conf(128, 128, 0); // 2-bit mode
        let mut chars = [b'A'; 64];
        chars[..4].copy_from_slice(b"GTCA");
        q.encode(1, &chars, 64).unwrap();
        let seg = q.buf(1).read_segment(64, EncSize::E2);
        // G=11, T=10, C=01, A=00 packed LSB-first.
        assert_eq!(seg & 0xFF, 0b00_01_10_11);
    }

    #[test]
    fn encoded_mode_rejects_unaligned_index() {
        let mut q = small();
        q.conf(128, 128, 0); // 2-bit mode
        assert_eq!(
            q.encode(0, &[b'A'; 64], 7),
            Err(QzFault::MisalignedEncode { idx: 7, align: 32 }),
        );
        assert!(
            q.buf(0).words().iter().all(|&w| w == 0),
            "faulting encode must not touch the buffer"
        );
        // 8-bit mode requires word (8-element) alignment.
        q.conf(128, 128, 1);
        assert_eq!(
            q.encode(0, &[b'A'; 64], 12),
            Err(QzFault::MisalignedEncode { idx: 12, align: 8 }),
        );
        // 64-bit mode has no alignment constraint: any index encodes.
        q.conf(128, 128, 2);
        assert!(q.encode(0, &[b'A'; 64], 7).is_ok());
    }

    #[test]
    fn encode_e8_stores_raw_chars() {
        let mut q = small();
        q.conf(64, 64, 1); // 8-bit mode
        let mut chars = [0u8; 64];
        for (i, c) in chars.iter_mut().enumerate() {
            *c = i as u8 + 1;
        }
        let lat = q.encode(0, &chars, 0).unwrap();
        assert_eq!(lat, 4);
        assert_eq!(q.buf(0).read_segment(0, EncSize::E8) & 0xFF, 1);
        assert_eq!(q.buf(0).read_segment(63, EncSize::E8) & 0xFF, 64);
    }

    #[test]
    fn encode_e64_bulk_stores_lanes() {
        let mut q = small();
        q.conf(16, 16, 2); // 64-bit mode
        let mut chars = [0u8; 64];
        chars[..8].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        chars[56..].copy_from_slice(&7u64.to_le_bytes());
        q.encode(1, &chars, 4).unwrap();
        assert_eq!(q.buf(1).read_segment(4, EncSize::E64), 0xDEAD_BEEF);
        assert_eq!(q.buf(1).read_segment(11, EncSize::E64), 7);
    }

    #[test]
    fn direct_mapped_wrapping() {
        let mut q = small();
        let cap = q.buf(0).capacity_elems(EncSize::E64);
        q.buf_mut(0).write_elem(3, 77, EncSize::E64);
        assert_eq!(q.buf(0).read_segment(3 + cap, EncSize::E64), 77);
    }

    #[test]
    fn store_latency_is_max_bank_conflicts() {
        let mut q = small();
        q.conf(1024, 1024, 2);
        // Eight consecutive word indices hit eight distinct banks: 1 cycle.
        let lanes: Vec<(u64, u64)> = (0..8).map(|i| (i, i)).collect();
        assert_eq!(q.store(0, &lanes), 1);
        // Eight indices all mapping to bank 0 (stride 8): 8 cycles.
        let lanes: Vec<(u64, u64)> = (0..8).map(|i| (i * 8, i)).collect();
        assert_eq!(q.store(0, &lanes), 8);
        // Empty store still takes a cycle.
        assert_eq!(q.store(0, &[]), 1);
    }

    #[test]
    fn load_respects_mask_and_reports_latency() {
        let mut q = small();
        q.conf(16, 16, 2);
        q.buf_mut(0).write_elem(2, 42, EncSize::E64);
        let idx = [2u64; 8];
        let mut mask = [true; 8];
        mask[7] = false;
        let (vals, lat) = q.load(0, &idx, &mask);
        assert_eq!(vals[0], 42);
        assert_eq!(vals[7], 0, "inactive lane reads zero");
        assert_eq!(lat, 2, "8-port read latency");
    }

    #[test]
    fn mhm_count_composition() {
        // Store the same 2-bit sequence in both buffers, then count.
        let mut q = small();
        q.conf(64, 64, 0);
        let seq: Vec<u8> = (0..64).map(|i| b"ACGT"[i % 4]).collect();
        let packed = Packed2::from_bytes(&seq, Alphabet::Dna);
        q.load_image(0, &packed.to_le_bytes());
        q.load_image(1, &packed.to_le_bytes());
        let idx = [0u64; 8];
        let (vals, lat) = q.mhm(QzOp::Count, &idx, &idx, &[true; 8]);
        assert_eq!(vals[0], 32, "32 consecutive matching bases per segment");
        assert_eq!(lat, 3, "read + count stage");
    }

    #[test]
    fn mm_combines_vrf_and_buffer() {
        let mut q = small();
        q.conf(16, 16, 2);
        q.buf_mut(1).write_elem(0, 10, EncSize::E64);
        q.buf_mut(1).write_elem(1, 20, EncSize::E64);
        let val = [5u64; 8];
        let idx = [0, 1, 0, 1, 0, 1, 0, 1];
        let (vals, _) = q.mm(QzOp::Add, 1, &val, &idx, &[true; 8]);
        assert_eq!(&vals[..4], &[15, 25, 15, 25]);
    }

    #[test]
    fn update_accumulates_duplicates_in_lane_order() {
        let mut q = small();
        q.conf(16, 16, 2);
        // Histogram: four increments of bin 3, two of bin 1.
        let lanes = [(3, 1), (1, 1), (3, 1), (3, 1), (1, 1), (3, 1)];
        q.update(0, QzOp::Add, &lanes);
        assert_eq!(q.buf(0).read_segment(3, EncSize::E64), 4);
        assert_eq!(q.buf(0).read_segment(1, EncSize::E64), 2);
    }

    #[test]
    fn conf_rejects_bad_esize() {
        let mut q = small();
        assert!(!q.conf(1, 1, 9));
        assert_eq!(q.esize, EncSize::E64, "state unchanged on bad field");
        assert!(q.conf(1, 1, 0));
        assert_eq!(q.esize, EncSize::E2);
    }

    #[test]
    fn apply_qzop_semantics() {
        assert_eq!(apply_qzop(QzOp::Add, 2, 3, EncSize::E64), 5);
        assert_eq!(apply_qzop(QzOp::Sub, 2, 3, EncSize::E64), u64::MAX);
        assert_eq!(apply_qzop(QzOp::CmpEq, 7, 7, EncSize::E64), 1);
        assert_eq!(apply_qzop(QzOp::CmpEq, 7, 8, EncSize::E64), 0);
        assert_eq!(apply_qzop(QzOp::Min, u64::MAX, 1, EncSize::E64), u64::MAX); // -1 < 1 signed
        assert_eq!(apply_qzop(QzOp::Max, u64::MAX, 1, EncSize::E64), 1);
        assert_eq!(apply_qzop(QzOp::Mul, 6, 7, EncSize::E64), 42);
    }

    #[test]
    fn write_profile_matches_store_latency_without_mutating() {
        let mut q = small();
        q.conf(1024, 1024, 2);
        let conflict: Vec<(u64, u64)> = (0..8).map(|i| (i * 8, i)).collect();
        let spread: Vec<(u64, u64)> = (0..8).map(|i| (i, i)).collect();

        let p = q.write_profile(0, &conflict);
        assert_eq!(p.serialisation(), 8);
        // Profiling is pure: the buffer is still zero.
        assert!(q.buf(0).words().iter().all(|&w| w == 0));
        // And the executed store reports exactly the profiled latency.
        assert_eq!(q.store(0, &conflict), p.serialisation());

        let p = q.write_profile(0, &spread);
        assert_eq!(p.serialisation(), 1);
        assert_eq!(q.update(0, QzOp::Add, &spread), 1);

        assert_eq!(BankProfile::default().serialisation(), 1);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut q = small();
        q.conf(64, 64, 0);
        q.load_image(0, &[0xAB; 64]);
        q.store(1, &[(3, 7)]);
        q.reset();
        let fresh = QBuffers::new(q.config());
        assert_eq!(q.esize, fresh.esize);
        assert_eq!(q.eb, fresh.eb);
        assert_eq!(q.buf(0).words(), fresh.buf(0).words());
        assert_eq!(q.buf(1).words(), fresh.buf(1).words());
    }

    #[test]
    fn load_image_round_trips_bytes() {
        let mut q = small();
        let image: Vec<u8> = (0..64u8).collect();
        q.load_image(0, &image);
        assert_eq!(
            q.buf(0).read_segment(0, EncSize::E64),
            u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7])
        );
    }
}
