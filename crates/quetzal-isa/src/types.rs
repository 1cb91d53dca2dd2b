//! Fundamental ISA constants and element-size types.

/// Vector length in bits — matches the Fujitsu A64FX SVE implementation
/// the paper simulates (Table I: 512-bit vector length).
pub const VLEN_BITS: usize = 512;

/// Vector length in bytes.
pub const VLEN_BYTES: usize = VLEN_BITS / 8;

/// Number of 64-bit lanes in a vector register (the VPU lane count,
/// paper §IV-B: "one bank for each of the eight 64-bit VPU lanes").
pub const LANES_64: usize = VLEN_BYTES / 8;

/// Element size of a vector operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElemSize {
    /// 8-bit elements (64 lanes).
    B8,
    /// 16-bit elements (32 lanes).
    B16,
    /// 32-bit elements (16 lanes).
    B32,
    /// 64-bit elements (8 lanes).
    B64,
}

impl ElemSize {
    /// Element width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            ElemSize::B8 => 1,
            ElemSize::B16 => 2,
            ElemSize::B32 => 4,
            ElemSize::B64 => 8,
        }
    }

    /// Element width in bits.
    pub fn bits(self) -> usize {
        self.bytes() * 8
    }

    /// Number of elements per 512-bit vector register.
    pub fn lanes(self) -> usize {
        VLEN_BYTES / self.bytes()
    }

    /// All sizes, narrow to wide.
    pub fn all() -> [ElemSize; 4] {
        [ElemSize::B8, ElemSize::B16, ElemSize::B32, ElemSize::B64]
    }
}

impl std::fmt::Display for ElemSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.bits())
    }
}

/// QUETZAL storage element size configured by `qzconf` (paper: *Esiz
/// indicates the element size (0: 2-bit (encoded), 1: 8-bit (chars) and
/// 2: 64-bit elements)*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncSize {
    /// 2-bit encoded nucleotides.
    E2,
    /// 8-bit characters (proteins, ambiguous bases).
    E8,
    /// 64-bit raw elements (DP values, histogram bins, …).
    E64,
}

impl EncSize {
    /// Element width in bits.
    pub fn bits(self) -> usize {
        match self {
            EncSize::E2 => 2,
            EncSize::E8 => 8,
            EncSize::E64 => 64,
        }
    }

    /// Elements stored per 64-bit QBUFFER word.
    pub fn per_word(self) -> usize {
        64 / self.bits()
    }

    /// Decodes the `Esiz` field of `qzconf`.
    pub fn from_field(v: u64) -> Option<EncSize> {
        match v {
            0 => Some(EncSize::E2),
            1 => Some(EncSize::E8),
            2 => Some(EncSize::E64),
            _ => None,
        }
    }

    /// Shift amount applied by the count ALU to convert matching *bits*
    /// into matching *elements* (paper §IV-D: "for 2-, 8- and 64-bit
    /// elements, the number of trailing ones is shifted by one, three,
    /// and six").
    pub fn count_shift(self) -> u32 {
        match self {
            EncSize::E2 => 1,
            EncSize::E8 => 3,
            EncSize::E64 => 6,
        }
    }
}

impl std::fmt::Display for EncSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.bits())
    }
}

/// Which of the two QBUFFERs an instruction addresses (the `SEL` operand
/// of `qzencode`/`qzstore`/`qzload`/`qzmm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QBufSel {
    /// QBUFFER 0 — by convention the pattern buffer.
    Q0,
    /// QBUFFER 1 — by convention the text buffer.
    Q1,
}

impl QBufSel {
    /// Buffer index (0 or 1).
    pub fn index(self) -> usize {
        match self {
            QBufSel::Q0 => 0,
            QBufSel::Q1 => 1,
        }
    }
}

impl std::fmt::Display for QBufSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.index())
    }
}

/// Access width of a scalar memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// One byte.
    B1,
    /// Two bytes.
    B2,
    /// Four bytes.
    B4,
    /// Eight bytes.
    B8,
}

impl MemSize {
    /// Width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            MemSize::B1 => 1,
            MemSize::B2 => 2,
            MemSize::B4 => 4,
            MemSize::B8 => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_geometry() {
        assert_eq!(VLEN_BYTES, 64);
        assert_eq!(LANES_64, 8);
        assert_eq!(ElemSize::B8.lanes(), 64);
        assert_eq!(ElemSize::B32.lanes(), 16);
        assert_eq!(ElemSize::B64.lanes(), 8);
    }

    #[test]
    fn enc_size_fields_round_trip() {
        for (v, e) in [(0, EncSize::E2), (1, EncSize::E8), (2, EncSize::E64)] {
            assert_eq!(EncSize::from_field(v), Some(e));
        }
        assert_eq!(EncSize::from_field(3), None);
    }

    #[test]
    fn count_shift_matches_paper() {
        assert_eq!(EncSize::E2.count_shift(), 1);
        assert_eq!(EncSize::E8.count_shift(), 3);
        assert_eq!(EncSize::E64.count_shift(), 6);
    }

    #[test]
    fn elements_per_word() {
        assert_eq!(EncSize::E2.per_word(), 32);
        assert_eq!(EncSize::E8.per_word(), 8);
        assert_eq!(EncSize::E64.per_word(), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ElemSize::B64.to_string(), "b64");
        assert_eq!(EncSize::E2.to_string(), "e2");
        assert_eq!(QBufSel::Q1.to_string(), "q1");
    }
}
