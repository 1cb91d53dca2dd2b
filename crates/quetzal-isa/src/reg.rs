//! Architectural register names.

/// Number of scalar (general-purpose) registers.
pub const NUM_XREGS: u8 = 32;
/// Number of vector registers.
pub const NUM_VREGS: u8 = 32;
/// Number of predicate registers.
pub const NUM_PREGS: u8 = 16;

/// A scalar (general-purpose, 64-bit) register `x0`–`x31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XReg(u8);

/// A 512-bit vector register `z0`–`z31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(u8);

/// A predicate register `p0`–`p15` (one bit per byte lane, as in SVE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PReg(u8);

macro_rules! reg_impl {
    ($ty:ident, $max:expr, $prefix:literal) => {
        impl $ty {
            /// Creates the register with the given index.
            ///
            /// # Panics
            ///
            /// Panics if `index` is out of range.
            pub const fn new(index: u8) -> $ty {
                assert!(index < $max, "register index out of range");
                $ty(index)
            }

            /// The register index.
            pub const fn index(self) -> u8 {
                self.0
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

reg_impl!(XReg, NUM_XREGS, "x");
reg_impl!(VReg, NUM_VREGS, "z");
reg_impl!(PReg, NUM_PREGS, "p");

/// Any architectural register — used for dependence analysis in the
/// out-of-order timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    /// Scalar register.
    X(XReg),
    /// Vector register.
    V(VReg),
    /// Predicate register.
    P(PReg),
}

impl From<XReg> for Reg {
    fn from(r: XReg) -> Reg {
        Reg::X(r)
    }
}
impl From<VReg> for Reg {
    fn from(r: VReg) -> Reg {
        Reg::V(r)
    }
}
impl From<PReg> for Reg {
    fn from(r: PReg) -> Reg {
        Reg::P(r)
    }
}

impl Reg {
    /// A dense index over the whole register space (x, then z, then p),
    /// handy for scoreboards.
    pub fn flat_index(self) -> usize {
        match self {
            Reg::X(r) => r.index() as usize,
            Reg::V(r) => NUM_XREGS as usize + r.index() as usize,
            Reg::P(r) => (NUM_XREGS + NUM_VREGS) as usize + r.index() as usize,
        }
    }

    /// Total number of architectural registers (size of the flat space).
    pub const FLAT_COUNT: usize = (NUM_XREGS + NUM_VREGS + NUM_PREGS) as usize;
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reg::X(r) => r.fmt(f),
            Reg::V(r) => r.fmt(f),
            Reg::P(r) => r.fmt(f),
        }
    }
}

/// Named constants for every register, so kernels read like assembly.
pub mod aliases {
    use super::{PReg, VReg, XReg};

    macro_rules! alias {
        ($ty:ident, $($name:ident = $i:expr),+ $(,)?) => {
            $(
                #[allow(missing_docs)]
                pub const $name: $ty = $ty::new($i);
            )+
        };
    }

    alias!(
        XReg,
        X0 = 0,
        X1 = 1,
        X2 = 2,
        X3 = 3,
        X4 = 4,
        X5 = 5,
        X6 = 6,
        X7 = 7,
        X8 = 8,
        X9 = 9,
        X10 = 10,
        X11 = 11,
        X12 = 12,
        X13 = 13,
        X14 = 14,
        X15 = 15,
        X16 = 16,
        X17 = 17,
        X18 = 18,
        X19 = 19,
        X20 = 20,
        X21 = 21,
        X22 = 22,
        X23 = 23,
        X24 = 24,
        X25 = 25,
        X26 = 26,
        X27 = 27,
        X28 = 28,
        X29 = 29,
        X30 = 30,
        X31 = 31,
    );
    alias!(
        VReg,
        V0 = 0,
        V1 = 1,
        V2 = 2,
        V3 = 3,
        V4 = 4,
        V5 = 5,
        V6 = 6,
        V7 = 7,
        V8 = 8,
        V9 = 9,
        V10 = 10,
        V11 = 11,
        V12 = 12,
        V13 = 13,
        V14 = 14,
        V15 = 15,
        V16 = 16,
        V17 = 17,
        V18 = 18,
        V19 = 19,
        V20 = 20,
        V21 = 21,
        V22 = 22,
        V23 = 23,
        V24 = 24,
        V25 = 25,
        V26 = 26,
        V27 = 27,
        V28 = 28,
        V29 = 29,
        V30 = 30,
        V31 = 31,
    );
    alias!(
        PReg,
        P0 = 0,
        P1 = 1,
        P2 = 2,
        P3 = 3,
        P4 = 4,
        P5 = 5,
        P6 = 6,
        P7 = 7,
        P8 = 8,
        P9 = 9,
        P10 = 10,
        P11 = 11,
        P12 = 12,
        P13 = 13,
        P14 = 14,
        P15 = 15,
    );
}

#[cfg(test)]
mod tests {
    use super::aliases::*;
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(X3.to_string(), "x3");
        assert_eq!(V31.to_string(), "z31");
        assert_eq!(P7.to_string(), "p7");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = XReg::new(32);
    }

    #[test]
    fn flat_indices_are_unique_and_dense() {
        let mut seen = [false; Reg::FLAT_COUNT];
        for i in 0..NUM_XREGS {
            seen[Reg::X(XReg::new(i)).flat_index()] = true;
        }
        for i in 0..NUM_VREGS {
            seen[Reg::V(VReg::new(i)).flat_index()] = true;
        }
        for i in 0..NUM_PREGS {
            seen[Reg::P(PReg::new(i)).flat_index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reg_from_impls() {
        assert_eq!(Reg::from(X1), Reg::X(X1));
        assert_eq!(Reg::from(V2).to_string(), "z2");
    }
}
