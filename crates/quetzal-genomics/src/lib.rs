//! Genome sequence substrate for the QUETZAL reproduction.
//!
//! This crate provides everything the accelerator framework needs to know
//! about biological sequences, independent of any micro-architecture:
//!
//! * [`Alphabet`] — DNA / RNA / protein alphabets and their properties.
//! * [`Seq`] — validated, owned sequences (sub-sequences, 2-bit
//!   packing).
//! * [`packed`] — 2-bit packing used by QUETZAL's data encoder
//!   (paper §IV-A): DNA/RNA bases are stored as `(byte >> 1) & 3`.
//! * [`cigar`] — alignment description (CIGAR strings), scoring and
//!   validation.
//! * [`distance`] — exact edit-distance oracles (classic DP, Gotoh
//!   affine-gap DP, and Myers' bit-parallel algorithm) used to validate
//!   the accelerated aligners.
//! * [`dataset`] — deterministic read-pair generators reproducing the
//!   paper's Table II datasets (100 bp, 250 bp, 10 Kbp, 30 Kbp) and a
//!   BAliBASE-like protein set.
//! * [`rng`] — a seeded, bit-stable in-tree PRNG (SplitMix64) so nothing
//!   in the workspace needs an external randomness crate.
//! * [`fasta`] — pair-file I/O so real data can be used in place of the
//!   generators.
//!
//! # Example
//!
//! ```
//! use quetzal_genomics::Seq;
//! use quetzal_genomics::distance::levenshtein;
//!
//! let a = Seq::dna(b"ACAG")?;
//! let b = Seq::dna(b"AAGT")?;
//! assert_eq!(levenshtein(a.as_bytes(), b.as_bytes()), 2);
//! # Ok::<(), quetzal_genomics::SeqError>(())
//! ```

pub mod alphabet;
pub mod cigar;
pub mod dataset;
pub mod distance;
pub mod fasta;
pub mod packed;
pub mod rng;
pub mod sequence;

pub use alphabet::Alphabet;
pub use cigar::{Cigar, CigarOp};
pub use dataset::{DatasetSpec, ErrorProfile, SeqPair};
pub use packed::Packed2;
pub use sequence::{Seq, SeqError};
