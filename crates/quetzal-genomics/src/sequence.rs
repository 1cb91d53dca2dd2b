//! Validated, owned biological sequences.

use crate::alphabet::Alphabet;

/// Error returned when constructing a [`Seq`] from invalid input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqError {
    /// Byte offset of the first offending symbol.
    pub position: usize,
    /// The offending byte.
    pub byte: u8,
    /// The alphabet the sequence was validated against.
    pub alphabet: Alphabet,
}

impl std::fmt::Display for SeqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} symbol {:?} at position {}",
            self.alphabet, self.byte as char, self.position
        )
    }
}

impl std::error::Error for SeqError {}

/// An owned, validated biological sequence.
///
/// Every byte is guaranteed to belong to the sequence's [`Alphabet`]
/// (lowercase input is normalised to uppercase during construction).
///
/// ```
/// use quetzal_genomics::{Seq, Alphabet};
///
/// let s = Seq::dna(b"acag")?;
/// assert_eq!(s.as_bytes(), b"ACAG");
/// assert_eq!(s.alphabet(), Alphabet::Dna);
/// # Ok::<(), quetzal_genomics::SeqError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Seq {
    bytes: Vec<u8>,
    alphabet: Alphabet,
}

impl Seq {
    /// Creates a sequence after validating every symbol against
    /// `alphabet`. Lowercase ASCII is accepted and normalised.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError`] describing the first invalid byte.
    pub fn new(bytes: impl Into<Vec<u8>>, alphabet: Alphabet) -> Result<Self, SeqError> {
        let mut bytes = bytes.into();
        for (position, b) in bytes.iter_mut().enumerate() {
            let up = b.to_ascii_uppercase();
            if !alphabet.contains(up) {
                return Err(SeqError {
                    position,
                    byte: *b,
                    alphabet,
                });
            }
            *b = up;
        }
        Ok(Seq { bytes, alphabet })
    }

    /// Convenience constructor for DNA.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError`] if a byte is not one of `ACGT` (any case).
    pub fn dna(bytes: impl Into<Vec<u8>>) -> Result<Self, SeqError> {
        Seq::new(bytes, Alphabet::Dna)
    }

    /// Convenience constructor for RNA.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError`] if a byte is not one of `ACGU` (any case).
    pub fn rna(bytes: impl Into<Vec<u8>>) -> Result<Self, SeqError> {
        Seq::new(bytes, Alphabet::Rna)
    }

    /// Convenience constructor for protein sequences.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError`] if a byte is not a standard amino-acid code.
    pub fn protein(bytes: impl Into<Vec<u8>>) -> Result<Self, SeqError> {
        Seq::new(bytes, Alphabet::Protein)
    }

    /// The sequence contents as uppercase ASCII bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The alphabet this sequence was validated against.
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Extracts `self[start..end]` as a new sequence.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn subseq(&self, start: usize, end: usize) -> Seq {
        Seq {
            bytes: self.bytes[start..end].to_vec(),
            alphabet: self.alphabet,
        }
    }
}

impl AsRef<[u8]> for Seq {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl std::fmt::Display for Seq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Sequences are validated ASCII, so this cannot fail.
        f.write_str(std::str::from_utf8(&self.bytes).expect("sequences are ASCII"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalises_case() {
        let s = Seq::dna(b"AcGt").unwrap();
        assert_eq!(s.as_bytes(), b"ACGT");
    }

    #[test]
    fn construction_rejects_invalid() {
        let err = Seq::dna(b"ACGN").unwrap_err();
        assert_eq!(err.position, 3);
        assert_eq!(err.byte, b'N');
        assert!(err.to_string().contains("position 3"));
    }

    #[test]
    fn empty_sequence_is_valid() {
        let s = Seq::dna(b"").unwrap();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn subseq_and_reverse() {
        let s = Seq::dna(b"ACGTAC").unwrap();
        assert_eq!(s.subseq(1, 4).as_bytes(), b"CGT");
    }

    #[test]
    fn display_round_trip() {
        let s = Seq::protein(b"MKWV").unwrap();
        assert_eq!(s.to_string(), "MKWV");
    }
}
