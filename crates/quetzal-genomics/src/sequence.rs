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
        let table = alphabet.canonical_table();
        // Validate in one branch-free pass (an invalid byte maps to 0, the
        // smallest entry); locate the first offender, whose original byte
        // the error reports, only on failure.
        let least = bytes
            .iter()
            .fold(u8::MAX, |least, &b| least.min(table[usize::from(b)]));
        if least == 0 {
            let position = bytes
                .iter()
                .position(|&b| table[usize::from(b)] == 0)
                .expect("an invalid byte was seen");
            return Err(SeqError {
                position,
                byte: bytes[position],
                alphabet,
            });
        }
        for b in &mut bytes {
            *b = table[usize::from(*b)];
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

    /// `Seq::new`'s per-byte rule before the canonicalisation table,
    /// kept verbatim as the reference for the table-driven one.
    fn reference_new(bytes: &[u8], alphabet: Alphabet) -> Result<Vec<u8>, SeqError> {
        let mut bytes = bytes.to_vec();
        for (position, b) in bytes.iter_mut().enumerate() {
            let up = b.to_ascii_uppercase();
            if !alphabet.symbols().contains(&up) {
                return Err(SeqError {
                    position,
                    byte: *b,
                    alphabet,
                });
            }
            *b = up;
        }
        Ok(bytes)
    }

    #[test]
    fn table_matches_the_per_byte_rule_on_every_byte() {
        for alphabet in [Alphabet::Dna, Alphabet::Rna, Alphabet::Protein] {
            // Every symbol in both cases, so a valid run exercises the
            // whole mapping.
            let valid: Vec<u8> = alphabet
                .symbols()
                .iter()
                .flat_map(|&s| [s, s.to_ascii_lowercase()])
                .collect();
            for byte in 0..=255u8 {
                for at in [0, valid.len() / 2, valid.len()] {
                    let mut input = valid.clone();
                    input.insert(at, byte);
                    let got = Seq::new(input.clone(), alphabet).map(|s| s.as_bytes().to_vec());
                    let want = reference_new(&input, alphabet);
                    assert_eq!(got, want, "{alphabet} byte {byte} at {at}");
                    if let (Err(got), Err(want)) = (got, want) {
                        assert_eq!(got.to_string(), want.to_string());
                    }
                }
            }
        }
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
