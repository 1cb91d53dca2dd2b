//! Biological alphabets supported by QUETZAL.
//!
//! The paper's data encoder (§IV-A) distinguishes two encodings: a 2-bit
//! encoding for the four-character DNA/RNA alphabets and an 8-bit encoding
//! for proteins (20 amino acids) or nucleotide data containing the
//! ambiguous base `N`.

/// The biological alphabet a sequence is drawn from.
///
/// The alphabet decides which QUETZAL encoding applies: DNA and RNA use
/// the 2-bit packed encoding, proteins fall back to plain 8-bit bytes.
///
/// ```
/// use quetzal_genomics::Alphabet;
/// assert_eq!("dna".parse(), Ok(Alphabet::Dna));
/// assert_eq!(Alphabet::Protein.code(), "protein");
/// assert!(Alphabet::Rna.contains(b'U'));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Alphabet {
    /// Deoxyribonucleic acid: `A`, `C`, `G`, `T`.
    Dna,
    /// Ribonucleic acid: `A`, `C`, `G`, `U`.
    Rna,
    /// The 20 standard amino acids (one-letter codes).
    Protein,
}

/// The 20 standard amino-acid one-letter codes, alphabetically ordered.
pub const AMINO_ACIDS: &[u8; 20] = b"ACDEFGHIKLMNPQRSTVWY";

impl Alphabet {
    /// The alphabet's external name, as spelled on the wire and on every
    /// command line; [`FromStr`](std::str::FromStr) parses it back.
    pub fn code(self) -> &'static str {
        match self {
            Alphabet::Dna => "dna",
            Alphabet::Rna => "rna",
            Alphabet::Protein => "protein",
        }
    }

    /// The symbols of this alphabet, as uppercase ASCII bytes.
    pub fn symbols(self) -> &'static [u8] {
        match self {
            Alphabet::Dna => b"ACGT",
            Alphabet::Rna => b"ACGU",
            Alphabet::Protein => AMINO_ACIDS,
        }
    }

    /// Whether `byte` (uppercase ASCII) is a symbol of this alphabet.
    pub fn contains(self, byte: u8) -> bool {
        self.symbols().contains(&byte)
    }
}

impl std::str::FromStr for Alphabet {
    type Err = String;

    fn from_str(code: &str) -> Result<Alphabet, String> {
        [Alphabet::Dna, Alphabet::Rna, Alphabet::Protein]
            .into_iter()
            .find(|a| a.code() == code)
            .ok_or_else(|| format!("unknown alphabet '{code}' (dna|rna|protein)"))
    }
}

impl std::fmt::Display for Alphabet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Alphabet::Dna => "DNA",
            Alphabet::Rna => "RNA",
            Alphabet::Protein => "protein",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_counts() {
        assert_eq!(Alphabet::Dna.symbols().len(), 4);
        assert_eq!(Alphabet::Rna.symbols().len(), 4);
        assert_eq!(Alphabet::Protein.symbols().len(), 20);
    }

    #[test]
    fn membership() {
        assert!(Alphabet::Dna.contains(b'T'));
        assert!(!Alphabet::Dna.contains(b'U'));
        assert!(Alphabet::Rna.contains(b'U'));
        assert!(!Alphabet::Rna.contains(b'T'));
        assert!(Alphabet::Protein.contains(b'W'));
        assert!(!Alphabet::Protein.contains(b'B'));
    }

    #[test]
    fn codes_round_trip() {
        let all = [Alphabet::Dna, Alphabet::Rna, Alphabet::Protein];
        let codes: Vec<&str> = all.iter().map(|a| a.code()).collect();
        assert_eq!(codes, ["dna", "rna", "protein"]);
        for alphabet in all {
            assert_eq!(alphabet.code().parse(), Ok(alphabet));
        }
        assert_eq!(
            "DNA".parse::<Alphabet>(),
            Err("unknown alphabet 'DNA' (dna|rna|protein)".to_string())
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Alphabet::Dna.to_string(), "DNA");
        assert_eq!(Alphabet::Protein.to_string(), "protein");
    }
}
