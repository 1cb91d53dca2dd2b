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
/// Each alphabet carries one 256-entry canonicalisation table
/// ([`canonical_table`](Alphabet::canonical_table)), built at compile
/// time from its symbols. It is the crate's one validation rule:
/// [`Seq::new`](crate::Seq::new) and [`contains`](Alphabet::contains)
/// both read it.
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
    pub const fn symbols(self) -> &'static [u8] {
        match self {
            Alphabet::Dna => b"ACGT",
            Alphabet::Rna => b"ACGU",
            Alphabet::Protein => AMINO_ACIDS,
        }
    }

    /// The alphabet's canonicalisation table: each symbol, in either
    /// case, maps to its uppercase byte, and every other byte maps to 0
    /// (no symbol is NUL).
    pub fn canonical_table(self) -> &'static [u8; 256] {
        match self {
            Alphabet::Dna => &DNA_TABLE,
            Alphabet::Rna => &RNA_TABLE,
            Alphabet::Protein => &PROTEIN_TABLE,
        }
    }

    /// Whether `byte` (uppercase ASCII) is a symbol of this alphabet.
    pub fn contains(self, byte: u8) -> bool {
        // NUL maps to 0 like every other non-symbol, so it would match.
        byte != 0 && self.canonical_table()[usize::from(byte)] == byte
    }
}

static DNA_TABLE: [u8; 256] = canonical_table(Alphabet::Dna);
static RNA_TABLE: [u8; 256] = canonical_table(Alphabet::Rna);
static PROTEIN_TABLE: [u8; 256] = canonical_table(Alphabet::Protein);

/// Builds `alphabet`'s canonicalisation table from its symbols.
const fn canonical_table(alphabet: Alphabet) -> [u8; 256] {
    let symbols = alphabet.symbols();
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < symbols.len() {
        let symbol = symbols[i];
        table[symbol as usize] = symbol;
        table[symbol.to_ascii_lowercase() as usize] = symbol;
        i += 1;
    }
    table
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
        for alphabet in [Alphabet::Dna, Alphabet::Rna, Alphabet::Protein] {
            for byte in 0..=255u8 {
                assert_eq!(
                    alphabet.contains(byte),
                    alphabet.symbols().contains(&byte),
                    "{alphabet} byte {byte}"
                );
            }
            assert!(!alphabet.contains(b'a'), "lowercase is not a symbol");
        }
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
