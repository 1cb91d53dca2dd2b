//! Alignment descriptions (CIGAR strings), scoring and validation.
//!
//! All aligners in this reproduction report their result as a [`Cigar`],
//! which can be validated against the input pair and scored under both
//! unit-cost edit distance and gap-affine penalties. This mirrors the
//! paper's methodology of bit-wise comparing accelerated outputs against
//! baseline outputs (§V-B).

/// One alignment operation, in the extended (match/mismatch
/// distinguishing) CIGAR alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CigarOp {
    /// Pattern symbol equals text symbol (`=` / `M`).
    Match,
    /// Pattern symbol differs from text symbol (`X`).
    Mismatch,
    /// Symbol present in the pattern but not the text (`I`).
    Insertion,
    /// Symbol present in the text but not the pattern (`D`).
    Deletion,
}

impl CigarOp {
    /// The single-character code used in extended CIGAR strings.
    pub fn code(self) -> char {
        match self {
            CigarOp::Match => '=',
            CigarOp::Mismatch => 'X',
            CigarOp::Insertion => 'I',
            CigarOp::Deletion => 'D',
        }
    }

    /// Parses a CIGAR operation character (`=`, `M`, `X`, `I`, `D`).
    pub fn from_code(c: char) -> Option<CigarOp> {
        match c {
            '=' | 'M' => Some(CigarOp::Match),
            'X' => Some(CigarOp::Mismatch),
            'I' => Some(CigarOp::Insertion),
            'D' => Some(CigarOp::Deletion),
            _ => None,
        }
    }
}

/// Gap-affine scoring penalties (all non-negative; lower score is better).
///
/// A gap of length `l` costs `gap_open + l * gap_extend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Penalties {
    /// Cost of a mismatch.
    pub mismatch: u32,
    /// Cost of opening a gap.
    pub gap_open: u32,
    /// Cost of extending a gap by one symbol.
    pub gap_extend: u32,
}

impl Penalties {
    /// Unit-cost edit distance: mismatch 1, open 0, extend 1.
    pub const EDIT: Penalties = Penalties {
        mismatch: 1,
        gap_open: 0,
        gap_extend: 1,
    };

    /// The default gap-affine setting used by the WFA paper (x=4, o=6, e=2).
    pub const AFFINE_DEFAULT: Penalties = Penalties {
        mismatch: 4,
        gap_open: 6,
        gap_extend: 2,
    };
}

impl Default for Penalties {
    fn default() -> Self {
        Penalties::EDIT
    }
}

/// A run-length encoded alignment.
///
/// ```
/// use quetzal_genomics::{Cigar, CigarOp};
///
/// let c: Cigar = [CigarOp::Match, CigarOp::Match, CigarOp::Mismatch, CigarOp::Insertion]
///     .into_iter()
///     .collect();
/// assert_eq!(c.to_string(), "2=1X1I");
/// assert_eq!(c.edit_distance(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cigar {
    runs: Vec<(u32, CigarOp)>,
}

impl Cigar {
    /// An empty alignment.
    pub fn new() -> Cigar {
        Cigar::default()
    }

    /// Appends one operation, merging with the trailing run if equal.
    pub fn push(&mut self, op: CigarOp) {
        self.push_run(1, op);
    }

    /// Appends `count` copies of `op` (no-op when `count == 0`).
    pub fn push_run(&mut self, count: u32, op: CigarOp) {
        if count == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some((n, last)) if *last == op => *n += count,
            _ => self.runs.push((count, op)),
        }
    }

    /// The run-length encoded operations.
    pub fn runs(&self) -> &[(u32, CigarOp)] {
        &self.runs
    }

    /// Iterator over individual operations (runs expanded).
    pub fn iter(&self) -> impl Iterator<Item = CigarOp> + '_ {
        self.runs
            .iter()
            .flat_map(|&(n, op)| std::iter::repeat_n(op, n as usize))
    }

    /// Total number of operations (runs expanded).
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(n, _)| n as usize).sum()
    }

    /// Whether the alignment contains no operations.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Reverses the alignment in place (used by traceback routines that
    /// collect operations back-to-front).
    pub fn reverse(&mut self) {
        self.runs.reverse();
        // Merge runs that became adjacent after the reversal.
        let mut merged: Vec<(u32, CigarOp)> = Vec::with_capacity(self.runs.len());
        for &(n, op) in &self.runs {
            match merged.last_mut() {
                Some((m, last)) if *last == op => *m += n,
                _ => merged.push((n, op)),
            }
        }
        self.runs = merged;
    }

    /// Concatenates another alignment after this one.
    pub fn extend_from(&mut self, other: &Cigar) {
        for &(n, op) in &other.runs {
            self.push_run(n, op);
        }
    }

    /// Unit-cost edit distance implied by the alignment (mismatches +
    /// insertions + deletions).
    pub fn edit_distance(&self) -> u32 {
        self.runs
            .iter()
            .map(|&(n, op)| if op == CigarOp::Match { 0 } else { n })
            .sum()
    }

    /// Gap-affine score of the alignment under `p`.
    pub fn score(&self, p: Penalties) -> u32 {
        let mut score = 0;
        for &(n, op) in &self.runs {
            score += match op {
                CigarOp::Match => 0,
                CigarOp::Mismatch => n * p.mismatch,
                CigarOp::Insertion | CigarOp::Deletion => p.gap_open + n * p.gap_extend,
            };
        }
        score
    }

    /// Checks that the alignment is a valid transcript of `pattern` into
    /// `text`: consumes both exactly, and match/mismatch operations agree
    /// with the actual symbols.
    pub fn validate(&self, pattern: &[u8], text: &[u8]) -> Result<(), CigarValidationError> {
        let mut pi = 0;
        let mut ti = 0;
        for op in self.iter() {
            match op {
                CigarOp::Match | CigarOp::Mismatch => {
                    let (pb, tb) = match (pattern.get(pi), text.get(ti)) {
                        (Some(&p), Some(&t)) => (p, t),
                        _ => return Err(CigarValidationError::Overrun { pi, ti }),
                    };
                    let is_match = pb == tb;
                    if is_match != (op == CigarOp::Match) {
                        return Err(CigarValidationError::WrongOp { pi, ti, op });
                    }
                    pi += 1;
                    ti += 1;
                }
                CigarOp::Insertion => {
                    if pi >= pattern.len() {
                        return Err(CigarValidationError::Overrun { pi, ti });
                    }
                    pi += 1;
                }
                CigarOp::Deletion => {
                    if ti >= text.len() {
                        return Err(CigarValidationError::Overrun { pi, ti });
                    }
                    ti += 1;
                }
            }
        }
        if pi != pattern.len() || ti != text.len() {
            return Err(CigarValidationError::Underrun {
                pattern_left: pattern.len() - pi,
                text_left: text.len() - ti,
            });
        }
        Ok(())
    }
}

impl FromIterator<CigarOp> for Cigar {
    fn from_iter<T: IntoIterator<Item = CigarOp>>(iter: T) -> Self {
        let mut c = Cigar::new();
        for op in iter {
            c.push(op);
        }
        c
    }
}

impl Extend<CigarOp> for Cigar {
    fn extend<T: IntoIterator<Item = CigarOp>>(&mut self, iter: T) {
        for op in iter {
            self.push(op);
        }
    }
}

impl std::fmt::Display for Cigar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &(n, op) in &self.runs {
            write!(f, "{}{}", n, op.code())?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Cigar {
    type Err = ParseCigarError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut cigar = Cigar::new();
        let mut count: Option<u32> = None;
        for (i, c) in s.chars().enumerate() {
            if let Some(d) = c.to_digit(10) {
                count = Some(count.unwrap_or(0).saturating_mul(10).saturating_add(d));
            } else if let Some(op) = CigarOp::from_code(c) {
                let n = count.take().ok_or(ParseCigarError { position: i })?;
                cigar.push_run(n, op);
            } else {
                return Err(ParseCigarError { position: i });
            }
        }
        if count.is_some() {
            return Err(ParseCigarError { position: s.len() });
        }
        Ok(cigar)
    }
}

/// Error parsing a CIGAR string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseCigarError {
    /// Character offset of the syntax error.
    pub position: usize,
}

impl std::fmt::Display for ParseCigarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid CIGAR syntax at offset {}", self.position)
    }
}

impl std::error::Error for ParseCigarError {}

/// Error describing why a CIGAR is not a valid transcript of a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CigarValidationError {
    /// The alignment consumed more symbols than available.
    Overrun {
        /// Pattern position when the overrun occurred.
        pi: usize,
        /// Text position when the overrun occurred.
        ti: usize,
    },
    /// The alignment ended before consuming both sequences.
    Underrun {
        /// Unconsumed pattern symbols.
        pattern_left: usize,
        /// Unconsumed text symbols.
        text_left: usize,
    },
    /// A match/mismatch op contradicts the actual symbols.
    WrongOp {
        /// Pattern position of the contradiction.
        pi: usize,
        /// Text position of the contradiction.
        ti: usize,
        /// The operation that was recorded.
        op: CigarOp,
    },
}

impl std::fmt::Display for CigarValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CigarValidationError::Overrun { pi, ti } => {
                write!(f, "alignment overruns inputs at pattern {pi}, text {ti}")
            }
            CigarValidationError::Underrun {
                pattern_left,
                text_left,
            } => write!(
                f,
                "alignment leaves {pattern_left} pattern and {text_left} text symbols unconsumed"
            ),
            CigarValidationError::WrongOp { pi, ti, op } => write!(
                f,
                "operation {:?} contradicts symbols at pattern {pi}, text {ti}",
                op
            ),
        }
    }
}

impl std::error::Error for CigarValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cigar(s: &str) -> Cigar {
        s.parse().unwrap()
    }

    #[test]
    fn push_merges_runs() {
        let mut c = Cigar::new();
        c.push(CigarOp::Match);
        c.push(CigarOp::Match);
        c.push(CigarOp::Mismatch);
        assert_eq!(c.runs(), &[(2, CigarOp::Match), (1, CigarOp::Mismatch)]);
    }

    #[test]
    fn push_run_zero_is_noop() {
        let mut c = Cigar::new();
        c.push_run(0, CigarOp::Match);
        assert!(c.is_empty());
    }

    #[test]
    fn display_and_parse_round_trip() {
        let c = cigar("3=1X2I4D");
        assert_eq!(c.to_string(), "3=1X2I4D");
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn parse_accepts_m_for_match() {
        assert_eq!(cigar("2M"), cigar("2="));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("3Q".parse::<Cigar>().is_err());
        assert!("=".parse::<Cigar>().is_err());
        assert!("12".parse::<Cigar>().is_err());
    }

    #[test]
    fn edit_distance_counts_non_matches() {
        assert_eq!(cigar("5=").edit_distance(), 0);
        assert_eq!(cigar("2=1X1I1D").edit_distance(), 3);
    }

    #[test]
    fn affine_score_charges_open_once_per_gap() {
        let p = Penalties::AFFINE_DEFAULT;
        assert_eq!(cigar("3I").score(p), 6 + 3 * 2);
        assert_eq!(cigar("1I2=1I").score(p), 2 * (6 + 2));
        assert_eq!(cigar("2X").score(p), 8);
    }

    #[test]
    fn validate_accepts_correct_transcript() {
        // ACAG -> AAGT: one deletion-free transcript is 1=1X1=1X? Check a
        // known-valid one instead: A C A G / A A G T via 1=1X1X1X.
        let c = cigar("1=1X1X1X");
        assert!(c.validate(b"ACAG", b"AAGT").is_ok());
    }

    #[test]
    fn validate_rejects_wrong_match() {
        let c = cigar("4=");
        assert!(matches!(
            c.validate(b"ACAG", b"AAGT"),
            Err(CigarValidationError::WrongOp { .. })
        ));
    }

    #[test]
    fn validate_rejects_underrun_and_overrun() {
        assert!(matches!(
            cigar("1=").validate(b"AC", b"AC"),
            Err(CigarValidationError::Underrun { .. })
        ));
        assert!(matches!(
            cigar("3=").validate(b"AC", b"AC"),
            Err(CigarValidationError::Overrun { .. })
        ));
    }

    #[test]
    fn validate_indels() {
        // pattern AC, text AGC: A matches, G deleted (text-only), C matches.
        let c = cigar("1=1D1=");
        assert!(c.validate(b"AC", b"AGC").is_ok());
    }

    #[test]
    fn reverse_merges_adjacent_runs() {
        let mut c = cigar("2=1X2=");
        c.reverse();
        assert_eq!(c.to_string(), "2=1X2=");
        let mut c = cigar("1I2=");
        c.reverse();
        assert_eq!(c.to_string(), "2=1I");
    }

    #[test]
    fn collect_from_iterator() {
        let c: Cigar = [CigarOp::Match; 3].into_iter().collect();
        assert_eq!(c.to_string(), "3=");
    }
}
