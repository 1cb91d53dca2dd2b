//! Pair-file I/O.
//!
//! The generators in [`crate::dataset`] stand in for the paper's input
//! files, but real data can be used instead through the
//! SneakySnake-style *pair file*: one tab-separated `pattern text` pair
//! per line, the input of every filter/alignment front end.

use std::io::{self, BufRead, Write};

use crate::alphabet::Alphabet;
use crate::dataset::SeqPair;
use crate::sequence::{Seq, SeqError};

/// Error reading a pair file.
#[derive(Debug)]
pub enum FastaError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A sequence contained symbols outside the expected alphabet.
    Seq {
        /// 1-based line number of the offending pair.
        line: usize,
        /// The validation failure.
        source: SeqError,
    },
    /// Structural problem (e.g. a line with a single sequence).
    Format {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl std::fmt::Display for FastaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FastaError::Io(e) => write!(f, "i/o error: {e}"),
            FastaError::Seq { line, source } => write!(f, "line {line}: {source}"),
            FastaError::Format { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for FastaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FastaError::Io(e) => Some(e),
            FastaError::Seq { source, .. } => Some(source),
            FastaError::Format { .. } => None,
        }
    }
}

impl From<io::Error> for FastaError {
    fn from(e: io::Error) -> Self {
        FastaError::Io(e)
    }
}

/// Streaming pair-file reader: an iterator of [`SeqPair`]s that holds
/// **one pair in memory at a time**. One `pattern<TAB>text` pair per
/// line (spaces also accepted as the separator); `#` comments and
/// blank lines are skipped.
///
/// [`read_pairs`] is this iterator collected; the crash-safe ingestion
/// pipeline consumes it directly so memory stays bounded by the shard
/// size at any input size.
#[derive(Debug)]
pub struct PairReader<R> {
    reader: R,
    alphabet: Alphabet,
    /// 1-based number of the next line to read.
    line: usize,
    /// A fatal error or EOF was reached; yield nothing further.
    finished: bool,
}

impl<R: BufRead> PairReader<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R, alphabet: Alphabet) -> PairReader<R> {
        PairReader {
            reader,
            alphabet,
            line: 0,
            finished: false,
        }
    }
}

impl<R: BufRead> Iterator for PairReader<R> {
    type Item = Result<SeqPair, FastaError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        let mut buf = String::new();
        loop {
            buf.clear();
            match self.reader.read_line(&mut buf) {
                Err(e) => {
                    self.finished = true;
                    return Some(Err(FastaError::Io(e)));
                }
                Ok(0) => {
                    self.finished = true;
                    return None;
                }
                Ok(_) => {}
            }
            self.line += 1;
            let line = buf.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let (p, t) = match (fields.next(), fields.next()) {
                (Some(p), Some(t)) => (p, t),
                _ => {
                    self.finished = true;
                    return Some(Err(FastaError::Format {
                        line: self.line,
                        message: "expected two whitespace-separated sequences".into(),
                    }));
                }
            };
            let seq_of = |s: &str| {
                Seq::new(s.as_bytes().to_vec(), self.alphabet).map_err(|source| FastaError::Seq {
                    line: self.line,
                    source,
                })
            };
            let pair =
                seq_of(p).and_then(|pattern| seq_of(t).map(|text| SeqPair { pattern, text }));
            if pair.is_err() {
                self.finished = true;
            }
            return Some(pair);
        }
    }
}

/// Reads a SneakySnake-style pair file: one `pattern<TAB>text` pair per
/// line (spaces also accepted as the separator). This is [`PairReader`]
/// collected — use the iterator directly when the input may not fit in
/// memory.
///
/// # Errors
///
/// Returns [`FastaError`] on I/O failure, missing fields, or invalid
/// symbols.
pub fn read_pairs<R: BufRead>(reader: R, alphabet: Alphabet) -> Result<Vec<SeqPair>, FastaError> {
    PairReader::new(reader, alphabet).collect()
}

/// Writes pairs in the pair-file format read by [`read_pairs`].
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_pairs<W: Write>(mut writer: W, pairs: &[SeqPair]) -> io::Result<()> {
    for p in pairs {
        writeln!(writer, "{}\t{}", p.pattern, p.text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_round_trip() {
        let pairs = vec![SeqPair {
            pattern: Seq::dna(b"ACGT").unwrap(),
            text: Seq::dna(b"AGGT").unwrap(),
        }];
        let mut buf = Vec::new();
        write_pairs(&mut buf, &pairs).unwrap();
        let parsed = read_pairs(&buf[..], Alphabet::Dna).unwrap();
        assert_eq!(parsed, pairs);
    }

    #[test]
    fn pairs_skip_comments_and_blanks() {
        let input = b"# header\n\nACGT\tAGGT\n";
        let pairs = read_pairs(&input[..], Alphabet::Dna).unwrap();
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn pairs_reject_single_field() {
        let err = read_pairs(&b"ACGT\n"[..], Alphabet::Dna).unwrap_err();
        assert!(matches!(err, FastaError::Format { line: 1, .. }));
    }

    #[test]
    fn streaming_pair_reader_matches_collected_and_stops_after_error() {
        let input = b"# comment\nACGT\tAGGT\n\nTTTT\tTTAT\nBAD!\tBAD!\nACGT\tACGT\n";
        let collected: Vec<_> = PairReader::new(&input[..], Alphabet::Dna).collect();
        assert_eq!(collected.len(), 3, "iteration fuses after the error");
        assert!(collected[0].is_ok() && collected[1].is_ok());
        assert!(matches!(collected[2], Err(FastaError::Seq { line: 5, .. })));
        let clean = b"ACGT\tAGGT\nTTTT\tTTAT\n";
        let streamed: Vec<SeqPair> = PairReader::new(&clean[..], Alphabet::Dna)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, read_pairs(&clean[..], Alphabet::Dna).unwrap());
    }
}
