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
/// **one pair in memory at a time**.
///
/// The pair-file grammar, one line at a time:
/// - fields are split on ASCII whitespace: tab, space, CR, VT and FF
///   (the ASCII bytes [`char::is_whitespace`] accepts), so `pattern`
///   and `text` may be separated by tabs or spaces, and CRLF endings
///   and leading or trailing whitespace are ignored;
/// - the first two fields are the pair; further fields are ignored, and
///   a line with one field is an error;
/// - lines that are blank or whose first field starts with `#`
///   (comments) are skipped;
/// - symbols are case-insensitive and stored uppercase;
/// - a line holding a non-ASCII byte must be valid UTF-8 (a
///   [`FastaError::Format`] naming the line otherwise) and is then
///   split on Unicode whitespace.
///
/// Line numbers in errors are 1-based, and the iterator yields nothing
/// after its first error.
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
    /// The current line's bytes; reused so a line costs no allocation.
    buf: Vec<u8>,
}

impl<R: BufRead> PairReader<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R, alphabet: Alphabet) -> PairReader<R> {
        PairReader {
            reader,
            alphabet,
            line: 0,
            finished: false,
            buf: Vec::new(),
        }
    }
}

/// The ASCII bytes that [`char::is_whitespace`] accepts, so the ASCII
/// and UTF-8 paths split alike ([`u8::is_ascii_whitespace`] omits VT).
fn is_space(b: &u8) -> bool {
    matches!(b, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// A line's pattern and (if present) text fields, or `None` for a blank
/// or `#` comment line.
fn pair_fields<'a>(
    mut fields: impl Iterator<Item = &'a [u8]>,
) -> Option<(&'a [u8], Option<&'a [u8]>)> {
    let pattern = fields.next().filter(|f| !f.starts_with(b"#"))?;
    Some((pattern, fields.next()))
}

impl<R: BufRead> Iterator for PairReader<R> {
    type Item = Result<SeqPair, FastaError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        loop {
            self.buf.clear();
            match self.reader.read_until(b'\n', &mut self.buf) {
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
            let fields = if self.buf.is_ascii() {
                pair_fields(self.buf.split(is_space).filter(|f| !f.is_empty()))
            } else {
                match std::str::from_utf8(&self.buf) {
                    Ok(line) => pair_fields(line.split_whitespace().map(str::as_bytes)),
                    Err(_) => {
                        self.finished = true;
                        return Some(Err(FastaError::Format {
                            line: self.line,
                            message: "invalid UTF-8".into(),
                        }));
                    }
                }
            };
            let (p, t) = match fields {
                None => continue,
                Some((p, Some(t))) => (p, t),
                Some((_, None)) => {
                    self.finished = true;
                    return Some(Err(FastaError::Format {
                        line: self.line,
                        message: "expected two whitespace-separated sequences".into(),
                    }));
                }
            };
            let seq_of = |s: &[u8]| {
                Seq::new(s, self.alphabet).map_err(|source| FastaError::Seq {
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
/// line, in the grammar [`PairReader`] documents. This is [`PairReader`]
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

    /// `PairReader` before the byte path: a `String` per line, split on
    /// Unicode whitespace. Kept verbatim as the reference.
    struct ReferenceReader<R> {
        reader: R,
        alphabet: Alphabet,
        line: usize,
        finished: bool,
    }

    impl<R: BufRead> Iterator for ReferenceReader<R> {
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
                    Seq::new(s.as_bytes().to_vec(), self.alphabet).map_err(|source| {
                        FastaError::Seq {
                            line: self.line,
                            source,
                        }
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

    /// An item reduced to what callers can observe: the pair, or the
    /// error's variant, line, I/O kind and message.
    type Observed = Result<SeqPair, (&'static str, usize, Option<io::ErrorKind>, String)>;

    fn observe(item: Result<SeqPair, FastaError>) -> Observed {
        item.map_err(|e| {
            let (variant, line, kind) = match &e {
                FastaError::Io(io) => ("io", 0, Some(io.kind())),
                FastaError::Seq { line, .. } => ("seq", *line, None),
                FastaError::Format { line, .. } => ("format", *line, None),
            };
            (variant, line, kind, e.to_string())
        })
    }

    #[test]
    fn pair_reader_matches_the_string_reference() {
        let long = format!("{}\t{}\n", "ACGT".repeat(64), "TTGA".repeat(64));
        let corpus: Vec<Vec<u8>> = vec![
            b"ACGT\tAGGT\r\nTTTT\tTTAT\r\n".to_vec(),
            b"ACGT\tAGGT\nTTTT\tTTAT".to_vec(),
            b"ACGT AGGT\nACGT\x0BAGGT\nACGT\x0CAGGT\n \t ACGT \t AGGT \t \r\n".to_vec(),
            b"  # indented\n\t#tabbed\n\n   \n\r\nACGT\tAGGT\tEXTRA\nacgt\taggt\n".to_vec(),
            "ACGT\u{a0}AGGT\nACGT\u{85}AGGT\nACGT\u{2003}AGGT\n".into(),
            "ACGT\tAG\u{c9}T\n".into(),
            b"ACGT\tAGGT\nACGT\tAG\xffT\nACGT\tAGGT\n".to_vec(),
            b"# \xfe comment\nACGT\tAGGT\n".to_vec(),
            b"ACGT\tAGGT\nACGT\nACGT\tAGGT\n".to_vec(),
            b"ACGT\x1CAGGT\n".to_vec(),
            b"ACGT\tAGNT\nACGT\tAGGT\n".to_vec(),
            b"AC\x00T\tAGGT\n".to_vec(),
            format!("{long}AC\tAG\n{long}GG\n").into_bytes(),
            b"".to_vec(),
            b"\n# only comments\n".to_vec(),
        ];
        for input in &corpus {
            for alphabet in [Alphabet::Dna, Alphabet::Protein] {
                // A 4-byte buffer makes every long line span refills.
                for capacity in [4, 8192] {
                    let got: Vec<Observed> = PairReader::new(
                        io::BufReader::with_capacity(capacity, &input[..]),
                        alphabet,
                    )
                    .map(observe)
                    .collect();
                    let reference = ReferenceReader {
                        reader: io::BufReader::with_capacity(capacity, &input[..]),
                        alphabet,
                        line: 0,
                        finished: false,
                    };
                    // Deliberate change from the reference: a line that
                    // is not UTF-8 is a format error on its own line,
                    // not an I/O error with no line.
                    let want: Vec<Observed> = (reference.map(observe))
                        .map(|item| match item {
                            Err(("io", _, Some(io::ErrorKind::InvalidData), _)) => {
                                let line = (input.split(|&b| b == b'\n'))
                                    .position(|l| std::str::from_utf8(l).is_err())
                                    .expect("a non-UTF-8 line")
                                    + 1;
                                Err(("format", line, None, format!("line {line}: invalid UTF-8")))
                            }
                            other => other,
                        })
                        .collect();
                    assert_eq!(got, want, "{alphabet} {:?}", String::from_utf8_lossy(input));
                }
            }
        }
    }

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
