//! Durable per-shard checkpoint files.
//!
//! A shard's results live in one file inside the checkpoint directory,
//! `shard-NNNNNN.manifest`, written in one atomic step:
//!
//! * the manifest header — format version, shard identity, input
//!   checksum, outcome tallies, and the output region's length and
//!   checksum, one field per line;
//! * the output region — the shard's report lines (one compact JSON
//!   document per item, in item order);
//! * a `crc` line: a checksum over the header and the output together.
//!
//! The rename that puts the file in place is the *commit point*: the
//! file is written via write-to-temp + `sync_all` + `rename` + directory
//! `sync_all`, so a crash leaves either no file, a stale temp file
//! (ignored), or a complete file — never a silently half-trusted
//! checkpoint. Anything that deviates from the expected shape —
//! truncation, a bit flip in the header *or* the output, a stale format
//! version (a `v1` or `v2` directory re-runs every shard), an interrupted
//! non-atomic write — fails the trailing checksum or the field grammar
//! and comes back as [`ManifestState::Torn`], which resumption treats
//! exactly like "shard not done": the shard is re-run and the torn file
//! is overwritten. Corruption is therefore a typed, recoverable state,
//! not a crash.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental FNV-1a hasher — the workspace's zero-dependency content
/// checksum (collision resistance is not a goal; torn-write and
/// bit-flip *detection* is).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest so far.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.digest()
}

/// How a completed shard ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Every item ran (some may still have failed individually).
    Done,
    /// The shard hit its deadline / budget; unrun items are recorded as
    /// failures and the shard is skipped on resume.
    Quarantined,
}

/// The durable commit record of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Shard index (0-based, dense).
    pub shard: u64,
    /// Global index of the shard's first item.
    pub start: u64,
    /// Items in the shard.
    pub count: u64,
    /// Checksum over the shard's input items (order-sensitive), used to
    /// detect a checkpoint directory being resumed against different
    /// input.
    pub input_fnv: u64,
    /// Whether the shard ran to completion or was quarantined.
    pub status: ShardStatus,
    /// Human-readable quarantine cause (empty when [`ShardStatus::Done`]).
    pub cause: String,
    /// Items that produced a result.
    pub ok: u64,
    /// Items that failed (both attempts, or never ran due to quarantine).
    pub failed: u64,
    /// Items recovered by the fresh-machine retry.
    pub recovered: u64,
    /// Simulated cycles over the shard's healthy items.
    pub cycles: u64,
    /// Retired instructions over the shard's healthy items.
    pub instructions: u64,
    /// Byte length of the shard's output lines.
    pub output_len: u64,
    /// FNV-1a of the shard's output lines.
    pub output_fnv: u64,
}

/// One shard's checkpoint file: its commit record and its output lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFile {
    /// The commit record; its `output_len` and `output_fnv` describe
    /// `output`.
    pub manifest: ShardManifest,
    /// The shard's report lines, in item order.
    pub output: Vec<u8>,
}

/// Why a manifest on disk could not be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestFault(pub String);

impl std::fmt::Display for ManifestFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What [`load`] found for a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestState {
    /// No manifest on disk: the shard never committed.
    Absent,
    /// A shard file exists but is torn, truncated, bit-flipped (in its
    /// header or its output), stale, or unreadable. Treated exactly like
    /// [`ManifestState::Absent`] by resumption (re-run the shard), but
    /// surfaced distinctly so observers can count detected corruption.
    Torn(ManifestFault),
    /// A complete, checksum-valid shard file.
    Committed(ShardFile),
}

const VERSION_LINE: &str = "qz-ingest-shard v3";

/// Byte length of the trailing `crc <16 hex>\n` line.
const CRC_LINE_LEN: usize = "crc ".len() + 16 + 1;

/// Parses exactly 16 *lowercase* hex digits. Strictness matters: a
/// case-insensitive parser would accept a case-bit flip in a stored
/// checksum as the same value, defeating the bit-flip detection the
/// manifest tests pin.
fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

fn status_code(status: ShardStatus) -> &'static str {
    match status {
        ShardStatus::Done => "done",
        ShardStatus::Quarantined => "quarantined",
    }
}

fn parse_status(code: &str) -> Result<ShardStatus, ManifestFault> {
    match code {
        "done" => Ok(ShardStatus::Done),
        "quarantined" => Ok(ShardStatus::Quarantined),
        other => Err(ManifestFault(format!("unknown status '{other}'"))),
    }
}

/// Path of a shard's checkpoint file.
pub fn shard_path(dir: &Path, shard: u64) -> PathBuf {
    dir.join(format!("shard-{shard:06}.manifest"))
}

impl ShardFile {
    /// Serialises the shard file: header, output, trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let m = &self.manifest;
        debug_assert_eq!(m.output_len, self.output.len() as u64);
        debug_assert_eq!(m.output_fnv, fnv64(&self.output));
        // The cause rides on one line; newlines in it would break the
        // line grammar, so they are flattened.
        let cause = if m.cause.is_empty() {
            "-".to_string()
        } else {
            m.cause.replace(['\n', '\r'], " ")
        };
        let header = format!(
            "{VERSION_LINE}\nshard {}\nstart {}\ncount {}\ninput_fnv {:016x}\nstatus {}\ncause {}\nok {}\nfailed {}\nrecovered {}\ncycles {}\ninstructions {}\noutput_len {}\noutput_fnv {:016x}\n",
            m.shard,
            m.start,
            m.count,
            m.input_fnv,
            status_code(m.status),
            cause,
            m.ok,
            m.failed,
            m.recovered,
            m.cycles,
            m.instructions,
            m.output_len,
            m.output_fnv,
        );
        let mut bytes = Vec::with_capacity(header.len() + self.output.len() + CRC_LINE_LEN);
        bytes.extend_from_slice(header.as_bytes());
        bytes.extend_from_slice(&self.output);
        let crc = fnv64(&bytes);
        bytes.extend_from_slice(format!("crc {crc:016x}\n").as_bytes());
        bytes
    }

    /// Parses and checksum-verifies a serialised shard file. The output
    /// region is covered by the trailing checksum, so it is hashed once
    /// here and never again.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestFault`] for *any* deviation — truncation, a
    /// failed trailing checksum, a stale version, unknown or out-of-order
    /// fields, non-numeric values, an output region of the wrong length.
    /// Every fault maps to "shard not done".
    pub fn decode(mut bytes: Vec<u8>) -> Result<ShardFile, ManifestFault> {
        let body_len = bytes
            .len()
            .checked_sub(CRC_LINE_LEN)
            .ok_or_else(|| ManifestFault("shorter than its crc line (truncated)".into()))?;
        let (body, crc_line) = bytes.split_at(body_len);
        let claimed = crc_line
            .strip_prefix(b"crc ")
            .and_then(|rest| rest.strip_suffix(b"\n"))
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(parse_hex16)
            .ok_or_else(|| ManifestFault("missing or malformed crc line".into()))?;
        let actual = fnv64(body);
        if claimed != actual {
            return Err(ManifestFault(format!(
                "checksum mismatch (stored {claimed:016x}, computed {actual:016x})"
            )));
        }
        let mut header_len = 0;
        let mut next_line = || -> Result<&str, ManifestFault> {
            let rest = &body[header_len..];
            let end = rest
                .iter()
                .position(|&b| b == b'\n')
                .ok_or_else(|| ManifestFault("header ends early".into()))?;
            header_len += end + 1;
            std::str::from_utf8(&rest[..end])
                .map_err(|e| ManifestFault(format!("header not UTF-8: {e}")))
        };
        if next_line()? != VERSION_LINE {
            return Err(ManifestFault("unknown manifest version".into()));
        }
        let mut field = |key: &str| -> Result<String, ManifestFault> {
            let line = next_line()?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| ManifestFault(format!("expected field '{key}', got '{line}'")))
        };
        let dec = |key: &str, s: String| -> Result<u64, ManifestFault> {
            s.parse::<u64>()
                .map_err(|_| ManifestFault(format!("field '{key}' is not an integer")))
        };
        let hex = |key: &str, s: String| -> Result<u64, ManifestFault> {
            parse_hex16(&s)
                .ok_or_else(|| ManifestFault(format!("field '{key}' is not 16-digit hex")))
        };
        let shard = dec("shard", field("shard")?)?;
        let start = dec("start", field("start")?)?;
        let count = dec("count", field("count")?)?;
        let input_fnv = hex("input_fnv", field("input_fnv")?)?;
        let status = parse_status(&field("status")?)?;
        let cause_raw = field("cause")?;
        let cause = if cause_raw == "-" {
            String::new()
        } else {
            cause_raw
        };
        let ok = dec("ok", field("ok")?)?;
        let failed = dec("failed", field("failed")?)?;
        let recovered = dec("recovered", field("recovered")?)?;
        let cycles = dec("cycles", field("cycles")?)?;
        let instructions = dec("instructions", field("instructions")?)?;
        let output_len = dec("output_len", field("output_len")?)?;
        let output_fnv = hex("output_fnv", field("output_fnv")?)?;
        if (body_len - header_len) as u64 != output_len {
            return Err(ManifestFault(format!(
                "output region holds {} byte(s), header says {output_len}",
                body_len - header_len
            )));
        }
        bytes.truncate(body_len);
        bytes.drain(..header_len);
        Ok(ShardFile {
            manifest: ShardManifest {
                shard,
                start,
                count,
                input_fnv,
                status,
                cause,
                ok,
                failed,
                recovered,
                cycles,
                instructions,
                output_len,
                output_fnv,
            },
            output: bytes,
        })
    }
}

/// Loads a shard's checkpoint file, reading it once:
/// [`ManifestState::Absent`] when the file does not exist,
/// [`ManifestState::Torn`] for anything unreadable or checksum-invalid,
/// [`ManifestState::Committed`] otherwise.
pub fn load(dir: &Path, shard: u64) -> ManifestState {
    let bytes = match fs::read(shard_path(dir, shard)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return ManifestState::Absent,
        Err(e) => return ManifestState::Torn(ManifestFault(format!("unreadable: {e}"))),
    };
    match ShardFile::decode(bytes) {
        Ok(f) if f.manifest.shard == shard => ManifestState::Committed(f),
        Ok(f) => ManifestState::Torn(ManifestFault(format!(
            "manifest names shard {} but sits in slot {shard}",
            f.manifest.shard
        ))),
        Err(fault) => ManifestState::Torn(fault),
    }
}

/// Writes a file atomically: `fill` writes the content into a temp file
/// beside `path`, which is then fsynced and renamed over `path`, and the
/// directory is fsynced so the rename itself survives a crash. On any
/// error the temp file is removed and `path` is left as it was.
///
/// # Errors
///
/// Returns `fill`'s error, or an I/O error mapped through `io_err`.
pub fn write_atomic<T, E>(
    path: &Path,
    fill: impl FnOnce(&mut File) -> Result<T, E>,
    io_err: impl Fn(io::Error) -> E,
) -> Result<T, E> {
    let tmp = path.with_extension("tmp");
    let publish = || -> Result<T, E> {
        let mut file = File::create(&tmp).map_err(&io_err)?;
        let value = fill(&mut file)?;
        file.sync_all().map_err(&io_err)?;
        drop(file);
        fs::rename(&tmp, path).map_err(&io_err)?;
        // Best effort: some filesystems refuse to sync a directory
        // handle. A bare file name's parent is the empty path.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        if let Ok(d) = File::open(dir.unwrap_or_else(|| Path::new("."))) {
            let _ = d.sync_all();
        }
        Ok(value)
    };
    let result = publish();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Commits a shard: its header, output and checksum land in one file
/// through one [`write_atomic`] — temp write, fsync, rename, directory
/// fsync.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn store(dir: &Path, file: &ShardFile) -> io::Result<()> {
    let bytes = file.encode();
    write_atomic(
        &shard_path(dir, file.manifest.shard),
        |f| f.write_all(&bytes),
        |e| e,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard file with two output lines, so damage inside the output
    /// region is covered alongside damage to the header.
    fn sample() -> ShardFile {
        let output = b"{\"cycles\":9,\"instructions\":4,\"item\":96,\"value\":1}\n\
                       {\"cause\":\"sim\",\"item\":97,\"message\":\"boom\"}\n"
            .to_vec();
        ShardFile {
            manifest: ShardManifest {
                shard: 3,
                start: 96,
                count: 2,
                input_fnv: 0xdead_beef_cafe_f00d,
                status: ShardStatus::Done,
                cause: String::new(),
                ok: 1,
                failed: 1,
                recovered: 0,
                cycles: 123_456,
                instructions: 78_910,
                output_len: output.len() as u64,
                output_fnv: fnv64(&output),
            },
            output,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = sample();
        assert_eq!(f.output.iter().filter(|&&b| b == b'\n').count(), 2);
        assert_eq!(ShardFile::decode(f.encode()).unwrap(), f);
        let mut q = sample();
        q.manifest.status = ShardStatus::Quarantined;
        q.manifest.cause = "wall deadline 5ms exceeded\nafter 3 item(s)".to_string();
        let back = ShardFile::decode(q.encode()).unwrap().manifest;
        assert_eq!(back.status, ShardStatus::Quarantined);
        assert!(back.cause.contains("wall deadline"), "cause survives");
        assert!(!back.cause.contains('\n'), "newlines are flattened");
    }

    #[test]
    fn every_truncation_is_torn_not_a_crash() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                ShardFile::decode(bytes[..cut].to_vec()).is_err(),
                "truncation at byte {cut} must not decode"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    ShardFile::decode(flipped).is_err(),
                    "bit flip at byte {i} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn load_distinguishes_absent_and_torn() {
        let dir = std::env::temp_dir().join(format!(
            "qz-manifest-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(load(&dir, 0), ManifestState::Absent);
        let mut f = sample();
        f.manifest.shard = 0;
        store(&dir, &f).unwrap();
        assert_eq!(load(&dir, 0), ManifestState::Committed(f.clone()));
        // Torn write: only half the file's bytes reach the disk.
        let enc = f.encode();
        fs::write(shard_path(&dir, 0), &enc[..enc.len() / 2]).unwrap();
        assert!(matches!(load(&dir, 0), ManifestState::Torn(_)));
        // A file renamed into the wrong slot is torn, not trusted.
        store(&dir, &f).unwrap();
        fs::rename(shard_path(&dir, 0), shard_path(&dir, 7)).unwrap();
        assert!(matches!(load(&dir, 7), ManifestState::Torn(_)));
        // Every older format is stale, so torn, though it passes its own
        // checksum: v1 sealed the header alone (its output sat in a
        // separate file), v2 sealed header and output in today's layout
        // but with the item lines in another key order.
        let enc = f.encode();
        let body = &enc[..enc.len() - CRC_LINE_LEN];
        let header = &body[..body.len() - f.output.len()];
        let (stem, current) = VERSION_LINE.rsplit_once(" v").unwrap();
        for old in 1..current.parse::<u32>().unwrap() {
            for sealed in [header, body] {
                let mut stale = String::from_utf8(sealed.to_vec())
                    .unwrap()
                    .replacen(VERSION_LINE, &format!("{stem} v{old}"), 1)
                    .into_bytes();
                let crc = fnv64(&stale);
                stale.extend_from_slice(format!("crc {crc:016x}\n").as_bytes());
                fs::write(shard_path(&dir, 0), &stale).unwrap();
                assert!(
                    matches!(load(&dir, 0), ManifestState::Torn(ManifestFault(m)) if m.contains("version")),
                    "a v{old} file must load as torn"
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
