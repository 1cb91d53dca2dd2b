//! Seeded inputs and pair-file staging.
//!
//! Every input is a pure function of the `--seed` argument; the
//! programs under test only ever see the generated pairs.

use quetzal_genomics::dataset::{DatasetSpec, SeqPair};
use quetzal_genomics::fasta::{write_pairs, PairReader};
use quetzal_genomics::Alphabet;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Bases kept of each long read: the trimmed long-read slice of the
/// simulator-throughput trajectory (`throughput.rs::long_read_kernel`).
pub const LONG_READ_TRIM: usize = 1500;

/// One class of read pairs from a paper dataset.
#[derive(Debug, Clone)]
pub struct PairClass {
    /// Dataset name (`100bp_1`, `250bp_1`, `10Kbp`).
    pub name: &'static str,
    /// Sequence alphabet.
    pub alphabet: Alphabet,
    /// SneakySnake edit threshold: twice the nominal edit count, capped
    /// as in the experiment harness.
    pub ss_threshold: u32,
    /// The pairs, after staging through a pair file.
    pub pairs: Vec<SeqPair>,
}

/// Generates `n` pairs of `spec` from `seed`, each side trimmed to
/// `trim` bases.
pub fn generate(spec: &DatasetSpec, seed: u64, n: usize, trim: usize) -> PairClass {
    let mut pairs = spec.generate_n(seed, n);
    for p in &mut pairs {
        p.pattern = p.pattern.subseq(0, p.pattern.len().min(trim));
        p.text = p.text.subseq(0, p.text.len().min(trim));
    }
    PairClass {
        name: spec.name,
        alphabet: spec.alphabet,
        ss_threshold: ((2.0 * spec.edit_rate * spec.read_len as f64).ceil() as u32).clamp(2, 4000),
        pairs,
    }
}

/// Writes `pairs` as a pair file at `path` (one `pattern<TAB>text` per
/// line).
pub fn write_pair_file(path: &Path, pairs: &[SeqPair]) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_pairs(&mut w, pairs)?;
    w.flush()
}

/// Stages a class through a pair file in `dir` and reads it back with
/// the streaming `PairReader`, as a user's input would arrive.
///
/// # Panics
///
/// Panics if the file cannot be written or read back identically.
pub fn stage(class: PairClass, dir: &Path) -> PairClass {
    let path = dir.join(format!("{}.pairs", class.name));
    write_pair_file(&path, &class.pairs).expect("writing pair file");
    let file = std::fs::File::open(&path).expect("opening pair file");
    let pairs = PairReader::new(BufReader::new(file), class.alphabet)
        .collect::<Result<Vec<_>, _>>()
        .expect("reading pair file");
    assert_eq!(pairs, class.pairs, "pair file round trip");
    PairClass { pairs, ..class }
}

/// A scratch directory under the working directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.repobench-work/<tag>-<pid>` under the current directory.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn new(tag: &str) -> WorkDir {
        let dir = Path::new(".repobench-work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating work dir");
        WorkDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".repobench-work");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal::ingest::manifest::Fnv64;
    use quetzal::ingest::pair_digest;

    /// A content digest of a list of pairs.
    fn digest(pairs: &[SeqPair]) -> u64 {
        let mut h = Fnv64::new();
        for p in pairs {
            h.update(&pair_digest(p).to_le_bytes());
        }
        h.digest()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate(&DatasetSpec::d100(), 7, 8, usize::MAX);
        let b = generate(&DatasetSpec::d100(), 7, 8, usize::MAX);
        let c = generate(&DatasetSpec::d100(), 8, 8, usize::MAX);
        assert_eq!(digest(&a.pairs), digest(&b.pairs));
        assert_ne!(digest(&a.pairs), digest(&c.pairs));
    }

    #[test]
    fn long_reads_are_trimmed_and_thresholds_follow_the_harness() {
        let long = generate(&DatasetSpec::d10k(), 1, 2, LONG_READ_TRIM);
        assert!(long
            .pairs
            .iter()
            .all(|p| p.pattern.len() <= LONG_READ_TRIM && p.text.len() <= LONG_READ_TRIM));
        assert_eq!(long.ss_threshold, 400);
        assert_eq!(
            generate(&DatasetSpec::d100(), 1, 1, usize::MAX).ss_threshold,
            8
        );
    }

    #[test]
    fn staging_round_trips_through_a_pair_file() {
        let dir = WorkDir::new("selftest-stage");
        let class = generate(&DatasetSpec::d250(), 3, 4, usize::MAX);
        let before = digest(&class.pairs);
        let staged = stage(class, dir.path());
        assert_eq!(digest(&staged.pairs), before);
    }
}
