//! Micro-benchmarks of the building blocks: accelerator functional
//! models and the host-side genomics algorithms. Runs under the
//! in-tree timing harness (`quetzal_bench::timing`) — no external
//! benchmarking framework, per the offline build policy.

use std::hint::black_box;

use quetzal::accel::count_alu::qzcount_segment;
use quetzal::accel::encoder::encode_vector;
use quetzal::accel::{QBuffers, QzConfig};
use quetzal::isa::EncSize;
use quetzal_bench::timing::bench;
use quetzal_genomics::dataset::DatasetSpec;
use quetzal_genomics::distance::{levenshtein, myers_distance};
use quetzal_genomics::fasta::{write_pairs, PairReader};
use quetzal_genomics::packed::Packed2;
use quetzal_genomics::{Alphabet, Seq};

fn bench_count_alu() {
    bench("count_alu/qzcount_segment_2bit", || {
        qzcount_segment(
            black_box(0x0123_4567_89AB_CDEF),
            black_box(0x0123_4567_89AB_CDEE),
            EncSize::E2,
        )
    });
}

fn bench_encoder() {
    let chars = [b'G'; 64];
    bench("encoder/encode_vector_64_chars", || {
        encode_vector(black_box(&chars))
    });
}

fn bench_qbuffer() {
    let mut q = QBuffers::new(QzConfig::QZ_8P);
    q.conf(4096, 4096, 0);
    let seq: Vec<u8> = (0..4096).map(|i| b"ACGT"[i % 4]).collect();
    let packed = Packed2::from_bytes(&seq, Alphabet::Dna);
    q.load_image(0, &packed.to_le_bytes());
    let mut i = 0u64;
    bench("qbuffer/read_segment_unaligned", || {
        i = (i + 13) % 4000;
        q.buf(0).read_segment(black_box(i), EncSize::E2)
    });
}

fn bench_distances() {
    let pair = &DatasetSpec::d250().generate_n(5, 1)[0];
    let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
    bench("distance/levenshtein_250bp", || {
        levenshtein(black_box(p), black_box(t))
    });
    bench("distance/myers_250bp", || {
        myers_distance(black_box(p), black_box(t))
    });
}

fn bench_packing() {
    let seq: Vec<u8> = (0..10_000).map(|i| b"ACGT"[i % 4]).collect();
    bench("packed2/pack_10kbp", || {
        Packed2::from_bytes(black_box(&seq), Alphabet::Dna)
    });
}

fn bench_parsing() {
    let mut file = Vec::new();
    write_pairs(&mut file, &DatasetSpec::d100().generate_n(1, 1024))
        .expect("writing to a Vec cannot fail");
    bench("fasta/pair_reader_1024x100bp", || {
        PairReader::new(black_box(&file[..]), Alphabet::Dna)
            .map(|pair| pair.expect("generated pairs are valid").text.len())
            .sum::<usize>()
    });
    let seq: Vec<u8> = (0..10_000).map(|i| b"ACGT"[i % 4]).collect();
    bench("sequence/seq_new_10kbp", || {
        Seq::new(black_box(&seq[..]), Alphabet::Dna)
    });
}

fn main() {
    // `cargo bench` passes --bench (and filter args); ignore them.
    bench_count_alu();
    bench_encoder();
    bench_qbuffer();
    bench_distances();
    bench_packing();
    bench_parsing();
}
