//! Pins the flat encoding to the nested tables `EncodedVideo::encode`
//! used to build: a `sizes_bits[chunk][level]` row of
//! `kbps · 1000 · d · factor` and a `vq[chunk][level]` row of
//! `visual_quality(kbps, complexity)` per chunk. Every size and every
//! visual quality of the Table-1 corpus and of a 50-video procedural
//! family must keep its bits, and out-of-range lookups their errors.

// `VideoError::UnknownBitrate` carries an out-of-range level as `f64`;
// the expected errors apply the same conversion.
#![allow(clippy::cast_precision_loss)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensei_video::{
    corpus, generate_family, visual_quality, BitrateLadder, EncodedVideo, GenreMix, SourceVideo,
    VideoError,
};

/// The nested `(sizes_bits, vq)` tables, built as the encoder built them.
fn nested_tables(
    source: &SourceVideo,
    ladder: &BitrateLadder,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = source.chunk_duration_s();
    let sizes_bits = source
        .chunks()
        .iter()
        .map(|c| {
            let eps: f64 = {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * 0.03
            };
            let factor = (0.92 + 0.16 * c.complexity + eps).clamp(0.8, 1.25);
            ladder
                .levels()
                .iter()
                .map(|&b| b * 1000.0 * d * factor)
                .collect()
        })
        .collect();
    let vq = source
        .chunks()
        .iter()
        .map(|c| {
            ladder
                .levels()
                .iter()
                .map(|&b| visual_quality(b, c.complexity))
                .collect()
        })
        .collect();
    (sizes_bits, vq)
}

/// Asserts every lookup of `source`'s encoding equals the nested tables
/// bit for bit, and that out-of-range lookups fail as the tables did.
fn assert_pinned(source: &SourceVideo, ladder: &BitrateLadder, seed: u64) {
    let encoded = EncodedVideo::encode(source, ladder, seed);
    let (sizes_bits, vq) = nested_tables(source, ladder, seed);
    let name = source.name();
    assert_eq!(encoded.num_chunks(), sizes_bits.len(), "{name}");
    for (chunk, (sizes, vqs)) in sizes_bits.iter().zip(&vq).enumerate() {
        assert_eq!(encoded.vq_row(chunk).len(), ladder.len(), "{name}");
        for level in 0..ladder.len() {
            let size = encoded.size_bits(chunk, level).unwrap();
            assert_eq!(
                size.to_bits(),
                sizes[level].to_bits(),
                "{name} size of chunk {chunk} level {level}"
            );
            assert_eq!(
                encoded.vq(chunk, level).to_bits(),
                vqs[level].to_bits(),
                "{name} vq of chunk {chunk} level {level}"
            );
            assert_eq!(encoded.vq_row(chunk)[level].to_bits(), vqs[level].to_bits());
        }
    }
    // The nested lookup's errors: the chunk is checked first, with the
    // video's chunk count; a level past the ladder reports its index.
    let n = sizes_bits.len();
    let chunk_error = VideoError::ChunkOutOfRange { index: n, len: n };
    assert_eq!(encoded.size_bits(n, 0), Err(chunk_error.clone()));
    assert_eq!(encoded.size_bits(n, ladder.len()), Err(chunk_error));
    assert_eq!(
        encoded.size_bits(n - 1, ladder.len()),
        Err(VideoError::UnknownBitrate(ladder.len() as f64))
    );
    assert_eq!(
        encoded.size_bits(0, usize::MAX),
        Err(VideoError::UnknownBitrate(usize::MAX as f64))
    );
}

#[test]
fn table1_encodings_keep_their_bits() {
    let ladder = BitrateLadder::default_paper();
    for entry in corpus::table1(2021) {
        // The encode seed an experiment at seed 2021 uses, and one more.
        for seed in [2021 ^ 0xE0C, 5] {
            assert_pinned(&entry.video, &ladder, seed);
        }
    }
}

#[test]
fn procedural_family_encodings_keep_their_bits() {
    let ladder = BitrateLadder::default_paper();
    let family = generate_family(&GenreMix::table1(), 50, 2021).unwrap();
    assert_eq!(family.len(), 50);
    for entry in &family {
        assert_pinned(&entry.video, &ladder, 2021 ^ 0xE0C);
    }
}

#[test]
fn non_paper_ladders_keep_their_bits() {
    let video = &corpus::table1(2021)[0].video;
    for kbps in [vec![450.0], vec![200.0, 900.0, 4300.0]] {
        assert_pinned(video, &BitrateLadder::new(kbps).unwrap(), 3);
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn vq_past_the_last_chunk_panics() {
    let video = &corpus::table1(2021)[0].video;
    let encoded = EncodedVideo::encode(video, &BitrateLadder::default_paper(), 1);
    let _ = encoded.vq(encoded.num_chunks(), 0);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn vq_past_the_last_level_panics() {
    let video = &corpus::table1(2021)[0].video;
    let encoded = EncodedVideo::encode(video, &BitrateLadder::default_paper(), 1);
    let _ = encoded.vq(0, 5);
}
