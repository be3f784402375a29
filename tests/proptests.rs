//! Property-based tests on core invariants, spanning crates.

// Property inputs convert small counts to f64; exact below 2^52.
#![allow(clippy::cast_precision_loss)]

use proptest::prelude::*;
use sensei_trace::ThroughputTrace;
use sensei_video::{BitrateLadder, SensitivityWeights};

proptest! {
    /// Download time is monotone in payload size and positive for positive
    /// payloads, for arbitrary valid traces.
    #[test]
    fn download_time_is_monotone(
        samples in prop::collection::vec(0.0f64..5000.0, 3..40),
        start in 0.0f64..100.0,
        bits_a in 1.0f64..5e7,
        bits_b in 1.0f64..5e7,
    ) {
        prop_assume!(samples.iter().any(|&v| v > 1.0));
        let trace = ThroughputTrace::new("p", 1.0, samples).unwrap();
        let (lo, hi) = if bits_a <= bits_b { (bits_a, bits_b) } else { (bits_b, bits_a) };
        let t_lo = trace.download_time(start, lo);
        let t_hi = trace.download_time(start, hi);
        prop_assert!(t_lo <= t_hi + 1e-9);
        prop_assert!(t_lo >= 0.0);
    }

    /// The cumulative index agrees with naive integration everywhere.
    #[test]
    fn cumulative_trace_matches_naive(
        samples in prop::collection::vec(0.0f64..4000.0, 2..30),
        start in 0.0f64..60.0,
        bits in 1.0f64..2e7,
    ) {
        prop_assume!(samples.iter().any(|&v| v > 1.0));
        let trace = ThroughputTrace::new("p", 1.0, samples).unwrap();
        let cum = sensei_trace::CumulativeTrace::new(&trace);
        let naive = trace.download_time(start, bits);
        let fast = cum.download_time(start, bits);
        prop_assert!((naive - fast).abs() < 1e-6 * naive.max(1.0));
    }

    /// Weight normalization always yields mean 1 and preserves ratios.
    #[test]
    fn weights_normalize_to_mean_one(
        raw in prop::collection::vec(0.01f64..10.0, 1..80),
    ) {
        let w = SensitivityWeights::new(raw.clone()).unwrap();
        let mean = w.as_slice().iter().sum::<f64>() / w.len() as f64;
        prop_assert!((mean - 1.0).abs() < 1e-9);
        if raw.len() >= 2 {
            let r_in = raw[1] / raw[0];
            let r_out = w.as_slice()[1] / w.as_slice()[0];
            prop_assert!((r_in - r_out).abs() < 1e-9 * r_in.abs().max(1.0));
        }
    }

    /// Every procedurally generated video family is deterministic given
    /// its seed, and every chunk profile it produces is valid.
    #[test]
    fn video_families_are_deterministic_per_seed(
        seed in 0u64..1_000_000_000,
        count in 1usize..6,
        sports in 0.0f64..4.0,
        nature in 0.0f64..4.0,
    ) {
        let mix = sensei_video::GenreMix {
            sports,
            gaming: 1.0,
            nature,
            animation: 1.0,
        };
        let a = sensei_video::generate_family(&mix, count, seed).unwrap();
        let b = sensei_video::generate_family(&mix, count, seed).unwrap();
        prop_assert_eq!(a.len(), count);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.video, &y.video);
            prop_assert_eq!(x.source_dataset, "procedural");
            for chunk in x.video.chunks() {
                prop_assert!(chunk.validate().is_ok());
            }
        }
    }

    /// Every generated trace family lands inside the paper's 0.2–6 Mbps
    /// admission band with no all-zero traces, for arbitrary seeds.
    #[test]
    fn trace_families_land_in_admission_band(
        seed in 0u64..1_000_000_000,
        family_idx in 0usize..5,
        count in 1usize..4,
    ) {
        use sensei_trace::generate::{generate_family, in_admission_band, TraceFamily};
        let family = TraceFamily::all().swap_remove(family_idx);
        let set = generate_family(&family, count, 300, seed);
        prop_assert_eq!(set.len(), count);
        for t in &set {
            prop_assert!(
                in_admission_band(t.mean_kbps()),
                "{} mean {} outside 0.2-6 Mbps", t.name(), t.mean_kbps()
            );
            prop_assert!(t.samples().iter().any(|&v| v > 0.0));
        }
        // Determinism in the seed.
        let again = generate_family(&family, count, 300, seed);
        for (x, y) in set.iter().zip(&again) {
            prop_assert_eq!(x, y);
        }
    }

    /// Visual quality is monotone in bitrate for any complexity.
    #[test]
    fn visual_quality_is_monotone(
        c in 0.0f64..1.0,
        b_lo in 50.0f64..3000.0,
        delta in 1.0f64..2000.0,
    ) {
        let lo = sensei_video::visual_quality(b_lo, c);
        let hi = sensei_video::visual_quality(b_lo + delta, c);
        prop_assert!(hi > lo);
        prop_assert!((0.0..1.0).contains(&lo));
    }

    /// An encoding derives each chunk's visual quality from its stored
    /// half-saturation bitrate; on any ladder and any complexities it
    /// equals `visual_quality(kbps, complexity)` bit for bit.
    #[test]
    fn encoded_vq_matches_visual_quality(
        complexities in prop::collection::vec(0.0f64..=1.0, 1..30),
        steps in prop::collection::vec(1.0f64..2000.0, 1..8),
        seed in 0u64..1000,
    ) {
        use sensei_video::{ChunkContent, EncodedVideo, Genre, SceneKind, SourceVideo};
        let ladder: Vec<f64> = steps
            .iter()
            .scan(0.0, |kbps, step| {
                *kbps += step;
                Some(*kbps)
            })
            .collect();
        let ladder = BitrateLadder::new(ladder).unwrap();
        let chunks: Vec<ChunkContent> = complexities
            .iter()
            .map(|&complexity| ChunkContent {
                sensitivity: 1.0,
                motion: 0.5,
                complexity,
                objects: 0.5,
            })
            .collect();
        let scenes = vec![SceneKind::NormalPlay; chunks.len()];
        let source = SourceVideo::new("p", Genre::Sports, 4.0, chunks, scenes).unwrap();
        let encoded = EncodedVideo::encode(&source, &ladder, seed);
        for (chunk, &complexity) in complexities.iter().enumerate() {
            prop_assert_eq!(encoded.vq_row(chunk).len(), ladder.len());
            for (level, (&kbps, row_vq)) in
                ladder.levels().iter().zip(encoded.vq_row(chunk)).enumerate()
            {
                let expected = sensei_video::visual_quality(kbps, complexity).to_bits();
                prop_assert_eq!(encoded.vq(chunk, level).to_bits(), expected);
                prop_assert_eq!(row_vq.to_bits(), expected);
            }
        }
    }

    /// Manifest XML round-trips arbitrary weight vectors (post
    /// quantization) and segment sizes.
    #[test]
    fn manifest_roundtrip(
        chunks in prop::collection::vec((0.01f64..20.0, 1e4f64..1e7), 1..40),
    ) {
        let (weights, sizes): (Vec<f64>, Vec<f64>) = chunks.into_iter().unzip();
        let manifest = sensei_dash::Manifest {
            title: "prop".to_string(),
            chunk_duration_s: 4.0,
            representations: vec![sensei_dash::Representation {
                id: "r0".into(),
                bandwidth_bps: 300_000,
                segment_sizes_bits: sizes,
            }],
            weights: Some(weights.clone()),
        };
        let xml = manifest.to_xml().unwrap();
        let parsed = sensei_dash::Manifest::parse(&xml).unwrap();
        let recovered = parsed.weights.unwrap();
        for (a, b) in recovered.iter().zip(&weights) {
            prop_assert!((a - b.clamp(0.001, 65.535)).abs() <= 5e-4 + 1e-9);
        }
    }

    /// Ladder lookup invariants: highest_at_most is consistent with levels.
    #[test]
    fn ladder_highest_at_most(kbps in 0.0f64..10_000.0) {
        let ladder = BitrateLadder::default_paper();
        let level = ladder.highest_at_most(kbps);
        prop_assert!(level < ladder.len());
        if ladder.levels()[level] > kbps {
            // Only permitted when every level exceeds the budget.
            prop_assert_eq!(level, 0);
        }
        if level + 1 < ladder.len() {
            prop_assert!(ladder.levels()[level + 1] > kbps);
        }
    }

    /// The KSQI chunk-score decomposition always averages to the session
    /// prediction (pre-clamping), for random renders.
    #[test]
    fn ksqi_decomposition_consistency(
        levels in prop::collection::vec(0usize..5, 2..30),
        stall_at in 0usize..30,
        stall_len in 0.0f64..6.0,
    ) {
        use sensei_qoe::QoeModel;
        let script = [sensei_video::content::SceneSpec::new(
            sensei_video::SceneKind::NormalPlay,
            levels.len(),
        )];
        let src = sensei_video::SourceVideo::from_script(
            "prop", sensei_video::Genre::Sports, &script, 3,
        ).unwrap();
        let ladder = BitrateLadder::default_paper();
        let chunks: Vec<sensei_video::RenderedChunk> = src
            .chunks()
            .iter()
            .zip(&levels)
            .enumerate()
            .map(|(i, (c, &l))| {
                let kbps = ladder.levels()[l];
                sensei_video::RenderedChunk {
                    bitrate_kbps: kbps,
                    vq: sensei_video::visual_quality(kbps, c.complexity),
                    rebuffer_s: if i == stall_at % levels.len() { stall_len } else { 0.0 },
                    intentional_rebuffer_s: 0.0,
                    motion: c.motion,
                    complexity: c.complexity,
                }
            })
            .collect();
        let render = sensei_video::RenderedVideo::new("prop", 4.0, 0.0, chunks).unwrap();
        let model = sensei_qoe::Ksqi::canonical();
        let scores = model.chunk_scores(&render);
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        let pred = model.predict(&render).unwrap();
        prop_assert!((pred - mean.clamp(0.0, 1.0)).abs() < 1e-9);
    }
}
