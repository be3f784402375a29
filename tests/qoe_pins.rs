//! The per-chunk QoE decomposition pinned bit for bit.
//!
//! Every model that splits a session into chunks charges chunk `i` its
//! stall (the startup delay goes to chunk 0 only) and, where the bitrate
//! changed by more than 1e-9 kbps since chunk `i − 1`, a switch term
//! `|Δvq|`. The renders below cover a startup delay, a bitrate drop (two
//! switch boundaries), adjacent chunks at equal and at nearly equal
//! bitrates, mid-session stalls and two incidents in one render. The pins
//! were recorded with each model carrying its own copy of those rules;
//! one shared implementation must reproduce every bit, signed zeros
//! included.

use sensei_crowd::TrueQoe;
use sensei_qoe::lstm_qoe::LstmQoeConfig;
use sensei_qoe::{Ksqi, LstmQoe, P1203Like, QoeModel};
use sensei_video::content::SceneSpec;
use sensei_video::{
    visual_quality, BitrateLadder, Genre, Incident, RenderedChunk, RenderedVideo, SceneKind,
    SourceVideo,
};

const SEED: u64 = 2021;

/// An 8-chunk video: 3 normal, 2 key-moment, 1 ad and 2 scenic chunks.
fn source() -> SourceVideo {
    SourceVideo::from_script(
        "pins",
        Genre::Sports,
        &[
            SceneSpec::new(SceneKind::NormalPlay, 3),
            SceneSpec::new(SceneKind::KeyMoment, 2),
            SceneSpec::new(SceneKind::AdBreak, 1),
            SceneSpec::new(SceneKind::Scenic, 2),
        ],
        SEED,
    )
    .unwrap()
}

/// A render of `src` streaming chunk `i` at `kbps[i]` with `stalls[i]`
/// `(rebuffer_s, intentional_rebuffer_s)` before it.
fn render(src: &SourceVideo, startup_s: f64, kbps: &[f64], stalls: &[(f64, f64)]) -> RenderedVideo {
    let chunks = src
        .chunks()
        .iter()
        .zip(kbps)
        .zip(stalls)
        .map(
            |((c, &kbps), &(rebuffer_s, intentional_rebuffer_s))| RenderedChunk {
                bitrate_kbps: kbps,
                vq: visual_quality(kbps, c.complexity),
                rebuffer_s,
                intentional_rebuffer_s,
                motion: c.motion,
                complexity: c.complexity,
            },
        )
        .collect();
    RenderedVideo::new(src.name(), src.chunk_duration_s(), startup_s, chunks).unwrap()
}

/// The pinned renders, by name.
fn renders(src: &SourceVideo) -> Vec<(&'static str, RenderedVideo)> {
    let ladder = BitrateLadder::default_paper();
    let l = |level: usize| ladder.levels()[level];
    let top = ladder.max_kbps();
    let calm = [(0.0, 0.0); 8];
    vec![
        (
            // A startup delay, then a drop to level 1 for chunks 3..5.
            "startup_drop",
            render(src, 1.5, &[top, top, top, l(1), l(1), top, top, top], &calm),
        ),
        (
            // A ramp up with two mid-session stalls, one partly intentional.
            "ramp_two_stalls",
            render(
                src,
                0.75,
                &[l(0), l(0), l(1), l(2), l(2), l(3), l(4), l(4)],
                &[
                    (0.0, 0.0),
                    (0.0, 0.0),
                    (0.0, 0.0),
                    (2.5, 0.0),
                    (0.0, 0.0),
                    (0.0, 0.0),
                    (0.5, 0.25),
                    (0.0, 0.0),
                ],
            ),
        ),
        (
            // Bitrates 1e-10 kbps apart are the same bitrate; 1e-8 apart
            // are a switch.
            "near_equal_bitrates",
            render(
                src,
                0.0,
                &[
                    l(2),
                    l(2) + 1e-10,
                    l(2),
                    l(2),
                    l(2) + 1e-8,
                    l(2),
                    l(2),
                    l(2),
                ],
                &calm,
            ),
        ),
        (
            // Two incidents on the pristine rendering: a stall at chunk 0
            // and a drop to level 2 over chunks 5..8.
            "two_incidents",
            RenderedVideo::with_incidents(
                src,
                &ladder,
                &[
                    Incident::Rebuffer {
                        chunk: 0,
                        duration_s: 1.0,
                    },
                    Incident::BitrateDrop {
                        chunk: 5,
                        len_chunks: 3,
                        level: 2,
                    },
                ],
            )
            .unwrap(),
        ),
        (
            // A startup long enough to floor chunk 0 in every model.
            "long_startup",
            render(
                src,
                30.0,
                &[l(0), l(4), l(0), l(4), l(0), l(3), l(3), l(1)],
                &[
                    (0.0, 0.0),
                    (4.0, 0.0),
                    (0.0, 0.0),
                    (0.0, 0.0),
                    (0.0, 0.0),
                    (0.0, 0.0),
                    (0.0, 0.0),
                    (12.0, 0.0),
                ],
            ),
        ),
    ]
}

/// The fitting set: the pinned renders plus twelve patterned ones, each
/// labeled by the oracle.
fn training_set(src: &SourceVideo) -> (Vec<RenderedVideo>, Vec<f64>) {
    let ladder = BitrateLadder::default_paper();
    let mut out: Vec<RenderedVideo> = renders(src).into_iter().map(|(_, r)| r).collect();
    for k in 0..12_u32 {
        let kbps: Vec<f64> = (0..8_u32)
            .map(|i| ladder.levels()[((i * (k + 1) + k) % 5) as usize])
            .collect();
        let stalls: Vec<(f64, f64)> = (0..8_u32)
            .map(|i| {
                if (i + 2 * k) % 7 == 0 {
                    (f64::from(1 + k % 3), 0.0)
                } else {
                    (0.0, 0.0)
                }
            })
            .collect();
        out.push(render(src, 0.5 * f64::from(k % 3), &kbps, &stalls));
    }
    let oracle = TrueQoe::default();
    let labels = out.iter().map(|r| oracle.qoe01(src, r).unwrap()).collect();
    (out, labels)
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

fn check_bits(what: &str, got: &[u64], pinned: &[u64]) {
    assert_eq!(got.len(), pinned.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i] != pinned[i]) {
        panic!(
            "{what}: value {i} is {} ({:#018x}), pinned {} ({:#018x})",
            f64::from_bits(got[i]),
            got[i],
            f64::from_bits(pinned[i]),
            pinned[i]
        );
    }
}

struct Pin {
    name: &'static str,
    /// `Ksqi::canonical().chunk_scores`.
    ksqi: &'static [u64],
    /// `LstmQoe::features`, row after row.
    lstm: &'static [u64],
    /// `P1203Like::features`.
    p1203: &'static [u64],
    num_switches: usize,
    switch_magnitude: u64,
    /// The experienced quality `e` of each chunk, as
    /// `TrueQoe::default()`'s fold returns it.
    true_terms: &'static [u64],
    /// `TrueQoe::default().qoe01`.
    true_qoe01: u64,
}

/// The oracle's per-chunk experienced quality of `r`, a render of `src`.
fn true_terms(oracle: &TrueQoe, src: &SourceVideo, r: &RenderedVideo) -> Vec<f64> {
    let top = r
        .chunks()
        .iter()
        .map(|c| c.bitrate_kbps)
        .fold(0.0, f64::max);
    let mut fold = oracle.fold(top, r.chunk_duration_s(), r.startup_delay_s());
    r.chunks()
        .iter()
        .zip(src.true_sensitivity())
        .map(|(c, s)| fold.push(s, c))
        .collect()
}

#[test]
fn per_chunk_terms_are_pinned() {
    let src = source();
    let oracle = TrueQoe::default();
    let ksqi = Ksqi::canonical();
    let renders = renders(&src);
    assert_eq!(renders.len(), PINS.len());
    for ((name, r), pin) in renders.iter().zip(PINS) {
        assert_eq!(*name, pin.name);
        check_bits(
            &format!("{name} KSQI"),
            &bits(ksqi.chunk_scores(r)),
            pin.ksqi,
        );
        let lstm = bits(LstmQoe::features(r).into_iter().flatten());
        check_bits(&format!("{name} LSTM features"), &lstm, pin.lstm);
        let p1203 = bits(P1203Like::features(r));
        check_bits(&format!("{name} P.1203 features"), &p1203, pin.p1203);
        assert_eq!(r.num_switches(), pin.num_switches, "{name}: num_switches");
        check_bits(
            &format!("{name} switch_magnitude"),
            &[r.switch_magnitude().to_bits()],
            &[pin.switch_magnitude],
        );
        check_bits(
            &format!("{name} oracle terms"),
            &bits(true_terms(&oracle, &src, r)),
            pin.true_terms,
        );
        check_bits(
            &format!("{name} qoe01"),
            &[oracle.qoe01(&src, r).unwrap().to_bits()],
            &[pin.true_qoe01],
        );
    }
}

#[test]
fn fitted_ksqi_is_pinned() {
    let src = source();
    let (renders, labels) = training_set(&src);
    let (a, b, c, d) = Ksqi::fit(&renders, &labels).unwrap().coefficients();
    check_bits("fitted KSQI", &bits([a, b, c, d]), &FITTED_KSQI);
}

#[test]
fn fitted_lstm_prediction_is_pinned() {
    let src = source();
    let (renders, labels) = training_set(&src);
    let config = LstmQoeConfig {
        hidden: 4,
        epochs: 3,
        lr: 0.01,
    };
    let model = LstmQoe::fit(&renders, &labels, &config, SEED).unwrap();
    let prediction = model.predict(&renders[0]).unwrap();
    check_bits(
        "fitted LSTM-QoE",
        &[prediction.to_bits()],
        &[FITTED_LSTM_PREDICTION],
    );
}

const PINS: &[Pin] = &[
    Pin {
        name: "startup_drop",
        ksqi: &[
            0x3fdce90357eeddd6,
            0x3fe8718b849f41e2,
            0x3fe8a6ffc8c2bb42,
            0x3fd86ca0b37a5860,
            0x3fdfbc878eb7aefe,
            0x3fe56d285a1896c1,
            0x3fea1074779bef1a,
            0x3feb73fa1d624bb5,
        ],
        lstm: &[
            0x3fe9414e78c43bb8,
            0x3fd8000000000000,
            0x3fe858dc5d0a3498,
            0x0000000000000000,
            0x3fe8718b849f41e2,
            0x0000000000000000,
            0x3fe46d6934404ab3,
            0x0000000000000000,
            0x3fe8a6ffc8c2bb42,
            0x0000000000000000,
            0x3fe82fc683593f56,
            0x0000000000000000,
            0x3fdedff22f6a43bf,
            0x0000000000000000,
            0x3fea517d551763b0,
            0x3fd26e0d621b32c5,
            0x3fdfbc878eb7aefe,
            0x0000000000000000,
            0x3fedb7a8bbe65433,
            0x0000000000000000,
            0x3fe86b54a91bc2aa,
            0x0000000000000000,
            0x3febde3d61cebda0,
            0x3fd11a21c37fd656,
            0x3fea1074779bef1a,
            0x0000000000000000,
            0x3fc018c1099e4fdf,
            0x0000000000000000,
            0x3feb73fa1d624bb5,
            0x0000000000000000,
            0x3fb3502744efe91e,
            0x0000000000000000,
        ],
        p1203: &[
            0x3fe6f2fb3c6a25f7,
            0x3fdedff22f6a43bf,
            0x400299999999999a,
            0x0000000000000000,
            0x8000000000000000,
            0x3fa6ece540f4898d,
            0x3ff8000000000000,
            0x4000000000000000,
            0x3fe1c41792cd848e,
            0x3fe3e9b4964eb8a7,
        ],
        num_switches: 2,
        switch_magnitude: 0x3fe1c41792cd848e,
        true_terms: &[
            0x3fdfd355b444c7f3,
            0x3fe8718b849f41e2,
            0x3fe8a6ffc8c2bb42,
            0x3f8094f121b7b980,
            0x3fccdd44974f9a50,
            0x3fe6ca0b3de9f743,
            0x3fea1074779bef1a,
            0x3feb73fa1d624bb5,
        ],
        true_qoe01: 0x3fdd8ab3d9d91a66,
    },
    Pin {
        name: "ramp_two_stalls",
        ksqi: &[
            0x3fbd2c99e256379c,
            0x3fd041ba5ba48bd6,
            0x3fd932558b3bc581,
            0xbf8305dac494edac,
            0x3fe3913b33f19d14,
            0x3fe4eb55e2f2d153,
            0x3fe4eb17297b8e08,
            0x3feb73fa1d624bb5,
        ],
        lstm: &[
            0x3fd217f345625ab4,
            0x3fc8000000000000,
            0x3fe858dc5d0a3498,
            0x0000000000000000,
            0x3fd041ba5ba48bd6,
            0x0000000000000000,
            0x3fe46d6934404ab3,
            0x0000000000000000,
            0x3fde02a91b035ab6,
            0x0000000000000000,
            0x3fe82fc683593f56,
            0x3fcb81dd7ebd9dc0,
            0x3fe327c222c55cf1,
            0x3fe4000000000000,
            0x3fea517d551763b0,
            0x3fc099b6550ebe58,
            0x3fe3913b33f19d14,
            0x0000000000000000,
            0x3fedb7a8bbe65433,
            0x0000000000000000,
            0x3fe5a5b3061ad9c3,
            0x0000000000000000,
            0x3febde3d61cebda0,
            0x3fb0a3be9149e578,
            0x3fea1074779bef1a,
            0x3fc0000000000000,
            0x3fc018c1099e4fdf,
            0x3fc1ab05c604555c,
            0x3feb73fa1d624bb5,
            0x0000000000000000,
            0x3fb3502744efe91e,
            0x0000000000000000,
        ],
        p1203: &[
            0x3fe2422949faa5e7,
            0x3fd041ba5ba48bd6,
            0x3ff699999999999a,
            0x4000000000000000,
            0x4008000000000000,
            0x3fbada67d508f378,
            0x3fe8000000000000,
            0x4010000000000000,
            0x3fe1861e389d690c,
            0x3fe3e9b4964eb8a7,
        ],
        num_switches: 4,
        switch_magnitude: 0x3fe1861e389d690c,
        true_terms: &[
            0x3fca40bcf5a73b00,
            0x3fd89e8f066ff90e,
            0x3fdb999f614ad6a3,
            0xbfe7fc265c35b01c,
            0x3fdca7f461d2aec0,
            0x3fe683567f3a691c,
            0x3fe779b14bd8855d,
            0x3feb73fa1d624bb5,
        ],
        true_qoe01: 0x3fb55ccc00ff5e3e,
    },
    Pin {
        name: "near_equal_bitrates",
        ksqi: &[
            0x3fe39490dc8e239a,
            0x3fe273c6287c8037,
            0x3fe2bc9d1164d0f4,
            0x3fe327c222c55cf1,
            0x3fe36c50d45580b5,
            0x3fe20484c9b89166,
            0x3fe4c47b9c5bb9ab,
            0x3fe6f74baa3344e9,
        ],
        lstm: &[
            0x3fe39490dc8e239a,
            0x0000000000000000,
            0x3fe858dc5d0a3498,
            0x0000000000000000,
            0x3fe273c6287c8037,
            0x0000000000000000,
            0x3fe46d6934404ab3,
            0x0000000000000000,
            0x3fe2bc9d1164d0f4,
            0x0000000000000000,
            0x3fe82fc683593f56,
            0x0000000000000000,
            0x3fe327c222c55cf1,
            0x0000000000000000,
            0x3fea517d551763b0,
            0x0000000000000000,
            0x3fe3913b33f1e2bc,
            0x0000000000000000,
            0x3fedb7a8bbe65433,
            0x3f8a5e444b2172c0,
            0x3fe26b5ebf55a67c,
            0x0000000000000000,
            0x3febde3d61cebda0,
            0x3fa25dc749c3c400,
            0x3fe4c47b9c5bb9ab,
            0x0000000000000000,
            0x3fc018c1099e4fdf,
            0x0000000000000000,
            0x3fe6f74baa3344e9,
            0x0000000000000000,
            0x3fb3502744efe91e,
            0x0000000000000000,
        ],
        p1203: &[
            0x3fe3b4a2ee616b30,
            0x3fe26b5ebf55a67c,
            0x3ff3333333334968,
            0x0000000000000000,
            0x8000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x4000000000000000,
            0x3fa8f5585c8c20b0,
            0x3fe3e9b4964eb8a7,
        ],
        num_switches: 2,
        switch_magnitude: 0x3fa8f5585c8c20b0,
        true_terms: &[
            0x3fe458a3db888903,
            0x3fe3fcdac5fbae4c,
            0x3fe353975ed881f4,
            0x3fdb6e44b825a390,
            0x3fdc1a015b3813c2,
            0x3fe4eec594f4e8b8,
            0x3fe76644e8c3ee24,
            0x3fe8d6d84f44692a,
        ],
        true_qoe01: 0x3fe3d907bbc5bd3a,
    },
    Pin {
        name: "two_incidents",
        ksqi: &[
            0x3fe20e1b45910885,
            0x3fe8718b849f41e2,
            0x3fe8a6ffc8c2bb42,
            0x3fe8f45364200fce,
            0x3fe93ef852274856,
            0x3fe007b5cbf2add6,
            0x3fe4c47b9c5bb9ab,
            0x3fe6f74baa3344e9,
        ],
        lstm: &[
            0x3fe9414e78c43bb8,
            0x3fd0000000000000,
            0x3fe858dc5d0a3498,
            0x0000000000000000,
            0x3fe8718b849f41e2,
            0x0000000000000000,
            0x3fe46d6934404ab3,
            0x0000000000000000,
            0x3fe8a6ffc8c2bb42,
            0x0000000000000000,
            0x3fe82fc683593f56,
            0x0000000000000000,
            0x3fe8f45364200fce,
            0x0000000000000000,
            0x3fea517d551763b0,
            0x0000000000000000,
            0x3fe93ef852274856,
            0x0000000000000000,
            0x3fedb7a8bbe65433,
            0x0000000000000000,
            0x3fe26b5ebf55a67c,
            0x0000000000000000,
            0x3febde3d61cebda0,
            0x3fcb4e664b468768,
            0x3fe4c47b9c5bb9ab,
            0x0000000000000000,
            0x3fc018c1099e4fdf,
            0x0000000000000000,
            0x3fe6f74baa3344e9,
            0x0000000000000000,
            0x3fb3502744efe91e,
            0x0000000000000000,
        ],
        p1203: &[
            0x3fe75689704a46c2,
            0x3fe26b5ebf55a67c,
            0x4001d9999999999a,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3f9f07c1f07c1f08,
            0x0000000000000000,
            0x3ff0000000000000,
            0x3fcb4e664b468768,
            0x3fe3e9b4964eb8a7,
        ],
        num_switches: 1,
        switch_magnitude: 0x3fcb4e664b468768,
        true_terms: &[
            0x3fe306e16458568e,
            0x3fe8718b849f41e2,
            0x3fe8a6ffc8c2bb42,
            0x3fe8f45364200fce,
            0x3fe93ef852274856,
            0x3fe3d9a7cb7f9f93,
            0x3fe76644e8c3ee24,
            0x3fe8d6d84f44692a,
        ],
        true_qoe01: 0x3fe7ea452f0679e5,
    },
    Pin {
        name: "long_startup",
        ksqi: &[
            0xc010000000000000,
            0xbfd37d9be1b4f102,
            0x3fb5c211c37a5456,
            0x3fe324bccd864eb8,
            0x3fbbb67c0e0e5e0c,
            0x3fe13bb3271bf05e,
            0x3fe7b067675b1b8e,
            0xc0010b657d4675b7,
        ],
        lstm: &[
            0x3fd217f345625ab4,
            0x4000000000000000,
            0x3fe858dc5d0a3498,
            0x0000000000000000,
            0x3fe8718b849f41e2,
            0x3ff0000000000000,
            0x3fe46d6934404ab3,
            0x3fdecb23c3dc2910,
            0x3fd0b425b4d1871d,
            0x0000000000000000,
            0x3fe82fc683593f56,
            0x3fe01778aa367e54,
            0x3fe8f45364200fce,
            0x0000000000000000,
            0x3fea517d551763b0,
            0x3fe09a4089b74c40,
            0x3fd2124236851021,
            0x0000000000000000,
            0x3fedb7a8bbe65433,
            0x3fdfd66491bb0f7b,
            0x3fe5a5b3061ad9c3,
            0x0000000000000000,
            0x3febde3d61cebda0,
            0x3fd93923d5b0a365,
            0x3fe7b067675b1b8e,
            0x0000000000000000,
            0x3fc018c1099e4fdf,
            0x0000000000000000,
            0x3fe3a3abba92b3d8,
            0x4000000000000000,
            0x3fb3502744efe91e,
            0x3fc032eeb3219ed8,
        ],
        p1203: &[
            0x3fe199da55248e7a,
            0x3fd0b425b4d1871d,
            0x3ff619999999999a,
            0x4000000000000000,
            0x4030000000000000,
            0x3fe2df2df2df2df3,
            0x403e000000000000,
            0x4018000000000000,
            0x40042af2bd968810,
            0x3fe3e9b4964eb8a7,
        ],
        num_switches: 6,
        switch_magnitude: 0x40042af2bd968810,
        true_terms: &[
            0xc000000000000000,
            0xbf9f7708206a1dc0,
            0x3fc3a018c6fb4ea8,
            0x3fdb628f2d332982,
            0xbfe0a1e304b2eb44,
            0x3fe48165f405108a,
            0x3fe8de8bd22e2b93,
            0xbfec411186de9bd1,
        ],
        true_qoe01: 0x0000000000000000,
    },
];
const FITTED_KSQI: [u64; 4] = [
    0x3ff94c691cc524fd,
    0x3fd00ad8874bd97d,
    0x3f97e49546ed7305,
    0xbfe1130c97929c25,
];
const FITTED_LSTM_PREDICTION: u64 = 0x3fdc6c7580d3ce18;
