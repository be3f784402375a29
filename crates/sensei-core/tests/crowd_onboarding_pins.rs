//! Crowd-weighted onboarding pinned bit for bit.
//!
//! `Experiment::build` with `WeightSource::Crowd` profiles every video of
//! its corpus. These pins hold, for seed 2021 and no RL training, every
//! asset's deployed weights (as a digest of their bits), its profile
//! cost and the corpus total, over all 16 Table-1 videos and over a
//! 3-video `config.videos` subset. How the profiles are scheduled must
//! not move a bit: crowd-weighted grids (the claims ledger and the
//! benchmark's `mpc_lineup` fingerprint) are built from them.

use sensei_core::experiment::WeightSource;
use sensei_core::{Experiment, ExperimentConfig};

const SEED: u64 = 2021;

/// One asset's pin: name, chunk count, weights digest, cost bits.
type AssetPin = (&'static str, usize, u64, u64);

/// FNV-1a over the little-endian bytes of every weight's bits.
fn digest(weights: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for byte in weights.iter().flat_map(|w| w.to_bits().to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check(videos: Option<&[&str]>, assets: &[AssetPin], total_cost: u64) {
    let config = ExperimentConfig {
        seed: SEED,
        videos: videos.map(|names| names.iter().map(|&n| n.to_string()).collect()),
        weight_source: WeightSource::Crowd,
        rl_episodes: 0,
        ..ExperimentConfig::default()
    };
    let env = Experiment::build(&config).unwrap();
    let measured: Vec<(String, usize, u64, u64)> = env
        .assets
        .iter()
        .map(|a| {
            (
                a.name.to_string(),
                a.weights.as_slice().len(),
                digest(a.weights.as_slice()),
                a.profile_cost_usd.to_bits(),
            )
        })
        .collect();
    let pinned: Vec<(String, usize, u64, u64)> = assets
        .iter()
        .map(|&(name, n, w, c)| (name.to_string(), n, w, c))
        .collect();
    assert_eq!(
        measured,
        pinned,
        "assets (name, chunks, weights digest, cost bits); measured:\n{}",
        measured
            .iter()
            .map(|(name, n, w, c)| format!("    (\"{name}\", {n}, {w:#018x}, {c:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(
        env.total_profile_cost_usd.to_bits(),
        total_cost,
        "total_profile_cost_usd {} ({:#018x})",
        env.total_profile_cost_usd,
        env.total_profile_cost_usd.to_bits()
    );
}

const ALL_SIXTEEN: [AssetPin; 16] = [
    ("Basket1", 55, 0xcbfc_2330_a1cd_4b04, 0x4091_fa66_6666_6666),
    ("Soccer1", 50, 0x2172_c704_bf5a_7d72, 0x408d_c555_5555_5556),
    ("Basket2", 55, 0x1037_ecf5_f4e9_488f, 0x4087_f044_4444_4444),
    ("Soccer2", 55, 0x801c_9c9d_6879_3c74, 0x408a_a666_6666_6666),
    ("Discus", 55, 0x53ca_2071_0f1f_0b68, 0x4091_fa66_6666_6666),
    (
        "Wrestling",
        55,
        0xb6b1_3cb9_1b5d_ed34,
        0x408b_6e66_6666_6666,
    ),
    ("Motor", 55, 0x651d_d3b2_4569_8675, 0x4091_fa66_6666_6666),
    ("Tank", 55, 0x8d4f_9980_e714_0e70, 0x4089_1c44_4444_4444),
    ("FPS1", 55, 0xe68b_59b2_b2ea_f50c, 0x4089_8044_4444_4444),
    ("FPS2", 55, 0x2f59_4927_9362_67ee, 0x4091_fa66_6666_6666),
    ("Mountain", 21, 0x853f_b097_8f5f_6863, 0x4065_747a_e147_ae14),
    ("Animal", 55, 0x28a1_352b_a3a6_8f4a, 0x4091_fa66_6666_6666),
    ("Space", 55, 0x5b05_9cac_ee24_3423, 0x408e_ec88_8888_8888),
    ("Girl", 55, 0xef9e_3b68_7026_cbfd, 0x4091_fa66_6666_6666),
    ("Lava", 55, 0x3822_6747_db2b_d9a6, 0x4091_fa66_6666_6666),
    (
        "BigBuckBunny",
        149,
        0xb3a7_1345_44fc_22e9,
        0x40c0_58e9_d036_9d03,
    ),
];

#[test]
fn all_sixteen_table1_videos_are_pinned() {
    check(None, &ALL_SIXTEEN, 0x40d6_1f86_6666_6666);
}

#[test]
fn a_three_video_subset_is_pinned() {
    // Named out of corpus order; the assets come back in corpus order.
    check(
        Some(&["Lava", "Soccer1", "BigBuckBunny"]),
        &[ALL_SIXTEEN[1], ALL_SIXTEEN[14], ALL_SIXTEEN[15]],
        0x40c4_748b_f258_bf25,
    );
}
