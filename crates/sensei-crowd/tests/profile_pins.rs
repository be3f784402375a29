//! Crowd profiling pinned bit for bit.
//!
//! The weights, cost and delay of `WeightProfiler::profile` (three Table-1
//! videos, 21 to 149 chunks) and `profile_exhaustive` (`Mountain`) for
//! seed 2021, recorded with the render-based scheduler that built a
//! `RenderedVideo` per probe and scored it whole. The render-free
//! scheduler must reproduce every bit: crowd-weighted experiments (and
//! the benchmark's `mpc_lineup` fingerprint) depend on them.

use sensei_crowd::{TrueQoe, WeightProfile, WeightProfiler};
use sensei_video::{corpus, BitrateLadder};

const SEED: u64 = 2021;

struct Pin {
    cost_usd: u64,
    delay_minutes: u64,
    renders_rated: usize,
    raters_recruited: usize,
    weights: &'static [u64],
}

/// The profiler `Experiment::build` runs for a crowd-weighted seed-2021
/// experiment, and the profile seed it passes.
fn profiler() -> (WeightProfiler, u64) {
    (WeightProfiler::paper_default(SEED ^ 0xC0), SEED ^ 0xF1)
}

fn check(name: &str, profile: &WeightProfile, pin: &Pin) {
    let weights: Vec<u64> = profile
        .weights
        .as_slice()
        .iter()
        .map(|w| w.to_bits())
        .collect();
    assert_eq!(weights.len(), pin.weights.len(), "{name}: chunk count");
    if let Some(i) = (0..weights.len()).find(|&i| weights[i] != pin.weights[i]) {
        panic!(
            "{name}: weight {i} is {} ({:#018x}), pinned {} ({:#018x})",
            f64::from_bits(weights[i]),
            weights[i],
            f64::from_bits(pin.weights[i]),
            pin.weights[i]
        );
    }
    assert_eq!(
        profile.cost_usd.to_bits(),
        pin.cost_usd,
        "{name}: cost_usd {}",
        profile.cost_usd
    );
    assert_eq!(
        profile.delay_minutes.to_bits(),
        pin.delay_minutes,
        "{name}: delay_minutes {}",
        profile.delay_minutes
    );
    assert_eq!(
        profile.renders_rated, pin.renders_rated,
        "{name}: renders_rated"
    );
    assert_eq!(
        profile.raters_recruited, pin.raters_recruited,
        "{name}: raters_recruited"
    );
}

fn pinned_profile(name: &str, pin: &Pin) {
    let video = corpus::by_name(name, SEED).unwrap().video;
    let (profiler, seed) = profiler();
    let profile = profiler
        .profile(
            &TrueQoe::default(),
            &video,
            &BitrateLadder::default_paper(),
            seed,
        )
        .unwrap();
    check(name, &profile, pin);
}

#[test]
fn mountain_profile_is_pinned() {
    pinned_profile("Mountain", &MOUNTAIN);
}

#[test]
fn soccer1_profile_is_pinned() {
    pinned_profile("Soccer1", &SOCCER1);
}

#[test]
fn big_buck_bunny_profile_is_pinned() {
    pinned_profile("BigBuckBunny", &BIG_BUCK_BUNNY);
}

#[test]
fn mountain_exhaustive_profile_is_pinned() {
    let video = corpus::by_name("Mountain", SEED).unwrap().video;
    let (profiler, seed) = profiler();
    let profile = profiler
        .profile_exhaustive(
            &TrueQoe::default(),
            &video,
            &BitrateLadder::default_paper(),
            seed,
        )
        .unwrap();
    check("Mountain (exhaustive)", &profile, &MOUNTAIN_EXHAUSTIVE);
}

/// `profile` of `Mountain`.
const MOUNTAIN: Pin = Pin {
    cost_usd: 0x4065747ae147ae14,
    delay_minutes: 0x40506ccccccccccd,
    renders_rated: 84,
    raters_recruited: 94,
    weights: &[
        0x3fd7195b01a38342,
        0x3fda885a02cd20e1,
        0x3fed14512910358b,
        0x3fe83ae1fb03cc7d,
        0x3feaa66936a9d6ea,
        0x3fe87ebcd0a13c47,
        0x3fece3c686835d15,
        0x3fe7b8187f95f56f,
        0x3ff59d5bc7cdc975,
        0x3ff2da14692aca9d,
        0x3ff7b3e5a88b8d4f,
        0x3ff40bd72b758dee,
        0x40033dfc3b17a153,
        0x3fffaa34cc3317b7,
        0x3ff2246b2fbacdf3,
        0x3fe8071cab667404,
        0x3fdb2c5bbef7e752,
        0x3fea765bf85c9cc7,
        0x3fe7e0a6b41dcdbf,
        0x3fecf66d356d187d,
        0x3fec30a7f157ac4f,
    ],
};

/// `profile` of `Soccer1`.
const SOCCER1: Pin = Pin {
    cost_usd: 0x408dc55555555556,
    delay_minutes: 0x406081999999999a,
    renders_rated: 200,
    raters_recruited: 204,
    weights: &[
        0x3feb638bebcf0e3e,
        0x3ff1b595eff6d319,
        0x3fe3929cbef8f174,
        0x3ff3ab542fe897d9,
        0x3fe34298666fca69,
        0x3fe02557799ce07b,
        0x3fe773a8304a130d,
        0x3fef8ca5828f42e0,
        0x3fdfc9c37c57ec9e,
        0x3feae6f2c76f56cb,
        0x3ff2843537e62115,
        0x3fee195e31c5ce96,
        0x3fe7526d60deb2e8,
        0x3fd77106053283de,
        0x3fd742fcec34d11a,
        0x3fdf200798e9f1ae,
        0x3ff1cb7e02442012,
        0x3fed7f4adb0a274f,
        0x3feb519ac5b738ba,
        0x3fe3ab106d175e1a,
        0x3fe7cbf09dda8530,
        0x3fe574f7b530fa6b,
        0x3fef693d97adb587,
        0x3fefc9a259f41a4d,
        0x3ff200ef06b7195e,
        0x3fe801fd282e39af,
        0x3ffcb6f11abc655a,
        0x400794723ada85d2,
        0x4006207fd61a1958,
        0x40012c007e0f9b4d,
        0x3ff0c36f8b61f0dd,
        0x3ff1040bf81b2edd,
        0x3ff5bbad7902b907,
        0x3ff1814189fcc6bf,
        0x3ffa7b583ad29772,
        0x3ffdf5018fcff0c8,
        0x3ff2d03411b34742,
        0x3fee418c62587978,
        0x3fe3781878c8e4f4,
        0x3fef502658ffb6af,
        0x3ff10305cfa4fea4,
        0x3ff1deacc5bed690,
        0x3ff5844498a9bd0a,
        0x3feb67189c8cdb60,
        0x3fe78587001b9d8b,
        0x3ff065126a5cb5c9,
        0x3fd94fac0bb6cfeb,
        0x3fd9c1814523c87c,
        0x3fe0cc4be797e089,
        0x3fd39c44bfc3bc8d,
    ],
};

/// `profile` of `BigBuckBunny`.
const BIG_BUCK_BUNNY: Pin = Pin {
    cost_usd: 0x40c058e9d0369d03,
    delay_minutes: 0x40776e6666666666,
    renders_rated: 596,
    raters_recruited: 623,
    weights: &[
        0x3fc56cbb16b3b1e8,
        0x3fd2accd6ec33490,
        0x3fde7c7ab2b5c0ad,
        0x3fe374a56c3fb5ed,
        0x3fd9a562a1d4b9f3,
        0x3fd40ed63d184faf,
        0x3fdb4f548d7cd4b1,
        0x3fd27d0be31e6b1c,
        0x3fdb7ceb058df923,
        0x3fdbd5d6177ad025,
        0x3fe1c5cc6d928f3f,
        0x3fdaddb64c964850,
        0x3fe04fe4d9e4af0a,
        0x3fe1b51b18e91808,
        0x3fdbd3b91c0752cf,
        0x3ff3f27185d42cfc,
        0x3fe1bad0f0f614c9,
        0x3fe98d29439f055a,
        0x3fefac074cb6e6b0,
        0x3ff27591681173ce,
        0x3fed9148aecdd711,
        0x3ff1c79ac0a45ef1,
        0x3ff24b443a4d6806,
        0x3fe382b00c3f8d50,
        0x3ff3c67111417e4a,
        0x3ff20bf6ebef27c4,
        0x3fee5d8d795c6359,
        0x3fe9c129920c9d3b,
        0x3ff236e1dd1c9aef,
        0x3fec5548af09b7f2,
        0x3fe9414234a53313,
        0x3ff11ccb34eed03d,
        0x3ff2d58b7457dbc6,
        0x3ff14191e2f7e80d,
        0x3fe94fd9041017d7,
        0x40002178e094aa22,
        0x3ffdd3c63b53e075,
        0x3ffb61a595019621,
        0x3ff611a75dd2508c,
        0x3ff05d9bffee6418,
        0x3fea700ef51303f2,
        0x3fe9c1214c4b7cbb,
        0x3ff233a7c1aa223d,
        0x3ff06e304c513521,
        0x3ff9b158c64ff074,
        0x3ff266cae0140ef6,
        0x3ff31001084e6056,
        0x3fec7b6187520db3,
        0x3ff68fcb8f87c975,
        0x3ff177dff8b6d75b,
        0x3fe983f67e04f205,
        0x3fed49cf1beb78df,
        0x3fe517dc84d2feb4,
        0x3febe4af803243ec,
        0x3fea32f254db6330,
        0x3ff0269666fe4583,
        0x3ff04359869a8227,
        0x4004c989a7becd24,
        0x40073258372f86bf,
        0x4009e9678e71bfd4,
        0x400249e939decdd3,
        0x4009e958b29d6757,
        0x3ff0d6501dec637e,
        0x3febe2f1032c16ca,
        0x3fe38f753ee4599f,
        0x3ff5f21a0824c099,
        0x3ff62f1a93717de8,
        0x3fe7eb2651123f1b,
        0x3ff775206f922625,
        0x3fef1ab71091bc6c,
        0x3ff209c6739ed400,
        0x3fee165cd34b9754,
        0x3fe59deecb090f67,
        0x3fe10ff8db82732c,
        0x3fe60001b4165c3d,
        0x3fedc37cb82bcbf2,
        0x3fec8ea349a3e6ab,
        0x3ff37374069e1d8d,
        0x3fe77ee37f9e935c,
        0x3ff2428ef6f02697,
        0x3ff4c4cf9a26f6cb,
        0x3ff1c119f0e031dc,
        0x3fe373df60ed5653,
        0x3ff490a495442000,
        0x3ff298ccd7d1a641,
        0x3fe97761a3dbab5f,
        0x3fdc27c0bcb8c0d6,
        0x3fe1f09f7150034e,
        0x3fdb8a009a76cfd5,
        0x3fd202192f1ab180,
        0x3fa99766cb876dae,
        0x3fdcb2cf0a4e70de,
        0x3fdb736e79413a4e,
        0x3fe79052be4523e0,
        0x3fdee912257fa74f,
        0x3fdb77e67dbc7c91,
        0x3ff2df71a4b55bf6,
        0x3fec2454ea13a88c,
        0x3ff18fd229a56c07,
        0x3ff189152f9b6205,
        0x3fe9c36fb20d067a,
        0x3ff119234c17c332,
        0x3ff2736c62b2b6cd,
        0x3fe52570d15bb698,
        0x3ff1b82678b32fae,
        0x3fee30359bad88b6,
        0x3fe566a90433f3df,
        0x3ff15fc96b00add1,
        0x3fe7fa840e831c02,
        0x3fedac8ccb13bf6b,
        0x3fee78fcbd918e17,
        0x3fe7eeb43de200b6,
        0x3ff330b189c52006,
        0x3fee94e7788890dc,
        0x4006189b17bc7fa2,
        0x4007a2919efc1d89,
        0x4007900d7f0fac75,
        0x4008894e37de6e70,
        0x3ff79e6097dc42b9,
        0x3ff50cf4414c8752,
        0x3ff8a8cb635caa2f,
        0x3ffdad0a1a53f48b,
        0x3fe9b81c19bea322,
        0x3feb9c40be620349,
        0x3fef9c2ed56b91a0,
        0x3ff247b0bd171280,
        0x3ff213285f6b1fae,
        0x3ff072688707fc7d,
        0x3ff2f9d9f510a3db,
        0x3fe5beb20a34022c,
        0x3ff45d1f07cae47d,
        0x3ff24a9b4a750386,
        0x3ff171b64ac7230c,
        0x3ff1a5673a63959c,
        0x3fefc3b3578fe5af,
        0x3ff29a87b4ef12f9,
        0x3feba93107e12463,
        0x3fd2ad9a2d2c4484,
        0x3fc3a991dce85ac5,
        0x3fdc9f7666f43ab2,
        0x3fdae03dd0124f95,
        0x3fd9a5f8e1d7d145,
        0x3fdb83a057a2ff2a,
        0x3fd4033d9307a4dc,
        0x3fdedb48429db1dc,
        0x3fe1f9130144ff75,
        0x3fdc0cfae0874fe1,
        0x3fe219f229bbe26b,
        0x3fe2a352ac37a73f,
    ],
};

/// `profile_exhaustive` of `Mountain`.
const MOUNTAIN_EXHAUSTIVE: Pin = Pin {
    cost_usd: 0x4099487ae147ae15,
    delay_minutes: 0x407d9b3333333333,
    renders_rated: 168,
    raters_recruited: 905,
    weights: &[
        0x3fe64c6b92307b46,
        0x3fe75ea073bc424f,
        0x3fef52a50952f2fd,
        0x3fe482ceabb0f44c,
        0x3fe49725ec10196b,
        0x3fe74d8bd881a72c,
        0x3fe7676f87d3250f,
        0x3fe247a8b9a217e6,
        0x3ff57c105b0a21ec,
        0x3ff40aa1b398c3bf,
        0x3ff75d9d5b1d8ee5,
        0x3ff502b6fea1c57d,
        0x40019ada3001b9c9,
        0x3fff5691ca394efd,
        0x3fec54e51b07de90,
        0x3fea95a3352bd3ea,
        0x3fe727969bcbbec1,
        0x3fe9b2459378cb1a,
        0x3fe8b3fa781b99a9,
        0x3fea76d3e93f58c5,
        0x3fed15ea38f73599,
    ],
};
