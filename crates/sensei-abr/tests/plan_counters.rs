//! Pinned planner work: exact search counters for fixed full sessions.
//!
//! The MPC family (Fugu, SENSEI-Fugu with and without the pause action,
//! and both oracle variants) runs one branch-and-bound core. Its result
//! bits are pinned by the parity suites; this suite pins its *work*. Each
//! policy plays the same fixed sessions through its per-decision `decide`
//! path (`simulate` over a [`DecideOnly`] wrapper) and its batched
//! `select_batch` path (`simulate_batch_in`) with telemetry on, and the
//! six planner counters must equal the recorded constants exactly.
//! A refactor that changes visit order, bound tightness, warm-start
//! seeding, pause-candidate floors or the oracle's download-time rows
//! moves at least one of them. The last two counters are the oracle
//! walk's download-time reads and the reads a row filled earlier served.

use sensei_abr::{Fugu, OracleMpc, SenseiFugu};
use sensei_sim::{
    simulate, simulate_batch_in, AbrPolicy, BatchLanes, Decision, PlayerConfig, PlayerState,
    SessionBatch, SessionContext,
};
use sensei_telemetry::{self as telemetry, Counter};
use sensei_trace::ThroughputTrace;
use sensei_video::content::{Genre, SceneKind, SceneSpec};
use sensei_video::{BitrateLadder, EncodedVideo, SensitivityWeights, SourceVideo};

/// Hides a policy's batched overrides: `begin_batch` and `select_batch`
/// stay at the trait defaults (reset once, then `decide` lane by lane).
/// `simulate` is a one-lane batch, so a session through this wrapper is
/// the plain per-chunk `decide` loop.
struct DecideOnly<'a>(&'a mut dyn AbrPolicy);

impl AbrPolicy for DecideOnly<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        self.0.decide(state, ctx)
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn rebind(&mut self, trace: &ThroughputTrace) {
        self.0.rebind(trace);
    }
}

/// The counters pinned per run, in this order.
const COUNTERS: [Counter; 6] = [
    Counter::PlanNodes,
    Counter::PlanPrunes,
    Counter::WarmStartHits,
    Counter::SeededPrunes,
    Counter::DtMemoLookups,
    Counter::DtMemoHits,
];

/// A 20-chunk sports-like video with a key moment in the second half.
fn source() -> SourceVideo {
    SourceVideo::from_script(
        "plan-counters",
        Genre::Sports,
        &[
            SceneSpec::new(SceneKind::NormalPlay, 8),
            SceneSpec::new(SceneKind::Scenic, 4),
            SceneSpec::new(SceneKind::KeyMoment, 4),
            SceneSpec::new(SceneKind::NormalPlay, 4),
        ],
        55,
    )
    .unwrap()
}

/// A steady link plus two shaped variable traces.
fn traces() -> Vec<ThroughputTrace> {
    vec![
        ThroughputTrace::constant("steady", 2500.0, 600.0).unwrap(),
        sensei_trace::generate::fcc_like(1500.0, 600, 1),
        sensei_trace::generate::hsdpa_like(1200.0, 600, 7),
    ]
}

/// Three lanes per batch: the default player and two tighter buffers.
fn players() -> Vec<PlayerConfig> {
    [24.0, 16.0, 10.0]
        .into_iter()
        .map(|max_buffer_s| PlayerConfig {
            max_buffer_s,
            ..PlayerConfig::default()
        })
        .collect()
}

fn read(shard: &telemetry::TelemetryShard) -> [u64; 6] {
    COUNTERS.map(|c| shard.counter(c))
}

/// Runs one instance through every trace, first one per-decision session
/// per trace (default player, through [`DecideOnly`]), then one batch per
/// trace over [`players`]. Returns the counters of the scalar half and of
/// the batched half.
fn measure(
    policy: &mut dyn AbrPolicy,
    weights: Option<&SensitivityWeights>,
) -> ([u64; 6], [u64; 6]) {
    let src = source();
    let enc = EncodedVideo::encode(&src, &BitrateLadder::default_paper(), 5);
    let traces = traces();
    let players = players();

    telemetry::begin();
    for trace in &traces {
        let mut scalar = DecideOnly(&mut *policy);
        scalar.rebind(trace);
        simulate(
            &src,
            &enc,
            trace,
            &mut scalar,
            &PlayerConfig::default(),
            weights,
        )
        .unwrap();
    }
    let scalar = read(&telemetry::end());

    let mut batch = SessionBatch::new();
    let mut out = Vec::new();
    telemetry::begin();
    for trace in &traces {
        policy.rebind(trace);
        let mut groups = [BatchLanes {
            policy: &mut *policy,
            weights,
            configs: &players,
        }];
        simulate_batch_in(&mut batch, &src, &enc, trace, &mut groups, &mut out).unwrap();
    }
    let batched = read(&telemetry::end());
    assert_eq!(out.len(), traces.len() * players.len());
    (scalar, batched)
}

fn check(label: &str, got: ([u64; 6], [u64; 6]), want: ([u64; 6], [u64; 6])) {
    assert_eq!(got.0, want.0, "{label}: scalar-path counters {COUNTERS:?}");
    assert_eq!(got.1, want.1, "{label}: batched-path counters {COUNTERS:?}");
}

#[test]
fn fugu_work_is_pinned() {
    let got = measure(&mut Fugu::new(), None);
    check(
        "Fugu",
        got,
        (
            [10665, 5468, 57, 2345, 0, 0],
            [30840, 16190, 171, 6758, 0, 0],
        ),
    );
}

#[test]
fn sensei_fugu_work_is_pinned() {
    let weights = SensitivityWeights::ground_truth(&source());
    let got = measure(&mut SenseiFugu::new(), Some(&weights));
    check(
        "SENSEI-Fugu",
        got,
        (
            [15144, 7575, 57, 2289, 0, 0],
            [41990, 20797, 171, 5489, 0, 0],
        ),
    );
}

#[test]
fn sensei_fugu_no_pause_work_is_pinned() {
    let weights = SensitivityWeights::ground_truth(&source());
    let got = measure(&mut SenseiFugu::without_pause_action(), Some(&weights));
    check(
        "SENSEI-Fugu(no-pause)",
        got,
        (
            [12900, 6026, 57, 2289, 0, 0],
            [37240, 17530, 171, 5489, 0, 0],
        ),
    );
}

#[test]
fn oracle_aware_work_is_pinned() {
    let weights = SensitivityWeights::ground_truth(&source());
    let trace = &traces()[0];
    let got = measure(&mut OracleMpc::aware(trace), Some(&weights));
    check(
        "Oracle(aware)",
        got,
        (
            [33202, 19288, 57, 4344, 33202, 20875],
            [98996, 56531, 171, 9906, 98996, 61433],
        ),
    );
}

#[test]
fn oracle_unaware_work_is_pinned() {
    let trace = &traces()[0];
    let got = measure(&mut OracleMpc::unaware(trace), None);
    check(
        "Oracle(unaware)",
        got,
        (
            [21882, 12293, 57, 3617, 21882, 13389],
            [67086, 37021, 171, 9438, 67086, 40524],
        ),
    );
}
