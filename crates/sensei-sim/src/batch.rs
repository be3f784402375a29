//! The batch-first session engine: N concurrent sessions as
//! structure-of-arrays lanes.
//!
//! A **batch** simulates many independent sessions of the *same*
//! `(source, encoded, trace)` triple — exactly the shape a fleet tile has,
//! where thousands of scenario cells share one video and one perturbed
//! network and differ only in player configuration and policy. Lane state
//! (buffer levels, chunk cursors, wall clocks, stall accumulators, QoE
//! partials) lives in flat structure-of-arrays buffers, and every chunk
//! step runs as three tight lane loops:
//!
//! 1. **Drain** — each playing lane consumes buffer excess down to the
//!    admission headroom (per-lane `Playback` arithmetic).
//! 2. **Decide** — one [`AbrPolicy::select_batch`] call per policy group
//!    resolves every lane's decision for this chunk; no per-session
//!    dispatch (a batched policy like BBA reads the lane buffers as one
//!    slice).
//! 3. **Transfer** — download-time resolution over the shared network and
//!    playback advancement, lane by lane.
//!
//! The engine has two layers. [`simulate_lanes_in`] runs the lane loops
//! and leaves every lane's outcome (levels, per-chunk stalls, startup
//! delay, bits) in the [`SessionBatch`], readable in place through
//! [`SessionBatch::lane`] as a [`LaneView`]; the fleet's stats path
//! scores sessions straight from these views. [`simulate_batch_in`] adds
//! the result assembly on top: one [`SessionResult`] (with its
//! [`RenderedVideo`]) per lane, through a pool of recycled buffers, for
//! callers that want whole sessions.
//!
//! **The soundness contract:** each lane performs *exactly* the arithmetic
//! [`crate::simulate_in`] performs for the same session, in the same
//! order — the batch only regroups independent per-lane work into lane
//! loops. Results are therefore byte-identical to the scalar path for any
//! batch width (asserted across every policy kind by
//! `sensei-core/tests/batch_soundness.rs`). This is also why the transfer
//! loop integrates through [`Network::download_time`] (for a whole trace,
//! [`sensei_trace::ThroughputTrace::download_time`]) rather than a shared
//! `CumulativeTrace` index: at chunk granularity the
//! piecewise walk touches only a handful of buckets, and the `O(log n)`
//! index rounds differently — the batch reserves cumulative indexing for
//! the MPC planners (where repeated integration dominates and the planner
//! owns the index on both paths).

use crate::policy::{AbrPolicy, Decision, PlayerState, SessionContext};
use crate::session::{Playback, PlayerConfig, SessionResult, EPS};
use crate::SimError;
use sensei_trace::Network;
use sensei_video::{EncodedVideo, RenderedChunk, RenderedVideo, SensitivityWeights, SourceVideo};

/// One policy's lanes within a batch: the (shared, possibly stateful)
/// policy instance, the weights its sessions receive, and one player
/// configuration per lane.
///
/// Lanes of a group share the policy *instance*; the engine calls
/// [`AbrPolicy::begin_batch`] once per batch so stateful policies can set
/// up per-lane session state, then [`AbrPolicy::select_batch`] once per
/// chunk step with every lane's player state.
pub struct BatchLanes<'p, 'a> {
    /// The policy deciding for every lane in this group.
    pub policy: &'p mut dyn AbrPolicy,
    /// Sensitivity weights handed to the policy (`None` for
    /// sensitivity-unaware players). Shared by the whole group — weights
    /// are a property of the (video, policy kind) pair, not of a lane.
    pub weights: Option<&'a SensitivityWeights>,
    /// One player configuration per lane.
    pub configs: &'a [PlayerConfig],
}

/// A batch failure attributed to the lane that caused it.
///
/// Lanes are numbered across the whole batch in group order (group 0's
/// lanes first), matching the order of the emitted [`SessionResult`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneFailure {
    /// Flat index of the failing lane.
    pub lane: usize,
    /// The underlying simulator error.
    pub error: SimError,
}

impl std::fmt::Display for LaneFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lane {}: {}", self.lane, self.error)
    }
}

impl std::error::Error for LaneFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Read-only structure-of-arrays view of every lane's player state at one
/// chunk boundary — what [`AbrPolicy::select_batch`] receives.
///
/// All lanes of a batch sit at the same `next_chunk` (sessions of one
/// video advance through chunk indices in lockstep even though their wall
/// clocks differ), so the per-lane state is the lane axis of a few flat
/// arrays. [`Self::state`] materializes the classic [`PlayerState`] for
/// one lane; batched policies that only need one field (BBA reads nothing
/// but the buffer) can take the whole lane slice at once via
/// [`Self::buffers`].
pub struct BatchStates<'a> {
    /// Chunk index being decided, shared by every lane.
    next_chunk: usize,
    /// First lane of the view within the batch's flat arrays.
    base: usize,
    /// Number of lanes in the view.
    len: usize,
    /// History stride: chunk capacity per lane in the flat arrays.
    stride: usize,
    buffers: &'a [f64],
    elapsed: &'a [f64],
    playing: &'a [bool],
    levels: &'a [usize],
    tput: &'a [f64],
    dl: &'a [f64],
}

impl BatchStates<'_> {
    /// Number of lanes in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view has no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chunk index being decided (identical for every lane).
    #[must_use]
    pub fn next_chunk(&self) -> usize {
        self.next_chunk
    }

    /// The lane buffer levels as one slice — the fast path for policies
    /// whose rule is a function of buffer occupancy alone.
    #[must_use]
    pub fn buffers(&self) -> &[f64] {
        &self.buffers[self.base..self.base + self.len]
    }

    /// The full [`PlayerState`] of lane `i` (0-based within the view),
    /// identical to what the scalar loop would hand [`AbrPolicy::decide`]
    /// for the same session at the same point.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn state(&self, i: usize) -> PlayerState<'_> {
        assert!(i < self.len, "lane {i} out of range ({})", self.len);
        let lane = self.base + i;
        let k = self.next_chunk;
        let row = lane * self.stride;
        PlayerState {
            next_chunk: k,
            buffer_s: self.buffers[lane],
            last_level: (k > 0).then(|| self.levels[row + k - 1]),
            throughput_history_kbps: &self.tput[row..row + k],
            download_time_history_s: &self.dl[row..row + k],
            elapsed_s: self.elapsed[lane],
            playing: self.playing[lane],
        }
    }
}

/// One finished lane of a batch, read straight from the batch's flat
/// arrays after [`simulate_lanes_in`]: everything a [`SessionResult`] is
/// assembled from, without assembling it.
#[derive(Debug, Clone, Copy)]
pub struct LaneView<'a> {
    /// Ladder level chosen per chunk.
    pub levels: &'a [usize],
    /// `(forced, intentional)` stall seconds before each chunk played.
    pub stalls: &'a [(f64, f64)],
    /// Startup delay before the first chunk played, in seconds.
    pub startup_delay_s: f64,
    /// Total bits downloaded.
    pub bits_downloaded: f64,
}

impl LaneView<'_> {
    /// The lane's chunks as rendered, in playback order: exactly the
    /// chunks [`simulate_batch_in`] puts in the lane's
    /// [`RenderedVideo`]. The iterator stops at the shortest of the
    /// video, the levels and the stalls.
    ///
    /// # Panics
    ///
    /// Panics (when iterated) on a level outside the encoding's ladder.
    /// Levels from a batch run are always on it.
    pub fn chunks<'s>(
        &self,
        source: &'s SourceVideo,
        encoded: &'s EncodedVideo,
    ) -> impl Iterator<Item = RenderedChunk> + 's
    where
        Self: 's,
    {
        let kbps = encoded.ladder().levels();
        source
            .chunks()
            .iter()
            .zip(0..encoded.num_chunks())
            .zip(self.levels)
            .zip(self.stalls)
            .map(
                move |(((content, k), &level), &(forced, intentional))| RenderedChunk {
                    bitrate_kbps: kbps[level],
                    vq: encoded.vq(k, level),
                    rebuffer_s: forced + intentional,
                    intentional_rebuffer_s: intentional,
                    motion: content.motion,
                    complexity: content.complexity,
                },
            )
    }
}

/// Spare buffers for one outgoing [`SessionResult`], pooled so a steady
/// stream of batches allocates nothing once warm.
#[derive(Debug, Default)]
struct SpareResult {
    levels: Vec<usize>,
    chunks: Vec<RenderedChunk>,
    source_name: String,
    policy_name: String,
}

/// Reusable structure-of-arrays state for [`simulate_lanes_in`] and
/// [`simulate_batch_in`] — the batch engine's counterpart of
/// [`crate::SessionScratch`]. One `SessionBatch` per worker keeps the
/// steady-state lane loops free of heap allocation: flat lane arrays are
/// cleared and refilled per batch, and result buffers return to the pool
/// via [`Self::reclaim`]. After a successful run, [`Self::lane`] reads
/// each lane's outcome in place.
#[derive(Default)]
pub struct SessionBatch {
    /// Chunks per lane in the last run (the lane × chunk stride).
    chunks: usize,
    // Lane axis (length = lanes).
    m: Vec<f64>,
    downloaded_end: Vec<f64>,
    pending_pause: Vec<f64>,
    buffers: Vec<f64>,
    elapsed: Vec<f64>,
    playing: Vec<bool>,
    startup_delay: Vec<f64>,
    bits_downloaded: Vec<f64>,
    configs: Vec<PlayerConfig>,
    decisions: Vec<Decision>,
    // Lane × chunk axis (length = lanes × chunks, stride = chunks).
    stalls: Vec<(f64, f64)>,
    levels: Vec<usize>,
    tput: Vec<f64>,
    dl: Vec<f64>,
    /// Result-buffer pool.
    spares: Vec<SpareResult>,
}

impl SessionBatch {
    /// An empty batch scratch; buffers grow on first use and are reused
    /// after.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a consumed session's buffers to the pool, so the next
    /// [`simulate_batch_in`] run reuses their capacity instead of
    /// allocating. Dropping the result instead is always safe; it just
    /// forfeits the recycling.
    pub fn reclaim(&mut self, result: SessionResult) {
        let (source_name, chunks) = result.render.into_parts();
        self.spares.push(SpareResult {
            levels: result.levels,
            chunks,
            source_name,
            policy_name: result.policy_name,
        });
    }

    /// Lane `lane` (flat order) of the last [`simulate_lanes_in`] run. Only
    /// meaningful after that run returned `Ok`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    #[must_use]
    pub fn lane(&self, lane: usize) -> LaneView<'_> {
        let row = lane * self.chunks..(lane + 1) * self.chunks;
        LaneView {
            levels: &self.levels[row.clone()],
            stalls: &self.stalls[row],
            startup_delay_s: self.startup_delay[lane],
            bits_downloaded: self.bits_downloaded[lane],
        }
    }

    /// Clears and sizes the lane arrays for a `lanes × chunks` batch.
    fn prepare(&mut self, lanes: usize, chunks: usize) {
        self.chunks = chunks;
        let flat = lanes * chunks;
        self.m.clear();
        self.m.resize(lanes, 0.0);
        self.downloaded_end.clear();
        self.downloaded_end.resize(lanes, 0.0);
        self.pending_pause.clear();
        self.pending_pause.resize(lanes, 0.0);
        self.buffers.clear();
        self.buffers.resize(lanes, 0.0);
        self.elapsed.clear();
        self.elapsed.resize(lanes, 0.0);
        self.playing.clear();
        self.playing.resize(lanes, false);
        self.startup_delay.clear();
        self.startup_delay.resize(lanes, 0.0);
        self.bits_downloaded.clear();
        self.bits_downloaded.resize(lanes, 0.0);
        self.decisions.clear();
        self.decisions.resize(lanes, Decision::level(0));
        self.stalls.clear();
        self.stalls.resize(flat, (0.0, 0.0));
        self.levels.clear();
        self.levels.resize(flat, 0);
        self.tput.clear();
        self.tput.resize(flat, 0.0);
        self.dl.clear();
        self.dl.resize(flat, 0.0);
        // `configs` is filled by the caller loop; just clear it here.
        self.configs.clear();
    }
}

/// Simulates one batch of sessions over a shared `(source, encoded,
/// network)` triple — the lane-parallel counterpart of
/// [`crate::simulate_in`] — and leaves every lane's outcome in `batch`,
/// readable per lane through [`SessionBatch::lane`] in flat lane order
/// (group 0's lanes first, in their given order).
///
/// The network is any [`Network`]: a `&ThroughputTrace`, or a
/// `&mut PerturbedStream` that draws its samples only as far as the
/// lanes' downloads reach. Both give every lane the same bits.
///
/// # Errors
///
/// Returns a [`LaneFailure`] naming the first offending lane when a
/// player configuration is out of range, the encoding or weights do not
/// match the source, or a policy emits an invalid decision.
pub fn simulate_lanes_in<N: Network>(
    batch: &mut SessionBatch,
    source: &SourceVideo,
    encoded: &EncodedVideo,
    mut network: N,
    groups: &mut [BatchLanes<'_, '_>],
) -> Result<(), LaneFailure> {
    let n = source.num_chunks();
    let lanes: usize = groups.iter().map(|g| g.configs.len()).sum();
    let at_lane = |error: SimError, lane: usize| LaneFailure { lane, error };
    // Validation runs before the zero-lane early-out so a misconfigured
    // harness fails loudly (as the scalar path would) even when it
    // happens to request no lanes.
    if encoded.num_chunks() != n {
        return Err(at_lane(
            SimError::ChunkCountMismatch {
                source: n,
                encoded: encoded.num_chunks(),
            },
            0,
        ));
    }
    // Validate per-group weights and per-lane configs up front, exactly
    // the checks the scalar path performs on entry.
    let mut lane0 = 0;
    for group in groups.iter() {
        if let Some(w) = group.weights {
            if w.len() != n {
                return Err(at_lane(
                    SimError::WeightLengthMismatch {
                        chunks: n,
                        weights: w.len(),
                    },
                    lane0,
                ));
            }
        }
        for (i, config) in group.configs.iter().enumerate() {
            config.validate().map_err(|e| at_lane(e, lane0 + i))?;
        }
        lane0 += group.configs.len();
    }
    batch.prepare(lanes, n);
    if lanes == 0 {
        return Ok(());
    }

    let ladder = encoded.ladder();
    let d = source.chunk_duration_s();
    let total = n as f64 * d;
    for group in groups.iter_mut() {
        batch.configs.extend_from_slice(group.configs);
        group.policy.begin_batch(group.configs.len());
    }

    for k in 0..n {
        // Phase 1 — drain: wait for buffer space on every playing lane
        // (playback keeps draining; an intentional pause consumes wall
        // time without draining).
        for i in 0..lanes {
            if !batch.playing[i] {
                batch.buffers[i] = (batch.downloaded_end[i] - batch.m[i]).max(0.0);
                continue;
            }
            let mut pb = Playback {
                m: batch.m[i],
                downloaded_end: batch.downloaded_end[i],
                pending_pause: batch.pending_pause[i],
                stalls: &mut batch.stalls[i * n..(i + 1) * n],
                d,
                total,
            };
            loop {
                let excess = pb.buffer() - (batch.configs[i].max_buffer_s - d);
                if excess <= EPS {
                    break;
                }
                pb.advance(excess);
                batch.elapsed[i] += excess;
            }
            batch.m[i] = pb.m;
            batch.pending_pause[i] = pb.pending_pause;
            batch.buffers[i] = pb.buffer();
        }

        // Phase 2 — decide: one batched policy call per group.
        let mut base = 0;
        for group in groups.iter_mut() {
            let len = group.configs.len();
            let states = BatchStates {
                next_chunk: k,
                base,
                len,
                stride: n,
                buffers: &batch.buffers,
                elapsed: &batch.elapsed,
                playing: &batch.playing,
                levels: &batch.levels,
                tput: &batch.tput,
                dl: &batch.dl,
            };
            let ctx = SessionContext {
                encoded,
                weights: group.weights,
                chunk_duration_s: d,
            };
            group
                .policy
                .select_batch(&states, &ctx, &mut batch.decisions[base..base + len]);
            base += len;
        }

        // Phase 3 — transfer: validate the decision, resolve the download
        // over the shared network, and advance playback, lane by lane.
        for i in 0..lanes {
            let decision = batch.decisions[i];
            if decision.level >= ladder.len() {
                return Err(at_lane(
                    SimError::InvalidLevel {
                        level: decision.level,
                        ladder_len: ladder.len(),
                    },
                    i,
                ));
            }
            if !(decision.pause_s.is_finite()
                && decision.pause_s >= 0.0
                && decision.pause_s <= batch.configs[i].max_pause_s + EPS)
            {
                return Err(at_lane(SimError::InvalidPause(decision.pause_s), i));
            }
            if decision.pause_s > EPS {
                batch.pending_pause[i] += decision.pause_s;
            }
            let size = encoded
                .size_bits(k, decision.level)
                .map_err(|e| at_lane(e.into(), i))?;
            let t = batch.elapsed[i];
            let rtt = batch.configs[i].rtt_s;
            let transfer = network.download_time(t + rtt, size);
            let dt = rtt + transfer;
            if batch.playing[i] {
                let mut pb = Playback {
                    m: batch.m[i],
                    downloaded_end: batch.downloaded_end[i],
                    pending_pause: batch.pending_pause[i],
                    stalls: &mut batch.stalls[i * n..(i + 1) * n],
                    d,
                    total,
                };
                pb.advance(dt);
                batch.m[i] = pb.m;
                batch.pending_pause[i] = pb.pending_pause;
            }
            batch.elapsed[i] = t + dt;
            batch.downloaded_end[i] += d;
            batch.bits_downloaded[i] += size;
            let row = i * n;
            batch.levels[row + k] = decision.level;
            batch.tput[row + k] = size / transfer.max(1e-6) / 1000.0;
            batch.dl[row + k] = dt;
            if !batch.playing[i] {
                batch.startup_delay[i] = batch.elapsed[i];
                batch.playing[i] = true;
            }
        }
    }

    // Drain playback to the end on every lane (consuming any remaining
    // pending pause).
    for i in 0..lanes {
        let mut pb = Playback {
            m: batch.m[i],
            downloaded_end: batch.downloaded_end[i],
            pending_pause: batch.pending_pause[i],
            stalls: &mut batch.stalls[i * n..(i + 1) * n],
            d,
            total,
        };
        loop {
            let remaining = (pb.total - pb.m) + pb.pending_pause;
            if remaining <= EPS {
                break;
            }
            let used = pb.advance(remaining);
            if used <= EPS {
                break;
            }
        }
        batch.m[i] = pb.m;
        batch.pending_pause[i] = pb.pending_pause;
    }

    Ok(())
}

/// Simulates one batch of sessions ([`simulate_lanes_in`]) and assembles
/// each lane's [`SessionResult`], appending them to `out` in flat lane
/// order (group 0's lanes first, in their given order). Each lane's
/// result is byte-identical to a [`crate::simulate_in`] call for the same
/// `(policy, config, weights)` session.
///
/// # Errors
///
/// Returns a [`LaneFailure`] naming the first offending lane, for any
/// failure of [`simulate_lanes_in`] or a lane whose render fails
/// [`RenderedVideo::new`]'s checks. No results are appended on error.
pub fn simulate_batch_in<N: Network>(
    batch: &mut SessionBatch,
    source: &SourceVideo,
    encoded: &EncodedVideo,
    network: N,
    groups: &mut [BatchLanes<'_, '_>],
    out: &mut Vec<SessionResult>,
) -> Result<(), LaneFailure> {
    simulate_lanes_in(batch, source, encoded, network, groups)?;
    // On a failure `out` is rolled back to this mark, so the "no results
    // are appended on error" contract holds even when a lane fails
    // during assembly after earlier lanes were emitted.
    let out_mark = out.len();
    let d = source.chunk_duration_s();
    let mut lane = 0;
    for group in groups.iter() {
        for _ in 0..group.configs.len() {
            let mut spare = batch.spares.pop().unwrap_or_default();
            let view = batch.lane(lane);
            spare.levels.clear();
            spare.levels.extend_from_slice(view.levels);
            spare.chunks.clear();
            spare.chunks.extend(view.chunks(source, encoded));
            spare.source_name.clear();
            spare.source_name.push_str(source.name());
            let render = match RenderedVideo::new(
                spare.source_name,
                d,
                view.startup_delay_s,
                spare.chunks,
            ) {
                Ok(render) => render,
                Err(e) => {
                    out.truncate(out_mark);
                    return Err(LaneFailure {
                        lane,
                        error: e.into(),
                    });
                }
            };
            let wall_time_s =
                view.startup_delay_s + render.content_duration_s() + render.total_rebuffer_s()
                    - render.startup_delay_s();
            spare.policy_name.clear();
            spare.policy_name.push_str(group.policy.name());
            out.push(SessionResult {
                wall_time_s,
                bits_downloaded: view.bits_downloaded,
                levels: spare.levels,
                policy_name: spare.policy_name,
                render,
            });
            lane += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedLevel;
    use crate::session::{simulate_in, SessionScratch};
    use sensei_trace::ThroughputTrace;
    use sensei_video::content::{Genre, SceneKind, SceneSpec};
    use sensei_video::BitrateLadder;

    fn setup(chunks: usize) -> (SourceVideo, EncodedVideo) {
        let src = SourceVideo::from_script(
            "batch-test",
            Genre::Sports,
            &[SceneSpec::new(SceneKind::NormalPlay, chunks)],
            3,
        )
        .unwrap();
        let ladder = BitrateLadder::default_paper();
        let enc = EncodedVideo::encode(&src, &ladder, 5);
        (src, enc)
    }

    fn configs() -> [PlayerConfig; 3] {
        [
            PlayerConfig::default(),
            PlayerConfig {
                max_buffer_s: 12.0,
                ..PlayerConfig::default()
            },
            PlayerConfig {
                rtt_s: 0.2,
                ..PlayerConfig::default()
            },
        ]
    }

    #[test]
    fn batch_lanes_match_scalar_sessions_byte_for_byte() {
        let (src, enc) = setup(14);
        let trace = sensei_trace::generate::hsdpa_like(1500.0, 300, 7);
        let configs = configs();
        // Two groups: a level-2 policy over three player variants and a
        // level-0 policy over two.
        let mut p2 = FixedLevel::new(2);
        let mut p0 = FixedLevel::new(0);
        let mut groups = [
            BatchLanes {
                policy: &mut p2,
                weights: None,
                configs: &configs,
            },
            BatchLanes {
                policy: &mut p0,
                weights: None,
                configs: &configs[..2],
            },
        ];
        let mut batch = SessionBatch::new();
        let mut out = Vec::new();
        simulate_batch_in(&mut batch, &src, &enc, &trace, &mut groups, &mut out).unwrap();
        assert_eq!(out.len(), 5);
        // Scalar reference, lane by lane.
        let mut scratch = SessionScratch::new();
        let specs: Vec<(usize, PlayerConfig)> = [(2usize, 0), (2, 1), (2, 2), (0, 0), (0, 1)]
            .into_iter()
            .map(|(level, c)| (level, configs[c]))
            .collect();
        for (lane, (level, config)) in specs.into_iter().enumerate() {
            let reference = simulate_in(
                &mut scratch,
                &src,
                &enc,
                &trace,
                &mut FixedLevel::new(level),
                &config,
                None,
            )
            .unwrap();
            let got = &out[lane];
            assert_eq!(got.levels, reference.levels, "lane {lane} levels");
            assert_eq!(got.render, reference.render, "lane {lane} render");
            assert_eq!(
                got.wall_time_s.to_bits(),
                reference.wall_time_s.to_bits(),
                "lane {lane} wall time"
            );
            assert_eq!(
                got.bits_downloaded.to_bits(),
                reference.bits_downloaded.to_bits(),
                "lane {lane} bits"
            );
            assert_eq!(got.policy_name, reference.policy_name, "lane {lane} name");
            // The lane view the result was assembled from reads the
            // same outcome in place.
            let view = batch.lane(lane);
            assert_eq!(
                view.levels,
                &reference.levels[..],
                "lane {lane} view levels"
            );
            assert_eq!(
                view.chunks(&src, &enc).collect::<Vec<_>>(),
                reference.render.chunks(),
                "lane {lane} view chunks"
            );
            assert_eq!(
                view.startup_delay_s.to_bits(),
                reference.render.startup_delay_s().to_bits(),
                "lane {lane} view startup"
            );
            assert_eq!(
                view.bits_downloaded.to_bits(),
                reference.bits_downloaded.to_bits(),
                "lane {lane} view bits"
            );
        }
        // Reclaim and rerun: the pool must not change results.
        let first: Vec<Vec<usize>> = out.iter().map(|r| r.levels.clone()).collect();
        for r in out.drain(..) {
            batch.reclaim(r);
        }
        simulate_batch_in(&mut batch, &src, &enc, &trace, &mut groups, &mut out).unwrap();
        for (r, levels) in out.iter().zip(&first) {
            assert_eq!(&r.levels, levels);
        }
    }

    #[test]
    fn lane_failures_are_attributed() {
        struct BadLevel;
        impl AbrPolicy for BadLevel {
            fn name(&self) -> &str {
                "BadLevel"
            }
            fn decide(&mut self, _: &PlayerState<'_>, _: &SessionContext<'_>) -> Decision {
                Decision::level(99)
            }
        }
        let (src, enc) = setup(6);
        let trace = ThroughputTrace::constant("t", 2000.0, 600.0).unwrap();
        let configs = [PlayerConfig::default(); 2];
        let mut good = FixedLevel::new(1);
        let mut bad = BadLevel;
        let mut groups = [
            BatchLanes {
                policy: &mut good,
                weights: None,
                configs: &configs,
            },
            BatchLanes {
                policy: &mut bad,
                weights: None,
                configs: &configs[..1],
            },
        ];
        let mut batch = SessionBatch::new();
        let mut out = Vec::new();
        let err =
            simulate_batch_in(&mut batch, &src, &enc, &trace, &mut groups, &mut out).unwrap_err();
        assert_eq!(err.lane, 2, "failure must name the bad policy's lane");
        assert!(matches!(
            err.error,
            SimError::InvalidLevel { level: 99, .. }
        ));
        assert!(out.is_empty(), "no partial results on error");
        // An invalid config is attributed to its lane before any
        // simulation runs.
        let bad_config = [
            PlayerConfig::default(),
            PlayerConfig {
                max_buffer_s: -1.0,
                ..PlayerConfig::default()
            },
        ];
        let mut p = FixedLevel::new(0);
        let mut groups = [BatchLanes {
            policy: &mut p,
            weights: None,
            configs: &bad_config,
        }];
        let err =
            simulate_batch_in(&mut batch, &src, &enc, &trace, &mut groups, &mut out).unwrap_err();
        assert_eq!(err.lane, 1);
        assert!(matches!(
            err.error,
            SimError::InvalidPlayerConfig {
                field: "max_buffer_s",
                ..
            }
        ));
        // The batch scratch survives failed runs.
        let ok_configs = [PlayerConfig::default()];
        let mut p = FixedLevel::new(1);
        let mut groups = [BatchLanes {
            policy: &mut p,
            weights: None,
            configs: &ok_configs,
        }];
        simulate_batch_in(&mut batch, &src, &enc, &trace, &mut groups, &mut out).unwrap();
        assert_eq!(out[0].levels, vec![1; 6]);
    }

    #[test]
    fn empty_batch_is_a_no_op_but_still_validates() {
        let (src, enc) = setup(4);
        let trace = ThroughputTrace::constant("t", 2000.0, 600.0).unwrap();
        let mut batch = SessionBatch::new();
        let mut out = Vec::new();
        simulate_batch_in(&mut batch, &src, &enc, &trace, &mut [], &mut out).unwrap();
        assert!(out.is_empty());
        let mut p = FixedLevel::new(0);
        let mut groups = [BatchLanes {
            policy: &mut p,
            weights: None,
            configs: &[],
        }];
        simulate_batch_in(&mut batch, &src, &enc, &trace, &mut groups, &mut out).unwrap();
        assert!(out.is_empty());
        // A mismatched encoding fails loudly even with zero lanes, like
        // the scalar path would.
        let (_, other_enc) = setup(7);
        let err =
            simulate_batch_in(&mut batch, &src, &other_enc, &trace, &mut [], &mut out).unwrap_err();
        assert!(matches!(
            err.error,
            SimError::ChunkCountMismatch {
                source: 4,
                encoded: 7
            }
        ));
    }
}
