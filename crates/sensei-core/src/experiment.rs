//! The evaluation harness shared by every table/figure bench (§7.1 setup).
//!
//! Builds the Table-1 corpus and the 10-trace set, profiles (or oracles)
//! per-video weights, trains the RL policies once, and exposes a
//! `(policy × video × trace)` grid whose cells are scored by the hidden
//! true-QoE oracle — the simulated stand-in for "real user ratings".

use crate::CoreError;
use sensei_abr::{
    Bba, DasIp, Fugu, OracleMpc, Pensieve, PensieveConfig, SenseiFugu, SenseiPensieve,
};
use sensei_crowd::{TrueQoe, WeightProfiler};
use sensei_sim::{
    simulate_lanes_in, AbrPolicy, BatchLanes, LaneView, PlayerConfig, SessionBatch, SimError,
};
use sensei_telemetry as telemetry;
use sensei_trace::{generate, Network, ThroughputTrace};
use sensei_video::{
    corpus, BitrateLadder, CorpusEntry, EncodedVideo, RenderedVideo, SensitivityWeights,
    SourceVideo,
};
use std::ops::Range;
use std::sync::Arc;

/// How per-video weights are obtained for deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightSource {
    /// The full crowdsourcing pipeline (costs simulated dollars) — what the
    /// paper deploys.
    Crowd,
    /// The latent ground truth — for oracle experiments and fast tests.
    GroundTruth,
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed.
    pub seed: u64,
    /// Restrict the corpus to these Table-1 names (`None` = all 16).
    pub videos: Option<Vec<String>>,
    /// Where deployment weights come from.
    pub weight_source: WeightSource,
    /// Whether to train the RL policies (Pensieve variants).
    pub train_rl: bool,
    /// RL training episodes.
    pub rl_episodes: usize,
    /// Player configuration used in every session.
    pub player: PlayerConfig,
    /// Whether the MPC-family planners (Fugu, SENSEI-Fugu, OracleMpc)
    /// warm-start each chunk step's search from the previous step's
    /// winning plan. Bit-identical decisions either way (test-enforced);
    /// `false` forces the cold reference searches, for parity suites and
    /// apples-to-apples planner benchmarks.
    pub mpc_warm_start: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            seed: 2021,
            videos: None,
            weight_source: WeightSource::Crowd,
            train_rl: true,
            rl_episodes: 3000,
            player: PlayerConfig::default(),
            mpc_warm_start: true,
        }
    }
}

impl ExperimentConfig {
    /// A small fast configuration for tests: three videos, ground-truth
    /// weights, no RL training.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            videos: Some(vec![
                "Soccer1".to_string(),
                "Space".to_string(),
                "FPS2".to_string(),
            ]),
            weight_source: WeightSource::GroundTruth,
            train_rl: false,
            rl_episodes: 0,
            player: PlayerConfig::default(),
            mpc_warm_start: true,
        }
    }
}

/// One onboarded corpus video ready for the grid.
#[derive(Debug, Clone)]
pub struct VideoAsset {
    /// Table-1 name, interned: every [`CellResult`] for this video shares
    /// the allocation by reference count instead of cloning a `String`.
    pub name: Arc<str>,
    /// Genre label.
    pub genre: &'static str,
    /// Dataset-of-origin label.
    pub dataset: &'static str,
    /// The source content.
    pub source: SourceVideo,
    /// Ladder encoding.
    pub encoded: EncodedVideo,
    /// Weights as deployed (crowd or ground truth per config).
    pub weights: SensitivityWeights,
    /// Latent ground-truth weights (oracle-side).
    pub true_weights: SensitivityWeights,
    /// Crowdsourcing cost paid for this video's profile (0 for
    /// ground-truth mode).
    pub profile_cost_usd: f64,
}

/// The ABR algorithms the grid can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Buffer-based adaptation.
    Bba,
    /// Fugu (MPC, KSQI objective).
    Fugu,
    /// Pensieve (trained A2C).
    Pensieve,
    /// SENSEI applied to Fugu — the repository's headline SENSEI.
    SenseiFugu,
    /// SENSEI-Fugu without the intentional-rebuffer action (Fig. 18b
    /// ablation).
    SenseiFuguNoPause,
    /// SENSEI applied to Pensieve.
    SenseiPensieve,
    /// Idealistic full-trace-knowledge controller, sensitivity-aware.
    OracleAware,
    /// Idealistic full-trace-knowledge controller, sensitivity-unaware.
    OracleUnaware,
    /// DAS-IP index policy (Singh & Kumar, arXiv:1612.05864): `O(levels)`
    /// per decision instead of a horizon enumeration — the MPC family's
    /// fleet-scale cost point. Appended after the original eight so the
    /// table indices of persisted reports stay stable.
    DasIp,
}

impl PolicyKind {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Bba => "BBA",
            PolicyKind::Fugu => "Fugu",
            PolicyKind::Pensieve => "Pensieve",
            PolicyKind::SenseiFugu => "SENSEI",
            PolicyKind::SenseiFuguNoPause => "SENSEI (bitrate only)",
            PolicyKind::SenseiPensieve => "SENSEI-Pensieve",
            PolicyKind::OracleAware => "Dynamic-sensitivity-aware ABR",
            PolicyKind::OracleUnaware => "Dynamic-sensitivity-unaware ABR",
            PolicyKind::DasIp => "DAS-IP",
        }
    }

    /// Whether the player receives the manifest weights.
    pub fn uses_weights(self) -> bool {
        matches!(
            self,
            PolicyKind::SenseiFugu
                | PolicyKind::SenseiFuguNoPause
                | PolicyKind::SenseiPensieve
                | PolicyKind::OracleAware
        )
    }

    /// Whether the policy indexes the whole future trace — at
    /// construction and at every [`AbrPolicy::rebind`]. Only the two
    /// idealistic oracles do; every other kind observes the network
    /// solely through the player state, so the batch path builds and runs
    /// it without a trace (and never rebinds it), and a tile without an
    /// oracle lane can draw its network on demand.
    pub fn reads_trace(self) -> bool {
        matches!(self, PolicyKind::OracleAware | PolicyKind::OracleUnaware)
    }

    /// Every policy kind, in declaration order — the index space of
    /// [`SessionRuntime`]'s policy table.
    pub const ALL: [PolicyKind; 9] = [
        PolicyKind::Bba,
        PolicyKind::Fugu,
        PolicyKind::Pensieve,
        PolicyKind::SenseiFugu,
        PolicyKind::SenseiFuguNoPause,
        PolicyKind::SenseiPensieve,
        PolicyKind::OracleAware,
        PolicyKind::OracleUnaware,
        PolicyKind::DasIp,
    ];

    /// Stable position in [`Self::ALL`].
    fn index(self) -> usize {
        self as usize
    }

    /// The inverse of [`Self::label`] — used when deserializing persisted
    /// fleet reports. Returns `None` for unknown labels.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.label() == label)
    }
}

/// One grid cell outcome.
///
/// The identifying fields are interned: `video` and `trace` are shared
/// handles into the experiment's corpus and trace tables, and `policy` is
/// the `'static` label of its [`PolicyKind`], so constructing a cell result
/// allocates no strings — load-bearing at fleet scale, where millions of
/// cells stream through the aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Video name (shared with [`VideoAsset::name`]).
    pub video: Arc<str>,
    /// Genre label.
    pub genre: &'static str,
    /// Trace name (shared with the trace's own interned name).
    pub trace: Arc<str>,
    /// Trace mean throughput (kbps).
    pub trace_mean_kbps: f64,
    /// Policy label.
    pub policy: &'static str,
    /// True QoE in `[0, 1]` (the oracle's "real user rating").
    pub qoe01: f64,
    /// Mean streamed bitrate (kbps).
    pub avg_bitrate_kbps: f64,
    /// Rebuffering ratio.
    pub rebuffer_ratio: f64,
    /// Bits delivered (bandwidth usage).
    pub delivered_bits: f64,
    /// Intentional stall seconds (SENSEI's new action).
    pub intentional_stall_s: f64,
    /// Number of ladder-level changes across the session (quality
    /// switches), for switch-rate distributions at fleet scale.
    pub bitrate_switches: usize,
}

/// One lane's scored session: everything a [`CellResult`] carries
/// beyond the identifying video, trace and policy fields. The fleet's
/// stats path folds these directly; [`Experiment::run_session_in`] wraps
/// one into a cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaneScore {
    /// True QoE in `[0, 1]`.
    pub qoe01: f64,
    /// Mean streamed bitrate (kbps).
    pub avg_bitrate_kbps: f64,
    /// Rebuffering ratio.
    pub rebuffer_ratio: f64,
    /// Bits delivered.
    pub delivered_bits: f64,
    /// Intentional stall seconds.
    pub intentional_stall_s: f64,
    /// Number of ladder-level changes across the session.
    pub bitrate_switches: usize,
}

impl LaneScore {
    /// Scores one finished batch lane of `asset` straight from the
    /// batch's arrays, in one pass over its chunks and with no
    /// [`RenderedVideo`] built.
    ///
    /// Bit for bit, this is what scoring the lane's assembled
    /// [`sensei_sim::SessionResult`] returns: `qoe01` runs the oracle's
    /// per-chunk fold ([`TrueQoe::fold`], the loop [`TrueQoe::qoe01`]
    /// runs) over `asset.true_weights`, and the other fields sum in the
    /// order of the [`RenderedVideo`] methods they stand for
    /// (`avg_bitrate_kbps`, `rebuffer_ratio`, `delivered_bits`). The lane
    /// passes the checks [`RenderedVideo::new`] applies, in the same
    /// order, and a failure is the same typed error the assembly path
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Sim`] wrapping the render check that failed,
    /// or [`CoreError::BadConfig`] when the lane's rows or
    /// `asset.true_weights` do not cover the video.
    ///
    /// # Panics
    ///
    /// Panics on a level outside the encoding's ladder. Levels from a
    /// batch run are always on it.
    pub fn of_lane(
        oracle: &TrueQoe,
        asset: &VideoAsset,
        lane: &LaneView<'_>,
    ) -> Result<Self, CoreError> {
        let n = asset.source.num_chunks();
        let weights = asset.true_weights.as_slice();
        if lane.levels.len() != n || lane.stalls.len() != n || weights.len() != n {
            return Err(CoreError::BadConfig(format!(
                "lane rows cover {} and {} chunks and the true weights {}, but {} has {n}",
                lane.levels.len(),
                lane.stalls.len(),
                weights.len(),
                asset.name
            )));
        }
        let render_check = |e| CoreError::Sim(SimError::Video(e));
        let d = asset.source.chunk_duration_s();
        RenderedVideo::validate_timing(d, lane.startup_delay_s).map_err(render_check)?;
        // The ladder strictly increases, so the highest level streamed
        // carries the highest bitrate streamed.
        let max_bitrate_kbps = lane
            .levels
            .iter()
            .max()
            .map_or(0.0, |&level| asset.encoded.ladder().levels()[level]);
        let mut fold = oracle.fold(max_bitrate_kbps, d, lane.startup_delay_s);
        // `Iterator::sum`'s identity is -0.0, so these folds reproduce
        // the RenderedVideo methods' sums exactly.
        let (mut kbps, mut rebuffer, mut intentional, mut bits) = (-0.0, -0.0, -0.0, -0.0);
        for (c, &s) in lane.chunks(&asset.source, &asset.encoded).zip(weights) {
            c.validate().map_err(render_check)?;
            kbps += c.bitrate_kbps;
            rebuffer += c.rebuffer_s;
            intentional += c.intentional_rebuffer_s;
            bits += c.bitrate_kbps * 1000.0 * d;
            fold.push(s, &c);
        }
        // Chunk counts are far below 2^52, so the count converts exactly.
        #[allow(clippy::cast_precision_loss)]
        let n = n as f64;
        let stall = lane.startup_delay_s + rebuffer;
        Ok(Self {
            qoe01: fold.qoe01(),
            avg_bitrate_kbps: kbps / n,
            rebuffer_ratio: stall / (stall + n * d),
            delivered_bits: bits,
            intentional_stall_s: intentional,
            bitrate_switches: lane.levels.windows(2).filter(|w| w[0] != w[1]).count(),
        })
    }
}

impl CellResult {
    /// The cell's scored outcome.
    #[must_use]
    pub fn score(&self) -> LaneScore {
        LaneScore {
            qoe01: self.qoe01,
            avg_bitrate_kbps: self.avg_bitrate_kbps,
            rebuffer_ratio: self.rebuffer_ratio,
            delivered_bits: self.delivered_bits,
            intentional_stall_s: self.intentional_stall_s,
            bitrate_switches: self.bitrate_switches,
        }
    }
}

/// The built experiment environment.
pub struct Experiment {
    /// Onboarded corpus.
    pub assets: Vec<VideoAsset>,
    /// The 10-trace evaluation set (sorted by mean throughput).
    pub traces: Vec<ThroughputTrace>,
    /// The hidden true-QoE oracle.
    pub oracle: TrueQoe,
    /// Trained Pensieve (when `train_rl`).
    pub pensieve: Option<Pensieve>,
    /// Trained SENSEI-Pensieve (when `train_rl`).
    pub sensei_pensieve: Option<SenseiPensieve>,
    /// Player configuration.
    pub player: PlayerConfig,
    /// Total crowdsourcing cost across the corpus.
    pub total_profile_cost_usd: f64,
    /// Whether MPC-family policies are built with cross-chunk warm starts
    /// (see [`ExperimentConfig::mpc_warm_start`]).
    pub mpc_warm_start: bool,
}

impl Experiment {
    /// Builds the environment: corpus, traces, weights, trained policies.
    ///
    /// Equivalent to [`Self::from_parts`] over the `config.videos`-filtered
    /// Table-1 corpus and the 10-trace evaluation set.
    ///
    /// # Errors
    ///
    /// Returns an error when the video filter matches nothing or any
    /// substrate fails.
    pub fn build(config: &ExperimentConfig) -> Result<Self, CoreError> {
        let entries: Vec<CorpusEntry> = corpus::table1(config.seed)
            .into_iter()
            .filter(|entry| {
                config
                    .videos
                    .as_ref()
                    .is_none_or(|filter| filter.iter().any(|n| n == entry.video.name()))
            })
            .collect();
        if entries.is_empty() {
            return Err(CoreError::BadConfig(
                "video filter matched no corpus entries".to_string(),
            ));
        }
        let traces = generate::evaluation_set(config.seed ^ 0x7AACE);
        Self::from_parts(config, entries, traces)
    }

    /// Builds the environment from an **explicit** corpus and trace set —
    /// the entry point for procedurally generated scenario families
    /// (`sensei_video::corpus::generate_family`,
    /// `sensei_trace::generate::generate_family`), where the fixed Table-1
    /// sixteen and the 10-trace evaluation set are replaced wholesale.
    ///
    /// `config.videos` is **not** applied here: it filters the Table-1
    /// corpus in [`Self::build`], while explicit corpora arrive already
    /// curated. Everything else in the config (weight source, RL training,
    /// player, seed) applies as usual.
    ///
    /// # Errors
    ///
    /// Returns an error when the corpus or trace set is empty, or any
    /// substrate fails.
    pub fn from_parts(
        config: &ExperimentConfig,
        corpus: Vec<CorpusEntry>,
        traces: Vec<ThroughputTrace>,
    ) -> Result<Self, CoreError> {
        if traces.is_empty() {
            return Err(CoreError::BadConfig(
                "experiment trace set is empty".to_string(),
            ));
        }
        let ladder = BitrateLadder::default_paper();
        let mut assets = Vec::new();
        let mut total_cost = 0.0;
        for entry in corpus {
            let encoded = EncodedVideo::encode(&entry.video, &ladder, config.seed ^ 0xE0C);
            let true_weights = SensitivityWeights::ground_truth(&entry.video);
            let (weights, cost) = match config.weight_source {
                WeightSource::GroundTruth => (true_weights.clone(), 0.0),
                WeightSource::Crowd => {
                    let profiler = WeightProfiler::paper_default(config.seed ^ 0xC0);
                    let profile = profiler.profile(&entry.video, &ladder, config.seed ^ 0xF1)?;
                    total_cost += profile.cost_usd;
                    (profile.weights, profile.cost_usd)
                }
            };
            assets.push(VideoAsset {
                name: Arc::from(entry.video.name()),
                genre: entry.video.genre().label(),
                dataset: entry.source_dataset,
                source: entry.video,
                encoded,
                weights,
                true_weights,
                profile_cost_usd: cost,
            });
        }
        if assets.is_empty() {
            return Err(CoreError::BadConfig(
                "experiment corpus is empty".to_string(),
            ));
        }

        // Train the RL policies on *training* traces disjoint from the
        // evaluation set (different seeds and means), as Pensieve requires.
        let (pensieve, sensei_pensieve) = if config.train_rl {
            let mut train_traces = Vec::new();
            for (i, m) in [600.0, 1000.0, 1500.0, 2200.0, 3200.0].iter().enumerate() {
                train_traces.push(generate::hsdpa_like(
                    *m,
                    600,
                    config.seed ^ (0x12_000 + i as u64),
                ));
                train_traces.push(generate::fcc_like(
                    *m,
                    600,
                    config.seed ^ (0x13_000 + i as u64),
                ));
            }
            let plain_corpus: Vec<(&SourceVideo, &EncodedVideo)> =
                assets.iter().map(|a| (&a.source, &a.encoded)).collect();
            let plain_cfg = PensieveConfig {
                episodes: config.rl_episodes,
                player: config.player,
                ..PensieveConfig::default()
            };
            let pensieve =
                Pensieve::train(&plain_corpus, &train_traces, &plain_cfg, config.seed ^ 0x9E)?;
            let sensei_corpus: Vec<(&SourceVideo, &EncodedVideo, &SensitivityWeights)> = assets
                .iter()
                .map(|a| (&a.source, &a.encoded, &a.weights))
                .collect();
            let sensei_cfg = PensieveConfig {
                episodes: config.rl_episodes,
                player: config.player,
                ..PensieveConfig::sensei_default()
            };
            let sensei = SenseiPensieve::train(
                &sensei_corpus,
                &train_traces,
                &sensei_cfg,
                config.seed ^ 0x5E,
            )?;
            (Some(pensieve), Some(sensei))
        } else {
            (None, None)
        };

        Ok(Self {
            assets,
            traces,
            oracle: TrueQoe::default(),
            pensieve,
            sensei_pensieve,
            player: config.player,
            total_profile_cost_usd: total_cost,
            mpc_warm_start: config.mpc_warm_start,
        })
    }

    /// Finds an asset by Table-1 name.
    ///
    /// # Errors
    ///
    /// Returns an error when the video is not in the built corpus.
    pub fn asset(&self, name: &str) -> Result<&VideoAsset, CoreError> {
        self.assets
            .iter()
            .find(|a| &*a.name == name)
            .ok_or_else(|| CoreError::BadConfig(format!("video {name} not in corpus")))
    }

    /// Instantiates a policy for one session.
    ///
    /// # Errors
    ///
    /// Returns an error when an RL policy is requested but was not trained.
    pub fn policy(
        &self,
        kind: PolicyKind,
        trace: &ThroughputTrace,
    ) -> Result<Box<dyn AbrPolicy>, CoreError> {
        self.build_policy(kind, Some(trace))
    }

    /// [`Self::policy`] with the trace optional: kinds that do not
    /// [read it](PolicyKind::reads_trace) are built without one.
    fn build_policy(
        &self,
        kind: PolicyKind,
        trace: Option<&ThroughputTrace>,
    ) -> Result<Box<dyn AbrPolicy>, CoreError> {
        let whole_trace = || trace.ok_or_else(|| missing_trace(kind));
        Ok(match kind {
            PolicyKind::Bba => Box::new(Bba::paper_default()),
            PolicyKind::Fugu => Box::new(Fugu::new().with_warm_start(self.mpc_warm_start)),
            PolicyKind::SenseiFugu => {
                Box::new(SenseiFugu::new().with_warm_start(self.mpc_warm_start))
            }
            PolicyKind::SenseiFuguNoPause => {
                Box::new(SenseiFugu::without_pause_action().with_warm_start(self.mpc_warm_start))
            }
            PolicyKind::Pensieve => Box::new(
                self.pensieve
                    .clone()
                    .ok_or_else(|| CoreError::BadConfig("Pensieve was not trained".into()))?,
            ),
            PolicyKind::SenseiPensieve => {
                Box::new(self.sensei_pensieve.clone().ok_or_else(|| {
                    CoreError::BadConfig("SENSEI-Pensieve was not trained".into())
                })?)
            }
            PolicyKind::OracleAware => {
                Box::new(OracleMpc::aware(whole_trace()?).with_warm_start(self.mpc_warm_start))
            }
            PolicyKind::OracleUnaware => {
                Box::new(OracleMpc::unaware(whole_trace()?).with_warm_start(self.mpc_warm_start))
            }
            PolicyKind::DasIp => Box::new(DasIp::new()),
        })
    }

    /// Runs one session and scores it with the true-QoE oracle, using the
    /// experiment's own [`PlayerConfig`].
    ///
    /// Convenience wrapper over [`Self::run_session_in`] with a throwaway
    /// [`SessionRuntime`]; hot paths should hold a runtime per worker.
    ///
    /// # Errors
    ///
    /// Propagates simulator/oracle failures.
    pub fn run_session(
        &self,
        asset: &VideoAsset,
        trace: &ThroughputTrace,
        kind: PolicyKind,
    ) -> Result<CellResult, CoreError> {
        self.run_session_with(asset, trace, kind, &self.player)
    }

    /// Runs one session under an explicit [`PlayerConfig`] — the entry
    /// point fleet runs use to sweep player variants without rebuilding the
    /// (expensive) experiment environment per variant.
    ///
    /// Convenience wrapper over [`Self::run_session_in`] with a throwaway
    /// [`SessionRuntime`].
    ///
    /// # Errors
    ///
    /// Propagates simulator/oracle failures.
    pub fn run_session_with(
        &self,
        asset: &VideoAsset,
        trace: &ThroughputTrace,
        kind: PolicyKind,
        player: &PlayerConfig,
    ) -> Result<CellResult, CoreError> {
        self.run_session_in(&mut SessionRuntime::new(), asset, trace, kind, player)
    }

    /// Runs one session through a reusable [`SessionRuntime`]: a
    /// one-lane [`Self::score_batch_in`] over the whole trace, plus the
    /// cell's identifying fields, so the scalar path and the batch engine
    /// can never drift apart. The runtime's policy instance for `kind` is
    /// built on first use, then rebound ([`AbrPolicy::rebind`]) and reset
    /// per session, so thousands of sessions share one policy (for the RL
    /// policies, one trained network) and one set of scratch buffers.
    ///
    /// # Errors
    ///
    /// Propagates simulator/oracle failures.
    pub fn run_session_in(
        &self,
        runtime: &mut SessionRuntime,
        asset: &VideoAsset,
        trace: &ThroughputTrace,
        kind: PolicyKind,
        player: &PlayerConfig,
    ) -> Result<CellResult, CoreError> {
        let mut scores = Vec::with_capacity(1);
        self.score_batch_in(runtime, asset, trace, &[(kind, *player)], &mut scores)?;
        let score = scores
            .pop()
            .ok_or_else(|| CoreError::BadConfig("one-lane batch scored no lane".into()))?;
        Ok(CellResult {
            video: Arc::clone(&asset.name),
            genre: asset.genre,
            trace: trace.name_handle(),
            trace_mean_kbps: trace.mean_kbps(),
            policy: kind.label(),
            qoe01: score.qoe01,
            avg_bitrate_kbps: score.avg_bitrate_kbps,
            rebuffer_ratio: score.rebuffer_ratio,
            delivered_bits: score.delivered_bits,
            intentional_stall_s: score.intentional_stall_s,
            bitrate_switches: score.bitrate_switches,
        })
    }

    /// Simulates one **batch** of sessions — every `(policy, player)`
    /// lane of one `(video, network)` pair — through the
    /// structure-of-arrays batch engine ([`sensei_sim::simulate_lanes_in`]),
    /// scores each lane with the true-QoE oracle, and appends one
    /// [`LaneScore`] per lane to `out` **in lane order**.
    ///
    /// Lanes are scored straight from the batch's arrays
    /// ([`LaneScore::of_lane`]): no [`sensei_sim::SessionResult`] or
    /// [`RenderedVideo`] is assembled, and the scores are bit-identical
    /// to scoring assembled results with [`TrueQoe::qoe01`] and the
    /// render's metrics.
    ///
    /// Lanes are regrouped by policy internally, so each policy instance
    /// is built once and asked for all its lanes' decisions with a single
    /// [`AbrPolicy::select_batch`] call per chunk. Kinds that
    /// [read the whole trace](PolicyKind::reads_trace) are rebound to it
    /// **once per batch** (their rebind is `O(trace)`), and need a
    /// network that holds it ([`Network::full_trace`]); every other kind
    /// runs over any network — an on-demand stream included — and is
    /// never rebound.
    ///
    /// # Errors
    ///
    /// Returns a [`BatchFailure`] naming the offending lane (a lane whose
    /// kind reads the trace fails when the network holds none). No
    /// scores are appended on error.
    pub fn score_batch_in<N: Network>(
        &self,
        runtime: &mut SessionRuntime,
        asset: &VideoAsset,
        network: N,
        lanes: &[(PolicyKind, PlayerConfig)],
        out: &mut Vec<LaneScore>,
    ) -> Result<(), BatchFailure> {
        if lanes.is_empty() {
            return Ok(());
        }
        let trace = network.full_trace();
        let SessionRuntime {
            policies,
            batch,
            configs,
            order,
            groups: group_ranges,
            ..
        } = runtime;
        // Regroup the lanes by policy kind, in policy-table order:
        // `order[p]` is the input lane at flat batch position `p`.
        configs.clear();
        order.clear();
        group_ranges.clear();
        for kind in PolicyKind::ALL {
            let start = configs.len();
            for (i, &(lane_kind, config)) in lanes.iter().enumerate() {
                if lane_kind == kind {
                    order.push(i);
                    configs.push(config);
                }
            }
            if configs.len() > start {
                group_ranges.push((kind, start..configs.len()));
                let failure = |error| BatchFailure {
                    lane: order[start],
                    error,
                };
                if kind.reads_trace() && trace.is_none() {
                    return Err(failure(missing_trace(kind)));
                }
                // Build the policy up front so the group loop below can
                // borrow every slot mutably in one pass.
                let slot = &mut policies[kind.index()];
                if slot.is_none() {
                    *slot = Some(self.build_policy(kind, trace).map_err(failure)?);
                }
            }
        }
        // One `BatchLanes` group per kind, borrowing each policy slot
        // mutably in table order. Rebinding happens once per batch, and
        // only for kinds that read the trace — they re-index the network
        // here instead of once per session.
        let mut groups: Vec<BatchLanes<'_, '_>> = Vec::with_capacity(group_ranges.len());
        let mut next_group = 0;
        for (idx, slot) in policies.iter_mut().enumerate() {
            if next_group >= group_ranges.len() {
                break;
            }
            let (kind, range) = &group_ranges[next_group];
            if idx != kind.index() {
                continue;
            }
            let policy = slot.as_mut().expect("policy built above").as_mut();
            if kind.reads_trace() {
                policy.rebind(trace.expect("checked when the group was formed"));
                telemetry::count(telemetry::Counter::PolicyRebinds, 1);
            }
            groups.push(BatchLanes {
                policy,
                weights: kind.uses_weights().then_some(&asset.weights),
                configs: &configs[range.clone()],
            });
            next_group += 1;
        }
        {
            let _span = telemetry::span(telemetry::Phase::LaneSimulate);
            simulate_lanes_in(batch, &asset.source, &asset.encoded, network, &mut groups).map_err(
                |failure| BatchFailure {
                    lane: order[failure.lane],
                    error: failure.error.into(),
                },
            )?;
        }
        drop(groups);

        // Score straight from the batch's lane arrays, in flat batch
        // order (so a failing lane is the one the result assembly would
        // have named first), writing each score to its caller-order
        // slot. A failure rolls `out` back to its entry mark so the
        // no-scores-on-error contract holds.
        let out_mark = out.len();
        out.resize(out_mark + lanes.len(), LaneScore::default());
        let score_span = telemetry::span(telemetry::Phase::Score);
        for (flat, &lane) in order.iter().enumerate() {
            match LaneScore::of_lane(&self.oracle, asset, &batch.lane(flat)) {
                Ok(score) => out[out_mark + lane] = score,
                Err(error) => {
                    out.truncate(out_mark);
                    return Err(BatchFailure { lane, error });
                }
            }
        }
        drop(score_span);
        telemetry::count(telemetry::Counter::Batches, 1);
        telemetry::count(telemetry::Counter::Sessions, lanes.len() as u64);
        telemetry::observe(telemetry::Hist::LanesPerBatch, lanes.len() as u64);
        Ok(())
    }

    /// Runs the full `(video × trace × policy)` grid sequentially, in the
    /// canonical enumeration order (video outermost, policy innermost),
    /// through one reused [`SessionRuntime`].
    ///
    /// This is the degenerate single-worker fleet run: `sensei-fleet`'s
    /// `ScenarioMatrix::grid` spans exactly this scenario space and its
    /// executor walks it in the same canonical order, so a fleet run with
    /// one worker (and no perturbations or player variants) reproduces this
    /// output cell for cell.
    ///
    /// # Errors
    ///
    /// Propagates session failures.
    pub fn run_grid(&self, kinds: &[PolicyKind]) -> Result<Vec<CellResult>, CoreError> {
        let mut runtime = SessionRuntime::new();
        let mut out = Vec::with_capacity(kinds.len() * self.assets.len() * self.traces.len());
        for asset in &self.assets {
            for trace in &self.traces {
                for &kind in kinds {
                    out.push(self.run_session_in(
                        &mut runtime,
                        asset,
                        trace,
                        kind,
                        &self.player,
                    )?);
                }
            }
        }
        Ok(out)
    }
}

/// The error for a [trace-reading](PolicyKind::reads_trace) kind asked
/// to run over a network that holds no whole trace.
fn missing_trace(kind: PolicyKind) -> CoreError {
    CoreError::BadConfig(format!(
        "{} reads the whole trace, but the network holds none",
        kind.label()
    ))
}

/// A batch failure attributed to the lane (batch position) that caused
/// it, so a fleet tile can map it back to the exact scenario.
#[derive(Debug)]
pub struct BatchFailure {
    /// Index into the `lanes` argument of [`Experiment::score_batch_in`].
    pub lane: usize,
    /// The underlying failure.
    pub error: CoreError,
}

impl std::fmt::Display for BatchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch lane {}: {}", self.lane, self.error)
    }
}

impl std::error::Error for BatchFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<BatchFailure> for CoreError {
    fn from(failure: BatchFailure) -> Self {
        failure.error
    }
}

/// Reusable per-worker session state: one policy instance per
/// [`PolicyKind`] (built lazily on first use, rebound once per batch
/// when its kind reads the trace, and reset per session) plus the batch
/// engine's [`SessionBatch`] structure-of-arrays buffers and the
/// lane-regrouping scratch.
///
/// The policy-reuse contract — a reset-and-reused instance produces results
/// identical to fresh per-session construction — is what makes this a pure
/// optimization; it is asserted for every kind in
/// `tests/policy_reuse.rs`.
pub struct SessionRuntime {
    /// Policy table indexed by [`PolicyKind::ALL`] position.
    policies: Vec<Option<Box<dyn AbrPolicy>>>,
    /// The structure-of-arrays batch engine scratch.
    batch: SessionBatch,
    /// Flat per-lane player configs, regrouped by policy.
    configs: Vec<PlayerConfig>,
    /// `order[p]` = input lane at flat batch position `p`.
    order: Vec<usize>,
    /// Policy groups as `(kind, range into configs)`, in table order.
    groups: Vec<(PolicyKind, Range<usize>)>,
}

impl SessionRuntime {
    /// An empty runtime; policies and buffers materialize on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            policies: (0..PolicyKind::ALL.len()).map(|_| None).collect(),
            batch: SessionBatch::new(),
            configs: Vec::new(),
            order: Vec::new(),
            groups: Vec::new(),
        }
    }
}

impl Default for SessionRuntime {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-(video, trace) QoE gains of `policy` over `base` in percent —
/// the Fig. 12a/13/14 quantity `(Q1 − Q2)/Q2`.
pub fn qoe_gains_over(results: &[CellResult], policy: &str, base: &str) -> Vec<f64> {
    let mut gains = Vec::new();
    for r in results.iter().filter(|r| r.policy == policy) {
        if let Some(b) = results
            .iter()
            .find(|b| b.policy == base && b.video == r.video && b.trace == r.trace)
        {
            if b.qoe01 > 0.0 {
                gains.push((r.qoe01 - b.qoe01) / b.qoe01 * 100.0);
            }
        }
    }
    gains
}

/// Mean QoE of a policy across all its cells.
pub fn mean_qoe(results: &[CellResult], policy: &str) -> f64 {
    let vals: Vec<f64> = results
        .iter()
        .filter(|r| r.policy == policy)
        .map(|r| r.qoe01)
        .collect();
    sensei_ml::stats::mean(&vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_environment_builds() {
        let env = Experiment::build(&ExperimentConfig::quick(7)).unwrap();
        assert_eq!(env.assets.len(), 3);
        assert_eq!(env.traces.len(), 10);
        assert!(env.pensieve.is_none());
        assert_eq!(env.total_profile_cost_usd, 0.0);
        assert!(env.asset("Soccer1").is_ok());
        assert!(env.asset("Basket1").is_err());
    }

    #[test]
    fn bad_filter_is_an_error() {
        let mut cfg = ExperimentConfig::quick(7);
        cfg.videos = Some(vec!["NotAVideo".to_string()]);
        assert!(matches!(
            Experiment::build(&cfg),
            Err(CoreError::BadConfig(_))
        ));
    }

    #[test]
    fn grid_runs_and_sensei_is_competitive() {
        let env = Experiment::build(&ExperimentConfig::quick(7)).unwrap();
        let results = env
            .run_grid(&[PolicyKind::Bba, PolicyKind::Fugu, PolicyKind::SenseiFugu])
            .unwrap();
        assert_eq!(results.len(), 3 * 10 * 3);
        // Robust ordering claims only (the paper's gains do not reproduce
        // here; see the fig12a records in BASELINE_claims.json): weights
        // must not hurt the carrying controller, and SENSEI must win on
        // the stable constrained traces where planning pays off.
        let sensei = mean_qoe(&results, "SENSEI");
        let fugu = mean_qoe(&results, "Fugu");
        assert!(
            sensei >= fugu * 0.95,
            "SENSEI {sensei:.3} vs Fugu {fugu:.3}"
        );
        let stable: Vec<CellResult> = results
            .iter()
            .filter(|r| r.trace.starts_with("fcc") && (600.0..3200.0).contains(&r.trace_mean_kbps))
            .cloned()
            .collect();
        let sensei_mid = mean_qoe(&stable, "SENSEI");
        let bba_mid = mean_qoe(&stable, "BBA");
        assert!(
            sensei_mid > bba_mid * 0.97,
            "SENSEI {sensei_mid:.3} vs BBA {bba_mid:.3} on stable constrained traces"
        );
        // Cells whose BBA baseline bottomed out at QoE 0 are skipped by
        // the relative-gain helper.
        let gains = qoe_gains_over(&results, "SENSEI", "BBA");
        assert!(gains.len() >= 25, "got {} gain cells", gains.len());
    }

    #[test]
    fn from_parts_onboards_procedural_families() {
        let cfg = ExperimentConfig::quick(7);
        let corpus =
            sensei_video::corpus::generate_family(&sensei_video::GenreMix::uniform(), 5, cfg.seed)
                .unwrap();
        let traces = sensei_trace::generate::generate_family(
            &sensei_trace::generate::TraceFamily::Diurnal,
            4,
            600,
            cfg.seed,
        );
        let env = Experiment::from_parts(&cfg, corpus, traces).unwrap();
        assert_eq!(env.assets.len(), 5);
        assert_eq!(env.traces.len(), 4);
        assert!(env.assets[0].name.starts_with("proc-"));
        assert_eq!(env.assets[0].dataset, "procedural");
        // A procedural session runs end to end.
        let cell = env
            .run_session(&env.assets[0], &env.traces[0], PolicyKind::Bba)
            .unwrap();
        assert!(cell.qoe01 >= 0.0 && cell.qoe01 <= 1.0);
        // Empty parts are rejected.
        assert!(Experiment::from_parts(&cfg, Vec::new(), env.traces.clone()).is_err());
        let corpus2 =
            sensei_video::corpus::generate_family(&sensei_video::GenreMix::uniform(), 1, cfg.seed)
                .unwrap();
        assert!(Experiment::from_parts(&cfg, corpus2, Vec::new()).is_err());
    }

    #[test]
    fn policy_labels_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(PolicyKind::from_label("NotAPolicy"), None);
    }

    #[test]
    fn rl_policies_require_training() {
        let env = Experiment::build(&ExperimentConfig::quick(7)).unwrap();
        let trace = &env.traces[0];
        assert!(env.policy(PolicyKind::Pensieve, trace).is_err());
        assert!(env.policy(PolicyKind::SenseiPensieve, trace).is_err());
        assert!(env.policy(PolicyKind::OracleAware, trace).is_ok());
    }
}
