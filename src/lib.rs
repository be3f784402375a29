//! SENSEI umbrella crate — the single-import facade over the workspace.
//!
//! Reproduction of *SENSEI: Aligning Video Streaming Quality with Dynamic
//! User Sensitivity* (NSDI '21). The system onboards each video by
//! crowdsourcing per-chunk quality-sensitivity weights, ships them in a
//! weight-extended DASH manifest, and lets weight-aware QoE models and ABR
//! policies concentrate quality where viewers actually notice it.
//!
//! Each subsystem lives in its own crate, re-exported here under a short
//! module name. The mapping to the paper:
//!
//! | Module | Crate | Paper |
//! |---|---|---|
//! | [`core`] | `sensei-core` | Fig. 7 — onboarding pipeline + evaluation harness |
//! | [`video`] | `sensei-video` | Table 1 — the 16-video corpus, encoding ladder, renders |
//! | [`crowd`] | `sensei-crowd` | §4 — crowdsourced sensitivity profiling (simulated MTurk) |
//! | [`qoe`] | `sensei-qoe` | §2.1, §4.2 — KSQI / P.1203 / LSTM-QoE and the Eq. 2 reweighting |
//! | [`abr`] | `sensei-abr` | §5 — BBA, Fugu, Pensieve and their SENSEI variants |
//! | [`dash`] | `sensei-dash` | §6 — the weight-extended MPD manifest |
//! | [`sim`] | `sensei-sim` | §5.1, §6 — DASH session simulator with intentional rebuffering |
//! | [`fleet`] | `sensei-fleet` | beyond §7 — sharded, deterministic fleet-scale session populations |
//! | [`trace`] | `sensei-trace` | §7.1 — FCC / 3G-HSDPA-like throughput traces |
//! | [`ml`] | `sensei-ml` | §4.2, §5.2 — regression, forests, LSTM, actor-critic substrate |
//! | [`mod@bench`] | `sensei-bench` | §7 — the claims runner: every figure, checked against the paper |
//!
//! The crates form a DAG: substrates (`video`, `trace`, `ml`, `dash`) feed
//! mid-layers (`qoe`, `sim`, `crowd`, `abr`), which feed the system layer
//! (`core`) and the evaluation harness (`bench`); `fleet` sits above
//! `core` and shards its experiments across workers deterministically.
//!
//! # Quickstart
//!
//! The deployment path in one breath (see `examples/quickstart.rs` for the
//! runnable version): pick a corpus video, onboard it, stream it.
//!
//! ```
//! use sensei::abr::SenseiFugu;
//! use sensei::core::pipeline::Sensei;
//! use sensei::sim::{simulate, PlayerConfig};
//!
//! let entry = sensei::video::corpus::by_name("Soccer1", 2021).unwrap();
//! // Simulated raters judge by the true-QoE oracle (README "Substitutions").
//! let oracle = sensei::crowd::TrueQoe::default();
//! let onboarded = Sensei::paper_default(7).onboard(&oracle, &entry.video, 42).unwrap();
//! let trace = sensei::trace::generate::fcc_like(2000.0, 600, 1);
//! let session = simulate(
//!     &entry.video,
//!     &onboarded.encoded,
//!     &trace,
//!     &mut SenseiFugu::new(),
//!     &PlayerConfig::default(),
//!     Some(&onboarded.weights),
//! )
//! .unwrap();
//! assert_eq!(session.levels.len(), entry.video.num_chunks());
//! ```

pub use sensei_abr as abr;
pub use sensei_bench as bench;
pub use sensei_core as core;
pub use sensei_crowd as crowd;
pub use sensei_dash as dash;
pub use sensei_fleet as fleet;
pub use sensei_ml as ml;
pub use sensei_qoe as qoe;
pub use sensei_sim as sim;
pub use sensei_telemetry as telemetry;
pub use sensei_trace as trace;
pub use sensei_video as video;

/// The workspace-wide error type: every subsystem error converts into it
/// via `From`, so cross-crate flows can use `?` throughout.
pub use sensei_core::CoreError;

/// The two swappable behavior contracts at crate boundaries: QoE models
/// ([`qoe::QoeModel`]) and ABR policies ([`sim::AbrPolicy`]). Both are
/// object-safe, so multi-backend code can hold `Box<dyn QoeModel>` /
/// `Box<dyn AbrPolicy>`.
pub use sensei_qoe::QoeModel;
pub use sensei_sim::AbrPolicy;

#[cfg(test)]
mod tests {
    // Object safety of QoeModel / AbrPolicy is asserted at compile time by
    // `const _: fn(&dyn ...)` items in sensei-qoe and sensei-sim.

    /// Every subsystem error converts into [`crate::CoreError`].
    #[test]
    fn subsystem_errors_unify() {
        let errors: Vec<crate::CoreError> = vec![
            crate::crowd::CrowdError::NoRenders.into(),
            crate::dash::DashError::Missing("MPD").into(),
            crate::sim::SimError::InvalidPause(-1.0).into(),
            crate::abr::AbrError::Training("empty corpus".into()).into(),
            crate::video::VideoError::NoChunks.into(),
            crate::qoe::QoeError::DegenerateTrainingSet("0 renders".into()).into(),
            crate::ml::MlError::SingularSystem.into(),
            crate::trace::TraceError::Empty.into(),
            crate::fleet::FleetError::NoWorkers.into(),
        ];
        for e in errors {
            // All render a message and behave as std errors.
            let dyn_err: &dyn std::error::Error = &e;
            assert!(!dyn_err.to_string().is_empty());
        }
    }
}
