//! Test support shared by the soundness suites.

use sensei_sim::{AbrPolicy, Decision, PlayerState, SessionContext};
use sensei_trace::ThroughputTrace;

/// Hides a policy's batched overrides: `begin_batch` and `select_batch`
/// stay at the trait defaults (reset once, then `decide` lane by lane),
/// so a session through it is the plain per-chunk `decide` loop.
pub struct DecideOnly<P>(pub P);

impl<P: AbrPolicy> AbrPolicy for DecideOnly<P> {
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
