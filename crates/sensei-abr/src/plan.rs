//! The branch-and-bound core shared by every MPC planner.
//!
//! Fugu (Eq. 3), SENSEI-Fugu (Eq. 4) and the §2.4 idealistic oracle all
//! maximize a weighted horizon objective over `levels^h` bitrate plans:
//! the first two in expectation over predicted throughput scenarios, the
//! oracle over the exact future trace. They differ only in how one plan
//! step moves the walk state, which is the [`Transition`] trait. This
//! module owns everything else, so each optimization below is written
//! (and proven bit-exact against the flat reference odometer in the
//! planners' tests and the warm-vs-cold parity suite) once:
//!
//! 1. **Prefix sharing** — plans are enumerated as a depth-first tree, so
//!    every shared prefix is walked once (an ~h-fold cut over scoring each
//!    plan from scratch).
//! 2. **Hoisted per-step tables** — the per-(depth, level) size/vq lookups
//!    and the no-stall switch bound depend only on the chunk position, so
//!    [`ChunkTables`] fills them once per chunk step for every lane and
//!    candidate of that step.
//! 3. **Exact branch-and-bound with guided order** — subtrees are explored
//!    most-promising-first and skipped when a floating-point-monotone upper
//!    bound shows they cannot change the result. The winner rule tracks
//!    exactly the tuple the flat reference returns — the maximum score, the
//!    earliest candidate attaining it, and the smallest first action within
//!    that candidate — so neither the visit order nor the pruning can move
//!    a result bit (see [`Search::descend`]).
//! 4. **Cross-chunk warm starts** — the shifted suffix of step *t*'s
//!    winning plan is a feasible leaf of step *t+1*'s tree. It is scored
//!    first with the exact walk arithmetic under candidate 0 (which always
//!    runs, and runs first) and seeds the incumbent, so the very first
//!    `descend` prunes against a near-optimal bound. Seeding is
//!    indistinguishable from the search having visited that leaf first:
//!    the tie rule still steers every tie to the reference winner.
//! 5. **Block leaf scoring** — the `n_levels` sibling leaves under one
//!    parent share the whole walk prefix, so the transition scores them in
//!    one straight-line pass, each element exactly one reference walk
//!    step, consumed here in the unchanged visit order.

use sensei_qoe::Ksqi;
use sensei_sim::{BatchStates, Decision, PlayerState, SessionContext};
use sensei_telemetry as telemetry;
use sensei_video::SensitivityWeights;

/// One planner's walk: how a plan step moves the per-prefix state.
///
/// Rows are indexed by depth: row 0 is the root (the pre-plan state),
/// row `j + 1` the state after the length-`j + 1` prefix.
pub(crate) trait Transition {
    /// The number of root candidates (the oracle's pause candidates),
    /// searched in order.
    fn candidates(&self) -> usize {
        1
    }

    /// Points row 0 at root candidate `cand`. A single-candidate walk
    /// sets its root up front.
    fn begin_candidate(&mut self, _cand: usize) {}

    /// Writes row `depth + 1` by extending row `depth` with `level`: one
    /// exact step of the reference walk.
    fn step(&mut self, depth: usize, level: usize);

    /// The exact score of the leaf whose last row `step` just wrote.
    fn leaf_value(&self) -> f64;

    /// Scores every sibling leaf under row `depth` into `leaf_q[level]`,
    /// each bit-identical to `step(depth, level)` then `leaf_value`.
    fn score_leaves(&mut self, depth: usize, leaf_q: &mut [f64]);

    /// An upper bound on every leaf under row `depth ≥ 1`, whose last
    /// chosen level is `prev`, that dominates each leaf's computed value
    /// as floating point.
    fn bound(&self, depth: usize, prev: usize) -> f64;
}

/// The winner of a search: its score, candidate, and first action.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Best {
    pub(crate) q: f64,
    pub(crate) cand: usize,
    pub(crate) first: usize,
}

/// Per-chunk-step manifest lookups and the no-stall switch bound, shared
/// by every lane and candidate of one chunk step.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkTables {
    n_levels: usize,
    /// `sizes[depth·L + level]`: chunk size in bits.
    pub(crate) sizes: Vec<f64>,
    /// `vqs[depth·L + level]`: visual quality.
    pub(crate) vqs: Vec<f64>,
    /// `ufirst0[depth·L + lprev]`: upper bound on the weighted quality any
    /// level can contribute at `depth` after level `lprev`, charging the
    /// exact switch penalty and no stall. Depth 0 rows stay at the `0.0`
    /// placeholder: the bound is only evaluated at depth ≥ 1, where the
    /// previous level is on the DFS path.
    pub(crate) ufirst0: Vec<f64>,
    /// `umax0[depth]`: `ufirst0` maximized over every previous level, the
    /// bound for steps deeper than a node's first remaining one.
    pub(crate) umax0: Vec<f64>,
}

impl ChunkTables {
    /// Fills the size/vq tables for the horizon starting at `next_chunk`
    /// and invalidates the switch bound, which depends on the vq tables
    /// and on the callers' weight window.
    pub(crate) fn fill(&mut self, next_chunk: usize, h: usize, ctx: &SessionContext<'_>) {
        self.n_levels = ctx.num_levels();
        self.sizes.clear();
        self.vqs.clear();
        self.ufirst0.clear();
        self.umax0.clear();
        for chunk in next_chunk..next_chunk + h {
            for level in 0..self.n_levels {
                let size = ctx.encoded.size_bits(chunk, level);
                self.sizes.push(size.expect("plan stays in range"));
            }
            self.vqs.extend_from_slice(ctx.encoded.vq_row(chunk));
        }
    }

    /// Builds `ufirst0`/`umax0` unless this chunk step already has them.
    /// One build serves every search until the next [`Self::fill`]: those
    /// searches share the vq tables, the weights, and the chunk duration.
    /// `weights.map_or(q, …)` and uniform `1.0` weights give the same bits,
    /// since `1.0 * q == q`.
    pub(crate) fn switch_bounds(&mut self, qoe: &Ksqi, weights: Option<&[f64]>, d: f64) {
        if !self.ufirst0.is_empty() {
            return;
        }
        let n_levels = self.n_levels;
        let h = self.vqs.len() / n_levels;
        self.ufirst0.resize(h * n_levels, 0.0);
        self.umax0.resize(h, 0.0);
        for depth in 1..h {
            let row = &mut self.ufirst0[depth * n_levels..(depth + 1) * n_levels];
            self.umax0[depth] = switch_row(&self.vqs, n_levels, depth, row, |_, vq, switch| {
                let q = qoe.chunk_quality(vq, 0.0, switch, d);
                weights.map_or(q, |w| w[depth] * q)
            });
        }
    }
}

/// Fills `row[lprev]` with the best `term(level, vq, switch)` over every
/// level at `depth ≥ 1` after previous level `lprev`, where `switch` is
/// the exact penalty the walk charges; returns the row's maximum. When
/// `term` is monotone in the penalties it charges, each entry dominates
/// the walk's per-step term as floating point.
#[inline]
pub(crate) fn switch_row(
    vqs: &[f64],
    n_levels: usize,
    depth: usize,
    row: &mut [f64],
    term: impl Fn(usize, f64, f64) -> f64,
) -> f64 {
    let mut overall = f64::NEG_INFINITY;
    for (lprev, slot) in row.iter_mut().enumerate() {
        let pvq = vqs[(depth - 1) * n_levels + lprev];
        let mut best = f64::NEG_INFINITY;
        for level in 0..n_levels {
            let vq = vqs[depth * n_levels + level];
            let t = term(level, vq, switch_penalty(Some((pvq, lprev)), vq, level));
            if t > best {
                best = t;
            }
        }
        *slot = best;
        if best > overall {
            overall = best;
        }
    }
    overall
}

/// The switch penalty the walk charges for `level` (of quality `vq`)
/// after the previous chunk's `(vq, level)`, if any.
#[inline]
pub(crate) fn switch_penalty(prev: Option<(f64, usize)>, vq: f64, level: usize) -> f64 {
    match prev {
        Some((pvq, plevel)) if plevel != level => (vq - pvq).abs(),
        _ => 0.0,
    }
}

/// Fills `out` with the horizon's weight window starting at
/// `next_chunk`, padded with uniform `1.0` (all `1.0` without weights).
pub(crate) fn fill_window(
    out: &mut Vec<f64>,
    weights: Option<&SensitivityWeights>,
    next_chunk: usize,
    h: usize,
) {
    out.clear();
    if let Some(w) = weights {
        out.extend_from_slice(w.window(next_chunk, h));
    }
    out.resize(h, 1.0);
}

/// Weight of the chunk at the playhead, where an intentional pause would
/// land (1 without weights).
pub(crate) fn playhead_weight(
    state: &PlayerState<'_>,
    weights: Option<&SensitivityWeights>,
    chunk_duration_s: f64,
) -> f64 {
    let Some(w) = weights else { return 1.0 };
    let buffered_chunks = (state.buffer_s / chunk_duration_s).ceil() as usize;
    let playhead = state.next_chunk.saturating_sub(buffered_chunks);
    w.get(playhead.min(w.len() - 1)).unwrap_or(1.0)
}

/// Appends the levels in descending `scores` order to `ord`: one depth of
/// a guided exploration order. Purely a search-speed heuristic, since the
/// winner rule makes the result order-invariant.
pub(crate) fn push_order(ord: &mut Vec<usize>, scores: &[f64]) {
    let base = ord.len();
    ord.extend(0..scores.len());
    ord[base..].sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(core::cmp::Ordering::Equal)
    });
}

/// Cross-chunk warm-start carry: the full winning plan of one chunk
/// step's search, committed so the *next* step can seed its incumbent
/// with the shifted suffix.
///
/// Seeding is **result-invariant**: the seed is scored with the exact
/// leaf arithmetic of the search it primes, so a stale or mismatched slot
/// can only cost speed, never a bit. The only correctness obligations are
/// hygiene (invalidate on `reset`/`rebind` and at batch boundaries so
/// state never leaks across sessions) and safety (every seeded level must
/// index the current ladder).
#[derive(Debug, Clone, Default)]
struct WarmSlot {
    /// The chunk step `plan` was committed at; `None` when invalid.
    committed_at: Option<usize>,
    /// The committed winning plan (one ladder level per horizon depth).
    plan: Vec<usize>,
}

impl WarmSlot {
    /// Builds the warm-start seed for a search at `next_chunk` over
    /// horizon `h` into `seed`: the shifted suffix of the committed plan
    /// (step `t`'s plan minus its consumed first action), padded with its
    /// last level to fill the horizon. Returns false, leaving the search
    /// unseeded, unless the slot holds the *immediately preceding* chunk
    /// step's plan and every seeded level indexes the ladder.
    fn seed_into(
        &self,
        next_chunk: usize,
        h: usize,
        n_levels: usize,
        seed: &mut Vec<usize>,
    ) -> bool {
        if h == 0 || self.committed_at.map(|c| c + 1) != Some(next_chunk) {
            return false;
        }
        seed.clear();
        if self.plan.len() > 1 {
            seed.extend_from_slice(&self.plan[1..]);
        }
        let pad = seed.last().copied().unwrap_or(0);
        seed.resize(h, pad);
        seed.iter().all(|&level| level < n_levels)
    }
}

/// The one owner of a planner instance's warm carry: the scalar slot the
/// searches seed from and commit to, one slot per batch lane (swapped
/// into the scalar slot around that lane's decision, like SENSEI-Fugu's
/// pause ledger), and the cold-mode switch the parity suites use.
#[derive(Debug, Clone)]
pub(crate) struct WarmCarry {
    enabled: bool,
    slot: WarmSlot,
    lanes: Vec<WarmSlot>,
}

impl Default for WarmCarry {
    fn default() -> Self {
        Self {
            enabled: true,
            slot: WarmSlot::default(),
            lanes: Vec::new(),
        }
    }
}

impl WarmCarry {
    /// Turns the carry on or off. Off, searches never seed or commit: the
    /// cold reference mode, bit-identical results with more nodes.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.slot.committed_at = None;
            self.lanes.clear();
        }
    }

    /// Session-boundary hygiene: the carry never crosses a session.
    pub(crate) fn reset(&mut self) {
        self.slot.committed_at = None;
    }

    /// Trace-boundary hygiene: a rebound planner plans a different
    /// network, so every slot (scalar and per-lane) is dropped.
    pub(crate) fn rebind(&mut self) {
        self.reset();
        for lane in &mut self.lanes {
            lane.committed_at = None;
        }
    }

    /// Batch-boundary hygiene: fresh per-lane slots for the new lane set.
    pub(crate) fn begin_batch(&mut self, lanes: usize) {
        self.reset();
        self.lanes.clear();
        self.lanes.resize_with(lanes, WarmSlot::default);
    }

    /// Swaps lane `lane`'s slot with the scalar slot; a second call swaps
    /// it back.
    pub(crate) fn swap_lane(&mut self, lane: usize) {
        std::mem::swap(&mut self.slot, &mut self.lanes[lane]);
    }

    /// Records `plan` as the winner of chunk step `next_chunk`.
    pub(crate) fn commit(&mut self, next_chunk: usize, plan: &[usize]) {
        if self.enabled {
            self.slot.committed_at = Some(next_chunk);
            self.slot.plan.clear();
            self.slot.plan.extend_from_slice(plan);
        }
    }
}

/// Everything a planner instance keeps across searches: its warm carry
/// and the search scratch, recycled instead of reallocated per decision.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanCore {
    pub(crate) carry: WarmCarry,
    /// The DFS path (one level per depth) above the current node.
    cur_plan: Vec<usize>,
    /// The full winning plan of the last search (its first element is the
    /// returned first action): the next chunk step's warm-start seed.
    best_plan: Vec<usize>,
    /// Warm-start seed scratch (shifted suffix of the previous plan).
    seed: Vec<usize>,
    /// `leaf_q[level]`: each sibling leaf's score at the last depth,
    /// produced by the block scorer and consumed in visit order.
    leaf_q: Vec<f64>,
}

impl PlanCore {
    /// The full winning plan of the last [`Self::search`].
    pub(crate) fn last_plan(&self) -> &[usize] {
        &self.best_plan
    }

    /// Commits the last search's winning plan as the warm carry for the
    /// chunk step after `next_chunk`.
    pub(crate) fn commit_last(&mut self, next_chunk: usize) {
        self.carry.commit(next_chunk, &self.best_plan);
    }

    /// Runs one branch-and-bound search over the root candidates of
    /// `walk`, all sharing one incumbent, and returns the winner. The
    /// search is seeded from the warm carry when it holds the previous
    /// chunk step's plan. `ord` is the guided exploration order
    /// (`ord[depth·L + k]`); `None` disables pruning and visits levels in
    /// the reference's lexicographic order.
    ///
    /// Only a leaf scoring strictly above `floor` can win. The search
    /// starts from a phantom incumbent `Best { q: floor, cand: 0, first:
    /// 0 }`, which no leaf can tie (a tie needs a first action below 0),
    /// so every subtree whose bound reaches no higher than `floor` is
    /// pruned. The seed is installed only when it beats the phantom. When
    /// a leaf beats `floor`, the result (winner tuple and
    /// [`Self::last_plan`]) is exactly the unfloored search's; when none
    /// does, the phantom itself comes back and `last_plan` is empty.
    /// `f64::NEG_INFINITY` is the unfloored search.
    pub(crate) fn search<T: Transition>(
        &mut self,
        walk: &mut T,
        next_chunk: usize,
        h: usize,
        n_levels: usize,
        ord: Option<&[usize]>,
        floor: f64,
    ) -> Best {
        // Cold mode never commits, so its slot never seeds.
        let seeded = self
            .carry
            .slot
            .seed_into(next_chunk, h, n_levels, &mut self.seed);
        self.cur_plan.clear();
        self.cur_plan.resize(h, 0);
        self.leaf_q.clear();
        self.leaf_q.resize(n_levels, 0.0);
        self.best_plan.clear();
        let mut search = Search {
            walk,
            ord,
            h,
            n_levels,
            leaf_q: &mut self.leaf_q,
            cur_plan: &mut self.cur_plan,
            best_plan: &mut self.best_plan,
            seeded: false,
            improved: false,
            seeded_prunes: 0,
            cand: 0,
            best: Best {
                q: floor,
                cand: 0,
                first: 0,
            },
            nodes: 0,
            pruned: 0,
        };
        for cand in 0..search.walk.candidates() {
            search.cand = cand;
            search.walk.begin_candidate(cand);
            if cand == 0 && seeded {
                // Score the seed leaf exactly, with the same walk steps a
                // tree visit performs, so the seeded incumbent is
                // indistinguishable from the search having visited that
                // leaf first.
                for (depth, &level) in self.seed.iter().enumerate() {
                    search.nodes += 1;
                    search.walk.step(depth, level);
                }
                let q = search.walk.leaf_value();
                if q > floor {
                    search.seeded = true;
                    search.best = Best {
                        q,
                        cand,
                        first: self.seed[0],
                    };
                    search.best_plan.extend_from_slice(&self.seed);
                }
            }
            search.descend(0, 0);
        }
        telemetry::count(telemetry::Counter::PlanNodes, search.nodes);
        telemetry::count(telemetry::Counter::PlanPrunes, search.pruned);
        telemetry::count(telemetry::Counter::WarmStartHits, u64::from(search.seeded));
        telemetry::count(telemetry::Counter::SeededPrunes, search.seeded_prunes);
        search.best
    }
}

/// Depth-first plan enumeration state of one [`PlanCore::search`].
struct Search<'a, T> {
    walk: &'a mut T,
    ord: Option<&'a [usize]>,
    h: usize,
    n_levels: usize,
    leaf_q: &'a mut [f64],
    cur_plan: &'a mut [usize],
    best_plan: &'a mut Vec<usize>,
    /// Whether the incumbent was seeded from the previous chunk's plan
    /// (a seed at or below the floor is scored but not installed).
    seeded: bool,
    /// Whether any leaf has improved on the (seeded) incumbent yet.
    improved: bool,
    /// Prunes taken against the still-unimproved seeded incumbent.
    seeded_prunes: u64,
    /// The candidate being searched (candidates run in order).
    cand: usize,
    best: Best,
    /// Telemetry tallies, flushed once per search: `(depth, level)`
    /// expansions and bound-pruned subtrees. Plain local adds keep the
    /// hot loop free of thread-local traffic.
    nodes: u64,
    pruned: u64,
}

impl<T: Transition> Search<'_, T> {
    /// The `k`-th level visited at `depth`.
    fn level(&self, depth: usize, k: usize) -> usize {
        self.ord.map_or(k, |ord| ord[depth * self.n_levels + k])
    }

    /// The tie half of the winner rule: an equal score wins only inside
    /// the best's own candidate, with a smaller first action.
    fn tie_wins(&self, first: usize) -> bool {
        self.cand == self.best.cand && first < self.best.first
    }

    /// Recursively enumerates levels at `depth`; `plan0` is the first
    /// action of the current subtree.
    ///
    /// **Why any exploration order is exact.** A leaf's computed score
    /// depends only on its `(candidate, plan)` pair, and the only
    /// observables are the best score and the winner's candidate and
    /// first action. The flat reference (candidates in order, plans
    /// lexicographic, strictly-greater updates) returns exactly the
    /// maximum score, the earliest candidate attaining it, and the
    /// smallest first action within that candidate: the root level is the
    /// odometer's most significant digit. The update rule maintains that
    /// tuple directly: `>` wins outright, and `==` wins only by
    /// [`Self::tie_wins`] (candidates run in order, so a tie from a
    /// *later* candidate never wins). That frees the search to visit
    /// subtrees in the guided `ord` order.
    ///
    /// **Why pruning is exact.** A subtree is skipped only when an upper
    /// bound on every leaf under it shows it cannot change that tuple:
    /// strictly below the best score nothing inside can win or tie; equal
    /// to it, a tie inside matters only if it would win by the tie rule.
    /// The transition's bound dominates every leaf's *computed* value as
    /// floating point, not just in exact arithmetic (see [`Transition`]).
    fn descend(&mut self, depth: usize, plan0: usize) {
        if self.ord.is_some() && depth > 0 {
            let ub = self.walk.bound(depth, self.cur_plan[depth - 1]);
            if ub < self.best.q || (ub == self.best.q && !self.tie_wins(plan0)) {
                self.pruned += 1;
                if self.seeded && !self.improved {
                    self.seeded_prunes += 1;
                }
                return;
            }
        }
        if depth + 1 == self.h {
            // The sibling leaves are scored as one block pass, then
            // consumed in the exact visit order.
            self.walk.score_leaves(depth, self.leaf_q);
            for k in 0..self.n_levels {
                self.nodes += 1;
                let level = self.level(depth, k);
                let first = if depth == 0 { level } else { plan0 };
                let q = self.leaf_q[level];
                if q > self.best.q || (q == self.best.q && self.tie_wins(first)) {
                    self.best = Best {
                        q,
                        cand: self.cand,
                        first,
                    };
                    self.improved = true;
                    self.best_plan.clear();
                    self.best_plan.extend_from_slice(&self.cur_plan[..depth]);
                    self.best_plan.push(level);
                }
            }
            return;
        }
        for k in 0..self.n_levels {
            self.nodes += 1;
            let level = self.level(depth, k);
            let first = if depth == 0 { level } else { plan0 };
            self.cur_plan[depth] = level;
            self.walk.step(depth, level);
            self.descend(depth + 1, first);
        }
    }
}

/// A planner served through the shared decide/batch lifecycle.
pub(crate) trait Planner {
    /// Fills every table that depends only on the chunk position (shared
    /// by all lanes of a batch, which sit at the same chunk step) and
    /// returns the effective horizon, 0 at the video end.
    fn prepare_step(&mut self, next_chunk: usize, ctx: &SessionContext<'_>) -> usize;

    /// One lane's decision over the prepared tables, with `h ≥ 1`.
    fn decide_prepared(
        &mut self,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        h: usize,
    ) -> Decision;

    /// Swaps lane `lane`'s per-session state with the scalar slots; a
    /// second call swaps it back.
    fn swap_lane(&mut self, lane: usize);
}

/// The scalar decision of a [`Planner`].
pub(crate) fn decide<P: Planner>(
    planner: &mut P,
    state: &PlayerState<'_>,
    ctx: &SessionContext<'_>,
) -> Decision {
    match planner.prepare_step(state.next_chunk, ctx) {
        0 => Decision::level(0),
        h => planner.decide_prepared(state, ctx, h),
    }
}

/// Plans every lane of a batch: the chunk-step tables are prepared once,
/// then each lane's per-session state is swapped in around its decision,
/// so every lane decides bit-identically to [`decide`] on a dedicated
/// instance.
pub(crate) fn select_batch<P: Planner>(
    planner: &mut P,
    states: &BatchStates<'_>,
    ctx: &SessionContext<'_>,
    out: &mut [Decision],
) {
    let h = planner.prepare_step(states.next_chunk(), ctx);
    for (i, slot) in out.iter_mut().enumerate().take(states.len()) {
        *slot = if h == 0 {
            Decision::level(0)
        } else {
            planner.swap_lane(i);
            let decision = planner.decide_prepared(&states.state(i), ctx, h);
            planner.swap_lane(i);
            decision
        };
    }
}
