//! The claims ledger: per claim of the paper, the paper's value
//! ([`SPECS`]), what the figure functions measure, and whether the two
//! agree. [`check`] holds a run to the committed baseline.

use crate::Mode;
use sensei_fleet::json::{self, obj, Json};
use std::collections::BTreeSet;
use std::fmt;

/// The paper's side of every claim, one per line: id, value, direction,
/// tolerance, and the README "Substitutions" entry that may explain a
/// divergence. Where the paper states a direction rather than a number,
/// the value is the threshold its sentence implies (0 for "a gain", 0.3
/// for "low correlation"). The tolerance is the resolution the claim is
/// read at, in its unit (1 for percentages and points, 0.05 for
/// correlations, 0.01 for QoE, $1 for costs, 0 for counts): it bounds a
/// `near` claim's band, and how far a measurement may move from the
/// baseline's.
pub const SPECS: &str = "
table1.videos                                        16     near   0     synthetic-corpus
fig01.max_min_gap_pct                                40     above  1     true-qoe-oracle
fig01.worst_is_key_moment                            1      near   0     true-qoe-oracle
fig02.sensei_rel_error_pct                           10.4   below  1     true-qoe-oracle
fig02.sensei_discordant_pct                          10.2   below  1     true-qoe-oracle
fig02.baseline_min_rel_error_pct                     10.4   above  1     true-qoe-oracle
fig02.baseline_min_discordant_pct                    10.2   above  1     true-qoe-oracle
fig03.series_over_40pct_gap_pct                      43.75  above  1     true-qoe-oracle
fig04.worst_chunk_agreement                          1      near   0     true-qoe-oracle
fig05.mean_srcc_1s_vs_4s_rebuffer                    0.6    above  0.05  true-qoe-oracle
fig05.mean_srcc_rebuffer_vs_drop                     0.6    above  0.05  true-qoe-oracle
fig06.aware_gain_pct@0.2                             52     below  1     true-qoe-oracle
fig06.aware_gain_pct@1.0                             22     above  1     true-qoe-oracle
fig12a.sensei_median_gain_pct                        14.4   near   1     true-qoe-oracle
fig12a.pensieve_median_gain_pct                      5.7    near   1     a2c-training
fig12a.fugu_median_gain_pct                          5.7    near   1     true-qoe-oracle
fig12b.best_qoe                                      0.8    above  0.01  true-qoe-oracle
fig12b.savings_vs_fugu_pct@qoe0.8                    27.9   near   1     true-qoe-oracle
fig12b.savings_vs_bba_pct@qoe0.8                     32.1   near   1     true-qoe-oracle
fig12c.pruned_cost_usd_per_min                       31     near   1     simulated-raters
fig12c.pruning_cost_cut_pct                          96.7   near   1     simulated-raters
fig12c.pruning_qoe_loss_pct                          3.1    below  1     simulated-raters
fig13.within_minus_between_genre_spread_pp           0      above  1     synthetic-corpus
fig14.gain_vs_throughput_srcc                        0      below  0.05  true-qoe-oracle
fig15.sensei_plcc                                    0.85   near   0.05  true-qoe-oracle
fig15.sensei_srcc                                    0.84   near   0.05  true-qoe-oracle
fig15.ksqi_plcc                                      0.76   near   0.05  true-qoe-oracle
fig15.ksqi_srcc                                      0.73   near   0.05  true-qoe-oracle
fig15.lstm_qoe_plcc                                  0.60   near   0.05  true-qoe-oracle
fig15.lstm_qoe_srcc                                  0.63   near   0.05  true-qoe-oracle
fig15.p1203_plcc                                     0.62   near   0.05  true-qoe-oracle
fig15.p1203_srcc                                     0.67   near   0.05  true-qoe-oracle
fig16.default_plcc_loss_pct                          3      below  1     simulated-raters
fig17.sensei_fugu_qoe_change_pct@sd1500              0      below  1     synthetic-corpus
fig17.sensei_fugu_gain_over_fugu_pct@sd1500          0      above  1     synthetic-corpus
fig17.sensei_pensieve_gain_over_pensieve_pct@sd1500  0      above  1     a2c-training
fig18a.sensei_uplift_on_fugu_pp                      0      above  1     true-qoe-oracle
fig18a.pensieve_mean_gain_pct                        0      above  1     a2c-training
fig18a.sensei_uplift_on_pensieve_pp                  0      above  1     a2c-training
fig18b.objective_gain_pct                            0      above  1     true-qoe-oracle
fig18b.pause_action_gain_pp                          0      above  1     true-qoe-oracle
fig20.max_cv_srcc                                    0.3    below  0.05  synthetic-corpus
";

/// Scores a figure's `(claim id, measured value)` pairs against [`SPECS`].
///
/// # Panics
///
/// When an id is not in [`SPECS`]: the figure and the specs disagree.
#[must_use]
pub fn score(measured: &[(&str, f64)]) -> Vec<Claim> {
    let claim = |&(id, value): &(&str, f64)| Claim::measure(id, value);
    let claims = measured.iter().map(claim).collect::<Result<_, _>>();
    claims.expect("every measured claim is in SPECS")
}

/// Which side of the paper value reproduces a claim: strictly above,
/// strictly below, or within the tolerance (`near`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Above,
    Below,
    Near,
}
const DIRECTIONS: [Direction; 3] = [Direction::Above, Direction::Below, Direction::Near];

/// Whether a measurement reproduces its claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The measurement falls on the paper's side.
    Reproduces,
    /// The measurement falls on the other side.
    Diverges,
    /// The quantity cannot be measured here.
    Unmeasurable,
}
const STATUSES: [Status; 3] = [Status::Reproduces, Status::Diverges, Status::Unmeasurable];

/// The README "Substitutions" entry that may explain a divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substitution {
    /// Simulated raters stand in for MTurk workers.
    SimulatedRaters,
    /// The peak-end `TrueQoe` oracle stands in for real user ratings.
    TrueQoeOracle,
    /// A short single-agent A2C run stands in for Pensieve's training.
    A2cTraining,
    /// Generated videos and traces stand in for the paper's own.
    SyntheticCorpus,
}
const SUBSTITUTIONS: [Substitution; 4] = [
    Substitution::SimulatedRaters,
    Substitution::TrueQoeOracle,
    Substitution::A2cTraining,
    Substitution::SyntheticCorpus,
];

/// The ledger's spelling of an enum value: its variant name, kebab-cased.
fn name_of(value: impl fmt::Debug) -> Json {
    let mut name = String::new();
    for c in format!("{value:?}").chars() {
        if c.is_uppercase() && !name.is_empty() {
            name.push('-');
        }
        name.push(c.to_ascii_lowercase());
    }
    Json::Str(name)
}

/// The value of `all` the ledger spells `name`, in `field`.
fn named<T: Copy + fmt::Debug>(
    all: &[T],
    field: &'static str,
    name: &str,
) -> Result<T, LedgerError> {
    let found = all.iter().find(|&&v| name_of(v).as_str() == Some(name));
    found.copied().ok_or_else(|| LedgerError::Unknown {
        field,
        value: name.to_string(),
    })
}

/// One claim of the paper, measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Stable id, `<figure>.<quantity>`.
    pub id: String,
    /// The paper's value, or the threshold its sentence implies.
    pub paper: f64,
    /// What this reproduction measures (`None` when unmeasurable).
    pub measured: Option<f64>,
    /// Which side of `paper` reproduces the claim.
    pub direction: Direction,
    /// The resolution the claim is read at (see [`SPECS`]).
    pub tolerance: f64,
    /// Whether the measurement reproduces the claim.
    pub status: Status,
    /// The substitution that may explain a divergence (`diverges` only).
    pub explained_by: Option<Substitution>,
}

impl Claim {
    /// The [`SPECS`] line `id`, unmeasured.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Unknown`] when no line has this id or the line does
    /// not parse.
    pub fn spec(id: &str) -> Result<Self, LedgerError> {
        let unknown = || LedgerError::Unknown {
            field: "id",
            value: id.to_string(),
        };
        let mut fields = SPECS
            .lines()
            .map(str::split_whitespace)
            .find_map(|mut f| (f.next() == Some(id)).then_some(f))
            .ok_or_else(unknown)?;
        let mut next = || fields.next().ok_or_else(unknown);
        let paper = next()?.parse().map_err(|_| unknown())?;
        let direction = named(&DIRECTIONS, "direction", next()?)?;
        let tolerance = next()?.parse().map_err(|_| unknown())?;
        Ok(Self {
            id: id.to_string(),
            paper,
            measured: None,
            direction,
            tolerance,
            status: Status::Unmeasurable,
            explained_by: Some(named(&SUBSTITUTIONS, "explained_by", next()?)?),
        })
    }

    /// The claim `id` of [`SPECS`] scored against `measured`: a
    /// non-finite measurement is unmeasurable, and the substitution is
    /// kept only when the claim diverges.
    ///
    /// # Errors
    ///
    /// As [`Claim::spec`].
    pub fn measure(id: &str, measured: f64) -> Result<Self, LedgerError> {
        let mut claim = Self::spec(id)?;
        let reproduces = match claim.direction {
            Direction::Above => measured > claim.paper,
            Direction::Below => measured < claim.paper,
            Direction::Near => (measured - claim.paper).abs() <= claim.tolerance,
        };
        claim.measured = measured.is_finite().then_some(measured);
        claim.status = match (claim.measured, reproduces) {
            (None, _) => Status::Unmeasurable,
            (Some(_), true) => Status::Reproduces,
            (Some(_), false) => Status::Diverges,
        };
        if claim.status != Status::Diverges {
            claim.explained_by = None;
        }
        Ok(claim)
    }

    fn to_json(&self) -> Json {
        let explained_by = self.explained_by.map(name_of);
        obj([
            ("id", Json::Str(self.id.clone())),
            ("paper", Json::Num(self.paper)),
            ("measured", self.measured.map_or(Json::Null, Json::Num)),
            ("direction", name_of(self.direction)),
            ("tolerance", Json::Num(self.tolerance)),
            ("status", name_of(self.status)),
            ("explained_by", explained_by.unwrap_or(Json::Null)),
        ])
    }

    fn from_json(record: usize, v: &Json) -> Result<Self, LedgerError> {
        let missing = |field| LedgerError::Field { record, field };
        let num = |key| v.get(key).and_then(Json::as_f64).ok_or(missing(key));
        let text = |key| v.get(key).and_then(Json::as_str).ok_or(missing(key));
        let status = named(&STATUSES, "status", text("status")?)?;
        let measured = match (status, v.get("measured")) {
            (Status::Unmeasurable, Some(Json::Null)) => None,
            (Status::Reproduces | Status::Diverges, Some(Json::Num(m))) => Some(*m),
            _ => return Err(missing("measured")),
        };
        let explained_by = match v.get("explained_by") {
            Some(Json::Null) => None,
            _ => Some(named(
                &SUBSTITUTIONS,
                "explained_by",
                text("explained_by")?,
            )?),
        };
        Ok(Self {
            id: text("id")?.to_string(),
            paper: num("paper")?,
            measured,
            direction: named(&DIRECTIONS, "direction", text("direction")?)?,
            tolerance: num("tolerance")?,
            status,
            explained_by,
        })
    }
}

/// The ledger file's text: the mode it ran in and its claims, in run
/// order.
#[must_use]
pub fn ledger_json(mode: Mode, claims: &[Claim]) -> String {
    let claims = Json::Arr(claims.iter().map(Claim::to_json).collect());
    let mode = Json::Str(mode.label().to_string());
    obj([("mode", mode), ("claims", claims)]).to_pretty()
}

/// Reads a ledger file's claims.
///
/// # Errors
///
/// [`LedgerError::Json`] when the text is not JSON (truncated, malformed,
/// or holding a non-finite number such as `1e999`), [`LedgerError::Field`]
/// for a missing or mistyped field (including a `null` measurement on a
/// measurable claim), [`LedgerError::Unknown`] for an unknown status,
/// direction or substitution, and [`LedgerError::Duplicate`] for a
/// repeated id.
pub fn parse_ledger(text: &str) -> Result<Vec<Claim>, LedgerError> {
    let doc = json::parse(text).map_err(LedgerError::Json)?;
    let records = doc.get("claims").and_then(Json::as_arr);
    let missing = LedgerError::Field {
        record: 0,
        field: "claims",
    };
    let claims: Vec<Claim> = (records.ok_or(missing)?.iter().enumerate())
        .map(|(i, v)| Claim::from_json(i, v))
        .collect::<Result<_, _>>()?;
    let mut ids = BTreeSet::new();
    match claims.iter().find(|c| !ids.insert(c.id.as_str())) {
        Some(c) => Err(LedgerError::Duplicate(c.id.clone())),
        None => Ok(claims),
    }
}

/// Holds a run's claims to the baseline's.
///
/// # Errors
///
/// [`LedgerError::Drift`] listing every claim that is missing, new,
/// redefined, flipped its status, or moved further than the baseline's
/// tolerance from the baseline's measured value.
pub fn check(baseline: &[Claim], run: &[Claim]) -> Result<(), LedgerError> {
    let mut drifts = Vec::new();
    for b in baseline {
        let Some(r) = run.iter().find(|r| r.id == b.id) else {
            drifts.push(Drift::Missing(b.id.clone()));
            continue;
        };
        if (r.paper, r.direction, r.tolerance) != (b.paper, b.direction, b.tolerance) {
            drifts.push(Drift::Redefined(b.id.clone()));
        } else if r.status != b.status {
            let (baseline, run) = (b.status, r.status);
            let id = b.id.clone();
            drifts.push(Drift::StatusFlipped { id, baseline, run });
        } else if let (Some(bm), Some(rm)) = (b.measured, r.measured) {
            // `within` is false for a NaN too.
            let within = (rm - bm).abs() <= b.tolerance;
            if !within {
                let (id, baseline, run) = (b.id.clone(), bm, rm);
                drifts.push(Drift::OutOfTolerance { id, baseline, run });
            }
        }
    }
    let new = run
        .iter()
        .filter(|r| !baseline.iter().any(|b| b.id == r.id));
    drifts.extend(new.map(|r| Drift::New(r.id.clone())));
    if drifts.is_empty() {
        Ok(())
    } else {
        Err(LedgerError::Drift(drifts))
    }
}

/// One way a run differs from the baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum Drift {
    /// A baseline claim the run did not produce.
    Missing(String),
    /// A claim the baseline does not hold.
    New(String),
    /// The claim's paper value, direction or tolerance changed.
    Redefined(String),
    /// The claim's status changed.
    StatusFlipped {
        id: String,
        baseline: Status,
        run: Status,
    },
    /// The measured value moved beyond the baseline's tolerance.
    OutOfTolerance { id: String, baseline: f64, run: f64 },
}

/// Why a ledger could not be read, or why a run fails its baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// The text is not valid JSON.
    Json(String),
    /// Record `record` lacks `field` or holds the wrong type there.
    Field { record: usize, field: &'static str },
    /// A name the ledger does not know, in `field`.
    Unknown { field: &'static str, value: String },
    /// Two records share an id.
    Duplicate(String),
    /// The run differs from the baseline.
    Drift(Vec<Drift>),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Drift(drifts) => {
                write!(f, "{} claim(s) drifted from the baseline:", drifts.len())?;
                drifts.iter().try_for_each(|d| write!(f, "\n  {d:?}"))
            }
            other => write!(f, "malformed ledger: {other:?}"),
        }
    }
}

impl std::error::Error for LedgerError {}
