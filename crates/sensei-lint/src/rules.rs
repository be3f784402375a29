//! The determinism rule catalog.
//!
//! Each rule is a token-stream pattern plus a **path scope**: the fleet
//! merge-law contract (PR 8) only constrains code that feeds the
//! deterministic aggregates, so e.g. wall-clock reads are fine inside
//! `sensei-telemetry` (whose whole job is timing) but hazards anywhere
//! a merge path could pick them up.
//!
//! Rules are heuristics over tokens, not a type system: they are tuned
//! to catch the hazard classes that have actually threatened the merge
//! law (unordered map iteration, float accumulation, truncating casts
//! in the fixed-point/seed paths, ambient clock/env reads) with zero
//! false negatives on those shapes, at the cost of requiring an
//! explicit, reasoned `sensei-lint: allow(...)` on the rare legitimate
//! site.

use crate::lexer::{Lexed, TokKind};

/// Identifier tokens that name an unordered std collection.
const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Integer type names a lossy `as` cast can target.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Float type names, for accumulator-type tracking.
const FLOAT_TYPES: &[&str] = &["f32", "f64"];

/// The rule catalog. Every rule has a stable kebab-case name used in
/// reports and in `sensei-lint: allow(<name>)` annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleId {
    /// Float `+=`/`-=` on an explicitly float-typed accumulator, a
    /// float-literal compound add, `fold(<float literal>, …)`, or
    /// `.sum::<f64>()` inside the merge-law modules. Merged aggregates
    /// must accumulate in the quantized-integer domain (`Moments`):
    /// float addition is non-associative, so a float accumulator makes
    /// the merge result depend on reduction order.
    NoFloatAccumulation,
    /// `HashMap`/`HashSet` in library code. Their iteration order is
    /// unspecified, so anything folded, serialized, or seeded from one
    /// breaks bit-reproducibility. Use `BTreeMap`/`BTreeSet`, or sort
    /// first and annotate a keyed-lookup-only use with an allow.
    NoUnorderedIteration,
    /// `Instant::now` / `SystemTime` outside the timing-owning crates
    /// (`sensei-telemetry`, `sensei-bench`, the criterion shim). Clock
    /// reads in a deterministic path are ambient inputs.
    NoWallClock,
    /// `env::var` outside the designated config entry points (benches
    /// and `examples/`). Environment reads buried in library code are
    /// ambient configuration the merge law can't see.
    NoEnvOutsideConfig,
    /// `as <integer type>` in the fixed-point (`Moments`), report
    /// serialization, and seed-derivation paths. Truncating or
    /// sign-changing casts silently corrupt the quantized domain; use
    /// `try_from`, a lossless `From`, or a reasoned allow for
    /// deliberate saturation.
    NoLossyCast,
    /// `unsafe` anywhere in the workspace (also enforced at compile
    /// time by `unsafe_code = "forbid"` in `[workspace.lints.rust]`;
    /// the lint additionally covers not-compiled cfg branches).
    NoUnsafe,
}

impl RuleId {
    /// Every rule, in reporting order.
    pub const ALL: [RuleId; 6] = [
        RuleId::NoFloatAccumulation,
        RuleId::NoUnorderedIteration,
        RuleId::NoWallClock,
        RuleId::NoEnvOutsideConfig,
        RuleId::NoLossyCast,
        RuleId::NoUnsafe,
    ];

    /// Stable kebab-case name (report output + allow annotations).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoFloatAccumulation => "no-float-accumulation",
            RuleId::NoUnorderedIteration => "no-unordered-iteration",
            RuleId::NoWallClock => "no-wall-clock",
            RuleId::NoEnvOutsideConfig => "no-env-outside-config",
            RuleId::NoLossyCast => "no-lossy-cast",
            RuleId::NoUnsafe => "no-unsafe",
        }
    }

    /// Inverse of [`RuleId::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line description for reports.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::NoFloatAccumulation => {
                "merged aggregates must accumulate in the quantized-integer domain, \
                 not via non-associative float addition"
            }
            RuleId::NoUnorderedIteration => {
                "HashMap/HashSet iteration order is unspecified; use BTreeMap/BTreeSet \
                 or sort and annotate"
            }
            RuleId::NoWallClock => {
                "Instant::now/SystemTime are ambient inputs; clock reads belong to \
                 telemetry/bench code"
            }
            RuleId::NoEnvOutsideConfig => {
                "env::var is ambient configuration; read it only at designated config \
                 entry points"
            }
            RuleId::NoLossyCast => {
                "truncating `as` casts corrupt the fixed-point/seed domain; use \
                 try_from or a reasoned allow"
            }
            RuleId::NoUnsafe => "no unsafe code anywhere in the workspace",
        }
    }

    /// Whether `path` (workspace-root-relative, '/'-separated) is in
    /// this rule's scope. The scoping encodes *who owns which ambient
    /// effect*; everything else must annotate.
    #[must_use]
    pub fn in_scope(self, path: &str) -> bool {
        match self {
            RuleId::NoUnsafe => true,
            RuleId::NoWallClock => {
                // Telemetry and the bench harnesses own timing; the
                // criterion shim *is* a timer.
                !(path.starts_with("crates/sensei-telemetry/")
                    || path.starts_with("crates/sensei-bench/")
                    || path.starts_with("shims/criterion/"))
            }
            RuleId::NoEnvOutsideConfig => {
                // Bench targets and examples are process entry points:
                // env knobs there are the documented configuration
                // surface. The sensei-bench library takes its mode as a
                // value, like every other library.
                !(path.starts_with("crates/sensei-bench/benches/") || path.starts_with("examples/"))
            }
            // Library code only: tests/benches asserting over small
            // local sets are not merge paths.
            RuleId::NoUnorderedIteration => path.starts_with("src/") || path.contains("/src/"),
            // The merge-law modules: FleetStats and the telemetry
            // shards are the two mergeable-accumulator families.
            RuleId::NoFloatAccumulation => {
                path == "crates/sensei-fleet/src/report.rs"
                    || path.starts_with("crates/sensei-telemetry/src/")
            }
            // Fixed-point stats + serialization + seed derivation.
            RuleId::NoLossyCast => matches!(
                path,
                "crates/sensei-fleet/src/report.rs"
                    | "crates/sensei-fleet/src/scenario.rs"
                    | "crates/sensei-fleet/src/json.rs"
            ),
        }
    }
}

/// One rule hit, before allow-suppression.
#[derive(Debug, Clone)]
pub struct RawFinding {
    pub rule: RuleId,
    pub line: u32,
    pub message: String,
}

/// Runs every in-scope rule over one lexed file.
#[must_use]
pub fn run_rules(path: &str, lexed: &Lexed) -> Vec<RawFinding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();

    let ident = |i: usize| -> Option<&str> {
        toks.get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    };
    let punct = |i: usize| -> Option<&str> {
        toks.get(i)
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
    };

    // ---- no-float-accumulation: collect explicitly float-typed
    // identifiers (struct fields, lets, params: `name : f64`), then
    // flag compound adds on them, float-literal compound adds,
    // float-seeded folds, and f64/f32 turbofish sums.
    let float_scope = RuleId::NoFloatAccumulation.in_scope(path);
    if float_scope {
        let mut float_idents: Vec<&str> = Vec::new();
        for i in 0..toks.len() {
            if punct(i) == Some(":") && ident(i + 1).is_some_and(|t| FLOAT_TYPES.contains(&t)) {
                if let Some(name) = (i > 0).then(|| ident(i - 1)).flatten() {
                    float_idents.push(name);
                }
            }
        }
        for i in 0..toks.len() {
            if matches!(punct(i), Some("+=" | "-=")) {
                let lhs_float = (i > 0)
                    .then(|| ident(i - 1))
                    .flatten()
                    .is_some_and(|name| float_idents.contains(&name));
                let rhs_float_literal = toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Float);
                if lhs_float || rhs_float_literal {
                    out.push(RawFinding {
                        rule: RuleId::NoFloatAccumulation,
                        line: toks[i].line,
                        message: format!(
                            "float compound assignment `{}` in a merge-law module; \
                             accumulate in the quantized-integer domain instead",
                            toks[i].text
                        ),
                    });
                }
            }
            if ident(i) == Some("fold")
                && punct(i + 1) == Some("(")
                && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Float)
            {
                out.push(RawFinding {
                    rule: RuleId::NoFloatAccumulation,
                    line: toks[i].line,
                    message: "float-seeded `fold` in a merge-law module".to_string(),
                });
            }
            if ident(i) == Some("sum")
                && punct(i + 1) == Some("::")
                && punct(i + 2) == Some("<")
                && ident(i + 3).is_some_and(|t| FLOAT_TYPES.contains(&t))
            {
                out.push(RawFinding {
                    rule: RuleId::NoFloatAccumulation,
                    line: toks[i].line,
                    message: "float turbofish `sum` in a merge-law module".to_string(),
                });
            }
        }
    }

    // ---- Single-pass token-pattern rules.
    let unordered_scope = RuleId::NoUnorderedIteration.in_scope(path);
    let clock_scope = RuleId::NoWallClock.in_scope(path);
    let env_scope = RuleId::NoEnvOutsideConfig.in_scope(path);
    let cast_scope = RuleId::NoLossyCast.in_scope(path);
    let unsafe_scope = RuleId::NoUnsafe.in_scope(path);

    for (i, tok) in toks.iter().enumerate() {
        let Some(word) = ident(i) else { continue };
        let line = tok.line;

        if unordered_scope && UNORDERED_TYPES.contains(&word) {
            out.push(RawFinding {
                rule: RuleId::NoUnorderedIteration,
                line,
                message: format!(
                    "`{word}` has unspecified iteration order; use the BTree \
                     equivalent or sort and annotate why order is never observed"
                ),
            });
        }

        if clock_scope {
            if word == "Instant" && punct(i + 1) == Some("::") && ident(i + 2) == Some("now") {
                out.push(RawFinding {
                    rule: RuleId::NoWallClock,
                    line,
                    message: "`Instant::now()` outside the timing-owning crates".to_string(),
                });
            }
            if word == "SystemTime" {
                out.push(RawFinding {
                    rule: RuleId::NoWallClock,
                    line,
                    message: "`SystemTime` outside the timing-owning crates".to_string(),
                });
            }
        }

        if env_scope
            && word == "env"
            && punct(i + 1) == Some("::")
            && matches!(ident(i + 2), Some("var" | "var_os" | "vars" | "vars_os"))
        {
            out.push(RawFinding {
                rule: RuleId::NoEnvOutsideConfig,
                line,
                message: format!(
                    "`env::{}` outside a designated config entry point",
                    ident(i + 2).unwrap_or("var")
                ),
            });
        }

        if cast_scope && word == "as" && ident(i + 1).is_some_and(|t| INT_TYPES.contains(&t)) {
            out.push(RawFinding {
                rule: RuleId::NoLossyCast,
                line,
                message: format!(
                    "`as {}` in a fixed-point/seed path; use try_from (or annotate a \
                     deliberate saturation)",
                    ident(i + 1).unwrap_or("")
                ),
            });
        }

        if unsafe_scope && word == "unsafe" {
            out.push(RawFinding {
                rule: RuleId::NoUnsafe,
                line,
                message: "`unsafe` is forbidden workspace-wide".to_string(),
            });
        }
    }

    out.sort_by_key(|f| (f.line, f.rule.name()));
    out
}
