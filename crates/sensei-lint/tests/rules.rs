//! Per-rule fixtures for the determinism lint: every rule gets a
//! positive case (fires), a negative case (stays quiet), and an
//! allow-suppression case. Fixtures live in string literals — the
//! lexer never tokenizes string contents, so this file is itself
//! clean under the workspace self-scan.

use sensei_lint::{scan_source, INVALID_ALLOW};

/// Path inside every rule's scope (merge-law module).
const MERGE_PATH: &str = "crates/sensei-fleet/src/report.rs";
/// Library path outside the cast/float scopes but inside the
/// collection/clock/env scopes.
const LIB_PATH: &str = "crates/sensei-abr/src/offline.rs";

fn rules_fired(path: &str, src: &str) -> Vec<String> {
    scan_source(path, src)
        .findings
        .iter()
        .map(|f| f.rule.clone())
        .collect()
}

// ---- no-unordered-iteration -------------------------------------------

#[test]
fn unordered_collection_fires_in_library_code() {
    let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m; }\n";
    let fired = rules_fired(LIB_PATH, src);
    assert!(fired.iter().any(|r| r == "no-unordered-iteration"));
    assert!(rules_fired(
        LIB_PATH,
        "fn f() { let s: HashSet<u8> = HashSet::new(); let _ = s; }"
    )
    .iter()
    .any(|r| r == "no-unordered-iteration"));
}

#[test]
fn btree_collections_are_clean() {
    let src = "use std::collections::BTreeMap;\nfn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n";
    assert!(rules_fired(LIB_PATH, src).is_empty());
}

#[test]
fn unordered_rule_is_scoped_to_library_sources() {
    // Test code asserting over a small local set is not a merge path.
    let src = "fn t() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m; }";
    assert!(rules_fired("crates/sensei-abr/tests/offline.rs", src).is_empty());
}

#[test]
fn trailing_allow_suppresses_its_own_line() {
    let src = "type Memo = HashMap<u64, f64>; // sensei-lint: allow(no-unordered-iteration) — keyed lookups only, never iterated\n";
    let scan = scan_source(LIB_PATH, src);
    assert!(scan.findings.is_empty(), "findings: {:?}", scan.findings);
    assert_eq!(scan.allows.len(), 1);
    assert!(scan.allows[0].used);
    assert_eq!(scan.allows[0].rule, "no-unordered-iteration");
}

#[test]
fn standalone_allow_suppresses_the_next_code_line() {
    let src = "// sensei-lint: allow(no-unordered-iteration) — keyed lookups only\nuse std::collections::HashMap;\nfn f() {}\n";
    let scan = scan_source(LIB_PATH, src);
    assert!(scan.findings.is_empty(), "findings: {:?}", scan.findings);
    assert!(scan.allows[0].used);
}

#[test]
fn allow_does_not_leak_past_its_target_line() {
    // The allow covers line 2 only; the second HashMap on line 3 must
    // still be reported.
    let src = "// sensei-lint: allow(no-unordered-iteration) — first use is keyed-only\nuse std::collections::HashMap;\ntype Other = HashMap<u8, u8>;\n";
    let scan = scan_source(LIB_PATH, src);
    assert_eq!(scan.findings.len(), 1);
    assert_eq!(scan.findings[0].line, 3);
}

// ---- no-wall-clock ----------------------------------------------------

#[test]
fn wall_clock_fires_outside_timing_crates() {
    let fired = rules_fired(LIB_PATH, "fn f() { let t = Instant::now(); let _ = t; }");
    assert!(fired.iter().any(|r| r == "no-wall-clock"));
    let fired = rules_fired(
        LIB_PATH,
        "fn f() { let t = SystemTime::UNIX_EPOCH; let _ = t; }",
    );
    assert!(fired.iter().any(|r| r == "no-wall-clock"));
}

#[test]
fn timing_crates_own_the_clock() {
    let src = "fn f() { let t = Instant::now(); let _ = t; }";
    assert!(rules_fired("crates/sensei-telemetry/src/lib.rs", src).is_empty());
    assert!(rules_fired("crates/sensei-bench/src/lib.rs", src).is_empty());
    assert!(rules_fired("shims/criterion/src/lib.rs", src).is_empty());
}

// ---- no-env-outside-config --------------------------------------------

#[test]
fn env_read_fires_in_library_code() {
    let src = "fn f() -> bool { std::env::var(\"SENSEI_X\").is_ok() }";
    let fired = rules_fired(LIB_PATH, src);
    assert!(fired.iter().any(|r| r == "no-env-outside-config"));
}

#[test]
fn benches_and_examples_are_config_entry_points() {
    let src = "fn f() -> bool { std::env::var(\"SENSEI_X\").is_ok() }";
    assert!(rules_fired("crates/sensei-bench/benches/fig.rs", src).is_empty());
    assert!(rules_fired("examples/fleet_families.rs", src).is_empty());
    // The bench library is library code: only its bench targets are
    // entry points.
    let fired = rules_fired("crates/sensei-bench/src/lib.rs", src);
    assert!(fired.iter().any(|r| r == "no-env-outside-config"));
}

// ---- no-lossy-cast ----------------------------------------------------

#[test]
fn integer_as_cast_fires_in_fixed_point_paths() {
    let src = "fn f(x: f64) -> i64 { x as i64 }";
    let fired = rules_fired(MERGE_PATH, src);
    assert!(fired.iter().any(|r| r == "no-lossy-cast"));
}

#[test]
fn cast_rule_is_scoped_to_the_merge_law_files() {
    let src = "fn f(x: f64) -> i64 { x as i64 }";
    assert!(rules_fired(LIB_PATH, src).is_empty());
}

#[test]
fn try_from_is_the_sanctioned_conversion() {
    let src = "fn f(i: usize) -> u64 { u64::try_from(i).expect(\"fits\") }";
    assert!(rules_fired(MERGE_PATH, src).is_empty());
}

// ---- no-float-accumulation --------------------------------------------

#[test]
fn float_compound_add_fires_in_merge_modules() {
    // Explicitly float-typed accumulator.
    let src = "struct S { total: f64 }\nimpl S { fn add(&mut self, total: f64, dt: f64) { let mut total = total; total += dt; } }\n";
    let fired = rules_fired(MERGE_PATH, src);
    assert!(fired.iter().any(|r| r == "no-float-accumulation"));
    // Float-literal RHS, no type context needed.
    let fired = rules_fired(MERGE_PATH, "fn f(mut x: f64) { x += 0.5; }");
    assert!(fired.iter().any(|r| r == "no-float-accumulation"));
}

#[test]
fn float_fold_and_turbofish_sum_fire() {
    let fired = rules_fired(
        MERGE_PATH,
        "fn f(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }",
    );
    assert!(fired.iter().any(|r| r == "no-float-accumulation"));
    let fired = rules_fired(
        MERGE_PATH,
        "fn f(v: &[f64]) -> f64 { v.iter().copied().sum::<f64>() }",
    );
    assert!(fired.iter().any(|r| r == "no-float-accumulation"));
}

#[test]
fn integer_accumulation_is_the_sanctioned_domain() {
    let src =
        "struct S { total: i128 }\nimpl S { fn add(&mut self, q: i128) { self.total += q; } }\n";
    assert!(rules_fired(MERGE_PATH, src).is_empty());
}

#[test]
fn float_accumulation_rule_is_scoped_to_merge_modules() {
    // QoE model math legitimately sums floats; only the mergeable
    // aggregates are constrained.
    let src = "fn f(mut x: f64) { x += 0.5; }";
    assert!(rules_fired("crates/sensei-qoe/src/lib.rs", src).is_empty());
}

// ---- no-unsafe --------------------------------------------------------

#[test]
fn unsafe_fires_everywhere() {
    let src = "fn f() { let p = core::ptr::null::<u8>(); unsafe { let _ = *p; } }";
    for path in [
        MERGE_PATH,
        LIB_PATH,
        "crates/sensei-bench/benches/fig.rs",
        "shims/rand/src/lib.rs",
    ] {
        let fired = rules_fired(path, src);
        assert!(fired.iter().any(|r| r == "no-unsafe"), "path {path}");
    }
}

// ---- allow-annotation contract ----------------------------------------

#[test]
fn allow_without_reason_is_itself_a_violation() {
    let src = "use std::collections::HashMap; // sensei-lint: allow(no-unordered-iteration)\n";
    let scan = scan_source(LIB_PATH, src);
    // The malformed allow is reported AND fails to suppress.
    assert!(scan.findings.iter().any(|f| f.rule == INVALID_ALLOW));
    assert!(scan
        .findings
        .iter()
        .any(|f| f.rule == "no-unordered-iteration"));
}

#[test]
fn allow_naming_an_unknown_rule_is_a_violation() {
    let src = "fn f() {} // sensei-lint: allow(no-such-rule) — because\n";
    let scan = scan_source(LIB_PATH, src);
    assert!(scan.findings.iter().any(|f| f.rule == INVALID_ALLOW));
}

#[test]
fn allow_accepts_every_dash_separator() {
    for sep in ["—", "–", "--", "-", ":"] {
        let src = format!(
            "use std::collections::HashMap; // sensei-lint: allow(no-unordered-iteration) {sep} keyed lookups only\n"
        );
        let scan = scan_source(LIB_PATH, &src);
        assert!(
            scan.findings.is_empty(),
            "separator {sep:?}: {:?}",
            scan.findings
        );
        assert_eq!(scan.allows[0].reason, "keyed lookups only");
    }
}

#[test]
fn comma_separated_allow_covers_several_rules() {
    let src = "fn f(x: f64) -> i64 { let t = Instant::now(); let _ = t; x as i64 } // sensei-lint: allow(no-wall-clock, no-lossy-cast) — fixture exercising both rules\n";
    let scan = scan_source(MERGE_PATH, src);
    assert!(scan.findings.is_empty(), "findings: {:?}", scan.findings);
    assert_eq!(scan.allows.len(), 2);
    assert!(scan.allows.iter().all(|a| a.used));
}

#[test]
fn unused_allows_are_recorded_as_unused() {
    let src =
        "// sensei-lint: allow(no-wall-clock) — nothing here actually reads the clock\nfn f() {}\n";
    let scan = scan_source(LIB_PATH, src);
    assert!(scan.findings.is_empty());
    assert_eq!(scan.allows.len(), 1);
    assert!(!scan.allows[0].used);
}

#[test]
fn allow_for_the_wrong_rule_does_not_suppress() {
    let src = "use std::collections::HashMap; // sensei-lint: allow(no-wall-clock) — wrong rule on purpose\n";
    let scan = scan_source(LIB_PATH, src);
    assert!(scan
        .findings
        .iter()
        .any(|f| f.rule == "no-unordered-iteration"));
}

// ---- lexer-level properties the rules depend on -----------------------

#[test]
fn string_literal_contents_are_never_scanned() {
    // This is what lets the linter scan its own fixtures: hazards named
    // inside strings (or raw strings) are data, not code.
    let src = "fn f() -> &'static str { \"HashMap unsafe Instant::now SystemTime\" }";
    assert!(rules_fired(LIB_PATH, src).is_empty());
}

#[test]
fn commented_out_hazards_are_not_findings() {
    let src = "// let m: HashMap<u8, u8> = HashMap::new();\nfn f() {}\n";
    assert!(rules_fired(LIB_PATH, src).is_empty());
}

#[test]
fn range_and_method_calls_on_ints_are_not_float_literals() {
    // `1..4` and `1.max(2)` must not register as floats and so must not
    // trip the float-literal compound-add pattern.
    let src = "fn f(mut x: i64) { for _ in 1..4 { x += 1; } let _ = 1.max(2); }";
    assert!(rules_fired(MERGE_PATH, src).is_empty());
}
