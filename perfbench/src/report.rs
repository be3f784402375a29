//! Turning measurements into named metrics, the fingerprint, the machine
//! block, and the one-line JSON the benchmark ends with.

use crate::traced::TracedPass;
use crate::workload::SetupTimes;
use sensei_core::PolicyKind;
use sensei_fleet::telemetry::Counter;
use sensei_fleet::FleetStats;
use std::fmt::Write as _;

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Minimum, first quartile, median, third quartile and maximum of
/// `values` (quartiles as medians of the lower and upper halves).
pub fn quartiles(values: &[f64]) -> [f64; 5] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return [0.0; 5];
    }
    [
        sorted[0],
        median(&sorted[..n / 2 + n % 2]),
        median(&sorted),
        median(&sorted[n / 2..]),
        sorted[n - 1],
    ]
}

/// The nearest-rank `p`-quantile of `samples` (0 when empty).
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The key a policy kind has in metric names and fingerprints.
pub fn policy_key(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::Bba => "bba",
        PolicyKind::Fugu => "fugu",
        PolicyKind::Pensieve => "pensieve",
        PolicyKind::SenseiFugu => "sensei_fugu",
        PolicyKind::SenseiFuguNoPause => "sensei_fugu_nopause",
        PolicyKind::SenseiPensieve => "sensei_pensieve",
        PolicyKind::OracleAware => "oracle_aware",
        PolicyKind::OracleUnaware => "oracle_unaware",
        PolicyKind::DasIp => "das_ip",
    }
}

/// The policies whose planning time is reported, whether or not a
/// workload runs them.
const PLANNED: [PolicyKind; 7] = [
    PolicyKind::Bba,
    PolicyKind::Fugu,
    PolicyKind::SenseiFugu,
    PolicyKind::SenseiFuguNoPause,
    PolicyKind::OracleAware,
    PolicyKind::OracleUnaware,
    PolicyKind::DasIp,
];

/// What the untraced runs measured.
pub struct Untraced {
    /// `sessions / Fleet::run wall` of every timed run.
    pub rates: Vec<f64>,
    /// `Fleet::run` wall of every timed run.
    pub walls: Vec<f64>,
    /// Every build of the set-up phase, for the per-step split.
    pub setups: Vec<SetupTimes>,
    /// Mean set-up time per build of each block of the set-up phase.
    pub setup_blocks: Vec<f64>,
    /// Peak resident memory of set-up plus one whole run.
    pub peak_rss_mib: f64,
    /// Fleet worker threads.
    pub workers: usize,
}

impl Untraced {
    /// Median set-up split.
    pub fn setup_median(&self) -> SetupTimes {
        let pick =
            |f: fn(&SetupTimes) -> f64| median(&self.setups.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            generate_s: pick(|t| t.generate_s),
            onboard_s: pick(|t| t.onboard_s),
            matrix_s: pick(|t| t.matrix_s),
        }
    }
}

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end(untraced: &Untraced) -> Vec<Metric> {
    vec![
        metric("sessions_per_s", "1/s", median(&untraced.rates)),
        metric("setup_s", "s", median(&untraced.setup_blocks)),
        metric("peak_rss_mib", "MiB", untraced.peak_rss_mib),
    ]
}

/// The per-layer metrics of the traced pass (plus the untraced wall the
/// overhead figures compare against).
pub fn per_layer(untraced: &Untraced, traced: &TracedPass) -> Vec<Metric> {
    let workers = untraced.workers as f64;
    let untraced_core_s = workers * median(&untraced.walls);
    let (layers, snapshot) = (&traced.layers, &traced.counters);
    let setup = untraced.setup_median();
    let us = |ns: u64| ns as f64 * 1e-3;
    let mut out = vec![
        metric("fleet.executor.tiles", "count", layers.tile_ns.len() as f64),
        metric(
            "fleet.executor.tile_us_p50",
            "us",
            us(percentile(&layers.tile_ns, 0.50)),
        ),
        metric(
            "fleet.executor.tile_us_p99",
            "us",
            us(percentile(&layers.tile_ns, 0.99)),
        ),
        metric(
            "fleet.executor.overhead_core_s",
            "s",
            untraced_core_s - layers.tile_busy_s(),
        ),
        metric("fleet.matrix.scenario_s", "s", layers.scenario_s),
        metric("fleet.runtime.resolve_s", "s", layers.resolve_s),
        metric(
            "fleet.runtime.materializations",
            "count",
            snapshot.counter(Counter::TraceMaterializations) as f64,
        ),
        metric(
            "fleet.runtime.hit_rate",
            "ratio",
            snapshot.trace_cache_hit_rate(),
        ),
    ];
    for kind in PLANNED {
        let plan_s = layers
            .plan_s
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |(_, s)| *s);
        out.push(metric(
            format!("abr.plan_s.{}", policy_key(kind)),
            "s",
            plan_s,
        ));
    }
    out.extend([
        metric(
            "abr.decide_us_p50",
            "us",
            us(percentile(&layers.decide_ns, 0.50)),
        ),
        metric(
            "abr.decide_us_p99",
            "us",
            us(percentile(&layers.decide_ns, 0.99)),
        ),
        metric("abr.rebind_s", "s", layers.rebind_s),
        metric(
            "abr.plan_nodes",
            "count",
            snapshot.counter(Counter::PlanNodes) as f64,
        ),
        metric("abr.prune_rate", "ratio", snapshot.prune_rate()),
        metric("abr.memo_hit_rate", "ratio", snapshot.memo_hit_rate()),
        metric(
            "abr.warm_start_hits",
            "count",
            snapshot.counter(Counter::WarmStartHits) as f64,
        ),
        metric("sim.batch.player_s", "s", layers.player_s),
        metric("crowd.oracle.score_s", "s", layers.score_s),
        metric("fleet.report.fold_s", "s", layers.fold_s),
        metric("fleet.report.final_merge_s", "s", layers.final_merge_s),
        metric(
            "fleet.report.families",
            "count",
            traced.stats.per_family.len() as f64,
        ),
        metric("setup.generate_s", "s", setup.generate_s),
        metric("setup.onboard_s", "s", setup.onboard_s),
        metric("setup.matrix_s", "s", setup.matrix_s),
        metric("trace.wall_s", "s", layers.wall_s),
        metric(
            "trace.unattributed_s",
            "s",
            layers.wall_s - layers.attributed_s(),
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            layers.wall_s / untraced_core_s.max(1e-9) - 1.0,
        ),
    ]);
    out
}

/// The exact fingerprint of a run's aggregates: the session count and
/// every policy's raw QoE moment sums.
pub fn fingerprint(stats: &FleetStats) -> String {
    let mut out = format!("sessions={}", stats.sessions);
    for p in &stats.per_policy {
        let _ = write!(
            out,
            ";{}={}/{}/{}",
            policy_key(p.policy),
            p.qoe.count(),
            p.qoe.sum_q(),
            p.qoe.sumsq_q()
        );
    }
    out
}

/// Fingerprints recorded for the default seed, one `<workload> <seed>
/// <fingerprint>` line each.
const RECORDED: &str = include_str!("../fingerprints.txt");

/// The recorded fingerprint of `workload` at `seed`, if any.
pub fn recorded_fingerprint(workload: &str, seed: u64) -> Option<&'static str> {
    let seed = seed.to_string();
    RECORDED
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next() == Some(workload) && fields.next() == Some(seed.as_str()))
                .then(|| fields.next())
                .flatten()
        })
}

/// Peak resident set size of this process in MiB, from the kernel's
/// high-water mark.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPU model name the kernel reports.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit of the measured value (non-finite values,
/// which JSON cannot hold, become 0).
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 10, 0, &[metric("a.b", "s", 0.125)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"a.b": {"value": 0.125, "unit": "s"}}}"#
        );
        assert_eq!(json_str("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json_num(f64::NAN), "0");
    }

    #[test]
    fn every_workload_has_a_recorded_fingerprint() {
        for workload in crate::workload::Workload::ALL {
            assert!(
                recorded_fingerprint(workload.name(), 2021).is_some(),
                "{} has no seed-2021 fingerprint",
                workload.name()
            );
        }
        assert!(recorded_fingerprint("bba_jitter", 7).is_none());
    }
}
