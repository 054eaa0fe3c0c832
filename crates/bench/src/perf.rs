//! The perf-regression gate: diff a `tables perf` report against a
//! committed baseline (`bb-bench/perf-v2` JSON, e.g. `BENCH_7.json`).
//!
//! Two kinds of checks, with different portability rules:
//!
//! * **Deterministic counters** (states, transitions, rounds, signature
//!   recomputations, dirty states) are machine-independent, so they are
//!   compared directly: a counter that *grew* by more than the allowed
//!   percentage is a regression. Shrinking is never flagged — that is an
//!   improvement (and a reason to refresh the baseline).
//!
//! * **Wall-clock** is machine-dependent, so absolute times are never
//!   compared across the baseline boundary. What is compared are the
//!   *ratios within one run*: `incremental/full` and `fused/full` measured
//!   now versus the same ratios in the baseline. The full engine acts as
//!   the per-machine yardstick; if the incremental engine used to run at
//!   0.4× full and now runs at 0.9× full, something regressed no matter
//!   how fast the machine is. Ratio checks are skipped for entries whose
//!   baseline full time is under [`MIN_GATE_US`] — at microsecond scale
//!   the ratios are noise.
//!
//! A baseline entry with no matching entry in the current report is always
//! a regression (a silently dropped case must fail the gate).
//!
//! The `fused` column keeps its name from the retired `--fuse` pipeline,
//! whose baselines (`BENCH_10.json`) still carry it. It now times
//! `partition_with_stats` on the incremental engine at `Jobs::available()`
//! with no prebuilt predecessor table, so the table build falls inside the
//! timed region.

use bb_obs::json::{parse, JsonValue};

/// Entries whose baseline `full` wall-clock is below this many microseconds
/// skip the time-ratio checks: sub-5ms measurements are dominated by noise.
pub const MIN_GATE_US: u64 = 5000;

/// One roster entry of a `bb-bench/perf-v2` report, flattened.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    /// Case name (`treiber`, `ms-queue`, ...).
    pub name: String,
    /// `threads-ops` bound, e.g. `2-2`.
    pub bound: String,
    /// Explored state count (deterministic).
    pub states: u64,
    /// Explored transition count (deterministic).
    pub transitions: u64,
    /// Refinement rounds to the fixed point (deterministic).
    pub rounds: u64,
    /// Full-engine signature recomputations (deterministic).
    pub full_recomputes: u64,
    /// Incremental-engine signature recomputations (deterministic).
    pub inc_recomputes: u64,
    /// Incremental-engine dirty-state total (deterministic).
    pub inc_dirty_states: u64,
    /// Sharded-incremental signature recomputations (deterministic).
    pub fused_recomputes: u64,
    /// Full-engine best wall-clock, µs (machine-dependent).
    pub full_us: u64,
    /// Incremental-engine best wall-clock, µs (machine-dependent).
    pub inc_us: u64,
    /// Sharded-incremental best wall-clock, µs (machine-dependent).
    pub fused_us: u64,
}

impl PerfEntry {
    /// `name 2-2` — the key the gate matches entries by.
    pub fn id(&self) -> String {
        format!("{} {}", self.name, self.bound)
    }
}

/// Parses a `bb-bench/perf-v2` report into its entries.
pub fn parse_report(text: &str) -> Result<Vec<PerfEntry>, String> {
    let v = parse(text).map_err(|e| format!("malformed perf report: {e}"))?;
    let schema = v.get("schema").and_then(JsonValue::as_str).unwrap_or("");
    if schema != "bb-bench/perf-v2" {
        return Err(format!(
            "unsupported perf report schema `{schema}` (want bb-bench/perf-v2)"
        ));
    }
    let entries = v
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("perf report has no `entries` array")?;
    let mut out = Vec::with_capacity(entries.len());
    for e in entries {
        let s = |path: &[&str]| -> Result<String, String> {
            walk(e, path)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry missing string `{}`", path.join(".")))
        };
        let n = |path: &[&str]| -> Result<u64, String> {
            walk(e, path)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("entry missing number `{}`", path.join(".")))
        };
        out.push(PerfEntry {
            name: s(&["name"])?,
            bound: s(&["bound"])?,
            states: n(&["states"])?,
            transitions: n(&["transitions"])?,
            rounds: n(&["rounds"])?,
            full_recomputes: n(&["full", "sig_recomputes"])?,
            inc_recomputes: n(&["incremental", "sig_recomputes"])?,
            inc_dirty_states: n(&["incremental", "dirty_states"])?,
            fused_recomputes: n(&["fused", "sig_recomputes"])?,
            full_us: n(&["full", "min_wall_us"])?,
            inc_us: n(&["incremental", "min_wall_us"])?,
            fused_us: n(&["fused", "min_wall_us"])?,
        });
    }
    Ok(out)
}

/// One entry of a report's optional `store_entries` array (present since
/// `BENCH_10.json`): the same exploration through the rich hash-map
/// seen-set and the bit-packed arena.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// Case name.
    pub name: String,
    /// `threads-ops` bound.
    pub bound: String,
    /// Explored state count (deterministic).
    pub states: u64,
    /// Explored transition count (deterministic).
    pub transitions: u64,
    /// Rich-store peak bytes — seen set + frontier + index (deterministic).
    pub rich_bytes: u64,
    /// Arena-store peak bytes (deterministic).
    pub compact_bytes: u64,
    /// Rich-store best exploration wall-clock, µs (machine-dependent).
    pub rich_us: u64,
    /// Arena-store best exploration wall-clock, µs (machine-dependent).
    pub compact_us: u64,
}

impl StoreEntry {
    /// `name 2-2` — the key the gate matches entries by.
    pub fn id(&self) -> String {
        format!("{} {}", self.name, self.bound)
    }
}

/// Parses the optional `store_entries` array of a `bb-bench/perf-v2`
/// report. Reports predating the compact store (e.g. `BENCH_7.json`) have
/// none; that parses as the empty set, so a gate against an old baseline
/// simply performs no store checks.
pub fn parse_store_report(text: &str) -> Result<Vec<StoreEntry>, String> {
    let v = parse(text).map_err(|e| format!("malformed perf report: {e}"))?;
    let Some(entries) = v.get("store_entries").and_then(JsonValue::as_array) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::with_capacity(entries.len());
    for e in entries {
        let s = |path: &[&str]| -> Result<String, String> {
            walk(e, path)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("store entry missing string `{}`", path.join(".")))
        };
        let n = |path: &[&str]| -> Result<u64, String> {
            walk(e, path)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("store entry missing number `{}`", path.join(".")))
        };
        out.push(StoreEntry {
            name: s(&["name"])?,
            bound: s(&["bound"])?,
            states: n(&["states"])?,
            transitions: n(&["transitions"])?,
            rich_bytes: n(&["rich", "store_bytes"])?,
            compact_bytes: n(&["compact", "store_bytes"])?,
            rich_us: n(&["rich", "min_wall_us"])?,
            compact_us: n(&["compact", "min_wall_us"])?,
        });
    }
    Ok(out)
}

/// Diffs the store entries of two reports. Deterministic byte counts are
/// compared directly; the compression ratio (`rich/compact` bytes, higher
/// is better) must not shrink beyond the allowance, and the exploration
/// slowdown (`compact/rich` time) must not grow beyond it — both ratios
/// are within-run, so they survive machine changes.
pub fn compare_store(baseline: &[StoreEntry], current: &[StoreEntry], max_pct: f64) -> Vec<Check> {
    let mut checks = Vec::new();
    for b in baseline {
        let id = b.id();
        let Some(c) = current.iter().find(|c| c.name == b.name && c.bound == b.bound) else {
            checks.push(Check {
                entry: id,
                metric: "store present",
                baseline: 1.0,
                current: 0.0,
                regressed: true,
            });
            continue;
        };
        checks.push(Check::counter(&id, "store states", b.states, c.states, max_pct));
        checks.push(Check::counter(&id, "compact store bytes", b.compact_bytes, c.compact_bytes, max_pct));
        // Compression ratio: invert so "grew beyond allowance" means "the
        // arena lost ground against the rich store".
        if b.rich_bytes > 0 && c.rich_bytes > 0 {
            checks.push(Check::ratio(
                &id,
                "compact/rich byte ratio",
                b.compact_bytes as f64 / b.rich_bytes as f64,
                c.compact_bytes as f64 / c.rich_bytes as f64,
                max_pct,
            ));
        }
        if b.rich_us >= MIN_GATE_US && c.rich_us > 0 {
            checks.push(Check::ratio(
                &id,
                "compact/rich time ratio",
                b.compact_us as f64 / b.rich_us as f64,
                c.compact_us as f64 / c.rich_us as f64,
                max_pct,
            ));
        }
    }
    checks
}

fn walk<'a>(v: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    let mut cur = v;
    for p in path {
        cur = cur.get(p)?;
    }
    Some(cur)
}

/// One gate check: a metric of one entry, baseline vs current.
#[derive(Debug, Clone)]
pub struct Check {
    /// `name bound` of the entry.
    pub entry: String,
    /// Which metric was checked.
    pub metric: &'static str,
    /// Baseline value (counter, or time ratio).
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Whether this check fails the gate.
    pub regressed: bool,
}

impl Check {
    fn counter(entry: &str, metric: &'static str, base: u64, cur: u64, max_pct: f64) -> Check {
        let limit = base as f64 * (1.0 + max_pct / 100.0);
        Check {
            entry: entry.to_string(),
            metric,
            baseline: base as f64,
            current: cur as f64,
            // Tiny counters get an absolute grace of +2 so a 0→1 or 3→4
            // bookkeeping change cannot trip a percentage gate.
            regressed: (cur as f64) > limit && cur > base + 2,
        }
    }

    fn ratio(entry: &str, metric: &'static str, base: f64, cur: f64, max_pct: f64) -> Check {
        Check {
            entry: entry.to_string(),
            metric,
            baseline: base,
            current: cur,
            regressed: cur > base * (1.0 + max_pct / 100.0),
        }
    }
}

/// Diffs `current` against `baseline` with a `max_pct` percent regression
/// allowance. Returns every check performed (regressed or not), plus one
/// synthetic always-regressed check per baseline entry missing from the
/// current report.
pub fn compare(baseline: &[PerfEntry], current: &[PerfEntry], max_pct: f64) -> Vec<Check> {
    let mut checks = Vec::new();
    for b in baseline {
        let id = b.id();
        let Some(c) = current.iter().find(|c| c.name == b.name && c.bound == b.bound) else {
            checks.push(Check {
                entry: id,
                metric: "present",
                baseline: 1.0,
                current: 0.0,
                regressed: true,
            });
            continue;
        };
        checks.push(Check::counter(&id, "states", b.states, c.states, max_pct));
        checks.push(Check::counter(&id, "transitions", b.transitions, c.transitions, max_pct));
        checks.push(Check::counter(&id, "rounds", b.rounds, c.rounds, max_pct));
        checks.push(Check::counter(
            &id,
            "full_recomputes",
            b.full_recomputes,
            c.full_recomputes,
            max_pct,
        ));
        checks.push(Check::counter(
            &id,
            "inc_recomputes",
            b.inc_recomputes,
            c.inc_recomputes,
            max_pct,
        ));
        checks.push(Check::counter(
            &id,
            "inc_dirty_states",
            b.inc_dirty_states,
            c.inc_dirty_states,
            max_pct,
        ));
        checks.push(Check::counter(
            &id,
            "fused_recomputes",
            b.fused_recomputes,
            c.fused_recomputes,
            max_pct,
        ));
        // Time ratios: only meaningful when both runs' full engine spent
        // enough time for the ratio to be signal rather than scheduler
        // noise, and when the denominators are nonzero.
        if b.full_us >= MIN_GATE_US && c.full_us > 0 {
            checks.push(Check::ratio(
                &id,
                "inc/full time ratio",
                b.inc_us as f64 / b.full_us as f64,
                c.inc_us as f64 / c.full_us as f64,
                max_pct,
            ));
            checks.push(Check::ratio(
                &id,
                "fused/full time ratio",
                b.fused_us as f64 / b.full_us as f64,
                c.fused_us as f64 / c.full_us as f64,
                max_pct,
            ));
        }
    }
    checks
}

/// Renders the gate table and returns the number of regressed checks.
/// `print` receives one formatted line per check plus a summary line.
pub fn report(checks: &[Check], max_pct: f64, mut print: impl FnMut(&str)) -> usize {
    print(&format!(
        "{:<22} {:<22} {:>14} {:>14}  verdict (allowance {max_pct}%)",
        "entry", "metric", "baseline", "current"
    ));
    let mut regressions = 0usize;
    for c in checks {
        let fmt = |v: f64| {
            if c.metric.contains("ratio") {
                format!("{v:.3}")
            } else {
                format!("{v:.0}")
            }
        };
        let verdict = if c.regressed {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        print(&format!(
            "{:<22} {:<22} {:>14} {:>14}  {verdict}",
            c.entry,
            c.metric,
            fmt(c.baseline),
            fmt(c.current),
        ));
    }
    print(&format!(
        "perf gate: {} check(s), {} regression(s)",
        checks.len(),
        regressions
    ));
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, full_us: u64, inc_us: u64, inc_recomputes: u64) -> PerfEntry {
        PerfEntry {
            name: name.into(),
            bound: "2-2".into(),
            states: 1000,
            transitions: 4000,
            rounds: 10,
            full_recomputes: 10_000,
            inc_recomputes,
            inc_dirty_states: 2000,
            fused_recomputes: inc_recomputes,
            full_us,
            inc_us,
            fused_us: inc_us,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let base = vec![sample("a", 20_000, 8_000, 3000), sample("b", 900, 500, 100)];
        let checks = compare(&base, &base, 25.0);
        assert!(checks.iter().all(|c| !c.regressed), "{checks:?}");
        // The sub-threshold entry contributes no ratio checks.
        assert_eq!(
            checks.iter().filter(|c| c.metric.contains("ratio")).count(),
            2
        );
        assert_eq!(report(&checks, 25.0, |_| {}), 0);
    }

    #[test]
    fn counter_growth_beyond_allowance_regresses() {
        let base = vec![sample("a", 20_000, 8_000, 3000)];
        let cur = vec![sample("a", 20_000, 8_000, 4000)];
        let checks = compare(&base, &cur, 25.0);
        // `sample` ties fused_recomputes to inc_recomputes, so both trip.
        let bad: Vec<_> = checks.iter().filter(|c| c.regressed).collect();
        assert_eq!(bad.len(), 2, "{checks:?}");
        assert_eq!(bad[0].metric, "inc_recomputes");
        assert_eq!(bad[1].metric, "fused_recomputes");
        assert_eq!(report(&checks, 25.0, |_| {}), 2);
    }

    #[test]
    fn counter_shrink_and_small_allowance_pass() {
        let base = vec![sample("a", 20_000, 8_000, 3000)];
        // Shrinking counters is an improvement, never a regression.
        let cur = vec![sample("a", 20_000, 8_000, 100)];
        assert!(compare(&base, &cur, 25.0).iter().all(|c| !c.regressed));
        // Tiny counters get the +2 absolute grace.
        let mut b = sample("a", 20_000, 8_000, 3000);
        b.rounds = 1;
        let mut c = b.clone();
        c.rounds = 3;
        assert!(compare(&[b], &[c], 25.0).iter().all(|k| !k.regressed));
    }

    #[test]
    fn time_ratio_regression_trips_only_above_floor() {
        // Baseline: incremental at 0.4x full. Current: at 0.9x full.
        let base = vec![sample("a", 20_000, 8_000, 3000)];
        let cur = vec![sample("a", 20_000, 18_000, 3000)];
        let bad: Vec<_> = compare(&base, &cur, 25.0)
            .into_iter()
            .filter(|c| c.regressed)
            .collect();
        assert_eq!(bad.len(), 2, "inc/full and fused/full both regress");
        assert!(bad.iter().all(|c| c.metric.contains("ratio")));

        // Same shape under the floor: no ratio checks at all.
        let base = vec![sample("a", 2_000, 800, 3000)];
        let cur = vec![sample("a", 2_000, 1_800, 3000)];
        assert!(compare(&base, &cur, 25.0).iter().all(|c| !c.regressed));
    }

    #[test]
    fn missing_entry_is_a_regression() {
        let base = vec![sample("a", 20_000, 8_000, 3000), sample("b", 900, 500, 100)];
        let cur = vec![sample("a", 20_000, 8_000, 3000)];
        let checks = compare(&base, &cur, 25.0);
        let bad: Vec<_> = checks.iter().filter(|c| c.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "present");
        assert_eq!(bad[0].entry, "b 2-2");
    }

    #[test]
    fn store_entries_parse_and_gate() {
        let text = r#"{
  "schema": "bb-bench/perf-v2",
  "entries": [],
  "store_entries": [
    {"name": "treiber", "bound": "2-2", "states": 1616, "transitions": 4284,
     "rich": {"store_bytes": 400000, "min_wall_us": 9000},
     "compact": {"store_bytes": 50000, "raw_bytes": 48000, "stored_bytes": 30000,
                 "min_wall_us": 9500},
     "aut_identical": true}
  ]
}"#;
        let entries = parse_store_report(text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].id(), "treiber 2-2");
        assert_eq!(entries[0].rich_bytes, 400_000);
        assert_eq!(entries[0].compact_bytes, 50_000);

        // A pre-compact baseline has no store entries: no checks, no failure.
        assert_eq!(parse_store_report("{\"entries\": []}").unwrap(), vec![]);
        assert!(compare_store(&[], &entries, 25.0).iter().all(|c| !c.regressed));

        // Identical reports pass; a lost compression ratio regresses.
        assert!(compare_store(&entries, &entries, 25.0).iter().all(|c| !c.regressed));
        let mut worse = entries.clone();
        worse[0].compact_bytes = 200_000;
        let bad: Vec<_> = compare_store(&entries, &worse, 25.0)
            .into_iter()
            .filter(|c| c.regressed)
            .collect();
        assert!(bad.iter().any(|c| c.metric == "compact store bytes"), "{bad:?}");
        assert!(bad.iter().any(|c| c.metric == "compact/rich byte ratio"), "{bad:?}");

        // A dropped store entry fails the gate.
        let checks = compare_store(&entries, &[], 25.0);
        assert_eq!(checks.len(), 1);
        assert!(checks[0].regressed);
        assert_eq!(checks[0].metric, "store present");
    }

    #[test]
    fn parses_the_emitted_report_shape() {
        let text = r#"{
  "schema": "bb-bench/perf-v2",
  "equivalence": "branching", "jobs": 1, "fused_jobs": 8, "samples": 3,
  "entries": [
    {"name": "treiber", "bound": "2-2", "states": 1616, "transitions": 4284,
     "rounds": 12,
     "full": {"sig_recomputes": 19392, "peak_sig_bytes": 64, "min_wall_us": 1066},
     "incremental": {"sig_recomputes": 5000, "dirty_states": 4000, "peak_sig_bytes": 64, "min_wall_us": 600},
     "fused": {"jobs": 8, "sig_recomputes": 5000, "min_wall_us": 500},
     "partitions_equal": true}
  ]
}"#;
        let entries = parse_report(text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].id(), "treiber 2-2");
        assert_eq!(entries[0].full_recomputes, 19392);
        assert_eq!(entries[0].fused_us, 500);

        assert!(parse_report("{}").is_err());
        assert!(parse_report("{\"schema\": \"bb-bench/perf-v1\", \"entries\": []}").is_err());
        assert!(parse_report("nope").is_err());
    }
}
