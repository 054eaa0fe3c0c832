//! The metric table, the per-run results file, and `compare`.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a unit
//! test keeps the two in step.

use crate::stats::{geomean, median, quartiles};
use crate::traced::Span;
use bb_obs::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An end-to-end metric: lower is better; `bound` is the share of the
/// baseline median by which it may get worse before `compare` fails.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "verify_ms.geomean",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "sweep_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms.geomean",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb.max",
        unit: "MB",
        bound: 0.05,
    },
];

/// Where a per-layer metric comes from.
enum Source {
    /// Wall-clock of the named spans.
    Ms(&'static str),
    /// A count recorded on the named spans.
    Count(&'static str, &'static str),
    /// A byte count recorded on the named spans, in MiB.
    Mib(&'static str, &'static str),
    /// Spill segment files counted after each timed run.
    SpillSegments,
    /// Bytes of those files.
    SpillBytes,
    /// A `bbv` run minus the traced layers that follow it.
    Unattributed,
}

/// A per-layer metric (lower is better; no bound).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    source: Source,
}

const fn layer(name: &'static str, unit: &'static str, source: Source) -> Layer {
    Layer { name, unit, source }
}

pub const PER_LAYER: &[Layer] = &[
    layer("sim.explore_impl.ms", "ms", Source::Ms("sim.explore_impl")),
    layer(
        "sim.explore_impl.states",
        "count",
        Source::Count("sim.explore_impl", "states"),
    ),
    layer(
        "sim.explore_impl.transitions",
        "count",
        Source::Count("sim.explore_impl", "transitions"),
    ),
    layer(
        "sim.explore_impl.peak_alloc_mb",
        "MB",
        Source::Mib("sim.explore_impl", "peak_alloc_bytes"),
    ),
    layer("sim.explore_spec.ms", "ms", Source::Ms("sim.explore_spec")),
    layer(
        "sim.explore_spec.states",
        "count",
        Source::Count("sim.explore_spec", "states"),
    ),
    layer(
        "bisim.partition_impl.ms",
        "ms",
        Source::Ms("bisim.partition_impl"),
    ),
    layer(
        "bisim.partition_impl.blocks",
        "count",
        Source::Count("bisim.partition_impl", "blocks"),
    ),
    layer(
        "bisim.partition_impl.peak_alloc_mb",
        "MB",
        Source::Mib("bisim.partition_impl", "peak_alloc_bytes"),
    ),
    layer(
        "bisim.partition_spec.ms",
        "ms",
        Source::Ms("bisim.partition_spec"),
    ),
    layer(
        "bisim.partition_spec.blocks",
        "count",
        Source::Count("bisim.partition_spec", "blocks"),
    ),
    layer("bisim.quotient.ms", "ms", Source::Ms("bisim.quotient")),
    layer("refine.inclusion.ms", "ms", Source::Ms("refine.inclusion")),
    layer(
        "refine.inclusion.product_states",
        "count",
        Source::Count("refine.inclusion", "product_states"),
    ),
    layer("bisim.div_check.ms", "ms", Source::Ms("bisim.div_check")),
    layer(
        "bisim.div_check.peak_alloc_mb",
        "MB",
        Source::Mib("bisim.div_check", "peak_alloc_bytes"),
    ),
    layer("bisim.divergence.ms", "ms", Source::Ms("bisim.divergence")),
    layer(
        "bisim.divergence.lasso_steps",
        "count",
        Source::Count("bisim.divergence", "lasso_steps"),
    ),
    layer(
        "core.verify_governed.ms",
        "ms",
        Source::Ms("core.verify_governed"),
    ),
    layer(
        "core.verify_governed.below_direct",
        "count",
        Source::Count("core.verify_governed", "below_direct"),
    ),
    layer("persist.spill.segments", "count", Source::SpillSegments),
    layer("persist.spill.bytes", "bytes", Source::SpillBytes),
    layer("bbv.unattributed_ms", "ms", Source::Unattributed),
];

/// The timed samples of one instance.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    pub rss_mb: Vec<f64>,
    pub spill_segments: Vec<f64>,
    pub spill_bytes: Vec<f64>,
    /// The reference kernel's time just before each sample.
    pub kernel_ms: Vec<f64>,
}

/// The end-to-end metrics of one run, in [`END_TO_END`] order. Times of
/// the set-up and of the timed phase are multiplied by `speed[0]` and
/// `speed[1]`, the host speed factors measured in each phase.
pub fn end_to_end(setup_passes_s: &[f64], samples: &[Samples], speed: [f64; 2]) -> Vec<f64> {
    let medians = |f: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        samples.iter().map(|s| median(f(s))).collect()
    };
    let wall = medians(|s| &s.wall_ms);
    vec![
        median(setup_passes_s) * speed[0],
        geomean(&wall) * speed[1],
        wall.iter().sum::<f64>() / 1e3 * speed[1],
        geomean(&medians(|s| &s.cpu_ms)) * speed[1],
        medians(|s| &s.rss_mb).into_iter().fold(f64::NAN, f64::max),
    ]
}

/// Per-layer values of each instance, one row per instance in
/// [`PER_LAYER`] order, derived from the spans of the traced pass and the
/// timed samples. A layer's value is the median over repetitions of the sum
/// over its spans; a metric is the sum of its column over instances.
/// `labels[i]` names the instance of `samples[i]`. Times are as measured,
/// not scaled by host speed: the kernel runs differently in a process that
/// has just freed the heap of a traced instance, so its factor would not
/// compare with the timed phase's. Each traced instance is paired with the
/// `bbv` run just before it instead.
pub fn per_layer(spans: &[Span], labels: &[String], samples: &[Samples]) -> Vec<Vec<f64>> {
    labels
        .iter()
        .zip(samples)
        .map(|(label, s)| {
            let mut reps: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
            for sp in spans.iter().filter(|sp| &sp.instance == label) {
                reps.entry(sp.rep).or_default().push(sp);
            }
            let per_rep = |value: &dyn Fn(&[&Span]) -> f64| -> f64 {
                let v: Vec<f64> = reps.values().map(|ss| value(ss)).collect();
                if v.is_empty() {
                    0.0
                } else {
                    median(&v)
                }
            };
            let over = |name: &str, f: &dyn Fn(&Span) -> f64| {
                per_rep(&|ss| ss.iter().filter(|sp| sp.name == name).map(|sp| f(sp)).sum())
            };
            PER_LAYER
                .iter()
                .map(|m| match m.source {
                    Source::Ms(name) => over(name, &Span::ms),
                    Source::Count(name, key) => over(name, &|sp| sp.count(key)),
                    Source::Mib(name, key) => over(name, &|sp| sp.count(key) / (1024.0 * 1024.0)),
                    Source::SpillSegments => median(&s.spill_segments),
                    Source::SpillBytes => median(&s.spill_bytes),
                    // Top-level layers are the children of the instance's
                    // root span; nested spans decompose their parent.
                    Source::Unattributed => per_rep(&|ss| {
                        let roots: Vec<usize> = ss
                            .iter()
                            .filter(|sp| sp.parent.is_none())
                            .map(|sp| sp.id)
                            .collect();
                        let layers: f64 = ss
                            .iter()
                            .filter(|sp| sp.parent.is_some_and(|p| roots.contains(&p)))
                            .map(|sp| sp.ms())
                            .sum();
                        let bbv: f64 = ss
                            .iter()
                            .filter(|sp| sp.name == "bbv")
                            .map(|sp| sp.ms())
                            .sum();
                        bbv - layers
                    }),
                })
                .collect()
        })
        .collect()
}

/// Column sums of per-instance rows: the per-layer metrics of the run.
pub fn totals(rows: &[Vec<f64>]) -> Vec<f64> {
    (0..PER_LAYER.len())
        .map(|j| rows.iter().map(|r| r[j]).sum())
        .collect()
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json<'a>(rows: impl Iterator<Item = (&'a str, &'a str, f64)>) -> JsonValue {
    JsonValue::Obj(
        rows.map(|(name, unit, value)| {
            (
                name.to_string(),
                JsonValue::Obj(vec![
                    ("value".into(), JsonValue::Num(value)),
                    ("unit".into(), JsonValue::Str(unit.into())),
                ]),
            )
        })
        .collect(),
    )
}

/// `{"median": .., "q1": .., "q3": .., "n": ..}` of samples.
pub fn summary_json(xs: &[f64]) -> JsonValue {
    let (q1, q3) = quartiles(xs);
    JsonValue::Obj(vec![
        ("median".into(), JsonValue::Num(median(xs))),
        ("q1".into(), JsonValue::Num(q1)),
        ("q3".into(), JsonValue::Num(q3)),
        ("n".into(), JsonValue::Num(xs.len() as f64)),
    ])
}

/// The runs of one set, per workload: each end-to-end metric's values, and
/// the failed and attempted counts.
#[derive(Default)]
struct SetRuns {
    values: BTreeMap<String, Vec<f64>>,
    failed: f64,
    attempted: f64,
}

fn load_set(docs: &[JsonValue]) -> Result<BTreeMap<String, SetRuns>, String> {
    let mut sets: BTreeMap<String, SetRuns> = BTreeMap::new();
    for d in docs {
        let workload = d
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("results file without a workload")?;
        let num = |k: &str| match d.get(k) {
            Some(JsonValue::Num(n)) => Ok(*n),
            _ => Err(format!("results file without `{k}`")),
        };
        let set = sets.entry(workload.to_string()).or_default();
        set.failed += num("failed")?;
        set.attempted += num("attempted")?;
        for m in END_TO_END {
            if let Some(JsonValue::Num(v)) = d
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|x| x.get("value"))
            {
                set.values.entry(m.name.to_string()).or_default().push(*v);
            }
        }
    }
    Ok(sets)
}

/// Compares two sets of results files, baseline `a` against candidate `b`.
/// Returns the report and whether any end-to-end metric got worse than its
/// bound or the failed share rose.
pub fn compare(a: &[JsonValue], b: &[JsonValue]) -> Result<(String, bool), String> {
    let (a, b) = (load_set(a)?, load_set(b)?);
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<15} {:<18} {:>24} {:>24} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    let workloads: Vec<&String> = a
        .keys()
        .chain(b.keys().filter(|k| !a.contains_key(*k)))
        .collect();
    for w in workloads {
        let (Some(sa), Some(sb)) = (a.get(w), b.get(w)) else {
            let _ = writeln!(out, "{w:<15} present in only one set: regression");
            regressed = true;
            continue;
        };
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (sa.values.get(m.name), sb.values.get(m.name)) else {
                let _ = writeln!(out, "{w:<15} {:<18} missing in a set: regression", m.name);
                regressed = true;
                continue;
            };
            let cell = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{q1:.4}, {q3:.4}]", median(v))
            };
            let delta = median(vb) / median(va) - 1.0;
            let worse = delta > m.bound;
            regressed |= worse;
            let _ = writeln!(
                out,
                "{w:<15} {:<18} {:>24} {:>24} {:>+7.2}% {:>5.1}%  {}",
                m.name,
                cell(va),
                cell(vb),
                delta * 100.0,
                m.bound * 100.0,
                if worse { "WORSE" } else { "ok" }
            );
        }
        let share = |s: &SetRuns| s.failed / s.attempted.max(1.0);
        let rose = share(sb) > share(sa);
        regressed |= rose;
        let _ = writeln!(
            out,
            "{w:<15} {:<18} {:>24} {:>24} {:>8} {:>6}  {}",
            "failed_share",
            format!("{}/{}", sa.failed, sa.attempted),
            format!("{}/{}", sb.failed, sb.attempted),
            "",
            "0",
            if rose { "ROSE" } else { "ok" }
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, verify_ms: f64, failed: f64) -> JsonValue {
        let rows = END_TO_END.iter().map(|m| {
            let v = if m.name == "verify_ms.geomean" {
                verify_ms
            } else {
                1.0
            };
            (m.name, m.unit, v)
        });
        JsonValue::Obj(vec![
            ("workload".into(), JsonValue::Str(workload.into())),
            ("attempted".into(), JsonValue::Num(10.0)),
            ("failed".into(), JsonValue::Num(failed)),
            ("metrics".into(), metrics_json(rows)),
        ])
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let a = [result("refuted", 100.0, 0.0), result("refuted", 102.0, 0.0)];
        let same = [result("refuted", 103.0, 0.0)];
        let (report, regressed) = compare(&a, &same).unwrap();
        assert!(!regressed, "{report}");
        let slower = [result("refuted", 130.0, 0.0)];
        assert!(compare(&a, &slower).unwrap().1);
        let failing = [result("refuted", 100.0, 1.0)];
        let (report, regressed) = compare(&a, &failing).unwrap();
        assert!(regressed && report.contains("ROSE"), "{report}");
        assert!(compare(&a, &[result("governed", 100.0, 0.0)]).unwrap().1);
    }

    #[test]
    fn end_to_end_reads_medians() {
        let s = |wall: &[f64], rss: f64| Samples {
            wall_ms: wall.to_vec(),
            cpu_ms: wall.to_vec(),
            rss_mb: vec![rss],
            ..Samples::default()
        };
        let samples = [s(&[10.0, 12.0, 11.0], 5.0), s(&[1000.0], 9.0)];
        let m = end_to_end(&[3.0, 1.0, 2.0], &samples, [1.0, 1.0]);
        assert_eq!(m[0], 2.0);
        assert!((m[1] - (11.0 * 1000.0_f64).sqrt()).abs() < 1e-9);
        assert!((m[2] - 1.011).abs() < 1e-12);
        assert_eq!(m[4], 9.0);
        // Host speed scales the times of its phase, never the RSS.
        let scaled = end_to_end(&[3.0, 1.0, 2.0], &samples, [0.5, 2.0]);
        assert_eq!(scaled[0], 1.0);
        assert!((scaled[2] - 2.022).abs() < 1e-12);
        assert_eq!(scaled[3], m[3] * 2.0);
        assert_eq!(scaled[4], 9.0);
    }

    #[test]
    fn per_layer_sums_medians_and_leaves_nested_spans_out_of_the_total() {
        let span = |id, parent, name: &str, rep, ms: f64| Span {
            id,
            parent,
            name: name.into(),
            instance: "x".into(),
            rep,
            start_us: 0.0,
            end_us: ms * 1e3,
            counts: vec![("states".into(), 7.0)],
        };
        let spans = vec![
            span(0, None, "bbv", 0, 100.0),
            span(1, None, "instance", 0, 50.0),
            span(2, Some(1), "core.verify_governed", 0, 40.0),
            span(3, Some(2), "sim.explore_impl", 0, 30.0),
            span(4, None, "bbv", 1, 100.0),
            span(5, None, "instance", 1, 70.0),
            span(6, Some(5), "core.verify_governed", 1, 60.0),
            span(7, Some(6), "sim.explore_impl", 1, 10.0),
        ];
        let samples = [Samples {
            spill_segments: vec![2.0, 4.0],
            ..Samples::default()
        }];
        let labels = ["x".to_string()];
        let v = totals(&per_layer(&spans, &labels, &samples));
        let at = |name: &str| PER_LAYER.iter().position(|m| m.name == name).unwrap();
        assert_eq!(v[at("sim.explore_impl.ms")], 20.0);
        assert_eq!(v[at("sim.explore_impl.states")], 7.0);
        assert_eq!(v[at("core.verify_governed.ms")], 50.0);
        assert_eq!(v[at("bbv.unattributed_ms")], 50.0);
        assert_eq!(v[at("persist.spill.segments")], 3.0);
        assert_eq!(v[at("bisim.div_check.ms")], 0.0);
    }

    /// `BENCHMARK.json` describes exactly the metrics this table computes.
    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = bb_obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |k: &str| doc.get(k).and_then(JsonValue::as_array).unwrap().to_vec();
        let field =
            |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).unwrap().to_string();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (field(j, "name"), field(j, "unit")),
                (m.name.into(), m.unit.into())
            );
            assert_eq!(field(j, "better"), "lower");
            assert_eq!(j.get("bound"), Some(&JsonValue::Num(m.bound)));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(j, "name"), field(j, "unit")),
                (m.name.into(), m.unit.into())
            );
        }
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, crate::pool::WORKLOADS);
    }
}
