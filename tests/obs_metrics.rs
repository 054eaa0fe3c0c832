//! Schema tests for `bbv --metrics` / `--trace` (bb-obs export formats).
//!
//! Wall-clock values vary run to run, so the snapshot masks every timing
//! field (all of which end in `_us` by construction) and pins the *shape*:
//! which spans exist, how they nest, and which counters are reported.

use bb_obs::json::{parse, JsonValue};
use std::process::Command;

fn bbv(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bbv"))
        .args(args)
        .output()
        .expect("bbv runs")
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bbv_obs_{name}_{}", std::process::id()))
}

/// Runs a small verify with both exports on and returns (metrics, trace).
fn capture(test: &str, algo: &str) -> (JsonValue, String) {
    let m = tmp(&format!("{test}_m.json"));
    let t = tmp(&format!("{test}_t.ndjson"));
    let out = bbv(&[
        "verify", algo, "--threads", "2", "--ops", "1", "--domain", "1",
        "--metrics", m.to_str().unwrap(), "--trace", t.to_str().unwrap(),
    ]);
    assert!(out.status.code().is_some(), "bbv died: {out:?}");
    let metrics = parse(&std::fs::read_to_string(&m).unwrap()).expect("metrics is valid JSON");
    let trace = std::fs::read_to_string(&t).unwrap();
    let _ = std::fs::remove_file(m);
    let _ = std::fs::remove_file(t);
    (metrics, trace)
}

#[test]
fn metrics_document_has_the_v1_schema() {
    let (doc, _) = capture("schema", "ms-queue");
    let obj = doc.as_object().expect("top level is an object");
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["schema", "meta", "elapsed_us", "spans", "counters", "histograms"],
        "top-level key set/order changed"
    );
    assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("bb-obs/v1"));

    let meta = doc.get("meta").and_then(JsonValue::as_object).expect("meta object");
    let meta_keys: Vec<&str> = meta.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(meta_keys, ["command", "algorithm", "threads", "ops", "jobs"]);
    assert_eq!(doc.get("meta").unwrap().get("command").unwrap().as_str(), Some("verify"));
    assert_eq!(doc.get("meta").unwrap().get("algorithm").unwrap().as_str(), Some("ms-queue"));

    assert!(doc.get("elapsed_us").unwrap().as_u64().is_some());
}

#[test]
fn span_tree_covers_every_pipeline_phase() {
    let (doc, _) = capture("spans", "ms-queue");
    let spans = doc.get("spans").and_then(JsonValue::as_array).expect("spans array");
    assert!(!spans.is_empty());

    // Every span carries the fixed field set; timing values are masked, the
    // schema (key names and nesting) is the snapshot.
    let mut names = Vec::new();
    let mut depth_of = std::collections::HashMap::new();
    for s in spans {
        let obj = s.as_object().expect("span is an object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["id", "parent", "name", "depth", "start_us", "wall_us", "fields"]);
        let id = s.get("id").unwrap().as_u64().unwrap();
        let depth = s.get("depth").unwrap().as_u64().unwrap();
        depth_of.insert(id, depth);
        match s.get("parent").unwrap().as_u64() {
            None => assert_eq!(depth, 0, "only the root span has no parent"),
            Some(p) => assert_eq!(depth, depth_of[&p] + 1, "depth is parent depth + 1"),
        }
        names.push(s.get("name").unwrap().as_str().unwrap().to_string());
    }

    // The phase vocabulary of the verify pipeline.
    assert_eq!(names[0], "bbv", "root span");
    for phase in ["explore.system", "explore", "lin", "bisim", "bisim.round", "quotient",
                  "refine", "lockfree"] {
        assert!(names.iter().any(|n| n == phase), "missing phase `{phase}` in {names:?}");
    }
}

#[test]
fn counters_report_the_hot_path_instruments() {
    let (doc, _) = capture("counters", "ms-queue");
    let counters = doc.get("counters").and_then(JsonValue::as_object).expect("counters object");
    let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
    for c in ["bisim.signature_recomputes", "bisim.rounds", "lts.tau_closure_builds",
              "refine.product_states", "explore.frontier_depth"] {
        assert!(names.contains(&c), "missing counter `{c}` in {names:?}");
    }
    // Sorted by name: machine-diffable across runs.
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
    // A 2-1 MS-queue run definitely refines signatures.
    let recomputes = counters.iter().find(|(k, _)| k == "bisim.signature_recomputes").unwrap();
    assert!(recomputes.1.as_u64().unwrap() > 0);
}

#[test]
fn trace_is_valid_ndjson_with_matched_begin_end() {
    let (doc, trace) = capture("trace", "ms-queue");
    let span_count = doc.get("spans").and_then(JsonValue::as_array).unwrap().len();

    let mut begins = 0usize;
    let mut ends = 0usize;
    let mut last_seq = None;
    let mut saw_counters = false;
    let mut saw_histograms = false;
    for (i, line) in trace.lines().enumerate() {
        let ev = parse(line).unwrap_or_else(|e| panic!("line {} is not JSON ({e}): {line}", i + 1));
        match ev.get("ev").and_then(JsonValue::as_str) {
            Some("begin") => begins += 1,
            Some("end") => ends += 1,
            Some("diag") => {}
            Some("counters") => saw_counters = true,
            Some("histograms") => {
                saw_histograms = true;
                let values = ev.get("values").and_then(JsonValue::as_object).unwrap();
                for (name, h) in values {
                    assert!(h.get("count").and_then(JsonValue::as_u64).is_some(), "{name}");
                    assert!(h.get("sum").and_then(JsonValue::as_u64).is_some(), "{name}");
                }
            }
            other => panic!("unknown event kind {other:?} on line {}", i + 1),
        }
        if let Some(seq) = ev.get("seq").and_then(JsonValue::as_u64) {
            assert!(last_seq < Some(seq), "seq must increase monotonically");
            last_seq = Some(seq);
        }
    }
    assert_eq!(begins, span_count, "one begin event per span");
    assert_eq!(ends, span_count, "one end event per span");
    assert!(saw_counters, "trace carries a counters summary event");
    assert!(saw_histograms, "trace ends with a histograms summary event");
}

/// A run the governed ladder answers at a reduced bound still writes the
/// `histograms` member: the seen-set probe lengths of its explorations, as
/// `[upper_bound, count]` bucket pairs.
#[test]
fn histograms_appear_on_reduced_runs() {
    let m = tmp("hist_m.json");
    let out = bbv(&[
        "verify", "treiber", "--threads", "2", "--ops", "2", "--domain", "1",
        "--max-states", "300", "--metrics", m.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("answered by the reduced-bound rung"), "{text}");
    let doc = parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
    let _ = std::fs::remove_file(m);
    let hist = doc.get("histograms").and_then(JsonValue::as_object).expect("histograms object");
    let probes = hist.iter().find(|(k, _)| k == "explore.seen_probe_len");
    let (_, probes) = probes.expect("exploration records the seen-set probe-length histogram");
    assert!(probes.get("count").unwrap().as_u64().unwrap() > 0);
    let buckets = probes.get("buckets").and_then(JsonValue::as_array).unwrap();
    for b in buckets {
        let pair = b.as_array().expect("bucket is a [upper_bound, count] pair");
        assert_eq!(pair.len(), 2);
    }
}

/// Δ is partitioned once per verify, on the unbudgeted path and on the
/// governed ladder alike: exactly one Branching `bisim` span covers |Δ|.
/// Lock-freedom is one τ-cycle search: no `BranchingDiv` refinement runs,
/// and the `lockfree` span has exactly one `divergence` child.
#[test]
fn delta_is_partitioned_once_and_lock_freedom_is_one_divergence_pass() {
    for budget in [&[][..], &["--max-states", "1e7"][..]] {
        let m = tmp(&format!("once_{}.json", budget.len()));
        let mut args = vec![
            "verify", "ms-queue", "--threads", "2", "--ops", "2", "--metrics", m.to_str().unwrap(),
        ];
        args.extend_from_slice(budget);
        let out = bbv(&args);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let doc = parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
        let _ = std::fs::remove_file(&m);
        let spans = doc.get("spans").and_then(JsonValue::as_array).unwrap();
        let field = |s: &JsonValue, k: &str| s.get("fields").unwrap().get(k).cloned();
        let id = |s: &JsonValue| s.get("id").and_then(JsonValue::as_u64);
        let mut lockfree = None;
        let mut delta = None;
        // (eq, states) of every partition refinement.
        let mut bisims = Vec::new();
        // Parent ids of the `divergence` spans.
        let mut divergence_parents = Vec::new();
        for s in spans {
            match s.get("name").and_then(JsonValue::as_str) {
                Some("lockfree") => {
                    lockfree = id(s);
                    delta = field(s, "impl_states").and_then(|v| v.as_u64());
                }
                Some("bisim") => bisims.push((
                    field(s, "eq").and_then(|v| v.as_str().map(str::to_owned)).unwrap(),
                    field(s, "states").and_then(|v| v.as_u64()).unwrap(),
                )),
                Some("divergence") => {
                    divergence_parents.push(s.get("parent").and_then(JsonValue::as_u64))
                }
                _ => {}
            }
        }
        let delta = delta.expect("a lockfree span");
        let over_delta = bisims.iter().filter(|(eq, n)| eq == "Branching" && *n == delta);
        assert_eq!(over_delta.count(), 1, "{budget:?}: Branching partitions of |Δ| = {delta}");
        assert!(
            bisims.iter().all(|(eq, _)| eq != "BranchingDiv"),
            "{budget:?}: no ≈div refinement in {bisims:?}"
        );
        assert_eq!(
            divergence_parents,
            [lockfree],
            "{budget:?}: one divergence pass, under the lockfree span"
        );
        let seed_hits = doc
            .get("counters")
            .and_then(|c| c.get("persist.seed_hits"))
            .and_then(JsonValue::as_u64);
        assert_eq!(seed_hits, Some(0), "{budget:?}: no checkpoint seeds a plain run");
    }
}
