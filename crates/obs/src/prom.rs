//! Prometheus text-format exposition: a hand-rolled, std-only encoder for
//! the serve daemon's `/metrics` endpoint, plus a strict linter the tests
//! and CI run against every scrape.
//!
//! Naming contract: every series the daemon exports is `bb_`-prefixed and
//! derived mechanically from the internal instrument name by
//! [`metric_name`] (`bisim.signature_recomputes` →
//! `bb_bisim_signature_recomputes`), so dashboards survive refactors that
//! keep instrument names stable. Histograms follow the Prometheus
//! convention exactly: cumulative `_bucket{le="..."}` series ending in
//! `le="+Inf"`, plus `_sum` and `_count`.

use crate::hot::HistogramSnapshot;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Maps an internal instrument name to its exported series name: `bb_`
/// prefix, every character outside `[a-zA-Z0-9_]` replaced by `_`.
pub fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 3);
    out.push_str("bb_");
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Incrementally builds one exposition document. Each emitter writes the
/// `# HELP` / `# TYPE` header followed by the sample line(s).
#[derive(Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        // HELP text: escape backslash and newline per the text format.
        let escaped: String = help
            .chars()
            .flat_map(|c| match c {
                '\\' => vec!['\\', '\\'],
                '\n' => vec!['\\', 'n'],
                c => vec![c],
            })
            .collect();
        let _ = writeln!(self.out, "# HELP {name} {escaped}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// One `counter` series.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One unlabelled `gauge` series.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One `gauge` family with a label per sample (e.g. per-state job
    /// counts). `samples` are `(label_key, label_value, value)` triples.
    pub fn gauge_labeled(&mut self, name: &str, help: &str, samples: &[(&str, &str, u64)]) {
        self.header(name, help, "gauge");
        for (k, v, value) in samples {
            let _ = writeln!(self.out, "{name}{{{k}=\"{v}\"}} {value}");
        }
    }

    /// One `histogram` family from a hot-path snapshot: cumulative
    /// `_bucket` series ending `+Inf`, then `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, snap: &HistogramSnapshot) {
        self.header(name, help, "histogram");
        let mut cumulative = 0u64;
        for (le, n) in &snap.buckets {
            cumulative += n;
            let _ = writeln!(self.out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(self.out, "{name}_sum {}", snap.sum);
        let _ = writeln!(self.out, "{name}_count {}", snap.count);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Whether `name` matches the Prometheus metric-name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// The base family name a sample belongs to: strips the histogram series
/// suffixes so `x_bucket`/`x_sum`/`x_count` all map to `x` when `x` was
/// declared as a histogram.
fn family_of<'a>(name: &'a str, types: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

/// Splits a sample line `name{labels} value` / `name value` into
/// `(name, labels_or_empty, value)`.
fn split_sample(line: &str) -> Result<(&str, &str, &str), String> {
    if let Some(open) = line.find('{') {
        let close = line
            .rfind('}')
            .ok_or_else(|| format!("unbalanced label braces: {line}"))?;
        if close < open {
            return Err(format!("unbalanced label braces: {line}"));
        }
        let name = &line[..open];
        let labels = &line[open + 1..close];
        let value = line[close + 1..].trim();
        Ok((name, labels, value))
    } else {
        let mut parts = line.splitn(2, ' ');
        let name = parts.next().unwrap_or("");
        let value = parts.next().unwrap_or("").trim();
        Ok((name, "", value))
    }
}

/// Strictly lints a text exposition document: name charset, HELP/TYPE
/// pairing and ordering, numeric sample values, monotone cumulative
/// histogram buckets terminated by `+Inf`, `_count` consistency, and no
/// duplicate series (name + label set).
pub fn lint(text: &str) -> Result<(), String> {
    let mut helps: HashSet<String> = HashSet::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut series: HashSet<String> = HashSet::new();
    // Per histogram family: the cumulative bucket trail and final count.
    let mut buckets: HashMap<String, Vec<(f64, u64)>> = HashMap::new();
    let mut counts: HashMap<String, u64> = HashMap::new();

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let tail = parts.next().unwrap_or("");
            match kind {
                "HELP" => {
                    if !valid_name(name) {
                        return Err(format!("line {lineno}: bad metric name in HELP: {name:?}"));
                    }
                    if tail.is_empty() {
                        return Err(format!("line {lineno}: HELP {name} has no text"));
                    }
                    if !helps.insert(name.to_string()) {
                        return Err(format!("line {lineno}: duplicate HELP for {name}"));
                    }
                }
                "TYPE" => {
                    if !valid_name(name) {
                        return Err(format!("line {lineno}: bad metric name in TYPE: {name:?}"));
                    }
                    if !matches!(tail, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        return Err(format!("line {lineno}: unknown TYPE {tail:?} for {name}"));
                    }
                    if types.insert(name.to_string(), tail.to_string()).is_some() {
                        return Err(format!("line {lineno}: duplicate TYPE for {name}"));
                    }
                }
                _ => return Err(format!("line {lineno}: unknown comment kind {kind:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: comments must start with '# '"));
        }
        let (name, labels, value) = split_sample(line)?;
        if !valid_name(name) {
            return Err(format!("line {lineno}: bad sample metric name {name:?}"));
        }
        let family = family_of(name, &types);
        if !helps.contains(family) {
            return Err(format!("line {lineno}: sample {name} has no preceding HELP {family}"));
        }
        if !types.contains_key(family) {
            return Err(format!("line {lineno}: sample {name} has no preceding TYPE {family}"));
        }
        let num: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value
                .parse()
                .map_err(|_| format!("line {lineno}: non-numeric sample value {value:?}"))?
        };
        if !series.insert(format!("{name}{{{labels}}}")) {
            return Err(format!("line {lineno}: duplicate series {name}{{{labels}}}"));
        }
        // Histogram structure checks.
        if types.get(family).map(String::as_str) == Some("histogram") {
            if name.ends_with("_bucket") {
                let le_raw = labels
                    .strip_prefix("le=\"")
                    .and_then(|r| r.strip_suffix('"'))
                    .ok_or_else(|| {
                        format!("line {lineno}: histogram bucket without le label: {line}")
                    })?;
                let le: f64 = if le_raw == "+Inf" {
                    f64::INFINITY
                } else {
                    le_raw
                        .parse()
                        .map_err(|_| format!("line {lineno}: bad le value {le_raw:?}"))?
                };
                let trail = buckets.entry(family.to_string()).or_default();
                if let Some(&(prev_le, prev_n)) = trail.last() {
                    if le <= prev_le {
                        return Err(format!(
                            "line {lineno}: {family} bucket le {le} not increasing after {prev_le}"
                        ));
                    }
                    if (num as u64) < prev_n {
                        return Err(format!(
                            "line {lineno}: {family} cumulative bucket count decreased"
                        ));
                    }
                }
                trail.push((le, num as u64));
            } else if name.ends_with("_count") {
                counts.insert(family.to_string(), num as u64);
            }
        }
    }

    for (family, trail) in &buckets {
        match trail.last() {
            Some(&(le, n)) if le.is_infinite() => {
                if let Some(&count) = counts.get(family) {
                    if count != n {
                        return Err(format!(
                            "{family}_count {count} disagrees with +Inf bucket {n}"
                        ));
                    }
                }
            }
            _ => return Err(format!("{family} buckets do not end with le=\"+Inf\"")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(buckets: Vec<(u64, u64)>, max: u64, sum: u64) -> HistogramSnapshot {
        let count = buckets.iter().map(|(_, n)| n).sum();
        HistogramSnapshot { count, max, sum, buckets }
    }

    #[test]
    fn metric_names_are_sanitized_and_prefixed() {
        assert_eq!(metric_name("bisim.signature_recomputes"), "bb_bisim_signature_recomputes");
        assert_eq!(metric_name("explore.shard_imbalance_pct"), "bb_explore_shard_imbalance_pct");
        assert!(valid_name(&metric_name("weird-name.with/chars")));
    }

    #[test]
    fn writer_output_passes_the_linter() {
        let mut w = PromWriter::new();
        w.counter("bb_jobs_submitted_total", "Jobs submitted.", 12);
        w.gauge("bb_queue_depth", "Queued jobs.", 3);
        w.gauge_labeled(
            "bb_jobs",
            "Jobs by state.",
            &[("state", "queued", 3), ("state", "running", 1)],
        );
        w.histogram(
            "bb_probe_len",
            "Seen-set probe lengths.",
            &snap(vec![(1, 2), (4, 5), (16, 1)], 9, 31),
        );
        let doc = w.finish();
        lint(&doc).unwrap();
        assert!(doc.contains("bb_probe_len_bucket{le=\"+Inf\"} 8"));
        assert!(doc.contains("bb_probe_len_sum 31"));
        assert!(doc.contains("bb_jobs{state=\"queued\"} 3"));
    }

    #[test]
    fn lint_rejects_bad_names_missing_type_and_duplicates() {
        assert!(lint("# HELP 9bad x\n# TYPE 9bad counter\n9bad 1\n").is_err());
        assert!(lint("# HELP ok x\nok 1\n").is_err(), "missing TYPE");
        assert!(lint("ok 1\n").is_err(), "missing HELP and TYPE");
        let dup = "# HELP a x\n# TYPE a counter\na 1\na 2\n";
        assert!(lint(dup).is_err(), "duplicate series");
        let dup_labels =
            "# HELP a x\n# TYPE a gauge\na{state=\"q\"} 1\na{state=\"q\"} 2\n";
        assert!(lint(dup_labels).is_err(), "duplicate labelled series");
        let distinct_labels =
            "# HELP a x\n# TYPE a gauge\na{state=\"q\"} 1\na{state=\"r\"} 2\n";
        lint(distinct_labels).unwrap();
    }

    #[test]
    fn lint_rejects_broken_histograms() {
        let unordered = "# HELP h x\n# TYPE h histogram\n\
             h_bucket{le=\"4\"} 1\nh_bucket{le=\"2\"} 2\n\
             h_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n";
        assert!(lint(unordered).is_err(), "le must increase");
        let shrinking = "# HELP h x\n# TYPE h histogram\n\
             h_bucket{le=\"2\"} 5\nh_bucket{le=\"4\"} 3\n\
             h_bucket{le=\"+Inf\"} 3\nh_sum 3\nh_count 3\n";
        assert!(lint(shrinking).is_err(), "cumulative counts must not shrink");
        let no_inf = "# HELP h x\n# TYPE h histogram\n\
             h_bucket{le=\"2\"} 1\nh_sum 1\nh_count 1\n";
        assert!(lint(no_inf).is_err(), "buckets must end at +Inf");
        let mismatch = "# HELP h x\n# TYPE h histogram\n\
             h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n";
        assert!(lint(mismatch).is_err(), "_count must equal the +Inf bucket");
    }

    #[test]
    fn empty_histogram_snapshot_is_still_a_valid_family() {
        let mut w = PromWriter::new();
        w.histogram("bb_empty", "Never recorded.", &snap(vec![], 0, 0));
        let doc = w.finish();
        lint(&doc).unwrap();
        assert!(doc.contains("bb_empty_bucket{le=\"+Inf\"} 0"));
        assert!(doc.contains("bb_empty_count 0"));
    }
}
