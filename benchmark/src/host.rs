//! The host: its description for the results file, and its current speed.
//!
//! The CPUs this benchmark runs on are shared, and their speed drifts by
//! tens of percent over minutes while other tenants come and go. A run
//! therefore also times a fixed reference kernel, once before every `bbv`
//! run, and scales its times by how fast the kernel ran (see
//! [`speed_factor`]). The kernel uses no code of this repository, so no
//! change to `bbv` can move it.

use bb_obs::json::JsonValue;
use std::collections::HashMap;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// The reference kernel's time on the host the baseline was measured on,
/// in milliseconds: the unit scale of every time metric.
pub const REFERENCE_MS: f64 = 40.0;

/// Runs the reference kernel once and returns its wall-clock in
/// milliseconds. It does what dominates `bbv`: hash-table inserts and
/// probes over a few MiB, and a sort.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = black_box(1);
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut map: HashMap<u64, u32> = HashMap::new();
    let mut keys: Vec<u64> = Vec::with_capacity(1 << 18);
    for i in 0..1u32 << 18 {
        let k = next() & 0x7_FFFF;
        map.insert(k, i);
        keys.push(k);
    }
    let mut hits = 0u64;
    for _ in 0..1 << 19 {
        if let Some(v) = map.get(&(next() & 0x7_FFFF)) {
            hits = hits.wrapping_add(u64::from(*v));
        }
    }
    keys.sort_unstable();
    black_box((hits, keys[keys.len() / 2]));
    start.elapsed().as_secs_f64() * 1e3
}

/// The factor that turns wall-clock measured alongside `kernel_ms` (the
/// reference kernel's times) into reference-host time: [`REFERENCE_MS`]
/// over their mean with the fastest and slowest fifth dropped. The kernel
/// is short, so single runs that caught a burst of contention are common;
/// trimming them beat both the median and the plain mean at keeping runs
/// of the same work apart by the least.
pub fn speed_factor(kernel_ms: &[f64]) -> f64 {
    REFERENCE_MS / crate::stats::trimmed_mean(kernel_ms, 0.2)
}

/// First line of a command's stdout, or `unknown`.
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU count, CPU model and compiler, for the results file.
pub fn describe() -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    JsonValue::Obj(vec![
        ("nproc".into(), JsonValue::Num(nproc as f64)),
        ("cpu".into(), JsonValue::Str(cpu)),
        (
            "rustc".into(),
            JsonValue::Str(first_line_of("rustc", &["--version"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_factor_scales_to_the_reference() {
        assert_eq!(speed_factor(&[80.0, 40.0, 40.0, 40.0, 1.0]), 1.0);
        assert_eq!(speed_factor(&[80.0]), 0.5);
        assert!(reference_ms() > 0.0);
    }
}
