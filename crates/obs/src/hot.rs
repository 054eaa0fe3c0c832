//! Hot-path instruments: statically allocated counters, gauges, and
//! log2-bucket histograms.
//!
//! These live in the innermost loops (signature recomputation, τ-closure
//! construction, the seen-set probe, the parallel shard merge), so the
//! design rule is: **one relaxed load when recording is off, one relaxed
//! RMW when it is on**. No locks, no allocation, no branches on anything
//! but the global enable flag.
//!
//! Every instrument is registered in a static table so `install` can reset
//! them and `finish` can snapshot them without the hot paths knowing.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::enabled;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing event counter.
pub struct Counter {
    name: &'static str,
    cell: AtomicU64,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            cell: AtomicU64::new(0),
        }
    }

    /// Bump by `n`. No-op (one relaxed load) when recording is off.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Bump by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A last-value instrument (e.g. current BFS frontier depth). Also tracks
/// the high-water mark so the summary can report the peak.
pub struct Gauge {
    name: &'static str,
    cell: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            cell: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Set the current value. No-op when recording is off.
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.cell.store(v, Ordering::Relaxed);
            self.peak.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `k` (k ≥ 1)
/// holds values `v` with `2^(k-1) <= v < 2^k`; the last bucket is a
/// catch-all for anything larger.
const HIST_BUCKETS: usize = 33;

/// A lock-free power-of-two histogram for size distributions (seen-set
/// probe lengths, per-shard imbalance percentages).
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    max: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            buckets: [ZERO; HIST_BUCKETS],
            max: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation. No-op when recording is off.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        let bucket = if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Snapshot to (upper-bound, count) pairs for non-empty buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                // Upper bound (exclusive) of the bucket: 2^i, with bucket 0
                // meaning "exactly zero" (bound 1).
                let le = if i == 0 { 1 } else { 1u64 << i.min(63) };
                buckets.push((le, n));
                count += n;
            }
        }
        HistogramSnapshot {
            count,
            max: self.max.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.max.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Materialized histogram contents: total count, observed max, summed
/// observations, and `(exclusive_upper_bound, count)` pairs for non-empty
/// log2 buckets.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub max: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64)>,
}

// ---------------------------------------------------------------------------
// The workspace instrument registry
// ---------------------------------------------------------------------------

/// States whose branching-bisimulation signature was recomputed, summed
/// over refinement rounds (the dominant cost of partition refinement).
pub static SIG_STATE_RECOMPUTES: Counter = Counter::new("bisim.signature_recomputes");
/// Completed signature-refinement rounds across all partition calls.
pub static SIG_ROUNDS: Counter = Counter::new("bisim.rounds");
/// States on the incremental refinement worklist at round start (moved
/// states plus their predecessors, closed as the equivalence requires),
/// summed over rounds. Full-mode rounds count every state.
pub static SIG_DIRTY_STATES: Counter = Counter::new("bisim.dirty_states");
/// Signature-interning lookups that found the signature already in the
/// hash-consing arena (the split then compares two `u32`s, no re-hash).
pub static SIG_CACHE_HITS: Counter = Counter::new("bisim.sig_cache_hits");
/// Refinement rounds that reused the inert-τ SCC condensation unchanged
/// (no τ-edge in any component changed inertness).
pub static SIG_CONDENSATION_REUSES: Counter = Counter::new("bisim.condensation_reuses");
/// τ-closure (condensed SCC reachability) constructions.
pub static TAU_CLOSURE_BUILDS: Counter = Counter::new("lts.tau_closure_builds");
/// Product states expanded by the antichain trace-refinement check.
pub static REFINE_PRODUCT_STATES: Counter = Counter::new("refine.product_states");
/// Distinct spec-subset vectors interned by trace refinement.
pub static REFINE_SUBSETS: Counter = Counter::new("refine.spec_subsets");
/// Product states expanded by the Büchi LTL check.
pub static LTL_PRODUCT_STATES: Counter = Counter::new("ltl.product_states");
/// Checkpoint sections submitted to the persistence sink.
pub static CKPT_SECTIONS: Counter = Counter::new("persist.checkpoint_sections");
/// Bytes written by checkpoint persists (payloads, before framing).
pub static CKPT_BYTES: Counter = Counter::new("persist.checkpoint_bytes");
/// Pipeline stages that skipped work by consuming a checkpoint seed.
pub static CKPT_SEED_HITS: Counter = Counter::new("persist.seed_hits");
/// Result-cache lookups that replayed a stored entry.
pub static CACHE_HITS: Counter = Counter::new("persist.cache_hits");
/// Result-cache lookups that fell through to a recompute.
pub static CACHE_MISSES: Counter = Counter::new("persist.cache_misses");
/// Cache entries rejected by checksum/format validation (then recomputed).
pub static CACHE_CORRUPT: Counter = Counter::new("persist.cache_corrupt");
/// Faults fired by the deterministic `BB_FAULT` plan.
pub static FAULTS_INJECTED: Counter = Counter::new("fault.injected");
/// Cold state-arena segments written to the disk-spill tier (`--spill`).
pub static SPILL_SEGMENTS: Counter = Counter::new("compact.spill_segments");
/// Payload bytes written to the disk-spill tier (before group checksums).
pub static SPILL_BYTES: Counter = Counter::new("compact.spill_bytes");
/// Spilled restart groups read back from disk to answer a seen-set probe or
/// a read: one positioned read of a group and its checksum each (not
/// whole-segment reloads).
pub static SPILL_RELOADS: Counter = Counter::new("compact.spill_reloads");
/// Bytes read back from the disk-spill tier, group checksums included.
pub static SPILL_READ_BYTES: Counter = Counter::new("compact.spill_read_bytes");

/// Current BFS frontier depth (undiscovered tail of the exploration queue).
pub static EXPLORE_FRONTIER: Gauge = Gauge::new("explore.frontier_depth");
/// In-core bytes of the exploration's state store (seen-set arena or hash
/// store plus its index); the peak is the store's high-water mark.
pub static EXPLORE_STORE_BYTES: Gauge = Gauge::new("explore.store_bytes");
/// Stored-to-raw size of the compact state arena, in percent (prefix
/// compression plus varint framing; 100 = no compression).
pub static COMPACT_COMPRESSION_PCT: Gauge = Gauge::new("compact.compression_pct");

/// Per-level shard imbalance in the parallel engine: `max_chunk * 100 /
/// mean_chunk` for each level fan-out (100 = perfectly balanced).
pub static SHARD_IMBALANCE: Histogram = Histogram::new("explore.shard_imbalance_pct");
/// Per-batch shard imbalance (member states) in the sharded incremental
/// refinement sweep: `max_chunk * 100 / mean_chunk` per fan-out.
pub static REFINE_SHARD_IMBALANCE: Histogram = Histogram::new("bisim.shard_imbalance_pct");
/// Journal append fsync latency (µs) in the serve daemon — the per-submit
/// durability cost on the admission path.
pub static JOURNAL_FSYNC_US: Histogram = Histogram::new("serve.journal_fsync_us");
/// Open-addressing probe lengths of the exploration seen-set index
/// (0 = direct hit; long tails indicate index pressure).
pub static SEEN_PROBE_LEN: Histogram = Histogram::new("explore.seen_probe_len");

static COUNTERS: [&Counter; 20] = [
    &SIG_STATE_RECOMPUTES,
    &SIG_ROUNDS,
    &SIG_DIRTY_STATES,
    &SIG_CACHE_HITS,
    &SIG_CONDENSATION_REUSES,
    &TAU_CLOSURE_BUILDS,
    &REFINE_PRODUCT_STATES,
    &REFINE_SUBSETS,
    &LTL_PRODUCT_STATES,
    &CKPT_SECTIONS,
    &CKPT_BYTES,
    &CKPT_SEED_HITS,
    &CACHE_HITS,
    &CACHE_MISSES,
    &CACHE_CORRUPT,
    &FAULTS_INJECTED,
    &SPILL_SEGMENTS,
    &SPILL_BYTES,
    &SPILL_RELOADS,
    &SPILL_READ_BYTES,
];

static GAUGES: [&Gauge; 3] = [
    &EXPLORE_FRONTIER,
    &EXPLORE_STORE_BYTES,
    &COMPACT_COMPRESSION_PCT,
];

static HISTOGRAMS: [&Histogram; 4] = [
    &SHARD_IMBALANCE,
    &REFINE_SHARD_IMBALANCE,
    &JOURNAL_FSYNC_US,
    &SEEN_PROBE_LEN,
];

/// Reset every registered instrument (called by `install`).
pub(crate) fn reset_all() {
    for c in COUNTERS {
        c.reset();
    }
    for g in GAUGES {
        g.reset();
    }
    for h in HISTOGRAMS {
        h.reset();
    }
}

/// Snapshot all counters plus gauge peaks, including zeros, sorted by name.
pub(crate) fn counter_snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = COUNTERS.iter().map(|c| (c.name, c.get())).collect();
    out.extend(GAUGES.iter().map(|g| (g.name, g.peak())));
    out.sort_unstable_by_key(|(name, _)| *name);
    out
}

/// Snapshot all non-empty histograms, sorted by name.
pub(crate) fn histogram_snapshot() -> Vec<(&'static str, HistogramSnapshot)> {
    let mut out: Vec<_> = HISTOGRAMS
        .iter()
        .map(|h| (h.name, h.snapshot()))
        .filter(|(_, s)| s.count > 0)
        .collect();
    out.sort_unstable_by_key(|(name, _)| *name);
    out
}

/// Current value of every registered counter, sorted by name. Public view
/// for exposition encoders (the daemon's `/metrics` endpoint).
pub fn counter_values() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = COUNTERS.iter().map(|c| (c.name, c.get())).collect();
    out.sort_unstable_by_key(|(name, _)| *name);
    out
}

/// `(name, current, peak)` of every registered gauge, sorted by name.
pub fn gauge_values() -> Vec<(&'static str, u64, u64)> {
    let mut out: Vec<(&'static str, u64, u64)> =
        GAUGES.iter().map(|g| (g.name, g.get(), g.peak())).collect();
    out.sort_unstable_by_key(|(name, _, _)| *name);
    out
}

/// Snapshot of every registered histogram (including empty ones — an
/// exposition wants stable series), sorted by name.
pub fn histogram_values() -> Vec<(&'static str, HistogramSnapshot)> {
    let mut out: Vec<_> = HISTOGRAMS.iter().map(|h| (h.name, h.snapshot())).collect();
    out.sort_unstable_by_key(|(name, _)| *name);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let h = Histogram::new("test");
        // Bypass the enable gate by poking buckets through record() with
        // recording forced on is not possible here; check the math instead.
        let bucket = |v: u64| -> usize {
            if v == 0 {
                0
            } else {
                ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
            }
        };
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(1024), 11);
        assert_eq!(bucket(u64::MAX), HIST_BUCKETS - 1);
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert!(snap.buckets.is_empty());
    }
}
