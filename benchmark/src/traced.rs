//! The traced pass: the layers `bbv verify` runs, called in-process through
//! their options-struct entry points in bbv's order and with bbv's defaults
//! (`--jobs 1`, compact store), each wrapped in a span that records its
//! wall-clock, counts and peak heap.
//!
//! The pass runs after the timed phase, in this process, so tracing never
//! touches a timed `bbv`. Spans are kept in memory and written out as
//! NDJSON when the pass ends; the per-layer metrics are derived from that
//! file (see `metrics::per_layer`).

use crate::pool::Instance;
use bb_algorithms::{
    coarse::CoarseLocked, dglm_queue::DglmQueue, fine_list::FineList, hm_list::HmList,
    hsy_stack::HsyStack, hw_queue::HwQueue, lazy_list::LazyList, ms_queue::MsQueue, newcas::NewCas,
    optimistic_list::OptimisticList, specs::*, treiber::Treiber, treiber_hp::TreiberHp,
    treiber_hp_fu::TreiberHpFu, two_lock_queue::TwoLockQueue,
};
use bb_bisim::{
    bisimilar_opts, divergence_witness_governed, partition_opts, quotient, Equivalence,
    PartitionOptions,
};
use bb_core::{verify_case_governed, GovernedConfig, Rung};
use bb_lts::{Budget, ExploreOptions, Watchdog};
use bb_obs::json::JsonValue;
use bb_refine::{trace_refines_governed, RefineOptions};
use bb_serve::JobSpec;
use bb_sim::{explore_system_with, AtomicSpec, Bound, ObjectAlgorithm, SequentialSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes and their high-water
/// mark, so each traced call can report the peak heap it reached.
pub struct CountingAlloc;

impl CountingAlloc {
    fn grew(by: usize) {
        let now = LIVE.fetch_add(by, Relaxed) + by;
        // The plain load keeps the common case (no new peak) free of a
        // second read-modify-write on every allocation.
        if now > PEAK.load(Relaxed) {
            PEAK.fetch_max(now, Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics only and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// One span: a layer call (or an instance, at the root) of one repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the trace; parents refer to it.
    pub id: usize,
    /// The span that caused this one; `None` for an instance root.
    pub parent: Option<usize>,
    /// Layer name, as in the per-layer metric names.
    pub name: String,
    /// The instance label.
    pub instance: String,
    /// Repetition of the traced pass.
    pub rep: u64,
    /// Start and end, in microseconds since the pass began.
    pub start_us: f64,
    pub end_us: f64,
    /// Counts taken at the same boundary (`states`, `peak_alloc_bytes`, ...).
    pub counts: Vec<(String, f64)>,
}

impl Span {
    /// Wall-clock of the span, in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    /// A recorded count, 0 when absent.
    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    /// One NDJSON line.
    pub fn to_json(&self) -> String {
        let num = JsonValue::Num;
        JsonValue::Obj(vec![
            ("id".into(), num(self.id as f64)),
            (
                "parent".into(),
                self.parent.map_or(JsonValue::Null, |p| num(p as f64)),
            ),
            ("name".into(), JsonValue::Str(self.name.clone())),
            ("instance".into(), JsonValue::Str(self.instance.clone())),
            ("rep".into(), num(self.rep as f64)),
            ("start_us".into(), num(self.start_us)),
            ("end_us".into(), num(self.end_us)),
            (
                "counts".into(),
                JsonValue::Obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Parses a line written by [`Span::to_json`].
    pub fn from_json(line: &str) -> Result<Span, String> {
        let v = bb_obs::json::parse(line)?;
        let num = |k: &str| match v.get(k) {
            Some(JsonValue::Num(n)) => Ok(*n),
            _ => Err(format!("span field `{k}` missing")),
        };
        let text = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("span field `{k}` missing"))
        };
        let counts = v
            .get("counts")
            .and_then(JsonValue::as_object)
            .ok_or("span field `counts` missing")?
            .iter()
            .map(|(k, c)| match c {
                JsonValue::Num(n) => Ok((k.clone(), *n)),
                _ => Err(format!("count `{k}` is not a number")),
            })
            .collect::<Result<_, String>>()?;
        Ok(Span {
            id: num("id")? as usize,
            parent: v.get("parent").and_then(|p| match p {
                JsonValue::Num(n) => Some(*n as usize),
                _ => None,
            }),
            name: text("name")?,
            instance: text("instance")?,
            rep: num("rep")? as u64,
            start_us: num("start_us")?,
            end_us: num("end_us")?,
            counts,
        })
    }
}

/// The in-memory span store of one traced pass.
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far, in opening order.
    pub spans: Vec<Span>,
    instance: String,
    rep: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            instance: String::new(),
            rep: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Seconds since the pass began.
    pub fn elapsed_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            instance: self.instance.clone(),
            rep: self.rep,
            start_us: start,
            end_us: start,
            counts: Vec::new(),
        });
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` as layer `name` under `parent`, recording its wall-clock and
    /// the peak heap it reached above the heap it started with.
    fn timed<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, usize) {
        let id = self.open(name, Some(parent));
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        let out = f();
        let peak = PEAK.load(Relaxed).saturating_sub(base);
        self.close(id);
        self.count(id, "peak_alloc_bytes", peak);
        (out, id)
    }

    fn count(&mut self, id: usize, key: &str, value: usize) {
        self.spans[id].counts.push((key.to_string(), value as f64));
    }

    /// Records a `bbv` run of `inst` in repetition `rep`, timed by the
    /// caller from spawn to exit, as a root span `bbv` that ends now.
    pub fn bbv_run(&mut self, inst: &Instance, rep: u64, wall_ms: f64) {
        let end = self.now_us();
        self.spans.push(Span {
            id: self.spans.len(),
            parent: None,
            name: "bbv".to_string(),
            instance: inst.label(),
            rep,
            start_us: end - wall_ms * 1e3,
            end_us: end,
            counts: Vec::new(),
        });
    }

    /// Traces one instance in repetition `rep`: the root span `instance`,
    /// with the layer spans below it. Returns what the layers concluded,
    /// for the cross-check against bbv's stdout.
    pub fn instance(
        &mut self,
        inst: &Instance,
        rep: u64,
        spill: Option<PathBuf>,
    ) -> Result<Seen, String> {
        self.instance = inst.label();
        self.rep = rep;
        let spec = inst.job_spec()?;
        let root = self.open("instance", None);
        let seen = with_case(
            &spec,
            Pass {
                spec: &spec,
                tracer: self,
                root,
                spill,
            },
        );
        self.close(root);
        seen?
    }
}

/// What the traced layers concluded about one instance, in the form of
/// [`crate::pool::Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct Seen {
    pub verdict: String,
    /// bbv's summary line, for governed instances (rendered by bb-core).
    pub summary: Option<String>,
    pub states: usize,
    pub quotient_states: usize,
}

/// Conclusions of the unbudgeted pipeline.
struct Layers {
    lin: bool,
    lock_free: Option<bool>,
    states: usize,
    quotient_states: usize,
}

fn mark(holds: bool) -> &'static str {
    if holds {
        "✓"
    } else {
        "✗"
    }
}

/// A computation generic over the algorithm and its specification.
trait Case {
    type Out;
    fn run<A: ObjectAlgorithm, S: SequentialSpec>(
        self,
        alg: &A,
        seq: &AtomicSpec<S>,
        non_blocking: bool,
    ) -> Self::Out;
}

/// Builds the object and specification `bbv` builds for `spec` (the pool
/// algorithms of `dispatch_named` in `crates/serve/src/runner.rs`).
fn with_case<C: Case>(spec: &JobSpec, c: C) -> Result<C::Out, String> {
    let d = &spec.domain;
    let (th, ops) = (spec.threads, spec.ops);
    Ok(match spec.algorithm.as_str() {
        "treiber" => c.run(&Treiber::new(d), &AtomicSpec::new(SeqStack::new(d)), true),
        "treiber-hp" => c.run(
            &TreiberHp::new(d, th),
            &AtomicSpec::new(SeqStack::new(d)),
            true,
        ),
        "treiber-hp-fu" => c.run(
            &TreiberHpFu::new(d, th),
            &AtomicSpec::new(SeqStack::new(d)),
            true,
        ),
        "ms-queue" => c.run(&MsQueue::new(d), &AtomicSpec::new(SeqQueue::new(d)), true),
        "dglm-queue" => c.run(&DglmQueue::new(d), &AtomicSpec::new(SeqQueue::new(d)), true),
        "hw-queue" => c.run(
            &HwQueue::for_bound(d, th, ops),
            &AtomicSpec::new(SeqQueue::new(d)),
            true,
        ),
        "newcas" => {
            let n = d.len() as i64;
            c.run(&NewCas::new(n), &AtomicSpec::new(SeqRegister::new(n)), true)
        }
        "hm-list" => c.run(&HmList::revised(d), &AtomicSpec::new(SeqSet::new(d)), true),
        "hm-list-buggy" => c.run(&HmList::buggy(d), &AtomicSpec::new(SeqSet::new(d)), true),
        "hsy-stack" => c.run(&HsyStack::new(d), &AtomicSpec::new(SeqStack::new(d)), true),
        "lazy-list" => c.run(&LazyList::new(d), &AtomicSpec::new(SeqSet::new(d)), false),
        "optimistic-list" => c.run(
            &OptimisticList::new(d),
            &AtomicSpec::new(SeqSet::new(d)),
            false,
        ),
        "fine-list" => c.run(&FineList::new(d), &AtomicSpec::new(SeqSet::new(d)), false),
        "two-lock-queue" => c.run(
            &TwoLockQueue::new(d),
            &AtomicSpec::new(SeqQueue::new(d)),
            false,
        ),
        "coarse-stack" => c.run(
            &CoarseLocked::new(SeqStack::new(d)),
            &AtomicSpec::new(SeqStack::new(d)),
            false,
        ),
        "coarse-queue" => c.run(
            &CoarseLocked::new(SeqQueue::new(d)),
            &AtomicSpec::new(SeqQueue::new(d)),
            false,
        ),
        "coarse-set" => c.run(
            &CoarseLocked::new(SeqSet::new(d)),
            &AtomicSpec::new(SeqSet::new(d)),
            false,
        ),
        other => return Err(format!("algorithm `{other}` is in no pool")),
    })
}

/// One instance of the traced pass.
struct Pass<'a> {
    spec: &'a JobSpec,
    tracer: &'a mut Tracer,
    root: usize,
    spill: Option<PathBuf>,
}

impl Case for Pass<'_> {
    type Out = Result<Seen, String>;

    fn run<A: ObjectAlgorithm, S: SequentialSpec>(
        self,
        alg: &A,
        seq: &AtomicSpec<S>,
        non_blocking: bool,
    ) -> Result<Seen, String> {
        let Pass {
            spec,
            tracer: t,
            root,
            spill,
        } = self;
        let bound = Bound::new(spec.threads, spec.ops);
        let lock_freedom = spec.check_lock_freedom && non_blocking;
        // bbv takes the governed ladder exactly when a budget flag is given;
        // on every other instance this span only times that decision.
        let (governed, gov) = t.timed("core.verify_governed", root, || {
            spec.budgeted().then(|| {
                let mut cfg = GovernedConfig::new(bound, spec.budget()).with_jobs(spec.jobs);
                if let Some(dir) = &spill {
                    cfg = cfg.with_spill_dir(dir);
                }
                if !lock_freedom {
                    cfg = cfg.linearizability_only();
                }
                if spec.no_fallback {
                    cfg = cfg.no_fallback();
                }
                verify_case_governed(alg, seq, &cfg)
            })
        });
        let Some(report) = governed else {
            let l = layers(alg, seq, bound, spec, lock_freedom, t, root);
            let lf = l.lock_free.map_or("—", mark);
            return Ok(Seen {
                verdict: format!("lin={} lock-free={lf}", mark(l.lin)),
                summary: None,
                states: l.states,
                quotient_states: l.quotient_states,
            });
        };
        let (rung, at) = report.answered.ok_or("no ladder rung answered")?;
        t.count(gov, "below_direct", usize::from(rung != Rung::Direct));
        // Decompose the answering rung: its pipeline, replayed at its bound
        // without a budget, as children of the ladder span.
        let l = layers(alg, seq, at, spec, lock_freedom, t, gov);
        let details = report
            .details
            .as_ref()
            .ok_or("answering rung has no report")?;
        let replay_agrees = details.linearizable() == l.lin
            && details.lock_freedom.as_ref().map(|r| r.lock_free) == l.lock_free
            && details.linearizability.impl_states == l.states
            && details.linearizability.impl_quotient_states == l.quotient_states;
        if !replay_agrees {
            return Err(format!(
                "replay at {}-{} disagrees with the ladder",
                at.threads, at.ops_per_thread
            ));
        }
        let word = |v: &bb_core::Verdict| {
            v.to_string()
                .split(' ')
                .next()
                .unwrap_or_default()
                .to_string()
        };
        let mut verdict = format!(
            "rung={rung}@{}-{} lin={}",
            at.threads,
            at.ops_per_thread,
            word(&report.linearizability)
        );
        if let Some(lf) = &report.lock_freedom {
            verdict.push_str(&format!(" lock-free={}", word(lf)));
        }
        Ok(Seen {
            verdict,
            summary: Some(details.summary()),
            states: l.states,
            quotient_states: l.quotient_states,
        })
    }
}

/// The unbudgeted pipeline of `bbv verify`, layer by layer in bbv's order:
/// explore Δ and Θsp, partition and quotient each, trace refinement of the
/// quotients, then the `≈div` check of Δ against Δ/≈ and, when that fails,
/// the divergence witness. bbv also partitions Δ a second time for the
/// lock-freedom check; the pass reuses the first partition, so that
/// duplicate shows up in `bbv.unattributed_ms`.
fn layers<A: ObjectAlgorithm, S: SequentialSpec>(
    alg: &A,
    seq: &AtomicSpec<S>,
    bound: Bound,
    spec: &JobSpec,
    lock_freedom: bool,
    t: &mut Tracer,
    parent: usize,
) -> Layers {
    let unbudgeted = JobSpec {
        max_states: None,
        max_memory: None,
        ..spec.clone()
    };
    let wd = Watchdog::new(unbudgeted.budget());
    let eo = ExploreOptions::governed(&wd).with_jobs(spec.jobs);
    let (imp, s) = t.timed("sim.explore_impl", parent, || {
        explore_system_with(alg, bound, &eo)
    });
    let imp = imp.expect("the default exploration limits hold for every pool instance");
    t.count(s, "states", imp.num_states());
    t.count(s, "transitions", imp.num_transitions());
    let (sp, s) = t.timed("sim.explore_spec", parent, || {
        explore_system_with(seq, bound, &eo)
    });
    let sp = sp.expect("the default exploration limits hold for every pool instance");
    t.count(s, "states", sp.num_states());

    let popts = PartitionOptions::default().with_jobs(spec.jobs);
    let (p, s) = t.timed("bisim.partition_impl", parent, || {
        partition_opts(&imp, Equivalence::Branching, popts)
    });
    t.count(s, "blocks", p.num_blocks());
    let (q_imp, _) = t.timed("bisim.quotient", parent, || quotient(&imp, &p));
    let (p, s) = t.timed("bisim.partition_spec", parent, || {
        partition_opts(&sp, Equivalence::Branching, popts)
    });
    t.count(s, "blocks", p.num_blocks());
    let (q_sp, _) = t.timed("bisim.quotient", parent, || quotient(&sp, &p));

    let unlimited = Watchdog::new(Budget::unlimited());
    let (r, s) = t.timed("refine.inclusion", parent, || {
        trace_refines_governed(&q_imp.lts, &q_sp.lts, RefineOptions::default(), &unlimited)
    });
    let r = r.expect("an unlimited watchdog never trips");
    t.count(s, "product_states", r.product_states);

    // For a lock-based object bbv checks only linearizability; the span then
    // only times that decision.
    let (lock_free, _) = t.timed("bisim.div_check", parent, || {
        lock_freedom.then(|| {
            bisimilar_opts(
                &imp,
                &q_imp.lts,
                Equivalence::BranchingDiv,
                &unlimited,
                popts,
            )
            .expect("an unlimited watchdog never trips")
        })
    });
    let (lasso, s) = t.timed("bisim.divergence", parent, || {
        (lock_free == Some(false)).then(|| {
            divergence_witness_governed(&imp, &unlimited)
                .expect("an unlimited watchdog never trips")
        })
    });
    let steps = lasso
        .flatten()
        .map_or(0, |l| l.prefix.len() + l.cycle.len());
    t.count(s, "lasso_steps", steps);
    Layers {
        lin: r.holds,
        lock_free,
        states: imp.num_states(),
        quotient_states: q_imp.lts.num_states(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_round_trip_through_ndjson() {
        let s = Span {
            id: 3,
            parent: Some(1),
            name: "bisim.div_check".into(),
            instance: "ms-queue --threads 2 --ops 3".into(),
            rep: 2,
            start_us: 10.5,
            end_us: 1510.25,
            counts: vec![("peak_alloc_bytes".into(), 4096.0)],
        };
        let back = Span::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.ms(), 1.49975);
        assert_eq!(back.count("peak_alloc_bytes"), 4096.0);
        assert_eq!(back.count("states"), 0.0);
        let root = Span { parent: None, ..s };
        assert_eq!(Span::from_json(&root.to_json()).unwrap().parent, None);
    }
}
