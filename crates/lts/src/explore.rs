//! On-the-fly state-space exploration of an operational semantics.

use crate::action::{Action, ActionId};
use crate::budget::{Budget, ExhaustReason, Exhausted, Meter, PartialStats, Stage, Watchdog};
use crate::builder::LtsBuilder;
use crate::compact::{ArenaStore, CodecSemantics, HashStore, SpillBackend, StateStore, StoreMetrics};
use crate::jobs::Jobs;
use crate::lts::{Lts, StateId};
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// An operational semantics that can be unfolded into an [`Lts`].
///
/// Implementors enumerate, for every reachable state, its outgoing labeled
/// steps. The exploration in [`explore`] interns states by hash and performs
/// a breadth-first unfolding, so state ids are assigned in BFS order and the
/// resulting LTS is deterministic for a deterministic `successors`
/// enumeration order.
///
/// The `Sync`/`Send` bounds let the parallel engine fan the frontier
/// out to scoped worker threads; states are plain data in every semantics of
/// this workspace, so the bounds are vacuous in practice.
pub trait Semantics: Sync {
    /// The (hashable) global state of the system.
    type State: Clone + Eq + Hash + Send + Sync;

    /// The initial state.
    fn initial_state(&self) -> Self::State;

    /// Appends all outgoing steps of `state` to `out`.
    ///
    /// Implementations must clear nothing: `out` is cleared by the caller.
    fn successors(&self, state: &Self::State, out: &mut Vec<(Action, Self::State)>);
}

/// Limits guarding an exploration against state-space explosion.
///
/// This is the legacy cap-only interface; [`explore_governed`] accepts a
/// full [`Watchdog`] (deadline, memory, cancellation) instead.
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Maximum number of distinct states to intern before aborting.
    pub max_states: usize,
    /// Maximum number of transitions to record before aborting.
    pub max_transitions: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_states: 50_000_000,
            max_transitions: 200_000_000,
        }
    }
}

impl From<ExploreLimits> for Budget {
    fn from(l: ExploreLimits) -> Budget {
        Budget::unlimited()
            .with_max_states(l.max_states)
            .with_max_transitions(l.max_transitions)
    }
}

/// Error returned when an exploration exceeds its [`ExploreLimits`] (or the
/// [`Watchdog`] budget of [`explore_governed`]).
///
/// Carries the partial statistics of the aborted run so callers (e.g. the
/// `tables` sweep) can report how far the exploration got.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreError {
    /// States interned before the limit was hit.
    pub states_seen: usize,
    /// Transitions recorded before the limit was hit.
    pub transitions_seen: usize,
    /// Approximate peak memory attributed to the exploration, in bytes.
    pub memory_bytes: usize,
    /// Wall-clock time spent exploring before the abort.
    pub elapsed: Duration,
    /// Which resource ran out.
    pub reason: ExhaustReason,
}

impl ExploreError {
    /// Re-wraps as the structured [`Exhausted`] error of the budget layer.
    pub fn into_exhausted(self) -> Exhausted {
        Exhausted {
            stage: Stage::Explore,
            reason: self.reason,
            partial: crate::budget::PartialStats {
                states: self.states_seen,
                transitions: self.transitions_seen,
                memory_bytes: self.memory_bytes,
                elapsed: self.elapsed,
                refinement: None,
            },
        }
    }
}

impl From<Exhausted> for ExploreError {
    fn from(e: Exhausted) -> ExploreError {
        ExploreError {
            states_seen: e.partial.states,
            transitions_seen: e.partial.transitions,
            memory_bytes: e.partial.memory_bytes,
            elapsed: e.partial.elapsed,
            reason: e.reason,
        }
    }
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "state-space exploration aborted ({}) after {} states and {} transitions, {} peak, in {:.1?}",
            self.reason,
            self.states_seen,
            self.transitions_seen,
            bb_obs::format_bytes(self.memory_bytes as u64),
            self.elapsed
        )
    }
}

impl std::error::Error for ExploreError {}

/// How an exploration is budgeted: legacy caps, or a full watchdog.
#[derive(Debug, Clone, Copy)]
enum BudgetRef<'wd> {
    /// Cap-only budget; a fresh [`Watchdog`] is built per exploration.
    Limits(ExploreLimits),
    /// Shared watchdog (deadline, memory, cancellation) owned by the caller.
    Governed(&'wd Watchdog),
}

/// All the knobs of an exploration, replacing the former four-way
/// `explore` / `_jobs` / `_governed` / `_governed_jobs` entry points.
///
/// Compose with the builder methods and run with [`explore_with`]:
///
/// ```
/// use bb_lts::{explore_with, ExploreLimits, ExploreOptions, Jobs};
/// # use bb_lts::{Action, Semantics, ThreadId};
/// # struct Two;
/// # impl Semantics for Two {
/// #     type State = bool;
/// #     fn initial_state(&self) -> bool { false }
/// #     fn successors(&self, s: &bool, out: &mut Vec<(Action, bool)>) {
/// #         if !s { out.push((Action::tau(ThreadId(1)), true)); }
/// #     }
/// # }
/// let opts = ExploreOptions::limits(ExploreLimits::default()).with_jobs(Jobs::new(2));
/// let lts = explore_with(&Two, &opts)?;
/// assert_eq!(lts.num_states(), 2);
/// # Ok::<(), bb_lts::budget::Exhausted>(())
/// ```
#[derive(Clone, Copy)]
pub struct ExploreOptions<'wd> {
    budget: BudgetRef<'wd>,
    jobs: Jobs,
    compact: bool,
    spill: Option<&'wd dyn SpillBackend>,
}

impl fmt::Debug for ExploreOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreOptions")
            .field("budget", &self.budget)
            .field("jobs", &self.jobs)
            .field("compact", &self.compact)
            .field("spill", &self.spill.is_some())
            .finish()
    }
}

impl Default for ExploreOptions<'_> {
    fn default() -> Self {
        ExploreOptions::limits(ExploreLimits::default())
    }
}

impl<'wd> ExploreOptions<'wd> {
    /// Default limits on the sequential engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap-only budget: abort past `limits.max_states`/`max_transitions`.
    pub fn limits(limits: ExploreLimits) -> Self {
        ExploreOptions {
            budget: BudgetRef::Limits(limits),
            jobs: Jobs::serial(),
            compact: true,
            spill: None,
        }
    }

    /// Full governance: meter against `wd` (deadline, caps, memory,
    /// cancellation). The watchdog is shared, so one budget can span
    /// several explorations.
    pub fn governed(wd: &'wd Watchdog) -> Self {
        ExploreOptions {
            budget: BudgetRef::Governed(wd),
            jobs: Jobs::serial(),
            compact: true,
            spill: None,
        }
    }

    /// Fan the BFS frontier out to `jobs` worker threads. The resulting
    /// LTS is bit-identical at any worker count.
    pub fn with_jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> Jobs {
        self.jobs
    }

    /// Selects between the compact bit-packed state store (the default) and
    /// the rich-struct baseline. Only honored by entry points that require
    /// a [`CodecSemantics`] (e.g. `bb_sim::explore_system_with`); the plain
    /// [`explore_with`] always runs the baseline.
    pub fn with_compact(mut self, compact: bool) -> Self {
        self.compact = compact;
        self
    }

    /// Whether the compact state store is selected.
    pub fn compact(&self) -> bool {
        self.compact
    }

    /// Installs a disk-spill tier for cold state-arena segments (see
    /// [`SpillBackend`]); only the compact engine consults it.
    pub fn with_spill(mut self, spill: &'wd dyn SpillBackend) -> Self {
        self.spill = Some(spill);
        self
    }

    /// The configured spill backend, if any.
    pub fn spill(&self) -> Option<&'wd dyn SpillBackend> {
        self.spill
    }
}

/// Success-path report of an exploration: the final metered statistics
/// (peak memory, states, transitions) plus the state store's own size
/// figures, so callers can compare engines truthfully.
#[derive(Debug, Clone, Copy)]
pub struct ExploreReport {
    /// Metered totals; `memory_bytes` is the stage's peak attribution.
    pub stats: PartialStats,
    /// High-water mark of the state store's in-core bytes (seen set +
    /// frontier + index), excluding transition bookkeeping.
    pub store_bytes_peak: usize,
    /// Raw/stored/spilled byte figures of the store.
    pub store: StoreMetrics,
}

/// Unfolds `sem` into an explicit [`Lts`] by breadth-first exploration,
/// configured by `opts` — the single entry point behind every convenience
/// wrapper in this module and in `bb-sim`.
///
/// The exploration accounts every interned state, every recorded transition
/// and an approximate memory estimate against the budget, and observes the
/// deadline and cancellation token from the BFS loop. With `jobs > 1` each
/// BFS level is fanned out level-synchronously and merged deterministically,
/// so state ids, transition order and the `.aut` export are bit-identical
/// to the sequential run at any worker count.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Explore`]) when any budget axis
/// trips; the partial statistics describe the aborted frontier.
pub fn explore_with<S: Semantics>(
    sem: &S,
    opts: &ExploreOptions<'_>,
) -> Result<Lts, Exhausted> {
    explore_with_sink(sem, opts, None)
}

/// Observer of the deterministic transition stream of an exploration — the
/// fusion hook behind `--fuse`.
///
/// The engine calls [`ExploreSink::on_transition`] for every recorded
/// transition in the exact order of the sequential BFS (ascending source id,
/// then successor enumeration order). The parallel engine emits from its
/// ordered merge, so the stream a sink observes is bit-identical at any
/// worker count. [`ExploreSink::on_level`] fires at each BFS level boundary
/// with the frontier depth, before the level's transitions.
pub trait ExploreSink {
    /// One recorded transition, ids as they will appear in the final
    /// [`Lts`].
    fn on_transition(&mut self, src: StateId, action: ActionId, dst: StateId);
    /// A BFS level boundary; `frontier` states are about to be expanded.
    fn on_level(&mut self, frontier: u64) {
        let _ = frontier;
    }
}

/// The fused pipeline's standard sink: accumulates the in-degree of every
/// discovered state while the transition stream flows by, so the reverse
/// adjacency the incremental refiner needs can be built without the counting
/// pass ([`Lts::predecessor_table_from`]). Also feeds the `fuse.*`
/// observability instruments.
#[derive(Debug, Default)]
pub struct InDegreeSink {
    degrees: Vec<u32>,
}

impl InDegreeSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the reverse adjacency of `lts` from the accumulated
    /// in-degrees. Must be called with the [`Lts`] returned by the same
    /// [`explore_with_sink`] call that fed this sink.
    pub fn into_table(mut self, lts: &Lts) -> crate::PredecessorTable {
        // States discovered after the last streamed transition (none — a
        // state is discovered *by* a transition, except the initial state)
        // still need a degree slot.
        self.degrees.resize(lts.num_states(), 0);
        lts.predecessor_table_from(&self.degrees)
    }
}

impl ExploreSink for InDegreeSink {
    fn on_transition(&mut self, _src: StateId, _action: ActionId, dst: StateId) {
        if dst.index() >= self.degrees.len() {
            self.degrees.resize(dst.index() + 1, 0);
        }
        self.degrees[dst.index()] += 1;
        bb_obs::hot::FUSE_STREAMED_TRANSITIONS.incr();
    }

    fn on_level(&mut self, frontier: u64) {
        bb_obs::hot::FUSE_FRONTIER.set(frontier);
    }
}

/// [`explore_with`] that additionally streams the deterministic transition
/// order into `sink` (see [`ExploreSink`]). The returned [`Lts`] is
/// byte-identical to the sink-less call.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Explore`]) when any budget axis
/// trips; the sink's partial observations should then be discarded.
pub fn explore_with_sink<S: Semantics>(
    sem: &S,
    opts: &ExploreOptions<'_>,
    sink: Option<&mut dyn ExploreSink>,
) -> Result<Lts, Exhausted> {
    let mut store: HashStore<S> = HashStore::new(None);
    with_watchdog(opts, |wd| {
        explore_impl(sem, &mut store, wd, opts.jobs, sink)
    })
    .map(|(lts, _)| lts)
}

/// The compact engine: states are hashed, stored and compared as their
/// canonical byte encodings, in a prefix-compressed arena that can spill
/// cold segments to `opts.spill()` under memory pressure. The produced
/// [`Lts`] is bit-identical to [`explore_with_sink`] at any worker count,
/// with or without a spill tier.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Explore`]) when any budget axis
/// trips; the partial statistics describe the aborted frontier.
pub fn explore_compact_with_sink<S: CodecSemantics>(
    sem: &S,
    opts: &ExploreOptions<'_>,
    sink: Option<&mut dyn ExploreSink>,
) -> Result<(Lts, ExploreReport), Exhausted> {
    let mut store = ArenaStore::new(opts.spill);
    with_watchdog(opts, |wd| {
        explore_impl(sem, &mut store, wd, opts.jobs, sink)
    })
}

/// The rich-struct baseline with truthful deep-size metering
/// ([`CodecSemantics::state_heap_bytes`]) and the same [`ExploreReport`]
/// as the compact engine — the fair memory baseline for benchmarks.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Explore`]) when any budget axis
/// trips; the partial statistics describe the aborted frontier.
pub fn explore_baseline_with_sink<S: CodecSemantics>(
    sem: &S,
    opts: &ExploreOptions<'_>,
    sink: Option<&mut dyn ExploreSink>,
) -> Result<(Lts, ExploreReport), Exhausted> {
    let mut store: HashStore<S> = HashStore::new(Some(S::state_heap_bytes));
    with_watchdog(opts, |wd| {
        explore_impl(sem, &mut store, wd, opts.jobs, sink)
    })
}

fn with_watchdog<R>(opts: &ExploreOptions<'_>, f: impl FnOnce(&Watchdog) -> R) -> R {
    match opts.budget {
        BudgetRef::Limits(limits) => {
            let wd = Watchdog::new(limits.into());
            f(&wd)
        }
        BudgetRef::Governed(wd) => f(wd),
    }
}

fn explore_impl<S: Semantics, ST: StateStore<S>>(
    sem: &S,
    store: &mut ST,
    wd: &Watchdog,
    jobs: Jobs,
    sink: Option<&mut dyn ExploreSink>,
) -> Result<(Lts, ExploreReport), Exhausted> {
    let span = bb_obs::span("explore").with("jobs", jobs.get());
    let mut meter = wd.meter(Stage::Explore);
    let result = if jobs.is_serial() {
        explore_serial(sem, store, &mut meter, sink)
    } else {
        explore_parallel(sem, store, wd, jobs, &mut meter, sink)
    };
    let stats = meter.stats();
    span.record("states", stats.states);
    span.record("transitions", stats.transitions);
    span.record("mem_bytes", stats.memory_bytes);
    span.record("frontier_peak", bb_obs::hot::EXPLORE_FRONTIER.peak());
    let metrics = store.metrics();
    if let Some(pct) = (metrics.stored_bytes * 100).checked_div(metrics.raw_bytes) {
        bb_obs::hot::COMPACT_COMPRESSION_PCT.set(pct);
    }
    match result {
        Ok(lts) => Ok((
            lts,
            ExploreReport {
                stats,
                store_bytes_peak: store.bytes_peak(),
                store: metrics,
            },
        )),
        Err(e) => {
            span.record("exhausted", e.reason.to_string());
            Err(e)
        }
    }
}

/// Keeps the meter's memory attribution in lock-step with the state
/// store's actual footprint: charge growth, release shrink (spill). The
/// sync points are identical at any worker count, so so are the charges.
#[derive(Default)]
struct MemSync {
    charged: usize,
}

impl MemSync {
    fn sync(&mut self, bytes: usize, meter: &mut Meter) -> Result<(), Exhausted> {
        bb_obs::hot::EXPLORE_STORE_BYTES.set(bytes as u64);
        if bytes >= self.charged {
            let delta = bytes - self.charged;
            self.charged = bytes;
            meter.add_memory(delta)
        } else {
            meter.sub_memory(self.charged - bytes);
            self.charged = bytes;
            Ok(())
        }
    }
}

/// Unfolds `sem` into an explicit [`Lts`] by breadth-first exploration.
///
/// Shorthand for [`explore_with`] with cap-only limits on the sequential
/// engine (the common case in tests and examples).
///
/// # Errors
///
/// Returns [`ExploreError`] if the reachable state space exceeds `limits`.
pub fn explore<S: Semantics>(sem: &S, limits: ExploreLimits) -> Result<Lts, ExploreError> {
    explore_with(sem, &ExploreOptions::limits(limits)).map_err(ExploreError::from)
}

/// [`explore`] with `jobs` worker threads.
///
/// # Errors
///
/// Returns [`ExploreError`] if the reachable state space exceeds `limits`.
#[deprecated(note = "use `explore_with(sem, &ExploreOptions::limits(l).with_jobs(jobs))`")]
pub fn explore_jobs<S: Semantics>(
    sem: &S,
    limits: ExploreLimits,
    jobs: Jobs,
) -> Result<Lts, ExploreError> {
    explore_with(sem, &ExploreOptions::limits(limits).with_jobs(jobs))
        .map_err(ExploreError::from)
}

/// Unfolds `sem` into an explicit [`Lts`] under the budget of `wd`.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Explore`]) when any budget axis
/// trips; the partial statistics describe the aborted frontier.
#[deprecated(note = "use `explore_with(sem, &ExploreOptions::governed(wd))`")]
pub fn explore_governed<S: Semantics>(sem: &S, wd: &Watchdog) -> Result<Lts, Exhausted> {
    explore_with(sem, &ExploreOptions::governed(wd))
}

/// [`explore_governed`] with `jobs` worker threads.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Explore`]) when any budget axis
/// trips; the partial statistics describe the aborted frontier.
#[deprecated(note = "use `explore_with(sem, &ExploreOptions::governed(wd).with_jobs(jobs))`")]
pub fn explore_governed_jobs<S: Semantics>(
    sem: &S,
    wd: &Watchdog,
    jobs: Jobs,
) -> Result<Lts, Exhausted> {
    explore_with(sem, &ExploreOptions::governed(wd).with_jobs(jobs))
}

fn explore_serial<S: Semantics, ST: StateStore<S>>(
    sem: &S,
    store: &mut ST,
    meter: &mut Meter,
    mut sink: Option<&mut dyn ExploreSink>,
) -> Result<Lts, Exhausted> {
    // Transitions are metered by their builder footprint; states are
    // metered as the store's actual byte growth (see `MemSync`).
    let transition_bytes = std::mem::size_of::<(StateId, u32, StateId)>();

    let mut builder = LtsBuilder::new();
    let mut mem = MemSync::default();

    let (init_id, _) = store.intern(sem, sem.initial_state());
    debug_assert_eq!(init_id, StateId(0));
    let built = builder.add_state();
    debug_assert_eq!(built, init_id);
    meter.add_state()?;
    mem.sync(store.bytes(), meter)?;

    // BFS frontier: states are explored in id order, so the queue is just a
    // cursor over the store's dense id range — no second copy of any state.
    let mut cursor = 0usize;
    let mut rd = ST::Cursor::default();
    let mut steps: Vec<(Action, S::State)> = Vec::new();

    // Cursor position of the next BFS level boundary: when the cursor
    // reaches it, everything discovered so far forms the next level — the
    // same boundaries the parallel engine synchronizes on, so a sink sees
    // identical `on_level` calls (and the store identical `end_level`
    // spill points) at any worker count.
    let mut next_level_start = 0usize;
    while cursor < store.len() {
        bb_obs::hot::EXPLORE_FRONTIER.set((store.len() - cursor) as u64);
        if cursor == next_level_start {
            next_level_start = store.len();
            if let Some(sk) = sink.as_deref_mut() {
                sk.on_level((next_level_start - cursor) as u64);
            }
            store.end_level(cursor as u32, meter);
            mem.sync(store.bytes(), meter)?;
        }
        let src_id = StateId(cursor as u32);
        let state = store.read(sem, cursor as u32, &mut rd);
        steps.clear();
        sem.successors(&state, &mut steps);
        cursor += 1;

        for (action, next) in steps.drain(..) {
            let (dst_id, fresh) = store.intern(sem, next);
            if fresh {
                meter.add_state()?;
                mem.sync(store.bytes(), meter)?;
                let id = builder.add_state();
                debug_assert_eq!(id, dst_id);
            }
            let aid = builder.intern_action(action);
            builder.add_transition(src_id, aid, dst_id);
            meter.add_transition()?;
            meter.add_memory(transition_bytes)?;
            if let Some(sk) = sink.as_deref_mut() {
                sk.on_transition(src_id, aid, dst_id);
            }
        }
    }

    Ok(builder.build(StateId(0)))
}

/// Minimum frontier states per worker before a level is fanned out; smaller
/// levels are expanded inline, so the serial prefix of a BFS never pays
/// thread spawn/join costs.
const PAR_MIN_CHUNK: usize = 16;

/// How many frontier states a worker expands between watchdog checks.
const WORKER_CHECK_INTERVAL: usize = 32;

/// The parallel engine behind [`explore_with`]: a *level-synchronous*
/// parallel BFS built on [`std::thread::scope`].
///
/// Each BFS level (the states discovered by the previous level, a contiguous
/// id range) is split into per-worker chunks; workers expand their chunk
/// into thread-local successor buffers, and a single deterministic merge
/// then interns new states and records transitions **ordered by source id,
/// then successor enumeration order** — exactly the order of the sequential
/// loop. State ids, transition order, interned action ids and hence the
/// `.aut` export are therefore bit-identical to [`explore_governed`] at any
/// worker count; `Jobs::serial()` takes the sequential code path itself.
///
/// Budget integration: the merge charges the shared [`Meter`] in the same
/// order as the sequential run (identical partial statistics on a cap trip),
/// and workers poll the watchdog's cancellation token and deadline every
/// [`WORKER_CHECK_INTERVAL`] expansions so an abort interrupts the fan-out
/// promptly instead of completing the level.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Explore`]) when any budget axis
/// trips; the partial statistics describe the aborted frontier.
fn explore_parallel<S: Semantics, ST: StateStore<S>>(
    sem: &S,
    store: &mut ST,
    wd: &Watchdog,
    jobs: Jobs,
    meter: &mut Meter,
    mut sink: Option<&mut dyn ExploreSink>,
) -> Result<Lts, Exhausted> {
    debug_assert!(!jobs.is_serial());
    let transition_bytes = std::mem::size_of::<(StateId, u32, StateId)>();

    let mut builder = LtsBuilder::new();
    let mut mem = MemSync::default();

    let (init_id, _) = store.intern(sem, sem.initial_state());
    debug_assert_eq!(init_id, StateId(0));
    builder.add_state();
    meter.add_state()?;
    mem.sync(store.bytes(), meter)?;

    let mut level_start = 0usize;

    while level_start < store.len() {
        let level_end = store.len();
        bb_obs::hot::EXPLORE_FRONTIER.set((level_end - level_start) as u64);
        if let Some(sk) = sink.as_deref_mut() {
            sk.on_level((level_end - level_start) as u64);
        }
        store.end_level(level_start as u32, meter);
        mem.sync(store.bytes(), meter)?;
        let expansions = expand_level(sem, &*store, wd, level_start, level_end, jobs, meter)?;

        // Deterministic merge. Chunks are contiguous id ranges and are
        // concatenated in chunk order, so iterating the level's expansions
        // in offset order replays the sequential visit order exactly.
        for (offset, steps) in expansions.into_iter().enumerate() {
            let src_id = StateId((level_start + offset) as u32);
            for (action, next) in steps {
                let (dst_id, fresh) = store.intern(sem, next);
                if fresh {
                    meter.add_state()?;
                    mem.sync(store.bytes(), meter)?;
                    let id = builder.add_state();
                    debug_assert_eq!(id, dst_id);
                }
                let aid = builder.intern_action(action);
                builder.add_transition(src_id, aid, dst_id);
                meter.add_transition()?;
                meter.add_memory(transition_bytes)?;
                if let Some(sk) = sink.as_deref_mut() {
                    sk.on_transition(src_id, aid, dst_id);
                }
            }
        }
        level_start = level_end;
    }

    Ok(builder.build(StateId(0)))
}

/// The successor buffer of one expanded state.
type Steps<S> = Vec<(Action, <S as Semantics>::State)>;

/// Expands one BFS level, in parallel when the frontier is large enough.
///
/// Returns one successor buffer per frontier state, in frontier order.
fn expand_level<S: Semantics, ST: StateStore<S>>(
    sem: &S,
    store: &ST,
    wd: &Watchdog,
    start: usize,
    end: usize,
    jobs: Jobs,
    meter: &mut Meter,
) -> Result<Vec<Steps<S>>, Exhausted> {
    let len = end - start;
    let workers = jobs.for_items(len, PAR_MIN_CHUNK);
    if workers == 1 {
        let mut out = Vec::with_capacity(len);
        let mut rd = ST::Cursor::default();
        for (i, idx) in (start..end).enumerate() {
            if i % WORKER_CHECK_INTERVAL == 0 {
                meter.checkpoint()?;
            }
            let state = store.read(sem, idx as u32, &mut rd);
            let mut steps = Vec::new();
            sem.successors(&state, &mut steps);
            out.push(steps);
        }
        return Ok(out);
    }

    let aborted = AtomicBool::new(false);
    let chunk = len.div_ceil(workers);
    let pieces = len.div_ceil(chunk);
    let per_chunk: Vec<Vec<Steps<S>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pieces)
            .map(|w| {
                let aborted = &aborted;
                let lo = start + w * chunk;
                let hi = (lo + chunk).min(end);
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(hi - lo);
                    let mut rd = ST::Cursor::default();
                    for (i, idx) in (lo..hi).enumerate() {
                        // Cooperative abort: cancellation and the deadline
                        // are observed mid-fan-out, from every worker, and
                        // propagate to the sibling workers via the flag.
                        if i % WORKER_CHECK_INTERVAL == 0
                            && (aborted.load(Ordering::Relaxed)
                                || wd.budget().cancel.is_cancelled()
                                || wd.deadline_passed())
                        {
                            aborted.store(true, Ordering::Relaxed);
                            break;
                        }
                        let state = store.read(sem, idx as u32, &mut rd);
                        let mut steps = Vec::new();
                        sem.successors(&state, &mut steps);
                        out.push(steps);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    if aborted.load(Ordering::Relaxed) {
        // A worker observed cancellation or a blown deadline. Both are
        // monotone, so the checkpoint reproduces the structured error with
        // the stats merged so far; the fallback can only trigger if the
        // deadline axis somehow cleared, and still reports an abort.
        meter.checkpoint()?;
        return Err(meter.exhausted(ExhaustReason::Cancelled));
    }

    // Shard-imbalance profile: successor volume of the heaviest chunk as a
    // percentage of the mean (100 = perfectly balanced fan-out).
    if bb_obs::enabled() && per_chunk.len() > 1 {
        let sizes: Vec<usize> = per_chunk
            .iter()
            .map(|c| c.iter().map(Vec::len).sum::<usize>())
            .collect();
        let mean = sizes.iter().sum::<usize>() / sizes.len();
        let max = sizes.iter().copied().max().unwrap_or(0);
        if let Some(pct) = (max * 100).checked_div(mean) {
            bb_obs::hot::SHARD_IMBALANCE.record(pct as u64);
        }
    }

    Ok(per_chunk.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::tests::{max_group_len, MemSpill};
    use crate::ThreadId;

    fn gov<S: Semantics>(sem: &S, wd: &Watchdog) -> Result<Lts, Exhausted> {
        explore_with(sem, &ExploreOptions::governed(wd))
    }

    fn gov_jobs<S: Semantics>(sem: &S, wd: &Watchdog, jobs: Jobs) -> Result<Lts, Exhausted> {
        explore_with(sem, &ExploreOptions::governed(wd).with_jobs(jobs))
    }

    /// A counter from 0 to `max` with an increment loop.
    struct Counter {
        max: u32,
    }

    impl Semantics for Counter {
        type State = u32;

        fn initial_state(&self) -> u32 {
            0
        }

        fn successors(&self, s: &u32, out: &mut Vec<(Action, u32)>) {
            if *s < self.max {
                out.push((Action::tau(ThreadId(1)), s + 1));
            } else {
                out.push((Action::ret(ThreadId(1), "done", Some(*s as i64)), 0));
            }
        }
    }

    /// A branching tree semantics with wide levels, to exercise the
    /// parallel frontier split (the counter has single-state levels).
    struct Tree {
        depth: u32,
        fanout: u32,
    }

    impl Semantics for Tree {
        type State = (u32, u32); // (level, index within level)

        fn initial_state(&self) -> (u32, u32) {
            (0, 0)
        }

        fn successors(&self, s: &(u32, u32), out: &mut Vec<(Action, (u32, u32))>) {
            let (level, idx) = *s;
            if level >= self.depth {
                return;
            }
            for k in 0..self.fanout {
                // Converge siblings so levels stay bounded but wide, and
                // duplicates are discovered from multiple sources.
                let child = (idx * self.fanout + k) % (self.fanout * self.fanout);
                out.push((
                    Action::call(ThreadId(1), "step", Some(k as i64)),
                    (level + 1, child),
                ));
            }
        }
    }

    #[test]
    fn explores_all_reachable_states() {
        let lts = explore(&Counter { max: 10 }, ExploreLimits::default()).unwrap();
        assert_eq!(lts.num_states(), 11);
        assert_eq!(lts.num_transitions(), 11); // 10 taus + 1 ret back to 0
    }

    #[test]
    fn respects_state_limit() {
        let err = explore(
            &Counter { max: 1000 },
            ExploreLimits {
                max_states: 5,
                max_transitions: 1000,
            },
        )
        .unwrap_err();
        assert_eq!(err.states_seen, 6);
        assert_eq!(err.reason, ExhaustReason::StateCap);
    }

    #[test]
    fn respects_transition_limit() {
        let err = explore(
            &Counter { max: 1000 },
            ExploreLimits {
                max_states: 10_000,
                max_transitions: 3,
            },
        )
        .unwrap_err();
        // The abort must have actually *exceeded* the cap of 3 (the meter
        // errors on the first transition past the cap), and the partial
        // stats must be consistent with a transition-cap abort: on the
        // counter chain every recorded transition discovers one state.
        assert_eq!(err.reason, ExhaustReason::TransitionCap);
        assert!(err.transitions_seen > 3, "cap of 3 must be exceeded");
        assert_eq!(err.transitions_seen, 4);
        assert_eq!(err.states_seen, 5);
    }

    #[test]
    fn bfs_assigns_initial_id_zero() {
        let lts = explore(&Counter { max: 3 }, ExploreLimits::default()).unwrap();
        assert_eq!(lts.initial(), StateId(0));
    }

    #[test]
    fn governed_deadline_aborts_with_stage() {
        let wd = Watchdog::new(
            Budget::unlimited().with_deadline(std::time::Duration::ZERO),
        );
        let err = gov(&Counter { max: 100_000 }, &wd).unwrap_err();
        assert_eq!(err.stage, Stage::Explore);
        assert_eq!(err.reason, ExhaustReason::Deadline);
    }

    #[test]
    fn governed_memory_cap_aborts() {
        let wd = Watchdog::new(Budget::unlimited().with_max_memory_bytes(256));
        let err = gov(&Counter { max: 100_000 }, &wd).unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Memory);
        assert!(err.partial.states >= 1);
    }

    #[test]
    fn governed_cancellation_aborts() {
        let wd = Watchdog::unlimited();
        wd.cancel();
        let err = gov(&Counter { max: 2_000_000 }, &wd).unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Cancelled);
    }

    #[test]
    fn error_display_names_reason_and_stats() {
        let err = explore(
            &Counter { max: 1000 },
            ExploreLimits {
                max_states: 5,
                max_transitions: 1000,
            },
        )
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("state cap"), "{text}");
        assert!(text.contains("states"), "{text}");
    }

    /// The determinism contract of the tentpole: identical LTS (states,
    /// transitions, action interning, `.aut` bytes) at every worker count.
    #[test]
    fn parallel_explore_is_bit_identical_to_sequential() {
        let sem = Tree {
            depth: 12,
            fanout: 9,
        };
        let wd = Watchdog::unlimited();
        let seq = gov(&sem, &wd).unwrap();
        for jobs in [1, 2, 4] {
            let par = gov_jobs(&sem, &Watchdog::unlimited(), Jobs::new(jobs)).unwrap();
            assert_eq!(par.num_states(), seq.num_states(), "jobs={jobs}");
            assert_eq!(par.num_transitions(), seq.num_transitions(), "jobs={jobs}");
            assert_eq!(
                crate::aut::to_aut(&par),
                crate::aut::to_aut(&seq),
                "jobs={jobs}: .aut export must be byte-identical"
            );
        }
    }

    #[test]
    fn parallel_cap_trips_with_identical_partial_stats() {
        let sem = Tree {
            depth: 40,
            fanout: 8,
        };
        let budget = Budget::unlimited().with_max_transitions(500);
        let seq = gov(&sem, &Watchdog::new(budget.clone())).unwrap_err();
        let par =
            gov_jobs(&sem, &Watchdog::new(budget), Jobs::new(4)).unwrap_err();
        assert_eq!(par.reason, seq.reason);
        assert_eq!(par.partial.states, seq.partial.states);
        assert_eq!(par.partial.transitions, seq.partial.transitions);
    }

    #[test]
    fn parallel_cancellation_aborts_mid_fanout() {
        let wd = Watchdog::unlimited();
        wd.cancel();
        let err = gov_jobs(
            &Tree {
                depth: 64,
                fanout: 64,
            },
            &wd,
            Jobs::new(4),
        )
        .unwrap_err();
        assert_eq!(err.stage, Stage::Explore);
        assert_eq!(err.reason, ExhaustReason::Cancelled);
        assert!(err.partial.states >= 1, "the initial state was interned");
    }

    #[test]
    fn parallel_deadline_aborts_mid_fanout() {
        let wd = Watchdog::new(Budget::unlimited().with_deadline(Duration::ZERO));
        let err = gov_jobs(
            &Tree {
                depth: 64,
                fanout: 64,
            },
            &wd,
            Jobs::new(2),
        )
        .unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Deadline);
    }

    impl CodecSemantics for Tree {
        fn encode_state(&self, s: &(u32, u32), out: &mut Vec<u8>) {
            out.extend_from_slice(&s.0.to_be_bytes());
            out.extend_from_slice(&s.1.to_be_bytes());
        }
        fn decode_state(&self, bytes: &[u8]) -> (u32, u32) {
            (
                u32::from_be_bytes(bytes[0..4].try_into().unwrap()),
                u32::from_be_bytes(bytes[4..8].try_into().unwrap()),
            )
        }
    }

    /// The compact engine must reproduce the rich-struct engine's LTS
    /// byte-for-byte, at any worker count.
    #[test]
    fn compact_explore_is_bit_identical_to_hash_engine() {
        let sem = Tree {
            depth: 12,
            fanout: 9,
        };
        let baseline = explore_with(&sem, &ExploreOptions::default()).unwrap();
        for jobs in [1, 2, 4] {
            let opts = ExploreOptions::default().with_jobs(Jobs::new(jobs));
            let (compact, report) = explore_compact_with_sink(&sem, &opts, None).unwrap();
            assert_eq!(compact.num_states(), baseline.num_states(), "jobs={jobs}");
            assert_eq!(
                crate::aut::to_aut(&compact),
                crate::aut::to_aut(&baseline),
                "jobs={jobs}: compact .aut must be byte-identical"
            );
            assert_eq!(report.stats.states, baseline.num_states());
            assert!(report.store.raw_bytes > 0);
            assert!(report.store.stored_bytes <= report.store.raw_bytes);
        }
    }

    /// Spilling cold segments must not change the LTS (any worker count),
    /// and must actually fire under a tight memory cap.
    ///
    /// The semantics is a chain of fat states with a back-edge to the root:
    /// store bytes dominate the meter, each level boundary is a spill
    /// opportunity, and the back-edge makes every intern probe a restart
    /// group that spilled long ago. With 2 KiB segments a segment holds
    /// about one group, so the run spills and reads across many segment
    /// boundaries; with 16 KiB segments a segment holds several groups, and
    /// each probe must read back only one of them.
    #[test]
    fn spill_preserves_lts_bit_identically() {
        let sem = Blob { n: 600, back: true };
        let baseline = explore_with(&sem, &ExploreOptions::default()).unwrap();
        let (_, unspilled) =
            explore_compact_with_sink(&sem, &ExploreOptions::default(), None).unwrap();
        // Cap at roughly half the in-core peak: only spilling keeps the run
        // under it, and the 5/8 high-water mark is crossed mid-run.
        let cap = unspilled.stats.memory_bytes / 2;
        for seg_target in [2048, 16 * 1024] {
            for jobs in [1, 4] {
                let at = format!("seg_target={seg_target} jobs={jobs}");
                let spill = MemSpill::default();
                let wd = Watchdog::new(Budget::unlimited().with_max_memory_bytes(cap));
                let mut store = ArenaStore::with_seg_target(Some(&spill), seg_target);
                let (lts, report) =
                    explore_impl(&sem, &mut store, &wd, Jobs::new(jobs), None).unwrap();
                assert!(
                    report.store.spilled_segments > 0,
                    "{at}: the tight cap must force spilling: {report:?}"
                );
                // One group and its 8-byte checksum.
                let group_max = max_group_len(&store) + 8;
                let reads = spill.reads.lock().unwrap();
                assert!(!reads.is_empty(), "{at}: probes must read spilled groups");
                assert!(
                    reads.iter().all(|&n| n <= group_max),
                    "{at}: each read is one group and its checksum: {group_max}"
                );
                if seg_target == 16 * 1024 {
                    assert!(
                        group_max < seg_target / 2,
                        "{at}: a group read must be well below a segment read"
                    );
                }
                assert_eq!(
                    crate::aut::to_aut(&lts),
                    crate::aut::to_aut(&baseline),
                    "{at}: spilled .aut must be byte-identical"
                );
                assert!(
                    report.stats.memory_bytes <= cap,
                    "{at}: metered peak must respect the cap"
                );
            }
        }
    }

    /// A chain semantics with large, incompressible states: store bytes
    /// dominate, so the metered peak must track the store's real footprint.
    struct Blob {
        n: u32,
        /// Add a back-edge from every state to the root.
        back: bool,
    }

    fn blob_payload(i: u32) -> [u8; 200] {
        let mut a = [0u8; 200];
        let mut x = u64::from(i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for byte in a.iter_mut() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *byte = (x >> 56) as u8;
        }
        a
    }

    impl Semantics for Blob {
        type State = (u32, [u8; 200]);
        fn initial_state(&self) -> Self::State {
            (0, blob_payload(0))
        }
        fn successors(&self, s: &Self::State, out: &mut Vec<(Action, Self::State)>) {
            if s.0 + 1 < self.n {
                out.push((Action::tau(ThreadId(1)), (s.0 + 1, blob_payload(s.0 + 1))));
            }
            if self.back && s.0 > 0 {
                out.push((Action::tau(ThreadId(2)), (0, blob_payload(0))));
            }
        }
    }

    impl CodecSemantics for Blob {
        fn encode_state(&self, s: &Self::State, out: &mut Vec<u8>) {
            out.extend_from_slice(&s.0.to_be_bytes());
            out.extend_from_slice(&s.1);
        }
        fn decode_state(&self, bytes: &[u8]) -> Self::State {
            (
                u32::from_be_bytes(bytes[0..4].try_into().unwrap()),
                bytes[4..204].try_into().unwrap(),
            )
        }
    }

    /// Meter-accounting audit: the reported peak must be within 10% of the
    /// store's actual allocated bytes (transition bookkeeping is the only
    /// other charge, and it is small against 200-byte states).
    #[test]
    fn metered_peak_tracks_store_bytes_within_ten_percent() {
        let sem = Blob {
            n: 2000,
            back: false,
        };
        for compact in [true, false] {
            let opts = ExploreOptions::default();
            let (_, report) = if compact {
                explore_compact_with_sink(&sem, &opts, None).unwrap()
            } else {
                explore_baseline_with_sink(&sem, &opts, None).unwrap()
            };
            let peak = report.stats.memory_bytes;
            let store = report.store_bytes_peak;
            assert!(
                peak >= store,
                "compact={compact}: peak {peak} must cover the store {store}"
            );
            assert!(
                peak <= store + store / 10,
                "compact={compact}: peak {peak} strays more than 10% from store {store}"
            );
        }
    }
}
