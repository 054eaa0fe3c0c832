//! Resource governance for the verification pipeline.
//!
//! Every stage of the pipeline — state-space exploration, signature-based
//! partition refinement, antichain trace refinement, nested-DFS/SCC LTL
//! checking — faces exponential state spaces. A [`Watchdog`] is a shared
//! resource governor that each stage consults from its hot loop through a
//! cheap per-stage [`Meter`]; when a limit trips, the stage unwinds with a
//! structured [`Exhausted`] error carrying the stage name, the reason, and
//! the partial statistics gathered so far — never a panic, never a runaway.
//!
//! Governed resources:
//!
//! * **wall-clock deadline** — global across all stages sharing the watchdog
//!   (a retry after a deadline exhaustion fails fast);
//! * **state / transition caps** — per stage (each stage's meter counts its
//!   own interned states and recorded transitions);
//! * **approximate memory accounting** — per stage, in bytes, from the
//!   stage's own estimates of its dominant allocations;
//! * **cooperative cancellation** — a [`CancelToken`] that any thread may
//!   trip; every meter observes it at its next check boundary.
//!
//! The meter amortizes the expensive checks (reading the clock, the shared
//! cancellation flag) over [`CHECK_INTERVAL`] units of work, so governance
//! costs one counter increment and one branch per unit on the hot path.
//!
//! # Clock discipline
//!
//! All deadline arithmetic is **monotonic**: deadlines anchor to an
//! [`Instant`] captured when the [`Watchdog`] is created and trip on
//! `start.elapsed()`. Wall-clock time ([`std::time::SystemTime`]) is never
//! consulted — a daemon worker that straddles an NTP step, a suspend/resume
//! or a DST change must neither trip a deadline early nor extend it. The
//! whole workspace holds this line: the only `SystemTime` uses are
//! bb-persist's temp-file grace sweep (file mtimes *are* wall-clock) and
//! test fixtures; `tests/monotonic_audit.rs` enforces the whitelist by
//! scanning the source tree.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many units of work a [`Meter`] processes between deadline and
/// cancellation checks. A power of two so the check is a mask test.
pub const CHECK_INTERVAL: u64 = 1024;

/// The pipeline stage that exhausted its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// State-space exploration ([`explore_with`](crate::explore_with)).
    Explore,
    /// Signature-based partition refinement (bisimulation equivalences).
    Bisim,
    /// Divergence detection / τ-cycle search.
    Divergence,
    /// Antichain trace-refinement product search.
    Refine,
    /// LTL product construction and accepting-cycle search.
    Ltl,
}

impl Stage {
    /// Stable lowercase name, shared by `Display`, heartbeat lines, and the
    /// observability span/metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Explore => "explore",
            Stage::Bisim => "bisim",
            Stage::Divergence => "divergence",
            Stage::Refine => "refine",
            Stage::Ltl => "ltl",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExhaustReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The per-stage state cap was reached.
    StateCap,
    /// The per-stage transition cap was reached.
    TransitionCap,
    /// The per-stage approximate memory cap was reached.
    Memory,
    /// The cancellation token was tripped.
    Cancelled,
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExhaustReason::Deadline => "deadline exceeded",
            ExhaustReason::StateCap => "state cap reached",
            ExhaustReason::TransitionCap => "transition cap reached",
            ExhaustReason::Memory => "memory cap reached",
            ExhaustReason::Cancelled => "cancelled",
        })
    }
}

/// Progress made by a stage before its budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartialStats {
    /// States interned / processed by the stage.
    pub states: usize,
    /// Transitions recorded / product edges followed.
    pub transitions: usize,
    /// Approximate bytes attributed to the stage.
    pub memory_bytes: usize,
    /// Wall-clock time since the watchdog started.
    pub elapsed: Duration,
    /// For refinement stages: `(rounds, blocks)` of the last *completed*
    /// round, so a budget-tripped run reports how far the partition got
    /// rather than discarding that history.
    pub refinement: Option<(u64, u64)>,
}

impl fmt::Display for PartialStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One format for every report path: states, transitions, peak
        // memory, and elapsed wall-clock, always all four.
        write!(
            f,
            "{} states, {} transitions, {} peak, {:.1?} elapsed",
            self.states,
            self.transitions,
            bb_obs::format_bytes(self.memory_bytes as u64),
            self.elapsed
        )?;
        if let Some((rounds, blocks)) = self.refinement {
            write!(f, "; last completed round {rounds} had {blocks} blocks")?;
        }
        Ok(())
    }
}

/// Structured budget-exhaustion error: which stage tripped, why, and how far
/// it got. Converted by `bb-core` into an `Inconclusive` verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exhausted {
    /// The stage whose budget tripped.
    pub stage: Stage,
    /// The resource that ran out.
    pub reason: ExhaustReason,
    /// Progress at the moment of exhaustion.
    pub partial: PartialStats,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} stage exhausted its budget ({}) after {}",
            self.stage, self.reason, self.partial
        )
    }
}

impl std::error::Error for Exhausted {}

/// Cooperative cancellation token. Cloning shares the flag; any clone (from
/// any thread) can [`cancel`](CancelToken::cancel) and every governed loop
/// observes it at its next check boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token: every meter sharing it errors with
    /// [`ExhaustReason::Cancelled`] at its next check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Declarative resource budget. `Budget::unlimited()` governs nothing;
/// builder methods tighten individual axes.
///
/// ```
/// use bb_lts::budget::Budget;
/// use std::time::Duration;
///
/// let b = Budget::unlimited()
///     .with_deadline(Duration::from_secs(30))
///     .with_max_states(1_000_000);
/// assert_eq!(b.max_states, 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    /// Wall-clock allowance, from [`Watchdog`] creation. `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Per-stage cap on interned/processed states.
    pub max_states: usize,
    /// Per-stage cap on recorded transitions / product edges.
    pub max_transitions: usize,
    /// Per-stage cap on approximate memory, in bytes.
    pub max_memory_bytes: usize,
    /// Cancellation token observed by every meter.
    pub cancel: CancelToken,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never trips (short of explicit cancellation).
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            max_states: usize::MAX,
            max_transitions: usize::MAX,
            max_memory_bytes: usize::MAX,
            cancel: CancelToken::new(),
        }
    }

    /// The caps of a run that names no budget: 50 M states and 200 M
    /// transitions per stage, no deadline and no memory cap. They stop a
    /// state-space explosion before it exhausts the host.
    pub fn default_caps() -> Self {
        Budget::unlimited()
            .with_max_states(50_000_000)
            .with_max_transitions(200_000_000)
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the per-stage state cap.
    pub fn with_max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Sets the per-stage transition cap.
    pub fn with_max_transitions(mut self, n: usize) -> Self {
        self.max_transitions = n;
        self
    }

    /// Sets the per-stage approximate memory cap, in bytes.
    pub fn with_max_memory_bytes(mut self, n: usize) -> Self {
        self.max_memory_bytes = n;
        self
    }

    /// Uses `token` for cancellation instead of a fresh flag.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }
}

/// The shared resource governor: a [`Budget`] plus the clock it is measured
/// against. Cheap to clone (the cancellation flag is shared; the start
/// instant and limits are copied), so every stage of a pipeline can carry
/// one and spawn per-stage [`Meter`]s from it.
#[derive(Debug, Clone)]
pub struct Watchdog {
    budget: Budget,
    start: Instant,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::new(Budget::unlimited())
    }
}

impl Watchdog {
    /// Starts governing `budget` now.
    pub fn new(budget: Budget) -> Self {
        Watchdog {
            budget,
            start: Instant::now(),
        }
    }

    /// A watchdog that never trips.
    pub fn unlimited() -> Self {
        Watchdog::new(Budget::unlimited())
    }

    /// The governed budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Time since the watchdog started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Remaining wall-clock allowance (`None` = unlimited).
    pub fn remaining(&self) -> Option<Duration> {
        self.budget
            .deadline
            .map(|d| d.saturating_sub(self.start.elapsed()))
    }

    /// Whether the deadline has passed.
    pub fn deadline_passed(&self) -> bool {
        matches!(self.remaining(), Some(d) if d.is_zero())
    }

    /// A clone of the cancellation token.
    pub fn cancel_token(&self) -> CancelToken {
        self.budget.cancel.clone()
    }

    /// Trips the cancellation token.
    pub fn cancel(&self) {
        self.budget.cancel.cancel();
    }

    /// Spawns a per-stage meter. Counters start at zero: state and
    /// transition caps are per stage, while the deadline and cancellation
    /// are global to the watchdog.
    pub fn meter(&self, stage: Stage) -> Meter {
        Meter {
            wd: self.clone(),
            stage,
            states: 0,
            transitions: 0,
            memory_bytes: 0,
            peak_memory_bytes: 0,
            refinement: None,
            ticks_until_check: CHECK_INTERVAL,
        }
    }
}

/// Per-stage cost accountant. All `add_*` methods are O(1); the deadline
/// and cancellation flag are consulted every [`CHECK_INTERVAL`] units.
#[derive(Debug, Clone)]
pub struct Meter {
    wd: Watchdog,
    stage: Stage,
    states: usize,
    transitions: usize,
    /// Bytes currently attributed to the stage (releases subtract).
    memory_bytes: usize,
    /// High-water mark of `memory_bytes` — what the stats report.
    peak_memory_bytes: usize,
    refinement: Option<(u64, u64)>,
    ticks_until_check: u64,
}

impl Meter {
    /// The stage this meter accounts for.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Progress so far (also the `partial` payload of any error).
    pub fn stats(&self) -> PartialStats {
        PartialStats {
            states: self.states,
            transitions: self.transitions,
            memory_bytes: self.peak_memory_bytes.max(self.memory_bytes),
            elapsed: self.wd.elapsed(),
            refinement: self.refinement,
        }
    }

    /// Records the last *completed* refinement round so that an exhaustion
    /// mid-round still reports the furthest stable point reached.
    pub fn note_refinement(&mut self, rounds: u64, blocks: u64) {
        self.refinement = Some((rounds, blocks));
    }

    /// Builds the exhaustion error for `reason` at the current progress.
    pub fn exhausted(&self, reason: ExhaustReason) -> Exhausted {
        Exhausted {
            stage: self.stage,
            reason,
            partial: self.stats(),
        }
    }

    #[inline]
    fn check_clock(&mut self) -> Result<(), Exhausted> {
        self.ticks_until_check = CHECK_INTERVAL;
        // The amortized check boundary doubles as the progress heartbeat:
        // rate-limited inside bb-obs, no-op unless --progress is on.
        bb_obs::heartbeat(
            self.stage.as_str(),
            self.states as u64,
            self.transitions as u64,
        );
        if self.wd.budget.cancel.is_cancelled() {
            return Err(self.exhausted(ExhaustReason::Cancelled));
        }
        if self.wd.deadline_passed() {
            return Err(self.exhausted(ExhaustReason::Deadline));
        }
        Ok(())
    }

    /// Accounts one unit of work (a loop iteration). Every
    /// [`CHECK_INTERVAL`] units the deadline and cancellation are checked.
    #[inline]
    pub fn tick(&mut self) -> Result<(), Exhausted> {
        self.ticks_until_check -= 1;
        if self.ticks_until_check == 0 {
            self.check_clock()?;
        }
        Ok(())
    }

    /// Forces a deadline/cancellation check now (e.g. once per refinement
    /// round, where a round is the natural work quantum).
    pub fn checkpoint(&mut self) -> Result<(), Exhausted> {
        self.check_clock()
    }

    /// Accounts one interned/processed state (also a [`tick`](Meter::tick)).
    #[inline]
    pub fn add_state(&mut self) -> Result<(), Exhausted> {
        self.states += 1;
        if self.states > self.wd.budget.max_states {
            return Err(self.exhausted(ExhaustReason::StateCap));
        }
        self.tick()
    }

    /// Accounts one recorded transition / product edge (also a tick).
    #[inline]
    pub fn add_transition(&mut self) -> Result<(), Exhausted> {
        self.transitions += 1;
        if self.transitions > self.wd.budget.max_transitions {
            return Err(self.exhausted(ExhaustReason::TransitionCap));
        }
        self.tick()
    }

    /// Accounts `n` states at once (e.g. the input size of a refinement
    /// stage), then performs one deadline/cancellation check.
    pub fn add_states(&mut self, n: usize) -> Result<(), Exhausted> {
        self.states = self.states.saturating_add(n);
        if self.states > self.wd.budget.max_states {
            return Err(self.exhausted(ExhaustReason::StateCap));
        }
        self.check_clock()
    }

    /// Accounts `n` transition visits at once (work-proportional cost of a
    /// scan round), then performs one deadline/cancellation check.
    pub fn add_transitions(&mut self, n: usize) -> Result<(), Exhausted> {
        self.transitions = self.transitions.saturating_add(n);
        if self.transitions > self.wd.budget.max_transitions {
            return Err(self.exhausted(ExhaustReason::TransitionCap));
        }
        self.check_clock()
    }

    /// Accounts `n` transition visits for one drained item of a scan, as
    /// [`add_transitions`](Meter::add_transitions) but with the
    /// deadline/cancellation check amortized like [`tick`](Meter::tick):
    /// per-item call sites (one call per SCC of a refinement sweep) would
    /// otherwise pay a forced clock read that dominates the metered work.
    /// Transition-cap trips remain exact — only the clock check is batched.
    #[inline]
    pub fn add_transitions_ticked(&mut self, n: usize) -> Result<(), Exhausted> {
        self.transitions = self.transitions.saturating_add(n);
        if self.transitions > self.wd.budget.max_transitions {
            return Err(self.exhausted(ExhaustReason::TransitionCap));
        }
        self.tick()
    }

    /// Accounts `bytes` of approximate memory attributed to the stage.
    /// The cap is enforced against the *current* attribution, so a stage
    /// that releases memory (e.g. by spilling cold segments to disk) can
    /// keep running under the cap; the reported stats carry the peak.
    #[inline]
    pub fn add_memory(&mut self, bytes: usize) -> Result<(), Exhausted> {
        self.memory_bytes = self.memory_bytes.saturating_add(bytes);
        self.peak_memory_bytes = self.peak_memory_bytes.max(self.memory_bytes);
        if self.memory_bytes > self.wd.budget.max_memory_bytes {
            return Err(self.exhausted(ExhaustReason::Memory));
        }
        if bb_obs::fault::enabled() && bb_obs::fault::hit("alloc-cap") {
            return Err(self.exhausted(ExhaustReason::Memory));
        }
        Ok(())
    }

    /// Releases `bytes` previously accounted with
    /// [`add_memory`](Meter::add_memory) — the memory was freed or moved
    /// out of core (disk spill). The peak is unaffected.
    #[inline]
    pub fn sub_memory(&mut self, bytes: usize) {
        self.memory_bytes = self.memory_bytes.saturating_sub(bytes);
    }

    /// Bytes currently attributed to the stage.
    pub fn memory_current(&self) -> usize {
        self.memory_bytes
    }

    /// The stage's memory cap (`usize::MAX` when unlimited).
    pub fn memory_cap(&self) -> usize {
        self.wd.budget.max_memory_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let wd = Watchdog::unlimited();
        let mut m = wd.meter(Stage::Explore);
        for _ in 0..10 * CHECK_INTERVAL {
            m.add_state().unwrap();
            m.add_transition().unwrap();
        }
        assert_eq!(m.stats().states, 10 * CHECK_INTERVAL as usize);
    }

    #[test]
    fn state_cap_trips_with_partial_stats() {
        let wd = Watchdog::new(Budget::unlimited().with_max_states(5));
        let mut m = wd.meter(Stage::Bisim);
        for _ in 0..5 {
            m.add_state().unwrap();
        }
        let err = m.add_state().unwrap_err();
        assert_eq!(err.stage, Stage::Bisim);
        assert_eq!(err.reason, ExhaustReason::StateCap);
        assert_eq!(err.partial.states, 6);
    }

    #[test]
    fn transition_cap_trips() {
        let wd = Watchdog::new(Budget::unlimited().with_max_transitions(3));
        let mut m = wd.meter(Stage::Refine);
        for _ in 0..3 {
            m.add_transition().unwrap();
        }
        assert_eq!(
            m.add_transition().unwrap_err().reason,
            ExhaustReason::TransitionCap
        );
    }

    #[test]
    fn memory_cap_trips() {
        let wd = Watchdog::new(Budget::unlimited().with_max_memory_bytes(1000));
        let mut m = wd.meter(Stage::Ltl);
        m.add_memory(900).unwrap();
        assert_eq!(m.add_memory(200).unwrap_err().reason, ExhaustReason::Memory);
    }

    #[test]
    fn zero_deadline_trips_at_first_checkpoint() {
        let wd = Watchdog::new(Budget::unlimited().with_deadline(Duration::ZERO));
        let mut m = wd.meter(Stage::Explore);
        let err = m.checkpoint().unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Deadline);
    }

    #[test]
    fn deadline_observed_within_check_interval_ticks() {
        let wd = Watchdog::new(Budget::unlimited().with_deadline(Duration::ZERO));
        let mut m = wd.meter(Stage::Explore);
        let mut tripped = false;
        for _ in 0..=CHECK_INTERVAL {
            if m.tick().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deadline must surface within one check interval");
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let token = CancelToken::new();
        let wd = Watchdog::new(Budget::unlimited().with_cancel_token(token.clone()));
        let mut m = wd.meter(Stage::Refine);
        m.checkpoint().unwrap();
        token.cancel();
        assert_eq!(m.checkpoint().unwrap_err().reason, ExhaustReason::Cancelled);
    }

    #[test]
    fn caps_are_per_meter_not_global() {
        let wd = Watchdog::new(Budget::unlimited().with_max_states(2));
        let mut a = wd.meter(Stage::Explore);
        a.add_state().unwrap();
        a.add_state().unwrap();
        assert!(a.add_state().is_err());
        // A fresh meter from the same watchdog starts its own count.
        let mut b = wd.meter(Stage::Bisim);
        b.add_state().unwrap();
        b.add_state().unwrap();
    }

    #[test]
    fn display_is_informative() {
        let wd = Watchdog::new(Budget::unlimited().with_max_states(0));
        let mut m = wd.meter(Stage::Explore);
        let err = m.add_state().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("explore"), "{text}");
        assert!(text.contains("state cap"), "{text}");
        assert!(text.contains("states"), "{text}");
    }

    #[test]
    fn partial_stats_report_all_four_resources() {
        let stats = PartialStats {
            states: 7,
            transitions: 12,
            memory_bytes: 3 * 1024 * 1024,
            elapsed: Duration::from_millis(1500),
            refinement: None,
        };
        let text = stats.to_string();
        assert!(text.contains("7 states"), "{text}");
        assert!(text.contains("12 transitions"), "{text}");
        assert!(text.contains("3.0 MiB peak"), "{text}");
        assert!(text.contains("elapsed"), "{text}");
        assert!(!text.contains("round"), "{text}");
    }

    #[test]
    fn partial_stats_carry_refinement_progress() {
        let wd = Watchdog::new(Budget::unlimited().with_max_states(0));
        let mut m = wd.meter(Stage::Bisim);
        m.note_refinement(4, 117);
        let err = m.add_state().unwrap_err();
        assert_eq!(err.partial.refinement, Some((4, 117)));
        let text = err.to_string();
        assert!(text.contains("last completed round 4 had 117 blocks"), "{text}");
    }
}
