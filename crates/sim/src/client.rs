//! The most general client (Section II-B) and system-level semantics.

use crate::algorithm::{MethodId, MethodSpec, ObjectAlgorithm, Outcome};
use crate::pack::{Pack, PackReader, PackWriter};
use bb_lts::budget::Exhausted;
use bb_lts::{
    explore_compact, explore_with, Action, CodecSemantics, ExploreOptions, ExploreReport, Lts,
    Semantics, ThreadId,
};
use std::fmt::Debug;
use std::hash::Hash;

/// Bounds making the state space finite: a fixed number of client threads,
/// each performing at most `ops_per_thread` operations. This is the
/// "restrict the number of operations a thread can perform" option chosen
/// in Section VI-B of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    /// Number of concurrent client threads (`#Th.` in the tables).
    pub threads: u8,
    /// Operations each thread may perform (`#Op.` in the tables).
    pub ops_per_thread: u32,
}

impl Bound {
    /// Convenience constructor matching the paper's `#Th.-#Op.` notation.
    pub fn new(threads: u8, ops_per_thread: u32) -> Self {
        Bound {
            threads,
            ops_per_thread,
        }
    }
}

/// Status of one client thread.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ThreadStatus<F> {
    /// Between operations; may start `remaining` more.
    Idle {
        /// Operations this thread may still invoke.
        remaining: u32,
    },
    /// Inside a method body.
    Running {
        /// The invoked method.
        method: MethodId,
        /// Local continuation of the method body.
        frame: F,
        /// Operations remaining *after* this one completes.
        remaining: u32,
    },
}

impl<F: Pack> Pack for ThreadStatus<F> {
    /// `remaining` and the idle/running discriminant fuse into a single
    /// varint (`remaining << 1 | is_running`), so the common idle status
    /// costs one byte; a running status additionally packs the method index
    /// and the frame.
    fn pack(&self, w: &mut PackWriter<'_>) {
        match self {
            ThreadStatus::Idle { remaining } => w.put_u64(u64::from(*remaining) << 1),
            ThreadStatus::Running {
                method,
                frame,
                remaining,
            } => {
                w.put_u64(u64::from(*remaining) << 1 | 1);
                w.put_u64(*method as u64);
                frame.pack(w);
            }
        }
    }

    fn unpack(r: &mut PackReader<'_>) -> Option<Self> {
        let fused = r.take_u64()?;
        let remaining = u32::try_from(fused >> 1).ok()?;
        if fused & 1 == 0 {
            Some(ThreadStatus::Idle { remaining })
        } else {
            let method = usize::try_from(r.take_u64()?).ok()?;
            let frame = F::unpack(r)?;
            Some(ThreadStatus::Running {
                method,
                frame,
                remaining,
            })
        }
    }
}

/// Global state of the most general client: shared object state plus every
/// thread's status.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SysState<S, F> {
    /// The object's shared state.
    pub shared: S,
    /// Per-thread status, indexed by thread number − 1.
    pub threads: Vec<ThreadStatus<F>>,
}

/// The most general client driving an [`ObjectAlgorithm`]: `threads`
/// concurrent threads repeatedly invoke arbitrary methods with arbitrary
/// parameters, up to the bound. Implements [`Semantics`], so
/// [`bb_lts::explore_with`] (or [`explore_system`]) unfolds it into the object
/// LTS of Definition 2.1.
#[derive(Debug, Clone)]
pub struct System<'a, A: ObjectAlgorithm> {
    alg: &'a A,
    bound: Bound,
    methods: Vec<MethodSpec>,
}

impl<'a, A: ObjectAlgorithm> System<'a, A> {
    /// Creates the most general client for `alg` under `bound`.
    pub fn new(alg: &'a A, bound: Bound) -> Self {
        System {
            alg,
            bound,
            methods: alg.methods(),
        }
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> &'a A {
        self.alg
    }

    /// The client bound.
    pub fn bound(&self) -> Bound {
        self.bound
    }

    /// Canonicalizes a system state in place (heap GC + pointer renaming
    /// across the shared state and every live frame).
    fn canonicalize(&self, st: &mut SysState<A::Shared, A::Frame>) {
        let SysState { shared, threads } = st;
        let mut frames: Vec<&mut A::Frame> = threads
            .iter_mut()
            .filter_map(|t| match t {
                ThreadStatus::Running { frame, .. } => Some(frame),
                ThreadStatus::Idle { .. } => None,
            })
            .collect();
        self.alg.canonicalize(shared, &mut frames);
    }

    /// Appends the outgoing steps contributed by thread `ti` (0-based) in
    /// `state` — the building block [`Semantics::successors`] loops over.
    #[allow(clippy::type_complexity)]
    fn thread_successors(
        &self,
        state: &SysState<A::Shared, A::Frame>,
        ti: usize,
        out: &mut Vec<(Action, SysState<A::Shared, A::Frame>)>,
    ) {
        let t = ThreadId(ti as u8 + 1);
        match &state.threads[ti] {
            ThreadStatus::Idle { remaining } => {
                if *remaining == 0 {
                    return;
                }
                for (mid, spec) in self.methods.iter().enumerate() {
                    for &arg in &spec.args {
                        let mut next = state.clone();
                        next.threads[ti] = ThreadStatus::Running {
                            method: mid,
                            frame: self.alg.begin(mid, arg, t),
                            remaining: remaining - 1,
                        };
                        self.canonicalize(&mut next);
                        out.push((Action::call(t, spec.name, arg), next));
                    }
                }
            }
            ThreadStatus::Running {
                method,
                frame,
                remaining,
            } => {
                let mut outcomes = Vec::new();
                self.alg.step(&state.shared, frame, t, &mut outcomes);
                for oc in outcomes {
                    match oc {
                        Outcome::Tau { shared, frame, tag } => {
                            let mut next = state.clone();
                            next.shared = shared;
                            next.threads[ti] = ThreadStatus::Running {
                                method: *method,
                                frame,
                                remaining: *remaining,
                            };
                            self.canonicalize(&mut next);
                            let action = if tag.is_empty() {
                                Action::tau(t)
                            } else {
                                Action::tau_tagged(t, tag)
                            };
                            out.push((action, next));
                        }
                        Outcome::Ret { shared, val, tag: _ } => {
                            let mut next = state.clone();
                            next.shared = shared;
                            next.threads[ti] = ThreadStatus::Idle {
                                remaining: *remaining,
                            };
                            self.canonicalize(&mut next);
                            out.push((Action::ret(t, self.methods[*method].name, val), next));
                        }
                    }
                }
            }
        }
    }
}

impl<A: ObjectAlgorithm> Semantics for System<'_, A>
where
    A::Shared: Debug + Clone + Eq + Hash,
    A::Frame: Debug + Clone + Eq + Hash,
{
    type State = SysState<A::Shared, A::Frame>;

    fn initial_state(&self) -> Self::State {
        let mut st = SysState {
            shared: self.alg.initial_shared(),
            threads: vec![
                ThreadStatus::Idle {
                    remaining: self.bound.ops_per_thread,
                };
                self.bound.threads as usize
            ],
        };
        self.canonicalize(&mut st);
        st
    }

    fn successors(&self, state: &Self::State, out: &mut Vec<(Action, Self::State)>) {
        for ti in 0..state.threads.len() {
            self.thread_successors(state, ti, out);
        }
    }
}

impl<A: ObjectAlgorithm> CodecSemantics for System<'_, A>
where
    A::Shared: Debug + Clone + Eq + Hash,
    A::Frame: Debug + Clone + Eq + Hash,
{
    /// The canonical system encoding: the shared state, then every thread's
    /// status in thread order. No length prefix is needed — `threads` always
    /// has exactly `bound.threads` entries, so the layout is derived from
    /// the [`Bound`] at decode time.
    fn encode_state(&self, state: &Self::State, out: &mut Vec<u8>) {
        let mut w = PackWriter::new(out);
        state.shared.pack(&mut w);
        for t in &state.threads {
            t.pack(&mut w);
        }
    }

    fn decode_state(&self, bytes: &[u8]) -> Self::State {
        let mut r = PackReader::new(bytes);
        let shared = A::Shared::unpack(&mut r).expect("corrupt shared-state encoding");
        let threads = (0..self.bound.threads)
            .map(|_| ThreadStatus::unpack(&mut r).expect("corrupt thread-status encoding"))
            .collect();
        debug_assert!(r.finished(), "trailing bytes after state encoding");
        SysState { shared, threads }
    }
}

/// Unfolds the most general client of `alg` under `bound` into an explicit
/// LTS, with budget and worker count chosen by `opts`.
///
/// This is the single entry point behind every `explore_system*` variant.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage `explore`) when any budget axis trips.
pub fn explore_system_with<A: ObjectAlgorithm>(
    alg: &A,
    bound: Bound,
    opts: &ExploreOptions<'_>,
) -> Result<Lts, Exhausted> {
    let _span = bb_obs::span("explore.system")
        .with("object", alg.name())
        .with("threads", bound.threads as u64)
        .with("ops", bound.ops_per_thread as u64);
    let system = System::new(alg, bound);
    explore_compact(&system, opts).map(|(lts, _)| lts)
}

/// [`explore_system_with`] returning the seen-set's [`ExploreReport`]
/// (exploration stats plus store footprint/compression metrics) alongside
/// the LTS. States are interned as canonical bit-packed encodings in an
/// arena with an optional disk-spill tier.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage `explore`) when any budget axis trips.
pub fn explore_system_report<A: ObjectAlgorithm>(
    alg: &A,
    bound: Bound,
    opts: &ExploreOptions<'_>,
) -> Result<(Lts, ExploreReport), Exhausted> {
    let _span = bb_obs::span("explore.system")
        .with("object", alg.name())
        .with("threads", bound.threads as u64)
        .with("ops", bound.ops_per_thread as u64);
    let system = System::new(alg, bound);
    explore_compact(&system, opts)
}

/// Unfolds the most general client of `alg` under `bound` into an explicit
/// LTS, on the serial engine under the default caps.
///
/// The seen-set holds the rich states themselves ([`bb_lts::explore_with`]),
/// not their encodings, which makes this the reference that
/// [`explore_system_with`]'s compact arena reproduces byte for byte.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage `explore`) if the state space exceeds the
/// default caps ([`bb_lts::Budget::default_caps`]).
pub fn explore_system<A: ObjectAlgorithm>(alg: &A, bound: Bound) -> Result<Lts, Exhausted> {
    explore_with(&System::new(alg, bound), &ExploreOptions::default())
}

#[cfg(test)]
pub(crate) fn tests_no_cycle_helper(lts: &bb_lts::Lts) -> bool {
    // τ-cycle detection via the τ-SCC condensation.
    let cond = bb_lts::condensation(lts, |_, a, _| !lts.is_visible(a));
    cond.cyclic.iter().all(|c| !c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{MethodSpec, Outcome};
    use crate::Value;
    use bb_lts::Jobs;

    /// A register with an atomic write and a two-step (read then publish)
    /// increment, to exercise interleavings.
    struct TestCounter;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Frame {
        IncStart,
        IncGot(Value),
        Read,
    }

    crate::impl_pack!(enum Frame { 0 => IncStart, 1 => IncGot(v), 2 => Read });

    impl ObjectAlgorithm for TestCounter {
        type Shared = Value;
        type Frame = Frame;

        fn name(&self) -> &'static str {
            "test-counter"
        }

        fn methods(&self) -> Vec<MethodSpec> {
            vec![MethodSpec::no_arg("inc"), MethodSpec::no_arg("read")]
        }

        fn initial_shared(&self) -> Value {
            0
        }

        fn begin(&self, method: MethodId, _arg: Option<Value>, _t: ThreadId) -> Frame {
            match method {
                0 => Frame::IncStart,
                _ => Frame::Read,
            }
        }

        fn step(
            &self,
            shared: &Value,
            frame: &Frame,
            _t: ThreadId,
            out: &mut Vec<Outcome<Value, Frame>>,
        ) {
            match frame {
                Frame::IncStart => out.push(Outcome::Tau {
                    shared: *shared,
                    frame: Frame::IncGot(*shared),
                    tag: "L1",
                }),
                Frame::IncGot(v) => out.push(Outcome::Ret {
                    shared: v + 1,
                    val: None,
                    tag: "L2",
                }),
                Frame::Read => out.push(Outcome::Ret {
                    shared: *shared,
                    val: Some(*shared),
                    tag: "L3",
                }),
            }
        }
    }

    #[test]
    fn single_thread_is_sequential() {
        let lts = explore_system(&TestCounter, Bound::new(1, 1)).unwrap();
        // 1 thread, 1 op: call inc (τ, ret) or call read (ret).
        // States: init, inc-running(2 states), read-running(1), done-after
        // variants... just sanity-check shape.
        assert!(lts.num_states() > 3);
        assert!(lts
            .actions()
            .iter()
            .any(|a| a.method.as_deref() == Some("inc")));
    }

    #[test]
    fn lost_update_is_observable_with_two_threads() {
        // With two concurrent incs and a final... actually verify that the
        // LTS contains a path where both incs read 0 (lost update) — i.e.
        // some read after two incs can still return 1.
        let lts = explore_system(&TestCounter, Bound::new(2, 2)).unwrap();
        let has_ret_1 = lts
            .actions()
            .iter()
            .any(|a| a.kind == bb_lts::ActionKind::Ret && a.value == Some(1));
        assert!(has_ret_1);
    }

    #[test]
    fn respects_ops_bound() {
        let lts = explore_system(&TestCounter, Bound::new(1, 2)).unwrap();
        // No trace can contain three calls; check max reads returned ≤ 2.
        assert!(lts
            .actions()
            .iter()
            .all(|a| a.value.unwrap_or(0) <= 2));
    }

    /// A one-slot lock object: threads block (no transitions) while the
    /// lock is held by another thread.
    struct TestLock;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum LockFrame {
        Acquire,
        Release,
    }

    crate::impl_pack!(enum LockFrame { 0 => Acquire, 1 => Release });

    impl ObjectAlgorithm for TestLock {
        type Shared = Option<ThreadId>;
        type Frame = LockFrame;

        fn name(&self) -> &'static str {
            "test-lock"
        }
        fn methods(&self) -> Vec<MethodSpec> {
            vec![MethodSpec::no_arg("work")]
        }
        fn initial_shared(&self) -> Option<ThreadId> {
            None
        }
        fn begin(&self, _m: MethodId, _a: Option<Value>, _t: ThreadId) -> LockFrame {
            LockFrame::Acquire
        }
        fn step(
            &self,
            shared: &Option<ThreadId>,
            frame: &LockFrame,
            t: ThreadId,
            out: &mut Vec<Outcome<Option<ThreadId>, LockFrame>>,
        ) {
            match frame {
                LockFrame::Acquire => {
                    if shared.is_none() {
                        out.push(Outcome::Tau {
                            shared: Some(t),
                            frame: LockFrame::Release,
                            tag: "lock",
                        });
                    } // else: blocked — no outcome.
                }
                LockFrame::Release => out.push(Outcome::Ret {
                    shared: None,
                    val: None,
                    tag: "",
                }),
            }
        }
    }

    #[test]
    fn blocked_threads_have_no_transitions_but_system_progresses() {
        let lts = explore_system(&TestLock, Bound::new(2, 2)).unwrap();
        // Mutual exclusion never deadlocks here: from every reachable
        // non-terminal state there is at least one transition, and the
        // system has no τ-cycles (blocking is not spinning).
        assert!(lts.iter_transitions().count() > 0);
        // Terminal states are exactly the all-budget-spent states; verify
        // at least one exists (the run can always finish).
        let terminal = lts
            .states()
            .filter(|s| lts.successors(*s).is_empty())
            .count();
        assert!(terminal >= 1);
        // No divergence: a blocked thread contributes no self-loop.
        let p = crate::client::tests_no_cycle_helper(&lts);
        assert!(p, "lock blocking must not create τ-cycles");
    }

    #[test]
    fn system_encoding_round_trips_and_is_deterministic() {
        // decode(encode(s)) == s and re-encoding is byte-stable for every
        // reachable state of the test objects.
        let system = System::new(&TestCounter, Bound::new(2, 2));
        let lts = explore_system(&TestCounter, Bound::new(2, 2)).unwrap();
        assert!(lts.num_states() > 10);
        // Walk the reachable set again via Semantics (the LTS doesn't keep
        // rich states) and round-trip each one.
        let mut seen = std::collections::HashSet::new();
        let mut frontier = vec![Semantics::initial_state(&system)];
        let mut buf = Vec::new();
        let mut buf2 = Vec::new();
        while let Some(st) = frontier.pop() {
            buf.clear();
            system.encode_state(&st, &mut buf);
            if !seen.insert(buf.clone()) {
                continue;
            }
            let back = system.decode_state(&buf);
            assert_eq!(back, st, "decode(encode(s)) != s");
            buf2.clear();
            system.encode_state(&back, &mut buf2);
            assert_eq!(buf, buf2, "re-encoding is not deterministic");
            let mut succ = Vec::new();
            Semantics::successors(&system, &st, &mut succ);
            frontier.extend(succ.into_iter().map(|(_, s)| s));
        }
        assert_eq!(seen.len(), lts.num_states());
    }

    #[test]
    fn compact_engine_is_bit_identical_to_rich_engine() {
        // The compact (packed-arena) seen-set must reproduce the rich
        // store's `.aut` bytes exactly, at any worker count.
        let bound = Bound::new(2, 2);
        let rich = explore_system(&TestCounter, bound).unwrap();
        for jobs in [Jobs::serial(), Jobs::new(4)] {
            let opts = ExploreOptions::default().with_jobs(jobs);
            let lts = explore_system_with(&TestCounter, bound, &opts).unwrap();
            assert_eq!(
                bb_lts::to_aut(&rich),
                bb_lts::to_aut(&lts),
                "compact LTS differs at {jobs:?}"
            );
            let (reported, report) = explore_system_report(&TestCounter, bound, &opts).unwrap();
            assert_eq!(bb_lts::to_aut(&rich), bb_lts::to_aut(&reported));
            assert!(report.store.raw_bytes > 0);
            // Tiny encodings may not amortize the 2-byte entry header, but
            // compression must never cost more than that header per state.
            assert!(
                report.store.stored_bytes
                    <= report.store.raw_bytes + 2 * report.stats.states as u64
            );
            assert!(report.store_bytes_peak > 0);
        }
    }

    #[test]
    fn tau_tags_are_recorded() {
        let lts = explore_system(&TestCounter, Bound::new(1, 1)).unwrap();
        assert!(lts
            .actions()
            .iter()
            .any(|a| a.tag.as_deref() == Some("L1")));
    }
}
