//! The object-algorithm trait: one small-step state machine per method body.

use crate::Value;
use bb_lts::ThreadId;
use std::fmt::Debug;
use std::hash::Hash;

/// Index of a method within an algorithm's [`MethodSpec`] list.
pub type MethodId = usize;

/// Description of one object method for the most general client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSpec {
    /// Method name as it appears in call/return actions.
    pub name: &'static str,
    /// The (finite) argument domain: one entry per possible invocation.
    /// `None` models a method without parameters.
    pub args: Vec<Option<Value>>,
}

impl MethodSpec {
    /// A method without parameters.
    pub fn no_arg(name: &'static str) -> Self {
        MethodSpec {
            name,
            args: vec![None],
        }
    }

    /// A method invoked with every value of `domain`.
    pub fn with_args(name: &'static str, domain: &[Value]) -> Self {
        MethodSpec {
            name,
            args: domain.iter().map(|&v| Some(v)).collect(),
        }
    }
}

/// One possible outcome of a single internal step of a method body.
#[derive(Debug, Clone)]
pub enum Outcome<Shared, Frame> {
    /// The method performs an internal step (one shared-memory access),
    /// staying inside its body. `tag` names the source line (e.g. `"L28"`)
    /// for the τ-labels of Figures 6/7.
    Tau {
        /// Updated shared state.
        shared: Shared,
        /// Updated local continuation.
        frame: Frame,
        /// Source-line tag carried on the τ action.
        tag: &'static str,
    },
    /// The method completes, returning `val`.
    Ret {
        /// Updated shared state.
        shared: Shared,
        /// Return value (`None` for `void` methods).
        val: Option<Value>,
        /// Source-line tag (recorded for diagnostics only — the visible
        /// return action itself is labeled by method and value).
        tag: &'static str,
    },
}

/// A concurrent object algorithm in small-step operational style.
///
/// Implementations model each shared-memory access (read, write, CAS, lock
/// acquisition…) as one internal step, mirroring the interleaving
/// granularity of the paper's LNT models. Blocking primitives (a lock held
/// by another thread) are modeled by producing *no* outcome: the thread
/// simply has no transition until the lock is released.
///
/// The `Sync`/`Send` bounds let the most general client run on the parallel
/// exploration engine (a parallel [`bb_lts::ExploreOptions`]); algorithm states
/// are plain data everywhere, so the bounds cost implementors nothing.
pub trait ObjectAlgorithm: Sync {
    /// The shared portion of the object state (heap, top/head pointers,
    /// hazard-pointer slots, locks…). The [`Pack`](crate::Pack) bound gives
    /// every state a canonical byte encoding, which is what the compact
    /// exploration engine hashes and stores (see `crate::pack`).
    type Shared: Clone + Eq + Hash + Debug + Send + Sync + crate::Pack;
    /// The per-invocation local state: program counter plus registers.
    type Frame: Clone + Eq + Hash + Debug + Send + Sync + crate::Pack;

    /// Human-readable algorithm name (used in reports and benches).
    fn name(&self) -> &'static str;

    /// The object's methods, in [`MethodId`] order.
    fn methods(&self) -> Vec<MethodSpec>;

    /// The initial shared state.
    fn initial_shared(&self) -> Self::Shared;

    /// Builds the frame for a fresh invocation of `method` with `arg` by
    /// thread `t` (the visible call action itself is produced by the most
    /// general client).
    fn begin(&self, method: MethodId, arg: Option<Value>, t: ThreadId) -> Self::Frame;

    /// Enumerates every possible next step of thread `t` executing `frame`.
    ///
    /// An empty `out` means the thread is blocked in this state.
    fn step(
        &self,
        shared: &Self::Shared,
        frame: &Self::Frame,
        t: ThreadId,
        out: &mut Vec<Outcome<Self::Shared, Self::Frame>>,
    );

    /// Canonicalizes the shared state together with all live frames
    /// (garbage collection + renaming of heap pointers). The default is a
    /// no-op for algorithms without a heap.
    fn canonicalize(&self, _shared: &mut Self::Shared, _frames: &mut [&mut Self::Frame]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_spec_constructors() {
        let m = MethodSpec::no_arg("pop");
        assert_eq!(m.args, vec![None]);
        let m = MethodSpec::with_args("push", &[1, 2]);
        assert_eq!(m.args, vec![Some(1), Some(2)]);
    }
}
