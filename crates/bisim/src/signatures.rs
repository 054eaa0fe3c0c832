//! Signature-based partition refinement for all supported equivalences.
//!
//! Starting from the universal partition, each round assigns every state a
//! *signature* — the set of moves it can perform up to the current partition —
//! and splits blocks by signature. Since the previous block id is part of the
//! split key, partitions refine monotonically and the loop terminates in at
//! most `|S|` rounds at the coarsest bisimulation of the requested kind
//! (Blom & Orzan, 2002; for the divergence flag, the mCRL2 variant of
//! divergence-preserving branching bisimulation).
//!
//! Two engines implement the loop, selected by [`RefineMode`]:
//!
//! * [`RefineMode::Full`] recomputes every signature every round — the
//!   original formulation, kept as the reference implementation and the
//!   `--refine full` escape hatch.
//! * [`RefineMode::Incremental`] (the default) observes that a state's
//!   signature can only change when a successor changed block, so each round
//!   recomputes only a *dirty worklist* derived from the states that moved in
//!   the previous round. Signatures are hash-consed into a flat
//!   [`SigArena`], the split compares interned `u32` sig-ids instead of
//!   re-hashing pair vectors, and the branching engines reuse the inert-τ
//!   SCC condensation across rounds whenever no component-internal τ-edge
//!   lost inertness. The produced partition — block ids included — is
//!   bit-identical to the full engine at any [`Jobs`] count; see
//!   DESIGN.md § "Incremental refinement" for the invariants and the
//!   determinism argument.

use crate::partition::{canonical_from_labels, BlockId, Partition};
use crate::snapshot;
use bb_lts::budget::{ExhaustReason, Exhausted, Meter, Stage, Watchdog};
use bb_lts::{tarjan_scc, tarjan_scc_region, Jobs, Lts, PredecessorTable, StateId, TauClosure};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Connection of one governed refinement call to the installed checkpoint
/// sink: the sink plus the call's structural fingerprint (see
/// [`snapshot::refine_fingerprint`]). Built by [`run_governed_opts`] only
/// when a sink is installed, so the common path pays one atomic load.
struct PersistHook {
    sink: Arc<dyn bb_obs::PersistSink>,
    fingerprint: u64,
}

impl PersistHook {
    /// Offers the completed round `round` (1-based) with partition `p` to
    /// the sink; encoding happens only if the sink decides to persist.
    fn offer(&self, round: usize, stable: bool, p: &dyn Fn() -> Partition) {
        self.sink
            .offer_round(self.fingerprint, round as u64, stable, &mut || {
                snapshot::encode_round(&p(), round as u64)
            });
    }
}

/// Injected hard-crash faults at the top of a refinement round. `mid-round`
/// panics (exercised by `run_isolated`-style catch paths and the governed
/// ladder); `round-abort` kills the process outright — the checkpoint cut
/// after round `k-1` must then be enough to resume.
fn round_fault(round: usize) {
    if !bb_obs::fault::enabled() {
        return;
    }
    if bb_obs::fault::hit("mid-round") {
        panic!("injected mid-round fault at bisim round {round}");
    }
    if bb_obs::fault::hit("round-abort") {
        std::process::abort();
    }
}

/// Minimum states per worker before a signature pass is fanned out.
const SIG_MIN_CHUNK: usize = 256;
/// Minimum SCCs per worker before a branching topological layer is fanned
/// out (per-SCC work is heavier than per-state work).
const SCC_MIN_CHUNK: usize = 64;
/// Minimum split candidate blocks per worker before the grouping pass of
/// the incremental split is fanned out.
const SPLIT_MIN_CHUNK: usize = 64;
/// Sentinel sig-id for "no signature computed yet".
const NO_SIG: u32 = u32::MAX;

/// Hard cap on refinable inputs: state indices, stable block labels and
/// interned sig-ids all live in `u32` with reserved sentinels (`NO_SIG`,
/// `DIV_LETTER`), and the `.aut` importer enforces the same `2^28` bound.
/// Larger programmatic inputs surface as a state-cap budget trip instead of
/// silently truncating the `as u32` casts in the engines below.
const MAX_STATES: usize = 1 << 28;

/// The equivalence relation to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Equivalence {
    /// Strong bisimulation (τ treated as an ordinary, single letter).
    Strong,
    /// Branching bisimulation `≈` (Definition 4.1).
    Branching,
    /// Divergence-sensitive branching bisimulation `≈div`
    /// (Definitions 5.4/5.5): like `≈` but additionally separating states
    /// that can diverge (have an infinite τ-path within their class) from
    /// states that cannot.
    BranchingDiv,
    /// Weak bisimulation `~w` (Milner; Section VII of the paper).
    Weak,
}

/// Which refinement engine computes the partition.
///
/// Both engines produce bit-identical partitions (block ids included) at any
/// [`Jobs`] count; they differ only in how much work a round does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefineMode {
    /// Recompute every signature every round (the reference engine).
    Full,
    /// Recompute only dirty states, intern signatures, and reuse the
    /// inert-τ condensation across rounds.
    #[default]
    Incremental,
}

impl std::fmt::Display for RefineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RefineMode::Full => "full",
            RefineMode::Incremental => "incremental",
        })
    }
}

impl std::str::FromStr for RefineMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(RefineMode::Full),
            "incremental" => Ok(RefineMode::Incremental),
            other => Err(format!(
                "unknown refinement mode `{other}` (expected `full` or `incremental`)"
            )),
        }
    }
}

/// Options for a partition-refinement run.
///
/// The default is the sequential incremental engine — the same partition as
/// every other configuration, computed with the least work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionOptions {
    /// Worker threads for the sharded signature passes.
    pub jobs: Jobs,
    /// Which refinement engine to run.
    pub mode: RefineMode,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            jobs: Jobs::serial(),
            mode: RefineMode::Incremental,
        }
    }
}

impl PartitionOptions {
    /// The default options: sequential, incremental.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count.
    pub fn with_jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the refinement engine.
    pub fn with_mode(mut self, mode: RefineMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Work accounting of a refinement run (see [`partition_with_stats`]).
///
/// The full engine recomputes `rounds × num_states` signatures by
/// construction; the incremental engine's `sig_recomputes` is the measure of
/// how much of that it avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Refinement rounds executed (including the final stable round).
    pub rounds: usize,
    /// State-signatures actually recomputed, summed over rounds.
    pub sig_recomputes: u64,
    /// States on the dirty worklist at round start, summed over rounds.
    pub dirty_states: u64,
    /// Peak signature storage charged against the memory budget, in bytes.
    pub peak_sig_bytes: usize,
}

/// The sequence of partitions produced by the refinement rounds.
///
/// Round `0` is the universal partition; the last round is the final
/// fixpoint. Used by the distinguishing-formula diagnostics.
#[derive(Debug, Clone)]
pub struct RefinementHistory {
    /// One partition per round, coarsest first.
    pub rounds: Vec<Partition>,
}

/// Sentinel letter marking a divergent state in `≈div` signatures.
pub(crate) const DIV_LETTER: u32 = u32::MAX;
/// Letter used for observable τ-moves (class-changing internal steps).
pub(crate) const TAU_LETTER: u32 = 0;

/// Per-LTS context shared by all refinement rounds.
///
/// Hoisting this across rounds (and across the diagnostic replays of
/// [`Ctx::signatures_of`]) means the letter table — and for
/// [`Equivalence::Weak`] the full forward τ-closure — is built once per LTS,
/// not once per round.
pub(crate) struct Ctx<'a> {
    lts: &'a Lts,
    eq: Equivalence,
    /// Worker threads for the sharded signature passes.
    jobs: Jobs,
    /// Maps `ActionId` to a letter id: `TAU_LETTER` for every internal
    /// action, a unique id `>= 1` per distinct observation otherwise.
    letters: Vec<u32>,
    /// Display name of each letter (`names[0]` is τ), for diagnostics.
    names: Vec<String>,
    /// Forward τ-closure, computed lazily for weak bisimulation only.
    closure: Option<TauClosure>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(lts: &'a Lts, eq: Equivalence) -> Self {
        Ctx::with_jobs(lts, eq, Jobs::serial())
    }

    fn with_jobs(lts: &'a Lts, eq: Equivalence, jobs: Jobs) -> Self {
        let (letters, names) = letter_table(lts);
        let closure = match eq {
            Equivalence::Weak => Some(TauClosure::compute(lts)),
            _ => None,
        };
        Ctx {
            lts,
            eq,
            jobs,
            letters,
            names,
            closure,
        }
    }

    #[inline]
    fn is_tau(&self, a: bb_lts::ActionId) -> bool {
        self.letters[a.index()] == TAU_LETTER
    }

    /// Display names of the signature letters (`names[0]` is τ). Built once
    /// per context so diagnostics do not recompute the letter table.
    pub(crate) fn letter_names(&self) -> &[String] {
        &self.names
    }

    /// Computes the signatures of all states w.r.t. `p` into `sigs`,
    /// returning the total number of `(letter, block)` pairs written (the
    /// incremental input to the memory accounting).
    ///
    /// The strong/weak passes shard by state range and the branching pass
    /// shards by condensed-SCC topological layer; every shard writes a
    /// disjoint region and the result is identical to the sequential pass
    /// at any worker count.
    fn compute(&self, p: &Partition, sigs: &mut [Signature]) -> usize {
        match self.eq {
            Equivalence::Strong => strong_signatures(self, p, sigs),
            Equivalence::Branching => branching_signatures(self, p, false, sigs),
            Equivalence::BranchingDiv => branching_signatures(self, p, true, sigs),
            Equivalence::Weak => weak_signatures(self, p, sigs),
        }
    }

    /// [`Ctx::compute`] into a fresh signature vector (diagnostics replay).
    pub(crate) fn signatures_of(&self, p: &Partition) -> Vec<Signature> {
        let mut sigs = vec![Vec::new(); self.lts.num_states()];
        self.compute(p, &mut sigs);
        sigs
    }
}

/// Runs `f(base_state_index, shard)` over `jobs`-sized disjoint shards of
/// `sigs` on scoped threads, returning the summed pair counts. Shards are
/// contiguous state ranges, so each invocation writes exactly the states it
/// owns; with one worker the call degenerates to `f(0, sigs)` inline.
fn shard_states<F>(jobs: Jobs, sigs: &mut [Signature], f: F) -> usize
where
    F: Fn(usize, &mut [Signature]) -> usize + Sync,
{
    let n = sigs.len();
    let workers = jobs.for_items(n, SIG_MIN_CHUNK);
    if workers == 1 {
        return f(0, sigs);
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sigs
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, shard)| {
                let f = &f;
                scope.spawn(move || f(i * chunk, shard))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .sum()
    })
}

/// A signature: sorted, deduplicated `(letter, target block)` pairs.
pub(crate) type Signature = Vec<(u32, u32)>;

/// Computes the letter table of `lts`: a per-action letter id (0 for τ) and
/// the display name of each letter. Letter ids match those used in
/// signatures, so diagnostics can name the moves that distinguish states.
pub(crate) fn letter_table(lts: &Lts) -> (Vec<u32>, Vec<String>) {
    let mut by_obs: HashMap<bb_lts::Observation, u32> = HashMap::new();
    let mut letters = Vec::with_capacity(lts.num_actions());
    let mut names = vec!["τ".to_string()];
    for a in lts.actions() {
        match a.observation() {
            None => letters.push(TAU_LETTER),
            Some(obs) => {
                let next = names.len() as u32;
                let id = *by_obs.entry(obs.clone()).or_insert_with(|| {
                    names.push(obs.to_string());
                    next
                });
                letters.push(id);
            }
        }
    }
    (letters, names)
}

fn strong_signatures(ctx: &Ctx<'_>, p: &Partition, sigs: &mut [Signature]) -> usize {
    shard_states(ctx.jobs, sigs, |base, shard| {
        let mut pairs = 0;
        for (off, sig) in shard.iter_mut().enumerate() {
            let s = StateId((base + off) as u32);
            sig.clear();
            for t in ctx.lts.successors(s) {
                sig.push((ctx.letters[t.action.index()], p.block_of(t.target).0));
            }
            sig.sort_unstable();
            sig.dedup();
            pairs += sig.len();
        }
        pairs
    })
}

/// Branching (and divergence-sensitive branching) signatures.
///
/// `sig(s) = { (a, [s']) | s ⇒inert s'' →a s', a visible or [s'] ≠ [s] }`
/// where `⇒inert` is any number of τ-steps staying inside `[s]`. Computed by
/// condensing the inert-τ graph and propagating signatures in reverse
/// topological order, so τ-cycles inside a block are handled exactly.
///
/// With `divergence` set, a state additionally carries the `DIV_LETTER`
/// marker iff it can reach (via inert τ-steps) a cyclic inert-τ SCC — i.e.
/// iff it has an infinite τ-path staying inside its own block.
fn branching_signatures(
    ctx: &Ctx<'_>,
    p: &Partition,
    divergence: bool,
    sigs: &mut [Signature],
) -> usize {
    let lts = ctx.lts;
    let n = lts.num_states();

    // Condense the inert-τ graph w.r.t. the current partition (sequential:
    // Tarjan is a single DFS and also fixes the reverse-topological order
    // the propagation below relies on).
    let cond = tarjan_scc(n, |s, out| {
        for t in lts.successors(s) {
            if ctx.is_tau(t.action) && p.same_block(s, t.target) {
                out.push(t.target);
            }
        }
    });

    let members = cond.members();
    let mut scc_sig: Vec<Signature> = vec![Vec::new(); cond.num_sccs];
    let mut scc_div: Vec<bool> = vec![false; cond.num_sccs];

    // Computes the signature and divergence flag of SCC `k`, reading only
    // SCCs with smaller ids (its inert successors).
    let scc_signature = |k: usize, scc_sig: &[Signature], scc_div: &[bool]| {
        let mut acc: Signature = Vec::new();
        let mut div = cond.cyclic[k];
        for &s in &members[k] {
            let bs = p.block_of(s);
            for t in lts.successors(s) {
                let inert = ctx.is_tau(t.action) && p.block_of(t.target) == bs;
                if inert {
                    let succ_scc = cond.scc_of[t.target.index()];
                    if succ_scc.index() != k {
                        acc.extend_from_slice(&scc_sig[succ_scc.index()]);
                        div |= scc_div[succ_scc.index()];
                    }
                } else if ctx.is_tau(t.action) {
                    acc.push((TAU_LETTER, p.block_of(t.target).0));
                } else {
                    acc.push((ctx.letters[t.action.index()], p.block_of(t.target).0));
                }
            }
        }
        if divergence && div {
            acc.push((DIV_LETTER, 0));
        }
        acc.sort_unstable();
        acc.dedup();
        (acc, div)
    };

    // Tarjan ids are reverse-topological: successors of SCC k have ids < k,
    // so ascending order is a valid propagation order. For the parallel
    // pass, SCCs are grouped into topological layers (layer = 1 + max layer
    // of any inert successor SCC); within a layer SCCs only depend on
    // earlier layers, so a layer can be computed by workers in any order —
    // each writes its own slot, keyed by SCC id, hence deterministically.
    if ctx.jobs.for_items(cond.num_sccs, SCC_MIN_CHUNK) == 1 {
        for k in 0..cond.num_sccs {
            let (sig, div) = scc_signature(k, &scc_sig, &scc_div);
            scc_sig[k] = sig;
            scc_div[k] = div;
        }
    } else {
        let mut layer = vec![0u32; cond.num_sccs];
        let mut num_layers = 0u32;
        for k in 0..cond.num_sccs {
            let mut l = 0u32;
            for &s in &members[k] {
                let bs = p.block_of(s);
                for t in lts.successors(s) {
                    if ctx.is_tau(t.action) && p.block_of(t.target) == bs {
                        let succ_scc = cond.scc_of[t.target.index()].index();
                        if succ_scc != k {
                            l = l.max(layer[succ_scc] + 1);
                        }
                    }
                }
            }
            layer[k] = l;
            num_layers = num_layers.max(l + 1);
        }
        let mut layers: Vec<Vec<usize>> = vec![Vec::new(); num_layers as usize];
        for k in 0..cond.num_sccs {
            layers[layer[k] as usize].push(k);
        }
        for ks in &layers {
            let workers = ctx.jobs.for_items(ks.len(), SCC_MIN_CHUNK);
            if workers == 1 {
                for &k in ks {
                    let (sig, div) = scc_signature(k, &scc_sig, &scc_div);
                    scc_sig[k] = sig;
                    scc_div[k] = div;
                }
                continue;
            }
            let chunk = ks.len().div_ceil(workers);
            let computed: Vec<Vec<(usize, Signature, bool)>> = std::thread::scope(|scope| {
                let scc_sig = &scc_sig;
                let scc_div = &scc_div;
                let scc_signature = &scc_signature;
                let handles: Vec<_> = ks
                    .chunks(chunk)
                    .map(|piece| {
                        scope.spawn(move || {
                            piece
                                .iter()
                                .map(|&k| {
                                    let (sig, div) = scc_signature(k, scc_sig, scc_div);
                                    (k, sig, div)
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            });
            for (k, sig, div) in computed.into_iter().flatten() {
                scc_sig[k] = sig;
                scc_div[k] = div;
            }
        }
    }

    // Per-state copy, sharded by state range.
    let scc_sig = &scc_sig;
    let cond = &cond;
    shard_states(ctx.jobs, sigs, |base, shard| {
        let mut pairs = 0;
        for (off, sig) in shard.iter_mut().enumerate() {
            let scc = cond.scc_of[base + off];
            sig.clone_from(&scc_sig[scc.index()]);
            pairs += sig.len();
        }
        pairs
    })
}

/// Weak signatures:
/// `sig(s) = { (a, [s']) | s ⇒ →a ⇒ s' } ∪ { (τ, [s']) | s ⇒ s', [s'] ≠ [s] }`.
fn weak_signatures(ctx: &Ctx<'_>, p: &Partition, sigs: &mut [Signature]) -> usize {
    let lts = ctx.lts;
    let closure = ctx
        .closure
        .as_ref()
        .expect("weak signatures require the τ-closure");
    shard_states(ctx.jobs, sigs, |base, shard| {
        let mut pairs = 0;
        for (off, sig) in shard.iter_mut().enumerate() {
            let s = StateId((base + off) as u32);
            sig.clear();
            let bs = p.block_of(s);
            for &w in closure.of(s) {
                if p.block_of(w) != bs {
                    sig.push((TAU_LETTER, p.block_of(w).0));
                }
                for t in lts.successors(w) {
                    if !ctx.is_tau(t.action) {
                        let letter = ctx.letters[t.action.index()];
                        for &v in closure.of(t.target) {
                            sig.push((letter, p.block_of(v).0));
                        }
                    }
                }
            }
            sig.sort_unstable();
            sig.dedup();
            pairs += sig.len();
        }
        pairs
    })
}

/// One full-engine refinement round: recomputes signatures (possibly in
/// parallel), then splits blocks sequentially. Returns the refined partition
/// and the total signature pair count of the round (for incremental memory
/// accounting).
fn refine_once(
    ctx: &Ctx<'_>,
    p: &Partition,
    sigs: &mut [Signature],
    meter: &mut Meter,
) -> Result<(Partition, usize), Exhausted> {
    let pairs = ctx.compute(p, sigs);
    // Split key = (previous block, signature) so refinement is monotone.
    // The split stays sequential at any worker count: block ids are handed
    // out in state order, which the deterministic signatures make stable.
    let mut ids: HashMap<(BlockId, &Signature), u32> = HashMap::new();
    let mut assignment = Vec::with_capacity(p.num_states());
    for s in ctx.lts.states() {
        meter.tick()?;
        let key = (p.block_of(s), &sigs[s.index()]);
        let next = ids.len() as u32;
        let id = *ids.entry(key).or_insert(next);
        assignment.push(BlockId(id));
    }
    let num_blocks = ids.len();
    Ok((Partition::new(assignment, num_blocks), pairs))
}

/// The reference engine: every round recomputes all signatures and splits
/// every block. Refinement starts from `init` (the universal partition when
/// `None`) unless a checkpoint `seed` overrides it.
#[allow(clippy::too_many_arguments)]
fn run_full(
    lts: &Lts,
    eq: Equivalence,
    mut history: Option<&mut Vec<Partition>>,
    wd: &Watchdog,
    jobs: Jobs,
    stats: Option<&mut RefineStats>,
    persist: Option<&PersistHook>,
    seed: Option<(Partition, u64)>,
    init: Option<&Partition>,
) -> Result<Partition, Exhausted> {
    let n = lts.num_states();
    let span = bb_obs::span("bisim")
        .with("eq", format!("{eq:?}"))
        .with("states", n)
        .with("transitions", lts.num_transitions());
    let mut meter = wd.meter(Stage::Bisim);
    // Input size counts against the state cap; each refinement round's scan
    // counts its transition visits (work-proportional accounting).
    meter.add_states(n)?;
    if n > MAX_STATES {
        return Err(meter.exhausted(ExhaustReason::StateCap));
    }
    let ctx = Ctx::with_jobs(lts, eq, jobs);
    let mut p = init.cloned().unwrap_or_else(|| Partition::universal(n));
    let mut round = 0usize;
    // A checkpoint seed replaces the initial partition: each round is a pure
    // function of the current partition, so re-entering at the checkpointed
    // round converges to the identical fixpoint, block ids included.
    // Seeding is disabled on history runs (the coarser prefix would be
    // missing) — run_governed_opts never passes one then.
    if let Some((sp, sr)) = seed {
        debug_assert_eq!(sp.num_states(), n);
        bb_obs::hot::CKPT_SEED_HITS.incr();
        meter.note_refinement(sr, sp.num_blocks() as u64);
        p = sp;
        round = sr as usize;
    }
    let mut sigs: Vec<Signature> = vec![Vec::new(); n];
    let mut rounds: Vec<Partition> = Vec::new();
    if history.is_some() {
        rounds.push(p.clone());
    }
    // Peak live signature storage accounted so far.
    let mut mem_accounted = 0usize;
    loop {
        round_fault(round + 1);
        let round_span = bb_obs::span("bisim.round")
            .with("round", round)
            .with("blocks_before", p.num_blocks());
        meter.add_transitions(lts.num_transitions())?;
        let (next, pairs) = refine_once(&ctx, &p, &mut sigs, &mut meter)?;
        bb_obs::hot::SIG_ROUNDS.incr();
        bb_obs::hot::SIG_STATE_RECOMPUTES.add(n as u64);
        bb_obs::hot::SIG_DIRTY_STATES.add(n as u64);
        round_span.record("blocks_after", next.num_blocks());
        round_span.record("sig_pairs", pairs);
        drop(round_span);
        round += 1;
        // Record the just-completed round *before* the memory charge below:
        // a budget trip exactly on a round boundary must still report this
        // round, while a trip inside `refine_once` above leaves the previous
        // round's note in place (and none at all before round 1 completes).
        meter.note_refinement(round as u64, next.num_blocks() as u64);
        // Incremental byte count from the pair total the signature writers
        // already tracked — no extra O(n) rescan per round. The formula
        // matches the old per-signature scan: `len * 8` payload plus 24
        // bytes of `Vec` header per state.
        let sig_bytes = pairs * std::mem::size_of::<(u32, u32)>() + 24 * n;
        if sig_bytes > mem_accounted {
            meter.add_memory(sig_bytes - mem_accounted)?;
            mem_accounted = sig_bytes;
        }
        debug_assert!(next.refines(&p), "refinement must be monotone");
        let stable = next.num_blocks() == p.num_blocks();
        p = next;
        if let Some(h) = persist {
            h.offer(round, stable, &|| p.clone());
        }
        if history.is_some() {
            rounds.push(p.clone());
        }
        if stable {
            break;
        }
    }
    span.record("rounds", round);
    span.record("blocks", p.num_blocks());
    span.record("mem_bytes", meter.stats().memory_bytes);
    if let Some(h) = history.take() {
        *h = rounds;
    }
    if let Some(st) = stats {
        *st = RefineStats {
            rounds: round,
            sig_recomputes: (round * n) as u64,
            dirty_states: (round * n) as u64,
            peak_sig_bytes: mem_accounted,
        };
    }
    Ok(p)
}

// ---------------------------------------------------------------------------
// The incremental engine
// ---------------------------------------------------------------------------

/// Hash-consing arena of signatures, flat CSR layout: signature `i` is
/// `pairs[offsets[i]..offsets[i+1]]`. Ids are assigned in interning order,
/// which the engine keeps deterministic (sequential, worklists in state
/// order), and two sig-ids are equal iff their pair vectors are equal — the
/// split can compare two `u32`s instead of re-hashing vectors.
struct SigArena {
    offsets: Vec<u32>,
    pairs: Vec<(u32, u32)>,
    /// Hash of a pair slice → candidate sig-ids with that hash. Keyed by the
    /// already-mixed [`SigArena::hash_of`] value, so the map's own hasher is
    /// a passthrough.
    buckets: HashMap<u64, Vec<u32>, std::hash::BuildHasherDefault<PrehashedKey>>,
}

/// Hasher that forwards an already-mixed `u64` key unchanged. The interning
/// buckets are keyed by [`SigArena::hash_of`] output; re-dispersing those
/// keys through SipHash was a measurable share of every refinement round.
#[derive(Default)]
struct PrehashedKey(u64);

impl std::hash::Hasher for PrehashedKey {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("bucket keys are written as u64")
    }
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

impl SigArena {
    fn new() -> Self {
        SigArena {
            offsets: vec![0],
            pairs: Vec::new(),
            buckets: HashMap::default(),
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn get(&self, id: u32) -> &[(u32, u32)] {
        &self.pairs[self.offsets[id as usize] as usize..self.offsets[id as usize + 1] as usize]
    }

    /// Deterministic 64-bit mix of a pair slice. Interning sits on the hot
    /// path of every round (each recomputed signature is hashed once), so
    /// this is a hand-rolled multiply-xorshift rather than `DefaultHasher`'s
    /// SipHash — a collision only costs an extra slice compare in the bucket
    /// chain, never correctness, and the mix is a pure function of the
    /// pairs, so results stay identical across runs and worker counts.
    fn hash_of(sig: &[(u32, u32)]) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ (sig.len() as u64);
        for &(a, b) in sig {
            let mut x = ((a as u64) << 32) | b as u64;
            x = x.wrapping_mul(0xA24B_AED4_963E_E407);
            x ^= x >> 32;
            h = (h ^ x).wrapping_mul(0x9FB2_1C65_1E98_DF25);
            h ^= h >> 28;
        }
        h
    }

    /// Returns the id of `sig`, appending it to the arena if unseen.
    fn intern(&mut self, sig: &[(u32, u32)]) -> u32 {
        self.intern_hashed(sig, Self::hash_of(sig))
    }

    /// [`Self::intern`] with the hash precomputed — the sharded branching
    /// sweep hashes signatures on the workers so the sequential merge only
    /// pays the bucket probe.
    fn intern_hashed(&mut self, sig: &[(u32, u32)], h: u64) -> u32 {
        debug_assert_eq!(h, Self::hash_of(sig));
        if let Some(ids) = self.buckets.get(&h) {
            for &id in ids {
                if self.get(id) == sig {
                    bb_obs::hot::SIG_CACHE_HITS.incr();
                    return id;
                }
            }
        }
        let id = self.len() as u32;
        // Release-mode assert: a wrapped id would silently alias `NO_SIG`
        // and corrupt every later split. Unreachable below `MAX_STATES`
        // (at most one fresh signature per state per round), but cheap
        // relative to the hash above.
        assert!(id < NO_SIG, "sig-id space exhausted");
        self.pairs.extend_from_slice(sig);
        self.offsets.push(self.pairs.len() as u32);
        self.buckets.entry(h).or_default().push(id);
        id
    }

    /// True footprint of the flat signature storage (pair payload plus the
    /// CSR offsets), charged against the memory budget.
    fn bytes(&self) -> usize {
        self.pairs.len() * std::mem::size_of::<(u32, u32)>()
            + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

/// Per-worker scratch for the split's grouping pass: a direct index from
/// dense sig-ids to the group slot within the current block, invalidated in
/// O(1) by bumping `epoch` instead of clearing.
struct SplitScratch {
    /// `stamp[sid] == epoch` ⇔ `slot[sid]` is valid for the current block.
    stamp: Vec<u32>,
    slot: Vec<u32>,
    epoch: u32,
}

/// The inert-τ SCC condensation maintained across rounds by the branching
/// engines. `order`/`pos` keep an explicit reverse-topological order
/// (successor components at smaller positions) that stays valid as
/// components split: refinement only removes inertness, so SCCs only ever
/// split, and the sub-SCCs of a split component can be spliced into the old
/// component's position.
struct CondState {
    /// For each state, the id of its inert-τ SCC.
    scc_of: Vec<u32>,
    /// CSR member lists: SCC `k`'s states, in state order, are
    /// `mem_flat[mem_off[k].0..mem_off[k].1]`. Dead (split) SCCs have an
    /// empty range; replacement sub-SCC lists are appended at the end. One
    /// flat array instead of a `Vec` per SCC — the per-SCC allocations (and
    /// their scattered reads in every sweep) were a measurable share of each
    /// round.
    mem_off: Vec<(usize, usize)>,
    mem_flat: Vec<StateId>,
    /// Whether the SCC contains an inert-τ cycle (divergence seed).
    cyclic: Vec<bool>,
    /// Live SCC ids, successors first (reverse topological).
    order: Vec<u32>,
    /// Position of each SCC in `order` (stale for dead SCCs).
    pos: Vec<u32>,
    /// Interned signature of each SCC (`NO_SIG` before first computation).
    scc_sig: Vec<u32>,
    /// Divergence flag of each SCC.
    scc_div: Vec<bool>,
}

impl CondState {
    /// Member states of SCC `k`, in state order (empty for dead SCCs).
    #[inline]
    fn members_of(&self, k: usize) -> &[StateId] {
        let (a, b) = self.mem_off[k];
        &self.mem_flat[a..b]
    }

    /// Number of SCC slots, dead ones included (ids index this range).
    #[inline]
    fn num_sccs(&self) -> usize {
        self.mem_off.len()
    }
}

/// State of an incremental refinement run.
///
/// Block ids are *stable*: when a block splits, the group containing its
/// first member keeps the old id and the other groups get fresh ids, so
/// unmoved states keep their label and their interned signatures stay valid.
/// [`Incremental::canonical`] renumbers by first occurrence in state order,
/// which reproduces the full engine's per-round ids exactly (the full split
/// assigns ids by first occurrence, and block groupings agree because
/// signature equality is invariant under the injective relabeling between
/// the two id spaces).
struct Incremental<'c, 'a> {
    ctx: &'c Ctx<'a>,
    /// Flat reverse adjacency, built once per run.
    preds: PredecessorTable,
    /// Stable block label of each state.
    block_of: Vec<u32>,
    num_blocks: usize,
    /// Member states of each block, in state order.
    members: Vec<Vec<StateId>>,
    arena: SigArena,
    /// Interned signature of each state (`NO_SIG` before round 0).
    sig_id: Vec<u32>,
    /// States whose sig-id changed this round (input to the split).
    changed: Vec<StateId>,
    /// States whose block label changed in the last split (input to the
    /// next round's worklist).
    moved: Vec<StateId>,
    /// Condensation state, branching engines only.
    cond: Option<CondState>,
    divergence: bool,
}

impl<'c, 'a> Incremental<'c, 'a> {
    /// An engine whose labels start as the blocks of `start`. Round 0
    /// recomputes every signature whatever the start, so any partition
    /// without empty blocks is a valid starting point.
    fn new(ctx: &'c Ctx<'a>, start: &Partition) -> Self {
        let lts = ctx.lts;
        let n = lts.num_states();
        debug_assert_eq!(start.num_states(), n);
        Incremental {
            ctx,
            preds: lts.predecessor_table(),
            block_of: start.assignment().iter().map(|b| b.0).collect(),
            num_blocks: start.num_blocks(),
            members: start.blocks(),
            arena: SigArena::new(),
            sig_id: vec![NO_SIG; n],
            changed: Vec::new(),
            moved: Vec::new(),
            cond: None,
            divergence: matches!(ctx.eq, Equivalence::BranchingDiv),
        }
    }

    /// Runs one round: recompute dirty signatures, then split the affected
    /// blocks. Returns `(dirty_states, recomputed_states)`.
    fn round(&mut self, meter: &mut Meter, round: usize) -> Result<(u64, u64), Exhausted> {
        let counts = match self.ctx.eq {
            Equivalence::Strong | Equivalence::Weak => self.round_flat(meter, round)?,
            Equivalence::Branching | Equivalence::BranchingDiv => {
                self.round_branching(meter, round)?
            }
        };
        self.split(meter)?;
        Ok(counts)
    }

    /// The canonical (full-engine-identical) partition for the current
    /// stable labels.
    fn canonical(&self) -> Partition {
        canonical_from_labels(&self.block_of, self.num_blocks)
    }

    // ------------------------------------------------ strong/weak rounds

    fn round_flat(&mut self, meter: &mut Meter, round: usize) -> Result<(u64, u64), Exhausted> {
        let lts = self.ctx.lts;
        let worklist: Vec<StateId> = if round == 0 {
            (0..lts.num_states() as u32).map(StateId).collect()
        } else if self.ctx.eq == Equivalence::Weak {
            self.weak_worklist()
        } else {
            self.strong_worklist()
        };
        let edges: usize = worklist.iter().map(|&s| lts.successors(s).len()).sum();
        meter.add_transitions(edges)?;
        let sigs = self.flat_sigs(&worklist);
        for (i, &s) in worklist.iter().enumerate() {
            meter.tick()?;
            let sid = self.arena.intern(&sigs[i]);
            if self.sig_id[s.index()] != sid {
                self.sig_id[s.index()] = sid;
                self.changed.push(s);
            }
        }
        let len = worklist.len() as u64;
        Ok((len, len))
    }

    /// Dirty states for strong bisimulation: a signature references only the
    /// blocks of direct successors, so exactly the moved states and their
    /// predecessors can change.
    ///
    /// Sharded by id range over the moved set: each worker emits its chunk's
    /// states plus their predecessors without global deduplication, and the
    /// ordered merge (sort + dedup) reproduces `moved ∪ pred(moved)` in
    /// ascending state order — the exact sequential result at any worker
    /// count.
    fn strong_worklist(&self) -> Vec<StateId> {
        let workers = self.ctx.jobs.for_items(self.moved.len(), SIG_MIN_CHUNK);
        let mut out: Vec<StateId> = if workers == 1 {
            let mut local: Vec<StateId> = Vec::with_capacity(self.moved.len());
            for &m in &self.moved {
                local.push(m);
                local.extend(self.preds.of(m).iter().map(|&(u, _)| u));
            }
            local
        } else {
            let chunk = self.moved.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .moved
                    .chunks(chunk)
                    .map(|piece| {
                        scope.spawn(move || {
                            let mut local: Vec<StateId> = Vec::with_capacity(piece.len());
                            for &m in piece {
                                local.push(m);
                                local.extend(self.preds.of(m).iter().map(|&(u, _)| u));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Dirty states for weak bisimulation. A weak signature of `s` reads the
    /// blocks of everything in `⇒ →a ⇒` reach of `s`, so with `A` the
    /// τ-backward closure of the moved set, the dirty set is the τ-backward
    /// closure of `moved ∪ pred(A)`: a moved state `m` can sit behind a
    /// visible step (`w →a t ⇒ m` with `w` τ-reachable backwards) — the
    /// inner closure before taking predecessors is what catches `t`.
    fn weak_worklist(&self) -> Vec<StateId> {
        let workers = self.ctx.jobs.for_items(self.moved.len(), SIG_MIN_CHUNK);
        if workers == 1 {
            return self.weak_worklist_from(&self.moved);
        }
        // Backward closures distribute over unions, so each worker runs the
        // full three-phase closure on its own id-range shard of the moved
        // set; the ordered merge (sort + dedup) of the per-shard closures is
        // exactly the closure of the whole set, independent of the worker
        // count.
        let chunk = self.moved.len().div_ceil(workers);
        let mut out: Vec<StateId> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .moved
                .chunks(chunk)
                .map(|piece| scope.spawn(move || self.weak_worklist_from(piece)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The three-phase τ-backward closure of one moved-set shard (see
    /// [`Self::weak_worklist`] for the set being computed).
    fn weak_worklist_from(&self, moved: &[StateId]) -> Vec<StateId> {
        let ctx = self.ctx;
        let n = ctx.lts.num_states();
        let mut seen = vec![false; n];
        let mut out: Vec<StateId> = Vec::new();
        let mut stack: Vec<StateId> = Vec::new();
        for &m in moved {
            if !seen[m.index()] {
                seen[m.index()] = true;
                out.push(m);
                stack.push(m);
            }
        }
        // A = τ-backward closure of the moved set.
        while let Some(s) = stack.pop() {
            for &(u, a) in self.preds.of(s) {
                if ctx.is_tau(a) && !seen[u.index()] {
                    seen[u.index()] = true;
                    out.push(u);
                    stack.push(u);
                }
            }
        }
        // Predecessors of A (any action), then τ-backward close the
        // additions as well.
        let a_len = out.len();
        for i in 0..a_len {
            let s = out[i];
            for &(u, _) in self.preds.of(s) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    out.push(u);
                    stack.push(u);
                }
            }
        }
        while let Some(s) = stack.pop() {
            for &(u, a) in self.preds.of(s) {
                if ctx.is_tau(a) && !seen[u.index()] {
                    seen[u.index()] = true;
                    out.push(u);
                    stack.push(u);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Computes raw signatures for a worklist, sharding across workers when
    /// the list is large. Each item is independent, so the result is
    /// identical at any worker count; interning stays sequential.
    fn flat_sigs(&self, worklist: &[StateId]) -> Vec<Vec<(u32, u32)>> {
        let workers = self.ctx.jobs.for_items(worklist.len(), SIG_MIN_CHUNK);
        if workers == 1 {
            return worklist.iter().map(|&s| self.flat_sig_of(s)).collect();
        }
        let chunk = worklist.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = worklist
                .chunks(chunk)
                .map(|piece| scope.spawn(move || piece.iter().map(|&s| self.flat_sig_of(s)).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    }

    fn flat_sig_of(&self, s: StateId) -> Vec<(u32, u32)> {
        let ctx = self.ctx;
        let lts = ctx.lts;
        let mut sig: Vec<(u32, u32)> = Vec::new();
        match ctx.eq {
            Equivalence::Strong => {
                for t in lts.successors(s) {
                    sig.push((ctx.letters[t.action.index()], self.block_of[t.target.index()]));
                }
            }
            Equivalence::Weak => {
                let closure = ctx
                    .closure
                    .as_ref()
                    .expect("weak signatures require the τ-closure");
                let bs = self.block_of[s.index()];
                for &w in closure.of(s) {
                    let bw = self.block_of[w.index()];
                    if bw != bs {
                        sig.push((TAU_LETTER, bw));
                    }
                    for t in lts.successors(w) {
                        if !ctx.is_tau(t.action) {
                            let letter = ctx.letters[t.action.index()];
                            for &v in closure.of(t.target) {
                                sig.push((letter, self.block_of[v.index()]));
                            }
                        }
                    }
                }
            }
            Equivalence::Branching | Equivalence::BranchingDiv => {
                unreachable!("branching signatures go through the SCC sweep")
            }
        }
        sig.sort_unstable();
        sig.dedup();
        sig
    }

    // ------------------------------------------------- branching rounds

    fn round_branching(
        &mut self,
        meter: &mut Meter,
        round: usize,
    ) -> Result<(u64, u64), Exhausted> {
        let n = self.ctx.lts.num_states();
        let mut pending: Vec<u32> = Vec::new();
        let mut rebuilt = round == 0;
        if round == 0 {
            self.rebuild_condensation();
        } else {
            let affected = self.affected_sccs();
            if affected.is_empty() {
                bb_obs::hot::SIG_CONDENSATION_REUSES.incr();
            } else {
                let cond = self.cond.as_ref().expect("condensation exists");
                let affected_states: usize = affected
                    .iter()
                    .map(|&k| cond.members_of(k as usize).len())
                    .sum();
                // Pure, jobs-independent threshold: when the flipped region
                // covers a large share of the LTS, a fresh Tarjan pass is
                // cheaper than many regional ones.
                if affected_states * 2 > n {
                    self.rebuild_condensation();
                    rebuilt = true;
                } else {
                    self.recondense_regions(&affected, &mut pending);
                }
            }
        }
        let cond = self.cond.as_ref().expect("condensation exists");
        if rebuilt {
            pending = (0..cond.num_sccs() as u32).collect();
        } else {
            // Seed SCCs: moved states and their predecessors (any action —
            // a visible or non-inert τ edge into a moved state changes the
            // `(letter, block)` pair it contributes).
            for &m in &self.moved {
                pending.push(cond.scc_of[m.index()]);
                for &(u, _) in self.preds.of(m) {
                    pending.push(cond.scc_of[u.index()]);
                }
            }
            pending.sort_unstable();
            pending.dedup();
        }
        let dirty: u64 = pending
            .iter()
            .map(|&k| cond.members_of(k as usize).len() as u64)
            .sum();
        let recomputed = self.sweep(pending, meter)?;
        Ok((dirty, recomputed))
    }

    /// Rebuilds the inert-τ condensation from scratch for the current
    /// labels. All signatures are reset to `NO_SIG`, so the following sweep
    /// recomputes every SCC (per-state sig-ids still detect no-ops exactly).
    fn rebuild_condensation(&mut self) {
        let ctx = self.ctx;
        let lts = ctx.lts;
        let block_of = &self.block_of;
        let c = tarjan_scc(lts.num_states(), |s, out| {
            for t in lts.successors(s) {
                if ctx.is_tau(t.action) && block_of[s.index()] == block_of[t.target.index()] {
                    out.push(t.target);
                }
            }
        });
        let num = c.num_sccs;
        let n = lts.num_states();
        // Counting sort straight into the CSR arrays: states iterate in
        // ascending order, so each member list comes out in state order.
        let mut counts = vec![0usize; num];
        for &scc in &c.scc_of {
            counts[scc.0 as usize] += 1;
        }
        let mut mem_off: Vec<(usize, usize)> = Vec::with_capacity(num);
        let mut acc = 0usize;
        for &cnt in &counts {
            mem_off.push((acc, acc));
            acc += cnt;
        }
        let mut mem_flat: Vec<StateId> = vec![StateId(0); n];
        for (i, &scc) in c.scc_of.iter().enumerate() {
            let end = &mut mem_off[scc.0 as usize].1;
            mem_flat[*end] = StateId(i as u32);
            *end += 1;
        }
        self.cond = Some(CondState {
            scc_of: c.scc_of.iter().map(|scc| scc.0).collect(),
            mem_off,
            mem_flat,
            cyclic: c.cyclic,
            order: (0..num as u32).collect(),
            pos: (0..num as u32).collect(),
            scc_sig: vec![NO_SIG; num],
            scc_div: vec![false; num],
        });
    }

    /// SCCs containing a τ-edge whose inertness flipped in the last split.
    ///
    /// Every intra-SCC edge was inert by construction (an inert-τ SCC lies
    /// inside one block), and refinement only removes inertness, so a flip
    /// is exactly an intra-SCC τ-edge whose endpoints now carry different
    /// labels — and every such edge has a moved endpoint, so scanning the
    /// moved states' τ-edges (both directions) finds them all.
    fn affected_sccs(&self) -> Vec<u32> {
        let ctx = self.ctx;
        let lts = ctx.lts;
        let cond = self.cond.as_ref().expect("condensation exists");
        let mut out: Vec<u32> = Vec::new();
        for &m in &self.moved {
            let km = cond.scc_of[m.index()];
            let bm = self.block_of[m.index()];
            for t in lts.successors(m) {
                if ctx.is_tau(t.action)
                    && cond.scc_of[t.target.index()] == km
                    && self.block_of[t.target.index()] != bm
                {
                    out.push(km);
                }
            }
            for &(u, a) in self.preds.of(m) {
                if ctx.is_tau(a)
                    && cond.scc_of[u.index()] == km
                    && self.block_of[u.index()] != bm
                {
                    out.push(km);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Recondenses each affected SCC in isolation and splices the resulting
    /// sub-SCCs into the old component's slot in the reverse-topological
    /// order. Valid because a sub-SCC's external inert successors were the
    /// old SCC's successors (at smaller positions), and the regional Tarjan
    /// orders the sub-SCCs among themselves. Fresh ids are appended to
    /// `fresh` so the caller marks them pending (`NO_SIG` forces their
    /// recomputation and the conservative predecessor propagation).
    fn recondense_regions(&mut self, affected: &[u32], fresh: &mut Vec<u32>) {
        let ctx = self.ctx;
        let lts = ctx.lts;
        let block_of = &self.block_of;
        let cond = self.cond.as_mut().expect("condensation exists");
        let mut replacement: HashMap<u32, Vec<u32>> = HashMap::new();
        for &k in affected {
            let (a, b) = cond.mem_off[k as usize];
            cond.mem_off[k as usize] = (a, a); // dead slot, empty range
            let mem = cond.mem_flat[a..b].to_vec();
            let subs = tarjan_scc_region(&mem, |s, out| {
                for t in lts.successors(s) {
                    if ctx.is_tau(t.action) && block_of[s.index()] == block_of[t.target.index()]
                    {
                        out.push(t.target);
                    }
                }
            });
            let mut ids = Vec::with_capacity(subs.len());
            for (sub_members, cyclic) in subs {
                let id = cond.mem_off.len() as u32;
                for &s in &sub_members {
                    cond.scc_of[s.index()] = id;
                }
                let start = cond.mem_flat.len();
                cond.mem_flat.extend_from_slice(&sub_members);
                cond.mem_off.push((start, cond.mem_flat.len()));
                cond.cyclic.push(cyclic);
                cond.scc_sig.push(NO_SIG);
                cond.scc_div.push(false);
                ids.push(id);
                fresh.push(id);
            }
            replacement.insert(k, ids);
        }
        let mut new_order: Vec<u32> = Vec::with_capacity(cond.order.len() + fresh.len());
        for &id in &cond.order {
            match replacement.get(&id) {
                Some(subs) => new_order.extend_from_slice(subs),
                None => new_order.push(id),
            }
        }
        cond.order = new_order;
        cond.pos = vec![0; cond.mem_off.len()];
        for (i, &id) in cond.order.iter().enumerate() {
            cond.pos[id as usize] = i as u32;
        }
    }

    /// Recomputes the pending SCCs in reverse-topological position order,
    /// propagating to inert-τ predecessor SCCs when a signature changed.
    ///
    /// The heap is drained in *batches*: each batch is the longest
    /// dependency-free prefix of the heap in ascending position order — an
    /// SCC joins only when none of its external inert successors is already
    /// in the batch, so every batch member reads exclusively signatures
    /// finalized before the batch started. Batch signature computation is a
    /// pure read of that finalized state and fans out across `jobs` workers;
    /// the merge (metering, interning, sig-id updates, propagation) runs
    /// sequentially in position order. The batch boundary is a pure function
    /// of the heap contents, and `jobs` only parallelizes the computation
    /// *within* a batch, so partitions, histories, and meter accounting are
    /// bit-identical at any worker count.
    ///
    /// One wrinkle the serial drain did not have: a batch can finalize an
    /// SCC at position `q` while a later propagation wakes an SCC at a
    /// position `p < q` that `q` reads. The merge detects that out-of-order
    /// wake-up (`done` already set on a propagation target) and re-queues
    /// the stale reader, which converges to the serial fixpoint because the
    /// inert-successor DAG is acyclic and each recomputation reads strictly
    /// fresher successor signatures. Returns the number of member states
    /// recomputed.
    fn sweep(&mut self, pending: Vec<u32>, meter: &mut Meter) -> Result<u64, Exhausted> {
        let ctx = self.ctx;
        let lts = ctx.lts;
        let num_sccs = self.cond.as_ref().expect("condensation exists").num_sccs();
        let mut done = vec![false; num_sccs];
        let mut in_batch = vec![false; num_sccs];
        // The queue, indexed by reverse-topological *position*: positions
        // are dense and fixed for the duration of one sweep, so a bitset
        // plus an ascending cursor replaces the former binary heap (whose
        // pops dominated round profiles at ~25%). The cursor only moves
        // backwards on an out-of-order wake-up, so the drain order — and
        // with it every batch boundary, merge order, and meter charge — is
        // exactly the heap's ascending-position order.
        let order_len = self.cond.as_ref().expect("condensation exists").order.len();
        let mut pending_pos = vec![false; order_len];
        let mut cursor = order_len;
        {
            let cond = self.cond.as_ref().expect("condensation exists");
            for k in pending {
                let pp = cond.pos[k as usize] as usize;
                if !pending_pos[pp] {
                    pending_pos[pp] = true;
                    cursor = cursor.min(pp);
                }
            }
        }
        let mut recomputed = 0u64;
        let mut batch: Vec<u32> = Vec::new();
        // Signature staging, reused across batches: `flat` holds the
        // concatenated sorted signatures of one batch, `metas` one
        // `(scc, end offset in flat, hash, divergence, edges)` per admitted
        // SCC — no per-SCC allocation on the hot path.
        let mut flat: Vec<(u32, u32)> = Vec::new();
        let mut metas: Vec<(u32, usize, u64, bool, usize)> = Vec::new();
        while cursor < order_len {
            // ---- batch collection (sequential, jobs-independent) ----
            batch.clear();
            {
                let cond = self.cond.as_ref().expect("condensation exists");
                while cursor < order_len {
                    if !pending_pos[cursor] {
                        cursor += 1;
                        continue;
                    }
                    let k = cond.order[cursor];
                    let ku = k as usize;
                    // The queue minimum never depends on an empty batch, so
                    // the first admission of every batch skips the edge scan.
                    let depends_on_batch = !batch.is_empty() && cond.members_of(ku).iter().any(|&s| {
                        let bs = self.block_of[s.index()];
                        lts.successors(s).iter().any(|t| {
                            ctx.is_tau(t.action)
                                && self.block_of[t.target.index()] == bs
                                && {
                                    let ks = cond.scc_of[t.target.index()] as usize;
                                    ks != ku && in_batch[ks]
                                }
                        })
                    });
                    if depends_on_batch {
                        // Non-empty by the guard above.
                        break;
                    }
                    pending_pos[cursor] = false;
                    cursor += 1;
                    in_batch[ku] = true;
                    batch.push(k);
                }
            }
            if batch.is_empty() {
                continue;
            }
            // ---- signature computation (parallel, pure reads) ----
            let divergence = self.divergence;
            let cond_ref: &CondState = self.cond.as_ref().expect("condensation exists");
            let block_of = &self.block_of;
            let arena = &self.arena;
            // Appends the signature of `k` (sorted, deduped) to `out`,
            // returning its hash, divergence flag and member edge count.
            let sig_into = |k: u32, out: &mut Vec<(u32, u32)>| -> (u64, bool, usize) {
                let ku = k as usize;
                let start = out.len();
                let mut div = cond_ref.cyclic[ku];
                let mut edges = 0usize;
                for &s in cond_ref.members_of(ku) {
                    let bs = block_of[s.index()];
                    let succs = lts.successors(s);
                    edges += succs.len();
                    for t in succs {
                        let bt = block_of[t.target.index()];
                        if ctx.is_tau(t.action) && bt == bs {
                            let ks = cond_ref.scc_of[t.target.index()] as usize;
                            if ks != ku {
                                debug_assert_ne!(
                                    cond_ref.scc_sig[ks], NO_SIG,
                                    "inert successors are final before their predecessors"
                                );
                                out.extend_from_slice(arena.get(cond_ref.scc_sig[ks]));
                                div |= cond_ref.scc_div[ks];
                            }
                        } else {
                            out.push((ctx.letters[t.action.index()], bt));
                        }
                    }
                }
                if divergence && div {
                    out.push((DIV_LETTER, 0));
                }
                out[start..].sort_unstable();
                // In-place tail dedup (`Vec::dedup` would rescan the whole
                // buffer, which holds earlier signatures of this batch).
                let mut w = start;
                for r in start..out.len() {
                    if w == start || out[r] != out[w - 1] {
                        out[w] = out[r];
                        w += 1;
                    }
                }
                out.truncate(w);
                let hash = SigArena::hash_of(&out[start..]);
                (hash, div, edges)
            };
            let workers = ctx.jobs.for_items(batch.len(), SCC_MIN_CHUNK);
            flat.clear();
            metas.clear();
            if workers == 1 {
                for &k in &batch {
                    let (hash, div, edges) = sig_into(k, &mut flat);
                    metas.push((k, flat.len(), hash, div, edges));
                }
            } else {
                let chunk = batch.len().div_ceil(workers);
                if bb_obs::enabled() {
                    // Chunks are equal-sized in SCCs but not in member
                    // states; record the state-count skew of this fan-out.
                    let loads: Vec<usize> = batch
                        .chunks(chunk)
                        .map(|c| c.iter().map(|&k| cond_ref.members_of(k as usize).len()).sum())
                        .collect();
                    let total: usize = loads.iter().sum();
                    if total > 0 && loads.len() > 1 {
                        let mean = total / loads.len();
                        let max = *loads.iter().max().expect("non-empty");
                        bb_obs::hot::REFINE_SHARD_IMBALANCE
                            .record((max * 100 / mean.max(1)) as u64);
                    }
                }
                type Part = (Vec<(u32, u32)>, Vec<(u32, usize, u64, bool, usize)>);
                let parts: Vec<Part> = std::thread::scope(|scope| {
                    let sig_into = &sig_into;
                    let handles: Vec<_> = batch
                        .chunks(chunk)
                        .map(|piece| {
                            scope.spawn(move || {
                                let mut local: Vec<(u32, u32)> = Vec::new();
                                let mut meta = Vec::with_capacity(piece.len());
                                for &k in piece {
                                    let (hash, div, edges) = sig_into(k, &mut local);
                                    meta.push((k, local.len(), hash, div, edges));
                                }
                                (local, meta)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                        .collect()
                });
                // Concatenation in chunk order reproduces the serial layout
                // exactly, so the merge below is worker-count-invariant.
                for (local, meta) in parts {
                    let off = flat.len();
                    flat.extend_from_slice(&local);
                    metas.extend(
                        meta.into_iter().map(|(k, end, h, d, e)| (k, end + off, h, d, e)),
                    );
                }
            }
            // ---- merge (sequential, ascending position order) ----
            let cond = self.cond.as_mut().expect("condensation exists");
            let mut sig_start = 0usize;
            for &(k, sig_end, hash, div, edges) in &metas {
                let sig = &flat[sig_start..sig_end];
                sig_start = sig_end;
                let ku = k as usize;
                in_batch[ku] = false;
                done[ku] = true;
                // Amortized clock check: a forced per-SCC clock read here
                // profiled at several percent of every round. The cap check
                // stays exact and the call sequence is merge-order (hence
                // jobs-) invariant.
                meter.add_transitions_ticked(edges)?;
                recomputed += cond.members_of(ku).len() as u64;
                let sid = self.arena.intern_hashed(sig, hash);
                let sig_changed = sid != cond.scc_sig[ku];
                cond.scc_sig[ku] = sid;
                cond.scc_div[ku] = div;
                for &s in cond.members_of(ku) {
                    if self.sig_id[s.index()] != sid {
                        self.sig_id[s.index()] = sid;
                        self.changed.push(s);
                    }
                }
                if sig_changed {
                    for &s in cond.members_of(ku) {
                        let bs = self.block_of[s.index()];
                        for &(u, a) in self.preds.of(s) {
                            if ctx.is_tau(a) && self.block_of[u.index()] == bs {
                                let kp = cond.scc_of[u.index()] as usize;
                                if kp == ku {
                                    continue;
                                }
                                // A target inside the current batch is
                                // impossible: admission rejects an SCC whose
                                // external inert successor is in the batch,
                                // and `kp`'s inert successor is this SCC.
                                debug_assert!(!in_batch[kp]);
                                let pp = cond.pos[kp] as usize;
                                if !pending_pos[pp] {
                                    // Either a first wake-up, or (`done`
                                    // set) an out-of-order one: `kp` was
                                    // finalized in an earlier batch against
                                    // this SCC's pre-update signature.
                                    // Re-queue it — possibly behind the
                                    // cursor — so a later batch recomputes
                                    // it against the new value.
                                    done[kp] = false;
                                    pending_pos[pp] = true;
                                    cursor = cursor.min(pp);
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(recomputed)
    }

    // ------------------------------------------------------------ split

    /// Splits every block containing a state whose sig-id changed. Within a
    /// block, states group by sig-id in member (= state) order; the group of
    /// the first member keeps the block's id, the rest get fresh labels and
    /// become the next round's moved set.
    ///
    /// Sharded in two phases: grouping a block is a pure function of its
    /// member list and the sig-id table, so the candidate blocks fan out
    /// across workers; label assignment stays sequential in ascending block
    /// order because a fresh id depends on how many blocks split before this
    /// one. Meter ticks move with the merge (one per member of each
    /// multi-member candidate block, in block order), so budget accounting
    /// is identical at any worker count.
    fn split(&mut self, meter: &mut Meter) -> Result<(), Exhausted> {
        self.moved.clear();
        if self.changed.is_empty() {
            return Ok(());
        }
        let mut blocks: Vec<u32> = self
            .changed
            .iter()
            .map(|s| self.block_of[s.index()])
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        self.changed.clear();
        // ---- grouping (parallel, pure reads); `None` = block keeps its
        // members (singleton or no sig-id boundary inside it) ----
        //
        // Grouping indexes states by interned sig-id. Sig-ids are dense
        // arena indices, so an epoch-stamped direct-index scratch (one slot
        // per sig-id, bumped epoch per block) replaces the former per-block
        // `HashMap` — no hashing, no per-block allocation. Each worker owns
        // one scratch; the grouping itself is unchanged, so group order (and
        // with it every label) is identical at any worker count.
        let num_sigs = self.arena.len();
        let group = |scratch: &mut SplitScratch, b: u32| -> Option<Vec<Vec<StateId>>> {
            let mem = &self.members[b as usize];
            if mem.len() <= 1 {
                return None;
            }
            scratch.epoch += 1;
            let mut groups: Vec<Vec<StateId>> = Vec::new();
            for &s in mem {
                let sid = self.sig_id[s.index()] as usize;
                debug_assert!(sid < num_sigs, "split after a full round 0 sweep");
                let gi = if scratch.stamp[sid] == scratch.epoch {
                    scratch.slot[sid] as usize
                } else {
                    scratch.stamp[sid] = scratch.epoch;
                    scratch.slot[sid] = groups.len() as u32;
                    groups.push(Vec::new());
                    groups.len() - 1
                };
                groups[gi].push(s);
            }
            (groups.len() > 1).then_some(groups)
        };
        let new_scratch = || SplitScratch {
            stamp: vec![0; num_sigs],
            slot: vec![0; num_sigs],
            epoch: 0,
        };
        let workers = self.ctx.jobs.for_items(blocks.len(), SPLIT_MIN_CHUNK);
        let grouped: Vec<Option<Vec<Vec<StateId>>>> = if workers == 1 {
            let mut scratch = new_scratch();
            blocks.iter().map(|&b| group(&mut scratch, b)).collect()
        } else {
            let chunk = blocks.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let group = &group;
                let new_scratch = &new_scratch;
                let handles: Vec<_> = blocks
                    .chunks(chunk)
                    .map(|piece| {
                        scope.spawn(move || {
                            let mut scratch = new_scratch();
                            piece.iter().map(|&b| group(&mut scratch, b)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        // ---- label assignment (sequential, ascending block order) ----
        for (&b, groups) in blocks.iter().zip(grouped) {
            let len = self.members[b as usize].len();
            if len > 1 {
                for _ in 0..len {
                    meter.tick()?;
                }
            }
            let Some(groups) = groups else { continue };
            let mut iter = groups.into_iter();
            self.members[b as usize] = iter.next().expect("at least one group");
            for g in iter {
                let nb = self.num_blocks as u32;
                self.num_blocks += 1;
                for &s in &g {
                    self.block_of[s.index()] = nb;
                    self.moved.push(s);
                }
                self.members.push(g);
            }
        }
        Ok(())
    }
}

/// The incremental engine (see the module docs and DESIGN.md § "Incremental
/// refinement"). Refinement starts from `init` (the universal partition when
/// `None`).
#[allow(clippy::too_many_arguments)]
fn run_incremental(
    lts: &Lts,
    eq: Equivalence,
    mut history: Option<&mut Vec<Partition>>,
    wd: &Watchdog,
    jobs: Jobs,
    stats: Option<&mut RefineStats>,
    persist: Option<&PersistHook>,
    init: Option<&Partition>,
) -> Result<Partition, Exhausted> {
    let n = lts.num_states();
    let span = bb_obs::span("bisim")
        .with("eq", format!("{eq:?}"))
        .with("states", n)
        .with("transitions", lts.num_transitions());
    let mut meter = wd.meter(Stage::Bisim);
    meter.add_states(n)?;
    if n > MAX_STATES {
        return Err(meter.exhausted(ExhaustReason::StateCap));
    }
    let ctx = Ctx::with_jobs(lts, eq, jobs);
    let start = init.map_or_else(|| Cow::Owned(Partition::universal(n)), Cow::Borrowed);
    let mut eng = Incremental::new(&ctx, &start);
    let mut rounds: Vec<Partition> = Vec::new();
    if history.is_some() {
        rounds.push(start.into_owned());
    }
    let mut mem_accounted = 0usize;
    let mut round = 0usize;
    let mut total_recomputed = 0u64;
    let mut total_dirty = 0u64;
    loop {
        round_fault(round + 1);
        let round_span = bb_obs::span("bisim.round")
            .with("round", round)
            .with("blocks_before", eng.num_blocks);
        let (dirty, recomputed) = eng.round(&mut meter, round)?;
        bb_obs::hot::SIG_ROUNDS.incr();
        bb_obs::hot::SIG_STATE_RECOMPUTES.add(recomputed);
        bb_obs::hot::SIG_DIRTY_STATES.add(dirty);
        total_recomputed += recomputed;
        total_dirty += dirty;
        round_span.record("blocks_after", eng.num_blocks);
        round_span.record("dirty", dirty);
        drop(round_span);
        round += 1;
        // As in `run_full`: note the completed round before the memory
        // charge, so a boundary trip reports this round and a mid-round trip
        // reports the previous one (or nothing before round 1 completes).
        meter.note_refinement(round as u64, eng.num_blocks as u64);
        // The arena only ever grows, so the peak is the current footprint:
        // the flat pair storage plus the per-state sig-id table.
        let sig_bytes = eng.arena.bytes() + 4 * n;
        if sig_bytes > mem_accounted {
            meter.add_memory(sig_bytes - mem_accounted)?;
            mem_accounted = sig_bytes;
        }
        if history.is_some() {
            rounds.push(eng.canonical());
        }
        // A round with no moved states is exactly the full engine's stable
        // round (no block split), so the round counts and histories match.
        let stable = eng.moved.is_empty();
        if let Some(h) = persist {
            // canonical() renumbers to the full engine's id scheme, so the
            // checkpoint seeds the full engine on resume.
            h.offer(round, stable, &|| eng.canonical());
        }
        if stable {
            break;
        }
    }
    let p = eng.canonical();
    span.record("rounds", round);
    span.record("blocks", p.num_blocks());
    span.record("mem_bytes", meter.stats().memory_bytes);
    if let Some(h) = history.take() {
        *h = rounds;
    }
    if let Some(st) = stats {
        *st = RefineStats {
            rounds: round,
            sig_recomputes: total_recomputed,
            dirty_states: total_dirty,
            peak_sig_bytes: mem_accounted,
        };
    }
    Ok(p)
}

/// The governed refinement behind every public entry point. `init` is the
/// partition refinement starts from (the universal one when `None`); it must
/// be coarser than the requested equivalence, and then the result — block
/// ids included — is the same as from the universal start.
pub(crate) fn run_governed_opts(
    lts: &Lts,
    eq: Equivalence,
    history: Option<&mut Vec<Partition>>,
    wd: &Watchdog,
    opts: PartitionOptions,
    stats: Option<&mut RefineStats>,
    init: Option<&Partition>,
) -> Result<Partition, Exhausted> {
    // Every governed refinement call in the workspace funnels through here,
    // so this is the one place checkpointing hooks in. `begin_refine` is
    // called exactly once per call — even when its seed is unusable — so
    // the sink's call counter stays aligned with the pre-crash run.
    let hook = bb_obs::persist_sink().map(|sink| PersistHook {
        sink,
        fingerprint: snapshot::refine_fingerprint(lts, eq),
    });
    let seed = hook.as_ref().and_then(|h| {
        let payload = h.sink.begin_refine(h.fingerprint)?;
        // History runs need the full coarsest-first prefix, which a seeded
        // run skips — never seed those.
        if history.is_some() {
            return None;
        }
        snapshot::decode_round(&payload).filter(|(p, _)| p.num_states() == lts.num_states())
    });
    // A seeded call always runs the full engine: the incremental engine's
    // worklists describe *which states just moved*, which a checkpoint does
    // not record. Both engines produce bit-identical partitions, so the
    // verdict and every artifact are unaffected by the reroute.
    if seed.is_some() {
        return run_full(lts, eq, history, wd, opts.jobs, stats, hook.as_ref(), seed, None);
    }
    match opts.mode {
        RefineMode::Full => {
            run_full(lts, eq, history, wd, opts.jobs, stats, hook.as_ref(), None, init)
        }
        RefineMode::Incremental => {
            run_incremental(lts, eq, history, wd, opts.jobs, stats, hook.as_ref(), init)
        }
    }
}

/// Computes the coarsest partition of `lts` under the given equivalence.
///
/// For [`Equivalence::Branching`] this is the partition into
/// `≈`-equivalence classes of Definition 4.1 (equivalently, max-trace
/// equivalence classes by Theorem 4.3); for [`Equivalence::BranchingDiv`]
/// the classes of `≈div`.
pub fn partition(lts: &Lts, eq: Equivalence) -> Partition {
    partition_opts(lts, eq, PartitionOptions::default())
}

/// [`partition`] with explicit [`PartitionOptions`] (worker count and
/// refinement engine). Every option combination computes the same partition,
/// block ids included.
pub fn partition_opts(lts: &Lts, eq: Equivalence, opts: PartitionOptions) -> Partition {
    run_governed_opts(lts, eq, None, &Watchdog::unlimited(), opts, None, None)
        .expect("an unlimited watchdog never trips")
}

/// Budget-governed [`partition`]: the refinement loop charges the input
/// size against the state cap, each round's signature recomputations against
/// the transition cap, and its signature storage against the memory cap, and
/// observes the watchdog's deadline and cancellation token.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Bisim`]) when the budget trips;
/// the partial statistics describe the work done so far.
pub fn partition_governed(
    lts: &Lts,
    eq: Equivalence,
    wd: &Watchdog,
) -> Result<Partition, Exhausted> {
    partition_governed_opts(lts, eq, wd, PartitionOptions::default())
}

/// [`partition_governed`] with explicit [`PartitionOptions`].
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Bisim`]) when the budget trips.
pub fn partition_governed_opts(
    lts: &Lts,
    eq: Equivalence,
    wd: &Watchdog,
    opts: PartitionOptions,
) -> Result<Partition, Exhausted> {
    run_governed_opts(lts, eq, None, wd, opts, None, None)
}

/// [`partition`] with `jobs` worker threads for the per-round signature
/// passes (the split/assignment step stays sequential). The computed
/// partition — block ids included — is identical to the sequential run at
/// any worker count; `Jobs::serial()` is exactly the sequential code path.
pub fn partition_jobs(lts: &Lts, eq: Equivalence, jobs: Jobs) -> Partition {
    partition_opts(lts, eq, PartitionOptions::default().with_jobs(jobs))
}

/// [`partition_governed`] with `jobs` worker threads (see [`partition_jobs`]
/// for the determinism contract).
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Bisim`]) when the budget trips.
pub fn partition_governed_jobs(
    lts: &Lts,
    eq: Equivalence,
    wd: &Watchdog,
    jobs: Jobs,
) -> Result<Partition, Exhausted> {
    partition_governed_opts(lts, eq, wd, PartitionOptions::default().with_jobs(jobs))
}

/// Like [`partition`], additionally returning the per-round history for
/// diagnostics (distinguishing formulas).
pub fn partition_with_history(lts: &Lts, eq: Equivalence) -> (Partition, RefinementHistory) {
    partition_with_history_opts(lts, eq, PartitionOptions::default())
}

/// [`partition_with_history`] with explicit [`PartitionOptions`]. Both
/// engines produce the same history, round for round.
pub fn partition_with_history_opts(
    lts: &Lts,
    eq: Equivalence,
    opts: PartitionOptions,
) -> (Partition, RefinementHistory) {
    let mut rounds = Vec::new();
    let p = run_governed_opts(
        lts,
        eq,
        Some(&mut rounds),
        &Watchdog::unlimited(),
        opts,
        None,
        None,
    )
    .expect("an unlimited watchdog never trips");
    (p, RefinementHistory { rounds })
}

/// Like [`partition_opts`], additionally returning the work accounting of
/// the run — the basis of the `tables perf` full-vs-incremental comparison.
pub fn partition_with_stats(
    lts: &Lts,
    eq: Equivalence,
    opts: PartitionOptions,
) -> (Partition, RefineStats) {
    let mut stats = RefineStats::default();
    let p = run_governed_opts(
        lts,
        eq,
        None,
        &Watchdog::unlimited(),
        opts,
        Some(&mut stats),
        None,
    )
    .expect("an unlimited watchdog never trips");
    (p, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_lts::{random_lts, Action, LtsBuilder, RandomLtsConfig, ThreadId};

    fn tau(b: &mut LtsBuilder) -> bb_lts::ActionId {
        b.intern_action(Action::tau(ThreadId(1)))
    }
    fn vis(b: &mut LtsBuilder, name: &str) -> bb_lts::ActionId {
        b.intern_action(Action::call(ThreadId(1), name, None))
    }

    /// s0 --τ--> s1 --a--> s2: the τ is inert, s0 ≈ s1.
    #[test]
    fn inert_tau_is_collapsed_by_branching() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let t = tau(&mut b);
        let a = vis(&mut b, "a");
        b.add_transition(s0, t, s1);
        b.add_transition(s1, a, s2);
        let lts = b.build(s0);

        let p = partition(&lts, Equivalence::Branching);
        assert!(p.same_block(s0, s1));
        assert!(!p.same_block(s0, s2));

        // Strong bisimulation distinguishes s0 from s1.
        let ps = partition(&lts, Equivalence::Strong);
        assert!(!ps.same_block(s0, s1));
    }

    /// The classic example where weak and branching differ:
    ///
    ///   u:  a.(b + τ.c)   vs   v: a.(b + τ.c) + a.c
    ///
    /// Branching distinguishes the intermediate state reached by v's extra
    /// `a` from u's; weak relates the two processes.
    #[test]
    fn weak_coarser_than_branching() {
        let mut b = LtsBuilder::new();
        // u-side
        let u0 = b.add_state();
        let u1 = b.add_state(); // b + tau.c
        let u2 = b.add_state(); // c
        let u3 = b.add_state(); // terminal after b
        let u4 = b.add_state(); // terminal after c
        // v-side
        let v0 = b.add_state();
        let v1 = b.add_state(); // b + tau.c (same shape as u1)
        let v2 = b.add_state(); // c
        let v3 = b.add_state();
        let v4 = b.add_state();
        let v5 = b.add_state(); // direct c branch
        let v6 = b.add_state();

        let t = tau(&mut b);
        let a = vis(&mut b, "a");
        let bb = vis(&mut b, "b");
        let c = vis(&mut b, "c");

        b.add_transition(u0, a, u1);
        b.add_transition(u1, bb, u3);
        b.add_transition(u1, t, u2);
        b.add_transition(u2, c, u4);

        b.add_transition(v0, a, v1);
        b.add_transition(v1, bb, v3);
        b.add_transition(v1, t, v2);
        b.add_transition(v2, c, v4);
        b.add_transition(v0, a, v5);
        b.add_transition(v5, c, v6);

        let lts = b.build(u0);
        let pw = partition(&lts, Equivalence::Weak);
        let pb = partition(&lts, Equivalence::Branching);
        // v5 ~w u2 (both: just c). Under weak, v0's extra a-move to v5 is
        // matched by u0 --a--> u1 --τ--> u2, so u0 ~w v0.
        assert!(pw.same_block(u0, v0), "weak should relate u0 and v0");
        // Branching must distinguish them: v0 --a--> v5 can only be matched
        // by u0 --a--> u1, but u1 (offering b) is not equivalent to v5.
        assert!(!pb.same_block(u0, v0), "branching distinguishes u0 and v0");
    }

    /// Divergence: a τ-self-loop is invisible to plain branching bisimulation
    /// but distinguishes states under ≈div.
    #[test]
    fn divergence_sensitivity() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state(); // has a tau self-loop and an a-move
        let s1 = b.add_state(); // only the a-move
        let s2 = b.add_state();
        let t = tau(&mut b);
        let a = vis(&mut b, "a");
        b.add_transition(s0, t, s0);
        b.add_transition(s0, a, s2);
        b.add_transition(s1, a, s2);
        let lts = b.build(s0);

        let p = partition(&lts, Equivalence::Branching);
        assert!(p.same_block(s0, s1), "≈ ignores divergence");
        let pd = partition(&lts, Equivalence::BranchingDiv);
        assert!(!pd.same_block(s0, s1), "≈div observes divergence");
    }

    /// τ-cycles within a block: two states on a τ-loop with identical visible
    /// options are branching bisimilar (Lemma 5.6).
    #[test]
    fn tau_cycle_states_equivalent() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let t = tau(&mut b);
        let a = vis(&mut b, "a");
        b.add_transition(s0, t, s1);
        b.add_transition(s1, t, s0);
        b.add_transition(s0, a, s2);
        b.add_transition(s1, a, s2);
        let lts = b.build(s0);
        let p = partition(&lts, Equivalence::Branching);
        assert!(p.same_block(s0, s1));
        let pd = partition(&lts, Equivalence::BranchingDiv);
        assert!(pd.same_block(s0, s1), "both divergent, both same options");
    }

    /// A τ that enables new behaviour is never inert.
    #[test]
    fn effectful_tau_is_preserved() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let s3 = b.add_state();
        let t = tau(&mut b);
        let a = vis(&mut b, "a");
        let c = vis(&mut b, "b");
        b.add_transition(s0, a, s2);
        b.add_transition(s0, t, s1);
        b.add_transition(s1, c, s3);
        let lts = b.build(s0);
        let p = partition(&lts, Equivalence::Branching);
        assert!(!p.same_block(s0, s1));
    }

    #[test]
    fn history_starts_universal_and_ends_fixed() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let a = vis(&mut b, "a");
        b.add_transition(s0, a, s1);
        let lts = b.build(s0);
        let (p, h) = partition_with_history(&lts, Equivalence::Branching);
        assert_eq!(h.rounds.first().unwrap().num_blocks(), 1);
        assert_eq!(h.rounds.last().unwrap(), &p);
        for w in h.rounds.windows(2) {
            assert!(w[1].refines(&w[0]));
        }
    }

    #[test]
    fn thread_ids_of_tau_are_ignored() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let s3 = b.add_state();
        let t1 = b.intern_action(Action::tau(ThreadId(1)));
        let t2 = b.intern_action(Action::tau(ThreadId(2)));
        let a = vis(&mut b, "a");
        // s0 --τ(t1)--> s2 --a--> s3 ; s1 --τ(t2)--> s2.
        b.add_transition(s0, t1, s2);
        b.add_transition(s1, t2, s2);
        b.add_transition(s2, a, s3);
        let lts = b.build(s0);
        let p = partition(&lts, Equivalence::Branching);
        assert!(p.same_block(s0, s1));
    }

    #[test]
    fn visible_thread_ids_are_observable() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let a1 = b.intern_action(Action::call(ThreadId(1), "m", None));
        let a2 = b.intern_action(Action::call(ThreadId(2), "m", None));
        b.add_transition(s0, a1, s2);
        b.add_transition(s1, a2, s2);
        let lts = b.build(s0);
        let p = partition(&lts, Equivalence::Branching);
        assert!(!p.same_block(s0, s1));
    }

    #[test]
    fn empty_lts() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let lts = b.build(s0);
        for eq in [
            Equivalence::Strong,
            Equivalence::Branching,
            Equivalence::BranchingDiv,
            Equivalence::Weak,
        ] {
            let p = partition(&lts, eq);
            assert_eq!(p.num_blocks(), 1);
        }
    }

    // ------------------------------------------ incremental vs full engine

    const ALL_EQS: [Equivalence; 4] = [
        Equivalence::Strong,
        Equivalence::Branching,
        Equivalence::BranchingDiv,
        Equivalence::Weak,
    ];

    #[test]
    fn refine_mode_parses_and_displays() {
        assert_eq!("full".parse::<RefineMode>(), Ok(RefineMode::Full));
        assert_eq!(
            "incremental".parse::<RefineMode>(),
            Ok(RefineMode::Incremental)
        );
        assert!("fast".parse::<RefineMode>().is_err());
        assert_eq!(RefineMode::Full.to_string(), "full");
        assert_eq!(RefineMode::Incremental.to_string(), "incremental");
        assert_eq!(RefineMode::default(), RefineMode::Incremental);
    }

    /// Full and incremental engines agree — partitions (block ids included)
    /// and per-round histories — for every equivalence at 1 and 4 workers.
    fn assert_engines_agree(lts: &Lts, tag: &str) {
        for eq in ALL_EQS {
            let full = PartitionOptions::default().with_mode(RefineMode::Full);
            let (pf, hf) = partition_with_history_opts(lts, eq, full);
            for jobs in [Jobs::serial(), Jobs::new(4)] {
                let inc = PartitionOptions::default()
                    .with_jobs(jobs)
                    .with_mode(RefineMode::Incremental);
                let (pi, hi) = partition_with_history_opts(lts, eq, inc);
                assert_eq!(
                    pf.assignment(),
                    pi.assignment(),
                    "{tag}: {eq:?} jobs={} block ids differ",
                    jobs.get()
                );
                assert_eq!(
                    hf.rounds.len(),
                    hi.rounds.len(),
                    "{tag}: {eq:?} jobs={} round counts differ",
                    jobs.get()
                );
                for (r, (a, b)) in hf.rounds.iter().zip(&hi.rounds).enumerate() {
                    assert_eq!(a, b, "{tag}: {eq:?} jobs={} round {r} differs", jobs.get());
                }
            }
        }
    }

    #[test]
    fn engines_agree_on_handcrafted_systems() {
        // Reuse the shapes of the semantic tests above: inert τ, τ-cycles,
        // effectful τ, divergence, weak-vs-branching.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let t = tau(&mut b);
        let a = vis(&mut b, "a");
        b.add_transition(s0, t, s1);
        b.add_transition(s1, a, s2);
        b.add_transition(s1, t, s0);
        b.add_transition(s2, t, s2);
        assert_engines_agree(&b.build(s0), "tau-cycle-with-divergence");

        let mut b = LtsBuilder::new();
        let states: Vec<_> = (0..8).map(|_| b.add_state()).collect();
        let t = tau(&mut b);
        let a = vis(&mut b, "a");
        let c = vis(&mut b, "c");
        for w in states.windows(2) {
            b.add_transition(w[0], a, w[1]);
        }
        b.add_transition(states[3], t, states[1]);
        b.add_transition(states[5], c, states[0]);
        b.add_transition(states[7], t, states[7]);
        assert_engines_agree(&b.build(states[0]), "chain-with-backedges");
    }

    #[test]
    fn engines_agree_on_random_systems() {
        for case in 0..24u64 {
            let lts = random_lts(
                1000 + case,
                RandomLtsConfig {
                    num_states: 3 + (case % 17) as usize,
                    num_transitions: 2 + (case * 7 % 43) as usize,
                    num_visible_letters: 1 + (case % 3) as usize,
                    tau_percent: (case * 13 % 95) as u8,
                },
            );
            assert_engines_agree(&lts, &format!("random-{case}"));
        }
    }

    /// On a visible chain the refinement peels one state per round, so the
    /// full engine recomputes Θ(n²) signatures while the incremental engine
    /// touches only the frontier — strictly fewer than rounds × n.
    #[test]
    fn incremental_recomputes_fewer_signatures() {
        let mut b = LtsBuilder::new();
        let n = 40usize;
        let states: Vec<_> = (0..n).map(|_| b.add_state()).collect();
        let a = vis(&mut b, "a");
        for w in states.windows(2) {
            b.add_transition(w[0], a, w[1]);
        }
        let lts = b.build(states[0]);
        let (pf, full) = partition_with_stats(
            &lts,
            Equivalence::Strong,
            PartitionOptions::default().with_mode(RefineMode::Full),
        );
        let (pi, inc) = partition_with_stats(&lts, Equivalence::Strong, PartitionOptions::default());
        assert_eq!(pf.assignment(), pi.assignment());
        assert_eq!(full.rounds, inc.rounds);
        assert_eq!(full.sig_recomputes, (full.rounds * n) as u64);
        assert!(
            inc.sig_recomputes < (inc.rounds * n) as u64,
            "incremental must beat rounds × n: {} vs {}",
            inc.sig_recomputes,
            inc.rounds * n
        );
        assert!(inc.peak_sig_bytes > 0);
    }

    /// Branching condensation reuse: moved-block rounds with no inertness
    /// flip must not rebuild the Tarjan condensation.
    #[test]
    fn stats_are_populated_for_branching() {
        let mut b = LtsBuilder::new();
        let states: Vec<_> = (0..12).map(|_| b.add_state()).collect();
        let t = tau(&mut b);
        let a = vis(&mut b, "a");
        for w in states.windows(2) {
            b.add_transition(w[0], a, w[1]);
        }
        b.add_transition(states[4], t, states[2]);
        b.add_transition(states[2], t, states[4]);
        let lts = b.build(states[0]);
        let (p, st) = partition_with_stats(&lts, Equivalence::Branching, PartitionOptions::default());
        assert!(st.rounds >= 2);
        assert!(st.sig_recomputes >= lts.num_states() as u64);
        assert_eq!(
            p.assignment(),
            partition_opts(
                &lts,
                Equivalence::Branching,
                PartitionOptions::default().with_mode(RefineMode::Full)
            )
            .assignment()
        );
    }
}
