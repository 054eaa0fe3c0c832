//! Compact state storage for the exploration engine (bb-compact).
//!
//! The exploration of [`crate::explore_with`] historically kept every
//! discovered state **twice**: once as the key of the `HashMap<State,
//! StateId>` seen-set and once on the id-indexed frontier list. This module
//! replaces that bookkeeping with a single [`StateStore`] abstraction and
//! two implementations:
//!
//! * [`HashStore`] — the rich-struct baseline: one `Vec<State>` (doubling as
//!   the BFS frontier, which is just an id range) plus a bare
//!   open-addressing index of `(tag, id)` entries. States are stored once.
//! * [`ArenaStore`] — the compact engine for semantics with a canonical
//!   byte encoding ([`CodecSemantics`]): states live as prefix-compressed
//!   entries in append-only byte segments, the index maps a 64-bit content
//!   hash to an entry id, and equality is always decided on the full
//!   reconstructed encoding (hashes only route probes). Cold segments —
//!   wholly below the current BFS frontier — can be spilled to a
//!   [`SpillBackend`] when the stage's memory meter crosses a high-water
//!   mark. A later probe that needs a spilled entry reads back only its
//!   restart group, verified against that group's own checksum.
//!
//! Determinism: both stores assign ids in intern order, which the engine
//! drives in the exact sequential BFS order at any worker count; the spill
//! decision is taken only at BFS level boundaries from the deterministic
//! meter value, so state ids, transition order and the `.aut` export are
//! bit-identical with and without `--spill`, at any `--jobs`.

use crate::budget::Meter;
use crate::explore::Semantics;
use crate::lts::StateId;
use crate::snapshot::fnv1a;
use std::hash::{Hash, Hasher};
use std::io;
use std::ops::Range;

/// A [`Semantics`] whose states have a canonical byte encoding — the
/// contract of the compact exploration engine
/// ([`crate::explore_compact_with_sink`]).
///
/// `decode_state` must be a left inverse of `encode_state`
/// (`decode(encode(s)) == s`), and `encode_state` must be deterministic and
/// injective on reachable states: the engine hashes, stores and compares
/// the encoding *instead of* the rich state, so two states are identified
/// exactly when their encodings are byte-equal.
pub trait CodecSemantics: Semantics {
    /// Appends the canonical encoding of `state` to `out` (which is cleared
    /// by the caller).
    fn encode_state(&self, state: &Self::State, out: &mut Vec<u8>);

    /// Reconstructs a state from its canonical encoding.
    ///
    /// # Panics
    ///
    /// May panic on bytes not produced by `encode_state` — the store only
    /// ever feeds back its own entries.
    fn decode_state(&self, bytes: &[u8]) -> Self::State;

    /// Owned heap bytes of the rich state *beyond* the struct itself
    /// (vectors, boxed nodes…), used by the metered baseline so memory
    /// comparisons against the compact engine are truthful — the struct
    /// bytes are already accounted through the store's own capacity. The
    /// default is 0 (plain-data states).
    fn state_heap_bytes(&self, state: &Self::State) -> usize {
        let _ = state;
        0
    }
}

/// Out-of-core tier for cold state-arena segments (`--spill`).
///
/// The store owns the layout of a spilled segment (restart groups, each
/// followed by its checksum) and verifies every byte it reads back, so a
/// backend only keeps opaque bytes. Implementations are stateless from the
/// store's point of view (`&self` methods) so workers can read concurrently.
pub trait SpillBackend: Send + Sync {
    /// Persists segment `index` as `bytes`, replacing any earlier segment
    /// with that index. An error disables spilling for the rest of the
    /// exploration (the store keeps the segment in core).
    fn write_segment(&self, index: u32, bytes: &[u8]) -> io::Result<()>;

    /// Fills all of `buf` with the bytes at `offset` of segment `index`. A
    /// missing segment or a range past its end is an error.
    fn read_at(&self, index: u32, offset: u64, buf: &mut [u8]) -> io::Result<()>;
}

/// Size figures of a state store after (or during) an exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Total canonical-encoding bytes (before prefix compression), or the
    /// deep struct bytes for the rich baseline.
    pub raw_bytes: u64,
    /// Bytes actually stored (after prefix compression and framing).
    pub stored_bytes: u64,
    /// Cold segments currently resident on the spill tier.
    pub spilled_segments: u32,
    /// Payload bytes resident on the spill tier.
    pub spilled_bytes: u64,
}

/// The engine-facing seen-set + frontier abstraction: states are stored
/// exactly once, ids are dense and assigned in intern order, and the BFS
/// frontier is just an id range read back through [`StateStore::read`].
pub(crate) trait StateStore<S: Semantics>: Sync {
    /// Per-reader scan state (decode position, spilled-group cache); workers hold
    /// one each so reads need only `&self`.
    type Cursor: Default + Send;

    /// Interns `state`, returning its id and whether it was new.
    fn intern(&mut self, sem: &S, state: S::State) -> (StateId, bool);

    /// Reconstructs the state with id `idx` (must be interned).
    fn read(&self, sem: &S, idx: u32, cur: &mut Self::Cursor) -> S::State;

    /// Number of interned states.
    fn len(&self) -> usize;

    /// Current in-core footprint in bytes (store + index), O(1).
    fn bytes(&self) -> usize;

    /// High-water mark of [`StateStore::bytes`] over the store's lifetime.
    fn bytes_peak(&self) -> usize;

    /// BFS level boundary: ids `>= frontier_start` form the frontier about
    /// to be expanded. The compact store uses this (and only this) point to
    /// spill cold segments, so the decision is identical at any worker
    /// count.
    fn end_level(&mut self, frontier_start: u32, meter: &Meter);

    /// Compression/spill figures for reports.
    fn metrics(&self) -> StoreMetrics;
}

// ---------------------------------------------------------------------------
// Open-addressing index
// ---------------------------------------------------------------------------

/// A bare open-addressing seen-set index: power-of-two slot array of
/// `(tag << 32) | (id + 1)` entries (0 = empty), linear probing from
/// `tag & mask`, insert-only. The caller resolves tag collisions with a
/// full equality check, so the index never stores keys — 8 bytes per state.
struct RawIndex {
    slots: Vec<u64>,
    len: usize,
}

impl RawIndex {
    fn new() -> Self {
        RawIndex {
            slots: vec![0; 16],
            len: 0,
        }
    }

    fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
    }

    /// Doubles the table at 7/8 load, rehashing by tag (probe positions are
    /// derived from the stored tag alone, so no key access is needed).
    fn maybe_grow(&mut self) {
        if (self.len + 1) * 8 < self.slots.len() * 7 {
            return;
        }
        let new_cap = self.slots.len() * 2;
        let mask = new_cap - 1;
        let mut slots = vec![0u64; new_cap];
        for &slot in &self.slots {
            if slot == 0 {
                continue;
            }
            let mut pos = (slot >> 32) as usize & mask;
            while slots[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            slots[pos] = slot;
        }
        self.slots = slots;
    }

    /// Probes for an entry with `tag` satisfying `eq`; on a miss, inserts
    /// `new_id` in the first empty slot of the probe chain. Returns the
    /// resolved id, whether it was inserted, and the probe length.
    fn probe_insert(
        &mut self,
        tag: u32,
        new_id: u32,
        mut eq: impl FnMut(u32) -> bool,
    ) -> (u32, bool, u32) {
        self.maybe_grow();
        let mask = self.slots.len() - 1;
        let mut pos = tag as usize & mask;
        let mut probes = 0u32;
        loop {
            let slot = self.slots[pos];
            if slot == 0 {
                self.slots[pos] = ((tag as u64) << 32) | (u64::from(new_id) + 1);
                self.len += 1;
                return (new_id, true, probes);
            }
            if (slot >> 32) as u32 == tag {
                let id = (slot as u32) - 1;
                if eq(id) {
                    return (id, false, probes);
                }
            }
            pos = (pos + 1) & mask;
            probes += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// HashStore — the rich-struct baseline, states stored once
// ---------------------------------------------------------------------------

/// Per-state deep-size hook of the metered baseline.
pub(crate) type Sizer<S> = fn(&S, &<S as Semantics>::State) -> usize;

/// Seen-set + frontier over rich state structs: one `Vec<State>` plus a
/// [`RawIndex`]. Replaces the former `HashMap<State, StateId>` *and* the
/// separate frontier list — states are stored exactly once.
pub(crate) struct HashStore<S: Semantics> {
    states: Vec<S::State>,
    index: RawIndex,
    /// Accumulated deep bytes of stored states (when a sizer is installed).
    deep_bytes: usize,
    sizer: Option<Sizer<S>>,
    peak: usize,
}

impl<S: Semantics> HashStore<S> {
    pub(crate) fn new(sizer: Option<Sizer<S>>) -> Self {
        HashStore {
            states: Vec::new(),
            index: RawIndex::new(),
            deep_bytes: 0,
            sizer,
            peak: 0,
        }
    }
}

impl<S: Semantics> StateStore<S> for HashStore<S> {
    type Cursor = ();

    fn intern(&mut self, sem: &S, state: S::State) -> (StateId, bool) {
        // DefaultHasher::new() uses fixed keys, so tags — and therefore
        // index layouts and probe statistics — are stable across runs.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        state.hash(&mut h);
        let tag = (h.finish() >> 32) as u32;
        let new_id = self.states.len() as u32;
        let states = &self.states;
        let (id, fresh, probes) =
            self.index
                .probe_insert(tag, new_id, |cand| states[cand as usize] == state);
        bb_obs::hot::SEEN_PROBE_LEN.record(u64::from(probes));
        if fresh {
            if let Some(sz) = self.sizer {
                self.deep_bytes += sz(sem, &state);
            }
            self.states.push(state);
            let b = StateStore::<S>::bytes(self);
            if b > self.peak {
                self.peak = b;
            }
        }
        (StateId(id), fresh)
    }

    fn read(&self, _sem: &S, idx: u32, _cur: &mut ()) -> S::State {
        self.states[idx as usize].clone()
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    fn bytes(&self) -> usize {
        self.states.capacity() * std::mem::size_of::<S::State>()
            + self.deep_bytes
            + self.index.bytes()
    }

    fn bytes_peak(&self) -> usize {
        self.peak
    }

    fn end_level(&mut self, _frontier_start: u32, _meter: &Meter) {}

    fn metrics(&self) -> StoreMetrics {
        let raw =
            (self.states.len() * std::mem::size_of::<S::State>() + self.deep_bytes) as u64;
        StoreMetrics {
            raw_bytes: raw,
            stored_bytes: raw,
            spilled_segments: 0,
            spilled_bytes: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// ArenaStore — prefix-compressed encodings in spillable segments
// ---------------------------------------------------------------------------

/// Target byte size of one arena segment (the spill granule).
const SEG_TARGET: usize = 256 * 1024;

/// A prefix-compression restart is forced every this many entries, bounding
/// random-access decode cost.
const RESTART_INTERVAL: u32 = 16;

/// Bytes of the checksum that follows each restart group on the spill tier.
const GROUP_SUM_BYTES: usize = 8;

/// One arena segment: in core, or resident on the spill tier.
///
/// A spilled segment is stored as its restart groups in order, each followed
/// by [`group_checksum`] as 8 little-endian bytes. Group `g` of the segment
/// (restart `first_restart + g`) therefore starts at its in-core offset plus
/// `GROUP_SUM_BYTES * g`, and a probe reads and verifies just that group.
enum Segment {
    Loaded(Vec<u8>),
    /// `len` is the in-core payload length; `first_restart` indexes the
    /// restart table at the segment's first group.
    Spilled {
        len: u32,
        first_restart: u32,
    },
}

/// Start of a prefix-compression group: entry `first_idx` is stored with a
/// zero prefix at `(seg, off)`, and entries up to the next restart chain off
/// it within the same segment.
#[derive(Debug, Clone, Copy)]
struct Restart {
    first_idx: u32,
    seg: u32,
    off: u32,
}

/// Decode position of one reader: the reconstruction buffer holds the full
/// encoding of entry `next_idx - 1` (the prefix source for `next_idx`), and
/// `group` holds at most one verified spilled restart group, keyed by its
/// restart index.
pub(crate) struct ScanCursor {
    next_idx: u32,
    seg: u32,
    off: usize,
    buf: Vec<u8>,
    group: Option<(u32, Vec<u8>)>,
}

impl Default for ScanCursor {
    fn default() -> Self {
        ScanCursor {
            next_idx: u32::MAX,
            seg: 0,
            off: 0,
            buf: Vec::new(),
            group: None,
        }
    }
}

/// The compact seen-set + frontier: canonical encodings live once, as
/// delta-compressed entries in append-only segments; the index maps content
/// hashes to entry ids; cold segments spill to disk under memory pressure.
pub(crate) struct ArenaStore<'s> {
    segments: Vec<Segment>,
    restarts: Vec<Restart>,
    index: RawIndex,
    len: u32,
    seg_target: usize,
    /// Full encoding of the most recently appended entry (delta base).
    prev: Vec<u8>,
    /// Encode buffer, recycled across interns.
    scratch: Vec<u8>,
    /// Reader state for intern-time equality probes.
    probe_cur: ScanCursor,
    /// Sum of loaded segment capacities (the dominant `bytes()` term).
    loaded_bytes: usize,
    peak: usize,
    raw_bytes: u64,
    stored_bytes: u64,
    spilled_segments: u32,
    spilled_bytes: u64,
    spill: Option<&'s dyn SpillBackend>,
    spill_broken: bool,
}

impl<'s> ArenaStore<'s> {
    pub(crate) fn new(spill: Option<&'s dyn SpillBackend>) -> Self {
        Self::with_seg_target(spill, SEG_TARGET)
    }

    pub(crate) fn with_seg_target(spill: Option<&'s dyn SpillBackend>, seg_target: usize) -> Self {
        ArenaStore {
            segments: Vec::new(),
            restarts: Vec::new(),
            index: RawIndex::new(),
            len: 0,
            seg_target,
            prev: Vec::new(),
            scratch: Vec::new(),
            probe_cur: ScanCursor::default(),
            loaded_bytes: 0,
            peak: 0,
            raw_bytes: 0,
            stored_bytes: 0,
            spilled_segments: 0,
            spilled_bytes: 0,
            spill,
            spill_broken: false,
        }
    }

    /// Appends `key` (a full canonical encoding) as entry `self.len`.
    fn append(&mut self, key: &[u8]) {
        let idx = self.len;
        let mut restart = idx.is_multiple_of(RESTART_INTERVAL);
        let prefix = if restart {
            0
        } else {
            common_prefix(&self.prev, key)
        };
        // Upper bound of the framed entry: two ≤5-byte varints + suffix.
        let entry_max = 10 + (key.len() - prefix);
        let fits = match self.segments.last() {
            Some(Segment::Loaded(v)) => v.len() + entry_max <= self.seg_target,
            _ => false,
        };
        if !fits {
            restart = true; // a fresh segment must be self-contained
            // Seal the previous tail at its exact length — sealed segments
            // never grow again, so trailing capacity is pure waste. The new
            // segment grows on demand instead of pre-reserving the full
            // spill granule: small runs pay for the bytes they store, not
            // for `seg_target`.
            if let Some(Segment::Loaded(v)) = self.segments.last_mut() {
                let before = v.capacity();
                v.shrink_to_fit();
                self.loaded_bytes -= before - v.capacity();
            }
            self.segments.push(Segment::Loaded(Vec::new()));
        }
        let (prefix, suffix) = if restart {
            (0, key.len())
        } else {
            (prefix, key.len() - prefix)
        };
        let seg = (self.segments.len() - 1) as u32;
        let Some(Segment::Loaded(v)) = self.segments.last_mut() else {
            unreachable!("tail segment is loaded by construction")
        };
        if restart {
            self.restarts.push(Restart {
                first_idx: idx,
                seg,
                off: v.len() as u32,
            });
        }
        let before = v.len();
        let cap_before = v.capacity();
        if before + entry_max > cap_before {
            // Grow in ~25% increments instead of Vec's doubling: the open
            // segment's idle capacity — pure overhead until it seals — stays
            // a quarter of its length instead of equal to it.
            let want = (cap_before + (cap_before / 4).max(4096)).max(before + entry_max);
            v.reserve_exact(want - before);
        }
        put_varint(v, prefix as u64);
        put_varint(v, suffix as u64);
        v.extend_from_slice(&key[key.len() - suffix..]);
        self.loaded_bytes += v.capacity() - cap_before;
        self.raw_bytes += key.len() as u64;
        self.stored_bytes += (v.len() - before) as u64;
        self.len += 1;
    }
}

impl<S: CodecSemantics> StateStore<S> for ArenaStore<'_> {
    type Cursor = ScanCursor;

    fn intern(&mut self, sem: &S, state: S::State) -> (StateId, bool) {
        let mut key = std::mem::take(&mut self.scratch);
        key.clear();
        sem.encode_state(&state, &mut key);
        // The content hash of the canonical encoding routes index probes.
        let tag = (fnv1a(0, &key) >> 32) as u32;
        let new_id = self.len;
        let (segments, restarts, spill, probe_cur) = (
            &self.segments,
            &self.restarts,
            self.spill,
            &mut self.probe_cur,
        );
        let (id, fresh, probes) = self.index.probe_insert(tag, new_id, |cand| {
            entry_for(segments, restarts, spill, probe_cur, cand) == &key[..]
        });
        bb_obs::hot::SEEN_PROBE_LEN.record(u64::from(probes));
        if fresh {
            self.append(&key);
            // The appended encoding becomes the next delta base; the old
            // base's allocation is recycled as the encode buffer.
            std::mem::swap(&mut self.prev, &mut key);
            let b = StateStore::<S>::bytes(self);
            if b > self.peak {
                self.peak = b;
            }
        }
        self.scratch = key;
        (StateId(id), fresh)
    }

    fn read(&self, sem: &S, idx: u32, cur: &mut ScanCursor) -> S::State {
        sem.decode_state(entry_for(
            &self.segments,
            &self.restarts,
            self.spill,
            cur,
            idx,
        ))
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn bytes(&self) -> usize {
        self.loaded_bytes
            + self.restarts.capacity() * std::mem::size_of::<Restart>()
            + self.index.bytes()
            + self.prev.capacity()
    }

    fn bytes_peak(&self) -> usize {
        self.peak
    }

    fn end_level(&mut self, frontier_start: u32, meter: &Meter) {
        let Some(backend) = self.spill else { return };
        if self.spill_broken || self.len == 0 {
            return;
        }
        let cap = meter.memory_cap();
        // High-water mark: start shedding cold segments at 5/8 of the cap,
        // leaving headroom for the level's fan-out. The meter value is
        // identical at any worker count, so so is the spill schedule.
        if cap == usize::MAX || meter.memory_current() < cap / 8 * 5 {
            return;
        }
        // Everything strictly below the segment holding the first frontier
        // entry is cold: the frontier itself (and its restart group) stays
        // in core, so workers never wait on a reload.
        let boundary = restart_for(&self.restarts, frontier_start).seg;
        for seg in 0..boundary {
            let Segment::Loaded(payload) = &self.segments[seg as usize] else {
                continue;
            };
            let first = self.restarts.partition_point(|r| r.seg < seg);
            if backend
                .write_segment(seg, &spill_image(seg, payload, &self.restarts, first))
                .is_err()
            {
                // Keep the segment in core and stop spilling: the run
                // degrades to in-core behavior instead of failing.
                self.spill_broken = true;
                return;
            }
            let len = payload.len();
            self.loaded_bytes -= payload.capacity();
            self.spilled_segments += 1;
            self.spilled_bytes += len as u64;
            bb_obs::hot::SPILL_SEGMENTS.incr();
            bb_obs::hot::SPILL_BYTES.add(len as u64);
            self.segments[seg as usize] = Segment::Spilled {
                len: len as u32,
                first_restart: first as u32,
            };
        }
    }

    fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            raw_bytes: self.raw_bytes,
            stored_bytes: self.stored_bytes,
            spilled_segments: self.spilled_segments,
            spilled_bytes: self.spilled_bytes,
        }
    }
}

/// The governing restart of entry `idx`: the last restart at or before it.
fn restart_for(restarts: &[Restart], idx: u32) -> Restart {
    let i = match restarts.binary_search_by_key(&idx, |r| r.first_idx) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    restarts[i]
}

/// In-segment byte range of restart group `ri`, in a segment whose payload
/// is `len` bytes long: a group runs to the next restart in the same
/// segment, or to the segment's end.
fn group_range(restarts: &[Restart], ri: usize, len: usize) -> Range<usize> {
    let r = restarts[ri];
    let end = match restarts.get(ri + 1) {
        Some(next) if next.seg == r.seg => next.off as usize,
        _ => len,
    };
    r.off as usize..end
}

/// Checksum of group `g` of segment `seg` on the spill tier. The seed binds
/// the group to the position it was written for, so bytes read back from any
/// other segment or group slot fail verification.
fn group_checksum(seg: u32, g: u32, group: &[u8]) -> u64 {
    let position = (u64::from(seg) << 32) | u64::from(g);
    fnv1a(fnv1a(0, &position.to_le_bytes()), group)
}

/// The spill-tier image of segment `seg`, whose first restart is
/// `restarts[first]`: each restart group followed by its checksum.
fn spill_image(seg: u32, payload: &[u8], restarts: &[Restart], first: usize) -> Vec<u8> {
    let groups = restarts[first..].partition_point(|r| r.seg == seg);
    let mut out = Vec::with_capacity(payload.len() + GROUP_SUM_BYTES * groups);
    for g in 0..groups {
        let group = &payload[group_range(restarts, first + g, payload.len())];
        out.extend_from_slice(group);
        out.extend_from_slice(&group_checksum(seg, g as u32, group).to_le_bytes());
    }
    out
}

/// Reconstructs the full encoding of entry `idx` into `cur.buf`.
///
/// Sequential scans (the BFS frontier) continue from the cursor's position;
/// anything else repositions at the governing restart and decodes at most
/// [`RESTART_INTERVAL`] entries. In a spilled segment the cursor decodes from
/// the one restart group it read back (see [`spilled_group`]).
fn entry_for<'a>(
    segments: &[Segment],
    restarts: &[Restart],
    spill: Option<&dyn SpillBackend>,
    cur: &'a mut ScanCursor,
    idx: u32,
) -> &'a [u8] {
    if cur.next_idx != idx {
        let r = restart_for(restarts, idx);
        cur.next_idx = r.first_idx;
        cur.seg = r.seg;
        cur.off = r.off as usize;
        cur.buf.clear();
    }
    loop {
        // `payload` holds the segment's bytes from offset `base` on.
        let (payload, base) = match segments[cur.seg as usize] {
            Segment::Loaded(ref v) => (&v[..], 0),
            Segment::Spilled { len, first_restart } => spilled_group(
                restarts,
                spill,
                cur.seg,
                cur.off,
                len,
                first_restart,
                &mut cur.group,
            ),
        };
        let at = cur.off - base;
        if at == payload.len() {
            // Segment exhausted: the next entry opened a new segment (and a
            // new restart group) at offset 0.
            cur.seg += 1;
            cur.off = 0;
            continue;
        }
        let (prefix, n1) = get_varint(&payload[at..]);
        let (suffix, n2) = get_varint(&payload[at + n1..]);
        let (prefix, suffix) = (prefix as usize, suffix as usize);
        let start = at + n1 + n2;
        cur.buf.truncate(prefix);
        cur.buf.extend_from_slice(&payload[start..start + suffix]);
        cur.off = base + start + suffix;
        cur.next_idx += 1;
        if cur.next_idx > idx {
            return &cur.buf;
        }
    }
}

/// The spilled restart group of segment `seg` that holds offset `off`, and
/// the group's in-segment start offset. At the segment's end (`off == len`)
/// this is the last group, so the caller sees the segment exhausted.
///
/// The cursor's `cache` keeps the last group it read. Any other group costs
/// one positioned read of the group and its checksum.
///
/// # Panics
///
/// If the group cannot be read in full or fails its checksum: the spill
/// tier lost or damaged bytes the exploration depends on.
fn spilled_group<'a>(
    restarts: &[Restart],
    spill: Option<&dyn SpillBackend>,
    seg: u32,
    off: usize,
    len: u32,
    first_restart: u32,
    cache: &'a mut Option<(u32, Vec<u8>)>,
) -> (&'a [u8], usize) {
    let first = first_restart as usize;
    let g = restarts[first..].partition_point(|r| r.seg == seg && r.off as usize <= off) - 1;
    let ri = first + g;
    let range = group_range(restarts, ri, len as usize);
    if cache.as_ref().is_none_or(|(c, _)| *c as usize != ri) {
        let backend = spill.expect("spilled segment without a spill backend");
        let mut bytes = cache.take().map(|(_, b)| b).unwrap_or_default();
        bytes.resize(range.len() + GROUP_SUM_BYTES, 0);
        let at = (range.start + GROUP_SUM_BYTES * g) as u64;
        if let Err(e) = backend.read_at(seg, at, &mut bytes) {
            panic!("corrupt spilled segment {seg}: group {g}: {e}");
        }
        let (group, sum) = bytes.split_at(range.len());
        let sum = u64::from_le_bytes(sum.try_into().expect("checksum is 8 bytes"));
        if sum != group_checksum(seg, g as u32, group) {
            panic!("corrupt spilled segment {seg}: group {g} fails its checksum");
        }
        bb_obs::hot::SPILL_RELOADS.incr();
        bb_obs::hot::SPILL_READ_BYTES.add(bytes.len() as u64);
        bytes.truncate(range.len());
        *cache = Some((ri as u32, bytes));
    }
    let (_, group) = cache.as_ref().expect("group cached above");
    (group, range.start)
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// LEB128 for the entry framing (independent of any state codec).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a varint, returning `(value, bytes_consumed)`.
fn get_varint(bytes: &[u8]) -> (u64, usize) {
    let mut v = 0u64;
    let mut shift = 0;
    for (i, &b) in bytes.iter().enumerate() {
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return (v, i + 1);
        }
        shift += 7;
    }
    panic!("truncated varint in arena segment")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::action::Action;
    use crate::ThreadId;
    use std::sync::Mutex;

    /// A toy codec semantics: a counter grid whose states are `(u32, u32)`
    /// pairs with a shared big-endian-ish prefix, so prefix compression has
    /// something to chew on.
    struct Grid {
        side: u32,
    }

    impl Semantics for Grid {
        type State = (u32, u32);

        fn initial_state(&self) -> (u32, u32) {
            (0, 0)
        }

        fn successors(&self, s: &(u32, u32), out: &mut Vec<(Action, (u32, u32))>) {
            let (x, y) = *s;
            if x + 1 < self.side {
                out.push((Action::tau(ThreadId(1)), (x + 1, y)));
            }
            if y + 1 < self.side {
                out.push((Action::call(ThreadId(1), "up", None), (x, y + 1)));
            }
        }
    }

    impl CodecSemantics for Grid {
        fn encode_state(&self, state: &(u32, u32), out: &mut Vec<u8>) {
            out.extend_from_slice(&state.0.to_be_bytes());
            out.extend_from_slice(&state.1.to_be_bytes());
        }

        fn decode_state(&self, bytes: &[u8]) -> (u32, u32) {
            assert_eq!(bytes.len(), 8, "grid encoding is 8 bytes");
            let x = u32::from_be_bytes(bytes[0..4].try_into().unwrap());
            let y = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
            (x, y)
        }
    }

    /// In-memory spill backend with injectable write failure; it records
    /// the length of every `read_at`.
    #[derive(Default)]
    pub(crate) struct MemSpill {
        pub(crate) segments: Mutex<std::collections::HashMap<u32, Vec<u8>>>,
        pub(crate) fail_writes: bool,
        pub(crate) reads: Mutex<Vec<usize>>,
    }

    impl SpillBackend for MemSpill {
        fn write_segment(&self, index: u32, bytes: &[u8]) -> io::Result<()> {
            if self.fail_writes {
                return Err(io::Error::other("injected"));
            }
            self.segments.lock().unwrap().insert(index, bytes.to_vec());
            Ok(())
        }

        fn read_at(&self, index: u32, offset: u64, buf: &mut [u8]) -> io::Result<()> {
            let segments = self.segments.lock().unwrap();
            let seg = segments
                .get(&index)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "missing segment"))?;
            let at = offset as usize;
            let src = seg
                .get(at..at + buf.len())
                .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
            buf.copy_from_slice(src);
            self.reads.lock().unwrap().push(buf.len());
            Ok(())
        }
    }

    /// The longest restart group of `store`, in bytes.
    pub(crate) fn max_group_len(store: &ArenaStore<'_>) -> usize {
        (0..store.restarts.len())
            .map(|ri| {
                let len = match store.segments[store.restarts[ri].seg as usize] {
                    Segment::Loaded(ref v) => v.len(),
                    Segment::Spilled { len, .. } => len as usize,
                };
                group_range(&store.restarts, ri, len).len()
            })
            .max()
            .unwrap_or(0)
    }

    /// Restart groups held by spilled segments.
    fn spilled_groups(store: &ArenaStore<'_>) -> usize {
        store
            .restarts
            .iter()
            .filter(|r| matches!(store.segments[r.seg as usize], Segment::Spilled { .. }))
            .count()
    }

    fn fill(store: &mut ArenaStore<'_>, sem: &Grid, n: u32) -> Vec<StateId> {
        (0..n)
            .map(|i| {
                let (id, fresh) = store.intern(sem, (i / 7, i % 7));
                assert_eq!(fresh, i / 7 * 7 + i % 7 == i, "dedup is exact");
                id
            })
            .collect()
    }

    #[test]
    fn arena_interns_and_reads_back() {
        let sem = Grid { side: 100 };
        let mut store = ArenaStore::with_seg_target(None, 64);
        let mut expected = Vec::new();
        for x in 0..40u32 {
            for y in 0..40u32 {
                let (id, fresh) = store.intern(&sem, (x, y));
                assert!(fresh);
                assert_eq!(id.index(), expected.len());
                expected.push((x, y));
            }
        }
        // Duplicate interns resolve to the original ids.
        let (id, fresh) = store.intern(&sem, (7, 31));
        assert!(!fresh);
        assert_eq!(expected[id.index()], (7, 31));
        // Sequential and random reads reconstruct every state.
        let mut cur = ScanCursor::default();
        for (i, s) in expected.iter().enumerate() {
            assert_eq!(store.read(&sem, i as u32, &mut cur), *s);
        }
        let mut cur = ScanCursor::default();
        for i in [1599u32, 0, 800, 31, 1598, 17] {
            assert_eq!(store.read(&sem, i, &mut cur), expected[i as usize]);
        }
        let m = StateStore::<Grid>::metrics(&store);
        assert_eq!(m.raw_bytes, 1600 * 8);
        assert!(
            m.stored_bytes < m.raw_bytes,
            "prefix compression must save bytes: {m:?}"
        );
    }

    #[test]
    fn spill_and_reload_round_trips() {
        let sem = Grid { side: 1000 };
        let spill = MemSpill::default();
        let mut store = ArenaStore::with_seg_target(Some(&spill), 128);
        let wd = crate::budget::Watchdog::new(
            crate::budget::Budget::unlimited().with_max_memory_bytes(4096),
        );
        let mut meter = wd.meter(crate::budget::Stage::Explore);
        let mut expected = Vec::new();
        for x in 0..60u32 {
            for y in 0..60u32 {
                store.intern(&sem, (x, y));
                expected.push((x, y));
            }
        }
        // Pressure the meter past the high-water mark, then close a level
        // with a frontier near the end: cold segments must spill.
        meter.add_memory(4000).unwrap();
        let frontier_start = expected.len() as u32 - 10;
        StateStore::<Grid>::end_level(&mut store, frontier_start, &meter);
        let m = StateStore::<Grid>::metrics(&store);
        assert!(m.spilled_segments > 0, "cold segments must spill: {m:?}");
        assert!(!spill.segments.lock().unwrap().is_empty());
        // Every entry — spilled or loaded — still reads back exactly. An
        // in-order scan reads each spilled group once, and nothing more.
        let mut cur = ScanCursor::default();
        for (i, s) in expected.iter().enumerate() {
            assert_eq!(store.read(&sem, i as u32, &mut cur), *s, "entry {i}");
        }
        assert_eq!(spill.reads.lock().unwrap().len(), spilled_groups(&store));
        // Probing a state whose entry is spilled still dedups correctly.
        let (_, fresh) = store.intern(&sem, (0, 0));
        assert!(!fresh, "spilled entries still answer probes");
        // Each read fetched at most one restart group and its checksum.
        let group_max = max_group_len(&store) + GROUP_SUM_BYTES;
        let reads = spill.reads.lock().unwrap();
        assert_eq!(reads.len(), spilled_groups(&store) + 1);
        assert!(
            reads.iter().all(|&n| n <= group_max),
            "{reads:?} > {group_max}"
        );
        // The frontier's own segment stayed in core.
        let boundary = restart_for(&store.restarts, frontier_start).seg;
        for seg in boundary as usize..store.segments.len() {
            assert!(matches!(store.segments[seg], Segment::Loaded(_)));
        }
    }

    /// Every spilled byte is covered by its group's checksum. Flipping any
    /// one byte of a spilled segment makes every read of that group panic,
    /// and reads of the other groups return the right state; a truncated
    /// segment fails the same way.
    #[test]
    fn corrupt_or_truncated_spill_is_detected() {
        let sem = Grid { side: 1000 };
        let spill = MemSpill::default();
        let mut store = ArenaStore::with_seg_target(Some(&spill), 128);
        let wd = crate::budget::Watchdog::new(
            crate::budget::Budget::unlimited().with_max_memory_bytes(4096),
        );
        let mut meter = wd.meter(crate::budget::Stage::Explore);
        let expected: Vec<(u32, u32)> = (0..400u32).map(|i| (i / 20, i % 20)).collect();
        for &s in &expected {
            store.intern(&sem, s);
        }
        meter.add_memory(4000).unwrap();
        StateStore::<Grid>::end_level(&mut store, 390, &meter);
        assert!(matches!(store.segments[0], Segment::Spilled { .. }));
        let image = spill.segments.lock().unwrap()[&0].clone();
        // Segment 0's groups: file byte range and entry range of each.
        let len = match store.segments[0] {
            Segment::Spilled { len, .. } => len as usize,
            Segment::Loaded(_) => unreachable!(),
        };
        let groups: Vec<(Range<usize>, Range<u32>)> = (0..store.restarts.len())
            .take_while(|&ri| store.restarts[ri].seg == 0)
            .map(|g| {
                let bytes = group_range(&store.restarts, g, len);
                let file = bytes.start + GROUP_SUM_BYTES * g..bytes.end + GROUP_SUM_BYTES * (g + 1);
                (
                    file,
                    store.restarts[g].first_idx..store.restarts[g + 1].first_idx,
                )
            })
            .collect();
        assert!(groups.len() > 1, "segment 0 must hold several groups");
        assert_eq!(groups.last().unwrap().0.end, image.len());

        let read = |idx: u32| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.read(&sem, idx, &mut ScanCursor::default())
            }))
        };
        let assert_corrupt = |idx: u32, what: &str| {
            let err = read(idx).expect_err(what);
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("corrupt spilled segment 0"), "{what}: {msg}");
        };
        for at in 0..image.len() {
            let mut bad = image.clone();
            bad[at] ^= 0xff;
            spill.segments.lock().unwrap().insert(0, bad);
            for (file, entries) in &groups {
                if file.contains(&at) {
                    // The last entry decodes the whole group.
                    assert_corrupt(entries.end - 1, &format!("byte {at} flipped"));
                } else {
                    for idx in entries.clone() {
                        assert_eq!(read(idx).unwrap(), expected[idx as usize]);
                    }
                }
            }
        }
        // A group verifies only at the position it was written for.
        let sum = group_checksum(0, 1, &image[..8]);
        assert_ne!(sum, group_checksum(0, 2, &image[..8]));
        assert_ne!(sum, group_checksum(1, 1, &image[..8]));
        let last = groups.last().unwrap().1.end - 1;
        for cut in [image.len() - 1, image.len() - GROUP_SUM_BYTES, 0] {
            spill
                .segments
                .lock()
                .unwrap()
                .insert(0, image[..cut].to_vec());
            assert_corrupt(last, &format!("truncated to {cut} bytes"));
        }
    }

    #[test]
    fn spill_write_failure_degrades_gracefully() {
        let sem = Grid { side: 1000 };
        let spill = MemSpill {
            fail_writes: true,
            ..MemSpill::default()
        };
        let mut store = ArenaStore::with_seg_target(Some(&spill), 128);
        let wd = crate::budget::Watchdog::new(
            crate::budget::Budget::unlimited().with_max_memory_bytes(4096),
        );
        let mut meter = wd.meter(crate::budget::Stage::Explore);
        for i in 0..2000u32 {
            store.intern(&sem, (i / 50, i % 50));
        }
        meter.add_memory(4000).unwrap();
        StateStore::<Grid>::end_level(&mut store, 1990, &meter);
        let m = StateStore::<Grid>::metrics(&store);
        assert_eq!(m.spilled_segments, 0, "failed writes must not spill");
        assert!(store.spill_broken);
        // Everything still reads back from core.
        let mut cur = ScanCursor::default();
        assert_eq!(store.read(&sem, 1234, &mut cur), (1234 / 50, 1234 % 50));
    }

    #[test]
    fn hash_store_interns_once_and_reads_back() {
        let sem = Grid { side: 100 };
        let mut store: HashStore<Grid> = HashStore::new(None);
        let _ = fill_hash(&mut store, &sem, 500);
        assert_eq!(StateStore::<Grid>::len(&store), 500);
        let (id, fresh) = store.intern(&sem, (3, 4));
        assert!(!fresh);
        assert_eq!(store.read(&sem, id.0, &mut ()), (3, 4));
        let bytes = StateStore::<Grid>::bytes(&store);
        // One struct copy per state plus 8 index bytes — no key duplication.
        assert!(
            bytes <= 500 * 8 * 4,
            "hash store must not double-store states: {bytes}"
        );
    }

    fn fill_hash(store: &mut HashStore<Grid>, sem: &Grid, n: u32) -> Vec<StateId> {
        (0..n).map(|i| store.intern(sem, (i, i + 1)).0).collect()
    }

    #[test]
    fn raw_index_grows_and_keeps_entries() {
        let mut idx = RawIndex::new();
        let keys: Vec<u64> = (0..10_000u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect();
        for (i, &k) in keys.iter().enumerate() {
            let tag = (k >> 32) as u32;
            let (id, fresh, _) = idx.probe_insert(tag, i as u32, |cand| {
                keys[cand as usize] == k
            });
            assert!(fresh, "key {i} is distinct");
            assert_eq!(id, i as u32);
        }
        for (i, &k) in keys.iter().enumerate() {
            let tag = (k >> 32) as u32;
            let (id, fresh, _) =
                idx.probe_insert(tag, u32::MAX, |cand| keys[cand as usize] == k);
            assert!(!fresh, "key {i} must be found after growth");
            assert_eq!(id, i as u32);
        }
    }

    #[test]
    fn fill_is_deterministic() {
        let sem = Grid { side: 100 };
        let mut a = ArenaStore::with_seg_target(None, 96);
        let mut b = ArenaStore::with_seg_target(None, 96);
        let ia = fill(&mut a, &sem, 300);
        let ib = fill(&mut b, &sem, 300);
        assert_eq!(ia, ib);
        assert_eq!(a.raw_bytes, b.raw_bytes);
        assert_eq!(a.stored_bytes, b.stored_bytes);
    }
}
