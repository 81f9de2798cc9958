//! Immutable, refcounted ring snapshots and their segmented copy-on-write
//! builder.
//!
//! [`super::RingMaintainer`] is the *mutable* half of the embedding state:
//! delta passes rewrite its levels, records and wiring in place. A
//! [`RingSnapshot`] is the immutable read-side view carved off it — ring
//! membership, the exit bitmap, root and stats, everything a reader needs
//! to answer `successor`/`contains`/ring-walk queries — frozen behind
//! `Arc`s so any number of readers can hold it while repairs continue on
//! the maintainer. The broadcast levels stay with the maintainer: they
//! are its repair certificate, and no read needs them.
//!
//! A snapshot is cut into chunks of `CHUNK_NODES` (2048) consecutive node
//! ids. A chunk is one record of its membership and exit words,
//! **interleaved** word by word (512 B), so `contains` plus the exit test
//! of `successor` read one cache line. No entry is stored: a w-exit αw's
//! successor w·d+β follows from the exit bits of αw's siblings βw (the
//! engine's `ring_step` rule), which at d = 2 it does not even read.
//!
//! The chunks live in **segments**: immutable `Arc<[_]>` blocks of
//! chunks, at most `MAX_SEGMENTS` (64), shared between generations. A
//! snapshot holds a location table (segment and slot per chunk) and the
//! `Arc`s of its segments, so a reader's lookup costs one table load and
//! one load from the small segment list before the chunk itself.
//!
//! The maintainer marks, per bitmap (membership, exits), the chunks a
//! repair dirtied, from change logs it keeps anyway. [`SnapshotPublisher`]
//! writes exactly the chunks either mask flags, once each, into one new
//! segment, copies the previous location table and points the dirty
//! chunks at their new slots; every other chunk stays where it was. A
//! publication thus costs the dirty chunks' copies, a table copy of a few
//! KB and a refcount per segment — not one per chunk — and dropping a
//! generation costs one decrement per segment. A single-necklace repair
//! dirties the necklace's rotations, which land in a few dozen chunks of a
//! million-node graph (PERF.md has the measured counts).
//!
//! A chunk a later publication rewrote stays in its old segment as dead
//! weight until the segment is retired: when a segment's live chunks fill
//! less than a quarter of it, and, while the table would exceed
//! `MAX_SEGMENTS` segments, for the segments with the fewest live chunks,
//! the publisher *forwards* the segment's live chunks into the new segment
//! and drops the old one from the table
//! ([`SnapshotPublisher::forwarded_chunks`] counts them). Every segment a
//! snapshot references is therefore at least a quarter live, and the bytes
//! it references stay within four times one flat copy. A segment is freed
//! when the last snapshot referencing it drops.
//!
//! A first publication puts each chunk in its own segment when there are
//! at most 512 chunks (B(2,20) has 512), and otherwise cuts them into 512
//! equal segments; the next publication brings the table down to
//! `MAX_SEGMENTS`, forwarding single chunks. Chunk-sized first pieces are
//! the allocation pattern under which glibc keeps a torn-down service's
//! heap for the next one (PERF.md, PR 22, measured the page faults).

use std::sync::Arc;

use super::phases::ring_step;
use super::session::RepairOutcome;
use super::{EmbedStats, INFEASIBLE_ROOT};
use crate::mem::grow_to;

/// Log2 of [`CHUNK_NODES`].
const CHUNK_SHIFT: u32 = 11;
/// Nodes per snapshot chunk. Smaller chunks copy less per dirty chunk but
/// make longer location tables, and more segments for the cleaner to
/// retire; PERF.md compares 1024, 2048 and 4096 and kept 2048.
pub(crate) const CHUNK_NODES: usize = 1 << CHUNK_SHIFT;
const CHUNK_MASK: usize = CHUNK_NODES - 1;
/// Bitmap words per chunk.
const CHUNK_WORDS: usize = CHUNK_NODES / 64;

/// Most segments a snapshot keeps after any publication but the first. The
/// quarter-live rule alone keeps about 1.4 × chunks / dirty chunks per
/// publication (28 at B(2,20), 105 at B(2,22)); above the bound the
/// segments with the fewest live chunks, the cheapest to forward, go.
const MAX_SEGMENTS: usize = 64;
/// A segment whose live chunks fill less than `1 / LIVE_DIVISOR` of its
/// slots is retired at the next publication.
const LIVE_DIVISOR: usize = 4;
/// Low bits of a location-table entry that name the segment (a first
/// publication names up to `1 << SEG_BITS` segments); the chunk's slot in
/// that segment sits above them.
const SEG_BITS: u32 = 9;
const SEG_MASK: u32 = (1 << SEG_BITS) - 1;

/// One chunk's bitmaps: `[membership, exit]` per 64 nodes.
type BitsChunk = [[u64; 2]; CHUNK_WORDS];
/// Per-chunk dirty bits of one bitmap of the snapshot, marked by node id.
/// The maintainer keeps one per bitmap and clears them after each
/// publication.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChunkMask {
    words: Vec<u64>,
}

impl ChunkMask {
    /// Grows the mask to cover `n_nodes` nodes (never shrinks).
    pub(crate) fn fit(&mut self, n_nodes: usize) {
        grow_to(
            &mut self.words,
            n_nodes.div_ceil(CHUNK_NODES).div_ceil(64),
            0,
        );
    }

    /// Marks the chunk holding node `v`.
    #[inline]
    pub(crate) fn mark(&mut self, v: usize) {
        let c = v >> CHUNK_SHIFT;
        self.words[c / 64] |= 1 << (c % 64);
    }

    /// Marks every chunk.
    pub(crate) fn mark_all(&mut self) {
        self.words.fill(u64::MAX);
    }

    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The marks of chunks `64 i .. 64 i + 64`.
    fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    pub(crate) fn allocated_bytes(&self) -> usize {
        8 * self.words.capacity()
    }
}

/// A typed rejection from [`RingSnapshot`] read accessors — the read-side
/// mirror of [`super::session::RepairError`]'s validation (PR 6): malformed
/// queries come back as values, never panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupError {
    /// The queried id is not a node of the snapshot's B(d,n).
    NodeOutOfRange {
        /// The offending id.
        node: usize,
        /// The snapshot's node count.
        n_nodes: usize,
    },
    /// The queried node is a valid id but not on the served ring (faulty,
    /// on a dead necklace, or outside the surviving component), so it has
    /// no ring successor.
    NotOnRing {
        /// The off-ring node.
        node: usize,
    },
}

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LookupError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "node id {node} out of range (graph has {n_nodes} nodes)")
            }
            LookupError::NotOnRing { node } => {
                write!(f, "node {node} is not on the served ring")
            }
        }
    }
}

impl std::error::Error for LookupError {}

/// One immutable generation of the maintained ring: everything the read
/// path needs — the membership/exit records, in segments shared behind
/// `Arc`s — and no broadcast levels, which stay with the maintainer.
/// Cheap to clone (one location table and one refcount bump per
/// segment); safe to hold across any number of subsequent repairs — the
/// segments it references are never mutated after publication.
#[derive(Clone)]
pub struct RingSnapshot {
    pub(crate) d: usize,
    pub(crate) suffix: usize,
    pub(crate) n_nodes: usize,
    /// How many fault events the producing maintainer had absorbed when this
    /// snapshot was published — readers use it to line the snapshot up
    /// with a prefix of the event sequence.
    pub(crate) applied_events: u64,
    /// Publication sequence number (1 = the initial publication).
    pub(crate) seq: u64,
    pub(crate) stats: EmbedStats,
    /// The segment table: node `v` lives in chunk `v / CHUNK_NODES`,
    /// rewritten when its membership or exit words changed.
    bits: Segments<BitsChunk>,
}

impl RingSnapshot {
    /// The scalar results of the fault set this snapshot embeds — identical
    /// to [`super::Ffc::embed_into`] of that set.
    #[must_use]
    pub fn stats(&self) -> EmbedStats {
        self.stats
    }

    /// Number of nodes of the underlying B(d,n).
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Fault events absorbed when this snapshot was published.
    #[must_use]
    pub fn applied_events(&self) -> u64 {
        self.applied_events
    }

    /// Publication sequence number (monotone per publisher, starting at 1).
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The ring's root node, or `None` when the fault set is infeasible
    /// (every necklace faulty — no ring exists).
    #[must_use]
    pub fn root(&self) -> Option<usize> {
        (self.stats.root != INFEASIBLE_ROOT).then_some(self.stats.root)
    }

    /// Length of the served ring (0 when infeasible).
    #[must_use]
    pub fn ring_len(&self) -> usize {
        self.stats.component_size
    }

    /// Bytes of every segment this snapshot references, shared ones and
    /// the dead chunks they still hold included, plus its location table —
    /// the read side's footprint.
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        self.bits.allocated_bytes()
    }

    /// Classifies the snapshot's state exactly like
    /// [`super::RingMaintainer::outcome`] did at publication time.
    #[must_use]
    pub fn outcome(&self) -> RepairOutcome {
        RepairOutcome::classify(self.stats, self.n_nodes)
    }

    /// `v`'s `[membership, exit]` word pair.
    #[inline]
    fn words(&self, v: usize) -> [u64; 2] {
        let (seg, slot) = self.bits.locate(v >> CHUNK_SHIFT);
        seg[slot][(v & CHUNK_MASK) / 64]
    }

    #[inline]
    fn on_ring(&self, v: usize) -> bool {
        self.words(v)[0] >> (v % 64) & 1 == 1
    }

    #[inline]
    fn check_node(&self, node: usize) -> Result<(), LookupError> {
        if node >= self.n_nodes {
            return Err(LookupError::NodeOutOfRange {
                node,
                n_nodes: self.n_nodes,
            });
        }
        Ok(())
    }

    // `contains` and `successor` inline across crates, so a reader's checked
    // pair on one node loads its location-table entry, segment and word
    // pair once. A call per lookup cost a quarter or more on random checked
    // pairs at B(2,20), so the successor path is always inlined; only its
    // exit arm is a call (see `ring_step`).

    /// Whether node `u` rides the served ring.
    ///
    /// # Errors
    /// [`LookupError::NodeOutOfRange`] for an id outside the graph.
    #[inline]
    pub fn contains(&self, u: usize) -> Result<bool, LookupError> {
        self.check_node(u)?;
        Ok(self.on_ring(u))
    }

    /// The ring successor of `u`: the next node the embedded cycle visits.
    ///
    /// # Errors
    /// [`LookupError::NodeOutOfRange`] for an id outside the graph,
    /// [`LookupError::NotOnRing`] for a live id that is not on the ring.
    #[inline(always)]
    pub fn successor(&self, u: usize) -> Result<usize, LookupError> {
        self.check_node(u)?;
        if !self.on_ring(u) {
            return Err(LookupError::NotOnRing { node: u });
        }
        Ok(self.successor_unchecked(u))
    }

    #[inline(always)]
    fn successor_unchecked(&self, u: usize) -> usize {
        let (d, suffix) = (self.d, self.suffix);
        let exit = |v: usize| self.words(v)[1] >> (v % 64) & 1 == 1;
        if d.is_power_of_two() {
            // The shift form: the two divisions would bound a ring walk.
            ring_step::<true>(u, d, suffix, exit)
        } else {
            ring_step::<false>(u, d, suffix, exit)
        }
    }

    /// Walks `len` consecutive ring nodes starting at `u` into `out`
    /// (clearing it first) and returns how many were written — `len`
    /// capped at the ring length, so a full lap is the maximum.
    ///
    /// # Errors
    /// [`LookupError::NodeOutOfRange`] / [`LookupError::NotOnRing`] as for
    /// [`RingSnapshot::successor`]; `out` is left empty on error.
    pub fn ring_segment(
        &self,
        u: usize,
        len: usize,
        out: &mut Vec<usize>,
    ) -> Result<usize, LookupError> {
        out.clear();
        self.check_node(u)?;
        if !self.on_ring(u) {
            return Err(LookupError::NotOnRing { node: u });
        }
        let take = len.min(self.stats.component_size);
        let mut v = u;
        for _ in 0..take {
            out.push(v);
            v = self.successor_unchecked(v);
        }
        Ok(take)
    }

    /// Walks the full served ring from the root into `out` — byte-identical
    /// to [`super::RingMaintainer::ring_into`] at publication time.
    /// Leaves `out` empty when the snapshot is infeasible.
    pub fn ring_into(&self, out: &mut Vec<usize>) {
        out.clear();
        if let Some(root) = self.root() {
            // The root rides the ring, so the walk cannot be rejected.
            let _ = self.ring_segment(root, self.stats.component_size, out);
        }
    }
}

impl std::fmt::Debug for RingSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSnapshot")
            .field("seq", &self.seq)
            .field("applied_events", &self.applied_events)
            .field("n_nodes", &self.n_nodes)
            .field("ring_len", &self.stats.component_size)
            .field("infeasible", &self.root().is_none())
            .finish_non_exhaustive()
    }
}

/// The borrow bundle a maintainer hands the publisher: current structure
/// slices plus the per-bitmap masks of chunks changed since the last
/// publication.
pub(crate) struct SnapshotParts<'a> {
    pub d: usize,
    pub suffix: usize,
    pub n_nodes: usize,
    pub stats: EmbedStats,
    /// Chunks whose `exit_bits` changed since the last publication.
    pub ring_dirty: &'a ChunkMask,
    /// Chunks whose `bstar_bits` changed since the last publication.
    pub bstar_dirty: &'a ChunkMask,
    /// `n_nodes.div_ceil(64)` words, like `bstar_bits`.
    pub exit_bits: &'a [u64],
    pub bstar_bits: &'a [u64],
    pub applied_events: u64,
}

/// Builds [`RingSnapshot`]s segment by segment, copy-on-write.
///
/// Owned by whatever drives the maintainer (the [`crate::serve::RingService`]
/// writer thread, a test harness): it is the *single-threaded* producer
/// half; distribution to concurrent readers happens by handing the returned
/// `Arc<RingSnapshot>` to an [`epoch::EpochCell`].
#[derive(Debug, Default)]
pub struct SnapshotPublisher {
    prev: Option<Arc<RingSnapshot>>,
    publications: u64,
    shared_ring: u64,
    shared_membership: u64,
    tally: Tally,
}

impl SnapshotPublisher {
    /// Creates an empty publisher.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total snapshots published through this publisher.
    #[must_use]
    pub fn publications(&self) -> u64 {
        self.publications
    }

    /// Publications that dirtied no chunk of the ring wiring (the exit
    /// bits), sharing all of it with the previous snapshot.
    #[must_use]
    pub fn shared_ring(&self) -> u64 {
        self.shared_ring
    }

    /// Publications that dirtied no chunk of the membership bitmap.
    #[must_use]
    pub fn shared_membership(&self) -> u64 {
        self.shared_membership
    }

    /// Dirty-chunk copies over all publications: a chunk whose membership
    /// or exit words changed costs one copy. A first publication copies
    /// every chunk; later ones copy only what repairs dirtied, which is
    /// what makes publication O(cone) rather than O(n). Chunks moved only
    /// to retire a segment are counted by
    /// [`SnapshotPublisher::forwarded_chunks`] instead.
    #[must_use]
    pub fn copied_chunks(&self) -> u64 {
        self.tally.copied
    }

    /// Clean chunks re-copied over all publications only because their
    /// segment was retired (too sparse, or one segment too many) — the
    /// cleaner's work, on top of [`SnapshotPublisher::copied_chunks`].
    #[must_use]
    pub fn forwarded_chunks(&self) -> u64 {
        self.tally.forwarded
    }

    /// The most recently published snapshot, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&Arc<RingSnapshot>> {
        self.prev.as_ref()
    }

    /// Assembles a snapshot from the maintainer's current structures,
    /// writing the chunks the masks flag dirty into one new segment and
    /// leaving every other chunk in the segments it shares with the
    /// previous publication. Without a previous publication of the same
    /// shape, every chunk is copied.
    pub(crate) fn build(&mut self, parts: SnapshotParts<'_>) -> Arc<RingSnapshot> {
        let n = parts.n_nodes;
        let prev = self
            .prev
            .as_ref()
            .filter(|p| p.n_nodes == n && p.d == parts.d);
        let n_chunks = n.div_ceil(CHUNK_NODES);
        let n_words = n.div_ceil(64);
        let bits = Segments::publish::<MAX_SEGMENTS>(
            prev.map(|p| &p.bits),
            n_chunks,
            |i| parts.bstar_dirty.word(i) | parts.ring_dirty.word(i),
            |c| {
                let words = c * CHUNK_WORDS..((c + 1) * CHUNK_WORDS).min(n_words);
                interleave(&parts.bstar_bits[words.clone()], &parts.exit_bits[words])
            },
            &mut self.tally,
        );
        if prev.is_some() {
            self.shared_ring += u64::from(!parts.ring_dirty.any());
            self.shared_membership += u64::from(!parts.bstar_dirty.any());
        }
        self.publications += 1;
        let snap = Arc::new(RingSnapshot {
            d: parts.d,
            suffix: parts.suffix,
            n_nodes: n,
            applied_events: parts.applied_events,
            seq: self.publications,
            stats: parts.stats,
            bits,
        });
        self.prev = Some(Arc::clone(&snap));
        snap
    }
}

/// Chunk writes of one or more publications: chunks copied because a
/// repair dirtied them, and clean chunks forwarded out of a retired
/// segment.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    copied: u64,
    forwarded: u64,
}

/// A snapshot's chunks (of type `E`): chunk `c` is entry `slot` of
/// segment `seg`, where `loc[c]` packs `slot << SEG_BITS | seg`. Segments
/// are shared between generations and never written once built.
#[derive(Clone)]
struct Segments<E> {
    loc: Box<[u32]>,
    segs: Box<[Arc<[E]>]>,
    /// How many entries of `loc` name each segment.
    live: Box<[u32]>,
}

impl<E: PartialEq> Segments<E> {
    /// The segment holding chunk `c`, and the chunk's slot in it.
    #[inline(always)]
    fn locate(&self, c: usize) -> (&[E], usize) {
        let at = self.loc[c];
        (
            &self.segs[(at & SEG_MASK) as usize],
            (at >> SEG_BITS) as usize,
        )
    }

    fn allocated_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.loc)
            + size_of_val(&*self.segs)
            + size_of_val(&*self.live)
            + self.segs.iter().map(|s| size_of_val(&**s)).sum::<usize>()
    }

    /// The next generation's table of `n_chunks` chunks: at most `K`
    /// segments when there is a `prev`. `dirty(i)` is the word of chunks
    /// `64 i ..` that changed since `prev` was built (bits past the last
    /// chunk are ignored), and `chunk(c)` reads chunk `c` from the
    /// maintainer.
    ///
    /// Without `prev` every chunk is copied, one chunk per segment, or into
    /// `1 << SEG_BITS` segments of equal size when there are more chunks.
    /// Otherwise the dirty chunks, plus the live chunks of every
    /// retired segment, are written once into one new segment, and every
    /// other chunk keeps its segment and slot. A segment is retired when
    /// its live chunks fill less than `1 / LIVE_DIVISOR` of it (one with
    /// none left is simply dropped), and then, while the table would hold
    /// more than `K` with the new segment, the one with the fewest live
    /// chunks is retired too. Debug builds check every clean chunk against
    /// a fresh copy. Segments are collected from mapped ranges and slices,
    /// whose exact length lets `Arc<[E]>` write them in place.
    fn publish<const K: usize>(
        prev: Option<&Self>,
        n_chunks: usize,
        dirty: impl Fn(usize) -> u64,
        chunk: impl Fn(usize) -> E,
        tally: &mut Tally,
    ) -> Self {
        const { assert!(K >= 1 && K <= 1 << SEG_BITS) };
        let dirty = |i: usize| dirty(i) & u64::MAX >> (64 * (i + 1)).saturating_sub(n_chunks);
        let Some(prev) = prev else {
            let per = n_chunks.div_ceil(1 << SEG_BITS).max(1);
            let loc = (0..n_chunks)
                .map(|c| ((c % per) as u32) << SEG_BITS | (c / per) as u32)
                .collect();
            let segs: Box<[Arc<[E]>]> = (0..n_chunks)
                .step_by(per)
                .map(|first| (first..n_chunks.min(first + per)).map(&chunk).collect())
                .collect();
            let live = segs.iter().map(|s| s.len() as u32).collect();
            tally.copied += n_chunks as u64;
            return Segments { loc, segs, live };
        };
        // The dirty chunks, in ascending order.
        let dirty_chunks = || {
            (0..n_chunks.div_ceil(64)).flat_map(move |i| {
                let mut word = dirty(i);
                std::iter::from_fn(move || {
                    let j = (word != 0).then(|| word.trailing_zeros() as usize)?;
                    word &= word - 1;
                    Some(64 * i + j)
                })
            })
        };
        let seg_of = |c: usize| (prev.loc[c] & SEG_MASK) as usize;
        // Live chunks per segment once the dirty ones move out.
        let n_old = prev.segs.len();
        let mut live = [0u32; 1 << SEG_BITS];
        live[..n_old].copy_from_slice(&prev.live);
        let mut n_dirty = 0;
        for c in dirty_chunks() {
            n_dirty += 1;
            live[seg_of(c)] -= 1;
        }
        let mut retired = [false; 1 << SEG_BITS];
        for s in 0..n_old {
            retired[s] = (live[s] as usize) * LIVE_DIVISOR < prev.segs[s].len();
        }
        let forwards = |retired: &[bool]| -> usize {
            (0..n_old)
                .filter(|&s| retired[s])
                .map(|s| live[s] as usize)
                .sum()
        };
        let mut kept = retired[..n_old].iter().filter(|&&r| !r).count();
        let mut moved_count = n_dirty + forwards(&retired);
        while kept + usize::from(moved_count > 0) > K {
            // The cheapest to retire: the fewest live chunks to forward.
            let Some(s) = (0..n_old).filter(|&s| !retired[s]).min_by_key(|&s| live[s]) else {
                break;
            };
            retired[s] = true;
            kept -= 1;
            moved_count += live[s] as usize;
        }
        let mut segs = Vec::with_capacity(kept + 1);
        let mut next_live = Vec::with_capacity(kept + 1);
        let mut remap = [0u32; 1 << SEG_BITS];
        for (s, seg) in prev.segs.iter().enumerate() {
            if !retired[s] {
                remap[s] = segs.len() as u32;
                next_live.push(live[s]);
                segs.push(Arc::clone(seg));
            }
        }
        let fresh = segs.len() as u32;
        if cfg!(debug_assertions) {
            for c in (0..n_chunks).filter(|&c| dirty(c / 64) >> (c % 64) & 1 == 0) {
                let (seg, slot) = prev.locate(c);
                debug_assert!(seg[slot] == chunk(c), "chunk {c} flagged clean but differs");
            }
        }
        // Every chunk keeps its slot under its segment's new index; then
        // the moved ones, those of retired segments and the dirty ones,
        // take the new segment's slots in that order.
        let mut loc: Box<[u32]> = prev
            .loc
            .iter()
            .map(|&at| at & !SEG_MASK | remap[(at & SEG_MASK) as usize])
            .collect();
        let mut moved = Vec::with_capacity(moved_count);
        if kept < n_old {
            moved.extend((0..n_chunks).filter(|&c| retired[seg_of(c)]));
        }
        moved.extend(dirty_chunks().filter(|&c| !retired[seg_of(c)]));
        for (slot, &c) in moved.iter().enumerate() {
            loc[c] = (slot as u32) << SEG_BITS | fresh;
        }
        tally.copied += n_dirty as u64;
        tally.forwarded += (moved.len() - n_dirty) as u64;
        if !moved.is_empty() {
            next_live.push(moved.len() as u32);
            segs.push(moved.iter().map(|&c| chunk(c)).collect());
        }
        Segments {
            loc,
            segs: segs.into_boxed_slice(),
            live: next_live.into_boxed_slice(),
        }
    }
}

/// Interleaves one chunk's membership and exit words (the graph's short
/// last chunk is zero-padded).
fn interleave(members: &[u64], exits: &[u64]) -> BitsChunk {
    let mut rec = [[0; 2]; CHUNK_WORDS];
    for ((pair, &m), &e) in rec.iter_mut().zip(members).zip(exits) {
        *pair = [m, e];
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::super::{FaultEvent, Ffc, RingMaintainer};
    use super::*;

    fn service_pair() -> (Ffc, RingMaintainer, SnapshotPublisher) {
        let ffc = Ffc::new(2, 5);
        let mut maint = RingMaintainer::new();
        maint.reset(&ffc, &[]).expect("reset");
        (ffc, maint, SnapshotPublisher::new())
    }

    #[test]
    fn accessors_reject_out_of_range_ids_with_typed_errors() {
        let (_ffc, mut maint, mut publisher) = service_pair();
        let snap = maint.publish(&mut publisher, 0).expect("publish");
        let n = snap.n_nodes();
        for bad in [n, n + 1, usize::MAX] {
            let want = LookupError::NodeOutOfRange {
                node: bad,
                n_nodes: n,
            };
            assert_eq!(snap.contains(bad), Err(want));
            assert_eq!(snap.successor(bad), Err(want));
            let mut out = vec![7usize];
            assert_eq!(snap.ring_segment(bad, 4, &mut out), Err(want));
            assert!(out.is_empty(), "ring_segment must clear out on error");
        }
    }

    #[test]
    fn successor_rejects_off_ring_nodes() {
        let (ffc, mut maint, mut publisher) = service_pair();
        maint
            .apply_batch(&ffc, &[FaultEvent::NodeDown(3)])
            .expect("repair");
        let snap = maint.publish(&mut publisher, 1).expect("publish");
        assert_eq!(snap.contains(3), Ok(false));
        assert_eq!(snap.successor(3), Err(LookupError::NotOnRing { node: 3 }));
        let mut out = Vec::new();
        assert_eq!(
            snap.ring_segment(3, 4, &mut out),
            Err(LookupError::NotOnRing { node: 3 })
        );
    }

    #[test]
    fn segment_walk_matches_full_ring() {
        let (_ffc, mut maint, mut publisher) = service_pair();
        let snap = maint.publish(&mut publisher, 0).expect("publish");
        let mut ring = Vec::new();
        snap.ring_into(&mut ring);
        assert_eq!(ring.len(), snap.ring_len());
        let mut seg = Vec::new();
        // A segment longer than the ring caps at one full lap.
        let wrote = snap
            .ring_segment(ring[0], ring.len() + 100, &mut seg)
            .expect("segment");
        assert_eq!(wrote, ring.len());
        assert_eq!(seg, ring);
        // A short segment from mid-ring matches the corresponding window.
        let wrote = snap.ring_segment(ring[2], 3, &mut seg).expect("segment");
        assert_eq!(wrote, 3);
        assert_eq!(seg, ring[2..5]);
        // Every walked node is a member.
        for &v in &ring {
            assert_eq!(snap.contains(v), Ok(true));
            assert!(snap.successor(v).is_ok());
        }
    }

    /// Whether chunk `c` sits in the same segment and slot of both tables.
    fn same_chunk<E: PartialEq>(a: &Segments<E>, b: &Segments<E>, c: usize) -> bool {
        let ((sa, ia), (sb, ib)) = (a.locate(c), b.locate(c));
        ia == ib && std::ptr::eq(sa, sb)
    }

    #[test]
    fn clean_publications_share_chunks_by_refcount() {
        let (ffc, mut maint, mut publisher) = service_pair();
        let first = maint.publish(&mut publisher, 0).expect("publish");
        assert_eq!(
            publisher.copied_chunks(),
            1,
            "a first publication copies all"
        );
        // No events in between: everything is clean and shared.
        let second = maint.publish(&mut publisher, 0).expect("publish");
        assert!(Arc::ptr_eq(&first.bits.segs[0], &second.bits.segs[0]));
        assert_eq!(publisher.copied_chunks(), 1);
        assert_eq!(publisher.forwarded_chunks(), 0);
        assert_eq!(publisher.shared_ring(), 1);
        assert_eq!(publisher.shared_membership(), 1);
        // A topology-changing event dirties the chunk.
        maint
            .apply_batch(&ffc, &[FaultEvent::NodeDown(5)])
            .expect("repair");
        let third = maint.publish(&mut publisher, 1).expect("publish");
        assert!(!same_chunk(&second.bits, &third.bits, 0));
        // The one chunk left its segment, so the old segment is dropped
        // rather than forwarded.
        assert_eq!(third.bits.segs.len(), 1);
        assert_eq!(publisher.forwarded_chunks(), 0);
        assert_eq!(third.seq(), 3);
        assert_eq!(third.applied_events(), 1);
    }

    #[test]
    fn a_repair_copies_only_the_chunks_it_dirtied() {
        // B(2,16): 32 chunks. Killing one necklace dirties the chunks
        // of its rotations and of the cones around them, not every chunk.
        let ffc = Ffc::new(2, 16);
        let chunks = (1 << 16) / CHUNK_NODES;
        let mut maint = RingMaintainer::new();
        maint.reset(&ffc, &[]).expect("reset");
        let mut publisher = SnapshotPublisher::new();
        let before = maint.publish(&mut publisher, 0).expect("publish");
        let full = publisher.copied_chunks();
        assert_eq!(full, chunks as u64);
        maint.add_fault(&ffc, 12_345).expect("repair");
        let after = maint.publish(&mut publisher, 1).expect("publish");
        let copied = publisher.copied_chunks() - full;
        assert!(copied > 0 && copied < full, "copied {copied} of {full}");
        let shared = (0..chunks)
            .filter(|&c| same_chunk(&before.bits, &after.bits, c))
            .count();
        assert!(shared > 0, "some chunk must be shared");
        assert!(after.bits.segs.len() <= MAX_SEGMENTS);
        // Every shared or copied chunk reads like a fresh publication.
        let mut fresh = RingMaintainer::new();
        fresh.reset(&ffc, &[12_345]).expect("reset");
        let want = fresh
            .publish(&mut SnapshotPublisher::new(), 1)
            .expect("publish");
        for v in 0..after.n_nodes() {
            assert_eq!(after.contains(v), want.contains(v), "node {v}");
            assert_eq!(after.successor(v), want.successor(v), "node {v}");
        }
    }

    /// Drives the segment store on its own: `n_chunks` one-word chunks,
    /// random dirty masks from empty to dense,
    /// one publication per round, and a few old generations held at random
    /// with the data they were built from. After every publication but
    /// the first (which may name up to `1 << SEG_BITS` segments): at most
    /// `K` segments, each at least `1 / LIVE_DIVISOR` live (so the table
    /// references at most `LIVE_DIVISOR` flat copies); after every one,
    /// every chunk of every held generation equal to its copy.
    fn drive_segment_store<const K: usize>(n_chunks: usize, seed: u64) -> Tally {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data: Vec<u64> = (0..n_chunks as u64).collect();
        let mut tally = Tally::default();
        let mut table = Segments::publish::<K>(None, n_chunks, |_| 0, |c| data[c], &mut tally);
        assert!(table.segs.len() <= 1 << SEG_BITS, "first publication");
        let mut held = vec![(table.clone(), data.clone())];
        for round in 0..600 {
            let density = [0.0, 0.02, 0.1, 0.3, 0.9][rng.gen_range(0..5)];
            // Mask words with stray bits past the last chunk, as
            // `ChunkMask::mark_all` leaves them.
            let mut dirty = vec![0u64; n_chunks.div_ceil(64) + 1];
            for c in 0..dirty.len() * 64 {
                if c >= n_chunks || rng.gen_bool(density) {
                    dirty[c / 64] |= 1 << (c % 64);
                }
            }
            for c in (0..n_chunks).filter(|c| dirty[c / 64] >> (c % 64) & 1 == 1) {
                data[c] = rng.next_u64();
            }
            table = Segments::publish::<K>(
                Some(&table),
                n_chunks,
                |i| dirty[i],
                |c| data[c],
                &mut tally,
            );
            assert!(
                table.segs.len() <= K,
                "round {round}: {} segments",
                table.segs.len()
            );
            let mut live = vec![0usize; table.segs.len()];
            for &at in table.loc.iter() {
                live[(at & SEG_MASK) as usize] += 1;
            }
            for (s, seg) in table.segs.iter().enumerate() {
                let slots = seg.len();
                assert_eq!(
                    table.live[s] as usize, live[s],
                    "round {round}: segment {s}"
                );
                assert!(
                    live[s] * LIVE_DIVISOR >= slots,
                    "round {round}: segment {s} holds {} live of {slots}",
                    live[s]
                );
            }
            let seg_chunks: usize = table.segs.iter().map(|s| s.len()).sum();
            assert!(seg_chunks <= LIVE_DIVISOR * n_chunks, "round {round}");
            if rng.gen_bool(0.2) {
                held.push((table.clone(), data.clone()));
            }
            if held.len() > 6 {
                held.swap_remove(rng.gen_range(0..held.len()));
            }
            for (t, want) in held.iter().chain([(table.clone(), data.clone())].iter()) {
                for (c, &chunk) in want.iter().enumerate() {
                    let (seg, slot) = t.locate(c);
                    assert_eq!(
                        seg[slot], chunk,
                        "round {round}: chunk {c} of a held generation differs"
                    );
                }
            }
        }
        tally
    }

    #[test]
    fn segment_store_keeps_every_held_generation_exact() {
        // K = 2 retires a segment at nearly every publication.
        for seed in 1..=3 {
            let tally = drive_segment_store::<2>(37, seed);
            assert!(tally.forwarded > 0, "the cleaner never ran");
        }
        let tally = drive_segment_store::<MAX_SEGMENTS>(150, 4);
        assert!(tally.forwarded > 0, "the cleaner never ran");
    }

    #[test]
    fn infeasible_snapshot_serves_empty_ring_and_typed_errors() {
        let ffc = Ffc::new(2, 2);
        let mut maint = RingMaintainer::new();
        // Kill every necklace of B(2,2).
        maint.reset(&ffc, &[0, 1, 3]).expect("reset");
        let mut publisher = SnapshotPublisher::new();
        let snap = maint.publish(&mut publisher, 0).expect("publish");
        assert!(snap.outcome().is_infeasible());
        assert_eq!(snap.root(), None);
        assert_eq!(snap.ring_len(), 0);
        let mut ring = vec![1usize];
        snap.ring_into(&mut ring);
        assert!(ring.is_empty());
        for v in 0..snap.n_nodes() {
            assert_eq!(snap.contains(v), Ok(false));
            assert_eq!(snap.successor(v), Err(LookupError::NotOnRing { node: v }));
        }
    }
}
