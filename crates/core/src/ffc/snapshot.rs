//! Immutable, refcounted ring snapshots and their chunked copy-on-write
//! builder.
//!
//! [`super::RingMaintainer`] is the *mutable* half of the embedding state:
//! delta passes rewrite its levels, records and wiring in place. A
//! [`RingSnapshot`] is the immutable read-side view carved off it — ring
//! membership, the exit bitmap and successor overrides, broadcast levels,
//! root and stats, everything a reader needs to answer
//! `successor`/`contains`/ring-walk queries — frozen behind `Arc`s so any
//! number of readers can hold it while repairs continue on the maintainer.
//!
//! A snapshot is cut into chunks of `CHUNK_NODES` (4096) consecutive node
//! ids. Each chunk holds one `Arc` per buffer:
//!
//! * a record of the chunk's membership and exit words, **interleaved**
//!   word by word, so `contains` plus the exit test of `successor` read one
//!   cache line;
//! * the dense `u32` successor overrides (meaningful where the exit bit is
//!   set);
//! * the broadcast levels in the compact one-byte [`LevelVec`] encoding.
//!
//! The maintainer marks, per structure group (membership, ring wiring,
//! broadcast levels), the chunks a repair dirtied, from change logs it keeps
//! anyway. [`SnapshotPublisher`] copies exactly those chunks and shares
//! every other chunk with the previous snapshot by refcount, so a
//! publication costs the dirty chunks' copies plus one refcount bump per
//! clean chunk. A single-necklace repair dirties the necklace's rotations,
//! which land in a few dozen chunks of a million-node graph, not in all of
//! them (PERF.md has the measured counts). A chunk is freed when the last
//! snapshot referencing it drops; there is no buffer pool.

use std::sync::Arc;

use super::phases::rotate;
use super::session::RepairOutcome;
use super::{EmbedStats, INFEASIBLE_ROOT};
use crate::bitreach::{LevelVec, UNREACHED};
use crate::mem::{decode_level, grow_to, UNREACHED_U8};

/// Log2 of [`CHUNK_NODES`].
const CHUNK_SHIFT: u32 = 12;
/// Nodes per snapshot chunk. Smaller chunks copy less per dirty chunk but
/// pay more refcount bumps per publication; the PERF.md sweep measured
/// 1024/4096/16384 and kept 4096.
pub(crate) const CHUNK_NODES: usize = 1 << CHUNK_SHIFT;
const CHUNK_MASK: usize = CHUNK_NODES - 1;
/// Bitmap words per chunk.
const CHUNK_WORDS: usize = CHUNK_NODES / 64;

/// One chunk's bitmaps: `[membership, exit]` per 64 nodes.
type BitsChunk = [[u64; 2]; CHUNK_WORDS];
type SuccChunk = [u32; CHUNK_NODES];
type LevelChunk = [u8; CHUNK_NODES];

/// Per-chunk dirty bits of one snapshot group, marked by node id. The
/// maintainer keeps one per group and clears them after each publication.
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

    fn is_marked(&self, chunk: usize) -> bool {
        self.words[chunk / 64] >> (chunk % 64) & 1 == 1
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
/// path needs, in chunks shared behind `Arc`s. Cheap to clone (one
/// refcount bump per chunk buffer); safe to hold across any number of
/// subsequent repairs — the chunks it references are never mutated after
/// publication.
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
    /// Chunk tables, one per buffer: node `v` lives in chunk
    /// `v / CHUNK_NODES` of each. `bits` is copied when the membership or
    /// the ring group dirtied the chunk, `succ` when the ring group did,
    /// `levels` when the level group did.
    bits: Box<[Arc<BitsChunk>]>,
    succ: Box<[Arc<SuccChunk>]>,
    levels: Box<[Arc<LevelChunk>]>,
    /// Broadcast levels too large for the byte encoding, as (node, level)
    /// pairs — empty in steady state (see [`LevelVec`]).
    level_overflow: Vec<(u32, u32)>,
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

    /// Bytes of every chunk this snapshot references, shared ones
    /// included, plus its chunk table — the read side's footprint.
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bits.len()
            * (3 * size_of::<Arc<()>>()
                + size_of::<BitsChunk>()
                + size_of::<SuccChunk>()
                + size_of::<LevelChunk>())
            + 8 * self.level_overflow.capacity()
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
        self.bits[v >> CHUNK_SHIFT][(v & CHUNK_MASK) / 64]
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
    // pair on one node loads its chunk-table entry and word pair once.

    /// Whether node `u` rides the served ring.
    ///
    /// # Errors
    /// [`LookupError::NodeOutOfRange`] for an id outside the graph.
    #[inline]
    pub fn contains(&self, u: usize) -> Result<bool, LookupError> {
        self.check_node(u)?;
        Ok(self.on_ring(u))
    }

    /// The broadcast level of `u` at publication time: its distance from
    /// the ring root in the surviving component, or `None` for a node off
    /// the broadcast tree (faulty or disconnected).
    ///
    /// # Errors
    /// [`LookupError::NodeOutOfRange`] for an id outside the graph.
    pub fn broadcast_level(&self, u: usize) -> Result<Option<u32>, LookupError> {
        self.check_node(u)?;
        let byte = self.levels[u >> CHUNK_SHIFT][u & CHUNK_MASK];
        let l = decode_level(byte, u, &self.level_overflow);
        Ok((l != UNREACHED).then_some(l))
    }

    /// The ring successor of `u`: the next node the embedded cycle visits.
    ///
    /// # Errors
    /// [`LookupError::NodeOutOfRange`] for an id outside the graph,
    /// [`LookupError::NotOnRing`] for a live id that is not on the ring.
    #[inline]
    pub fn successor(&self, u: usize) -> Result<usize, LookupError> {
        self.check_node(u)?;
        if !self.on_ring(u) {
            return Err(LookupError::NotOnRing { node: u });
        }
        Ok(self.successor_unchecked(u))
    }

    #[inline]
    fn successor_unchecked(&self, u: usize) -> usize {
        let (d, suffix) = (self.d, self.suffix);
        if self.words(u)[1] >> (u % 64) & 1 == 1 {
            self.succ[u >> CHUNK_SHIFT][u & CHUNK_MASK] as usize
        } else if d.is_power_of_two() {
            // The shift form: the two divisions would bound a ring walk.
            rotate::<true>(u, d, suffix)
        } else {
            rotate::<false>(u, d, suffix)
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
/// slices plus the per-group masks of chunks changed since the last
/// publication.
pub(crate) struct SnapshotParts<'a> {
    pub d: usize,
    pub suffix: usize,
    pub n_nodes: usize,
    pub stats: EmbedStats,
    /// Chunks whose `succ`/`exit_bits` changed since the last publication.
    pub ring_dirty: &'a ChunkMask,
    /// Chunks whose `bstar_bits` changed since the last publication.
    pub bstar_dirty: &'a ChunkMask,
    /// Chunks whose `bcast_level` changed since the last publication.
    pub level_dirty: &'a ChunkMask,
    /// `n_nodes` entries.
    pub succ: &'a [u32],
    /// `n_nodes.div_ceil(64)` words, like `bstar_bits`.
    pub exit_bits: &'a [u64],
    pub bstar_bits: &'a [u64],
    pub bcast_level: &'a LevelVec,
    pub applied_events: u64,
}

/// Builds [`RingSnapshot`]s chunk by chunk, copy-on-write.
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
    shared_levels: u64,
    copied_chunks: u64,
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

    /// Publications that dirtied no chunk of the ring wiring (`succ` +
    /// exit bits), sharing all of it with the previous snapshot.
    #[must_use]
    pub fn shared_ring(&self) -> u64 {
        self.shared_ring
    }

    /// Publications that dirtied no chunk of the membership bitmap.
    #[must_use]
    pub fn shared_membership(&self) -> u64 {
        self.shared_membership
    }

    /// Publications that dirtied no chunk of the broadcast levels.
    #[must_use]
    pub fn shared_levels(&self) -> u64 {
        self.shared_levels
    }

    /// Chunk buffers copied over all publications: a dirty chunk costs one
    /// copy of each buffer its groups touch (membership/exit record,
    /// successors, levels). A first publication copies all three buffers of
    /// every chunk; later ones copy only what repairs dirtied, which is
    /// what makes publication O(cone) rather than O(n).
    #[must_use]
    pub fn copied_chunks(&self) -> u64 {
        self.copied_chunks
    }

    /// The most recently published snapshot, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&Arc<RingSnapshot>> {
        self.prev.as_ref()
    }

    /// Assembles a snapshot from the maintainer's current structures, copying
    /// the chunks the masks flag dirty and sharing every other chunk with
    /// the previous publication. Without a previous publication of the
    /// same shape, every chunk is copied.
    pub(crate) fn build(&mut self, parts: SnapshotParts<'_>) -> Arc<RingSnapshot> {
        let n = parts.n_nodes;
        let prev = self
            .prev
            .as_ref()
            .filter(|p| p.n_nodes == n && p.d == parts.d);
        let n_chunks = n.div_ceil(CHUNK_NODES);
        let span = |c: usize| c * CHUNK_NODES..((c + 1) * CHUNK_NODES).min(n);
        let words = |c: usize| c * CHUNK_WORDS..((c + 1) * CHUNK_WORDS).min(n.div_ceil(64));
        let mut copied = 0u64;
        let bits = chunk_table(
            prev.map(|p| &p.bits[..]),
            n_chunks,
            |c| parts.bstar_dirty.is_marked(c) || parts.ring_dirty.is_marked(c),
            |c| {
                Arc::new(interleave(
                    &parts.bstar_bits[words(c)],
                    &parts.exit_bits[words(c)],
                ))
            },
            &mut copied,
        );
        let succ = chunk_table(
            prev.map(|p| &p.succ[..]),
            n_chunks,
            |c| parts.ring_dirty.is_marked(c),
            |c| copy_chunk(&parts.succ[span(c)], 0),
            &mut copied,
        );
        let levels = chunk_table(
            prev.map(|p| &p.levels[..]),
            n_chunks,
            |c| parts.level_dirty.is_marked(c),
            |c| copy_chunk(&parts.bcast_level.as_bytes()[span(c)], UNREACHED_U8),
            &mut copied,
        );
        if prev.is_some() {
            self.shared_ring += u64::from(!parts.ring_dirty.any());
            self.shared_membership += u64::from(!parts.bstar_dirty.any());
            self.shared_levels += u64::from(!parts.level_dirty.any());
        }
        self.copied_chunks += copied;
        self.publications += 1;
        let snap = Arc::new(RingSnapshot {
            d: parts.d,
            suffix: parts.suffix,
            n_nodes: n,
            applied_events: parts.applied_events,
            seq: self.publications,
            stats: parts.stats,
            bits,
            succ,
            levels,
            level_overflow: parts.bcast_level.overflow().to_vec(),
        });
        self.prev = Some(Arc::clone(&snap));
        snap
    }
}

/// One chunk table of a new snapshot: chunk `c` is shared with `prev`
/// unless `dirty(c)` (or there is no `prev`), in which case `copy(c)`
/// builds it from the maintainer and `copied` counts it. Debug builds check
/// every shared chunk against a fresh copy.
fn chunk_table<T: PartialEq>(
    prev: Option<&[Arc<T>]>,
    n_chunks: usize,
    dirty: impl Fn(usize) -> bool,
    copy: impl Fn(usize) -> Arc<T>,
    copied: &mut u64,
) -> Box<[Arc<T>]> {
    (0..n_chunks)
        .map(|c| match prev {
            Some(prev) if !dirty(c) => {
                debug_assert!(prev[c] == copy(c), "chunk {c} flagged clean but differs");
                Arc::clone(&prev[c])
            }
            _ => {
                *copied += 1;
                copy(c)
            }
        })
        .collect()
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

/// Copies one chunk's worth of `src` into a fresh shared chunk: a full
/// chunk goes straight into its allocation, the graph's short last chunk is
/// padded with `pad`.
fn copy_chunk<T: Copy, const N: usize>(src: &[T], pad: T) -> Arc<[T; N]> {
    if src.len() == N {
        if let Ok(full) = Arc::<[T]>::from(src).try_into() {
            return full;
        }
    }
    let mut buf = [pad; N];
    buf[..src.len()].copy_from_slice(src);
    Arc::new(buf)
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

    #[test]
    fn clean_publications_share_chunks_by_refcount() {
        let (ffc, mut maint, mut publisher) = service_pair();
        let first = maint.publish(&mut publisher, 0).expect("publish");
        assert_eq!(
            publisher.copied_chunks(),
            3,
            "a first publication copies all"
        );
        // No events in between: everything is clean and shared.
        let second = maint.publish(&mut publisher, 0).expect("publish");
        assert!(Arc::ptr_eq(&first.bits[0], &second.bits[0]));
        assert!(Arc::ptr_eq(&first.succ[0], &second.succ[0]));
        assert!(Arc::ptr_eq(&first.levels[0], &second.levels[0]));
        assert_eq!(publisher.copied_chunks(), 3);
        assert_eq!(publisher.shared_ring(), 1);
        assert_eq!(publisher.shared_membership(), 1);
        assert_eq!(publisher.shared_levels(), 1);
        // A topology-changing event dirties the chunk in every group.
        maint
            .apply_batch(&ffc, &[FaultEvent::NodeDown(5)])
            .expect("repair");
        let third = maint.publish(&mut publisher, 1).expect("publish");
        assert!(!Arc::ptr_eq(&second.bits[0], &third.bits[0]));
        assert!(!Arc::ptr_eq(&second.levels[0], &third.levels[0]));
        assert_eq!(third.seq(), 3);
        assert_eq!(third.applied_events(), 1);
    }

    #[test]
    fn a_repair_copies_only_the_chunks_it_dirtied() {
        // B(2,16): 16 chunks. Killing one necklace dirties the chunks of
        // its rotations and of the cones around them, not every chunk.
        let ffc = Ffc::new(2, 16);
        let mut maint = RingMaintainer::new();
        maint.reset(&ffc, &[]).expect("reset");
        let mut publisher = SnapshotPublisher::new();
        let before = maint.publish(&mut publisher, 0).expect("publish");
        let full = publisher.copied_chunks();
        assert_eq!(full, 3 * 16);
        maint.add_fault(&ffc, 12_345).expect("repair");
        let after = maint.publish(&mut publisher, 1).expect("publish");
        let copied = publisher.copied_chunks() - full;
        assert!(copied > 0 && copied < full, "copied {copied} of {full}");
        let shared_succ = (0..16)
            .filter(|&c| Arc::ptr_eq(&before.succ[c], &after.succ[c]))
            .count();
        assert!(shared_succ > 0, "some successor chunk must be shared");
        // Every shared or copied chunk reads like a fresh publication.
        let mut fresh = RingMaintainer::new();
        fresh.reset(&ffc, &[12_345]).expect("reset");
        let want = fresh
            .publish(&mut SnapshotPublisher::new(), 1)
            .expect("publish");
        for v in 0..after.n_nodes() {
            assert_eq!(after.contains(v), want.contains(v), "node {v}");
            assert_eq!(after.successor(v), want.successor(v), "node {v}");
            assert_eq!(
                after.broadcast_level(v),
                want.broadcast_level(v),
                "node {v}"
            );
        }
    }

    #[test]
    fn snapshot_broadcast_levels_match_membership_and_root() {
        let (ffc, mut maint, mut publisher) = service_pair();
        maint
            .apply_batch(&ffc, &[FaultEvent::NodeDown(3), FaultEvent::NodeDown(17)])
            .expect("repair");
        let snap = maint.publish(&mut publisher, 2).expect("publish");
        let root = snap.root().expect("feasible");
        assert_eq!(snap.broadcast_level(root), Ok(Some(0)));
        for v in 0..snap.n_nodes() {
            let lvl = snap.broadcast_level(v).expect("in range");
            // Level reach and ring membership agree on B* exactly.
            assert_eq!(
                lvl.is_some(),
                snap.contains(v).expect("in range"),
                "node {v}"
            );
        }
        let n = snap.n_nodes();
        assert_eq!(
            snap.broadcast_level(n),
            Err(LookupError::NodeOutOfRange {
                node: n,
                n_nodes: n
            })
        );
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
