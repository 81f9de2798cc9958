//! Bit-parallel reachability over the implicit shift arithmetic of B(d,n).
//!
//! The FFC engine's hot loops are three BFS passes (forward, backward,
//! broadcast) over a de Bruijn graph with some necklaces removed. For a
//! power-of-two alphabet the successor set of a *set* of nodes is pure
//! word arithmetic on its bitmap: node `v`'s successors are the aligned
//! block `d·(v mod d^(n−1)) + a`, so
//!
//! * the image of a frontier `F` under one BFS step is
//!   `expand_d(fold_d(F))`, where `fold_d` ORs the `d` equal chunks of `F`
//!   (erasing the leading digit) and `expand_d` duplicates every bit into
//!   `d` adjacent positions (appending every trailing digit) — 64 nodes
//!   per handful of shift/mask ops, branch-free;
//! * the preimage is the mirror image, `replicate_d(squash_d(F))`, where
//!   `squash_d` ORs each aligned `d`-bit group into one bit and the result
//!   is replicated across the `d` chunks of the address space.
//!
//! [`BitReach`] packages those kernels behind direction-optimizing BFS
//! passes: while the frontier is sparse a scalar top-down walk over a
//! queue wins (it touches only live edges); once the frontier passes a
//! density threshold the pass switches to the word-parallel bottom-up
//! sweep, where dead nodes are masked out by a single AND per 64 nodes
//! against the word-packed visited set (faulty necklaces are pre-marked
//! visited, exactly like the u8-stamp engine it replaces). A
//! [`BitFrontier`] carries the frontier in whichever representation the
//! current regime wants and converts between them at level boundaries.
//!
//! Non-power-of-two alphabets (and graphs too small to fill whole words)
//! keep the scalar top-down walk throughout — same results, no dense
//! sweeps — so every (d, n) runs through one code path with one set of
//! buffers ([`BitScratch`], embedded in the engine's `EmbedScratch`).
//!
//! # The fused dense kernel
//!
//! A dense level used to run as two phases over two buffers: a fold pass
//! that materialised `fold_d(F)` (or `squash_d(F)`) into a scratch word
//! array, then an expand pass that re-read it, masked against visited and
//! wrote the next frontier. Both phases are memory-bound, so the round
//! trip through the fold buffer cost a full extra sweep of traffic. The
//! kernels are now **fused**: one pass walks the frontier in word tiles
//! and, per tile, performs fold, `spread2`/`squash2` expand, the
//! visited-set mask-and-update and the next-frontier store back to back —
//! the `d = 2` hot shape additionally processes four suffix words (eight
//! output words) per unrolled iteration so the independent word lanes
//! autovectorize. The two-phase kernel it replaced lives on as the oracle
//! [`crate::oracle::kernel_step_scalar`], and [`BitReach::kernel_step_fused`]
//! exposes the fused one; the unit tests pin them bit-for-bit against each
//! other and `bench_ffc --kernels` tracks the words/sec ratio.
//!
//! # Hierarchical summaries and compact levels (PR 10)
//!
//! Every frontier/visited-class bitmap carries a **one-bit-per-word
//! summary** (one summary word per 64-word / 4096-node block): summary
//! bit `j` set ⟺ `bits[j]` may be non-zero, with the invariant
//! *occupied ⊆ marked* — a false positive costs one wasted word probe, a
//! false negative would drop nodes and is never produced. The fused
//! kernels maintain the summaries in-flight for near-zero cost (a tile
//! that produced new bits ORs a precomputed block mask), so the
//! dense→sparse switch, the dense level emission and fault-set
//! iteration become two-level skip-scans ([`extract_bits_skip`]) that
//! touch only occupied blocks — the win grows with the node space, which
//! is what lets the B(2,22)/B(2,24) tiers stream early and late BFS
//! phases without full-array sweeps. Per-node level arrays use the
//! compact one-byte [`LevelVec`] (levels are diameter-bounded, with an
//! escape table for the transient deeper ones) behind the [`LevelStore`]
//! trait, so the delta passes
//! ([`BitReach::levels_delete`] / [`BitReach::levels_insert`]) run one
//! monomorphised algorithm over both the compact array and the `u32`
//! differential oracle.
//!
//! One embedding runs these passes serially on its caller's thread. They
//! are memory-bound, so splitting one BFS across cores adds per-level
//! barriers without adding bandwidth; the engine's parallelism is across
//! independent embeddings instead (`crate::sweep`).

use crate::mem::{grow_to, reserve_more};
pub use crate::mem::{LevelStore, LevelVec, UNREACHED, UNREACHED_U8};

/// The engine indexes nodes with `u32` (queues, CSR offsets, frontier
/// ids): a space whose node count exceeds [`u32::MAX`] cannot be
/// represented. Returned by [`BitReach::try_new`] (and re-used by
/// `Ffc::try_new`) instead of silently truncating ids in release builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceTooLarge {
    /// The node count that overflowed the u32 id space, when it is itself
    /// representable in a u64 (`None` when even d^n overflowed u64).
    pub n_nodes: Option<u64>,
}

impl std::fmt::Display for SpaceTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.n_nodes {
            Some(n) => write!(
                f,
                "graph has {n} nodes, but the engine indexes nodes with u32 (max {})",
                u32::MAX
            ),
            None => write!(f, "graph node count d^n overflows u64"),
        }
    }
}

impl std::error::Error for SpaceTooLarge {}

/// Spreads the low 32 bits of `x` so that bit `i` lands on bits `2i` and
/// `2i+1` — the factor-two bit expansion of the forward sweep.
#[inline]
#[must_use]
pub fn spread2(x: u64) -> u64 {
    debug_assert!(x <= u64::from(u32::MAX));
    let mut x = x;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x | (x << 1)
}

/// ORs each adjacent bit pair of `x` into one bit of the low 32 —
/// the factor-two compression of the backward sweep (inverse direction of
/// [`spread2`]): output bit `i` is `x[2i] | x[2i+1]`.
#[inline]
#[must_use]
pub fn squash2(x: u64) -> u64 {
    let mut x = (x | (x >> 1)) & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF
}

/// When the dense (bottom-up) regime is allowed to kick in. `Auto` is the
/// production policy; `Never`/`Always` pin one regime so the differential
/// tests can compare them bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DensePolicy {
    /// Direction-optimizing: top-down while sparse, bottom-up once the
    /// frontier carries at least one edge per [`DENSE_SWITCH`] nodes.
    #[default]
    Auto,
    /// Scalar top-down only (also what unsupported shapes always do).
    Never,
    /// Bottom-up from the first level, when the shape supports it.
    Always,
}

/// Auto switches **to** the dense regime when `frontier · d · DENSE_SWITCH
/// ≥ n_nodes` — one frontier edge per 64 nodes, the break-even between a
/// scalar walk of the frontier's edges and a whole-bitmap sweep.
pub const DENSE_SWITCH: usize = 64;

/// Auto switches **back** to top-down when `frontier · d · SPARSE_SWITCH <
/// n_nodes` (4× hysteresis below [`DENSE_SWITCH`]), so the shrinking tail
/// of a pass doesn't pay full sweeps for near-empty levels.
pub const SPARSE_SWITCH: usize = 256;

/// A BFS frontier in either representation: a queue of node ids (sparse /
/// top-down) or a word-packed bitmap (dense / bottom-up). Both buffers
/// persist so conversions and reuse never allocate after warm-up.
#[derive(Clone, Debug, Default)]
pub struct BitFrontier {
    queue: Vec<u32>,
    bits: Vec<u64>,
    /// Hierarchical summary of `bits`: summary bit `j` covers word
    /// `bits[j]`, so one summary *word* covers a 64-word (4096-node)
    /// block. Invariant while dense: `bits[j] != 0 ⇒ sum bit j set`
    /// (occupied ⊆ marked — false positives allowed, never negatives).
    sum: Vec<u64>,
    dense: bool,
    len: usize,
}

impl BitFrontier {
    /// Number of nodes on the frontier.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the frontier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the frontier currently lives in the dense bitmap.
    #[must_use]
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// Resets to a single-node sparse frontier.
    fn reset_to(&mut self, root: u32) {
        self.queue.clear();
        self.queue.push(root);
        self.dense = false;
        self.len = 1;
    }

    /// Converts sparse → dense (zeroes the live words, then sets the
    /// queued bits and their summary bits).
    fn make_dense(&mut self, words: usize) {
        debug_assert!(!self.dense);
        self.bits[..words].fill(0);
        self.sum[..sum_words(words)].fill(0);
        for &v in &self.queue {
            self.bits[v as usize / 64] |= 1u64 << (v % 64);
            self.sum[v as usize >> 12] |= 1u64 << ((v as usize >> 6) & 63);
        }
        self.dense = true;
    }

    /// Converts dense → sparse. A skip-scan over the summary visits
    /// occupied words only, extracting ids in increasing order.
    fn make_sparse(&mut self, words: usize) {
        debug_assert!(self.dense);
        self.queue.clear();
        extract_bits_skip(
            &self.bits[..words],
            &self.sum[..sum_words(words)],
            &mut self.queue,
        );
        self.dense = false;
    }
}

/// Per-level node emission of [`BitReach::broadcast_levels`]: `nodes` gets
/// every reached node, `offsets` the CSR boundaries of the levels
/// (`offsets[l]..offsets[l+1]` indexes level `l`'s slice of `nodes`).
struct LevelSink<'a> {
    nodes: &'a mut Vec<u32>,
    offsets: &'a mut Vec<u32>,
}

/// The reusable buffers of the bit-parallel engine: the per-call fault
/// bitmap, the three visited sets and the two frontiers (the fused dense
/// kernels need no fold scratch). Grow-only; after the first call at a
/// given graph size no method allocates.
#[derive(Clone, Debug, Default)]
pub struct BitScratch {
    /// Bit `v` set ⟺ node `v` was removed with a faulty necklace.
    dead: Vec<u64>,
    /// Summary of `dead` (bit `j` ⟺ `dead[j]` may be non-zero), kept by
    /// [`BitReach::kill`] so [`BitReach::prepare`] can skip-clear only
    /// the occupied words — fault masks are extremely sparse (f ≪ d−1
    /// necklaces) while the bitmap spans the whole node space.
    dead_sum: Vec<u64>,
    /// Word count `dead`/`dead_sum` were last prepared at; a shape change
    /// falls back to a full clear.
    dead_words: usize,
    /// Forward-reachable visited set (dead bits pre-set).
    fwd: Vec<u64>,
    /// Backward-reachable visited set (dead bits pre-set).
    bwd: Vec<u64>,
    /// Broadcast visited set (everything outside B* pre-set).
    vis: Vec<u64>,
    /// Current-level frontier.
    cur: BitFrontier,
    /// Next-level frontier.
    nxt: BitFrontier,
}

impl BitScratch {
    /// Creates an empty scratch; buffers are sized by the first pass.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently reserved by the scratch's buffers — constant
    /// across repeated passes at a fixed graph size (the no-allocation
    /// property the engine tests pin down).
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        8 * (self.dead.capacity()
            + self.dead_sum.capacity()
            + self.fwd.capacity()
            + self.bwd.capacity()
            + self.vis.capacity()
            + self.cur.bits.capacity()
            + self.cur.sum.capacity()
            + self.nxt.bits.capacity()
            + self.nxt.sum.capacity())
            + 4 * (self.cur.queue.capacity() + self.nxt.queue.capacity())
    }
}

/// Stack-tile width (in `u64` words) of the fused dense kernel's
/// backward path: folds are blocked into a `[u64; FUSE_TILE]` register
/// /L1 buffer so each replication stride sweeps a contiguous run. 32
/// words = 256 bytes per tile — four cache lines, far below any L1.
const FUSE_TILE: usize = 32;

/// The bit-parallel reachability engine for one B(d,n) shape: word-level
/// constants plus the three direction-optimizing passes the FFC embedding
/// runs (forward, backward, broadcast).
#[derive(Clone, Copy, Debug)]
pub struct BitReach {
    pub(crate) d: usize,
    n_nodes: usize,
    /// d^(n−1) — the chunk size of the fold/replicate direction.
    suffix: usize,
    /// Live words of every bitmap (`ceil(n_nodes / 64)`).
    words: usize,
    /// `suffix / 64` — fold-buffer words (0 when dense sweeps are off).
    pub(crate) suffix_words: usize,
    /// log2 d (meaningful only when `pow2`).
    d_log: u32,
    /// log2 d^(n−1) (meaningful only when `pow2`).
    suffix_log: u32,
    /// Power-of-two d: scalar walks use masks/shifts instead of divisions.
    pow2: bool,
    /// Dense sweeps available: pow2, d ≤ 64, chunks word-aligned.
    pub(crate) dense_capable: bool,
    policy: DensePolicy,
}

impl BitReach {
    /// The engine for B(d,n) given `d` and `n_nodes = d^n`, with the
    /// production [`DensePolicy::Auto`].
    ///
    /// # Panics
    /// Panics if the node ids do not fit the engine's u32 indexing
    /// ([`BitReach::try_new`] is the non-panicking variant).
    #[must_use]
    pub fn new(d: usize, n_nodes: usize) -> Self {
        Self::with_policy(d, n_nodes, DensePolicy::Auto)
    }

    /// [`BitReach::new`], rejecting spaces whose node ids overflow the
    /// engine's u32 indexing with a typed error instead of panicking.
    ///
    /// # Errors
    /// Returns [`SpaceTooLarge`] when `n_nodes > u32::MAX` — in release
    /// builds the queue and CSR stores would otherwise silently truncate
    /// ids (`v as u32`).
    pub fn try_new(d: usize, n_nodes: usize) -> Result<Self, SpaceTooLarge> {
        Self::try_with_policy(d, n_nodes, DensePolicy::Auto)
    }

    /// [`BitReach::try_new`] with an explicit density policy.
    ///
    /// # Errors
    /// Returns [`SpaceTooLarge`] when `n_nodes` exceeds [`u32::MAX`].
    ///
    /// # Panics
    /// Panics if `n_nodes` is not `d` times a whole suffix count.
    pub fn try_with_policy(
        d: usize,
        n_nodes: usize,
        policy: DensePolicy,
    ) -> Result<Self, SpaceTooLarge> {
        if u32::try_from(n_nodes).is_err() {
            return Err(SpaceTooLarge {
                n_nodes: Some(n_nodes as u64),
            });
        }
        Ok(Self::with_policy(d, n_nodes, policy))
    }

    /// [`BitReach::new`] with an explicit density policy (the differential
    /// tests pin `Never == Auto == Always`).
    ///
    /// # Panics
    /// Panics if `n_nodes` is not `d` times a whole suffix count, or if
    /// the node ids do not fit the engine's u32 indexing.
    #[must_use]
    pub fn with_policy(d: usize, n_nodes: usize, policy: DensePolicy) -> Self {
        assert!(d >= 2, "alphabet size d must be at least 2");
        assert_eq!(n_nodes % d, 0, "n_nodes must be d^n");
        assert!(
            u32::try_from(n_nodes).is_ok(),
            "the engine indexes nodes with u32; {n_nodes} nodes is too large \
             (use BitReach::try_new to handle this without panicking)"
        );
        let suffix = n_nodes / d;
        let pow2 = d.is_power_of_two() && suffix.is_power_of_two();
        let dense_capable = pow2 && d <= 64 && suffix.is_multiple_of(64);
        BitReach {
            d,
            n_nodes,
            suffix,
            words: n_nodes.div_ceil(64),
            suffix_words: if dense_capable { suffix / 64 } else { 0 },
            d_log: d.trailing_zeros(),
            suffix_log: suffix.trailing_zeros(),
            pow2,
            dense_capable,
            policy,
        }
    }

    /// Whether this shape can run the word-parallel bottom-up sweeps.
    #[must_use]
    pub fn dense_capable(&self) -> bool {
        self.dense_capable
    }

    /// Grows the scratch to this shape and clears the fault bitmap; call
    /// once per embedding before [`BitReach::kill`]ing the faulty nodes.
    pub fn prepare(&self, s: &mut BitScratch) {
        let sw = sum_words(self.words);
        grow_to(&mut s.dead, self.words, 0);
        grow_to(&mut s.dead_sum, sw, 0);
        grow_to(&mut s.fwd, self.words, 0);
        grow_to(&mut s.bwd, self.words, 0);
        grow_to(&mut s.vis, self.words, 0);
        grow_to(&mut s.cur.bits, self.words, 0);
        grow_to(&mut s.cur.sum, sw, 0);
        grow_to(&mut s.nxt.bits, self.words, 0);
        grow_to(&mut s.nxt.sum, sw, 0);
        // A level can hold every node; presize so pushes never reallocate.
        reserve_more(&mut s.cur.queue, self.n_nodes);
        reserve_more(&mut s.nxt.queue, self.n_nodes);
        if s.dead_words == self.words {
            // Skip-clear: only the words a previous kill dirtied. Fault
            // masks carry a handful of necklaces, so this replaces an
            // O(words) sweep with O(faulty words) on the repeat-call path
            // (sweeps, churn, serve all re-prepare per embedding).
            for (sj, sword) in s.dead_sum[..sw].iter_mut().enumerate() {
                let mut w = std::mem::take(sword);
                while w != 0 {
                    let j = sj * 64 + w.trailing_zeros() as usize;
                    s.dead[j] = 0;
                    w &= w - 1;
                }
            }
        } else {
            s.dead[..self.words].fill(0);
            s.dead_sum[..sw].fill(0);
            s.dead_words = self.words;
        }
        debug_assert!(s.dead[..self.words].iter().all(|&w| w == 0));
    }

    /// Marks node `v` dead (member of a faulty necklace).
    #[inline]
    pub fn kill(&self, s: &mut BitScratch, v: usize) {
        debug_assert!(v < self.n_nodes);
        s.dead[v / 64] |= 1u64 << (v % 64);
        s.dead_sum[v >> 12] |= 1u64 << ((v >> 6) & 63);
    }

    /// Whether node `v` was marked dead this call.
    #[inline]
    #[must_use]
    pub fn is_dead(&self, s: &BitScratch, v: usize) -> bool {
        s.dead[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Whether `v` lies in B* — forward- and backward-reachable and live.
    /// Valid after [`BitReach::forward`] and [`BitReach::backward`].
    #[inline]
    #[must_use]
    pub fn in_bstar(&self, s: &BitScratch, v: usize) -> bool {
        let (j, m) = (v / 64, 1u64 << (v % 64));
        s.fwd[j] & s.bwd[j] & !s.dead[j] & m != 0
    }

    /// Forward BFS from `root` over live nodes. Returns `(reached, depth)`
    /// where `reached` counts live forward-reachable nodes including the
    /// root and `depth` is the last level with a new node — the broadcast
    /// eccentricity whenever B* turns out to equal the forward set.
    pub fn forward(&self, s: &mut BitScratch, root: usize) -> (usize, usize) {
        let BitScratch {
            dead,
            fwd,
            cur,
            nxt,
            ..
        } = s;
        fwd[..self.words].copy_from_slice(&dead[..self.words]);
        if self.pow2 {
            self.run::<true, false>(fwd, cur, nxt, root, None)
        } else {
            self.run::<false, false>(fwd, cur, nxt, root, None)
        }
    }

    /// Backward BFS from `root` over live nodes (visited set left in the
    /// scratch for [`BitReach::component_size`] / [`BitReach::in_bstar`]).
    pub fn backward(&self, s: &mut BitScratch, root: usize) {
        let BitScratch {
            dead,
            bwd,
            cur,
            nxt,
            ..
        } = s;
        bwd[..self.words].copy_from_slice(&dead[..self.words]);
        if self.pow2 {
            self.run::<true, true>(bwd, cur, nxt, root, None);
        } else {
            self.run::<false, true>(bwd, cur, nxt, root, None);
        }
    }

    /// |B*| after the two passes: the popcount of `fwd ∧ bwd` minus the
    /// `removed_nodes` dead bits (dead nodes are pre-visited in both sets).
    #[must_use]
    pub fn component_size(&self, s: &BitScratch, removed_nodes: usize) -> usize {
        let both: usize = s.fwd[..self.words]
            .iter()
            .zip(&s.bwd[..self.words])
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum();
        both - removed_nodes
    }

    /// The broadcast restricted to B*, levels only: returns the
    /// eccentricity of `root` within B*. Requires the forward and backward
    /// passes to have run.
    pub fn broadcast_depth(&self, s: &mut BitScratch, root: usize) -> usize {
        self.broadcast(s, root, None).1
    }

    /// The broadcast restricted to B*, emitting every reached node level
    /// by level: `nodes` receives the nodes (cleared first), `offsets` the
    /// CSR level boundaries (`offsets[l]..offsets[l+1]` is level `l`;
    /// `offsets.len()` ends up `depth + 2`). Returns `(reached, depth)`.
    /// The within-level order is unspecified (discovery order top-down,
    /// increasing id bottom-up) — callers must not depend on it.
    pub fn broadcast_levels(
        &self,
        s: &mut BitScratch,
        root: usize,
        nodes: &mut Vec<u32>,
        offsets: &mut Vec<u32>,
    ) -> (usize, usize) {
        nodes.clear();
        offsets.clear();
        self.broadcast(s, root, Some(LevelSink { nodes, offsets }))
    }

    /// Shared broadcast setup: visited starts as "outside B* or dead".
    fn broadcast(
        &self,
        s: &mut BitScratch,
        root: usize,
        sink: Option<LevelSink<'_>>,
    ) -> (usize, usize) {
        let BitScratch {
            dead,
            fwd,
            bwd,
            vis,
            cur,
            nxt,
            ..
        } = s;
        for (((v, &f), &b), &x) in vis[..self.words]
            .iter_mut()
            .zip(&fwd[..self.words])
            .zip(&bwd[..self.words])
            .zip(&dead[..self.words])
        {
            *v = !(f & b) | x;
        }
        if self.pow2 {
            self.run::<true, false>(vis, cur, nxt, root, sink)
        } else {
            self.run::<false, false>(vis, cur, nxt, root, sink)
        }
    }

    /// [`BitReach::broadcast_levels`] fused with the B* mask: one
    /// chunk-streamed pass over (fwd, bwd, dead, vis) writes the B*
    /// membership words (`fwd ∧ bwd ∧ ¬dead`) into `bstar`, counts |B*|
    /// and initialises the broadcast visited set to the complement —
    /// replacing the separate vis-init sweep, B*-bitmap sweep and
    /// popcount the session's rebuild used to run back-to-back over the
    /// full arrays. Returns `(bstar_count, reached, depth)`; the level
    /// emission is unchanged.
    pub fn broadcast_levels_bstar(
        &self,
        s: &mut BitScratch,
        root: usize,
        nodes: &mut Vec<u32>,
        offsets: &mut Vec<u32>,
        bstar: &mut [u64],
    ) -> (usize, usize, usize) {
        let count = self.bstar_init(s, bstar);
        let BitScratch { vis, cur, nxt, .. } = s;
        nodes.clear();
        offsets.clear();
        let sink = Some(LevelSink { nodes, offsets });
        let (reached, depth) = if self.pow2 {
            self.run::<true, false>(vis, cur, nxt, root, sink)
        } else {
            self.run::<false, false>(vis, cur, nxt, root, sink)
        };
        (count, reached, depth)
    }

    /// The fused chunk-streamed broadcast initialisation: per
    /// [`FUSE_TILE`]-word chunk, the four bitmaps are read/written
    /// together while resident, producing the B* mask, its popcount and
    /// the seeded visited set in a single memory pass.
    fn bstar_init(&self, s: &mut BitScratch, bstar: &mut [u64]) -> usize {
        let BitScratch {
            dead,
            fwd,
            bwd,
            vis,
            ..
        } = s;
        let mut count = 0usize;
        let mut j = 0usize;
        while j < self.words {
            let len = (self.words - j).min(FUSE_TILE);
            for k in j..j + len {
                let m = fwd[k] & bwd[k] & !dead[k];
                bstar[k] = m;
                vis[k] = !m;
                count += m.count_ones() as usize;
            }
            j += len;
        }
        count
    }

    /// One direction-optimizing BFS pass over `vis` (bits already set are
    /// never re-entered; the caller pre-sets dead / out-of-scope bits).
    /// Returns `(newly visited count incl. root, depth)`.
    fn run<const POW2: bool, const BACKWARD: bool>(
        &self,
        vis: &mut [u64],
        cur: &mut BitFrontier,
        nxt: &mut BitFrontier,
        root: usize,
        mut sink: Option<LevelSink<'_>>,
    ) -> (usize, usize) {
        debug_assert!(root < self.n_nodes, "root out of range");
        debug_assert!(vis[root / 64] & (1 << (root % 64)) == 0, "root not live");
        vis[root / 64] |= 1 << (root % 64);
        cur.reset_to(root as u32);
        if self.want_dense(cur.len, false) {
            cur.make_dense(self.words);
        }
        if let Some(sink) = sink.as_mut() {
            sink.offsets.push(0);
            sink.nodes.push(root as u32);
        }
        let mut count = 1usize;
        let mut depth = 0usize;
        loop {
            if cur.dense {
                self.step_dense::<BACKWARD>(vis, cur, nxt);
            } else {
                self.step_sparse::<POW2, BACKWARD>(vis, cur, nxt);
            }
            if nxt.len == 0 {
                break;
            }
            count += nxt.len;
            depth += 1;
            if let Some(sink) = sink.as_mut() {
                if nxt.dense {
                    emit_bits_sum(
                        sink,
                        &nxt.bits[..self.words],
                        &nxt.sum[..sum_words(self.words)],
                    );
                } else {
                    emit_queue(sink, &nxt.queue);
                }
            }
            // Pick the representation for the next expansion.
            let dense = self.want_dense(nxt.len, nxt.dense);
            if nxt.dense && !dense {
                nxt.make_sparse(self.words);
            } else if !nxt.dense && dense {
                nxt.make_dense(self.words);
            }
            std::mem::swap(cur, nxt);
        }
        if let Some(sink) = sink.as_mut() {
            sink.offsets.push(sink.nodes.len() as u32);
        }
        (count, depth)
    }

    /// Whether a frontier of `len` nodes should expand bottom-up. Under
    /// `Auto` the up- and down-switches use different thresholds
    /// ([`DENSE_SWITCH`] / [`SPARSE_SWITCH`]) so a frontier hovering at
    /// the boundary doesn't pay a conversion per level.
    fn want_dense(&self, len: usize, currently_dense: bool) -> bool {
        self.dense_capable
            && match self.policy {
                DensePolicy::Never => false,
                DensePolicy::Always => true,
                DensePolicy::Auto => {
                    let scale = if currently_dense {
                        SPARSE_SWITCH
                    } else {
                        DENSE_SWITCH
                    };
                    len * self.d * scale >= self.n_nodes
                }
            }
    }

    /// Scalar top-down step: walk the queue's edges, test-and-set bits.
    fn step_sparse<const POW2: bool, const BACKWARD: bool>(
        &self,
        vis: &mut [u64],
        cur: &BitFrontier,
        nxt: &mut BitFrontier,
    ) {
        debug_assert!(!cur.dense);
        nxt.queue.clear();
        for &v in &cur.queue {
            let v = v as usize;
            for a in 0..self.d {
                let u = if BACKWARD {
                    let base = if POW2 { v >> self.d_log } else { v / self.d };
                    base + if POW2 {
                        a << self.suffix_log
                    } else {
                        a * self.suffix
                    }
                } else {
                    let base = if POW2 {
                        (v & (self.suffix - 1)) << self.d_log
                    } else {
                        (v % self.suffix) * self.d
                    };
                    base + a
                };
                let (j, m) = (u / 64, 1u64 << (u % 64));
                if vis[j] & m == 0 {
                    vis[j] |= m;
                    nxt.queue.push(u as u32);
                }
            }
        }
        nxt.dense = false;
        nxt.len = nxt.queue.len();
    }

    /// Word-parallel bottom-up step: one fused pass of fold, expand (or
    /// squash/replicate), visited mask-and-update and next-frontier store
    /// — 64 nodes per handful of word ops, no fold scratch.
    fn step_dense<const BACKWARD: bool>(
        &self,
        vis: &mut [u64],
        cur: &BitFrontier,
        nxt: &mut BitFrontier,
    ) {
        debug_assert!(cur.dense && self.dense_capable);
        nxt.sum[..sum_words(self.words)].fill(0);
        nxt.len = self.fused_words::<BACKWARD, true>(&cur.bits, vis, &mut nxt.bits, &mut nxt.sum);
        nxt.dense = true;
    }

    /// One fused 2i-wide output tile of the d = 2 forward kernel: folds
    /// suffix word `i` over both leading digits, spreads each half into
    /// an output word, masks against visited and stores the frontier —
    /// all in registers, so the unrolled caller's four independent tiles
    /// autovectorize.
    #[inline(always)]
    fn fused2_fwd<const SUM: bool>(
        i: usize,
        sw: usize,
        cur: &[u64],
        vis: &mut [u64],
        nxt: &mut [u64],
        sum: &mut [u64],
    ) -> usize {
        let g = cur[i] | cur[sw + i];
        let w0 = spread2(g & 0xFFFF_FFFF) & !vis[2 * i];
        let w1 = spread2(g >> 32) & !vis[2 * i + 1];
        vis[2 * i] |= w0;
        vis[2 * i + 1] |= w1;
        nxt[2 * i] = w0;
        nxt[2 * i + 1] = w1;
        if SUM {
            // Words 2i and 2i+1 always share a summary word (2i is even).
            sum[(2 * i) >> 6] |=
                (u64::from(w0 != 0) << ((2 * i) & 63)) | (u64::from(w1 != 0) << ((2 * i + 1) & 63));
        }
        (w0.count_ones() + w1.count_ones()) as usize
    }

    /// The fused dense kernel over exactly `self.words` words of each
    /// buffer: per suffix word, fold (forward) or squash (backward) the
    /// frontier, expand/replicate, mask against `vis`, update `vis` and
    /// store the new frontier into `nxt` — one pass, no fold buffer.
    /// Word-for-word identical output to the two-phase reference kernel
    /// ([`crate::oracle::kernel_step_scalar`]); returns the
    /// newly visited node count. The hot d = 2 shape runs a 4-wide
    /// unrolled tile (eight output words per iteration). With `SUM` the
    /// kernel also maintains `sum`, the hierarchical summary of `nxt`
    /// (bit `j` ⟺ `nxt[j] != 0`), marking blocks as it streams each
    /// tile — the summary rides the tile already in registers/L1, so the
    /// downstream skip-scans come at near-zero kernel cost. With `SUM =
    /// false` (the raced public kernel) the summary code compiles out.
    fn fused_words<const BACKWARD: bool, const SUM: bool>(
        &self,
        cur: &[u64],
        vis: &mut [u64],
        nxt: &mut [u64],
        sum: &mut [u64],
    ) -> usize {
        debug_assert!(self.dense_capable);
        let sw = self.suffix_words;
        let mut newly = 0usize;
        if self.d == 2 {
            let mut i = 0usize;
            if BACKWARD {
                // Cache-blocked squash-then-replicate: fold a tile of
                // suffix words into a stack buffer, then sweep each
                // replication stride as one contiguous run. The fold
                // never touches the heap and both sweeps autovectorize.
                while i < sw {
                    let len = (sw - i).min(FUSE_TILE);
                    let mut h = [0u64; FUSE_TILE];
                    for (k, hk) in h[..len].iter_mut().enumerate() {
                        let b = 2 * (i + k);
                        *hk = squash2(cur[b]) | (squash2(cur[b + 1]) << 32);
                    }
                    for base in [i, sw + i] {
                        let vw = &mut vis[base..base + len];
                        let nw = &mut nxt[base..base + len];
                        let before = newly;
                        for ((vj, nj), &hk) in vw.iter_mut().zip(nw.iter_mut()).zip(h[..len].iter())
                        {
                            let new = hk & !*vj;
                            *vj |= new;
                            *nj = new;
                            newly += new.count_ones() as usize;
                        }
                        if SUM && newly != before {
                            mark_sum_range(sum, base, len);
                        }
                    }
                    i += len;
                }
            } else {
                while i + 4 <= sw {
                    newly += Self::fused2_fwd::<SUM>(i, sw, cur, vis, nxt, sum);
                    newly += Self::fused2_fwd::<SUM>(i + 1, sw, cur, vis, nxt, sum);
                    newly += Self::fused2_fwd::<SUM>(i + 2, sw, cur, vis, nxt, sum);
                    newly += Self::fused2_fwd::<SUM>(i + 3, sw, cur, vis, nxt, sum);
                    i += 4;
                }
                while i < sw {
                    newly += Self::fused2_fwd::<SUM>(i, sw, cur, vis, nxt, sum);
                    i += 1;
                }
            }
            return newly;
        }
        let d = self.d;
        let bits_per = 64 / d;
        let chunk_mask = if bits_per == 64 {
            u64::MAX
        } else {
            (1u64 << bits_per) - 1
        };
        if BACKWARD {
            // H = OR of the d-bit successor blocks of suffix word i: u is
            // a predecessor of the frontier iff H[u mod suffix] is set;
            // predecessor word i + a·sw replicates H for every digit a.
            // Cache-blocked like the d = 2 path: fold a stack tile, then
            // sweep each replication stride as one contiguous run.
            let mut i = 0usize;
            while i < sw {
                let len = (sw - i).min(FUSE_TILE);
                let mut h = [0u64; FUSE_TILE];
                for (k, hk) in h[..len].iter_mut().enumerate() {
                    let mut acc = 0u64;
                    for t in 0..d {
                        acc |= self.squash(cur[d * (i + k) + t]) << (t * bits_per);
                    }
                    *hk = acc;
                }
                for a in 0..d {
                    let base = i + a * sw;
                    let vw = &mut vis[base..base + len];
                    let nw = &mut nxt[base..base + len];
                    let before = newly;
                    for ((vj, nj), &hk) in vw.iter_mut().zip(nw.iter_mut()).zip(h[..len].iter()) {
                        let new = hk & !*vj;
                        *vj |= new;
                        *nj = new;
                        newly += new.count_ones() as usize;
                    }
                    if SUM && newly != before {
                        mark_sum_range(sum, base, len);
                    }
                }
                i += len;
            }
        } else {
            // G = OR over leading digits; successor word d·i + r expands
            // the r-th chunk of G. Tiled four suffix words at a time so
            // the fold reads four contiguous words per stride and the
            // expands write 4·d contiguous words.
            let mut i = 0usize;
            while i + 4 <= sw {
                let mut g = [0u64; 4];
                for a in 0..d {
                    let base = i + a * sw;
                    for (k, gk) in g.iter_mut().enumerate() {
                        *gk |= cur[base + k];
                    }
                }
                let before = newly;
                for (k, &gk) in g.iter().enumerate() {
                    for r in 0..d {
                        let j = d * (i + k) + r;
                        let new = self.expand((gk >> (r * bits_per)) & chunk_mask) & !vis[j];
                        vis[j] |= new;
                        nxt[j] = new;
                        newly += new.count_ones() as usize;
                    }
                }
                if SUM && newly != before {
                    mark_sum_range(sum, d * i, 4 * d);
                }
                i += 4;
            }
            while i < sw {
                let mut g = 0u64;
                for a in 0..d {
                    g |= cur[i + a * sw];
                }
                let before = newly;
                for r in 0..d {
                    let j = d * i + r;
                    let new = self.expand((g >> (r * bits_per)) & chunk_mask) & !vis[j];
                    vis[j] |= new;
                    nxt[j] = new;
                    newly += new.count_ones() as usize;
                }
                if SUM && newly != before {
                    mark_sum_range(sum, d * i, d);
                }
                i += 1;
            }
        }
        newly
    }

    /// The fused single-pass dense step the engine runs — same contract
    /// as [`crate::oracle::kernel_step_scalar`] minus the fold buffer.
    ///
    /// # Panics
    /// Panics (in debug builds) if the shape is not dense-capable.
    pub fn kernel_step_fused(
        &self,
        backward: bool,
        cur: &[u64],
        vis: &mut [u64],
        nxt: &mut [u64],
    ) -> usize {
        // SUM = false: the raced reference entry point stays summary-free
        // so the ≥1.0 kernel gate measures the sweep alone.
        if backward {
            self.fused_words::<true, false>(cur, vis, nxt, &mut [])
        } else {
            self.fused_words::<false, false>(cur, vis, nxt, &mut [])
        }
    }

    /// Duplicates each of the low 64/d bits of `x` into d adjacent bits.
    #[inline]
    pub(crate) fn expand(&self, x: u64) -> u64 {
        let mut x = x;
        for _ in 0..self.d_log {
            x = spread2(x);
        }
        x
    }

    /// ORs each aligned d-bit group of `x` into one of the low 64/d bits.
    #[inline]
    pub(crate) fn squash(&self, x: u64) -> u64 {
        let mut x = x;
        for _ in 0..self.d_log {
            x = squash2(x);
        }
        x
    }
}

impl BitReach {
    /// [`BitReach::forward`] with per-level node emission: identical
    /// visited set, count and depth, but every reached node is also
    /// emitted level by level into `nodes`/`offsets` (the same CSR shape
    /// as [`BitReach::broadcast_levels`]). This is the pass the
    /// incremental engine's [`crate::ffc::RingMaintainer`] rebuilds its
    /// forward level array from.
    pub fn forward_levels(
        &self,
        s: &mut BitScratch,
        root: usize,
        nodes: &mut Vec<u32>,
        offsets: &mut Vec<u32>,
    ) -> (usize, usize) {
        let BitScratch {
            dead,
            fwd,
            cur,
            nxt,
            ..
        } = s;
        fwd[..self.words].copy_from_slice(&dead[..self.words]);
        nodes.clear();
        offsets.clear();
        let sink = Some(LevelSink { nodes, offsets });
        if self.pow2 {
            self.run::<true, false>(fwd, cur, nxt, root, sink)
        } else {
            self.run::<false, false>(fwd, cur, nxt, root, sink)
        }
    }

    /// [`BitReach::backward`] with per-level node emission (see
    /// [`BitReach::forward_levels`]); returns `(reached, depth)` of the
    /// backward pass.
    pub fn backward_levels(
        &self,
        s: &mut BitScratch,
        root: usize,
        nodes: &mut Vec<u32>,
        offsets: &mut Vec<u32>,
    ) -> (usize, usize) {
        let BitScratch {
            dead,
            bwd,
            cur,
            nxt,
            ..
        } = s;
        bwd[..self.words].copy_from_slice(&dead[..self.words]);
        nodes.clear();
        offsets.clear();
        let sink = Some(LevelSink { nodes, offsets });
        if self.pow2 {
            self.run::<true, true>(bwd, cur, nxt, root, sink)
        } else {
            self.run::<false, true>(bwd, cur, nxt, root, sink)
        }
    }
}

// ----------------------------------------------------------------------
// The delta level-repair passes (incremental reachability).
// ----------------------------------------------------------------------

/// Returned by the delta passes when a repair's queue work exceeds the
/// caller's budget — the signal that a from-scratch recompute is cheaper
/// than continuing the delta (the [`crate::ffc::RingMaintainer`] then
/// falls back to a full rebuild).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaBudgetExceeded {
    /// Queue pops performed before giving up.
    pub pops: usize,
}

impl std::fmt::Display for DeltaBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "delta level repair exceeded its work budget after {} queue pops",
            self.pops
        )
    }
}

impl std::error::Error for DeltaBudgetExceeded {}

/// Reusable state of the delta level-repair passes
/// ([`BitReach::levels_delete`] / [`BitReach::levels_insert`]): a
/// monotone two-level queue (during the drain every push lands exactly
/// one level above the level being processed, so a sorted seed list plus
/// a current/next ping-pong replaces a priority queue at O(1) per
/// operation), the changed-node log, and the deduplication stamps.
/// Grow-only; the queues are reserved to their worst case up front, so
/// repairs perform no heap allocation after warm-up at a fixed graph
/// size.
#[derive(Clone, Debug, Default)]
pub struct DeltaScratch {
    /// Seed entries as packed `level << 32 | node`, sorted ascending and
    /// merged into the drain level by level.
    seeds: Vec<u64>,
    /// Nodes pending at the level currently being drained.
    cur: Vec<u32>,
    /// Nodes pending one level up.
    nxt: Vec<u32>,
    /// The level each node is currently queued at (NONE-like
    /// [`UNREACHED`] = not queued) — dedups pushes and catches stale
    /// entries.
    pending: Vec<u32>,
    /// Nodes whose level changed in the most recent pass, in first-change
    /// order.
    changed: Vec<u32>,
    /// The pre-pass level of each changed node (parallel to `changed`;
    /// [`UNREACHED`] for nodes that entered the structure).
    old_levels: Vec<u32>,
    /// Per-node stamp marking "already logged this pass".
    changed_stamp: Vec<u32>,
    /// Monotone pass stamp for the log dedup.
    stamp: u32,
}

impl DeltaScratch {
    /// Creates an empty scratch; buffers are sized by the first pass.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The nodes whose level changed in the most recent pass (each node
    /// appears exactly once, in first-change order).
    #[must_use]
    pub fn changed_nodes(&self) -> &[u32] {
        &self.changed
    }

    /// The pre-pass levels of [`DeltaScratch::changed_nodes`], parallel to
    /// it ([`UNREACHED`] for nodes that entered the structure).
    #[must_use]
    pub fn old_levels(&self) -> &[u32] {
        &self.old_levels
    }

    /// `(node, pre-pass level)` pairs of the most recent pass.
    pub fn changed(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.changed
            .iter()
            .copied()
            .zip(self.old_levels.iter().copied())
    }

    /// Total bytes currently reserved by the scratch's buffers.
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        4 * (self.changed.capacity()
            + self.old_levels.capacity()
            + self.changed_stamp.capacity()
            + self.cur.capacity()
            + self.nxt.capacity()
            + self.pending.capacity())
            + 8 * self.seeds.capacity()
    }

    /// Starts a pass: advances the stamp, clears the log, and sizes the
    /// queues so the pass never reallocates.
    fn begin(&mut self, n_nodes: usize, seed_cap: usize) {
        if self.changed_stamp.len() < n_nodes {
            self.changed_stamp.resize(n_nodes, 0);
        }
        if self.pending.len() < n_nodes {
            self.pending.resize(n_nodes, UNREACHED);
        }
        if self.stamp == u32::MAX {
            self.changed_stamp.iter_mut().for_each(|s| *s = 0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.changed.clear();
        self.old_levels.clear();
        self.seeds.clear();
        self.cur.clear();
        self.nxt.clear();
        reserve_more(&mut self.seeds, seed_cap);
        reserve_more(&mut self.cur, n_nodes);
        reserve_more(&mut self.nxt, n_nodes);
        reserve_more(&mut self.changed, n_nodes);
        reserve_more(&mut self.old_levels, n_nodes);
    }

    /// Logs `v`'s first level change of this pass (later changes of the
    /// same node keep the original pre-pass level).
    #[inline]
    fn record(&mut self, v: u32, old: u32) {
        if self.changed_stamp[v as usize] != self.stamp {
            self.changed_stamp[v as usize] = self.stamp;
            self.changed.push(v);
            self.old_levels.push(old);
        }
    }

    /// Clears the pending markers of every still-queued entry (budget
    /// aborts leave the queues mid-drain).
    fn abort(&mut self) {
        for &u in self.cur.iter().chain(&self.nxt) {
            self.pending[u as usize] = UNREACHED;
        }
        for &e in &self.seeds {
            self.pending[(e & u64::from(u32::MAX)) as usize] = UNREACHED;
        }
        self.cur.clear();
        self.nxt.clear();
        self.seeds.clear();
    }
}

impl BitReach {
    /// Batch **node-deletion** repair of a BFS level array — the delta
    /// pass behind [`crate::ffc::RingMaintainer::add_fault`].
    ///
    /// `levels[v]` holds the BFS distance from a fixed root over the
    /// subgraph induced by `member` (with `UNREACHED` outside), following
    /// successor edges (`backward == false`) or predecessor edges
    /// (`backward == true`). The caller has just removed `deleted` from
    /// the membership (each of them must already test `!member`); this
    /// pass sets their levels to [`UNREACHED`], then repairs every other
    /// node whose distance grew, Even–Shiloach style: nodes are
    /// re-evaluated in increasing level order, a node with a surviving
    /// predecessor one level up stays put, and a node without one is
    /// bumped a level and its dependents re-enqueued, until the array
    /// again equals what a from-scratch BFS over the new membership would
    /// produce — **bit-identical to recompute** (levels are canonical, so
    /// this is exact, not approximate).
    ///
    /// Every node whose level changed (including the deleted nodes) is
    /// logged in `ds` with its pre-pass level. Levels only ever increase;
    /// a node whose level would reach `n_nodes` is unreachable and goes to
    /// [`UNREACHED`] directly. On success the number of queue pops the
    /// repair consumed is returned, so a caller running several passes per
    /// event can deduct them from one shared budget.
    ///
    /// # Errors
    /// Returns [`DeltaBudgetExceeded`] when more than `budget` queue pops
    /// were needed — the levels array is then partially repaired and must
    /// be rebuilt from scratch (the log is meaningless in that case).
    ///
    /// The root must never be deleted (rebuild instead); `member` must
    /// already reflect the post-deletion membership.
    ///
    /// Generic over [`LevelStore`], so the compact [`LevelVec`] the
    /// engine stores and the plain `u32` arrays the differential oracle
    /// keeps run the exact same monomorphised pass.
    pub fn levels_delete<L: LevelStore + ?Sized, M: Fn(usize) -> bool>(
        &self,
        levels: &mut L,
        ds: &mut DeltaScratch,
        deleted: &[u32],
        member: M,
        backward: bool,
        budget: usize,
    ) -> Result<usize, DeltaBudgetExceeded> {
        if self.pow2 {
            self.levels_delete_impl::<true, L, M>(levels, ds, deleted, member, backward, budget)
        } else {
            self.levels_delete_impl::<false, L, M>(levels, ds, deleted, member, backward, budget)
        }
    }

    fn levels_delete_impl<const POW2: bool, L: LevelStore + ?Sized, M: Fn(usize) -> bool>(
        &self,
        levels: &mut L,
        ds: &mut DeltaScratch,
        deleted: &[u32],
        member: M,
        backward: bool,
        budget: usize,
    ) -> Result<usize, DeltaBudgetExceeded> {
        let d = self.d;
        ds.begin(self.n_nodes, deleted.len() * d + 1);
        // Out-edges of the structure (the direction levels grow along) and
        // in-edges (the direction support is checked along).
        let out = |v: usize, a: usize| self.edge::<POW2>(v, a, backward);
        let inn = |v: usize, a: usize| self.edge::<POW2>(v, a, !backward);
        // Seed: drop the deleted nodes and stage their dependents.
        for &x in deleted {
            let xi = x as usize;
            debug_assert!(!member(xi), "deleted node still tests as a member");
            let lx = levels.level(xi);
            if lx == UNREACHED {
                continue;
            }
            ds.record(x, lx);
            levels.set_level(xi, UNREACHED);
        }
        for i in 0..ds.changed.len() {
            let (x, lx) = (ds.changed[i] as usize, ds.old_levels[i]);
            for a in 0..d {
                let s = out(x, a);
                if member(s) && levels.level(s) == lx + 1 && ds.pending[s] != lx + 1 {
                    ds.pending[s] = lx + 1;
                    ds.seeds.push((u64::from(lx + 1) << 32) | s as u64);
                }
            }
        }
        if ds.seeds.is_empty() {
            return Ok(0);
        }
        ds.seeds.sort_unstable();
        // Drain level by level: all pushes land exactly one level up, so a
        // current/next ping-pong with seed merging replaces a heap.
        let mut si = 0usize;
        let mut l = (ds.seeds[0] >> 32) as usize;
        let mut pops = 0usize;
        loop {
            while si < ds.seeds.len() && (ds.seeds[si] >> 32) as usize == l {
                ds.cur.push((ds.seeds[si] & u64::from(u32::MAX)) as u32);
                si += 1;
            }
            if ds.cur.is_empty() {
                if si >= ds.seeds.len() {
                    break;
                }
                l = (ds.seeds[si] >> 32) as usize;
                continue;
            }
            let mut head = 0usize;
            while head < ds.cur.len() {
                let u = ds.cur[head];
                head += 1;
                let ui = u as usize;
                if ds.pending[ui] == l as u32 {
                    ds.pending[ui] = UNREACHED;
                }
                if levels.level(ui) != l as u32 {
                    continue; // stale entry
                }
                pops += 1;
                if pops > budget {
                    ds.abort();
                    return Err(DeltaBudgetExceeded { pops });
                }
                // A surviving predecessor one level up keeps u settled:
                // every level below l is final, so the check is exact.
                let supported = (0..d).any(|a| {
                    let p = inn(ui, a);
                    member(p) && levels.level(p) == (l - 1) as u32
                });
                if supported {
                    continue;
                }
                ds.record(u, l as u32);
                for a in 0..d {
                    let s = out(ui, a);
                    if member(s)
                        && levels.level(s) == (l + 1) as u32
                        && ds.pending[s] != (l + 1) as u32
                    {
                        ds.pending[s] = (l + 1) as u32;
                        ds.nxt.push(s as u32);
                    }
                }
                if l + 1 >= self.n_nodes {
                    levels.set_level(ui, UNREACHED);
                } else {
                    levels.set_level(ui, (l + 1) as u32);
                    if ds.pending[ui] != (l + 1) as u32 {
                        ds.pending[ui] = (l + 1) as u32;
                        ds.nxt.push(u);
                    }
                }
            }
            ds.cur.clear();
            std::mem::swap(&mut ds.cur, &mut ds.nxt);
            l += 1;
            if ds.cur.is_empty() && si >= ds.seeds.len() {
                break;
            }
        }
        Ok(pops)
    }

    /// Batch **node-insertion** repair of a BFS level array — the delta
    /// pass behind [`crate::ffc::RingMaintainer::clear_fault`], and the
    /// exact mirror of [`BitReach::levels_delete`]: the caller has just
    /// added `inserted` to the membership (each must already test `member`
    /// and carry [`UNREACHED`]), and this pass computes their levels and
    /// relaxes every node whose distance shrank — unit-weight Dijkstra out
    /// of the healed frontier, **bit-identical to recompute**. Levels only
    /// ever decrease; changes are logged like the delete pass, and the
    /// consumed queue pops are returned on success.
    ///
    /// # Errors
    /// Returns [`DeltaBudgetExceeded`] when more than `budget` queue pops
    /// were needed (same contract as [`BitReach::levels_delete`]).
    pub fn levels_insert<L: LevelStore + ?Sized, M: Fn(usize) -> bool>(
        &self,
        levels: &mut L,
        ds: &mut DeltaScratch,
        inserted: &[u32],
        member: M,
        backward: bool,
        budget: usize,
    ) -> Result<usize, DeltaBudgetExceeded> {
        if self.pow2 {
            self.levels_insert_impl::<true, L, M>(levels, ds, inserted, member, backward, budget)
        } else {
            self.levels_insert_impl::<false, L, M>(levels, ds, inserted, member, backward, budget)
        }
    }

    fn levels_insert_impl<const POW2: bool, L: LevelStore + ?Sized, M: Fn(usize) -> bool>(
        &self,
        levels: &mut L,
        ds: &mut DeltaScratch,
        inserted: &[u32],
        member: M,
        backward: bool,
        budget: usize,
    ) -> Result<usize, DeltaBudgetExceeded> {
        let d = self.d;
        ds.begin(self.n_nodes, inserted.len() + 1);
        let out = |v: usize, a: usize| self.edge::<POW2>(v, a, backward);
        let inn = |v: usize, a: usize| self.edge::<POW2>(v, a, !backward);
        // Seed: each revived node joins one level below its best live
        // predecessor (if it has one yet — relaxation finds the rest).
        for &x in inserted {
            let xi = x as usize;
            debug_assert!(member(xi), "inserted node does not test as a member");
            debug_assert_eq!(
                levels.level(xi),
                UNREACHED,
                "inserted node already has a level"
            );
            let mut best = UNREACHED;
            for a in 0..d {
                let p = inn(xi, a);
                if member(p) && levels.level(p) < best {
                    best = levels.level(p);
                }
            }
            if best != UNREACHED {
                ds.record(x, UNREACHED);
                levels.set_level(xi, best + 1);
                ds.pending[xi] = best + 1;
                ds.seeds.push((u64::from(best + 1) << 32) | u64::from(x));
            }
        }
        if ds.seeds.is_empty() {
            return Ok(0);
        }
        ds.seeds.sort_unstable();
        let mut si = 0usize;
        let mut l = (ds.seeds[0] >> 32) as usize;
        let mut pops = 0usize;
        loop {
            while si < ds.seeds.len() && (ds.seeds[si] >> 32) as usize == l {
                ds.cur.push((ds.seeds[si] & u64::from(u32::MAX)) as u32);
                si += 1;
            }
            if ds.cur.is_empty() {
                if si >= ds.seeds.len() {
                    break;
                }
                l = (ds.seeds[si] >> 32) as usize;
                continue;
            }
            let mut head = 0usize;
            while head < ds.cur.len() {
                let u = ds.cur[head];
                head += 1;
                let ui = u as usize;
                if ds.pending[ui] == l as u32 {
                    ds.pending[ui] = UNREACHED;
                }
                if levels.level(ui) != l as u32 {
                    continue; // stale entry (relaxed below its queued level)
                }
                pops += 1;
                if pops > budget {
                    ds.abort();
                    return Err(DeltaBudgetExceeded { pops });
                }
                for a in 0..d {
                    let s = out(ui, a);
                    if member(s) && levels.level(s) > (l + 1) as u32 {
                        ds.record(s as u32, levels.level(s));
                        levels.set_level(s, (l + 1) as u32);
                        if ds.pending[s] != (l + 1) as u32 {
                            ds.pending[s] = (l + 1) as u32;
                            ds.nxt.push(s as u32);
                        }
                    }
                }
            }
            ds.cur.clear();
            std::mem::swap(&mut ds.cur, &mut ds.nxt);
            l += 1;
            if ds.cur.is_empty() && si >= ds.seeds.len() {
                break;
            }
        }
        Ok(pops)
    }

    /// One implicit edge of the structure: `forward == false` follows a
    /// graph successor, `true` a graph predecessor. `POW2` compiles the
    /// arithmetic to shifts and masks.
    #[inline]
    fn edge<const POW2: bool>(&self, v: usize, a: usize, backward: bool) -> usize {
        if backward {
            let base = if POW2 { v >> self.d_log } else { v / self.d };
            base + if POW2 {
                a << self.suffix_log
            } else {
                a * self.suffix
            }
        } else {
            let base = if POW2 {
                (v & (self.suffix - 1)) << self.d_log
            } else {
                (v % self.suffix) * self.d
            };
            base + a
        }
    }
}

/// Appends a sparse level to the sink.
fn emit_queue(sink: &mut LevelSink<'_>, queue: &[u32]) {
    sink.offsets.push(sink.nodes.len() as u32);
    sink.nodes.extend_from_slice(queue);
}

/// Appends a dense level to the sink with a hierarchical summary:
/// skip-scans the occupied words only, set bits in increasing id order.
/// Identical output to a full-word scan (the summary never misses an
/// occupied word; false positives just visit a zero word).
fn emit_bits_sum(sink: &mut LevelSink<'_>, bits: &[u64], sum: &[u64]) {
    sink.offsets.push(sink.nodes.len() as u32);
    extract_bits_skip(bits, sum, sink.nodes);
}

/// Number of summary words covering `words` bitmap words (one summary
/// *bit* per word, one summary *word* per 64-word / 4096-node block).
#[inline]
#[must_use]
pub fn sum_words(words: usize) -> usize {
    words.div_ceil(64)
}

/// Marks the summary bits covering bitmap words `base..base + len`.
#[inline]
fn mark_sum_range(sum: &mut [u64], base: usize, len: usize) {
    let (first, last) = (base >> 6, (base + len - 1) >> 6);
    if first == last {
        let lo = base & 63;
        let width = len as u64;
        let mask = if width == 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << lo
        };
        sum[first] |= mask;
    } else {
        sum[first] |= u64::MAX << (base & 63);
        for w in &mut sum[first + 1..last] {
            *w = u64::MAX;
        }
        let hi = (base + len - 1) & 63;
        sum[last] |= if hi == 63 {
            u64::MAX
        } else {
            (1u64 << (hi + 1)) - 1
        };
    }
}

/// Rebuilds the hierarchical summary of `bits` from scratch: summary bit
/// `j` is set iff `bits[j] != 0`. The in-kernel maintenance keeps
/// summaries incrementally; this is for bitmaps mutated outside the
/// kernels (and the skip-scan micro-bench).
pub fn summarize_bits(bits: &[u64], sum: &mut [u64]) {
    let sw = sum_words(bits.len());
    sum[..sw].fill(0);
    for (j, &w) in bits.iter().enumerate() {
        sum[j >> 6] |= u64::from(w != 0) << (j & 63);
    }
}

/// Appends the set bits of `bits` to `out` in increasing id order — the
/// full-scan baseline the skip-scan micro-bench races against.
pub fn extract_bits(bits: &[u64], out: &mut Vec<u32>) {
    for (j, &word) in bits.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            out.push((j * 64) as u32 + w.trailing_zeros());
            w &= w - 1;
        }
    }
}

/// [`extract_bits`] over the summary: visits only words whose summary bit
/// is set, in increasing order, so the output is identical whenever the
/// summary covers every occupied word (`occupied ⊆ marked`).
pub fn extract_bits_skip(bits: &[u64], sum: &[u64], out: &mut Vec<u32>) {
    for (sj, &sword) in sum.iter().enumerate() {
        let mut s = sword;
        while s != 0 {
            let j = sj * 64 + s.trailing_zeros() as usize;
            s &= s - 1;
            if j >= bits.len() {
                break;
            }
            let mut w = bits[j];
            while w != 0 {
                out.push((j * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn spread2_matches_bit_by_bit_definition() {
        let mut rng = StdRng::seed_from_u64(1);
        for case in 0..2000u64 {
            let x = if case < 64 {
                1u64 << (case % 32)
            } else {
                rng.next_u64() & u64::from(u32::MAX)
            };
            let got = spread2(x);
            let mut want = 0u64;
            for i in 0..32 {
                if x & (1 << i) != 0 {
                    want |= 0b11 << (2 * i);
                }
            }
            assert_eq!(got, want, "x={x:#x}");
        }
    }

    #[test]
    fn squash2_matches_bit_by_bit_definition() {
        let mut rng = StdRng::seed_from_u64(2);
        for case in 0..2000u64 {
            let x = if case < 64 {
                1u64 << case
            } else {
                rng.next_u64()
            };
            let got = squash2(x);
            let mut want = 0u64;
            for i in 0..32 {
                if x & (0b11 << (2 * i)) != 0 {
                    want |= 1 << i;
                }
            }
            assert_eq!(got, want, "x={x:#x}");
        }
    }

    #[test]
    fn squash2_inverts_spread2() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let x = rng.next_u64() & u64::from(u32::MAX);
            assert_eq!(squash2(spread2(x)), x);
        }
    }

    /// Scalar oracle: plain queue BFS over the shift arithmetic with a
    /// per-node visited array, returning (levels, reached, depth).
    fn oracle_bfs(
        d: usize,
        n_nodes: usize,
        dead: &[bool],
        root: usize,
        backward: bool,
        restrict: Option<&[bool]>,
    ) -> (Vec<usize>, usize, usize) {
        let suffix = n_nodes / d;
        let inside = |u: usize| -> bool { !dead[u] && restrict.is_none_or(|r| r[u]) };
        let mut level = vec![usize::MAX; n_nodes];
        level[root] = 0;
        let mut frontier = vec![root];
        let mut reached = 1usize;
        let mut depth = 0usize;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for a in 0..d {
                    let u = if backward {
                        v / d + a * suffix
                    } else {
                        (v % suffix) * d + a
                    };
                    if level[u] == usize::MAX && inside(u) {
                        level[u] = depth + 1;
                        next.push(u);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            reached += next.len();
            depth += 1;
            frontier = next;
        }
        (level, reached, depth)
    }

    /// Random dead mask that never kills the chosen root.
    fn random_dead(n_nodes: usize, deaths: usize, root: usize, rng: &mut StdRng) -> Vec<bool> {
        let mut dead = vec![false; n_nodes];
        for _ in 0..deaths {
            let v = rng.gen_range(0..n_nodes);
            if v != root {
                dead[v] = true;
            }
        }
        dead
    }

    /// All three policies must agree with the scalar oracle on every pass
    /// (forward counts/depths, component sizes, broadcast levels).
    #[test]
    fn passes_match_scalar_oracle_under_every_policy() {
        let shapes = [
            (2usize, 1 << 9),
            (2, 1 << 7),
            (4, 1 << 10),
            (3, 243),
            (8, 512),
        ];
        let mut rng = StdRng::seed_from_u64(2026);
        for &(d, n_nodes) in &shapes {
            for trial in 0..24 {
                let root = 1usize;
                let deaths = [0, 1, 3, n_nodes / 20, n_nodes / 4][trial % 5];
                let dead = random_dead(n_nodes, deaths, root, &mut rng);
                let removed = dead.iter().filter(|&&x| x).count();
                let (fl, fwd_reached, fwd_depth) = oracle_bfs(d, n_nodes, &dead, root, false, None);
                let (bl, _, _) = oracle_bfs(d, n_nodes, &dead, root, true, None);
                let bstar: Vec<bool> = (0..n_nodes)
                    .map(|v| fl[v] != usize::MAX && bl[v] != usize::MAX)
                    .collect();
                let component = bstar.iter().filter(|&&x| x).count();
                let (vl, _, ecc) = oracle_bfs(d, n_nodes, &dead, root, false, Some(&bstar));
                for policy in [DensePolicy::Auto, DensePolicy::Never, DensePolicy::Always] {
                    let reach = BitReach::with_policy(d, n_nodes, policy);
                    let mut s = BitScratch::new();
                    reach.prepare(&mut s);
                    for (v, &x) in dead.iter().enumerate() {
                        if x {
                            reach.kill(&mut s, v);
                        }
                    }
                    let (count, depth) = reach.forward(&mut s, root);
                    assert_eq!(
                        (count, depth),
                        (fwd_reached, fwd_depth),
                        "forward d={d} n={n_nodes} deaths={deaths} {policy:?}"
                    );
                    reach.backward(&mut s, root);
                    assert_eq!(
                        reach.component_size(&s, removed),
                        component,
                        "component d={d} n={n_nodes} deaths={deaths} {policy:?}"
                    );
                    for (v, &want) in bstar.iter().enumerate() {
                        assert_eq!(reach.in_bstar(&s, v), want, "v={v} {policy:?}");
                    }
                    let mut nodes = Vec::new();
                    let mut offsets = Vec::new();
                    let (breached, bdepth) =
                        reach.broadcast_levels(&mut s, root, &mut nodes, &mut offsets);
                    assert_eq!(bdepth, ecc, "broadcast depth {policy:?}");
                    assert_eq!(breached, component, "broadcast covers B* {policy:?}");
                    assert_eq!(nodes.len(), component);
                    assert_eq!(offsets.len(), bdepth + 2);
                    for l in 0..=bdepth {
                        let mut lvl: Vec<u32> =
                            nodes[offsets[l] as usize..offsets[l + 1] as usize].to_vec();
                        lvl.sort_unstable();
                        let mut want: Vec<u32> = (0..n_nodes)
                            .filter(|&v| bstar[v] && vl[v] == l)
                            .map(|v| v as u32)
                            .collect();
                        want.sort_unstable();
                        assert_eq!(lvl, want, "level {l} {policy:?}");
                    }
                    // And the stats-only depth variant agrees.
                    assert_eq!(reach.broadcast_depth(&mut s, root), ecc, "{policy:?}");
                }
            }
        }
    }

    /// Oversized node spaces must be rejected with the typed error, not
    /// silently truncated to u32 ids in release builds.
    #[test]
    fn oversized_spaces_are_rejected_with_a_typed_error() {
        let too_big = (u64::from(u32::MAX) + 1) as usize;
        let err = BitReach::try_new(2, too_big).expect_err("2^32 nodes must not fit");
        assert_eq!(err.n_nodes, Some(too_big as u64));
        assert!(err.to_string().contains("u32"));
        // The boundary itself is fine (ids 0..=u32::MAX - 1).
        assert!(BitReach::try_new(2, 1 << 20).is_ok());
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_space_panics_in_the_panicking_constructor() {
        let _ = BitReach::new(2, (u64::from(u32::MAX) + 1) as usize);
    }

    #[test]
    fn scratch_reuse_across_shapes_never_leaks_state() {
        let mut s = BitScratch::new();
        for &(d, n_nodes) in &[(2usize, 1 << 10), (4, 256), (2, 64), (3, 81), (2, 1 << 10)] {
            let reach = BitReach::new(d, n_nodes);
            reach.prepare(&mut s);
            reach.kill(&mut s, 0); // kill the self-loop word 0^n
            let (count, _) = reach.forward(&mut s, 1);
            reach.backward(&mut s, 1);
            assert_eq!(count, n_nodes - 1, "d={d} n={n_nodes}");
            assert_eq!(reach.component_size(&s, 1), n_nodes - 1);
        }
    }

    #[test]
    fn dense_capability_matches_shape() {
        assert!(BitReach::new(2, 1 << 10).dense_capable());
        assert!(BitReach::new(4, 1 << 10).dense_capable());
        assert!(!BitReach::new(3, 243).dense_capable()); // not pow2
        assert!(!BitReach::new(2, 32).dense_capable()); // suffix below a word
    }

    /// The level-emitting forward/backward passes must produce the scalar
    /// oracle's levels.
    #[test]
    fn level_emitting_passes_match_oracle() {
        let shapes = [(2usize, 1 << 10), (4, 1 << 10), (2, 1 << 7), (3, 243)];
        let mut rng = StdRng::seed_from_u64(0x1e7e15);
        for &(d, n_nodes) in &shapes {
            let reach = BitReach::new(d, n_nodes);
            for trial in 0..6 {
                let root = 1usize;
                let deaths = [0, 1, n_nodes / 16, n_nodes / 3][trial % 4];
                let dead = random_dead(n_nodes, deaths, root, &mut rng);
                let scatter = |nodes: &[u32], offsets: &[u32]| -> Vec<usize> {
                    let mut lv = vec![usize::MAX; n_nodes];
                    for l in 0..offsets.len() - 1 {
                        for &v in &nodes[offsets[l] as usize..offsets[l + 1] as usize] {
                            lv[v as usize] = l;
                        }
                    }
                    lv
                };
                for backward in [false, true] {
                    let (want_lv, want_reached, want_depth) =
                        oracle_bfs(d, n_nodes, &dead, root, backward, None);
                    let mut s = BitScratch::new();
                    reach.prepare(&mut s);
                    for (v, &x) in dead.iter().enumerate() {
                        if x {
                            reach.kill(&mut s, v);
                        }
                    }
                    let mut nodes = Vec::new();
                    let mut offsets = Vec::new();
                    let got = if backward {
                        reach.backward_levels(&mut s, root, &mut nodes, &mut offsets)
                    } else {
                        reach.forward_levels(&mut s, root, &mut nodes, &mut offsets)
                    };
                    assert_eq!(got, (want_reached, want_depth), "d={d} bwd={backward}");
                    assert_eq!(scatter(&nodes, &offsets), want_lv, "d={d} bwd={backward}");
                }
            }
        }
    }

    /// Scalar level oracle as a u32 array with [`UNREACHED`] holes.
    fn oracle_levels(
        d: usize,
        n_nodes: usize,
        member: &[bool],
        root: usize,
        backward: bool,
    ) -> Vec<u32> {
        let dead: Vec<bool> = member.iter().map(|&m| !m).collect();
        let (lv, _, _) = oracle_bfs(d, n_nodes, &dead, root, backward, None);
        lv.iter()
            .map(|&l| if l == usize::MAX { UNREACHED } else { l as u32 })
            .collect()
    }

    /// The delta passes must be **bit-identical to recompute**: after any
    /// batch of deletions or insertions, the repaired level array equals a
    /// from-scratch BFS over the new membership — in both edge directions,
    /// across several mutation rounds on the same scratch, and the changed
    /// log must name exactly the nodes whose level differs (with their
    /// true pre-pass levels).
    #[test]
    fn delta_passes_are_bit_identical_to_recompute() {
        let shapes = [(2usize, 1 << 9), (3, 243), (4, 256), (2, 64)];
        let mut rng = StdRng::seed_from_u64(0xde17a);
        for &(d, n_nodes) in &shapes {
            let reach = BitReach::new(d, n_nodes);
            for backward in [false, true] {
                let root = 1usize;
                let mut member = vec![true; n_nodes];
                let mut levels = oracle_levels(d, n_nodes, &member, root, backward);
                let mut ds = DeltaScratch::new();
                let mut removed: Vec<u32> = Vec::new();
                for round in 0..30 {
                    let before = levels.clone();
                    let delete = round % 2 == 0 || removed.is_empty();
                    let batch: Vec<u32> = if delete {
                        let k = 1 + rng.gen_range(0..4);
                        let mut b = Vec::new();
                        for _ in 0..k {
                            let v = rng.gen_range(0..n_nodes);
                            if v != root && member[v] && !b.contains(&(v as u32)) {
                                b.push(v as u32);
                            }
                        }
                        b
                    } else {
                        let k = 1 + rng.gen_range(0..removed.len());
                        removed.drain(..k).collect()
                    };
                    if delete {
                        for &v in &batch {
                            member[v as usize] = false;
                            removed.push(v);
                        }
                        reach
                            .levels_delete(
                                &mut levels,
                                &mut ds,
                                &batch,
                                |u| member[u],
                                backward,
                                usize::MAX,
                            )
                            .expect("unbounded budget");
                    } else {
                        for &v in &batch {
                            member[v as usize] = true;
                        }
                        reach
                            .levels_insert(
                                &mut levels,
                                &mut ds,
                                &batch,
                                |u| member[u],
                                backward,
                                usize::MAX,
                            )
                            .expect("unbounded budget");
                    }
                    let want = oracle_levels(d, n_nodes, &member, root, backward);
                    assert_eq!(
                        levels, want,
                        "d={d} n={n_nodes} bwd={backward} round={round} delete={delete}"
                    );
                    // The changed log is exact: every difference against the
                    // pre-pass array is logged once with its true old level.
                    let mut diff: Vec<(u32, u32)> = before
                        .iter()
                        .enumerate()
                        .filter(|&(v, &l)| l != levels[v])
                        .map(|(v, &l)| (v as u32, l))
                        .collect();
                    let mut logged: Vec<(u32, u32)> = ds.changed().collect();
                    diff.sort_unstable();
                    logged.sort_unstable();
                    assert_eq!(logged, diff, "changed log round={round}");
                }
            }
        }
    }

    /// A pathological deletion (large detached cycle) must trip the work
    /// budget instead of grinding level-by-level to the cap, and an
    /// unbounded retry from scratch still converges.
    #[test]
    fn delta_delete_respects_the_work_budget() {
        let (d, n_nodes) = (2usize, 1 << 9);
        let reach = BitReach::new(d, n_nodes);
        let root = 1usize;
        let mut member = vec![true; n_nodes];
        let mut levels = oracle_levels(d, n_nodes, &member, root, backward_false());
        let mut ds = DeltaScratch::new();
        // Kill a thick band of nodes: plenty of cascading work.
        let batch: Vec<u32> = (64..256u32).collect();
        for &v in &batch {
            member[v as usize] = false;
        }
        let err = reach
            .levels_delete(&mut levels, &mut ds, &batch, |u| member[u], false, 3)
            .expect_err("three pops cannot absorb a 192-node deletion");
        assert!(err.pops > 3);
        // The array is now partial; a recompute (what the maintainer's
        // rebuild fallback does) restores the canonical levels.
        let want = oracle_levels(d, n_nodes, &member, root, false);
        levels.copy_from_slice(&want);
        assert_eq!(levels, want);
    }

    fn backward_false() -> bool {
        false
    }

    /// A delete cascade that climbs a node through the whole u8 escape
    /// band (levels 254..n_nodes) must behave bit-for-bit the same on the
    /// compact [`LevelVec`] as on the `u32` oracle array — both in the
    /// partial state of a budget abort (escaped entries live) and in the
    /// settled state (side table empty again).
    #[test]
    fn compact_levels_survive_deep_cascades_through_the_escape_band() {
        let (d, n_nodes) = (2usize, 1 << 10);
        let reach = BitReach::new(d, n_nodes);
        let root = 1usize;
        let mut member = vec![true; n_nodes];
        let base = oracle_levels(d, n_nodes, &member, root, false);
        let mut u32_levels = base.clone();
        let mut lv = LevelVec::new();
        lv.grow(n_nodes);
        for (v, &l) in base.iter().enumerate() {
            lv.set(v, l);
        }
        // Delete both predecessors of node 700 (350 and 350 + 512): its
        // support vanishes and the Even–Shiloach cascade climbs it one
        // level at a time toward n_nodes = 1024 — straight through the
        // escape band — before settling at UNREACHED.
        let batch = [350u32, 862];
        for &v in &batch {
            member[v as usize] = false;
        }
        let mut ds = DeltaScratch::new();
        // A budget-bounded run aborts mid-climb: the deterministic pass
        // leaves both stores in the same partial state, pinning escaped
        // values (> 253) bit-for-bit.
        let mut u32_part = u32_levels.clone();
        let mut lv_part = lv.clone();
        let e1 = reach
            .levels_delete(&mut u32_part, &mut ds, &batch, |u| member[u], false, 500)
            .expect_err("a 1000-step climb cannot fit 500 pops");
        let e2 = reach
            .levels_delete(&mut lv_part, &mut ds, &batch, |u| member[u], false, 500)
            .expect_err("a 1000-step climb cannot fit 500 pops");
        assert_eq!(e1.pops, e2.pops, "abort point must match");
        for (v, &u32_v) in u32_part.iter().enumerate() {
            assert_eq!(u32_v, lv_part.get(v), "partial state node {v}");
        }
        assert!(
            lv_part.overflow_len() > 0,
            "the abort landed inside the escape band"
        );
        // The unbounded run settles both stores at the recompute oracle.
        reach
            .levels_delete(
                &mut u32_levels,
                &mut ds,
                &batch,
                |u| member[u],
                false,
                usize::MAX,
            )
            .expect("unbounded budget");
        reach
            .levels_delete(&mut lv, &mut ds, &batch, |u| member[u], false, usize::MAX)
            .expect("unbounded budget");
        let want = oracle_levels(d, n_nodes, &member, root, false);
        assert_eq!(u32_levels, want);
        for (v, &want_v) in want.iter().enumerate() {
            assert_eq!(lv.get(v), want_v, "settled state node {v}");
        }
        assert_eq!(lv.overflow_len(), 0, "settled levels never stay escaped");
    }

    /// The two-level skip-scan must extract exactly the full scan's output
    /// for any bitmap — including non-multiple-of-64 word counts, empty
    /// maps, and over-approximate summaries (extra marked blocks are
    /// harmless; `occupied ⊆ marked` is the only invariant).
    #[test]
    fn summary_skip_scan_matches_full_extraction() {
        let mut rng = StdRng::seed_from_u64(0x5ca9);
        for words in [1usize, 7, 63, 64, 65, 200] {
            for density in [0usize, 1, 8, words * 8] {
                let mut bits = vec![0u64; words];
                for _ in 0..density {
                    let v = rng.gen_range(0..words * 64);
                    bits[v / 64] |= 1u64 << (v % 64);
                }
                let mut sum = vec![0u64; sum_words(words)];
                summarize_bits(&bits, &mut sum);
                // The rebuilt summary marks exactly the occupied words.
                for (j, &w) in bits.iter().enumerate() {
                    assert_eq!(sum[j >> 6] >> (j & 63) & 1 == 1, w != 0, "word {j}");
                }
                let (mut fast, mut slow) = (Vec::new(), Vec::new());
                extract_bits_skip(&bits, &sum, &mut fast);
                extract_bits(&bits, &mut slow);
                assert_eq!(fast, slow, "words={words} density={density}");
                // An over-approximate summary (every block marked) only
                // adds zero-word probes, never changes the output.
                let all = vec![u64::MAX; sum_words(words)];
                fast.clear();
                extract_bits_skip(&bits, &all, &mut fast);
                assert_eq!(fast, slow, "over-approximate words={words}");
            }
        }
    }

    /// `mark_sum_range` must cover exactly the requested word range for
    /// every alignment, including spans crossing summary-word boundaries.
    #[test]
    fn mark_sum_range_covers_exactly_the_requested_words() {
        for &(base, len) in &[
            (0usize, 1usize),
            (0, 64),
            (63, 1),
            (63, 2),
            (5, 200),
            (64, 64),
            (100, 1),
            (0, 193),
        ] {
            let total = (base + len).div_ceil(64) + 1;
            let mut sum = vec![0u64; total];
            mark_sum_range(&mut sum, base, len);
            for j in 0..total * 64 {
                let marked = sum[j >> 6] >> (j & 63) & 1 == 1;
                assert_eq!(
                    marked,
                    (base..base + len).contains(&j),
                    "base={base} len={len} word {j}"
                );
            }
        }
    }

    #[test]
    fn no_allocation_after_first_pass_in_both_regimes() {
        let reach = BitReach::new(2, 1 << 12);
        let mut s = BitScratch::new();
        let mut rng = StdRng::seed_from_u64(7);
        // Warm up one dense-regime and one sparse-regime pass.
        for deaths in [0, 1 << 10] {
            let dead = random_dead(1 << 12, deaths, 1, &mut rng);
            reach.prepare(&mut s);
            for (v, &x) in dead.iter().enumerate() {
                if x {
                    reach.kill(&mut s, v);
                }
            }
            let _ = reach.forward(&mut s, 1);
            reach.backward(&mut s, 1);
            let _ = reach.broadcast_depth(&mut s, 1);
        }
        let warm = s.allocated_bytes();
        for trial in 0..100 {
            let deaths = [0, 3, 1 << 6, 1 << 10][trial % 4];
            let dead = random_dead(1 << 12, deaths, 1, &mut rng);
            reach.prepare(&mut s);
            for (v, &x) in dead.iter().enumerate() {
                if x {
                    reach.kill(&mut s, v);
                }
            }
            let _ = reach.forward(&mut s, 1);
            reach.backward(&mut s, 1);
            let _ = reach.broadcast_depth(&mut s, 1);
            assert_eq!(s.allocated_bytes(), warm, "trial {trial}");
        }
    }

    /// Pins the fused single-pass dense kernel bit-for-bit against the
    /// retained two-phase scalar reference, forward and backward, on
    /// random frontiers at both sparse (~3%) and dense (~50%) fills —
    /// the populations the engine sees on either side of the
    /// density-switch thresholds. Shapes cover the d=2 specialisation's
    /// unrolled 4-word tile (suffix_words ≥ 4), its remainder loop
    /// (suffix_words ∈ {1, 2}), and the generic-d path (d = 4, 8).
    #[test]
    fn fused_kernel_matches_two_phase_scalar_bit_for_bit() {
        let shapes = [
            (2usize, 128usize), // suffix_words = 1: remainder loop only
            (2, 256),           // suffix_words = 2: remainder loop only
            (2, 1 << 11),       // suffix_words = 16: full 4-word tiles
            (2, 1 << 14),       // suffix_words = 128: many tiles
            (4, 1 << 10),       // generic-d fold of 16-bit chunks
            (8, 4096),          // generic-d fold of 8-bit chunks
        ];
        let mut rng = StdRng::seed_from_u64(0xF05E);
        for &(d, n_nodes) in &shapes {
            let reach = BitReach::new(d, n_nodes);
            assert!(reach.dense_capable(), "d={d} n={n_nodes}");
            let words = n_nodes / 64;
            let sw = words / d;
            let mut fold = vec![0u64; sw];
            for trial in 0..16 {
                let sparse = trial % 2 == 0;
                let word = |rng: &mut StdRng| {
                    if sparse {
                        // ~1/32 bit density: AND of five random words.
                        (0..5).fold(u64::MAX, |acc, _| acc & rng.next_u64())
                    } else {
                        rng.next_u64()
                    }
                };
                for backward in [false, true] {
                    let cur: Vec<u64> = (0..words).map(|_| word(&mut rng)).collect();
                    let vis0: Vec<u64> = (0..words).map(|_| word(&mut rng)).collect();
                    let (mut vis_a, mut vis_b) = (vis0.clone(), vis0);
                    let mut nxt_a = vec![u64::MAX; words]; // must be fully overwritten
                    let mut nxt_b = vec![0u64; words];
                    let na = crate::oracle::kernel_step_scalar(
                        &reach, backward, &cur, &mut vis_a, &mut nxt_a, &mut fold,
                    );
                    let nb = reach.kernel_step_fused(backward, &cur, &mut vis_b, &mut nxt_b);
                    let tag = format!("d={d} n={n_nodes} bwd={backward} sparse={sparse}");
                    assert_eq!(na, nb, "newly count diverges: {tag}");
                    assert_eq!(vis_a, vis_b, "visited words diverge: {tag}");
                    assert_eq!(nxt_a, nxt_b, "frontier words diverge: {tag}");
                }
            }
        }
    }
}
