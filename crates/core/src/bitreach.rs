//! Bit-parallel reachability over the implicit shift arithmetic of B(d,n).
//!
//! The FFC engine's hot loop is one forward BFS from the root over a de
//! Bruijn graph with some necklaces removed: faults remove whole necklaces,
//! so the forward set is the root's strongly connected component B* and
//! its levels are the broadcast levels (see the `ffc` module docs). So
//! every pass here runs forward, with one exception that no embedding
//! runs: [`BitReach::backward`], a plain FIFO walk over predecessors with
//! no dense kernel. [`BitReach::broadcast_levels`] intersects its visited
//! set with the forward set, which gives B* under a dead set that is not a
//! union of necklaces; the ring benchmark's traced run times both beside
//! the engine. For a
//! power-of-two alphabet the successor set of a *set* of nodes is pure
//! word arithmetic on its bitmap: node `v`'s successors are the aligned
//! block `d·(v mod d^(n−1)) + a`, so the image of a frontier `F` under one
//! BFS step is `expand_d(fold_d(F))`, where `fold_d` ORs the `d` equal
//! chunks of `F` (erasing the leading digit) and `expand_d` duplicates
//! every bit into `d` adjacent positions (appending every trailing digit)
//! — 64 nodes per handful of shift/mask ops, branch-free.
//!
//! [`BitReach`] packages that kernel behind direction-optimizing BFS
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
//! # The block kernel
//!
//! A dense level runs one **block kernel**, instantiated for every
//! power-of-two d ≤ 64. A block is the 64 output words one summary word
//! covers (the whole bitmap when it is smaller than that). Output word
//! `d·i + r` expands chunk `r` of `G[i]`, the OR of suffix word `i` over
//! the `d` leading digits, so a block reads `64/d` suffix words from each
//! of the `d` strides of the frontier.
//!
//! Per block the kernel folds into a stack tile, then expands, masks
//! against visited, updates visited and stores the next frontier in one
//! pass over exact chunks (no per-index bounds checks), and writes the
//! block's next-frontier summary word once. First it reads the current
//! frontier's summary: when that marks every input word of the block
//! empty, the block's output is zeroed instead of computed. Level `k`
//! from the root lies in one aligned id range (the nodes sharing one
//! (n−k)-digit prefix), so at B(2,18) the seven dense steps of a
//! fault-free pass compute 127 of 448 blocks.
//!
//! The two-phase kernel (a fold pass into a buffer, then an expand pass)
//! lives on as the oracle [`crate::oracle::kernel_step_scalar`].
//! [`BitReach::kernel_step_fused`] runs the block kernel with no
//! summaries, so it never skips; the unit tests pin it and the skipping
//! step against the oracle, and `bench_ffc --kernels` races it against
//! the oracle.
//!
//! # Hierarchical summaries and compact levels
//!
//! Every frontier bitmap carries a **one-bit-per-word summary** (one
//! summary word per 64-word / 4096-node block): summary bit `j` set ⟺
//! `bits[j]` may be non-zero, with the invariant *occupied ⊆ marked* — a
//! false positive costs a wasted probe or a block computed that could
//! have been skipped, a false negative would drop nodes and is never
//! produced. The dense step writes each block's summary word from the
//! words it has just stored (exactly: one multiply gathers eight
//! non-zero flags), and the sparse → dense conversion sets the bits of
//! the queued nodes. Besides the next step's skip test, the summaries
//! turn the dense → sparse switch and the dense level emission into
//! two-level skip-scans ([`extract_bits_skip`]) that touch only occupied
//! words (the emission writes each such word's levels at once,
//! `LevelVec::set_word`), and the fault mask keeps one so that a
//! re-prepare clears only the words a kill dirtied. Per-node level arrays
//! use the compact one-byte [`LevelVec`] (levels are diameter-bounded,
//! with an escape table for the transient deeper ones) behind the
//! [`LevelStore`] trait, so the delta passes
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

/// A pass switches **to** the dense regime when `frontier · d ·
/// DENSE_SWITCH ≥ n_nodes` — one frontier edge per 64 nodes, the
/// break-even between a scalar walk of the frontier's edges and a
/// whole-bitmap sweep.
pub const DENSE_SWITCH: usize = 64;

/// A pass switches **back** to top-down when `frontier · d ·
/// SPARSE_SWITCH < n_nodes` (4× hysteresis below [`DENSE_SWITCH`]), so the
/// shrinking tail of a pass doesn't pay full sweeps for near-empty levels.
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

    /// Writes level `l` for every frontier node into `levels`: one
    /// [`LevelVec::set_word`] per occupied word (a summary skip-scan) while
    /// dense, one [`LevelVec::set`] per queued node while sparse.
    fn write_level(&self, words: usize, levels: &mut LevelVec, l: u32) {
        if self.dense {
            let (bits, sum) = (&self.bits[..words], &self.sum[..sum_words(words)]);
            for_each_word_skip(bits, sum, |j, w| levels.set_word(j, w, l));
        } else {
            self.queue.iter().for_each(|&v| levels.set(v as usize, l));
        }
    }
}

/// The reusable buffers of the bit-parallel engine: the fault bitmap, the
/// visited sets of the forward, backward and broadcast passes and the two
/// frontiers (the dense block kernel folds into a stack tile, so there is
/// no fold scratch). The engine's passes touch only the fault bitmap, the
/// forward set and the frontiers, which [`BitReach::prepare`] grows; the
/// backward and broadcast sets are grown by the passes that read them.
/// Grow-only; after the first call of each pass at a given graph size no
/// method allocates.
#[derive(Clone, Debug, Default)]
pub struct BitScratch {
    /// Bit `v` set ⟺ node `v` was removed with a faulty necklace.
    dead: Vec<u64>,
    /// Summary of `dead` (bit `j` set when `dead[j]` may be non-zero),
    /// kept by [`BitReach::kill`] so [`BitReach::prepare`] can skip-clear
    /// only the occupied words — fault masks are extremely sparse (f ≪ d−1
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

/// The bit-parallel reachability engine for one B(d,n) shape: word-level
/// constants plus the direction-optimizing forward passes (the one the
/// FFC embedding runs, and the broadcast over fwd ∧ bwd), and the
/// backward walk the broadcast reads.
#[derive(Clone, Copy, Debug)]
pub struct BitReach {
    pub(crate) d: usize,
    n_nodes: usize,
    /// d^(n−1) — the chunk size of the fold.
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
}

impl BitReach {
    /// The engine for B(d,n) given `d` and `n_nodes = d^n`.
    ///
    /// # Panics
    /// Panics if `d < 2`, if `n_nodes` is not `d` times a whole suffix
    /// count, or if the node ids do not fit the engine's u32 indexing
    /// ([`BitReach::try_new`] rejects that case without panicking).
    #[must_use]
    pub fn new(d: usize, n_nodes: usize) -> Self {
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
        }
    }

    /// [`BitReach::new`], rejecting spaces whose node ids overflow the
    /// engine's u32 indexing with a typed error instead of panicking.
    ///
    /// # Errors
    /// Returns [`SpaceTooLarge`] when `n_nodes > u32::MAX` — in release
    /// builds the queue and CSR stores would otherwise silently truncate
    /// ids (`v as u32`).
    ///
    /// # Panics
    /// Panics if `d < 2` or if `n_nodes` is not `d` times a whole suffix
    /// count.
    pub fn try_new(d: usize, n_nodes: usize) -> Result<Self, SpaceTooLarge> {
        if u32::try_from(n_nodes).is_err() {
            return Err(SpaceTooLarge {
                n_nodes: Some(n_nodes as u64),
            });
        }
        Ok(Self::new(d, n_nodes))
    }

    /// Whether this shape can run the word-parallel bottom-up sweeps.
    #[must_use]
    pub fn dense_capable(&self) -> bool {
        self.dense_capable
    }

    /// Grows the scratch to this shape and clears the fault bitmap; call
    /// once per embedding before [`BitReach::kill`]ing the faulty nodes
    /// (a maintainer that keeps its mask current with
    /// [`BitReach::revive`] calls it once per shape).
    pub fn prepare(&self, s: &mut BitScratch) {
        let sw = sum_words(self.words);
        grow_to(&mut s.dead, self.words, 0);
        grow_to(&mut s.dead_sum, sw, 0);
        grow_to(&mut s.fwd, self.words, 0);
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

    /// Marks node `v` live again. Its summary bit stays set, as the
    /// summary's occupied ⊆ marked rule allows; the next
    /// [`BitReach::prepare`] clears it.
    #[inline]
    pub fn revive(&self, s: &mut BitScratch, v: usize) {
        debug_assert!(v < self.n_nodes);
        clear_bit(&mut s.dead, v);
    }

    /// Whether node `v` is marked dead.
    #[inline]
    #[must_use]
    pub fn is_dead(&self, s: &BitScratch, v: usize) -> bool {
        s.dead[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Forward BFS from `root` over live nodes. Returns `(reached, depth)`
    /// where `reached` counts live forward-reachable nodes including the
    /// root and `depth` is the last level with a new node. When the dead
    /// nodes form whole necklaces the forward set is B*, so these are |B*|
    /// and the broadcast eccentricity.
    pub fn forward(&self, s: &mut BitScratch, root: usize) -> (usize, usize) {
        self.pass(s, root, |_, _| {})
    }

    /// Backward reachability from `root` over live nodes: a FIFO walk over
    /// predecessors, its visited set left in the scratch for
    /// [`BitReach::broadcast_levels`]. No embedding path runs it, so it
    /// has no dense kernel, and its bitmap is grown here rather than by
    /// [`BitReach::prepare`]: only the scratches that run it pay for it.
    /// The queue is the current frontier's, which `prepare` reserved for
    /// every node.
    pub fn backward(&self, s: &mut BitScratch, root: usize) {
        grow_to(&mut s.bwd, self.words, 0);
        let BitScratch { dead, bwd, cur, .. } = s;
        let bwd = &mut bwd[..self.words];
        bwd.copy_from_slice(&dead[..self.words]);
        let root_dead = test_and_set(bwd, root);
        debug_assert!(!root_dead, "root not live");
        cur.queue.clear();
        cur.queue.push(root as u32);
        let mut head = 0;
        while let Some(&v) = cur.queue.get(head) {
            head += 1;
            for a in 0..self.d {
                let u = if self.pow2 {
                    self.pred::<true>(v as usize, a)
                } else {
                    self.pred::<false>(v as usize, a)
                };
                if !test_and_set(bwd, u) {
                    cur.queue.push(u as u32);
                }
            }
        }
    }

    /// The forward pass of [`BitReach::forward`] and the level-emitting
    /// passes: the visited set starts as the fault mask.
    fn pass(
        &self,
        s: &mut BitScratch,
        root: usize,
        on_level: impl FnMut(u32, &BitFrontier),
    ) -> (usize, usize) {
        let BitScratch {
            dead,
            fwd,
            cur,
            nxt,
            ..
        } = s;
        fwd[..self.words].copy_from_slice(&dead[..self.words]);
        self.run(fwd, cur, nxt, root, on_level)
    }

    /// The broadcast restricted to B* = `fwd ∧ bwd ∧ ¬dead`, emitting
    /// every reached node level by level as a CSR: `nodes` receives the
    /// nodes (cleared first), `offsets` the level boundaries
    /// (`offsets[l]..offsets[l+1]` is level `l`; `offsets.len()` ends up
    /// `depth + 2`). Returns `(reached, depth)`. Requires the forward and
    /// backward passes to have run. The within-level order is unspecified
    /// (discovery order top-down, increasing id bottom-up) — callers must
    /// not depend on it.
    ///
    /// This is the one CSR entry point, kept for external callers that
    /// want B* grouped by level under any dead set; the engine and the
    /// maintainer write forward levels straight into a [`LevelVec`]
    /// instead ([`BitReach::forward_levels`],
    /// [`BitReach::forward_levels_reached`]).
    pub fn broadcast_levels(
        &self,
        s: &mut BitScratch,
        root: usize,
        nodes: &mut Vec<u32>,
        offsets: &mut Vec<u32>,
    ) -> (usize, usize) {
        let words = self.words;
        nodes.clear();
        offsets.clear();
        let found = self.broadcast(s, root, |_, f| {
            offsets.push(nodes.len() as u32);
            if f.dense {
                extract_bits_skip(&f.bits[..words], &f.sum[..sum_words(words)], nodes);
            } else {
                nodes.extend_from_slice(&f.queue);
            }
        });
        offsets.push(nodes.len() as u32);
        found
    }

    /// The broadcast setup: visited starts as "outside B* or dead". Like
    /// [`BitReach::backward`], it grows the bitmaps only it reads.
    fn broadcast(
        &self,
        s: &mut BitScratch,
        root: usize,
        on_level: impl FnMut(u32, &BitFrontier),
    ) -> (usize, usize) {
        grow_to(&mut s.bwd, self.words, 0);
        grow_to(&mut s.vis, self.words, 0);
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
        self.run(vis, cur, nxt, root, on_level)
    }

    /// The direct level write of the level-emitting passes: grows
    /// `levels` to the node space, marks every slot [`UNREACHED`], and
    /// returns the per-level callback that writes level `l` for every node
    /// of a settled frontier, a dense one word by word
    /// ([`BitFrontier::write_level`]).
    fn level_writer<'a>(&self, levels: &'a mut LevelVec) -> impl FnMut(u32, &BitFrontier) + 'a {
        levels.grow(self.n_nodes);
        levels.fill_unreached();
        let words = self.words;
        move |l, f| f.write_level(words, levels, l)
    }

    /// One direction-optimizing BFS pass over `vis` (bits already set are
    /// never re-entered; the caller pre-sets dead / out-of-scope bits).
    /// `on_level(l, frontier)` sees every level as it settles, the root's
    /// level 0 included; the stats-only passes hand it a no-op that
    /// compiles away. Returns `(newly visited count incl. root, depth)`.
    fn run(
        &self,
        vis: &mut [u64],
        cur: &mut BitFrontier,
        nxt: &mut BitFrontier,
        root: usize,
        on_level: impl FnMut(u32, &BitFrontier),
    ) -> (usize, usize) {
        if self.pow2 {
            self.run_impl::<true>(vis, cur, nxt, root, on_level)
        } else {
            self.run_impl::<false>(vis, cur, nxt, root, on_level)
        }
    }

    /// [`BitReach::run`] with the edge arithmetic fixed at compile time.
    fn run_impl<const POW2: bool>(
        &self,
        vis: &mut [u64],
        cur: &mut BitFrontier,
        nxt: &mut BitFrontier,
        root: usize,
        mut on_level: impl FnMut(u32, &BitFrontier),
    ) -> (usize, usize) {
        debug_assert!(root < self.n_nodes, "root out of range");
        debug_assert!(vis[root / 64] & (1 << (root % 64)) == 0, "root not live");
        vis[root / 64] |= 1 << (root % 64);
        cur.reset_to(root as u32);
        if self.want_dense(cur.len, false) {
            cur.make_dense(self.words);
        }
        on_level(0, cur);
        let mut count = 1usize;
        let mut depth = 0usize;
        loop {
            if cur.dense {
                self.step_dense(vis, cur, nxt);
            } else {
                self.step_sparse::<POW2>(vis, cur, nxt);
            }
            if nxt.len == 0 {
                break;
            }
            count += nxt.len;
            depth += 1;
            on_level(depth as u32, nxt);
            // Pick the representation for the next expansion.
            let dense = self.want_dense(nxt.len, nxt.dense);
            if nxt.dense && !dense {
                nxt.make_sparse(self.words);
            } else if !nxt.dense && dense {
                nxt.make_dense(self.words);
            }
            std::mem::swap(cur, nxt);
        }
        (count, depth)
    }

    /// Whether a frontier of `len` nodes should expand bottom-up. The up-
    /// and down-switches use different thresholds ([`DENSE_SWITCH`] /
    /// [`SPARSE_SWITCH`]) so a frontier hovering at the boundary doesn't
    /// pay a conversion per level.
    fn want_dense(&self, len: usize, currently_dense: bool) -> bool {
        let scale = if currently_dense {
            SPARSE_SWITCH
        } else {
            DENSE_SWITCH
        };
        self.dense_capable && len * self.d * scale >= self.n_nodes
    }

    /// Scalar top-down step: walk the queue's edges, test-and-set bits.
    fn step_sparse<const POW2: bool>(
        &self,
        vis: &mut [u64],
        cur: &BitFrontier,
        nxt: &mut BitFrontier,
    ) {
        debug_assert!(!cur.dense);
        nxt.queue.clear();
        for &v in &cur.queue {
            for a in 0..self.d {
                let u = self.succ::<POW2>(v as usize, a);
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

    /// Word-parallel bottom-up step: the block kernel over the whole
    /// bitmap, skipping the blocks whose input words `cur`'s summary marks
    /// empty and writing `nxt`'s summary one word per block.
    fn step_dense(&self, vis: &mut [u64], cur: &BitFrontier, nxt: &mut BitFrontier) {
        debug_assert!(cur.dense && self.dense_capable);
        let (words, sums) = (self.words, sum_words(self.words));
        nxt.len = self.block_kernel(
            &cur.bits[..words],
            Some(&cur.sum[..sums]),
            &mut vis[..words],
            &mut nxt.bits[..words],
            Some(&mut nxt.sum[..sums]),
        );
        nxt.dense = true;
    }

    /// The dense kernel over exactly `self.words` words of each buffer,
    /// with `d` fixed at compile time: [`BitReach::forward_blocks`].
    /// Returns the newly visited node count.
    fn block_kernel(
        &self,
        cur: &[u64],
        cur_sum: Option<&[u64]>,
        vis: &mut [u64],
        nxt: &mut [u64],
        nxt_sum: Option<&mut [u64]>,
    ) -> usize {
        macro_rules! by_d {
            ($($d:literal)*) => {
                match self.d {
                    $($d => self.forward_blocks::<$d>(cur, cur_sum, vis, nxt, nxt_sum),)*
                    d => unreachable!("dense sweeps need a power-of-two d <= 64, got {d}"),
                }
            };
        }
        by_d!(2 4 8 16 32 64)
    }

    /// The forward block kernel. Output word `D·i + r` expands chunk `r`
    /// of `G[i]`, the OR of suffix word `i` over the `D` leading digits
    /// (`cur[i + a·sw]`), so an output block of `bw` words reads the same
    /// `bw / D` suffix words from each of the `D` strides. When
    /// `cur_sum` marks all of them empty the block is zeroed; otherwise
    /// the folds go to a stack tile and the block is expanded, masked
    /// against `vis` and stored in one pass. `nxt_sum`, when given,
    /// receives each block's occupancy word.
    fn forward_blocks<const D: usize>(
        &self,
        cur: &[u64],
        cur_sum: Option<&[u64]>,
        vis: &mut [u64],
        nxt: &mut [u64],
        mut nxt_sum: Option<&mut [u64]>,
    ) -> usize {
        let (sw, bw) = (self.suffix_words, self.words.min(64));
        let gw = bw / D;
        let bits = 64 / D;
        let chunk = u64::MAX >> (64 - bits);
        let mut newly = 0usize;
        let blocks = vis.chunks_exact_mut(bw).zip(nxt.chunks_exact_mut(bw));
        for (b, (vb, nb)) in blocks.enumerate() {
            let i0 = b * gw;
            let empty = cur_sum.is_some_and(|s| (0..D).all(|a| sum_clear(s, a * sw + i0, gw)));
            if empty {
                nb.fill(0);
            } else {
                let mut tile = [0u64; 32];
                let g = &mut tile[..gw];
                for a in 0..D {
                    for (gk, &c) in g.iter_mut().zip(&cur[a * sw + i0..][..gw]) {
                        *gk |= c;
                    }
                }
                let (vc, _) = vb.as_chunks_mut::<D>();
                let (nc, _) = nb.as_chunks_mut::<D>();
                for ((v, n), &gk) in vc.iter_mut().zip(nc.iter_mut()).zip(g.iter()) {
                    for r in 0..D {
                        let new = expand_d::<D>((gk >> (r * bits)) & chunk) & !v[r];
                        v[r] |= new;
                        n[r] = new;
                        newly += new.count_ones() as usize;
                    }
                }
            }
            if let Some(s) = nxt_sum.as_deref_mut() {
                s[b] = if empty { 0 } else { occupancy(nb) };
            }
        }
        newly
    }

    /// The dense step with no summaries: the block kernel on every block
    /// (nothing is skipped), the contract of
    /// [`crate::oracle::kernel_step_scalar`] minus the fold buffer.
    /// All buffers cover the shape's full word count.
    ///
    /// # Panics
    /// Panics if the shape is not dense-capable.
    pub fn kernel_step_fused(&self, cur: &[u64], vis: &mut [u64], nxt: &mut [u64]) -> usize {
        assert!(self.dense_capable, "the shape has no dense sweeps");
        let words = self.words;
        let (cur, vis, nxt) = (&cur[..words], &mut vis[..words], &mut nxt[..words]);
        self.block_kernel(cur, None, vis, nxt, None)
    }
}

impl BitReach {
    /// [`BitReach::forward`] writing every reached node's forward level
    /// into `levels` (grown to the node space; every other slot
    /// [`UNREACHED`]): identical visited set, count and depth. A dense
    /// level is written one bitmap word at a time
    /// (`LevelVec::set_word`), a sparse one node by node. This is the
    /// pass `Ffc::embed_into` writes its tree stage's levels with.
    pub fn forward_levels(
        &self,
        s: &mut BitScratch,
        root: usize,
        levels: &mut LevelVec,
    ) -> (usize, usize) {
        self.pass(s, root, self.level_writer(levels))
    }

    /// [`BitReach::forward_levels`] for a from-scratch rebuild of
    /// [`crate::ffc::RingMaintainer`]: `counts` receives the number of
    /// nodes on each level (cleared first; `counts.len()` ends up
    /// `depth + 1`), and `reached_bits` the reached set `fwd ∧ ¬dead`.
    /// Returns `(reached, depth)`.
    pub fn forward_levels_reached(
        &self,
        s: &mut BitScratch,
        root: usize,
        levels: &mut LevelVec,
        counts: &mut Vec<u32>,
        reached_bits: &mut [u64],
    ) -> (usize, usize) {
        let mut write = self.level_writer(levels);
        counts.clear();
        let found = self.pass(s, root, |l, f| {
            counts.push(f.len as u32);
            write(l, f);
        });
        let w = self.words;
        for ((b, &f), &x) in reached_bits[..w]
            .iter_mut()
            .zip(&s.fwd[..w])
            .zip(&s.dead[..w])
        {
            *b = f & !x;
        }
        found
    }
}

// ----------------------------------------------------------------------
// The delta level-repair passes (incremental reachability).
// ----------------------------------------------------------------------

/// Returned by a delta pass when its batch's queue work exceeds the
/// batch's budget — the signal that a from-scratch recompute is cheaper
/// than continuing the delta (the [`crate::ffc::RingMaintainer`] then
/// falls back to a full rebuild).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaBudgetExceeded {
    /// Queue pops the batch performed, over all of its passes, before
    /// giving up.
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
/// ([`BitReach::levels_delete`] / [`BitReach::levels_insert`]), which run
/// in **batches**:
///
/// * [`DeltaScratch::open`] starts a batch: one budget of queue pops and
///   an empty change log. Every pass until the next `open` charges its
///   pops to that budget, and the pass that takes the batch's total past
///   it fails with [`DeltaBudgetExceeded`].
/// * Every pass appends each node whose level it changed to the log
///   *before* writing the node's new level. A node already in the log
///   keeps its entry, so a log spanning several passes holds each changed
///   node once, with its level before the first pass that changed it.
///   Because no level is written before it is logged, the log is complete
///   after a budget abort too: writing each logged node's old level back
///   restores the array the batch started from.
///
/// Both passes drain one monotone two-level queue: every push lands
/// exactly one level above the level being drained, so a sorted seed list
/// plus a current/next ping-pong replaces a priority queue at O(1) per
/// operation. Two bitmaps, one bit per node each, dedup the queue and the
/// log: a node's queued bit is set while it has an entry in the drain that
/// has not been popped (a seed's when its level is merged in), and its
/// logged bit while it is in the log.
///
/// Grow-only. [`DeltaScratch::fit`] sizes the bitmaps and reserves the
/// queues, the log and the seed list for batches up to a pop cap, so such
/// batches perform no heap allocation after warm-up.
#[derive(Clone, Debug, Default)]
pub struct DeltaScratch {
    /// Seed entries as packed `level << 32 | node`, sorted ascending and
    /// merged into the drain level by level.
    seeds: Vec<u64>,
    /// Nodes pending at the level currently being drained.
    cur: Vec<u32>,
    /// Nodes pending one level up.
    nxt: Vec<u32>,
    /// Bit `v` set ⟺ node `v` has an entry in `cur` or `nxt` that has not
    /// been popped: at most one per node, so pushes are deduped.
    queued: Vec<u64>,
    /// The nodes of the current log, in first-change order.
    changed: Vec<u32>,
    /// The level of each logged node before its first logged change
    /// (parallel to `changed`; [`UNREACHED`] for nodes that entered the
    /// structure).
    old_levels: Vec<u32>,
    /// Bit `v` set ⟺ node `v` is in the current log.
    logged: Vec<u64>,
    /// Whether a batch was ever opened.
    opened: bool,
    /// Queue pops the open batch may perform.
    budget: usize,
    /// Queue pops the open batch has performed so far.
    pops: usize,
}

impl DeltaScratch {
    /// Creates an empty scratch; [`DeltaScratch::open`] must start a batch
    /// before the first pass, and the passes size the bitmaps.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the two bitmaps for `reach`'s graph and reserves the queues,
    /// the change log and the seed list for every batch of at most `pops`
    /// queue pops whose passes each seed from at most `seeded` nodes. A
    /// pop pushes at most d + 1 queue entries and logs at most d nodes,
    /// and a seeded node stages at most d seeds and logs itself, so the
    /// queues and the log are reserved for (d + 1)·(`pops` + `seeded`)
    /// entries, and the seed list for d·`seeded` + 1. The queues and the
    /// log never hold more entries than the graph has nodes, which caps
    /// the reservation: `fit(reach, n_nodes, 0)` covers every batch on the
    /// graph and leaves the seed list to grow with the largest pass.
    /// Grow-only. A pass sizes the bitmaps itself and lets the queues and
    /// the log grow as it needs, so a scratch works without this call but
    /// may then allocate inside a pass.
    pub fn fit(&mut self, reach: &BitReach, pops: usize, seeded: usize) {
        let d = reach.d;
        let entries = (d + 1)
            .saturating_mul(pops.saturating_add(seeded))
            .min(reach.n_nodes);
        grow_to(&mut self.queued, reach.words, 0);
        grow_to(&mut self.logged, reach.words, 0);
        reserve_more(&mut self.cur, entries);
        reserve_more(&mut self.nxt, entries);
        reserve_more(&mut self.changed, entries);
        reserve_more(&mut self.old_levels, entries);
        reserve_more(&mut self.seeds, d * seeded + 1);
    }

    /// Starts a batch: every pass until the next `open` shares `budget`
    /// queue pops, and the change log starts empty.
    pub fn open(&mut self, budget: usize) {
        self.budget = budget;
        self.pops = 0;
        self.opened = true;
        for &v in &self.changed {
            clear_bit(&mut self.logged, v as usize);
        }
        self.changed.clear();
        self.old_levels.clear();
    }

    /// `(node, level before its first logged change)` pairs of the
    /// current log: each changed node once, in first-change order.
    pub fn changed(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.changed
            .iter()
            .copied()
            .zip(self.old_levels.iter().copied())
    }

    /// Writes every logged node's level before the batch back into
    /// `levels` and empties the log: `levels` is again the array the
    /// batch's first pass started from. Exact after a budget abort too,
    /// since a pass logs every node before it writes the node's level.
    pub(crate) fn undo<L: LevelStore>(&mut self, levels: &mut L) {
        for (&v, &old) in self.changed.iter().zip(&self.old_levels) {
            levels.set_level(v as usize, old);
            clear_bit(&mut self.logged, v as usize);
        }
        self.changed.clear();
        self.old_levels.clear();
    }

    /// Total bytes currently reserved by the scratch's buffers.
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        4 * (self.changed.capacity()
            + self.old_levels.capacity()
            + self.cur.capacity()
            + self.nxt.capacity())
            + 8 * (self.seeds.capacity() + self.queued.capacity() + self.logged.capacity())
    }

    /// The largest graph the bitmaps and the queue and log reservations
    /// cover.
    #[cfg(test)]
    pub(crate) fn fitted_nodes(&self) -> usize {
        let caps = [self.cur.capacity(), self.nxt.capacity()];
        let logs = [self.changed.capacity(), self.old_levels.capacity()];
        let bits = [64 * self.queued.len(), 64 * self.logged.len()];
        caps.into_iter().chain(logs).chain(bits).min().unwrap_or(0)
    }

    /// Starts a pass: sizes the bitmaps for the graph, clears the queues
    /// and reserves `seed_cap` seeds.
    fn begin(&mut self, reach: &BitReach, seed_cap: usize) {
        assert!(self.opened, "DeltaScratch::open must start a batch");
        grow_to(&mut self.queued, reach.words, 0);
        grow_to(&mut self.logged, reach.words, 0);
        self.seeds.clear();
        self.cur.clear();
        self.nxt.clear();
        reserve_more(&mut self.seeds, seed_cap);
    }

    /// Logs `v` with its level `old` before this change, unless it is
    /// already in the current log.
    #[inline]
    fn record(&mut self, v: u32, old: u32) {
        if !test_and_set(&mut self.logged, v as usize) {
            self.changed.push(v);
            self.old_levels.push(old);
        }
    }

    /// Stages `v` as a seed at level `l`. Duplicates are dropped when the
    /// level is merged into the drain.
    #[inline]
    fn push_seed(&mut self, v: usize, l: u32) {
        self.seeds.push((u64::from(l) << 32) | v as u64);
    }

    /// Queues `v` one level above the level being drained, unless it is
    /// already queued.
    #[inline]
    fn push_next(&mut self, v: usize) {
        if !test_and_set(&mut self.queued, v) {
            self.nxt.push(v as u32);
        }
    }

    /// The drain both passes share. Merges the sorted seeds into the queue
    /// level by level, skipping nodes already queued, and hands each entry
    /// whose node still holds the level it was queued at to `step(ds,
    /// levels, node, level)`, which may queue nodes one level up
    /// ([`DeltaScratch::push_next`]). Each such pop is charged to the open
    /// batch; the pop that takes the batch past its budget aborts the
    /// drain.
    fn drain<L: LevelStore>(
        &mut self,
        levels: &mut L,
        mut step: impl FnMut(&mut Self, &mut L, u32, u32),
    ) -> Result<(), DeltaBudgetExceeded> {
        if self.seeds.is_empty() {
            return Ok(());
        }
        self.seeds.sort_unstable();
        let mut si = 0usize;
        let mut l = (self.seeds[0] >> 32) as u32;
        loop {
            while si < self.seeds.len() && (self.seeds[si] >> 32) as u32 == l {
                let v = self.seeds[si] as u32;
                si += 1;
                if !test_and_set(&mut self.queued, v as usize) {
                    self.cur.push(v);
                }
            }
            if self.cur.is_empty() {
                if si >= self.seeds.len() {
                    break;
                }
                l = (self.seeds[si] >> 32) as u32;
                continue;
            }
            let mut head = 0usize;
            while head < self.cur.len() {
                let u = self.cur[head];
                head += 1;
                clear_bit(&mut self.queued, u as usize);
                if levels.level(u as usize) != l {
                    continue; // stale entry
                }
                self.pops += 1;
                if self.pops > self.budget {
                    self.abort();
                    return Err(DeltaBudgetExceeded { pops: self.pops });
                }
                step(self, levels, u, l);
            }
            self.cur.clear();
            std::mem::swap(&mut self.cur, &mut self.nxt);
            l += 1;
            if self.cur.is_empty() && si >= self.seeds.len() {
                break;
            }
        }
        Ok(())
    }

    /// Clears the queued bits of every still-queued entry (budget aborts
    /// leave the queues mid-drain; unmerged seeds hold no bit).
    fn abort(&mut self) {
        for &u in self.cur.iter().chain(&self.nxt) {
            clear_bit(&mut self.queued, u as usize);
        }
        self.cur.clear();
        self.nxt.clear();
        self.seeds.clear();
    }
}

/// Sets bit `v` of `bits` and returns whether it was set before.
#[inline]
pub(crate) fn test_and_set(bits: &mut [u64], v: usize) -> bool {
    let (w, m) = (v / 64, 1u64 << (v % 64));
    let was = bits[w] & m != 0;
    bits[w] |= m;
    was
}

/// Clears bit `v` of `bits`.
#[inline]
pub(crate) fn clear_bit(bits: &mut [u64], v: usize) {
    bits[v / 64] &= !(1u64 << (v % 64));
}

impl BitReach {
    /// Batch **node-deletion** repair of a BFS level array — the delta
    /// pass behind [`crate::ffc::RingMaintainer::add_fault`].
    ///
    /// `levels[v]` holds the BFS distance from a fixed root over the
    /// subgraph induced by `member` (with `UNREACHED` outside), following
    /// successor edges. The caller has just removed `deleted` from the
    /// membership (each of them must already test `!member`); this
    /// pass sets their levels to [`UNREACHED`], then repairs every other
    /// node whose distance grew, Even–Shiloach style: nodes are
    /// re-evaluated in increasing level order, a node with a surviving
    /// predecessor one level up stays put, and a node without one is
    /// bumped a level and its dependents re-enqueued, until the array
    /// again equals what a from-scratch BFS over the new membership would
    /// produce — **bit-identical to recompute** (levels are canonical, so
    /// this is exact, not approximate).
    ///
    /// Levels only ever increase; a node whose level would reach
    /// `n_nodes` is unreachable and goes to [`UNREACHED`] directly. Every
    /// node whose level changed (including the deleted nodes) is appended
    /// to `ds`'s change log before its level is written, and every queue
    /// pop is charged to `ds`'s open batch (see [`DeltaScratch`]).
    ///
    /// # Errors
    /// Returns [`DeltaBudgetExceeded`] when this pass takes the batch's
    /// queue pops past its budget. The levels array is then partially
    /// repaired, but the log still names every node the batch changed with
    /// its level before the batch, so writing those levels back restores
    /// the array the batch started from; a caller that wants the new levels
    /// recomputes them from scratch.
    ///
    /// The root must never be deleted (rebuild instead); `member` must
    /// already reflect the post-deletion membership.
    ///
    /// Generic over [`LevelStore`], so the compact [`LevelVec`] the
    /// engine stores and the plain `u32` arrays the differential oracle
    /// keeps run the exact same monomorphised pass.
    ///
    /// # Panics
    /// Panics if no batch was ever opened on `ds`.
    pub fn levels_delete<L: LevelStore, M: Fn(usize) -> bool>(
        &self,
        levels: &mut L,
        ds: &mut DeltaScratch,
        deleted: &[u32],
        member: M,
    ) -> Result<(), DeltaBudgetExceeded> {
        if self.pow2 {
            self.levels_delete_impl::<true, L, M>(levels, ds, deleted, member)
        } else {
            self.levels_delete_impl::<false, L, M>(levels, ds, deleted, member)
        }
    }

    fn levels_delete_impl<const POW2: bool, L: LevelStore, M: Fn(usize) -> bool>(
        &self,
        levels: &mut L,
        ds: &mut DeltaScratch,
        deleted: &[u32],
        member: M,
    ) -> Result<(), DeltaBudgetExceeded> {
        let d = self.d;
        ds.begin(self, deleted.len() * d + 1);
        // Seed: drop the deleted nodes and stage their dependents. Deleted
        // nodes never test as members, so none of them is staged.
        for &x in deleted {
            let xi = x as usize;
            debug_assert!(!member(xi), "deleted node still tests as a member");
            let lx = levels.level(xi);
            if lx == UNREACHED {
                continue;
            }
            ds.record(x, lx);
            levels.set_level(xi, UNREACHED);
            for a in 0..d {
                let s = self.succ::<POW2>(xi, a);
                if member(s) && levels.level(s) == lx + 1 {
                    ds.push_seed(s, lx + 1);
                }
            }
        }
        ds.drain(levels, |ds, levels, u, l| {
            let ui = u as usize;
            // A surviving predecessor one level up keeps u settled:
            // every level below l is final, so the check is exact.
            let supported = (0..d).any(|a| {
                let p = self.pred::<POW2>(ui, a);
                member(p) && levels.level(p) == l - 1
            });
            if supported {
                return;
            }
            ds.record(u, l);
            for a in 0..d {
                let s = self.succ::<POW2>(ui, a);
                if member(s) && levels.level(s) == l + 1 {
                    ds.push_next(s);
                }
            }
            if l as usize + 1 >= self.n_nodes {
                levels.set_level(ui, UNREACHED);
            } else {
                levels.set_level(ui, l + 1);
                ds.push_next(ui);
            }
        })
    }

    /// Batch **node-insertion** repair of a BFS level array — the delta
    /// pass behind [`crate::ffc::RingMaintainer::clear_fault`], and the
    /// exact mirror of [`BitReach::levels_delete`]: the caller has just
    /// added `inserted` to the membership (each must already test `member`
    /// and carry [`UNREACHED`]), and this pass computes their levels and
    /// relaxes every node whose distance shrank — unit-weight Dijkstra out
    /// of the healed frontier, **bit-identical to recompute**. Levels only
    /// ever decrease; changes are logged and pops charged to the open
    /// batch like the delete pass.
    ///
    /// # Errors
    /// Returns [`DeltaBudgetExceeded`] when this pass takes the batch's
    /// queue pops past its budget (same contract as
    /// [`BitReach::levels_delete`]).
    ///
    /// # Panics
    /// Panics if no batch was ever opened on `ds`.
    pub fn levels_insert<L: LevelStore, M: Fn(usize) -> bool>(
        &self,
        levels: &mut L,
        ds: &mut DeltaScratch,
        inserted: &[u32],
        member: M,
    ) -> Result<(), DeltaBudgetExceeded> {
        if self.pow2 {
            self.levels_insert_impl::<true, L, M>(levels, ds, inserted, member)
        } else {
            self.levels_insert_impl::<false, L, M>(levels, ds, inserted, member)
        }
    }

    fn levels_insert_impl<const POW2: bool, L: LevelStore, M: Fn(usize) -> bool>(
        &self,
        levels: &mut L,
        ds: &mut DeltaScratch,
        inserted: &[u32],
        member: M,
    ) -> Result<(), DeltaBudgetExceeded> {
        let d = self.d;
        ds.begin(self, inserted.len() + 1);
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
                let p = self.pred::<POW2>(xi, a);
                if member(p) && levels.level(p) < best {
                    best = levels.level(p);
                }
            }
            if best != UNREACHED {
                ds.record(x, UNREACHED);
                levels.set_level(xi, best + 1);
                ds.push_seed(xi, best + 1);
            }
        }
        ds.drain(levels, |ds, levels, u, l| {
            for a in 0..d {
                let s = self.succ::<POW2>(u as usize, a);
                if member(s) && levels.level(s) > l + 1 {
                    ds.record(s as u32, levels.level(s));
                    levels.set_level(s, l + 1);
                    ds.push_next(s);
                }
            }
        })
    }

    /// Successor `a` of `v`: the node `v` shifted left with digit `a`
    /// appended. `POW2` compiles the arithmetic to shifts and masks.
    #[inline]
    fn succ<const POW2: bool>(&self, v: usize, a: usize) -> usize {
        if POW2 {
            ((v & (self.suffix - 1)) << self.d_log) + a
        } else {
            (v % self.suffix) * self.d + a
        }
    }

    /// Predecessor `a` of `v`: the node `v` shifted right with digit `a`
    /// prepended. `POW2` compiles the arithmetic to shifts and masks.
    #[inline]
    fn pred<const POW2: bool>(&self, v: usize, a: usize) -> usize {
        if POW2 {
            (v >> self.d_log) + (a << self.suffix_log)
        } else {
            v / self.d + a * self.suffix
        }
    }
}

/// Number of summary words covering `words` bitmap words (one summary
/// *bit* per word, one summary *word* per 64-word / 4096-node block).
#[inline]
#[must_use]
pub fn sum_words(words: usize) -> usize {
    words.div_ceil(64)
}

/// Whether `sum` marks none of the bitmap words `base..base + len`, an
/// aligned range: `len` is a power of two and divides `base`, so below 64
/// words it lies inside one summary word.
#[inline]
fn sum_clear(sum: &[u64], base: usize, len: usize) -> bool {
    if len >= 64 {
        sum[base >> 6..(base + len) >> 6].iter().all(|&s| s == 0)
    } else {
        (sum[base >> 6] >> (base & 63)) & ((1u64 << len) - 1) == 0
    }
}

/// The summary word of a block of at most 64 bitmap words: bit `j` set
/// iff `block[j] != 0`. Each run of eight words becomes one flag byte per
/// word, and one multiply gathers the eight flags into the top byte (the
/// eight partial products land on distinct bits, so nothing carries).
#[inline]
fn occupancy(block: &[u64]) -> u64 {
    let flag = |w: u64| u64::from(w != 0);
    let (octets, rest) = block.as_chunks::<8>();
    let mut occ = 0u64;
    for (k, oct) in octets.iter().enumerate() {
        let bytes = (0..8).fold(0, |x, i| x | flag(oct[i]) << (8 * i));
        occ |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    let done = 8 * octets.len();
    (rest.iter().enumerate()).fold(occ, |o, (j, &w)| o | flag(w) << (done + j))
}

/// Duplicates each of the low `64 / D` bits of `x` into `D` adjacent bits
/// ([`spread2`] applied log2 `D` times).
#[inline(always)]
fn expand_d<const D: usize>(x: u64) -> u64 {
    let mut x = x;
    for _ in 0..D.trailing_zeros() {
        x = spread2(x);
    }
    x
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
    for_each_word_skip(bits, sum, |j, mut w| {
        while w != 0 {
            out.push((j * 64) as u32 + w.trailing_zeros());
            w &= w - 1;
        }
    });
}

/// Calls `f(j, bits[j])` on every word whose summary bit is set, in
/// increasing `j` (a marked word may be zero).
fn for_each_word_skip(bits: &[u64], sum: &[u64], mut f: impl FnMut(usize, u64)) {
    for (sj, &sword) in sum.iter().enumerate() {
        let mut s = sword;
        while s != 0 {
            let j = sj * 64 + s.trailing_zeros() as usize;
            s &= s - 1;
            if j >= bits.len() {
                break;
            }
            f(j, bits[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffc::Ffc;
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

    /// Every pass must agree with the scalar oracle (forward counts and
    /// depths, B* and its broadcast levels) in both regimes and
    /// across the switches between them. B(2,7) expands densely from the
    /// root, and B(2,14) switches sparse → dense on the way out and dense
    /// → sparse in the tail; the forward passes' per-level regimes pin
    /// that all three occur.
    #[test]
    fn passes_match_scalar_oracle_across_density_switches() {
        let shapes = [
            (2usize, 1 << 9),
            (2, 1 << 7),
            (4, 1 << 10),
            (3, 243),
            (8, 512),
            (2, 1 << 14),
        ];
        let mut rng = StdRng::seed_from_u64(2026);
        let (mut dense_root, mut to_dense, mut to_sparse) = (false, false, false);
        for &(d, n_nodes) in &shapes {
            let reach = BitReach::new(d, n_nodes);
            for trial in 0..24 {
                let root = 1usize;
                let deaths = [0, 1, 3, n_nodes / 20, n_nodes / 4][trial % 5];
                let dead = random_dead(n_nodes, deaths, root, &mut rng);
                let (fl, fwd_reached, fwd_depth) = oracle_bfs(d, n_nodes, &dead, root, false, None);
                let (bl, _, _) = oracle_bfs(d, n_nodes, &dead, root, true, None);
                let bstar: Vec<bool> = (0..n_nodes)
                    .map(|v| fl[v] != usize::MAX && bl[v] != usize::MAX)
                    .collect();
                let component = bstar.iter().filter(|&&x| x).count();
                let (vl, _, ecc) = oracle_bfs(d, n_nodes, &dead, root, false, Some(&bstar));
                let tag = format!("d={d} n={n_nodes} deaths={deaths}");
                let mut s = BitScratch::new();
                reach.prepare(&mut s);
                for (v, &x) in dead.iter().enumerate() {
                    if x {
                        reach.kill(&mut s, v);
                    }
                }
                // Level l's flag is the regime level l − 1 expanded in
                // (the root's: the regime it starts in).
                let mut regimes = Vec::new();
                let got = reach.pass(&mut s, root, |_, f| regimes.push(f.is_dense()));
                assert_eq!(got, (fwd_reached, fwd_depth), "forward {tag}");
                dense_root |= regimes[0];
                to_dense |= regimes.windows(2).any(|w| !w[0] && w[1]);
                to_sparse |= regimes.windows(2).any(|w| w[0] && !w[1]);
                reach.backward(&mut s, root);
                let mut nodes = Vec::new();
                let mut offsets = Vec::new();
                let (breached, bdepth) =
                    reach.broadcast_levels(&mut s, root, &mut nodes, &mut offsets);
                assert_eq!(bdepth, ecc, "broadcast depth {tag}");
                assert_eq!(breached, component, "broadcast covers B* {tag}");
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
                    assert_eq!(lvl, want, "level {l} {tag}");
                }
            }
        }
        assert!(dense_root, "no forward pass started dense at the root");
        assert!(to_dense, "no forward pass switched sparse -> dense");
        assert!(to_sparse, "no forward pass switched dense -> sparse");
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
        let (mut nodes, mut offsets) = (Vec::new(), Vec::new());
        for &(d, n_nodes) in &[(2usize, 1 << 10), (4, 256), (2, 64), (3, 81), (2, 1 << 10)] {
            let reach = BitReach::new(d, n_nodes);
            reach.prepare(&mut s);
            reach.kill(&mut s, 0); // kill the self-loop word 0^n
            let (count, _) = reach.forward(&mut s, 1);
            reach.backward(&mut s, 1);
            assert_eq!(count, n_nodes - 1, "d={d} n={n_nodes}");
            let (component, _) = reach.broadcast_levels(&mut s, 1, &mut nodes, &mut offsets);
            assert_eq!(component, n_nodes - 1, "d={d} n={n_nodes}");
        }
    }

    #[test]
    fn dense_capability_matches_shape() {
        assert!(BitReach::new(2, 1 << 10).dense_capable());
        assert!(BitReach::new(4, 1 << 10).dense_capable());
        assert!(!BitReach::new(3, 243).dense_capable()); // not pow2
        assert!(!BitReach::new(2, 32).dense_capable()); // suffix below a word
    }

    /// The level writer against per-node [`LevelVec::set`]: a dense
    /// frontier goes word by word ([`LevelVec::set_word`]) at an inline
    /// level and node by node above the inline maximum (253), a sparse
    /// frontier node by node. Each leaves the bytes and side table the
    /// per-node writes leave.
    #[test]
    fn level_writer_matches_per_node_set() {
        let n_nodes = 1usize << 14;
        let reach = BitReach::new(2, n_nodes);
        let words = n_nodes / 64;
        let mut rng = StdRng::seed_from_u64(0x5E7_3071);
        let bits: Vec<u64> = (0..words)
            .map(|_| rng.next_u64() & rng.next_u64())
            .collect();
        let mut sum = vec![0u64; sum_words(words)];
        summarize_bits(&bits, &mut sum);
        let dense = BitFrontier {
            queue: Vec::new(),
            bits: bits.clone(),
            sum,
            dense: true,
            len: 0,
        };
        let queue: Vec<u32> = (0..500).map(|_| rng.gen_range(0..n_nodes as u32)).collect();
        let sparse = BitFrontier {
            queue: queue.clone(),
            bits: Vec::new(),
            sum: Vec::new(),
            dense: false,
            len: queue.len(),
        };
        let dense_nodes: Vec<usize> = (0..n_nodes)
            .filter(|&v| bits[v / 64] >> (v % 64) & 1 == 1)
            .collect();
        for (l_dense, l_sparse) in [(3, 9), (253, 254), (300, 5), (7, 400), (600, 700)] {
            let mut got = LevelVec::new();
            {
                let mut write = reach.level_writer(&mut got);
                write(l_dense, &dense);
                write(l_sparse, &sparse);
            }
            let mut want = LevelVec::new();
            want.grow(n_nodes);
            dense_nodes.iter().for_each(|&v| want.set(v, l_dense));
            queue.iter().for_each(|&v| want.set(v as usize, l_sparse));
            let tag = format!("dense level {l_dense}, sparse level {l_sparse}");
            assert_eq!(got.as_bytes(), want.as_bytes(), "{tag}");
            let sorted = |lv: &LevelVec| {
                let mut o = lv.overflow().to_vec();
                o.sort_unstable();
                o
            };
            assert_eq!(sorted(&got), sorted(&want), "{tag}");
        }
    }

    /// Every level-emitting pass must produce the scalar oracle's levels:
    /// the forward pass into a [`LevelVec`] (the rebuild's variant also
    /// returning the per-level counts and the reached set), and the CSR
    /// broadcast over fwd ∧ bwd scattered by hand.
    #[test]
    fn level_emitting_passes_match_oracle() {
        let shapes = [
            (2usize, 1 << 10),
            (4, 1 << 10),
            (2, 1 << 7),
            (3, 243),
            (5, 625),
        ];
        let mut rng = StdRng::seed_from_u64(0x1e7e15);
        let as_u32 = |lv: &[usize]| -> Vec<u32> {
            lv.iter()
                .map(|&l| if l == usize::MAX { UNREACHED } else { l as u32 })
                .collect()
        };
        let read = |lv: &LevelVec, n_nodes: usize| -> Vec<u32> {
            (0..n_nodes).map(|v| lv.get(v)).collect()
        };
        for &(d, n_nodes) in &shapes {
            let reach = BitReach::new(d, n_nodes);
            for trial in 0..6 {
                let root = 1usize;
                let deaths = [0, 1, n_nodes / 16, n_nodes / 3][trial % 4];
                let dead = random_dead(n_nodes, deaths, root, &mut rng);
                let tag = format!("d={d} n={n_nodes} deaths={deaths}");
                let (fl, fwd_reached, fwd_depth) = oracle_bfs(d, n_nodes, &dead, root, false, None);
                let (bl, _, _) = oracle_bfs(d, n_nodes, &dead, root, true, None);
                let bstar: Vec<bool> = (0..n_nodes)
                    .map(|v| fl[v] != usize::MAX && bl[v] != usize::MAX)
                    .collect();
                let component = bstar.iter().filter(|&&x| x).count();
                let (vl, _, ecc) = oracle_bfs(d, n_nodes, &dead, root, false, Some(&bstar));
                let mut s = BitScratch::new();
                reach.prepare(&mut s);
                for (v, &x) in dead.iter().enumerate() {
                    if x {
                        reach.kill(&mut s, v);
                    }
                }
                // A stale level left in the array must not survive a pass.
                let mut lv = LevelVec::new();
                lv.grow(n_nodes);
                lv.set(0, 3);
                let got = reach.forward_levels(&mut s, root, &mut lv);
                assert_eq!(got, (fwd_reached, fwd_depth), "forward {tag}");
                assert_eq!(read(&lv, n_nodes), as_u32(&fl), "forward {tag}");

                lv.set(0, 3);
                let mut counts = vec![7u32];
                let mut bits = vec![u64::MAX; n_nodes.div_ceil(64)];
                let got =
                    reach.forward_levels_reached(&mut s, root, &mut lv, &mut counts, &mut bits);
                assert_eq!(got, (fwd_reached, fwd_depth), "rebuild forward {tag}");
                assert_eq!(read(&lv, n_nodes), as_u32(&fl), "rebuild forward {tag}");
                for (v, &l) in fl.iter().enumerate() {
                    let want = l != usize::MAX;
                    assert_eq!(bits[v / 64] >> (v % 64) & 1 == 1, want, "reached {v} {tag}");
                }
                let want_counts: Vec<u32> = (0..=fwd_depth)
                    .map(|l| fl.iter().filter(|&&x| x == l).count() as u32)
                    .collect();
                assert_eq!(counts, want_counts, "level counts {tag}");

                reach.backward(&mut s, root);
                let (mut nodes, mut offsets) = (vec![9u32], vec![9u32]);
                let got = reach.broadcast_levels(&mut s, root, &mut nodes, &mut offsets);
                assert_eq!(got, (component, ecc), "CSR broadcast {tag}");
                let mut scattered = vec![UNREACHED; n_nodes];
                for (l, level) in offsets.windows(2).enumerate() {
                    for &v in &nodes[level[0] as usize..level[1] as usize] {
                        scattered[v as usize] = l as u32;
                    }
                }
                assert_eq!(scattered, as_u32(&vl), "CSR broadcast {tag}");
            }
        }
    }

    /// The forward levels [`BitReach::forward_levels`] writes from `root`
    /// with the `dead` nodes killed, and the oracle's broadcast levels over
    /// B* — its forward ∩ backward set — each as a `u32` array with
    /// [`UNREACHED`] holes and with its (reached, depth).
    fn forward_and_bstar_levels(
        reach: &BitReach,
        dead: &[bool],
        root: usize,
        s: &mut BitScratch,
        lv: &mut LevelVec,
    ) -> [(Vec<u32>, (usize, usize)); 2] {
        let (d, n_nodes) = (reach.d, dead.len());
        reach.prepare(s);
        for v in (0..n_nodes).filter(|&v| dead[v]) {
            reach.kill(s, v);
        }
        let got = reach.forward_levels(s, root, lv);
        let (fl, _, _) = oracle_bfs(d, n_nodes, dead, root, false, None);
        let (bl, _, _) = oracle_bfs(d, n_nodes, dead, root, true, None);
        let bstar: Vec<bool> = (0..n_nodes)
            .map(|v| fl[v] != usize::MAX && bl[v] != usize::MAX)
            .collect();
        let (vl, component, ecc) = oracle_bfs(d, n_nodes, dead, root, false, Some(&bstar));
        let want = vl
            .iter()
            .map(|&l| if l == usize::MAX { UNREACHED } else { l as u32 })
            .collect();
        [
            ((0..n_nodes).map(|v| lv.get(v)).collect(), got),
            (want, (component, ecc)),
        ]
    }

    /// The fact the engine's one-pass embedding rests on: when faults kill
    /// whole necklaces, the set [`BitReach::forward`] reaches from any live
    /// root is B*, the oracle's forward ∩ backward set, and its levels are
    /// the broadcast levels over B*. Every edge αz → zβ between two
    /// necklaces has a twin βz → zα between the same two the other way.
    /// Checked on every necklace subset of B(2,3)–B(2,6), B(3,2), B(3,3),
    /// B(4,2) and B(5,2), with the root on a live necklace chosen by the
    /// subset, and on seeded random subsets of up to 70% of the necklaces
    /// of B(2,10), B(3,5), B(4,4) and B(8,3) (the dense regime included).
    /// The negative control kills single nodes of B(2,5) instead of
    /// necklaces and must find a root whose forward set is not B*.
    #[test]
    fn forward_set_is_bstar_under_necklace_faults() {
        let mut s = BitScratch::new();
        let mut lv = LevelVec::new();
        let kill = |ffc: &Ffc, dead_necks: &[bool]| -> Vec<bool> {
            let membership = ffc.partition().membership();
            membership.iter().map(|&m| dead_necks[m as usize]).collect()
        };
        let mut cases = 0usize;
        for (d, n) in [
            (2u64, 3u32),
            (2, 4),
            (2, 5),
            (2, 6),
            (3, 2),
            (3, 3),
            (4, 2),
            (5, 2),
        ] {
            let ffc = Ffc::new(d, n);
            let reach = BitReach::new(d as usize, ffc.graph().len());
            let necks = ffc.partition().len();
            for subset in 0..(1usize << necks) - 1 {
                let dead_necks: Vec<bool> = (0..necks).map(|k| subset >> k & 1 == 1).collect();
                let live: Vec<usize> = (0..necks).filter(|&k| !dead_necks[k]).collect();
                let root = ffc.partition().members(live[subset % live.len()])[0] as usize;
                let dead = kill(&ffc, &dead_necks);
                let [got, want] = forward_and_bstar_levels(&reach, &dead, root, &mut s, &mut lv);
                assert_eq!(
                    got, want,
                    "B({d},{n}) dead necklaces {subset:#b} root {root}"
                );
                cases += 1;
            }
        }
        assert_eq!(cases, 15 + 63 + 255 + 16383 + 63 + 2047 + 1023 + 32767);
        let mut rng = StdRng::seed_from_u64(0xF0B5);
        for (d, n) in [(2u64, 10u32), (3, 5), (4, 4), (8, 3)] {
            let ffc = Ffc::new(d, n);
            let reach = BitReach::new(d as usize, ffc.graph().len());
            let necks = ffc.partition().len();
            for trial in 0..60 {
                let mut order: Vec<usize> = (0..necks).collect();
                for i in (1..necks).rev() {
                    order.swap(i, rng.gen_range(0..i + 1));
                }
                let killed = rng.gen_range(0..necks * 7 / 10 + 1);
                let mut dead_necks = vec![false; necks];
                order[..killed].iter().for_each(|&k| dead_necks[k] = true);
                let members = ffc.partition().members(order[rng.gen_range(killed..necks)]);
                let root = members[rng.gen_range(0..members.len())] as usize;
                let dead = kill(&ffc, &dead_necks);
                let [got, want] = forward_and_bstar_levels(&reach, &dead, root, &mut s, &mut lv);
                assert_eq!(
                    got, want,
                    "B({d},{n}) trial {trial}: {killed} necklaces, root {root}"
                );
            }
        }
        let reach = BitReach::new(2, 32);
        let mut differ = 0usize;
        for v in 0..32 {
            let mut dead = vec![false; 32];
            dead[v] = true;
            for root in (0..32).filter(|&r| r != v) {
                let [got, want] = forward_and_bstar_levels(&reach, &dead, root, &mut s, &mut lv);
                differ += usize::from(got != want);
            }
        }
        assert!(
            differ > 0,
            "single-node faults never split the forward set from B*"
        );
    }

    /// Scalar level oracle as a u32 array with [`UNREACHED`] holes.
    fn oracle_levels(d: usize, n_nodes: usize, member: &[bool], root: usize) -> Vec<u32> {
        let dead: Vec<bool> = member.iter().map(|&m| !m).collect();
        let (lv, _, _) = oracle_bfs(d, n_nodes, &dead, root, false, None);
        lv.iter()
            .map(|&l| if l == usize::MAX { UNREACHED } else { l as u32 })
            .collect()
    }

    /// The delta passes must be **bit-identical to recompute**: after any
    /// batch of deletions or insertions, the repaired level array equals a
    /// from-scratch BFS over the new membership — across several mutation
    /// rounds on the same scratch, and the changed log must name exactly
    /// the nodes whose level differs (with their true pre-pass levels).
    #[test]
    fn delta_passes_are_bit_identical_to_recompute() {
        let shapes = [(2usize, 1 << 9), (3, 243), (4, 256), (2, 64)];
        let mut rng = StdRng::seed_from_u64(0xde17a);
        for &(d, n_nodes) in &shapes {
            let reach = BitReach::new(d, n_nodes);
            let root = 1usize;
            let mut member = vec![true; n_nodes];
            let mut levels = oracle_levels(d, n_nodes, &member, root);
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
                ds.open(usize::MAX);
                if delete {
                    for &v in &batch {
                        member[v as usize] = false;
                        removed.push(v);
                    }
                    reach
                        .levels_delete(&mut levels, &mut ds, &batch, |u| member[u])
                        .expect("unbounded budget");
                } else {
                    for &v in &batch {
                        member[v as usize] = true;
                    }
                    reach
                        .levels_insert(&mut levels, &mut ds, &batch, |u| member[u])
                        .expect("unbounded budget");
                }
                let want = oracle_levels(d, n_nodes, &member, root);
                assert_eq!(
                    levels, want,
                    "d={d} n={n_nodes} round={round} delete={delete}"
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

    /// A pathological deletion (large detached cycle) must trip the work
    /// budget instead of grinding level-by-level to the cap. The change log
    /// then restores the array the batch started from (a stats-only sweep
    /// trial undoes a budget abort this way), and an unbounded retry from
    /// there converges to the recompute.
    #[test]
    fn delta_delete_respects_the_work_budget() {
        let (d, n_nodes) = (2usize, 1 << 9);
        let reach = BitReach::new(d, n_nodes);
        let root = 1usize;
        let mut member = vec![true; n_nodes];
        let mut levels = oracle_levels(d, n_nodes, &member, root);
        let before = levels.clone();
        let mut ds = DeltaScratch::new();
        // Kill a thick band of nodes: plenty of cascading work.
        let batch: Vec<u32> = (64..256u32).collect();
        for &v in &batch {
            member[v as usize] = false;
        }
        ds.open(3);
        let err = reach
            .levels_delete(&mut levels, &mut ds, &batch, |u| member[u])
            .expect_err("three pops cannot absorb a 192-node deletion");
        assert!(err.pops > 3);
        assert_ne!(levels, before, "the aborted pass left no partial state");
        ds.undo(&mut levels);
        assert_eq!(levels, before, "undo after a budget abort");
        ds.open(usize::MAX);
        reach
            .levels_delete(&mut levels, &mut ds, &batch, |u| member[u])
            .expect("unbounded budget");
        assert_eq!(levels, oracle_levels(d, n_nodes, &member, root));
    }

    /// One budget spans every pass of a batch. At B(2,10), deleting both
    /// predecessors of node 700 (pass A) and then both predecessors of
    /// node 300 (pass B) each fit 3000 pops on their own — each sends its
    /// node climbing toward `n_nodes` — but not together: under one
    /// batch the second pass fails with the batch's total.
    #[test]
    fn delta_budget_spans_every_pass_of_a_batch() {
        let (d, n_nodes) = (2usize, 1 << 10);
        let reach = BitReach::new(d, n_nodes);
        let root = 1usize;
        let (a, b) = ([350u32, 862], [150u32, 662]);
        let mut ds = DeltaScratch::new();
        for pass in [&a, &b] {
            let mut member = vec![true; n_nodes];
            let mut levels = oracle_levels(d, n_nodes, &member, root);
            for &v in pass {
                member[v as usize] = false;
            }
            ds.open(3000);
            reach
                .levels_delete(&mut levels, &mut ds, pass, |u| member[u])
                .expect("one pass alone fits 3000 pops");
        }
        for budget in [3000, usize::MAX] {
            let mut member = vec![true; n_nodes];
            let mut levels = oracle_levels(d, n_nodes, &member, root);
            ds.open(budget);
            for &v in &a {
                member[v as usize] = false;
            }
            reach
                .levels_delete(&mut levels, &mut ds, &a, |u| member[u])
                .expect("pass A fits the batch");
            for &v in &b {
                member[v as usize] = false;
            }
            let got = reach.levels_delete(&mut levels, &mut ds, &b, |u| member[u]);
            if budget == usize::MAX {
                got.expect("unbounded budget");
                assert_eq!(levels, oracle_levels(d, n_nodes, &member, root));
            } else {
                let err = got.expect_err("A and B together exceed 3000 pops");
                assert!(err.pops > 3000, "pops {} count the whole batch", err.pops);
            }
        }
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
        let base = oracle_levels(d, n_nodes, &member, root);
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
        ds.open(500);
        let e1 = reach
            .levels_delete(&mut u32_part, &mut ds, &batch, |u| member[u])
            .expect_err("a 1000-step climb cannot fit 500 pops");
        ds.open(500);
        let e2 = reach
            .levels_delete(&mut lv_part, &mut ds, &batch, |u| member[u])
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
        ds.open(usize::MAX);
        reach
            .levels_delete(&mut u32_levels, &mut ds, &batch, |u| member[u])
            .expect("unbounded budget");
        ds.open(usize::MAX);
        reach
            .levels_delete(&mut lv, &mut ds, &batch, |u| member[u])
            .expect("unbounded budget");
        let want = oracle_levels(d, n_nodes, &member, root);
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

    #[test]
    fn no_allocation_after_first_pass_in_both_regimes() {
        let reach = BitReach::new(2, 1 << 12);
        let mut s = BitScratch::new();
        let (mut nodes, mut offsets) = (Vec::new(), Vec::new());
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
            let _ = reach.broadcast_levels(&mut s, 1, &mut nodes, &mut offsets);
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
            let _ = reach.broadcast_levels(&mut s, 1, &mut nodes, &mut offsets);
            assert_eq!(s.allocated_bytes(), warm, "trial {trial}");
        }
    }

    /// `prepare` and the forward passes never grow the backward and
    /// broadcast visited sets, so no embedding or maintainer scratch holds
    /// them; `backward` grows the backward set and `broadcast_levels` the
    /// broadcast set, each to the shape's words.
    #[test]
    fn backward_and_broadcast_bitmaps_grow_only_on_demand() {
        let (n_nodes, words) = (1usize << 10, (1usize << 10) / 64);
        let reach = BitReach::new(2, n_nodes);
        let mut s = BitScratch::new();
        let mut lv = LevelVec::new();
        let (mut counts, mut bits) = (Vec::new(), vec![0u64; words]);
        reach.prepare(&mut s);
        reach.kill(&mut s, 0);
        let _ = reach.forward(&mut s, 1);
        let _ = reach.forward_levels(&mut s, 1, &mut lv);
        let _ = reach.forward_levels_reached(&mut s, 1, &mut lv, &mut counts, &mut bits);
        assert_eq!((s.bwd.capacity(), s.vis.capacity()), (0, 0));
        reach.backward(&mut s, 1);
        assert_eq!((s.bwd.len(), s.vis.capacity()), (words, 0));
        let (mut nodes, mut offsets) = (Vec::new(), Vec::new());
        let _ = reach.broadcast_levels(&mut s, 1, &mut nodes, &mut offsets);
        assert_eq!((s.bwd.len(), s.vis.len()), (words, words));
    }

    /// A frontier bitmap in one of these shapes: `0` one aligned id range
    /// (a forward level from the root), `1` one residue class (spread over
    /// every block), `2` random words in randomly chosen 64-word blocks
    /// (so whole input blocks are empty while their neighbours are not),
    /// `3` and `4` random words everywhere at about 3% and 50% fill,
    /// either side of the density switches.
    fn shaped_frontier(kind: usize, n_nodes: usize, rng: &mut StdRng) -> Vec<u64> {
        let words = n_nodes / 64;
        let mut bits = vec![0u64; words];
        let mut set = |v: usize| bits[v / 64] |= 1u64 << (v % 64);
        let log = n_nodes.trailing_zeros() as usize;
        match kind {
            0 => {
                let size = 1usize << rng.gen_range(0..log + 1);
                let start = rng.gen_range(0..n_nodes / size) * size;
                (start..start + size).for_each(&mut set);
            }
            1 => {
                let stride = 1usize << rng.gen_range(0..log + 1);
                let first = rng.gen_range(0..stride);
                (first..n_nodes).step_by(stride).for_each(&mut set);
            }
            2 => {
                for block in bits.chunks_mut(64) {
                    if rng.gen_range(0..2) == 0 {
                        for w in block.iter_mut() {
                            *w = rng.next_u64() & rng.next_u64();
                        }
                    }
                }
            }
            3 => {
                for w in &mut bits {
                    *w = (0..5).fold(u64::MAX, |acc, _| acc & rng.next_u64());
                }
            }
            _ => bits.iter_mut().for_each(|w| *w = rng.next_u64()),
        }
        bits
    }

    /// Both entry points of the dense block kernel must match the
    /// two-phase scalar reference word for word, on every power-of-two d
    /// the kernel is instantiated for, for shapes with one partial block,
    /// one whole block and many blocks: the summary-aware step the passes
    /// run ([`BitReach::step_dense`], which may skip blocks) and the
    /// summary-free [`BitReach::kernel_step_fused`]. Frontiers come from
    /// [`shaped_frontier`]; their summaries carry random false-positive
    /// bits, and the output buffers start with garbage words and garbage
    /// summaries. Checked: the frontier words, the visited words, the
    /// count, and that the output summary marks every occupied output word.
    #[test]
    fn dense_step_matches_the_scalar_oracle() {
        let shapes = [
            (2usize, 1usize << 7), // 2 words: one partial block, 1-word suffix
            (2, 1 << 8),           // 4 words
            (2, 1 << 12),          // one block
            (2, 1 << 13),          // two blocks
            (2, 1 << 16),          // 16 blocks
            (4, 1 << 10),          // B(4,5): 16 words
            (4, 1 << 12),          // B(4,6)
            (4, 1 << 14),          // B(4,7): four blocks
            (8, 1 << 12),          // B(8,4)
            (8, 1 << 15),          // B(8,5): eight blocks
            (64, 1 << 12),         // B(64,2): suffix of one word
            (64, 1 << 18),         // B(64,3): 64 blocks
        ];
        let mut rng = StdRng::seed_from_u64(0xB10C);
        let mut skipped = 0usize;
        for &(d, n_nodes) in &shapes {
            let reach = BitReach::new(d, n_nodes);
            assert!(reach.dense_capable(), "d={d} n={n_nodes}");
            let words = n_nodes / 64;
            let sums = sum_words(words);
            let mut fold = vec![0u64; words / d];
            for trial in 0..20 {
                let kind = trial % 5;
                let bits = shaped_frontier(kind, n_nodes, &mut rng);
                let mut sum = vec![0u64; sums];
                summarize_bits(&bits, &mut sum);
                // False positives: one stray bit in about half the
                // summary words, so some empty blocks stay unmarked.
                for s in &mut sum {
                    if rng.gen_range(0..2) == 0 {
                        *s |= 1u64 << rng.gen_range(0..64);
                    }
                }
                skipped += sum.iter().filter(|&&s| s == 0).count();
                let cur = BitFrontier {
                    queue: Vec::new(),
                    bits: bits.clone(),
                    sum,
                    dense: true,
                    len: 0,
                };
                let vis0: Vec<u64> = (0..words)
                    .map(|_| rng.next_u64() & rng.next_u64())
                    .collect();
                let mut nxt = BitFrontier {
                    queue: Vec::new(),
                    bits: (0..words).map(|_| rng.next_u64()).collect(),
                    sum: (0..sums).map(|_| rng.next_u64()).collect(),
                    dense: false,
                    len: 0,
                };
                let (mut vis_want, mut vis_got) = (vis0.clone(), vis0.clone());
                let mut want = vec![0u64; words];
                let count = crate::oracle::kernel_step_scalar(
                    &reach,
                    &bits,
                    &mut vis_want,
                    &mut want,
                    &mut fold,
                );
                reach.step_dense(&mut vis_got, &cur, &mut nxt);
                let tag = format!("d={d} n={n_nodes} kind={kind}");
                assert!(nxt.dense, "{tag}");
                assert_eq!(nxt.len, count, "count: {tag}");
                assert_eq!(nxt.bits, want, "frontier words: {tag}");
                assert_eq!(vis_got, vis_want, "visited words: {tag}");
                for (j, &w) in nxt.bits.iter().enumerate() {
                    let marked = nxt.sum[j >> 6] >> (j & 63) & 1 == 1;
                    assert!(w == 0 || marked, "word {j} occupied but unmarked: {tag}");
                }
                let (mut vis_free, mut free) = (vis0, vec![u64::MAX; words]);
                let got = reach.kernel_step_fused(&bits, &mut vis_free, &mut free);
                assert_eq!(got, count, "summary-free count: {tag}");
                assert_eq!(free, want, "summary-free frontier words: {tag}");
                assert_eq!(vis_free, vis_want, "summary-free visited words: {tag}");
            }
        }
        assert!(skipped > 0, "no input block was ever empty");
    }
}
