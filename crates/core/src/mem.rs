//! Shared grow-only buffer helpers and the compact level storage used by
//! the engine's memory layer.
//!
//! This module is the single home of the growth helpers and the
//! [`UNREACHED`] sentinel that `bitreach`, the maintainer and the FFC
//! scratch share. It also owns [`LevelVec`] — the u8 level array that
//! quarters the DRAM footprint of every per-node level sweep — and the
//! [`LevelStore`] abstraction the delta level-repair passes are generic
//! over, so the compact storage and the plain `u32` oracle arrays run the
//! exact same code.

/// Level value of a node outside the structure (unreachable, dead, or not
/// a member). The delta passes treat it as +∞.
pub const UNREACHED: u32 = u32::MAX;

/// The byte encoding of [`UNREACHED`] inside a [`LevelVec`].
pub const UNREACHED_U8: u8 = 0xFF;

/// Byte marking a level too large for inline u8 storage; the exact value
/// lives in the [`LevelVec`]'s overflow side table.
const ESCAPED_U8: u8 = 0xFE;

/// Largest level stored inline as a byte. BFS levels are bounded by the
/// component diameter, which fits a byte on every practical shape — the
/// escape path exists for the *transient* states of
/// [`crate::bitreach::BitReach::levels_delete`], whose unsupported nodes
/// climb one level at a time toward `n_nodes` before settling at
/// [`UNREACHED`].
const MAX_INLINE_LEVEL: u32 = 0xFD;

/// Overflow slots reserved up front so the common repair paths (whose
/// levels never escape) keep the engine's no-allocation-after-warm-up
/// property even when a rare deep cascade brushes the inline maximum.
const OVERFLOW_RESERVE: usize = 16;

/// Grows a slot vector to at least `len` entries (filled with `fill`)
/// without ever shrinking.
pub(crate) fn grow_to<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

/// Guarantees capacity for `cap` entries without touching the length.
pub(crate) fn reserve_more<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() < cap {
        v.reserve_exact(cap - v.len());
    }
}

/// A per-node BFS level array in one byte per node — 4× smaller than the
/// `Vec<u32>` it replaces, which is 4× less DRAM traffic on every level
/// sweep (the scatter after a rebuild, the histogram passes, the
/// copy-on-write of snapshot level chunks).
///
/// Encoding: bytes `0..=0xFD` hold the level inline, [`UNREACHED_U8`]
/// encodes [`UNREACHED`], and the escape byte `0xFE` points into a tiny
/// `(node, level)` side table for the transient >253 values a delete
/// cascade can pass through (see [`LevelVec::set`]). The side table is
/// empty in steady state: settled BFS levels are bounded by the component
/// diameter. Reads and writes stay exact for *every* `u32` level, so the
/// compact array is bit-for-bit interchangeable with a `u32` array — the
/// property the differential suites pin.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelVec {
    /// One byte per node: the inline level, [`UNREACHED_U8`], or the
    /// escape marker.
    bytes: Vec<u8>,
    /// Exact values of the escaped entries, unordered, at most one entry
    /// per node.
    overflow: Vec<(u32, u32)>,
}

impl LevelVec {
    /// Creates an empty level array.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of per-node slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the array has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Grows to at least `len` slots (new slots [`UNREACHED`]) without
    /// ever shrinking, and pre-reserves the overflow side table.
    pub fn grow(&mut self, len: usize) {
        grow_to(&mut self.bytes, len, UNREACHED_U8);
        reserve_more(&mut self.overflow, OVERFLOW_RESERVE);
    }

    /// Sets every slot to [`UNREACHED`] and empties the side table.
    pub fn fill_unreached(&mut self) {
        self.bytes.fill(UNREACHED_U8);
        self.overflow.clear();
    }

    /// The level of node `i` ([`UNREACHED`] when outside the structure).
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> u32 {
        decode_level(self.bytes[i], i, &self.overflow)
    }

    /// Sets node `i`'s level to `l` (any `u32`; values above the inline
    /// maximum escape to the side table, [`UNREACHED`] clears the slot).
    #[inline]
    pub fn set(&mut self, i: usize, l: u32) {
        if self.bytes[i] == ESCAPED_U8 {
            self.drop_escaped(i);
        }
        if l <= MAX_INLINE_LEVEL {
            self.bytes[i] = l as u8;
        } else if l == UNREACHED {
            self.bytes[i] = UNREACHED_U8;
        } else {
            self.set_escaped(i, l);
        }
    }

    #[cold]
    fn set_escaped(&mut self, i: usize, l: u32) {
        self.bytes[i] = ESCAPED_U8;
        self.overflow.push((i as u32, l));
    }

    #[cold]
    fn drop_escaped(&mut self, i: usize) {
        if let Some(pos) = self.overflow.iter().position(|&(n, _)| n as usize == i) {
            self.overflow.swap_remove(pos);
        }
    }

    /// The escaped entries as (node, level) pairs, for readers of
    /// [`LevelVec::as_bytes`] to decode with.
    pub(crate) fn overflow(&self) -> &[(u32, u32)] {
        &self.overflow
    }

    /// The raw byte encoding (snapshot chunks copy it; test/bench
    /// introspection).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Entries currently escaped to the side table (empty in steady
    /// state).
    #[must_use]
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Total bytes currently reserved — the footprint the benchmark's
    /// `allocated_bytes` column audits (compare `4 * len` for the `u32`
    /// array this type replaces).
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        self.bytes.capacity() + 8 * self.overflow.capacity()
    }
}

/// Decodes byte `b` of node `node` in the [`LevelVec`] encoding, resolving
/// an escape byte in `overflow` (the (node, level) side table).
#[inline]
pub(crate) fn decode_level(b: u8, node: usize, overflow: &[(u32, u32)]) -> u32 {
    if b < ESCAPED_U8 {
        u32::from(b)
    } else if b == UNREACHED_U8 {
        UNREACHED
    } else {
        escaped_level(node, overflow)
    }
}

#[cold]
fn escaped_level(node: usize, overflow: &[(u32, u32)]) -> u32 {
    overflow
        .iter()
        .find(|&&(n, _)| n as usize == node)
        .map(|&(_, l)| l)
        // PANIC-OK: an escape byte without a side-table entry is an
        // internal invariant violation `LevelVec::set` cannot produce.
        .expect("escaped level has a side-table entry")
}

/// What the delta level-repair passes need from a level array. Implemented
/// by plain `u32` slices (the differential oracle) and by [`LevelVec`]
/// (the engine), so [`crate::bitreach::BitReach::levels_delete`] /
/// [`crate::bitreach::BitReach::levels_insert`] run the *same*
/// monomorphised algorithm over both and bit-equality is a test, not a
/// hope.
pub trait LevelStore {
    /// The level of node `i` ([`UNREACHED`] when outside the structure).
    fn level(&self, i: usize) -> u32;
    /// Sets node `i`'s level to `l`.
    fn set_level(&mut self, i: usize, l: u32);
}

impl LevelStore for [u32] {
    #[inline]
    fn level(&self, i: usize) -> u32 {
        self[i]
    }

    #[inline]
    fn set_level(&mut self, i: usize, l: u32) {
        self[i] = l;
    }
}

impl LevelStore for Vec<u32> {
    #[inline]
    fn level(&self, i: usize) -> u32 {
        self[i]
    }

    #[inline]
    fn set_level(&mut self, i: usize, l: u32) {
        self[i] = l;
    }
}

impl LevelStore for LevelVec {
    #[inline]
    fn level(&self, i: usize) -> u32 {
        self.get(i)
    }

    #[inline]
    fn set_level(&mut self, i: usize, l: u32) {
        self.set(i, l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_unreached_and_escape_encodings_round_trip() {
        let mut lv = LevelVec::new();
        lv.grow(8);
        for i in 0..8 {
            assert_eq!(lv.get(i), UNREACHED);
        }
        lv.set(0, 0);
        lv.set(1, 253); // inline maximum
        lv.set(2, 254); // first escaped value
        lv.set(3, 255); // the u8 sentinel's numeric value, stored exactly
        lv.set(4, 1_000_000);
        lv.set(5, UNREACHED - 1); // largest escapable value
        lv.set(6, UNREACHED);
        assert_eq!(lv.get(0), 0);
        assert_eq!(lv.get(1), 253);
        assert_eq!(lv.get(2), 254);
        assert_eq!(lv.get(3), 255);
        assert_eq!(lv.get(4), 1_000_000);
        assert_eq!(lv.get(5), UNREACHED - 1);
        assert_eq!(lv.get(6), UNREACHED);
        assert_eq!(lv.overflow_len(), 4);
        // Settling an escaped slot back to an inline level (the tail of a
        // delete cascade) or to UNREACHED drops its side-table entry.
        lv.set(2, 7);
        lv.set(3, UNREACHED);
        assert_eq!(lv.get(2), 7);
        assert_eq!(lv.get(3), UNREACHED);
        assert_eq!(lv.overflow_len(), 2);
        // An escaped slot rewritten with another escaped value keeps
        // exactly one entry.
        lv.set(4, 2_000_000);
        assert_eq!(lv.get(4), 2_000_000);
        assert_eq!(lv.overflow_len(), 2);
        lv.fill_unreached();
        assert_eq!(lv.overflow_len(), 0);
        assert!((0..8).all(|i| lv.get(i) == UNREACHED));
    }

    #[test]
    fn climb_through_the_escape_band_keeps_one_entry_per_node() {
        // The exact access pattern of an unsupported node in
        // levels_delete: its level climbs one step at a time through the
        // escape band before settling at UNREACHED.
        let mut lv = LevelVec::new();
        lv.grow(4);
        lv.set(2, 250);
        for l in 251..1024u32 {
            lv.set(2, l);
            assert_eq!(lv.get(2), l);
            assert!(lv.overflow_len() <= 1);
        }
        lv.set(2, UNREACHED);
        assert_eq!(lv.overflow_len(), 0);
    }

    #[test]
    fn level_store_is_interchangeable_between_u32_and_compact() {
        let mut a: Vec<u32> = vec![UNREACHED; 16];
        let mut b = LevelVec::new();
        b.grow(16);
        let writes = [(0usize, 3u32), (5, 0), (7, 300), (7, 301), (5, UNREACHED)];
        for &(i, l) in &writes {
            a.set_level(i, l);
            b.set_level(i, l);
        }
        for i in 0..16 {
            assert_eq!(a.level(i), b.level(i), "slot {i}");
        }
    }
}
