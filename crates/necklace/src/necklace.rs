//! Necklace structure: rotation classes of d-ary words.

use dbg_algebra::words::WordSpace;

/// A necklace `[y]`: the rotation class of a word, named by its minimal
/// rotation `y` (the paper's representative convention, Section 2.1).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Necklace {
    representative: u64,
    length: u32,
}

impl Necklace {
    /// The necklace containing word `code` in the given space.
    #[must_use]
    pub fn containing(space: WordSpace, code: u64) -> Self {
        Necklace {
            representative: space.canonical_rotation(code),
            length: space.period(code),
        }
    }

    /// The minimal word of the necklace (its name `[y]`).
    #[must_use]
    pub fn representative(&self) -> u64 {
        self.representative
    }

    /// The necklace length (the period of its words); always divides n.
    #[must_use]
    pub fn len(&self) -> usize {
        self.length as usize
    }

    /// Necklaces are never empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The nodes of the necklace in traversal order
    /// `y, π(y), π²(y), …` — this is exactly the cycle N(y) of B(d,n).
    #[must_use]
    pub fn nodes(&self, space: WordSpace) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.length as usize);
        let mut cur = self.representative;
        for _ in 0..self.length {
            out.push(cur);
            cur = space.rotate_left(cur);
        }
        out
    }

    /// The successor of `code` *within its necklace*: its left rotation.
    /// (For an aperiodic word this is the next node of the cycle N(x).)
    #[must_use]
    pub fn successor_of(space: WordSpace, code: u64) -> u64 {
        space.rotate_left(code)
    }

    /// Whether `code` belongs to this necklace.
    #[must_use]
    pub fn contains(&self, space: WordSpace, code: u64) -> bool {
        space.canonical_rotation(code) == self.representative
    }

    /// Formats the necklace as `[digits]`.
    #[must_use]
    pub fn format(&self, space: WordSpace) -> String {
        format!("[{}]", space.format(self.representative))
    }
}

/// The partition of all d^n words into necklaces, with O(1) lookup from a
/// word to its necklace id and a CSR layout of every necklace's members.
#[derive(Clone, Debug)]
pub struct NecklacePartition {
    space: WordSpace,
    /// For each word code, the id (index into `necklaces`) of its necklace.
    membership: Vec<u32>,
    /// The necklaces, ordered by increasing representative.
    necklaces: Vec<Necklace>,
    /// CSR offsets into [`NecklacePartition::neck_node`] (`len() + 1` entries).
    neck_offset: Vec<u32>,
    /// Necklace members in rotation order starting at the representative.
    neck_node: Vec<u32>,
}

impl NecklacePartition {
    /// Builds the necklace partition of the words of `space` with a single
    /// FKM (Fredricksen–Kessler–Maiorana) necklace-enumeration pass: the
    /// representatives arrive in increasing order with their periods for
    /// free, so no word is ever canonicalised individually. The member CSR
    /// lists each necklace in rotation order ([`WordSpace::rotate_left`]
    /// is mask/shift arithmetic for power-of-two alphabets).
    ///
    /// # Panics
    /// Panics if the space has more than `u32::MAX` words (the same node
    /// indexing limit as the embedding engine's tables).
    #[must_use]
    pub fn new(space: WordSpace) -> Self {
        let count = space.count() as usize;
        assert!(
            u32::try_from(count).is_ok(),
            "necklace tables index words with u32; {count} words is too large"
        );
        let necklaces = enumerate_necklaces(space);
        let mut neck_offset = Vec::with_capacity(necklaces.len() + 1);
        neck_offset.push(0u32);
        let mut total = 0u32;
        for neck in &necklaces {
            total += neck.length;
            neck_offset.push(total);
        }
        debug_assert_eq!(total as usize, count, "necklace lengths must tile d^n");

        let mut membership = vec![u32::MAX; count];
        let mut neck_node = vec![0u32; count];
        for (id, neck) in necklaces.iter().enumerate() {
            let lo = neck_offset[id] as usize;
            let mut cur = neck.representative;
            for slot in &mut neck_node[lo..lo + neck.length as usize] {
                *slot = cur as u32;
                membership[cur as usize] = id as u32;
                cur = space.rotate_left(cur);
            }
        }
        NecklacePartition {
            space,
            membership,
            necklaces,
            neck_offset,
            neck_node,
        }
    }

    /// The word space being partitioned.
    #[must_use]
    pub fn space(&self) -> WordSpace {
        self.space
    }

    /// Number of necklaces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.necklaces.len()
    }

    /// Never empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The necklace id of a word.
    #[must_use]
    pub fn id_of(&self, code: u64) -> usize {
        self.membership[code as usize] as usize
    }

    /// The raw word → necklace-id table, indexed by word code. Exposed so
    /// hot paths (the FFC embedding engine, the distributed protocol) can
    /// do flat-array lookups without going through `id_of`'s `usize`
    /// conversions per call. Ids number the necklaces by increasing
    /// representative, so a word of lower representative has a lower id.
    #[must_use]
    pub fn membership(&self) -> &[u32] {
        &self.membership
    }

    /// The necklace with a given id.
    #[must_use]
    pub fn necklace(&self, id: usize) -> &Necklace {
        &self.necklaces[id]
    }

    /// The members of necklace `id` in rotation order starting at its
    /// representative — a slice of the precomputed CSR layout, so hot
    /// paths (fault marking in the embedding engine) never re-rotate.
    #[must_use]
    pub fn members(&self, id: usize) -> &[u32] {
        let lo = self.neck_offset[id] as usize;
        let hi = self.neck_offset[id + 1] as usize;
        &self.neck_node[lo..hi]
    }

    /// The CSR offsets of [`NecklacePartition::members`] (`len() + 1`
    /// entries): necklace `id` owns `neck_node[offset[id]..offset[id+1]]`.
    #[must_use]
    pub fn member_offsets(&self) -> &[u32] {
        &self.neck_offset
    }

    /// All necklaces, ordered by increasing representative.
    #[must_use]
    pub fn necklaces(&self) -> &[Necklace] {
        &self.necklaces
    }

    /// The necklace containing a word.
    #[must_use]
    pub fn necklace_of(&self, code: u64) -> &Necklace {
        &self.necklaces[self.id_of(code)]
    }

    /// Whether two words are on the same necklace.
    #[must_use]
    pub fn same_necklace(&self, a: u64, b: u64) -> bool {
        self.id_of(a) == self.id_of(b)
    }

    /// Marks the necklaces containing any of `faulty_nodes` as faulty and
    /// returns a boolean mask indexed by necklace id. This is the paper's
    /// "a necklace is faulty if it contains a faulty node" rule.
    #[must_use]
    pub fn faulty_necklaces<I: IntoIterator<Item = u64>>(&self, faulty_nodes: I) -> Vec<bool> {
        let mut mask = vec![false; self.necklaces.len()];
        for node in faulty_nodes {
            mask[self.id_of(node)] = true;
        }
        mask
    }

    /// The total number of nodes living on faulty necklaces (the quantity
    /// N_F of Section 2.5, bounded by n·f).
    #[must_use]
    pub fn faulty_node_count(&self, faulty_mask: &[bool]) -> usize {
        self.necklaces
            .iter()
            .enumerate()
            .filter(|(id, _)| faulty_mask[*id])
            .map(|(_, n)| n.len())
            .sum()
    }
}

/// Enumerates every necklace of the space in increasing representative
/// order via the FKM algorithm (Knuth 7.2.1.1, Algorithm F): generate the
/// prenecklaces of length n in lex order; a prenecklace whose Lyndon-prefix
/// length `i` divides n is a necklace with representative `a[1..=n]` and
/// period `i`. Total work is linear in d^n — no per-word canonicalisation.
fn enumerate_necklaces(space: WordSpace) -> Vec<Necklace> {
    let d = space.d();
    let n = space.n() as usize;
    let mut a = vec![0u64; n + 1];
    let code_of = |digits: &[u64]| -> u64 {
        let mut v = 0u64;
        for &x in &digits[1..=n] {
            v = v * d + x;
        }
        v
    };
    let mut out = Vec::new();
    // The all-zero word is the first necklace (period 1).
    out.push(Necklace {
        representative: 0,
        length: 1,
    });
    loop {
        let mut i = n;
        while i > 0 && a[i] == d - 1 {
            i -= 1;
        }
        if i == 0 {
            break;
        }
        a[i] += 1;
        for j in (i + 1)..=n {
            a[j] = a[j - i];
        }
        if n.is_multiple_of(i) {
            out.push(Necklace {
                representative: code_of(&a),
                length: i as u32,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn necklace_of_1120_matches_paper() {
        // N(1120) = [0112] = (1120, 1201, 2011, 0112) — Section 2.1.
        let s = WordSpace::new(3, 4);
        let x = s.parse("1120").unwrap();
        let neck = Necklace::containing(s, x);
        assert_eq!(neck.representative(), s.parse("0112").unwrap());
        assert_eq!(neck.len(), 4);
        assert_eq!(neck.format(s), "[0112]");
        let nodes = neck.nodes(s);
        assert_eq!(nodes.len(), 4);
        assert!(nodes.contains(&x));
        assert!(neck.contains(s, x));
        assert!(!neck.contains(s, s.parse("0000").unwrap()));
    }

    #[test]
    fn short_necklaces_have_period_length() {
        let s = WordSpace::new(2, 6);
        let neck = Necklace::containing(s, s.parse("010101").unwrap());
        assert_eq!(neck.len(), 2);
        assert_eq!(neck.nodes(s).len(), 2);
        let constant = Necklace::containing(s, 0);
        assert_eq!(constant.len(), 1);
    }

    #[test]
    fn partition_covers_all_words_disjointly() {
        for (d, n) in [(2u64, 6u32), (3, 4), (4, 3)] {
            let s = WordSpace::new(d, n);
            let part = NecklacePartition::new(s);
            let total: usize = part.necklaces().iter().map(Necklace::len).sum();
            assert_eq!(total as u64, s.count(), "d={d} n={n}");
            // Membership is consistent with canonical rotations.
            for code in s.iter() {
                let neck = part.necklace_of(code);
                assert_eq!(neck.representative(), s.canonical_rotation(code));
                assert!(part.same_necklace(code, s.rotate_left(code)));
            }
        }
    }

    #[test]
    fn partition_count_matches_known_values() {
        // B(2,3) has 4 necklaces: [000], [001], [011], [111].
        let part = NecklacePartition::new(WordSpace::new(2, 3));
        assert_eq!(part.len(), 4);
        // B(3,3) has 11 necklaces (used in Example 2.1's figure: 9 nonfaulty + 2 faulty).
        let part33 = NecklacePartition::new(WordSpace::new(3, 3));
        assert_eq!(part33.len(), 11);
    }

    #[test]
    fn representatives_are_sorted_and_minimal() {
        let s = WordSpace::new(3, 4);
        let part = NecklacePartition::new(s);
        let reps: Vec<u64> = part
            .necklaces()
            .iter()
            .map(Necklace::representative)
            .collect();
        let mut sorted = reps.clone();
        sorted.sort_unstable();
        assert_eq!(reps, sorted);
        for neck in part.necklaces() {
            for node in neck.nodes(s) {
                assert!(neck.representative() <= node);
            }
        }
    }

    /// The retired per-node construction, kept as the oracle for the FKM
    /// enumeration pass: scan codes in increasing order, claim each
    /// unvisited code as a representative and rotate through its members.
    fn reference_partition(space: WordSpace) -> (Vec<u32>, Vec<(u64, u32)>) {
        let count = space.count() as usize;
        let mut membership = vec![u32::MAX; count];
        let mut necklaces = Vec::new();
        for code in space.iter() {
            if membership[code as usize] != u32::MAX {
                continue;
            }
            let id = necklaces.len() as u32;
            let period = space.period(code);
            necklaces.push((code, period));
            let mut cur = code;
            for _ in 0..period {
                membership[cur as usize] = id;
                cur = space.rotate_left(cur);
            }
        }
        (membership, necklaces)
    }

    #[test]
    fn fkm_build_matches_per_node_reference() {
        for (d, n) in [
            (2u64, 1u32),
            (2, 8),
            (3, 5),
            (4, 3),
            (5, 2),
            (6, 3),
            (13, 2),
        ] {
            let s = WordSpace::new(d, n);
            let part = NecklacePartition::new(s);
            let (membership, necklaces) = reference_partition(s);
            assert_eq!(part.membership(), &membership[..], "d={d} n={n}");
            assert_eq!(part.len(), necklaces.len(), "d={d} n={n}");
            for (neck, &(rep, period)) in part.necklaces().iter().zip(&necklaces) {
                assert_eq!(neck.representative(), rep, "d={d} n={n}");
                assert_eq!(neck.len() as u32, period, "d={d} n={n}");
            }
        }
    }

    #[test]
    fn members_csr_matches_rotation_order() {
        for (d, n) in [(2u64, 6u32), (3, 4)] {
            let s = WordSpace::new(d, n);
            let part = NecklacePartition::new(s);
            for (id, neck) in part.necklaces().iter().enumerate() {
                let members: Vec<u64> = part.members(id).iter().map(|&v| u64::from(v)).collect();
                assert_eq!(members, neck.nodes(s), "d={d} n={n} id={id}");
                assert_eq!(
                    part.member_offsets()[id + 1] - part.member_offsets()[id],
                    neck.len() as u32
                );
            }
        }
    }

    #[test]
    fn faulty_marking_example_2_1() {
        // Faults at 020 and 112 in B(3,3) make necklaces [002] and [112]
        // faulty; 6 of the 27 nodes are lost.
        let s = WordSpace::new(3, 3);
        let part = NecklacePartition::new(s);
        let faults = [s.parse("020").unwrap(), s.parse("112").unwrap()];
        let mask = part.faulty_necklaces(faults);
        assert_eq!(mask.iter().filter(|&&b| b).count(), 2);
        assert_eq!(part.faulty_node_count(&mask), 6);
        // 21 nodes remain, matching the cycle length of Example 2.1.
        assert_eq!(s.count() as usize - part.faulty_node_count(&mask), 21);
    }
}
