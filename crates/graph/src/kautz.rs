//! The Kautz digraph K(d,n).
//!
//! The Kautz graph is the subgraph of B(d+1,n) induced by the words with no
//! two consecutive equal symbols. It is mentioned by the paper (Chapter 5,
//! \[BP89\]) as the natural sibling of the de Bruijn graph for future work on
//! disjoint Hamiltonian cycles; it is provided here so downstream
//! experiments can compare topologies.

use dbg_algebra::words::WordSpace;

use crate::digraph::DiGraph;
use crate::topology::Topology;

/// The Kautz digraph K(d,n): words of length n over an alphabet of d+1
/// symbols in which consecutive symbols differ; (d+1)·d^(n−1) nodes, each
/// with out-degree d.
#[derive(Clone, Debug)]
pub struct Kautz {
    space: WordSpace,
    /// Node ids are dense: `codes[i]` is the word code of node i.
    codes: Vec<u64>,
    /// Reverse map from word code to dense node id (usize::MAX = absent).
    index: Vec<usize>,
}

impl Kautz {
    /// Creates K(d,n).
    #[must_use]
    pub fn new(d: u64, n: u32) -> Self {
        let space = WordSpace::new(d + 1, n);
        let mut codes = Vec::new();
        let mut index = vec![usize::MAX; space.count() as usize];
        for code in space.iter() {
            let digits = space.digits(code);
            if digits.windows(2).all(|w| w[0] != w[1]) {
                index[code as usize] = codes.len();
                codes.push(code);
            }
        }
        Kautz {
            space,
            codes,
            index,
        }
    }

    /// Degree parameter d (out-degree of every node).
    #[must_use]
    pub fn d(&self) -> u64 {
        self.space.d() - 1
    }

    /// Word length n.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.space.n()
    }

    /// Number of nodes, (d+1)·d^(n−1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Always false.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The word code of a dense node id.
    #[must_use]
    pub fn code(&self, v: usize) -> u64 {
        self.codes[v]
    }

    /// Formats node `v` as its digit string.
    #[must_use]
    pub fn label(&self, v: usize) -> String {
        self.space.format(self.codes[v])
    }

    /// Materialises the digraph.
    #[must_use]
    pub fn to_digraph(&self) -> DiGraph {
        DiGraph::from_topology(self)
    }
}

impl Topology for Kautz {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn for_each_successor(&self, v: usize, visit: &mut dyn FnMut(usize)) {
        let code = self.codes[v];
        let last = code % self.space.d();
        for a in 0..self.space.d() {
            if a == last {
                continue;
            }
            let succ = self.space.shift_append(code, a);
            let id = self.index[succ as usize];
            if id != usize::MAX {
                visit(id);
            }
        }
    }

    fn out_degree(&self, _v: usize) -> usize {
        self.d() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_edge_counts() {
        for (d, n) in [(2u64, 2u32), (2, 3), (3, 2), (3, 3)] {
            let k = Kautz::new(d, n);
            let expected = (d + 1) * dbg_algebra::num::pow(d, n - 1);
            assert_eq!(k.len() as u64, expected, "d={d} n={n}");
            let dg = k.to_digraph();
            assert_eq!(dg.num_edges() as u64, expected * d);
            for v in 0..k.len() {
                assert_eq!(dg.out_neighbors(v).len() as u64, d);
                assert_eq!(dg.in_degree(v) as u64, d);
            }
        }
    }

    #[test]
    fn no_self_loops() {
        let k = Kautz::new(2, 3);
        let dg = k.to_digraph();
        for v in 0..k.len() {
            assert!(!dg.out_neighbors(v).contains(&(v as u32)));
        }
    }
}
