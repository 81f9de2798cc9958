//! The necklace adjacency graph N* (Section 2.2, Figure 2.3).
//!
//! N* has one node per non-faulty necklace of B(d,n) (restricted to the
//! surviving component B*), and a directed edge labeled `w` (a word of
//! length n−1) from `[X]` to `[Y]` whenever `αw ∈ [X]` and `βw ∈ [Y]` for
//! distinct symbols α ≠ β. The edge can be read as "leave `[X]` at node αw
//! and enter `[Y]` at node wβ"; every w-edge has an antiparallel twin.
//!
//! The antiparallel twins are why the engine finds B* with one forward BFS:
//! faults remove whole necklaces, so whatever the root reaches can reach
//! the root back along the twins and the necklace rotations, and the
//! forward set is B* (see [`crate::ffc`], "Component and broadcast"; the
//! bitreach test `forward_set_is_bstar_under_necklace_faults` checks it
//! against the forward ∩ backward oracle).
//!
//! The FFC algorithm only ever needs the *spanning* structure of N*, which
//! it derives implicitly from a BFS of B* (see [`crate::ffc`]); this module
//! materialises the full graph for figure regeneration, diagnostics and
//! tests.

use std::collections::BTreeMap;

use dbg_graph::DeBruijn;
use dbg_necklace::NecklacePartition;

/// A labeled edge of N*: `from` and `to` are necklace ids, `label` is the
/// (n−1)-digit word w encoded in base d.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NecklaceEdge {
    /// Source necklace id.
    pub from: usize,
    /// Target necklace id.
    pub to: usize,
    /// The (n−1)-digit label w, encoded as a base-d integer.
    pub label: u64,
}

/// The necklace adjacency graph restricted to a set of live necklaces.
#[derive(Clone, Debug)]
pub struct NecklaceAdjacency {
    graph: DeBruijn,
    /// Necklace ids (into the partition) that participate, sorted ascending.
    live: Vec<usize>,
    /// All labeled edges among live necklaces.
    edges: Vec<NecklaceEdge>,
}

impl NecklaceAdjacency {
    /// Builds N* over the necklaces of `partition` for which `alive`
    /// returns true (typically: non-faulty necklaces inside B*).
    #[must_use]
    pub fn build<F: Fn(usize) -> bool>(
        graph: &DeBruijn,
        partition: &NecklacePartition,
        alive: F,
    ) -> Self {
        let space = graph.space();
        let d = graph.d();
        let suffix_count = space.msd_place(); // d^(n-1) possible labels w
        let live: Vec<usize> = (0..partition.len()).filter(|&id| alive(id)).collect();
        let is_live = {
            let mut mask = vec![false; partition.len()];
            for &id in &live {
                mask[id] = true;
            }
            mask
        };

        // For each label w, the nodes αw (α ∈ Z_d) are the possible exit
        // points; group the live ones by label and connect all pairs that
        // sit on distinct necklaces.
        let mut edges = Vec::new();
        for w in 0..suffix_count {
            // Node αw has code α·d^(n-1) + w.
            let members: Vec<(u64, usize)> = (0..d)
                .map(|alpha| alpha * suffix_count + w)
                .filter_map(|code| {
                    let id = partition.id_of(code);
                    is_live[id].then_some((code, id))
                })
                .collect();
            for &(_, from_id) in &members {
                for &(_, to_id) in &members {
                    if from_id != to_id {
                        edges.push(NecklaceEdge {
                            from: from_id,
                            to: to_id,
                            label: w,
                        });
                    }
                }
            }
        }
        NecklaceAdjacency {
            graph: *graph,
            live,
            edges,
        }
    }

    /// The live necklace ids (ascending).
    #[must_use]
    pub fn live_necklaces(&self) -> &[usize] {
        &self.live
    }

    /// All labeled edges.
    #[must_use]
    pub fn edges(&self) -> &[NecklaceEdge] {
        &self.edges
    }

    /// The labels of edges between two necklaces (either direction gives the
    /// same set, since w-edges come in antiparallel pairs).
    #[must_use]
    pub fn labels_between(&self, a: usize, b: usize) -> Vec<u64> {
        self.edges
            .iter()
            .filter(|e| e.from == a && e.to == b)
            .map(|e| e.label)
            .collect()
    }

    /// Whether the undirected version of N* is connected (every live
    /// necklace reachable from every other). When it is, the FFC algorithm
    /// can join all live necklaces into a single cycle.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.live.is_empty() {
            return true;
        }
        let index: BTreeMap<usize, usize> = self
            .live
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.live.len()];
        for e in &self.edges {
            adj[index[&e.from]].push(index[&e.to]);
        }
        let mut seen = vec![false; self.live.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &u in &adj[v] {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.live.len()
    }

    /// Renders the graph in Graphviz DOT form with necklace names and edge
    /// labels (Figure 2.3 style). Antiparallel edges are collapsed to a
    /// single double-headed edge.
    #[must_use]
    pub fn to_dot(&self, partition: &NecklacePartition) -> String {
        let space = self.graph.space();
        let mut out = String::from("digraph \"N*\" {\n  node [shape=box];\n");
        for &id in &self.live {
            out.push_str(&format!(
                "  k{id} [label=\"{}\"];\n",
                partition.necklace(id).format(space)
            ));
        }
        let label_space = dbg_algebra::words::WordSpace::new(space.d(), space.n() - 1);
        let mut seen = std::collections::HashSet::new();
        for e in &self.edges {
            let key = if e.from < e.to {
                (e.from, e.to, e.label)
            } else {
                (e.to, e.from, e.label)
            };
            if !seen.insert(key) {
                continue;
            }
            out.push_str(&format!(
                "  k{} -> k{} [dir=both, label=\"{}\"];\n",
                key.0,
                key.1,
                label_space.format(e.label)
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbg_algebra::words::WordSpace;

    fn example_2_1_setup() -> (DeBruijn, NecklacePartition, Vec<bool>) {
        let g = DeBruijn::new(3, 3);
        let part = NecklacePartition::new(g.space());
        let faults = [g.node("020").unwrap() as u64, g.node("112").unwrap() as u64];
        let faulty = part.faulty_necklaces(faults);
        (g, part, faulty)
    }

    #[test]
    fn example_2_1_live_necklaces() {
        let (g, part, faulty) = example_2_1_setup();
        let adj = NecklaceAdjacency::build(&g, &part, |id| !faulty[id]);
        // Figure 2.3 shows 9 necklaces.
        assert_eq!(adj.live_necklaces().len(), 9);
        let s = g.space();
        let names: Vec<String> = adj
            .live_necklaces()
            .iter()
            .map(|&id| part.necklace(id).format(s))
            .collect();
        for expected in [
            "[000]", "[001]", "[011]", "[111]", "[012]", "[021]", "[022]", "[122]", "[222]",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn example_2_1_edges_match_figure_2_3() {
        let (g, part, faulty) = example_2_1_setup();
        let adj = NecklaceAdjacency::build(&g, &part, |id| !faulty[id]);
        let s = g.space();
        let label_space = WordSpace::new(3, 2);
        let id_of = |name: &str| {
            let code = s.parse(name).unwrap();
            part.id_of(code)
        };
        let labels = |a: &str, b: &str| -> Vec<String> {
            let mut l: Vec<String> = adj
                .labels_between(id_of(a), id_of(b))
                .into_iter()
                .map(|w| label_space.format(w))
                .collect();
            l.sort();
            l
        };
        // A few edges read off Figure 2.3 / derived from the N* definition.
        assert_eq!(labels("000", "001"), vec!["00"]);
        assert_eq!(labels("001", "011"), vec!["01", "10"]);
        assert_eq!(labels("011", "111"), vec!["11"]);
        assert_eq!(labels("012", "122"), vec!["12"]);
        assert_eq!(labels("122", "222"), vec!["22"]);
        assert_eq!(labels("001", "021"), vec!["10"]);
        assert_eq!(labels("011", "021"), vec!["10"]);
        assert_eq!(labels("021", "022"), vec!["02"]);
        // Edges are symmetric.
        assert_eq!(labels("001", "000"), vec!["00"]);
        // No edge between necklaces that share no suffix pair.
        assert!(labels("000", "111").is_empty());
        assert!(adj.is_connected());
    }

    #[test]
    fn full_graph_without_faults_is_connected() {
        for (d, n) in [(2u64, 4u32), (3, 3), (4, 2)] {
            let g = DeBruijn::new(d, n);
            let part = NecklacePartition::new(g.space());
            let adj = NecklaceAdjacency::build(&g, &part, |_| true);
            assert!(adj.is_connected(), "N* of B({d},{n}) should be connected");
            assert_eq!(adj.live_necklaces().len(), part.len());
        }
    }

    #[test]
    fn edges_come_in_antiparallel_pairs() {
        let (g, part, faulty) = example_2_1_setup();
        let adj = NecklaceAdjacency::build(&g, &part, |id| !faulty[id]);
        for e in adj.edges() {
            assert!(
                adj.edges()
                    .iter()
                    .any(|r| r.from == e.to && r.to == e.from && r.label == e.label),
                "missing antiparallel twin of {e:?}"
            );
        }
        let _ = part;
    }

    #[test]
    fn dot_export_mentions_every_live_necklace() {
        let (g, part, faulty) = example_2_1_setup();
        let adj = NecklaceAdjacency::build(&g, &part, |id| !faulty[id]);
        let dot = adj.to_dot(&part);
        assert!(dot.contains("[000]"));
        assert!(dot.contains("[122]"));
        assert!(!dot.contains("[002]"), "faulty necklace should not appear");
        assert!(!dot.contains("[112]"), "faulty necklace should not appear");
    }
}
