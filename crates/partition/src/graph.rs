/// A lightweight undirected weighted graph: the partitioners' input type.
///
/// Kept independent of `ecmas-circuit` so this crate stays dependency-free;
/// the compiler converts a communication graph into a `WeightedGraph` with
/// [`from_edges`](Self::from_edges).
///
/// # Example
///
/// ```
/// use ecmas_partition::WeightedGraph;
///
/// let g = WeightedGraph::from_edges(3, [(0, 1, 2u64), (1, 2, 1)]);
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.weighted_degree(1), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct WeightedGraph {
    n: usize,
    adj: Vec<Vec<(usize, u64)>>,
    edges: Vec<(usize, usize, u64)>,
}

impl WeightedGraph {
    /// Builds a graph over `n` vertices from `(a, b, weight)` triples.
    /// Parallel edges are merged by summing weights; self-loops are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    #[must_use]
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize, u64)>) -> Self {
        let mut merged = std::collections::HashMap::new();
        for (a, b, w) in edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            if a == b {
                continue;
            }
            *merged.entry((a.min(b), a.max(b))).or_insert(0u64) += w;
        }
        let mut edge_list: Vec<(usize, usize, u64)> =
            merged.into_iter().map(|((a, b), w)| (a, b, w)).collect();
        edge_list.sort_unstable();
        let mut adj = vec![Vec::new(); n];
        for &(a, b, w) in &edge_list {
            adj[a].push((b, w));
            adj[b].push((a, w));
        }
        WeightedGraph { n, adj, edges: edge_list }
    }

    /// The subgraph induced by `vertices`, renumbered so `vertices[i]`
    /// becomes vertex `i`: exactly the graph [`from_edges`](Self::from_edges)
    /// builds from the surviving edges, in `O(Σ deg)` with no hashing.
    /// Adjacency lists are sorted by neighbor and the renumbering is
    /// monotone, so filtering them keeps both lists and edges in order.
    ///
    /// `index_of` is caller-owned scratch of length `len()` that must be
    /// all `usize::MAX` on entry; it is left that way again on return, so
    /// one buffer serves any number of calls.
    ///
    /// # Panics
    ///
    /// Panics if `index_of.len() != self.len()`, if a vertex is out of
    /// range, or if `vertices` is not strictly increasing.
    ///
    /// # Example
    ///
    /// ```
    /// use ecmas_partition::WeightedGraph;
    ///
    /// let g = WeightedGraph::from_edges(4, [(0, 1, 2u64), (1, 3, 5), (2, 3, 1)]);
    /// let mut index_of = vec![usize::MAX; g.len()];
    /// let sub = g.induced(&[1, 3], &mut index_of);
    /// assert_eq!(sub.edges(), &[(0, 1, 5)]);
    /// ```
    #[must_use]
    pub fn induced(&self, vertices: &[usize], index_of: &mut [usize]) -> WeightedGraph {
        assert_eq!(index_of.len(), self.n, "index scratch must cover the graph");
        for (i, &v) in vertices.iter().enumerate() {
            assert!(i == 0 || vertices[i - 1] < v, "vertices must be strictly increasing");
            index_of[v] = i;
        }
        let mut adj = Vec::with_capacity(vertices.len());
        let mut edges = Vec::new();
        for (i, &v) in vertices.iter().enumerate() {
            let row: Vec<(usize, u64)> = self.adj[v]
                .iter()
                .map(|&(u, w)| (index_of[u], w))
                .filter(|&(j, _)| j != usize::MAX)
                .collect();
            edges.extend(row.iter().filter(|&&(j, _)| j > i).map(|&(j, w)| (i, j, w)));
            adj.push(row);
        }
        for &v in vertices {
            index_of[v] = usize::MAX;
        }
        WeightedGraph { n: vertices.len(), adj, edges }
    }

    /// Number of vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Deduplicated `(a, b, weight)` edges with `a < b`, sorted.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize, u64)] {
        &self.edges
    }

    /// Neighbors of `v` with edge weights.
    #[must_use]
    pub fn neighbors(&self, v: usize) -> &[(usize, u64)] {
        &self.adj[v]
    }

    /// Sum of weights of edges incident to `v`.
    #[must_use]
    pub fn weighted_degree(&self, v: usize) -> u64 {
        self.adj[v].iter().map(|&(_, w)| w).sum()
    }

    /// Total weight of edges crossing the boolean partition `side`.
    ///
    /// # Panics
    ///
    /// Panics if `side.len() != self.len()`.
    #[must_use]
    pub fn cut_weight(&self, side: &[bool]) -> u64 {
        assert_eq!(side.len(), self.n, "side length mismatch");
        self.edges.iter().filter(|&&(a, b, _)| side[a] != side[b]).map(|&(_, _, w)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn merges_parallel_edges() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1), (1, 0, 2), (1, 2, 1)]);
        assert_eq!(g.edges(), &[(0, 1, 3), (1, 2, 1)]);
    }

    #[test]
    fn ignores_self_loops() {
        let g = WeightedGraph::from_edges(2, [(0, 0, 5), (0, 1, 1)]);
        assert_eq!(g.edges(), &[(0, 1, 1)]);
    }

    #[test]
    fn cut_weight_counts_crossing_edges() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 4)]);
        assert_eq!(g.cut_weight(&[false, false, true, true]), 2);
        assert_eq!(g.cut_weight(&[false, true, false, true]), 7);
    }

    #[test]
    fn induced_restores_the_index_scratch() {
        let g = WeightedGraph::from_edges(5, [(0, 1, 1), (1, 2, 2), (2, 4, 3), (0, 4, 1)]);
        let mut index_of = vec![usize::MAX; 5];
        for vertices in [&[][..], &[3], &[0, 2, 4], &[0, 1, 2, 3, 4]] {
            let _ = g.induced(vertices, &mut index_of);
            assert!(index_of.iter().all(|&i| i == usize::MAX), "{vertices:?} left {index_of:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        let _ = WeightedGraph::from_edges(2, [(0, 5, 1)]);
    }

    /// `from_edges` over the edges of `g` with both endpoints in
    /// `vertices`, renumbered to subset positions: what `induced` must
    /// reproduce.
    fn induced_by_rebuild(g: &WeightedGraph, vertices: &[usize]) -> WeightedGraph {
        let position = |v: usize| vertices.iter().position(|&x| x == v);
        let kept = g.edges().iter().filter_map(|&(a, b, w)| Some((position(a)?, position(b)?, w)));
        WeightedGraph::from_edges(vertices.len(), kept)
    }

    fn assert_same(got: &WeightedGraph, want: &WeightedGraph) {
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(got.edges(), want.edges());
        for i in 0..want.len() {
            prop_assert_eq!(got.neighbors(i), want.neighbors(i), "vertex {}", i);
        }
    }

    proptest! {
        /// On random graphs (parallel edges, self-loops and zero weights
        /// included) and random increasing subsets, `induced` equals the
        /// `from_edges` rebuild exactly, as do the empty subset and every
        /// singleton.
        #[test]
        fn induced_matches_a_from_edges_rebuild(
            n in 1usize..16,
            edges in proptest::collection::vec((0usize..16, 0usize..16, 0u64..4), 0..80),
            keep in proptest::collection::vec(0u8..2, 16..17),
        ) {
            let g = WeightedGraph::from_edges(n, edges.into_iter().map(|(a, b, w)| (a % n, b % n, w)));
            let mut index_of = vec![usize::MAX; n];
            let subset: Vec<usize> = (0..n).filter(|&v| keep[v] == 1).collect();
            let mut subsets = vec![subset, Vec::new()];
            subsets.extend((0..n).map(|v| vec![v]));
            for vertices in &subsets {
                assert_same(&g.induced(vertices, &mut index_of), &induced_by_rebuild(&g, vertices));
            }
        }
    }
}
