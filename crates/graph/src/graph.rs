//! The weight-sorted CSR graph representation (Section 3.1 of the paper).
//!
//! The paper's local search framework requires two pieces of pre-organized
//! state, and *only* these (no community index is ever built):
//!
//! 1. vertices sorted in decreasing weight order, and
//! 2. each vertex's neighbor list partitioned into `N≥(u)` (neighbors with
//!    weight at least `ω(u)`) and `N<(u)` (the rest),
//!
//! so that any prefix subgraph `G≥τ` can be extracted in time linear to its
//! own size. We realize both by re-labelling vertices with their **rank**
//! (position in the decreasing-weight order) and storing each adjacency
//! list sorted ascending by rank: the `N≥` partition is then simply the
//! list prefix of ranks smaller than the vertex's own, and the neighbors
//! inside any rank prefix `0..t` are the list prefix of ranks `< t`.

/// A vertex identifier in *rank space*: `0` is the highest-weight vertex.
pub type Rank = u32;

/// Immutable vertex-weighted undirected graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`]. All algorithm crates operate on
/// ranks; [`WeightedGraph::external_id`] maps back to the caller's ids.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    /// CSR offsets; `offsets[r]..offsets[r+1]` is the adjacency of rank `r`.
    pub(crate) offsets: Vec<usize>,
    /// Concatenated adjacency lists, each sorted ascending by rank.
    pub(crate) adj: Vec<Rank>,
    /// Length of the `N≥` prefix of each adjacency list (number of
    /// neighbors with strictly smaller rank, i.e. higher effective weight).
    pub(crate) higher_len: Vec<u32>,
    /// Weight of each rank; non-increasing in `r` (strictly decreasing up
    /// to deterministic tie-breaking by external id).
    pub(crate) weights: Vec<f64>,
    /// External (input) id of each rank.
    pub(crate) ext_ids: Vec<u64>,
    /// Number of undirected edges.
    pub(crate) m: usize,
}

impl WeightedGraph {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// `size(G) = |V| + |E|`, the size measure used throughout the paper.
    #[inline]
    pub fn size(&self) -> u64 {
        self.n() as u64 + self.m as u64
    }

    /// Weight (influence) of the vertex with rank `r`.
    #[inline]
    pub fn weight(&self, r: Rank) -> f64 {
        self.weights[r as usize]
    }

    /// External id of the vertex with rank `r`.
    #[inline]
    pub fn external_id(&self, r: Rank) -> u64 {
        self.ext_ids[r as usize]
    }

    /// Rank of the vertex with the given external id, if present.
    ///
    /// This is a linear scan and intended for tests and examples; hot paths
    /// should work in rank space.
    pub fn rank_of_external(&self, ext: u64) -> Option<Rank> {
        self.ext_ids
            .iter()
            .position(|&e| e == ext)
            .map(|p| p as Rank)
    }

    /// Full adjacency list of `r`, sorted ascending by rank.
    #[inline]
    pub fn neighbors(&self, r: Rank) -> &[Rank] {
        &self.adj[self.offsets[r as usize]..self.offsets[r as usize + 1]]
    }

    /// Degree of `r` in the full graph.
    #[inline]
    pub fn degree(&self, r: Rank) -> u32 {
        (self.offsets[r as usize + 1] - self.offsets[r as usize]) as u32
    }

    /// `N≥(r)`: neighbors with higher effective weight (smaller rank).
    #[inline]
    pub fn higher_neighbors(&self, r: Rank) -> &[Rank] {
        let start = self.offsets[r as usize];
        &self.adj[start..start + self.higher_len[r as usize] as usize]
    }

    /// `N<(r)`: neighbors with lower effective weight (larger rank).
    #[inline]
    pub fn lower_neighbors(&self, r: Rank) -> &[Rank] {
        let start = self.offsets[r as usize] + self.higher_len[r as usize] as usize;
        &self.adj[start..self.offsets[r as usize + 1]]
    }

    /// Number of higher-weight neighbors of `r`; the marginal edge count a
    /// prefix gains when `r` joins it.
    #[inline]
    pub fn higher_degree(&self, r: Rank) -> u32 {
        self.higher_len[r as usize]
    }

    /// Neighbors of `r` that fall inside the rank prefix `0..t`, as a
    /// slice (the adjacency list is sorted, so this is its prefix).
    #[inline]
    pub fn neighbors_in_prefix(&self, r: Rank, t: usize) -> &[Rank] {
        let list = self.neighbors(r);
        let end = list.partition_point(|&x| (x as usize) < t);
        &list[..end]
    }

    /// Degree of `r` inside the rank prefix `0..t`.
    #[inline]
    pub fn degree_in_prefix(&self, r: Rank, t: usize) -> u32 {
        self.neighbors_in_prefix(r, t).len() as u32
    }

    /// True if `{a, b}` is an edge (binary search on the sorted list of the
    /// lower-degree endpoint).
    pub fn has_edge(&self, a: Rank, b: Rank) -> bool {
        let (s, t) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(s).binary_search(&t).is_ok()
    }

    /// All edges as `(lower_rank, higher_rank)` pairs, each reported once.
    pub fn edges(&self) -> impl Iterator<Item = (Rank, Rank)> + '_ {
        (0..self.n() as Rank)
            .flat_map(move |r| self.higher_neighbors(r).iter().map(move |&h| (h, r)))
    }

    /// Largest `t` such that every vertex of rank `< t` has weight `≥ τ`.
    /// Since weights are non-increasing in rank this is a partition point.
    pub fn prefix_len_for_threshold(&self, tau: f64) -> usize {
        self.weights.partition_point(|&w| w >= tau)
    }

    /// Smallest vertex weight (the weight of the last rank), `τ_min`.
    pub fn min_weight(&self) -> f64 {
        *self.weights.last().expect("graph must be non-empty")
    }

    /// Largest vertex weight, `τ_max`.
    pub fn max_weight(&self) -> f64 {
        *self.weights.first().expect("graph must be non-empty")
    }

    /// Builds a new graph identical to `self` except that the adjacency
    /// lists of the ranks named in `patches` are replaced. The vertex
    /// set, weights, and therefore the entire rank order are unchanged —
    /// this is the compaction fast path for pure *edge* churn, costing
    /// one linear copy instead of the full sort-and-relabel of
    /// [`crate::GraphBuilder`].
    ///
    /// Each patch list must be sorted ascending by rank, free of self
    /// loops and duplicates, and the patch set must keep the edge
    /// relation symmetric (an edge change always patches both
    /// endpoints); violations are caught by a debug assertion.
    pub fn with_patched_adjacency(&self, patches: &[(Rank, Vec<Rank>)]) -> WeightedGraph {
        let n = self.n();
        let mut patch_of: Vec<Option<&[Rank]>> = vec![None; n];
        for (r, list) in patches {
            patch_of[*r as usize] = Some(list.as_slice());
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for (r, patch) in patch_of.iter().enumerate() {
            acc += match patch {
                Some(list) => list.len(),
                None => self.offsets[r + 1] - self.offsets[r],
            };
            offsets.push(acc);
        }
        let mut adj = Vec::with_capacity(acc);
        let mut higher_len = Vec::with_capacity(n);
        for (r, patch) in patch_of.iter().enumerate() {
            match patch {
                Some(list) => {
                    adj.extend_from_slice(list);
                    higher_len.push(list.partition_point(|&x| (x as usize) < r) as u32);
                }
                None => {
                    adj.extend_from_slice(self.neighbors(r as Rank));
                    higher_len.push(self.higher_len[r]);
                }
            }
        }
        debug_assert_eq!(acc % 2, 0, "patched edge relation must stay symmetric");
        let g = WeightedGraph {
            offsets,
            adj,
            higher_len,
            weights: self.weights.clone(),
            ext_ids: self.ext_ids.clone(),
            m: acc / 2,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Internal consistency check used by tests and debug assertions:
    /// offsets monotone, lists sorted and symmetric, weights non-increasing.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        if self.offsets.len() != n + 1 {
            return Err("offset array length mismatch".into());
        }
        if self.offsets[n] != self.adj.len() || self.adj.len() != 2 * self.m {
            return Err("edge count mismatch".into());
        }
        for r in 0..n {
            let list = self.neighbors(r as Rank);
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency of rank {r} not strictly sorted"));
            }
            if list.iter().any(|&x| x as usize == r) {
                return Err(format!("self loop at rank {r}"));
            }
            let hl = self.higher_len[r] as usize;
            if list[..hl].iter().any(|&x| x as usize >= r)
                || list[hl..].iter().any(|&x| (x as usize) <= r)
            {
                return Err(format!("higher/lower partition wrong at rank {r}"));
            }
            for &nb in list {
                if self.neighbors(nb).binary_search(&(r as Rank)).is_err() {
                    return Err(format!("edge ({r},{nb}) not symmetric"));
                }
            }
            if r + 1 < n && self.weights[r] < self.weights[r + 1] {
                return Err("weights not sorted decreasing".into());
            }
        }
        Ok(())
    }
}

/// Lets code generic over `G: AsRef<WeightedGraph>` take a graph by value,
/// by reference or behind an `Arc` alike.
impl AsRef<WeightedGraph> for WeightedGraph {
    fn as_ref(&self) -> &WeightedGraph {
        self
    }
}

#[cfg(test)]
mod tests {

    use crate::paper::figure1;

    #[test]
    fn figure1_shape() {
        let g = figure1();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 17);
        assert_eq!(g.size(), 27);
        g.validate().unwrap();
    }

    #[test]
    fn rank_order_is_decreasing_weight() {
        let g = figure1();
        // v9 has the largest weight 19 -> rank 0
        assert_eq!(g.external_id(0), 9);
        assert_eq!(g.weight(0), 19.0);
        // v0 has the smallest weight 10 -> last rank
        assert_eq!(g.external_id(9), 0);
        assert_eq!(g.weight(9), 10.0);
        for r in 0..9 {
            assert!(g.weight(r) > g.weight(r + 1));
        }
    }

    #[test]
    fn neighbor_partition() {
        let g = figure1();
        for r in 0..g.n() as u32 {
            let hd = g.higher_degree(r);
            assert_eq!(hd as usize, g.higher_neighbors(r).len());
            assert!(g.higher_neighbors(r).iter().all(|&x| x < r));
            assert!(g.lower_neighbors(r).iter().all(|&x| x > r));
            assert_eq!(
                g.higher_neighbors(r).len() + g.lower_neighbors(r).len(),
                g.degree(r) as usize
            );
        }
    }

    #[test]
    fn prefix_views() {
        let g = figure1();
        // prefix of size 0 and 1 have no edges
        assert_eq!(g.neighbors_in_prefix(0, 1), &[] as &[u32]);
        // full prefix equals full adjacency
        for r in 0..g.n() as u32 {
            assert_eq!(g.neighbors_in_prefix(r, g.n()), g.neighbors(r));
        }
        // degrees inside a mid prefix only count prefix members
        let t = 5;
        for r in 0..t as u32 {
            let d = g.degree_in_prefix(r, t);
            let manual = g.neighbors(r).iter().filter(|&&x| (x as usize) < t).count();
            assert_eq!(d as usize, manual);
        }
    }

    #[test]
    fn has_edge_and_edges_iterator() {
        let g = figure1();
        let r3 = g.rank_of_external(3).unwrap();
        let r9 = g.rank_of_external(9).unwrap();
        let r0 = g.rank_of_external(0).unwrap();
        assert!(g.has_edge(r3, r9));
        assert!(!g.has_edge(r0, r9));
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), g.m());
        for (a, b) in all {
            assert!(a < b, "edges() must emit (higher weight, lower weight)");
            assert!(g.has_edge(a, b));
        }
    }

    #[test]
    fn patched_adjacency_equals_rebuilt_graph() {
        use crate::GraphBuilder;
        let g = figure1();
        // remove edge (0, 1) and add edge (0, 9) — in rank space
        let drop = (0u32, 1u32);
        let add = (0u32, 9u32);
        let mut lists: Vec<Vec<u32>> = (0..g.n() as u32).map(|r| g.neighbors(r).to_vec()).collect();
        for (a, b) in [(drop.0, drop.1), (drop.1, drop.0)] {
            let pos = lists[a as usize].binary_search(&b).unwrap();
            lists[a as usize].remove(pos);
        }
        for (a, b) in [(add.0, add.1), (add.1, add.0)] {
            let pos = lists[a as usize].binary_search(&b).unwrap_err();
            lists[a as usize].insert(pos, b);
        }
        let patches: Vec<(u32, Vec<u32>)> = [drop.0, drop.1, add.1]
            .iter()
            .map(|&r| (r, lists[r as usize].clone()))
            .collect();
        let patched = g.with_patched_adjacency(&patches);
        patched.validate().unwrap();
        assert_eq!(patched.m(), g.m());
        assert!(!patched.has_edge(drop.0, drop.1));
        assert!(patched.has_edge(add.0, add.1));
        // identical to a from-scratch rebuild of the same edge set
        let mut b = GraphBuilder::new();
        for r in 0..g.n() as u32 {
            b.set_weight(g.external_id(r), g.weight(r));
            b.add_vertex(g.external_id(r));
        }
        for r in 0..patched.n() as u32 {
            for &x in patched.neighbors(r) {
                if r < x {
                    b.add_edge(patched.external_id(r), patched.external_id(x));
                }
            }
        }
        let rebuilt = b.build().unwrap();
        assert_eq!(rebuilt.n(), patched.n());
        assert_eq!(rebuilt.m(), patched.m());
        for r in 0..patched.n() as u32 {
            assert_eq!(rebuilt.neighbors(r), patched.neighbors(r));
            assert_eq!(rebuilt.weight(r), patched.weight(r));
            assert_eq!(rebuilt.external_id(r), patched.external_id(r));
        }
    }

    #[test]
    fn empty_patch_set_is_a_plain_copy() {
        let g = figure1();
        let copy = g.with_patched_adjacency(&[]);
        copy.validate().unwrap();
        assert_eq!(copy.m(), g.m());
        for r in 0..g.n() as u32 {
            assert_eq!(copy.neighbors(r), g.neighbors(r));
        }
    }

    #[test]
    fn threshold_prefix_lengths() {
        let g = figure1();
        assert_eq!(g.prefix_len_for_threshold(19.5), 0);
        assert_eq!(g.prefix_len_for_threshold(19.0), 1);
        assert_eq!(g.prefix_len_for_threshold(15.0), 5);
        assert_eq!(g.prefix_len_for_threshold(10.0), 10);
        assert_eq!(g.prefix_len_for_threshold(0.0), 10);
        assert_eq!(g.min_weight(), 10.0);
        assert_eq!(g.max_weight(), 19.0);
    }
}
