//! The overlay graph, k-shortest-path enumeration, and disjoint-path
//! routing.
//!
//! §5.1: "An overlay network … may be represented as a graph
//! `G = (V, E)` with `n` overlay nodes and `m` edges. … There may exist
//! multiple distinct paths `P^j, j = 1, 2, … L` between each server and
//! client." The paper's 14-node testbed satisfies the OverQoS placement
//! assumption (paths between node pairs do not share bottlenecks), so
//! the original greedy *link-disjoint* enumeration
//! ([`OverlayGraph::disjoint_paths`]) is kept as the conservative
//! baseline. Production overlays are denser: the loopless k-shortest
//! enumeration ([`OverlayGraph::k_shortest_paths`], Yen's algorithm)
//! returns the `k` cheapest *simple* paths — which may share links —
//! and lets the scheduler's per-path CDFs arbitrate the sharing, which
//! is what the graph-scale scenario family exercises.
//!
//! Every path query runs one array Dijkstra: `dist` / `parent` /
//! `settled` arrays indexed by node id, a `(cost, node)` heap, and
//! banned nodes and edges as flag arrays. Yen's spur searches and the
//! greedy disjoint loop reuse one such scratch per query, so a query
//! allocates its arrays once however many searches it runs.
//!
//! Determinism contract: every routine on this graph is a pure function
//! of the node/edge set. Shortest paths break cost ties by the
//! lexicographically smallest node sequence, and Yen's candidate pool
//! is ordered by `(cost, node sequence)`, so enumeration order is
//! reproducible across runs, platforms and thread counts. The tie-break
//! is exact: when `v` is reached from `u` at its current distance, `u`
//! becomes its parent only if `path(u) + [v]` is lexicographically
//! smaller than `path(parent[v]) + [v]`. Weights are positive, so every
//! optimal predecessor of `v` settles before `v` does, and the parent
//! tree holds the smallest min-cost sequence to every settled node.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

/// An overlay node handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OverlayNodeId(pub usize);

/// A directed overlay graph with positive integer edge costs.
#[derive(Debug, Default, Clone)]
pub struct OverlayGraph {
    names: Vec<String>,
    by_name: HashMap<String, OverlayNodeId>,
    /// Out-neighbors per node, sorted by id for determinism.
    edges: Vec<Vec<OverlayNodeId>>,
    /// Edge costs (≥ 1) parallel to `edges`: `weights[u][i]` is the
    /// cost of `u → edges[u][i]`. Edges added without an explicit
    /// weight cost 1, which makes path cost equal hop count on
    /// unweighted graphs.
    weights: Vec<Vec<u64>>,
}

impl OverlayGraph {
    /// An empty overlay graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or finds) a node.
    pub fn node(&mut self, name: &str) -> OverlayNodeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = OverlayNodeId(self.names.len());
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        self.edges.push(Vec::new());
        self.weights.push(Vec::new());
        id
    }

    /// Finds an existing node.
    pub fn find(&self, name: &str) -> Option<OverlayNodeId> {
        self.by_name.get(name).copied()
    }

    /// Node name.
    pub fn name(&self, id: OverlayNodeId) -> &str {
        &self.names[id.0]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Adds a directed logical link of cost 1 (idempotent; an existing
    /// edge keeps its weight).
    pub fn add_edge(&mut self, from: OverlayNodeId, to: OverlayNodeId) {
        if self.edge_weight(from, to).is_none() {
            self.add_edge_weighted(from, to, 1);
        }
    }

    /// Adds a directed logical link of cost `weight`. Re-adding an
    /// existing edge updates its weight.
    ///
    /// # Panics
    /// Panics on a zero weight (Yen's deviation search assumes strictly
    /// positive costs) or a self-loop.
    pub fn add_edge_weighted(&mut self, from: OverlayNodeId, to: OverlayNodeId, weight: u64) {
        assert!(weight > 0, "edge weights must be strictly positive");
        assert_ne!(from, to, "self-loops are not representable paths");
        match self.edges[from.0].binary_search(&to) {
            Ok(i) => self.weights[from.0][i] = weight,
            Err(i) => {
                self.edges[from.0].insert(i, to);
                self.weights[from.0].insert(i, weight);
            }
        }
    }

    /// Cost of the edge `from → to`, if present.
    pub fn edge_weight(&self, from: OverlayNodeId, to: OverlayNodeId) -> Option<u64> {
        let i = self.edges[from.0].binary_search(&to).ok()?;
        Some(self.weights[from.0][i])
    }

    /// Out-neighbors.
    pub fn neighbors(&self, from: OverlayNodeId) -> &[OverlayNodeId] {
        &self.edges[from.0]
    }

    /// Total cost of a node path, or `None` if an edge is missing.
    pub fn path_cost(&self, path: &[OverlayNodeId]) -> Option<u64> {
        path.windows(2)
            .map(|w| self.edge_weight(w[0], w[1]))
            .sum::<Option<u64>>()
    }

    /// Cheapest path from `src` to `dst` (ties broken by the smallest
    /// node sequence), or `None` when unreachable. On unweighted graphs
    /// this is the fewest-hops path.
    pub fn shortest_path(
        &self,
        src: OverlayNodeId,
        dst: OverlayNodeId,
    ) -> Option<Vec<OverlayNodeId>> {
        Search::new(self).run(src, dst).map(|(_, p)| p)
    }

    /// Yen's loopless k-shortest-paths: the up-to-`k` cheapest *simple*
    /// paths from `src` to `dst`, in nondecreasing `(cost, node
    /// sequence)` order. `k_shortest_paths(src, dst, 1)` equals
    /// [`OverlayGraph::shortest_path`]. Returned paths may share links —
    /// use [`OverlayGraph::disjoint_paths`] when the no-shared-
    /// bottleneck placement assumption must hold structurally.
    ///
    /// Each round spurs off the last chosen path at every node: the
    /// root before the spur node is banned (paths stay simple), as is
    /// the next edge of every chosen path sharing that root (deviations
    /// are new), and one reused search finds the cheapest tail.
    pub fn k_shortest_paths(
        &self,
        src: OverlayNodeId,
        dst: OverlayNodeId,
        k: usize,
    ) -> Vec<Vec<OverlayNodeId>> {
        if k == 0 {
            return Vec::new();
        }
        let mut search = Search::new(self);
        let Some((_, first)) = search.run(src, dst) else {
            return Vec::new();
        };
        let mut chosen: Vec<Vec<OverlayNodeId>> = vec![first];
        // Candidate deviations, ordered by (cost, node sequence) so
        // pop-first is the deterministic global minimum. The edge bans
        // keep every chosen path out of a spur search, so a candidate
        // is never a path already chosen.
        let mut candidates: BTreeSet<(u64, Vec<OverlayNodeId>)> = BTreeSet::new();
        while chosen.len() < k {
            let prev = &chosen[chosen.len() - 1];
            // Bans only accumulate while spurring off one path: each
            // spur node joins the banned root of the next spur, which
            // also makes the edges banned out of it unreachable.
            search.clear_bans();
            for j in 0..prev.len() - 1 {
                if j > 0 {
                    search.ban_node(prev[j - 1]);
                }
                let root = &prev[..=j];
                for p in &chosen {
                    if p.len() > j + 1 && p[..=j] == *root {
                        search.ban_edge(p[j], p[j + 1]);
                    }
                }
                if let Some((_, tail)) = search.run(prev[j], dst) {
                    let mut cand = root[..j].to_vec();
                    cand.extend(tail);
                    let cost = self
                        .path_cost(&cand)
                        .expect("deviation paths walk existing edges");
                    candidates.insert((cost, cand));
                }
            }
            let Some((_, next)) = candidates.pop_first() else {
                break;
            };
            chosen.push(next);
        }
        chosen
    }

    /// Enumerates up to `k` link-disjoint paths from `src` to `dst`
    /// (greedy: repeatedly take the cheapest path and ban its edges in
    /// one reused search). This is the conservative baseline behind the
    /// paper's no-shared-bottleneck assumption; each returned path
    /// costs at least as much as the corresponding entry of
    /// [`OverlayGraph::k_shortest_paths`]. For `src == dst` the trivial
    /// path `[src]` is returned once.
    pub fn disjoint_paths(
        &self,
        src: OverlayNodeId,
        dst: OverlayNodeId,
        k: usize,
    ) -> Vec<Vec<OverlayNodeId>> {
        let mut search = Search::new(self);
        let mut out = Vec::new();
        while out.len() < k {
            let Some((_, p)) = search.run(src, dst) else {
                break;
            };
            for w in p.windows(2) {
                search.ban_edge(w[0], w[1]);
            }
            // The trivial path bans no edge and would repeat forever.
            let trivial = p.len() == 1;
            out.push(p);
            if trivial {
                break;
            }
        }
        out
    }

    /// Converts a node path to its name route (for `Topology::route`).
    pub fn names_of(&self, path: &[OverlayNodeId]) -> Vec<&str> {
        path.iter().map(|&n| self.name(n)).collect()
    }
}

/// Parent of the search root and of every node not yet reached.
const NO_PARENT: usize = usize::MAX;

/// Scratch of the array Dijkstra over one graph, reused across the
/// searches of one path query; only the source and the bans change
/// between them.
struct Search<'g> {
    graph: &'g OverlayGraph,
    dist: Vec<u64>,
    parent: Vec<usize>,
    settled: Vec<bool>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    banned_nodes: Vec<bool>,
    /// The flag of edge `u → edges[u][i]` sits at `edge_base[u] + i`.
    banned_edges: Vec<bool>,
    edge_base: Vec<usize>,
    /// The two tree paths compared by a cost tie.
    lhs: Vec<usize>,
    rhs: Vec<usize>,
}

impl<'g> Search<'g> {
    fn new(graph: &'g OverlayGraph) -> Self {
        let n = graph.node_count();
        let mut edge_base = Vec::with_capacity(n);
        let mut edges = 0;
        for out in &graph.edges {
            edge_base.push(edges);
            edges += out.len();
        }
        Self {
            graph,
            dist: vec![u64::MAX; n],
            parent: vec![NO_PARENT; n],
            settled: vec![false; n],
            heap: BinaryHeap::new(),
            banned_nodes: vec![false; n],
            banned_edges: vec![false; edges],
            edge_base,
            lhs: Vec::new(),
            rhs: Vec::new(),
        }
    }

    fn ban_node(&mut self, node: OverlayNodeId) {
        self.banned_nodes[node.0] = true;
    }

    fn ban_edge(&mut self, from: OverlayNodeId, to: OverlayNodeId) {
        let i = self.graph.edges[from.0]
            .binary_search(&to)
            .expect("banned edges exist");
        self.banned_edges[self.edge_base[from.0] + i] = true;
    }

    fn clear_bans(&mut self) {
        self.banned_nodes.fill(false);
        self.banned_edges.fill(false);
    }

    /// The cheapest `src → dst` path avoiding the bans and, among
    /// equal-cost paths, the lexicographically smallest node sequence,
    /// with its cost; `None` when unreachable.
    fn run(&mut self, src: OverlayNodeId, dst: OverlayNodeId) -> Option<(u64, Vec<OverlayNodeId>)> {
        if self.banned_nodes[src.0] || self.banned_nodes[dst.0] {
            return None;
        }
        self.dist.fill(u64::MAX);
        self.parent.fill(NO_PARENT);
        self.settled.fill(false);
        self.heap.clear();
        self.dist[src.0] = 0;
        self.heap.push(Reverse((0, src.0)));
        let g = self.graph;
        while let Some(Reverse((cost, u))) = self.heap.pop() {
            if self.settled[u] {
                continue;
            }
            self.settled[u] = true;
            if u == dst.0 {
                tree_path(&self.parent, u, &mut self.lhs);
                return Some((cost, self.lhs.iter().map(|&n| OverlayNodeId(n)).collect()));
            }
            let base = self.edge_base[u];
            for (i, (&v, &w)) in g.edges[u].iter().zip(&g.weights[u]).enumerate() {
                let v = v.0;
                if self.settled[v] || self.banned_nodes[v] || self.banned_edges[base + i] {
                    continue;
                }
                let d = cost + w;
                if d < self.dist[v] {
                    self.dist[v] = d;
                    self.parent[v] = u;
                    self.heap.push(Reverse((d, v)));
                } else if d == self.dist[v] && self.extends_smaller(u, v) {
                    self.parent[v] = u;
                }
            }
        }
        None
    }

    /// Whether `path(u) + [v]` is lexicographically smaller than
    /// `path(parent[v]) + [v]`. `v` is appended before comparing: when
    /// one tree path is a prefix of the other the shorter is not always
    /// smaller — `[a, c]` loses to `[a, b, c]` when `b < c`.
    fn extends_smaller(&mut self, u: usize, v: usize) -> bool {
        tree_path(&self.parent, u, &mut self.lhs);
        tree_path(&self.parent, self.parent[v], &mut self.rhs);
        self.lhs.iter().chain([&v]).lt(self.rhs.iter().chain([&v]))
    }
}

/// Writes the search-tree path from the root to `to` into `out`.
fn tree_path(parent: &[usize], to: usize, out: &mut Vec<usize>) {
    out.clear();
    let mut at = to;
    while at != NO_PARENT {
        out.push(at);
        at = parent[at];
    }
    out.reverse();
}

/// Builds the overlay view of the Figure 8 testbed: server N-1, routers
/// N-4 / N-5 (logical links riding the emulated bottlenecks), client
/// N-6.
pub fn figure8_overlay() -> (OverlayGraph, OverlayNodeId, OverlayNodeId) {
    let mut g = OverlayGraph::new();
    let n1 = g.node("N-1");
    let n2 = g.node("N-2");
    let n3 = g.node("N-3");
    let n4 = g.node("N-4");
    let n5 = g.node("N-5");
    let n6 = g.node("N-6");
    g.add_edge(n1, n2);
    g.add_edge(n2, n4);
    g.add_edge(n4, n6);
    g.add_edge(n1, n3);
    g.add_edge(n3, n5);
    g.add_edge(n5, n6);
    (g, n1, n6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_has_two_disjoint_paths() {
        let (g, s, c) = figure8_overlay();
        let paths = g.disjoint_paths(s, c, 4);
        assert_eq!(paths.len(), 2);
        let names: Vec<Vec<&str>> = paths.iter().map(|p| g.names_of(p)).collect();
        assert!(names.contains(&vec!["N-1", "N-2", "N-4", "N-6"]));
        assert!(names.contains(&vec!["N-1", "N-3", "N-5", "N-6"]));
    }

    #[test]
    fn no_path_between_disconnected_nodes() {
        let mut g = OverlayGraph::new();
        let a = g.node("a");
        let b = g.node("b");
        assert!(g.disjoint_paths(a, b, 2).is_empty());
        assert!(g.k_shortest_paths(a, b, 2).is_empty());
        assert!(g.shortest_path(a, b).is_none());
    }

    #[test]
    fn k_limits_path_count() {
        let (g, s, c) = figure8_overlay();
        assert_eq!(g.disjoint_paths(s, c, 1).len(), 1);
        assert_eq!(g.k_shortest_paths(s, c, 1).len(), 1);
        assert_eq!(g.k_shortest_paths(s, c, 0).len(), 0);
    }

    #[test]
    fn trivial_path_is_returned_once() {
        // src == dst: the one-node path is the only simple path, and it
        // bans no edge, so the greedy loop must not repeat it k times.
        let (g, s, _) = figure8_overlay();
        assert_eq!(g.disjoint_paths(s, s, 3), vec![vec![s]]);
        assert_eq!(g.k_shortest_paths(s, s, 3), vec![vec![s]]);
        assert_eq!(g.shortest_path(s, s), Some(vec![s]));
        assert!(g.disjoint_paths(s, s, 0).is_empty());
    }

    #[test]
    fn shortest_path_prefers_fewest_hops() {
        let mut g = OverlayGraph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(a, c); // direct
        let paths = g.disjoint_paths(a, c, 2);
        assert_eq!(paths[0].len(), 2, "first path must be the direct edge");
        assert_eq!(paths[1].len(), 3);
    }

    #[test]
    fn node_dedup_and_names() {
        let mut g = OverlayGraph::new();
        let a = g.node("x");
        assert_eq!(g.node("x"), a);
        assert_eq!(g.name(a), "x");
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.find("x"), Some(a));
        assert_eq!(g.find("y"), None);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = OverlayGraph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.add_edge(a, b);
        g.add_edge(a, b);
        assert_eq!(g.neighbors(a).len(), 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edge_weights_follow_their_edges() {
        // Out-of-order inserts keep neighbors sorted and each weight on
        // its own edge; add_edge keeps an existing weight, and
        // add_edge_weighted overwrites it.
        let mut g = OverlayGraph::new();
        let n: Vec<_> = (0..4).map(|i| g.node(&format!("v{i}"))).collect();
        g.add_edge_weighted(n[0], n[3], 7);
        g.add_edge_weighted(n[0], n[1], 2);
        g.add_edge_weighted(n[0], n[2], 5);
        assert_eq!(g.neighbors(n[0]), &[n[1], n[2], n[3]]);
        let weights: Vec<_> = (1..4).map(|i| g.edge_weight(n[0], n[i])).collect();
        assert_eq!(weights, vec![Some(2), Some(5), Some(7)]);
        g.add_edge(n[0], n[3]);
        assert_eq!(g.edge_weight(n[0], n[3]), Some(7));
        g.add_edge_weighted(n[0], n[3], 1);
        assert_eq!(g.edge_weight(n[0], n[3]), Some(1));
        assert_eq!(g.edge_weight(n[3], n[0]), None);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn weights_change_the_cheapest_path() {
        // a→b→c costs 2, the direct a→c edge costs 5: Dijkstra must
        // take the two-hop route, unlike the unweighted case.
        let mut g = OverlayGraph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge_weighted(a, c, 5);
        assert_eq!(g.shortest_path(a, c), Some(vec![a, b, c]));
        assert_eq!(g.path_cost(&[a, b, c]), Some(2));
        assert_eq!(g.path_cost(&[a, c]), Some(5));
        assert_eq!(g.path_cost(&[a, c, b]), None);
    }

    #[test]
    fn equal_cost_ties_break_lexicographically() {
        // Two disjoint two-hop routes a→b→d and a→c→d of equal cost:
        // the node-sequence tie-break must pick the one through b.
        let mut g = OverlayGraph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        let d = g.node("d");
        g.add_edge(a, c);
        g.add_edge(c, d);
        g.add_edge(a, b);
        g.add_edge(b, d);
        assert_eq!(g.shortest_path(a, d), Some(vec![a, b, d]));
        let k = g.k_shortest_paths(a, d, 3);
        assert_eq!(k, vec![vec![a, b, d], vec![a, c, d]]);

        // The prefix trap: a→b→c (1 + 1) ties the direct a→c (2). The
        // predecessor path [a] is a prefix of [a, b], yet [a, b, c]
        // precedes [a, c] because b < c — the tie must compare the
        // paths *with* c appended.
        let mut g = OverlayGraph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        g.add_edge_weighted(a, c, 2);
        g.add_edge(a, b);
        g.add_edge(b, c);
        assert_eq!(g.shortest_path(a, c), Some(vec![a, b, c]));
        let k = g.k_shortest_paths(a, c, 2);
        assert_eq!(k, vec![vec![a, b, c], vec![a, c]]);
    }

    #[test]
    fn yen_enumerates_figure8_then_stops() {
        let (g, s, c) = figure8_overlay();
        // Exactly two simple paths exist; asking for four returns both,
        // cheapest-lexicographic first.
        let k = g.k_shortest_paths(s, c, 4);
        assert_eq!(k.len(), 2);
        assert_eq!(g.names_of(&k[0]), vec!["N-1", "N-2", "N-4", "N-6"]);
        assert_eq!(g.names_of(&k[1]), vec!["N-1", "N-3", "N-5", "N-6"]);
    }

    #[test]
    fn yen_returns_nondecreasing_costs_and_simple_paths() {
        // A diamond with a chord: several overlapping routes.
        let mut g = OverlayGraph::new();
        let n: Vec<_> = (0..6).map(|i| g.node(&format!("v{i}"))).collect();
        for (u, v, w) in [
            (0, 1, 1),
            (1, 2, 1),
            (2, 5, 1),
            (0, 3, 2),
            (3, 4, 1),
            (4, 5, 1),
            (1, 4, 1),
            (3, 2, 1),
        ] {
            g.add_edge_weighted(n[u], n[v], w);
        }
        let paths = g.k_shortest_paths(n[0], n[5], 10);
        assert!(paths.len() >= 3);
        let costs: Vec<u64> = paths
            .iter()
            .map(|p| g.path_cost(p).expect("valid path"))
            .collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "costs {costs:?}");
        for p in &paths {
            assert_eq!(p.first(), Some(&n[0]));
            assert_eq!(p.last(), Some(&n[5]));
            let mut seen: Vec<_> = p.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), p.len(), "loop in {p:?}");
        }
        // All distinct.
        let mut uniq = paths.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), paths.len());
    }

    #[test]
    fn greedy_disjoint_costs_dominate_yens() {
        let (g, s, c) = figure8_overlay();
        let yen = g.k_shortest_paths(s, c, 4);
        let greedy = g.disjoint_paths(s, c, 4);
        for (i, p) in greedy.iter().enumerate() {
            assert!(g.path_cost(p).unwrap() >= g.path_cost(&yen[i]).unwrap());
        }
    }
}
