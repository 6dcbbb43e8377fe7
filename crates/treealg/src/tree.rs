//! Edge-weighted rooted trees in flat array form.

use std::fmt;

use crate::Lca;

/// Error returned when a vertex/edge list does not describe a rooted tree.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeBuildError {
    /// An edge referenced a vertex id `>= n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// The number of vertices the tree was declared with.
        n: usize,
    },
    /// The number of edges differs from `n - 1`.
    WrongEdgeCount {
        /// The number of edges supplied.
        edges: usize,
        /// The number of vertices.
        n: usize,
    },
    /// The edges do not connect all vertices (a cycle and a disconnected
    /// part must both exist when the edge count is right).
    Disconnected,
    /// An edge weight was negative or not finite.
    InvalidWeight {
        /// The offending weight.
        weight: f64,
    },
    /// The root id is `>= n` or the tree is empty.
    InvalidRoot,
}

impl fmt::Display for TreeBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeBuildError::VertexOutOfRange { vertex, n } => {
                write!(f, "edge endpoint {vertex} out of range for {n} vertices")
            }
            TreeBuildError::WrongEdgeCount { edges, n } => {
                write!(f, "{edges} edges cannot form a tree on {n} vertices")
            }
            TreeBuildError::Disconnected => write!(f, "edges do not form a connected tree"),
            TreeBuildError::InvalidWeight { weight } => {
                write!(f, "edge weight {weight} is negative or not finite")
            }
            TreeBuildError::InvalidRoot => write!(f, "root id out of range"),
        }
    }
}

impl std::error::Error for TreeBuildError {}

/// An edge-weighted rooted tree on vertices `0..n`.
///
/// The representation is flat: parent pointers, a child adjacency structure
/// in CSR form, hop depths and weighted depths. All of the heavier
/// structures in this workspace ([`Lca`], [`crate::LevelAncestor`], the
/// spanner preprocessing of `hopspan-tree-spanner`) are built on top of
/// this type.
#[derive(Debug, Clone, PartialEq)]
pub struct RootedTree {
    root: usize,
    parent: Vec<Option<usize>>,
    /// Weight of the edge to the parent (0.0 for the root).
    parent_weight: Vec<f64>,
    /// CSR offsets into `child_list`.
    child_start: Vec<usize>,
    child_list: Vec<usize>,
    depth: Vec<usize>,
    weighted_depth: Vec<f64>,
    /// Vertices in a preorder (parents before children).
    order: Vec<usize>,
}

impl RootedTree {
    /// Builds a tree on `n` vertices rooted at `root` from an undirected
    /// edge list `(u, v, weight)`.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeBuildError`] if the edges do not describe a tree on
    /// `0..n`, the root is out of range, or a weight is negative/non-finite.
    pub fn from_edges(
        n: usize,
        root: usize,
        edges: &[(usize, usize, f64)],
    ) -> Result<Self, TreeBuildError> {
        if n == 0 || root >= n {
            return Err(TreeBuildError::InvalidRoot);
        }
        if edges.len() != n - 1 {
            return Err(TreeBuildError::WrongEdgeCount {
                edges: edges.len(),
                n,
            });
        }
        for &(u, v, w) in edges {
            if u >= n {
                return Err(TreeBuildError::VertexOutOfRange { vertex: u, n });
            }
            if v >= n {
                return Err(TreeBuildError::VertexOutOfRange { vertex: v, n });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(TreeBuildError::InvalidWeight { weight: w });
            }
        }
        // Build an undirected adjacency in CSR form.
        let mut deg = vec![0usize; n];
        for &(u, v, _) in edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut start = vec![0usize; n + 1];
        for i in 0..n {
            start[i + 1] = start[i] + deg[i];
        }
        let mut adj = vec![(0usize, 0.0f64); 2 * edges.len()];
        let mut cursor = start.clone();
        for &(u, v, w) in edges {
            adj[cursor[u]] = (v, w);
            cursor[u] += 1;
            adj[cursor[v]] = (u, w);
            cursor[v] += 1;
        }
        // BFS from the root to orient the tree.
        let mut parent = vec![None; n];
        let mut parent_weight = vec![0.0; n];
        let mut depth = vec![0usize; n];
        let mut weighted_depth = vec![0.0; n];
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        visited[root] = true;
        order.push(root);
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &(v, w) in &adj[start[u]..start[u + 1]] {
                if !visited[v] {
                    visited[v] = true;
                    parent[v] = Some(u);
                    parent_weight[v] = w;
                    depth[v] = depth[u] + 1;
                    weighted_depth[v] = weighted_depth[u] + w;
                    order.push(v);
                }
            }
        }
        if order.len() != n {
            return Err(TreeBuildError::Disconnected);
        }
        Ok(Self::from_parents_unchecked(
            root,
            parent,
            parent_weight,
            depth,
            weighted_depth,
            order,
        ))
    }

    /// Builds a tree from parent pointers. `parents[root]` must be `None`;
    /// every other vertex must have a parent and the pointers must be
    /// acyclic (parents need not precede children in index order).
    ///
    /// # Errors
    ///
    /// Returns a [`TreeBuildError`] if the parent pointers contain a cycle,
    /// reference out-of-range vertices, or describe more than one root.
    pub fn from_parents(
        root: usize,
        parents: &[Option<usize>],
        weights: &[f64],
    ) -> Result<Self, TreeBuildError> {
        let n = parents.len();
        if n == 0 || root >= n || parents[root].is_some() || weights.len() != n {
            return Err(TreeBuildError::InvalidRoot);
        }
        let mut edges = Vec::with_capacity(n.saturating_sub(1));
        for (v, &p) in parents.iter().enumerate() {
            if let Some(p) = p {
                edges.push((p, v, weights[v]));
            } else if v != root {
                return Err(TreeBuildError::Disconnected);
            }
        }
        Self::from_edges(n, root, &edges)
    }

    fn from_parents_unchecked(
        root: usize,
        parent: Vec<Option<usize>>,
        parent_weight: Vec<f64>,
        depth: Vec<usize>,
        weighted_depth: Vec<f64>,
        order: Vec<usize>,
    ) -> Self {
        let n = parent.len();
        let mut child_count = vec![0usize; n];
        for v in 0..n {
            if let Some(p) = parent[v] {
                child_count[p] += 1;
            }
        }
        let mut child_start = vec![0usize; n + 1];
        for i in 0..n {
            child_start[i + 1] = child_start[i] + child_count[i];
        }
        let mut child_list = vec![0usize; n - 1];
        let mut cursor = child_start.clone();
        // Fill children in BFS order so iteration is deterministic.
        for &v in &order {
            if let Some(p) = parent[v] {
                child_list[cursor[p]] = v;
                cursor[p] += 1;
            }
        }
        RootedTree {
            root,
            parent,
            parent_weight,
            child_start,
            child_list,
            depth,
            weighted_depth,
            order,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty (never true for a constructed tree).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root vertex.
    #[inline]
    pub fn root(&self) -> usize {
        self.root
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// Weight of the edge from `v` to its parent (0.0 for the root).
    #[inline]
    pub fn parent_weight(&self, v: usize) -> f64 {
        self.parent_weight[v]
    }

    /// Children of `v` in deterministic (BFS discovery) order.
    #[inline]
    pub fn children(&self, v: usize) -> &[usize] {
        &self.child_list[self.child_start[v]..self.child_start[v + 1]]
    }

    /// Number of children of `v`.
    #[inline]
    pub fn child_count(&self, v: usize) -> usize {
        self.child_start[v + 1] - self.child_start[v]
    }

    /// Hop depth of `v` (the root has depth 0).
    #[inline]
    pub fn depth(&self, v: usize) -> usize {
        self.depth[v]
    }

    /// Sum of edge weights from the root to `v`.
    #[inline]
    pub fn weighted_depth(&self, v: usize) -> f64 {
        self.weighted_depth[v]
    }

    /// Vertices in an order where parents precede children.
    #[inline]
    pub fn preorder(&self) -> &[usize] {
        &self.order
    }

    /// Whether `a` is an ancestor of (or equal to) `d`, given an LCA
    /// structure built on this tree.
    pub fn is_ancestor_with(&self, lca: &Lca, a: usize, d: usize) -> bool {
        lca.lca(a, d) == a
    }

    /// Weighted tree distance between `u` and `v` in O(1), given an LCA
    /// structure built on this tree.
    pub fn distance_with(&self, lca: &Lca, u: usize, v: usize) -> f64 {
        let a = lca.lca(u, v);
        self.weighted_depth[u] + self.weighted_depth[v] - 2.0 * self.weighted_depth[a]
    }

    /// The parent of a vertex known to be a non-root: the `depth`
    /// comparisons in the walk loops below guarantee the vertex is
    /// strictly below some other vertex, hence below the root.
    #[inline]
    fn parent_unchecked(&self, v: usize) -> usize {
        // hopspan:allow(panic-in-lib) -- depth[v] > depth[other] ≥ 0 proves v is not the root
        self.parent[v].expect("non-root has parent")
    }

    /// The unique tree path from `u` to `v` as a vertex sequence
    /// (inclusive). O(path length).
    pub fn vertex_path(&self, u: usize, v: usize) -> Vec<usize> {
        // Walk both endpoints up to their LCA without auxiliary structures.
        let mut a = u;
        let mut b = v;
        let mut up_a = vec![a];
        let mut up_b = vec![b];
        while self.depth[a] > self.depth[b] {
            a = self.parent_unchecked(a);
            up_a.push(a);
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent_unchecked(b);
            up_b.push(b);
        }
        while a != b {
            a = self.parent_unchecked(a);
            b = self.parent_unchecked(b);
            up_a.push(a);
            up_b.push(b);
        }
        // up_a ends at the LCA; append up_b reversed, skipping the LCA.
        up_b.pop();
        up_a.extend(up_b.into_iter().rev());
        up_a
    }

    /// Weighted tree distance between `u` and `v` in O(path length)
    /// (useful where no LCA structure is at hand; prefer
    /// [`RootedTree::distance_with`]).
    pub fn distance_slow(&self, u: usize, v: usize) -> f64 {
        let mut a = u;
        let mut b = v;
        let mut total = 0.0;
        while self.depth[a] > self.depth[b] {
            total += self.parent_weight[a];
            a = self.parent_unchecked(a);
        }
        while self.depth[b] > self.depth[a] {
            total += self.parent_weight[b];
            b = self.parent_unchecked(b);
        }
        while a != b {
            total += self.parent_weight[a] + self.parent_weight[b];
            a = self.parent_unchecked(a);
            b = self.parent_unchecked(b);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RootedTree {
        // 0 -(1)- 1 -(2)- 3
        //   \(4)- 2 -(1)- 4
        RootedTree::from_edges(5, 0, &[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 4.0), (2, 4, 1.0)]).unwrap()
    }

    #[test]
    fn builds_and_orients() {
        let t = sample();
        assert_eq!(t.root(), 0);
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.parent(0), None);
        assert_eq!(t.depth(4), 2);
        assert_eq!(t.weighted_depth(4), 5.0);
        assert_eq!(t.children(0), &[1, 2]);
        assert_eq!(t.child_count(1), 1);
    }

    #[test]
    fn rejects_disconnected() {
        let err = RootedTree::from_edges(4, 0, &[(0, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)]);
        assert_eq!(err.unwrap_err(), TreeBuildError::Disconnected);
    }

    #[test]
    fn rejects_wrong_edge_count() {
        let err = RootedTree::from_edges(3, 0, &[(0, 1, 1.0)]);
        assert!(matches!(
            err.unwrap_err(),
            TreeBuildError::WrongEdgeCount { .. }
        ));
    }

    #[test]
    fn rejects_bad_weight() {
        let err = RootedTree::from_edges(2, 0, &[(0, 1, f64::NAN)]);
        assert!(matches!(
            err.unwrap_err(),
            TreeBuildError::InvalidWeight { .. }
        ));
        let err = RootedTree::from_edges(2, 0, &[(0, 1, -1.0)]);
        assert!(matches!(
            err.unwrap_err(),
            TreeBuildError::InvalidWeight { .. }
        ));
    }

    #[test]
    fn rejects_bad_root() {
        assert_eq!(
            RootedTree::from_edges(2, 2, &[(0, 1, 1.0)]).unwrap_err(),
            TreeBuildError::InvalidRoot
        );
        assert_eq!(
            RootedTree::from_edges(0, 0, &[]).unwrap_err(),
            TreeBuildError::InvalidRoot
        );
    }

    #[test]
    fn singleton() {
        let t = RootedTree::from_edges(1, 0, &[]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.vertex_path(0, 0), vec![0]);
        assert_eq!(t.distance_slow(0, 0), 0.0);
    }

    #[test]
    fn from_parents_round_trip() {
        let t = sample();
        let parents: Vec<Option<usize>> = (0..t.len()).map(|v| t.parent(v)).collect();
        let weights: Vec<f64> = (0..t.len()).map(|v| t.parent_weight(v)).collect();
        let t2 = RootedTree::from_parents(0, &parents, &weights).unwrap();
        assert_eq!(t2.depth(4), 2);
        assert_eq!(t2.weighted_depth(3), 3.0);
    }

    #[test]
    fn paths_and_distances() {
        let t = sample();
        assert_eq!(t.vertex_path(3, 4), vec![3, 1, 0, 2, 4]);
        assert_eq!(t.vertex_path(3, 3), vec![3]);
        assert_eq!(t.vertex_path(0, 4), vec![0, 2, 4]);
        assert_eq!(t.distance_slow(3, 4), 8.0);
        assert_eq!(t.distance_slow(0, 3), 3.0);
    }

    #[test]
    fn preorder_parents_first() {
        let t = sample();
        let pos: Vec<usize> = {
            let mut pos = vec![0; t.len()];
            for (i, &v) in t.preorder().iter().enumerate() {
                pos[v] = i;
            }
            pos
        };
        for v in 0..t.len() {
            if let Some(p) = t.parent(v) {
                assert!(pos[p] < pos[v]);
            }
        }
    }
}
