//! Connectivity utilities: union-find and connected components.

use crate::graph::Graph;

/// Union-find (disjoint-set) structure with path halving and union by rank.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Finds the representative of `x` with path halving.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unions the sets containing `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        true
    }
}

/// Returns, for every vertex, the id of its connected component (component ids are
/// contiguous and assigned in order of first appearance), plus the component count.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let mut uf = UnionFind::new(g.n());
    for e in g.edges() {
        uf.union(e.u, e.v);
    }
    let mut label = vec![usize::MAX; g.n()];
    let mut next = 0usize;
    for v in 0..g.n() {
        let r = uf.find(v);
        if label[r] == usize::MAX {
            label[r] = next;
            next += 1;
        }
        label[v] = label[r];
    }
    (label, next)
}

/// True if the graph is connected (the empty graph is considered connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.n() <= 1 {
        return true;
    }
    let (_, count) = connected_components(g);
    count == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Graph;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn components_of_disjoint_paths() {
        let g = Graph::from_tuples(6, vec![(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]).unwrap();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[5]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connected_graphs_are_detected() {
        let g = generators::path(10, 1.0);
        assert!(is_connected(&g));
        let g = generators::cycle(10, 1.0);
        assert!(is_connected(&g));
        let g = Graph::new(1);
        assert!(is_connected(&g));
        let g = Graph::new(0);
        assert!(is_connected(&g));
        let g = Graph::new(2);
        assert!(!is_connected(&g));
    }
}
