//! Deterministic fixture graphs with analytically known structure.

use crate::{GraphBuilder, GraphError};

/// Path graph `0 − 1 − … − (n−1)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when `n == 0`.
pub fn path_graph(n: usize) -> Result<GraphBuilder, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter { message: "path needs ≥ 1 node".into() });
    }
    let mut b = GraphBuilder::new();
    b.reserve_nodes(n);
    for i in 0..n.saturating_sub(1) {
        b.add_edge(i, i + 1)?;
    }
    Ok(b)
}

/// Cycle graph on `n ≥ 3` nodes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when `n < 3`.
pub fn cycle_graph(n: usize) -> Result<GraphBuilder, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameter { message: "cycle needs ≥ 3 nodes".into() });
    }
    let mut b = path_graph(n)?;
    b.add_edge(n - 1, 0)?;
    Ok(b)
}

/// Star with center 0 and `n − 1` leaves.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when `n == 0`.
pub fn star_graph(n: usize) -> Result<GraphBuilder, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter { message: "star needs ≥ 1 node".into() });
    }
    let mut b = GraphBuilder::new();
    b.reserve_nodes(n);
    for leaf in 1..n {
        b.add_edge(0, leaf)?;
    }
    Ok(b)
}

/// Complete graph `K_n`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when `n == 0`.
pub fn complete_graph(n: usize) -> Result<GraphBuilder, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter {
            message: "complete graph needs ≥ 1 node".into(),
        });
    }
    let mut b = GraphBuilder::new();
    b.reserve_nodes(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v)?;
        }
    }
    Ok(b)
}

/// `rows × cols` grid graph with 4-neighborhoods; node `(r, c)` has id
/// `r * cols + c`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when either dimension is 0.
pub fn grid_graph(rows: usize, cols: usize) -> Result<GraphBuilder, GraphError> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::InvalidParameter { message: "grid needs positive dims".into() });
    }
    let mut b = GraphBuilder::new();
    b.reserve_nodes(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                b.add_edge(id, id + 1)?;
            }
            if r + 1 < rows {
                b.add_edge(id, id + cols)?;
            }
        }
    }
    Ok(b)
}

/// The "parallel paths" gadget from the paper's Fig. 4 breakpoint
/// discussion: `k` interior-disjoint paths between a shared source (node
/// 0) and a shared target (node 1), with `lengths[i]` interior nodes on
/// path `i`.
///
/// Interior nodes are numbered consecutively starting at 2, path by path.
/// With all paths invited the acceptance probability decomposes over
/// independent chains, making this the workhorse fixture for closed-form
/// probability tests.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when `lengths` is empty.
pub fn parallel_paths(lengths: &[usize]) -> Result<GraphBuilder, GraphError> {
    if lengths.is_empty() {
        return Err(GraphError::InvalidParameter { message: "need ≥ 1 path".into() });
    }
    let mut b = GraphBuilder::new();
    let (source, target) = (0usize, 1usize);
    let mut next = 2usize;
    for &len in lengths {
        if len == 0 {
            // Direct edge; duplicates are fine (deduplicated by builder).
            b.add_edge(source, target)?;
            continue;
        }
        let mut prev = source;
        for _ in 0..len {
            b.add_edge(prev, next)?;
            prev = next;
            next += 1;
        }
        b.add_edge(prev, target)?;
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connected_components, NodeId, WeightScheme};

    #[test]
    fn path_counts() {
        let g = path_graph(5).unwrap().build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(2)), 2);
    }

    #[test]
    fn single_node_path() {
        let g = path_graph(1).unwrap().build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn cycle_counts() {
        let g = cycle_graph(6).unwrap().build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(g.edge_count(), 6);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(cycle_graph(2).is_err());
    }

    #[test]
    fn star_counts() {
        let g = star_graph(7).unwrap().build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(g.degree(NodeId::new(0)), 6);
        for leaf in 1..7 {
            assert_eq!(g.degree(NodeId::new(leaf)), 1);
        }
    }

    #[test]
    fn complete_counts() {
        let g = complete_graph(6).unwrap().build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(g.edge_count(), 15);
    }

    #[test]
    fn grid_counts() {
        let g = grid_graph(3, 4).unwrap().build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(g.node_count(), 12);
        // Horizontal: 3 rows × 3; vertical: 2 rows × 4.
        assert_eq!(g.edge_count(), 9 + 8);
        assert_eq!(connected_components(&g).count(), 1);
    }

    #[test]
    fn parallel_paths_structure() {
        // Two paths with 1 and 3 interior nodes: Fig. 4 breakpoint shape.
        let g = parallel_paths(&[1, 3]).unwrap().build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.degree(NodeId::new(1)), 2);
        // Interiors are numbered from 2, path by path; the two routes'
        // six edges are all of the graph's edges.
        for route in [&[0, 2, 1][..], &[0, 3, 4, 5, 1]] {
            for w in route.windows(2) {
                assert!(g.has_edge(NodeId::new(w[0]), NodeId::new(w[1])), "no edge {w:?}");
            }
        }
    }

    #[test]
    fn parallel_paths_direct_edge() {
        let g = parallel_paths(&[0, 2]).unwrap().build(WeightScheme::UniformByDegree).unwrap();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(path_graph(0).is_err());
        assert!(star_graph(0).is_err());
        assert!(complete_graph(0).is_err());
        assert!(grid_graph(0, 3).is_err());
        assert!(parallel_paths(&[]).is_err());
    }
}
