//! Holme–Kim powerlaw-cluster graphs (preferential attachment + triad
//! formation).

use crate::{GraphBuilder, GraphError};
use rand::Rng;

/// Holme–Kim powerlaw-cluster graph: like Barabási–Albert, but after each
/// preferential attachment step a triad is closed with probability
/// `triad_p` (the new node also links to a random neighbor of the node it
/// just attached to).
///
/// Produces heavy-tailed *and* clustered graphs — the stand-in topology
/// for the paper's dense Wiki dataset (avg degree 14.7) whose
/// who-votes-on-whom structure is strongly locally clustered.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `m_attach == 0`,
/// `n ≤ m_attach`, or `triad_p ∉ [0, 1]`.
pub fn powerlaw_cluster<R: Rng>(
    n: usize,
    m_attach: usize,
    triad_p: f64,
    rng: &mut R,
) -> Result<GraphBuilder, GraphError> {
    if m_attach == 0 {
        return Err(GraphError::InvalidParameter {
            message: "attachment count must be positive".to_string(),
        });
    }
    if n <= m_attach {
        return Err(GraphError::InvalidParameter {
            message: format!("need more than {m_attach} nodes, got {n}"),
        });
    }
    if !(0.0..=1.0).contains(&triad_p) {
        return Err(GraphError::InvalidParameter {
            message: format!("triad probability {triad_p} outside [0, 1]"),
        });
    }
    let mut b = GraphBuilder::with_capacity(n * m_attach);
    b.reserve_nodes(n);
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m_attach);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let seed = m_attach + 1;
    let link = |b: &mut GraphBuilder,
                adj: &mut Vec<Vec<u32>>,
                endpoints: &mut Vec<u32>,
                u: usize,
                v: usize|
     -> Result<bool, GraphError> {
        if u == v || b.contains_edge(u, v) {
            return Ok(false);
        }
        b.add_edge(u, v)?;
        endpoints.push(u as u32);
        endpoints.push(v as u32);
        adj[u].push(v as u32);
        adj[v].push(u as u32);
        Ok(true)
    };
    for u in 0..seed {
        for v in (u + 1)..seed {
            link(&mut b, &mut adj, &mut endpoints, u, v)?;
        }
    }
    for v in seed..n {
        let mut added = 0usize;
        let mut last_attached: Option<usize> = None;
        let mut guard = 0usize;
        while added < m_attach {
            guard += 1;
            if guard > 200 * m_attach {
                break; // degenerate corner: accept fewer attachments
            }
            // Triad step with probability triad_p when we have an anchor.
            if let Some(anchor) = last_attached {
                if rng.gen::<f64>() < triad_p && !adj[anchor].is_empty() {
                    let w = adj[anchor][rng.gen_range(0..adj[anchor].len())] as usize;
                    if link(&mut b, &mut adj, &mut endpoints, v, w)? {
                        added += 1;
                        last_attached = Some(w);
                        continue;
                    }
                }
            }
            let u = endpoints[rng.gen_range(0..endpoints.len())] as usize;
            if link(&mut b, &mut adj, &mut endpoints, v, u)? {
                added += 1;
                last_attached = Some(u);
            }
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{clustering_coefficient, connected_components, WeightScheme};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn edge_count_close_to_ba() {
        let n = 400;
        let m = 3;
        let b = powerlaw_cluster(n, m, 0.5, &mut rng(1)).unwrap();
        let expected = (m + 1) * m / 2 + (n - m - 1) * m;
        // Occasionally a node accepts fewer attachments; allow 1% slack.
        assert!(b.edge_count() as f64 >= 0.99 * expected as f64);
        assert!(b.edge_count() <= expected);
    }

    #[test]
    fn more_clustered_than_plain_ba() {
        use crate::generators::barabasi_albert;
        let n = 1500;
        let g_hk = powerlaw_cluster(n, 3, 0.9, &mut rng(2))
            .unwrap()
            .build(WeightScheme::UniformByDegree)
            .unwrap();
        let g_ba = barabasi_albert(n, 3, &mut rng(2))
            .unwrap()
            .build(WeightScheme::UniformByDegree)
            .unwrap();
        let mut r = rng(3);
        let c_hk = clustering_coefficient(&g_hk, 20_000, &mut r);
        let c_ba = clustering_coefficient(&g_ba, 20_000, &mut r);
        assert!(c_hk > c_ba * 1.5, "triad formation should raise clustering: hk={c_hk} ba={c_ba}");
    }

    #[test]
    fn connected() {
        let b = powerlaw_cluster(300, 2, 0.4, &mut rng(4)).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(connected_components(&g).count(), 1);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(powerlaw_cluster(10, 0, 0.5, &mut rng(1)).is_err());
        assert!(powerlaw_cluster(3, 3, 0.5, &mut rng(1)).is_err());
        assert!(powerlaw_cluster(10, 2, 1.5, &mut rng(1)).is_err());
    }

    #[test]
    fn zero_triad_probability_valid() {
        let b = powerlaw_cluster(100, 2, 0.0, &mut rng(5)).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!((g.node_count(), g.edge_count()), (100, b.edge_count()));
    }
}
