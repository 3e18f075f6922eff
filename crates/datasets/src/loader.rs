//! Dataset loading: real SNAP files when available, synthetic stand-ins
//! otherwise. Callers build the plain CSR snapshot with
//! [`SocialGraph::to_csr`].

use crate::{synthetic, Dataset};
use raf_graph::io::{read_edge_list_path, EdgeListOptions};
use raf_graph::{GraphError, SocialGraph, WeightScheme};
use std::path::{Path, PathBuf};

/// Where a loaded dataset came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetSource {
    /// A real SNAP edge list found on disk.
    Real,
    /// The calibrated synthetic stand-in ([`crate::synthetic`]).
    Synthetic,
}

/// A loaded dataset with provenance.
#[derive(Debug, Clone)]
pub struct LoadedDataset {
    /// The graph, weighted with the paper's `w(u,v) = 1/|N_v|` convention.
    pub graph: SocialGraph,
    /// Real file or synthetic stand-in.
    pub source: DatasetSource,
    /// Which dataset this is.
    pub dataset: Dataset,
}

/// Loads `dataset` at `scale`, preferring a real edge list at
/// `<data_dir>/<stem>.txt` (any SNAP-format file; `scale` is ignored for
/// real data, which is used as-is).
///
/// # Errors
///
/// Propagates file-parse errors for real data and generator errors for
/// synthetic data. A *missing* file is not an error — it selects the
/// synthetic path.
pub fn load_dataset(
    dataset: Dataset,
    scale: f64,
    seed: u64,
    data_dir: &Path,
) -> Result<LoadedDataset, GraphError> {
    let path = real_data_path(dataset, data_dir);
    if path.exists() {
        let builder = read_edge_list_path(&path, &EdgeListOptions::default())?;
        let graph = builder.build(WeightScheme::UniformByDegree)?;
        return Ok(LoadedDataset { graph, source: DatasetSource::Real, dataset });
    }
    let graph = synthetic::generate(dataset, scale, seed)?;
    Ok(LoadedDataset { graph, source: DatasetSource::Synthetic, dataset })
}

/// The expected on-disk location for a real copy of `dataset`.
pub fn real_data_path(dataset: Dataset, data_dir: &Path) -> PathBuf {
    data_dir.join(format!("{}.txt", dataset.spec().file_stem))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique-per-test scratch directory, removed on drop. The previous
    /// fixture wrote fixed paths under `temp_dir()` (e.g.
    /// `raf_datasets_real/hepth.txt`), which collided across concurrent
    /// and repeated test runs — each test now gets its own directory.
    struct ScratchDir {
        path: PathBuf,
    }

    impl ScratchDir {
        fn new(test: &str) -> Self {
            let unique = format!(
                "raf_datasets_{test}_{}_{:?}",
                std::process::id(),
                std::thread::current().id(),
            );
            let path = std::env::temp_dir().join(unique);
            // A stale directory from a killed run must not leak fixtures
            // into this one.
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            ScratchDir { path }
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    #[test]
    fn synthesizes_when_no_file() {
        let dir = ScratchDir::new("none");
        let loaded = load_dataset(Dataset::Wiki, 0.02, 1, &dir.path).unwrap();
        assert_eq!(loaded.source, DatasetSource::Synthetic);
        assert!(loaded.graph.node_count() > 100);
    }

    #[test]
    fn prefers_real_file() {
        let dir = ScratchDir::new("real");
        let path = real_data_path(Dataset::HepTh, &dir.path);
        std::fs::write(&path, "# test\n0\t1\n1\t2\n2\t0\n").unwrap();
        let loaded = load_dataset(Dataset::HepTh, 1.0, 1, &dir.path).unwrap();
        assert_eq!(loaded.source, DatasetSource::Real);
        assert_eq!(loaded.graph.node_count(), 3);
        assert_eq!(loaded.graph.edge_count(), 3);
    }

    #[test]
    fn real_file_parse_error_propagates() {
        let dir = ScratchDir::new("bad");
        let path = real_data_path(Dataset::HepPh, &dir.path);
        std::fs::write(&path, "not numbers here\n").unwrap();
        assert!(load_dataset(Dataset::HepPh, 1.0, 1, &dir.path).is_err());
    }

    #[test]
    fn path_convention() {
        let p = real_data_path(Dataset::Youtube, Path::new("/data"));
        assert_eq!(p, PathBuf::from("/data/youtube.txt"));
    }

    #[test]
    fn csr_loader_modes_agree_through_the_mapping() {
        // A loaded dataset's plain CSR and its hub-BFS relabeled CSR (the
        // serving benchmark's layout) describe one graph through the
        // mapping.
        use raf_graph::{NodeId, Relabeling};
        use raf_model::FriendingInstance;
        use std::sync::Arc;
        let dir = ScratchDir::new("csr_modes");
        let graph = load_dataset(Dataset::Wiki, 0.01, 5, &dir.path).unwrap().graph;
        let plain = graph.to_csr();
        let r = Arc::new(Relabeling::hub_bfs(&graph));
        let hub = graph.to_csr_relabeled(&r);
        assert_eq!(plain.node_count(), hub.node_count());
        assert_eq!(plain.edge_count(), hub.edge_count());
        assert!(plain.has_sorted_neighbors());
        assert!(!hub.has_sorted_neighbors());
        // Spot-check the isomorphism: degrees transport through the map.
        for v in plain.nodes().take(50) {
            assert_eq!(hub.degree(r.new_of(v)), plain.degree(v));
        }
        // Instances built from original ids agree on seed structure.
        let (s, t) = (NodeId::new(0), NodeId::new(plain.node_count() - 1));
        if let (Ok(a), Ok(b)) =
            (FriendingInstance::new(&plain, s, t), FriendingInstance::relabeled(&hub, s, t, r))
        {
            assert_eq!(a.target_original(), b.target_original());
            let seeds_a: Vec<NodeId> = a.seeds().to_vec();
            let mut seeds_b: Vec<NodeId> = b.seeds().iter().map(|&v| b.original_of(v)).collect();
            seeds_b.sort_unstable();
            assert_eq!(seeds_a, seeds_b);
        }
    }

    #[test]
    fn csr_loader_reports_real_source() {
        let dir = ScratchDir::new("csr_real");
        let path = real_data_path(Dataset::HepTh, &dir.path);
        std::fs::write(&path, "# four-cycle\n10\t20\n20\t30\n30\t40\n40\t10\n").unwrap();
        let loaded = load_dataset(Dataset::HepTh, 1.0, 1, &dir.path).unwrap();
        assert_eq!(loaded.source, DatasetSource::Real);
        let csr = loaded.graph.to_csr();
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 4);
    }
}
