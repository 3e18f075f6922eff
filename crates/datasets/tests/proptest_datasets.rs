//! Property tests for the dataset layer: calibration across scales and
//! seeds, pair-sampler contracts.

use proptest::prelude::*;
use raf_datasets::synthetic::{calibration_error, generate};
use raf_datasets::{sample_pairs, Dataset, PairSamplerConfig};
use raf_graph::{connected_components, NodeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Stand-ins stay calibrated to Table I density across scales and
    /// seeds, and come out connected (pair sampling relies on it).
    #[test]
    fn standins_calibrated_across_scales(
        seed in 0u64..50,
        scale_pct in 1usize..4,
    ) {
        let scale = scale_pct as f64 / 100.0;
        for dataset in [Dataset::Wiki, Dataset::HepTh, Dataset::HepPh] {
            let g = generate(dataset, scale, seed).unwrap();
            let (dn, dm) = calibration_error(&dataset.spec(), &g, scale);
            prop_assert!(dn < 0.06, "{dataset} node dev {dn} at scale {scale}");
            prop_assert!(dm < 0.12, "{dataset} edge dev {dm} at scale {scale}");
            prop_assert_eq!(connected_components(&g).count(), 1);
        }
    }

    /// The pair sampler's outputs always satisfy its contract.
    #[test]
    fn pair_sampler_contract(seed in 0u64..50) {
        let g = generate(Dataset::Wiki, 0.01, seed).unwrap().to_csr();
        let cfg = PairSamplerConfig {
            pairs: 5,
            screen_samples: 400,
            seed,
            max_attempts: 50_000,
            ..Default::default()
        };
        let pairs = sample_pairs(&g, &cfg);
        for p in &pairs {
            prop_assert!(p.pmax_estimate >= cfg.pmax_threshold);
            prop_assert_ne!(p.s, p.t);
            let s = NodeId::new(p.s as usize);
            let t = NodeId::new(p.t as usize);
            prop_assert!(!g.has_edge(s, t), "sampled pair already friends");
            prop_assert!(g.degree(s) > 0 && g.degree(t) > 0);
        }
    }
}
