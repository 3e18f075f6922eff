//! Table II: `|V_max|` vs `|I_RAF|` at `α = 0.1` — the "input-output
//! ratio" experiment of Sec. IV-D.

use crate::experiments::common::prepare;
use crate::ExperimentConfig;
use raf_core::{vmax_exact, CoreError, RafAlgorithm, RafConfig, RealizationBudget};
use raf_datasets::Dataset;
use raf_graph::NodeId;
use raf_model::FriendingInstance;
use serde::{Deserialize, Serialize};

/// One Table II column (per dataset).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Dataset name.
    pub name: String,
    /// Average `|V_max|` across pairs.
    pub avg_vmax: f64,
    /// Average `|I_RAF|` at α = 0.1.
    pub avg_raf: f64,
    /// Average of the per-pair ratio `|V_max| / |I_RAF|`.
    pub avg_ratio: f64,
    /// Pairs contributing.
    pub pairs: usize,
}

/// Runs the Table II measurement for one dataset.
pub fn run(config: &ExperimentConfig, dataset: Dataset) -> Table2Row {
    let prep = prepare(config, dataset);
    let mut s_vmax = 0.0f64;
    let mut s_raf = 0.0f64;
    let mut s_ratio = 0.0f64;
    let mut used = 0usize;
    for pair in &prep.pairs {
        let Ok(instance) = FriendingInstance::new(
            &prep.csr,
            NodeId::new(pair.s as usize),
            NodeId::new(pair.t as usize),
        ) else {
            continue;
        };
        let vm = vmax_exact(&instance);
        if vm.is_empty() {
            continue;
        }
        let raf_cfg = RafConfig {
            alpha: 0.1, // the paper's Table II setting
            epsilon: 0.01,
            budget: RealizationBudget::Capped(config.budget),
            seed: config.seed,
            threads: config.threads,
            ..Default::default()
        };
        let result = match RafAlgorithm::new(raf_cfg).run(&instance) {
            Ok(r) => r,
            Err(CoreError::TargetUnreachable { .. }) => continue,
            Err(e) => panic!("RAF failed: {e}"),
        };
        let raf_size = result.invitation_size().max(1);
        s_vmax += vm.len() as f64;
        s_raf += raf_size as f64;
        s_ratio += vm.len() as f64 / raf_size as f64;
        used += 1;
    }
    let n = used.max(1) as f64;
    Table2Row {
        name: dataset.spec().name.to_string(),
        avg_vmax: s_vmax / n,
        avg_raf: s_raf / n,
        avg_ratio: s_ratio / n,
        pairs: used,
    }
}

/// Prints Table II in the paper's layout.
pub fn print(rows: &[Table2Row]) {
    println!("TABLE II: Comparing with Vmax (alpha = 0.1)");
    print!("{:>18}", "");
    for r in rows {
        print!("{:>12}", r.name);
    }
    println!();
    print!("{:>18}", "Avg. |Vmax|");
    for r in rows {
        print!("{:>12.2}", r.avg_vmax);
    }
    println!();
    print!("{:>18}", "Avg. |I_RAF|");
    for r in rows {
        print!("{:>12.2}", r.avg_raf);
    }
    println!();
    print!("{:>18}", "Avg. ratio");
    for r in rows {
        print!("{:>12.2}", r.avg_ratio);
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmax_dominates_raf_size() {
        let cfg = ExperimentConfig {
            scale: 0.01,
            pairs: 5,
            eval_samples: 2_000,
            budget: 6_000,
            ..Default::default()
        };
        let row = run(&cfg, Dataset::Wiki);
        assert!(row.pairs > 0);
        // Table II's qualitative content: V_max is meaningfully larger
        // than the RAF solution at α = 0.1.
        assert!(
            row.avg_vmax >= row.avg_raf,
            "Vmax {} smaller than RAF {}",
            row.avg_vmax,
            row.avg_raf
        );
        assert!(row.avg_ratio >= 1.0);
    }
}
