//! Dataset report: print Table I-style statistics for the four dataset
//! stand-ins (or real SNAP files dropped into `data/`), including the
//! calibration error of the synthetic generators.
//!
//! ```sh
//! cargo run --release --example dataset_report          # 2% scale
//! cargo run --release --example dataset_report -- 0.1   # 10% scale
//! ```

use active_friending::prelude::*;
use raf_datasets::synthetic::calibration_error;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 = match std::env::args().nth(1) {
        Some(raw) => raw.parse().map_err(|_| format!("invalid scale {raw:?} (a number)"))?,
        None => 0.02,
    };
    println!("scale = {scale} (of Table I sizes)\n");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "dataset", "nodes", "edges", "m/n", "paper m/n", "Δnodes", "Δedges"
    );
    for dataset in Dataset::all() {
        let loaded = load_dataset(dataset, scale, 1, std::path::Path::new("data"))?;
        let spec = dataset.spec();
        let g = &loaded.graph;
        let (dn, dm) = calibration_error(&spec, g, scale);
        println!(
            "{:>8} {:>10} {:>10} {:>10.2} {:>10.2} {:>7.1}% {:>7.1}%",
            spec.name,
            g.node_count(),
            g.edge_count(),
            g.edge_count() as f64 / g.node_count() as f64,
            spec.avg_degree,
            dn * 100.0,
            dm * 100.0,
        );
    }
    println!("\n(m/n matches Table I's 'Avg. Degree' convention; Δ columns show");
    println!(" the stand-ins' calibration error at this scale.)");
    Ok(())
}
