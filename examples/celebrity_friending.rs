//! Celebrity friending: the paper's motivating scenario — an ordinary
//! user tries to friend a high-degree "celebrity" on a scale-free
//! network, where direct invitations are hopeless and mutual friends must
//! be accumulated along the way.
//!
//! ```sh
//! cargo run --release --example celebrity_friending
//! ```

use active_friending::prelude::*;
use raf_graph::generators::barabasi_albert;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2 000-user scale-free network (preferential attachment).
    let mut gen_rng = rand::rngs::StdRng::seed_from_u64(20);
    let graph = barabasi_albert(2_000, 3, &mut gen_rng)?.build(WeightScheme::UniformByDegree)?;
    let csr = graph.to_csr();
    let metrics = GraphMetrics::compute(&graph);
    println!("network: {metrics}");

    // The celebrity: the highest-degree user.
    let celebrity = (0..csr.node_count())
        .map(NodeId::new)
        .max_by_key(|&v| csr.degree(v))
        .expect("non-empty graph");
    println!("celebrity t = {celebrity} with degree {}", csr.degree(celebrity));

    // The fan: a random low-degree user far from the celebrity.
    let fan = (0..csr.node_count())
        .map(NodeId::new)
        .find(|&v| csr.degree(v) == 3 && !csr.has_edge(v, celebrity))
        .expect("some minimum-degree non-neighbor exists");
    println!("fan s = {fan} with degree {}", csr.degree(fan));

    let instance = FriendingInstance::new(&csr, fan, celebrity)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let pmax = estimate_pmax_fixed(&instance, 30_000, &mut rng);
    println!("p_max ≈ {:.4}", pmax.pmax);
    if pmax.pmax < 0.01 {
        println!("pair below the paper's 0.01 screen; rerun with another seed");
        return Ok(());
    }

    // How few invitations does RAF need for half the achievable odds?
    let config = RafConfig::with_alpha(0.5).seed(5).budget(RealizationBudget::Fixed(50_000));
    let result = RafAlgorithm::new(config).run(&instance)?;
    println!(
        "RAF invites {} users (V_max would need {})",
        result.invitation_size(),
        result.vmax_size,
    );

    // Compare against HD at the same budget: hubs alone do not make a path.
    let hd = HighDegree::new().build(&instance, result.invitation_size());
    let f_raf = evaluate(&instance, &result.invitations, 30_000, &mut rng).probability;
    let f_hd = evaluate(&instance, &hd, 30_000, &mut rng).probability;
    println!("f(I_RAF) = {f_raf:.4}   f(I_HD) = {f_hd:.4}");
    println!(
        "RAF reaches {:.0}% of p_max with {} invitations",
        100.0 * f_raf / pmax.pmax,
        result.invitation_size()
    );
    Ok(())
}
