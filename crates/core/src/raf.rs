//! The RAF algorithm: Alg. 3 (framework) and Alg. 4 (full pipeline).

use crate::params::ParameterSet;
use crate::vmax::vmax_exact;
use crate::CoreError;
use raf_cover::{ChlamtacPortfolio, CoverError, CoverInstance};
use raf_graph::NodeId;
use raf_model::bounds::l_star;
use raf_model::pmax::estimate_pmax_dklr;
use raf_model::sampler::{walk_rng, SampleRequest};
use raf_model::{FriendingInstance, InvitationSet, ModelError};
use serde::{Deserialize, Serialize};

/// How many realizations Alg. 3 samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RealizationBudget {
    /// The full theoretical `l*` of eq. (16), Alg. 4 as published.
    /// Astronomically large on real graphs (the paper itself notes in
    /// Sec. IV-E that far fewer suffice), so use it only on toy instances.
    Theory,
    /// Exactly this many realizations, the walk count every driver
    /// samples (`raf run --budget W` and `raf serve --walks W`) and the
    /// paper's evaluation practice (Fig. 6). This is the default.
    Fixed(u64),
}

impl Default for RealizationBudget {
    fn default() -> Self {
        RealizationBudget::Fixed(200_000)
    }
}

/// Configuration for [`RafAlgorithm`] (the `α, ε, N` inputs of Alg. 4 plus
/// engineering knobs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RafConfig {
    /// Approximation target `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Slack `ε ∈ (0, α)`; the output satisfies `f(I*) ≥ (α−ε)·p_max`.
    pub epsilon: f64,
    /// Confidence parameter `N`: all guarantees hold with probability
    /// `≥ 1 − 2/N`.
    pub confidence: f64,
    /// Realization budget policy.
    pub budget: RealizationBudget,
    /// Master RNG seed; the run draws from the serve cache's per-pair
    /// seed [`FriendingInstance::pair_seed`]`(seed)`.
    pub seed: u64,
    /// Worker threads for pool sampling (speed only, never the result).
    pub threads: usize,
    /// Sample cap for the `p_max` estimation phase (Alg. 2).
    pub pmax_sample_cap: u64,
}

impl Default for RafConfig {
    fn default() -> Self {
        RafConfig {
            alpha: 0.1,
            epsilon: 0.01,
            confidence: 100_000.0,
            budget: RealizationBudget::default(),
            seed: 0,
            threads: 1,
            pmax_sample_cap: 2_000_000,
        }
    }
}

impl RafConfig {
    /// Starts from the paper's evaluation defaults
    /// (`ε = 0.01`, `N = 100 000`) with the given `α`.
    pub fn with_alpha(alpha: f64) -> Self {
        RafConfig { alpha, ..Self::default() }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the realization budget.
    pub fn budget(mut self, budget: RealizationBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the sampling thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// The output of one RAF run, with every intermediate quantity the
/// analysis talks about.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RafResult {
    /// The invitation set `I*`.
    pub invitations: InvitationSet,
    /// The solved parameter set `(ε0, ε1, β)`.
    pub parameters: ParameterSet,
    /// The `p*_max` estimate from Alg. 2.
    pub pmax_estimate: f64,
    /// Walks used by the `p_max` estimation phase.
    pub pmax_samples: u64,
    /// The theoretical `l*` of eq. (16) (before budgeting).
    pub l_star: f64,
    /// Realizations actually sampled (`l`).
    pub realizations_used: u64,
    /// `|B¹_l|`: type-1 realizations in the pool.
    pub type1_count: usize,
    /// The cover requirement `p = ⌈β·|B¹_l|⌉`.
    pub cover_p: usize,
    /// Sets actually covered by `I*` (≥ `cover_p`).
    pub covered: usize,
    /// `|V_max|`, which replaces `n` in eq. (16) (the Sec. III-C
    /// refinement).
    pub vmax_size: usize,
}

impl RafResult {
    /// `|I*|`.
    pub fn invitation_size(&self) -> usize {
        self.invitations.len()
    }

    /// The in-pool coverage fraction `F(B_l, I*) / |B¹_l|` — an internal
    /// estimate of `f(I*)/p_max`.
    pub fn pool_coverage(&self) -> f64 {
        if self.type1_count == 0 {
            0.0
        } else {
            self.covered as f64 / self.type1_count as f64
        }
    }
}

/// What [`select_invitations`] picks from one pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The invitation set `I*`.
    pub invitations: InvitationSet,
    /// The cover requirement `p = ⌈β·|B¹_l|⌉`.
    pub cover_p: usize,
    /// Type-1 walks `I*` covers (≥ `cover_p`).
    pub covered: usize,
}

/// The solve stage every RAF path shares (Alg. 3 lines 3–4): the portfolio
/// covers `p = ⌈β·|B¹_l|⌉` of the pool's type-1 paths (the cover's total
/// weight), and the chosen union is `I*`.
///
/// # Errors
///
/// Solver errors from `raf-cover`.
pub fn select_invitations(cover: &CoverInstance, beta: f64) -> Result<Selection, CoverError> {
    let cover_p = raf_cover::cover_requirement(beta, cover.total_weight());
    let msc = raf_cover::solve_msc(&ChlamtacPortfolio::new(), cover, cover_p)?;
    let invitations = InvitationSet::from_nodes(
        cover.universe(),
        msc.elements.iter().map(|&e| NodeId::new(e as usize)),
    );
    Ok(Selection { invitations, cover_p, covered: msc.covered_weight })
}

/// The RAF algorithm (Alg. 4). See the crate docs for the pipeline.
///
/// ```
/// use raf_core::{RafAlgorithm, RafConfig, RealizationBudget};
/// use raf_graph::{GraphBuilder, NodeId, WeightScheme};
/// use raf_model::FriendingInstance;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new();
/// b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1)])?;
/// let g = b.build(WeightScheme::UniformByDegree)?.to_csr();
/// let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1))?;
/// let config = RafConfig::with_alpha(0.5)
///     .seed(1)
///     .budget(RealizationBudget::Fixed(5_000));
/// let result = RafAlgorithm::new(config).run(&instance)?;
/// assert!(result.invitations.contains(NodeId::new(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RafAlgorithm {
    config: RafConfig,
}

impl RafAlgorithm {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: RafConfig) -> Self {
        RafAlgorithm { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RafConfig {
        &self.config
    }

    /// Runs RAF on an instance stage by stage, producing the invitation
    /// set `I*`: `V_max`, the parameters, Alg. 2's `p*_max` and `l*` all
    /// run whatever the budget, and a `Fixed` budget then samples its own
    /// walk count. No driver calls this; it is the reference that a cold
    /// `raf_serve::one_shot` at the same walk count, `α` and seed answers
    /// bit for bit (`tests/serving_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for a zero `Fixed` realization
    ///   budget;
    /// * [`CoreError::ParameterSolveFailed`] for invalid `(α, ε)`;
    /// * [`CoreError::TargetUnreachable`] when the `p_max` phase cannot
    ///   observe a single type-1 realization within its cap (the paper's
    ///   evaluation screens such pairs out), or the pool holds none;
    /// * solver errors bubbled up from `raf-cover`.
    pub fn run(&self, instance: &FriendingInstance<'_>) -> Result<RafResult, CoreError> {
        let cfg = &self.config;
        if cfg.budget == RealizationBudget::Fixed(0) {
            return Err(CoreError::InvalidParameter {
                message: "realization budget must be positive".to_string(),
            });
        }
        let n = instance.node_count();

        // Sec. III-C refinement: use |V_max| in place of n.
        let vmax_size = vmax_exact(instance).len();
        if vmax_size == 0 {
            return Err(CoreError::TargetUnreachable { samples: 0 });
        }

        // Step 1: parameters (eq. 17, with errata handling).
        let parameters = ParameterSet::solve(cfg.alpha, cfg.epsilon, vmax_size)?;

        // Step 2: p*_max by the DKLR stopping rule (Alg. 2), on a stream
        // of the pair seed that no pool walk index reaches.
        let seed = instance.pair_seed(cfg.seed);
        let mut rng = walk_rng(seed, u64::MAX);
        let pmax_est = match estimate_pmax_dklr(
            instance,
            parameters.eps0,
            cfg.confidence,
            cfg.pmax_sample_cap,
            &mut rng,
        ) {
            Ok(est) => est,
            Err(ModelError::SampleCapExhausted { cap, successes: 0 }) => {
                return Err(CoreError::TargetUnreachable { samples: cap });
            }
            Err(ModelError::SampleCapExhausted { cap, successes }) => {
                // Rare successes: fall back to the crude ratio rather than
                // aborting (p_max genuinely tiny).
                raf_model::pmax::PmaxEstimate {
                    pmax: successes as f64 / cap as f64,
                    samples: cap,
                    type1: successes,
                }
            }
            Err(e) => return Err(e.into()),
        };

        // Step 3: realization budget from eq. (16).
        let theory_l =
            l_star(vmax_size, cfg.confidence, parameters.eps0, parameters.eps1, pmax_est.pmax);
        let l = match cfg.budget {
            RealizationBudget::Theory => theory_l.min(u64::MAX as f64) as u64,
            RealizationBudget::Fixed(l) => l,
        };

        // Step 4: sample the pool B_l (Alg. 3 line 2).
        let pool = SampleRequest::new(l).seed(seed).threads(cfg.threads).run(instance);
        let type1_count = pool.type1_count();
        let realizations_used = pool.total_samples();
        if type1_count == 0 {
            return Err(CoreError::TargetUnreachable { samples: realizations_used });
        }

        // Steps 5-6: the cover over the type-1 paths, and its solve.
        let cover = CoverInstance::from_path_pool(n, pool)?;
        let selection = select_invitations(&cover, parameters.beta)?;
        Ok(RafResult {
            invitations: selection.invitations,
            parameters,
            pmax_estimate: pmax_est.pmax,
            pmax_samples: pmax_est.samples,
            l_star: theory_l,
            realizations_used,
            type1_count,
            cover_p: selection.cover_p,
            covered: selection.covered,
            vmax_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raf_graph::{CsrGraph, GraphBuilder, NodeId, WeightScheme};
    use raf_model::acceptance::estimate_acceptance;
    use raf_model::pmax::estimate_pmax_fixed;
    use rand::SeedableRng;

    fn parallel_routes_csr() -> CsrGraph {
        // s=0, t=1; routes 0-2-3-1, 0-4-5-1, 0-6-7-8-1.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![
            (0, 2),
            (2, 3),
            (3, 1),
            (0, 4),
            (4, 5),
            (5, 1),
            (0, 6),
            (6, 7),
            (7, 8),
            (8, 1),
        ])
        .unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    fn default_run(alpha: f64, budget: RealizationBudget) -> (CsrGraph, RafConfig) {
        let g = parallel_routes_csr();
        let cfg = RafConfig {
            alpha,
            epsilon: 0.01,
            confidence: 100.0,
            budget,
            seed: 7,
            threads: 1,
            pmax_sample_cap: 500_000,
        };
        (g, cfg)
    }

    #[test]
    fn produces_guaranteed_quality_solution() {
        let (g, cfg) = default_run(0.5, RealizationBudget::Fixed(30_000));
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let result = RafAlgorithm::new(cfg).run(&instance).unwrap();
        assert!(result.invitations.contains(NodeId::new(1)), "target must be invited");
        // Verify f(I*) ≥ (α − ε)·p_max empirically.
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let f = estimate_acceptance(&instance, &result.invitations, 60_000, &mut rng).probability;
        let pmax = estimate_pmax_fixed(&instance, 60_000, &mut rng).pmax;
        assert!(
            f >= (0.5 - 0.01) * pmax - 0.02,
            "f(I*) = {f} below target {} of pmax {pmax}",
            0.49 * pmax
        );
        // The invitation set should be far smaller than inviting everyone.
        assert!(result.invitation_size() <= 9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, cfg) = default_run(0.3, RealizationBudget::Fixed(20_000));
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let r1 = RafAlgorithm::new(cfg.clone()).run(&instance).unwrap();
        let r2 = RafAlgorithm::new(cfg).run(&instance).unwrap();
        assert_eq!(r1.invitations, r2.invitations);
        assert_eq!(r1.type1_count, r2.type1_count);
    }

    #[test]
    fn higher_alpha_needs_no_smaller_set() {
        let (g, cfg_low) = default_run(0.2, RealizationBudget::Fixed(20_000));
        let (_, cfg_high) = default_run(0.9, RealizationBudget::Fixed(20_000));
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let low = RafAlgorithm::new(cfg_low).run(&instance).unwrap();
        let high = RafAlgorithm::new(cfg_high).run(&instance).unwrap();
        assert!(high.invitation_size() >= low.invitation_size());
        assert!(high.cover_p >= low.cover_p);
    }

    #[test]
    fn unreachable_target_reported() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let (_, cfg) = default_run(0.3, RealizationBudget::Fixed(100));
        let err = RafAlgorithm::new(cfg).run(&instance).unwrap_err();
        assert!(matches!(err, CoreError::TargetUnreachable { .. }));
    }

    #[test]
    fn vmax_reduction_restricts_invitations() {
        // With the reduction, I* ⊆ V_max must hold (paths only traverse
        // V_max by Lemma 7).
        let (g, cfg) = default_run(0.4, RealizationBudget::Fixed(20_000));
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let result = RafAlgorithm::new(cfg).run(&instance).unwrap();
        let vm = crate::vmax::vmax_exact(&instance);
        assert!(vm.is_superset_of(&result.invitations));
        assert_eq!(result.vmax_size, vm.len());
    }

    #[test]
    fn pool_coverage_at_least_beta() {
        let (g, cfg) = default_run(0.6, RealizationBudget::Fixed(30_000));
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let result = RafAlgorithm::new(cfg).run(&instance).unwrap();
        assert!(
            result.pool_coverage() >= result.parameters.beta - 1e-9,
            "coverage {} below beta {}",
            result.pool_coverage(),
            result.parameters.beta
        );
    }

    #[test]
    fn budget_modes() {
        let (g, mut cfg) = default_run(0.3, RealizationBudget::Fixed(5_000));
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let fixed = RafAlgorithm::new(cfg.clone()).run(&instance).unwrap();
        assert_eq!(fixed.realizations_used, 5_000);
        // Alg. 4 as published samples exactly `l*`; a large ε keeps it to
        // a few thousand walks on the toy graph.
        cfg.alpha = 0.9;
        cfg.epsilon = 0.8;
        cfg.budget = RealizationBudget::Theory;
        let theory = RafAlgorithm::new(cfg).run(&instance).unwrap();
        assert_eq!(theory.realizations_used, theory.l_star as u64);
    }

    #[test]
    fn zero_budgets_are_rejected() {
        let (g, cfg) = default_run(0.3, RealizationBudget::Fixed(0));
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let err = RafAlgorithm::new(cfg).run(&instance).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { .. }), "Fixed(0): {err}");
    }

    #[test]
    fn config_builder_chain() {
        let cfg =
            RafConfig::with_alpha(0.25).seed(5).threads(2).budget(RealizationBudget::Fixed(10));
        assert_eq!(cfg.alpha, 0.25);
        assert_eq!(cfg.seed, 5);
        assert_eq!(cfg.threads, 2);
    }
}
