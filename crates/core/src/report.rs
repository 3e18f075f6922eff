//! The binned ratio curve behind the paper's Figs. 4–5.

use serde::{Deserialize, Serialize};

/// A binned ratio curve — the Figs. 4–5 presentation: x = probability
/// ratio bin midpoint, y = average size ratio within the bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatioCurve {
    /// Bin midpoints on the probability-ratio axis (0.2, 0.4, …, 1.0).
    pub bin_midpoints: Vec<f64>,
    /// Mean size ratio per bin (`None` = empty bin).
    pub mean_size_ratio: Vec<Option<f64>>,
}

impl RatioCurve {
    /// Builds the paper's five-bin curve from raw `(prob_ratio,
    /// size_ratio)` observations.
    pub fn five_bins(observations: &[(f64, f64)]) -> Self {
        let edges = [0.0, 0.3, 0.5, 0.7, 0.9, f64::INFINITY];
        let mids = vec![0.2, 0.4, 0.6, 0.8, 1.0];
        let mut sums = [0.0; 5];
        let mut counts = vec![0usize; 5];
        for &(pr, sr) in observations {
            for b in 0..5 {
                if pr >= edges[b] && pr < edges[b + 1] {
                    sums[b] += sr;
                    counts[b] += 1;
                    break;
                }
            }
        }
        let mean = sums
            .iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { None } else { Some(s / c as f64) })
            .collect();
        RatioCurve { bin_midpoints: mids, mean_size_ratio: mean }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_curve_binning() {
        let obs = vec![(0.25, 2.0), (0.28, 4.0), (0.95, 10.0), (1.0, 20.0)];
        let curve = RatioCurve::five_bins(&obs);
        assert_eq!(curve.mean_size_ratio[0], Some(3.0)); // 0.25, 0.28 → bin 1
        assert_eq!(curve.mean_size_ratio[1], None);
        assert_eq!(curve.mean_size_ratio[4], Some(15.0)); // 0.95, 1.0
    }

    #[test]
    fn ratio_curve_empty() {
        let curve = RatioCurve::five_bins(&[]);
        assert!(curve.mean_size_ratio.iter().all(|m| m.is_none()));
        assert_eq!(curve.bin_midpoints.len(), 5);
    }
}
