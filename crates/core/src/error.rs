//! Error type for the RAF pipeline.

use raf_cover::CoverError;
use raf_model::ModelError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the RAF algorithm and its helpers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A model-layer failure (invalid instance, estimator failure, …).
    Model(ModelError),
    /// A cover-solver failure.
    Cover(CoverError),
    /// A configuration parameter was outside its valid range.
    InvalidParameter {
        /// Description of the problem.
        message: String,
    },
    /// The equation system (17) has no solution for the requested
    /// `(α, ε)` (requires `0 < ε < α ≤ 1`).
    ParameterSolveFailed {
        /// The requested approximation target.
        alpha: f64,
        /// The requested slack.
        epsilon: f64,
    },
    /// `p_max` is (near) zero: the friending process cannot reach the
    /// target, so no invitation strategy exists. Mirrors the paper's
    /// screening of pairs with `p_max < 0.01`.
    TargetUnreachable {
        /// Samples spent trying to observe a success.
        samples: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Cover(e) => write!(f, "cover error: {e}"),
            CoreError::InvalidParameter { message } => write!(f, "invalid parameter: {message}"),
            CoreError::ParameterSolveFailed { alpha, epsilon } => {
                write!(f, "no (ε0, ε1, β) solution for alpha={alpha}, epsilon={epsilon}")
            }
            CoreError::TargetUnreachable { samples } => {
                write!(f, "target unreachable: no type-1 realization in {samples} samples")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            CoreError::Cover(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<CoverError> for CoreError {
    fn from(e: CoverError) -> Self {
        CoreError::Cover(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let err = CoreError::Model(ModelError::InitiatorIsTarget { node: 1 });
        assert!(err.to_string().contains("model error"));
        assert!(err.source().is_some());
        let err2 = CoreError::ParameterSolveFailed { alpha: 0.1, epsilon: 0.2 };
        assert!(err2.to_string().contains("alpha=0.1"));
        assert!(err2.source().is_none());
    }

    #[test]
    fn conversions() {
        let m: CoreError = ModelError::InitiatorIsTarget { node: 0 }.into();
        assert!(matches!(m, CoreError::Model(_)));
        let c: CoreError = CoverError::NotEnoughSets { p: 1, available: 0 }.into();
        assert!(matches!(c, CoreError::Cover(_)));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
