//! Error type for the K-FAC algorithms.

use spdkfac_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the K-FAC optimizers and planners.
#[derive(Debug, Clone, PartialEq)]
pub enum KfacError {
    /// A damped Kronecker factor failed to invert (damping too small for
    /// the numerical rank of the statistics).
    FactorInversion {
        /// Index of the preconditionable layer.
        layer: usize,
        /// Which factor failed.
        factor: FactorSide,
        /// Underlying numerical error.
        source: TensorError,
    },
    /// A planner was given inconsistent inputs (e.g. mismatched dim/time
    /// vector lengths).
    InvalidPlanInput {
        /// Description of the inconsistency.
        reason: String,
    },
}

/// Which Kronecker factor of a layer: `A` (input side, captured in the
/// forward pass) or `G` (output-gradient side, captured in the backward
/// pass). The discriminant is the index of the pass that captures it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorSide {
    /// The input-side factor `A_{l-1}`.
    A,
    /// The output-side factor `G_l`.
    G,
}

impl FactorSide {
    /// Placement tensors interleave the layers' factors: `A_l` is tensor
    /// `2l`, `G_l` is tensor `2l + 1`.
    pub(crate) fn of_tensor(t: usize) -> FactorSide {
        if t.is_multiple_of(2) {
            FactorSide::A
        } else {
            FactorSide::G
        }
    }
}

impl fmt::Display for KfacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KfacError::FactorInversion {
                layer,
                factor,
                source,
            } => {
                let side = match factor {
                    FactorSide::A => "A",
                    FactorSide::G => "G",
                };
                write!(
                    f,
                    "failed to invert factor {side} of layer {layer}: {source}"
                )
            }
            KfacError::InvalidPlanInput { reason } => {
                write!(f, "invalid planner input: {reason}")
            }
        }
    }
}

impl Error for KfacError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KfacError::FactorInversion { source, .. } => Some(source),
            KfacError::InvalidPlanInput { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_layer_and_side() {
        let e = KfacError::FactorInversion {
            layer: 3,
            factor: FactorSide::G,
            source: TensorError::NotPositiveDefinite { pivot: 0 },
        };
        let s = e.to_string();
        assert!(s.contains("G"));
        assert!(s.contains('3'));
        assert!(e.source().is_some());
    }
}
