//! A kernel-independent fast multipole method (KIFMM).
//!
//! This is the proxy application of the paper's Section III/IV: the
//! kernel-independent FMM of Ying, Biros & Zorin for n-body sums
//!
//! ```text
//! f(x_i) = Σ_j K(x_i, y_j) · s(y_j)
//! ```
//!
//! with the single-layer Laplace kernel `K(x, y) = 1/(4π‖x−y‖)`.  The
//! implementation follows the classical structure:
//!
//! * [`morton`] — interleaved box keys.
//! * [`tree`] — an adaptive octree splitting boxes with more than `Q`
//!   points.
//! * [`lists`] — the U, V, W and X interaction lists of each box.
//! * [`kernel`] — the Laplace kernel and direct (P2P) evaluation.
//! * [`surface`] — KIFMM equivalent/check surfaces (regular cube-surface
//!   grids, which is what makes the FFT M2L possible).
//! * [`operators`] — the translation operators (P2M, M2M, M2L, L2L, L2P,
//!   and the W/X shortcuts), built from regularized pseudo-inverses of
//!   kernel matrices.
//! * [`fft_m2l`] — FFT acceleration of the V-list phase: per-offset
//!   kernel spectra turn M2L into circular convolutions, which is what
//!   makes the V list memory-bandwidth-bound (low arithmetic intensity),
//!   in contrast to the compute-bound U list — the intensity dichotomy
//!   the paper's energy analysis revolves around.
//! * [`evaluator`] — the pool-parallel, flat-arena six-phase evaluation
//!   engine (persistent workers, SoA near field; see its module docs).
//! * [`instrument`] — nvprof-style profiling: analytic instruction
//!   counts plus the cache-hierarchy simulator produce the Table III
//!   counters for each phase.
//! * [`accuracy`] — direct-sum reference and error norms.

pub mod accuracy;
pub mod distributions;
pub mod evaluator;
pub mod fft_m2l;
pub mod instrument;
pub mod kernel;
pub mod lists;
pub mod morton;
pub mod operators;
pub mod p2p_opt;
pub mod schedule;
pub mod stats;
pub mod surface;
pub mod tree;

pub use accuracy::{direct_sum, direct_sum_with, relative_l2_error};
pub use evaluator::{EnginePhase, FmmEvaluator, FmmPlan, PhaseObserver, PhaseTimings};
pub use instrument::{profile_plan, profile_shape, CostModel, FmmProfile, PhaseProfile};
pub use kernel::{Kernel, LaplaceKernel, YukawaKernel};
pub use lists::InteractionLists;
pub use p2p_opt::{p2p_soa, p2p_soa_grad, SoaSources, SoaView};
pub use schedule::PhaseSchedule;
pub use stats::TreeStats;
pub use surface::SurfaceTemplate;
pub use tree::{BoxId, Node, Octree};

/// The evaluation phases of the FMM, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Upward: P2M at leaves then M2M up the tree.
    Up,
    /// V-list: far-field translations (FFT M2L).
    V,
    /// U-list: direct near-field interactions (P2P).
    U,
    /// W-list: multipole-to-point shortcuts.
    W,
    /// X-list: point-to-local shortcuts.
    X,
    /// Downward: L2L down the tree then L2P at leaves.
    Down,
}

impl Phase {
    /// All phases in execution order.
    pub const ALL: [Phase; 6] = [Phase::Up, Phase::V, Phase::U, Phase::W, Phase::X, Phase::Down];

    /// Display name used in profiles and figures.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Up => "UP",
            Phase::V => "V",
            Phase::U => "U",
            Phase::W => "W",
            Phase::X => "X",
            Phase::Down => "DOWN",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_follow_the_all_order() {
        // Per-phase arrays (`CostModel::utilization`, `FmmProfile::phases`)
        // are indexed by `phase as usize`.
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase as usize, i, "{}", phase.name());
        }
    }

    #[test]
    fn six_phases_as_in_paper() {
        assert_eq!(Phase::ALL.len(), 6);
        assert_eq!(Phase::ALL[0].name(), "UP");
        assert_eq!(Phase::ALL[5].name(), "DOWN");
    }
}
