//! Tolerances and analysis options.
//!
//! The paper's results come from one fixed transient set-up, so the
//! numerical controls no caller varies are constants; the option structs
//! carry only what experiments actually set.

use crate::probe::ProbePlan;

/// Relative Newton convergence tolerance.
pub const RELTOL: f64 = 1e-3;
/// Absolute Newton voltage tolerance (V).
pub const VNTOL: f64 = 1e-6;
/// Absolute Newton branch-current tolerance (A).
pub const ABSTOL: f64 = 1e-12;
/// Final shunt conductance from every node to ground (S), a numerical aid.
pub const GMIN: f64 = 1e-12;
/// Per-iteration clamp on node-voltage updates (V): global Newton damping.
pub const MAX_DV: f64 = 1.0;
/// Systems larger than this many unknowns use the sparse LU path.
pub const SPARSE_THRESHOLD: usize = 150;
/// Largest node-voltage change allowed per accepted transient step (V);
/// larger changes retry the step at half size. This is the engine's
/// local-accuracy control.
pub const DV_STEP_MAX: f64 = 0.3;

/// Newton–Raphson options shared by all analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Maximum Newton iterations per solve.
    pub max_newton_iters: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_newton_iters: 150,
        }
    }
}

/// Options for the DC operating-point analysis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpOptions {
    /// Shared Newton options.
    pub sim: SimOptions,
}

/// Options for transient analysis.
///
/// Dynamic devices always integrate with the trapezoidal rule, and the
/// first step is `t_stop / 1000` (clipped to the step ceiling).
///
/// `TranOptions` is `Clone` but (unlike [`SimOptions`]) not `Copy`: the
/// probe plan owns heap data. Pass by reference, clone when a variant is
/// needed.
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// Shared Newton options.
    pub sim: SimOptions,
    /// End time (s).
    pub t_stop: f64,
    /// Smallest step before the run is abandoned (s).
    pub dt_min: f64,
    /// Largest allowed step (s); defaults to `t_stop / 50`.
    pub dt_max: Option<f64>,
    /// Hard cap on accepted steps.
    pub max_steps: usize,
    /// Signal probes captured per accepted step (empty = capture nothing).
    pub probes: ProbePlan,
}

impl TranOptions {
    /// Creates options for a run of the given duration with defaults
    /// matching the paper's microsecond-scale programming pulses.
    pub fn for_duration(t_stop: f64) -> Self {
        TranOptions {
            sim: SimOptions::default(),
            t_stop,
            dt_min: 1e-16,
            dt_max: None,
            max_steps: 2_000_000,
            probes: ProbePlan::none(),
        }
    }

    /// Same options with the given probe plan attached.
    pub fn with_probes(mut self, probes: ProbePlan) -> Self {
        self.probes = probes;
        self
    }

    /// The step ceiling the engine will actually use (`dt_max` or the
    /// `t_stop / 50` default). Exposed so pre-simulation lint can compare
    /// it against the shortest source edge.
    pub fn resolved_dt_max(&self) -> f64 {
        self.dt_max.unwrap_or(self.t_stop / 50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let t = TranOptions::for_duration(1e-6);
        assert!((t.resolved_dt_max() - 2e-8).abs() < 1e-18);
        let t2 = TranOptions {
            dt_max: Some(1e-9),
            ..TranOptions::for_duration(1e-6)
        };
        assert_eq!(t2.resolved_dt_max(), 1e-9);
    }
}
