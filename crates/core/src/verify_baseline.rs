//! The prior-art **program-and-verify** MLC baseline.
//!
//! The paper's introduction criticizes multi-step program-and-verify
//! schemes as "energy and time inefficient as [they involve] a sequence of
//! programming-and-verify operations". This module implements that baseline
//! so the claim can be measured: short partial RESET pulses interleaved
//! with read-verify operations until the resistance lands in the target
//! band, with a SET-and-restart on overshoot.

use oxterm_rram::calib::{simulate_set, SetConditions};
use oxterm_rram::model;
use oxterm_rram::params::{InstanceVariation, OxramParams};

use crate::levels::LevelAllocation;
use crate::MlcError;

/// Configuration of the program-and-verify loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyConfig {
    /// Partial RESET pulse width per step (s).
    pub pulse_width: f64,
    /// Driver voltage of the partial RESET (V).
    pub v_drive: f64,
    /// Series resistance (Ω).
    pub r_series: f64,
    /// Read-verify duration per step (s).
    pub t_read: f64,
    /// Read voltage (V).
    pub v_read: f64,
    /// Acceptance band around the target resistance (relative).
    pub tolerance: f64,
    /// Iteration budget before giving up.
    pub max_iterations: usize,
    /// SET conditions for overshoot recovery.
    pub set: SetConditions,
}

impl VerifyConfig {
    /// A representative prior-art configuration: 100 ns partial pulses,
    /// 50 ns verifies, ±5 % acceptance band.
    pub fn typical() -> Self {
        VerifyConfig {
            pulse_width: 100e-9,
            v_drive: 1.1571,
            r_series: 2.9568e3,
            t_read: 50e-9,
            v_read: 0.3,
            tolerance: 0.05,
            max_iterations: 200,
            set: SetConditions::paper_defaults(),
        }
    }
}

/// Outcome of a program-and-verify operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyOutcome {
    /// Final read resistance (Ω).
    pub r_read_ohms: f64,
    /// Total partial-RESET pulses applied.
    pub pulses: usize,
    /// Total verify reads performed.
    pub verifies: usize,
    /// SET-and-restart recoveries after overshoot.
    pub restarts: usize,
    /// Total latency including verifies (s).
    pub latency_s: f64,
    /// Total energy: programming + verify reads (J).
    pub energy_j: f64,
}

/// Programs `code` with the program-and-verify baseline.
///
/// # Errors
///
/// * [`MlcError::InvalidData`] for out-of-range codes,
/// * [`MlcError::VerifyBudgetExhausted`] when the loop cannot land in the
///   band within its budget,
/// * [`MlcError::Rram`] for model failures.
pub fn program_and_verify(
    params: &OxramParams,
    inst: &InstanceVariation,
    alloc: &LevelAllocation,
    code: u16,
    target_r: f64,
    config: &VerifyConfig,
) -> Result<VerifyOutcome, MlcError> {
    alloc.level(code)?; // validate the code
    params.validate().map_err(MlcError::from)?;
    let lo = target_r * (1.0 - config.tolerance);
    let hi = target_r * (1.0 + config.tolerance);

    // Start from a fresh SET.
    let set = simulate_set(params, inst, &config.set)?;
    let mut rho = set.rho_final;
    let mut energy = set.energy_j;
    let mut latency = config.set.width;
    let mut pulses = 0usize;
    let mut restarts = 0usize;

    for it in 0..config.max_iterations {
        // Verify read. `it + 1` reads have happened once this one is done.
        let r = model::read_resistance(params, inst, rho, config.v_read);
        let verifies = it + 1;
        latency += config.t_read;
        energy += config.v_read * (config.v_read / r) * config.t_read;
        if r >= lo && r <= hi {
            return Ok(VerifyOutcome {
                r_read_ohms: r,
                pulses,
                verifies,
                restarts,
                latency_s: latency,
                energy_j: energy,
            });
        }
        if r > hi {
            // Overshoot: SET and restart the staircase.
            let set = simulate_set(
                params,
                inst,
                &SetConditions {
                    rho_start: rho,
                    ..config.set
                },
            )?;
            rho = set.rho_final;
            energy += set.energy_j;
            latency += config.set.width;
            restarts += 1;
            continue;
        }
        // Apply one partial RESET pulse (fixed width, no termination).
        let pulse = oxterm_rram::calib::StandardResetPulse {
            v_drive: config.v_drive,
            r_series: config.r_series,
            width: config.pulse_width,
        };
        let out =
            oxterm_rram::calib::simulate_standard_reset(params, inst, &pulse, rho, config.v_read)?;
        rho = out.rho_final;
        energy += out.energy_j;
        latency += config.pulse_width;
        pulses += 1;
    }
    Err(MlcError::VerifyBudgetExhausted {
        iterations: config.max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::LevelAllocation;
    use crate::program::{program_cell_fast, ProgramConditions};

    #[test]
    fn lands_in_the_band() {
        let params = OxramParams::calibrated();
        let inst = InstanceVariation::nominal();
        let alloc = LevelAllocation::paper_qlc();
        let target = 106e3; // code 11 in Table 2
        let out = program_and_verify(&params, &inst, &alloc, 11, target, &VerifyConfig::typical())
            .unwrap();
        assert!(
            (out.r_read_ohms - target).abs() / target <= 0.05 + 1e-9,
            "landed at {:.3e}",
            out.r_read_ohms
        );
        assert!(out.pulses >= 1);
    }

    #[test]
    fn needs_multiple_iterations() {
        // The whole point of the paper: verify loops take several steps.
        let params = OxramParams::calibrated();
        let inst = InstanceVariation::nominal();
        let alloc = LevelAllocation::paper_qlc();
        let out = program_and_verify(&params, &inst, &alloc, 13, 185e3, &VerifyConfig::typical())
            .unwrap();
        assert!(out.verifies >= 2, "verifies = {}", out.verifies);
    }

    #[test]
    fn termination_is_cheaper_than_verify_loop() {
        let params = OxramParams::calibrated();
        let inst = InstanceVariation::nominal();
        let alloc = LevelAllocation::paper_qlc();
        let cond = ProgramConditions::paper();
        // Compare on a mid level.
        let term = program_cell_fast(&params, &inst, &alloc, 8, &cond).unwrap();
        let pv = program_and_verify(
            &params,
            &inst,
            &alloc,
            8,
            term.r_read_ohms,
            &VerifyConfig::typical(),
        )
        .unwrap();
        // The verify loop must cost more wall-clock than the one-shot
        // terminated RESET (energy comparison is reported by the bench).
        assert!(
            pv.latency_s > term.latency_s,
            "verify {:.3e}s vs termination {:.3e}s",
            pv.latency_s,
            term.latency_s
        );
    }

    #[test]
    fn impossible_band_exhausts_budget() {
        let params = OxramParams::calibrated();
        let inst = InstanceVariation::nominal();
        let alloc = LevelAllocation::paper_qlc();
        let mut cfg = VerifyConfig::typical();
        cfg.max_iterations = 5;
        cfg.tolerance = 1e-6; // band narrower than a pulse step
        let r = program_and_verify(&params, &inst, &alloc, 8, 92e3, &cfg);
        assert!(matches!(r, Err(MlcError::VerifyBudgetExhausted { .. })));
    }
}
