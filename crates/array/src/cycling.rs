//! The 500-cycle RST/SET endurance campaign behind the paper's Fig 3.
//!
//! The paper forms an 8×8 array, then applies 500 consecutive RST/SET
//! cycles to all 64 cells (500 × 64 samples) and plots the cumulative
//! HRS/LRS resistance distributions read at 0.3 V. This module reproduces
//! that campaign on the fast scalar path: every cell carries a fixed
//! device-to-device variation, every cycle resamples the cycle-to-cycle
//! variation.

use oxterm_rram::calib::{
    simulate_set, simulate_standard_reset, SetConditions, StandardResetPulse,
};
use oxterm_rram::params::{InstanceVariation, OxramParams};
use oxterm_rram::RramError;
use rand::Rng;

/// Conditions for the cycling campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclingConfig {
    /// Number of cells (64 for the 8×8 tile).
    pub n_cells: usize,
    /// Number of RST/SET cycles per cell.
    pub n_cycles: usize,
    /// Driver voltage of the standard RESET pulse (V).
    pub v_reset_drive: f64,
    /// RESET pulse width (s).
    pub reset_width: f64,
    /// Series resistance of the programming path (Ω).
    pub r_series: f64,
    /// SET conditions.
    pub set: SetConditions,
    /// Read-back voltage (V).
    pub v_read: f64,
}

impl CyclingConfig {
    /// The paper's Fig 3 campaign: 64 cells × 500 cycles, standard-pulse
    /// RESET, 0.3 V read-back.
    pub fn paper_fig3() -> Self {
        CyclingConfig {
            n_cells: 64,
            n_cycles: 500,
            v_reset_drive: 1.38,
            reset_width: 3.5e-6,
            r_series: 3.0e3,
            set: SetConditions::paper_defaults(),
            v_read: 0.3,
        }
    }
}

/// Collected resistance samples from a cycling campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclingData {
    /// One HRS sample per (cell, cycle), read after each RESET (Ω).
    pub r_hrs: Vec<f64>,
    /// One LRS sample per (cell, cycle), read after each SET (Ω).
    pub r_lrs: Vec<f64>,
}

/// Runs the campaign.
///
/// # Errors
///
/// Propagates fast-path simulation failures (invalid cards, solver issues).
pub fn cycle_array<R: Rng + ?Sized>(
    params: &OxramParams,
    config: &CyclingConfig,
    rng: &mut R,
) -> Result<CyclingData, RramError> {
    params.validate()?;
    let n = config.n_cells * config.n_cycles;
    let mut r_hrs = Vec::with_capacity(n);
    let mut r_lrs = Vec::with_capacity(n);
    for _cell in 0..config.n_cells {
        let d2d = InstanceVariation::sample_d2d(params, rng);
        // Cells start formed in LRS.
        let mut rho = 1.0;
        for _cycle in 0..config.n_cycles {
            let c2c = InstanceVariation::sample_c2c(params, rng);
            let inst = d2d.combine(&c2c);
            let pulse = StandardResetPulse {
                v_drive: config.v_reset_drive,
                r_series: config.r_series,
                width: config.reset_width,
            };
            let rst = simulate_standard_reset(params, &inst, &pulse, rho, config.v_read)?;
            r_hrs.push(rst.r_read_ohms);
            rho = rst.rho_final;

            let c2c = InstanceVariation::sample_c2c(params, rng);
            let inst = d2d.combine(&c2c);
            let set_cond = SetConditions {
                rho_start: rho,
                ..config.set
            };
            let set = simulate_set(params, &inst, &set_cond)?;
            r_lrs.push(set.r_read_ohms);
            rho = set.rho_final;
        }
    }
    Ok(CyclingData { r_hrs, r_lrs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxterm_numerics::stats::{quantile, summary};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_campaign() -> CyclingData {
        let mut rng = StdRng::seed_from_u64(99);
        let config = CyclingConfig {
            n_cells: 8,
            n_cycles: 25,
            ..CyclingConfig::paper_fig3()
        };
        cycle_array(&OxramParams::calibrated(), &config, &mut rng).unwrap()
    }

    #[test]
    fn hrs_sits_above_lrs() {
        let data = small_campaign();
        let hrs_med = quantile(&data.r_hrs, 0.5).unwrap();
        let lrs_med = quantile(&data.r_lrs, 0.5).unwrap();
        assert!(
            hrs_med > 5.0 * lrs_med,
            "HRS {hrs_med:.3e} vs LRS {lrs_med:.3e}"
        );
        // Fig 3 scales: LRS ~10⁴ Ω, HRS ~10⁵ Ω and above.
        assert!((3e3..5e4).contains(&lrs_med), "LRS median {lrs_med:.3e}");
        assert!((5e4..2e6).contains(&hrs_med), "HRS median {hrs_med:.3e}");
    }

    #[test]
    fn hrs_spread_exceeds_lrs_spread() {
        // The paper's headline Fig 3 observation: the HRS distribution is
        // much wider than the LRS one (in relative/log terms).
        let data = small_campaign();
        let hrs: Vec<f64> = data.r_hrs.iter().map(|r| r.ln()).collect();
        let lrs: Vec<f64> = data.r_lrs.iter().map(|r| r.ln()).collect();
        let s_hrs = summary(&hrs).unwrap().std_dev;
        let s_lrs = summary(&lrs).unwrap().std_dev;
        assert!(
            s_hrs > 2.0 * s_lrs,
            "log-σ HRS {s_hrs:.3} vs LRS {s_lrs:.3}"
        );
    }

    #[test]
    fn sample_counts_match_campaign() {
        let data = small_campaign();
        assert_eq!(data.r_hrs.len(), 8 * 25);
        assert_eq!(data.r_lrs.len(), 8 * 25);
    }
}
