//! Shared Monte Carlo campaigns reused by several experiment binaries.
//!
//! Figs 11, 12 and 13 and Table 3 all consume the same campaign: for every
//! level of an allocation, `runs` Monte Carlo programs with full
//! variability. Running it once and slicing it three ways matches how the
//! paper derives those artifacts from one 500-run simulation set.
//!
//! A run that fails (a non-converged program, a worker panic, an injected
//! `--chaos` fault) is never retried: it leaves a hole in its level, and
//! [`LevelCampaign::failed`] counts the holes.

use oxterm_mc::engine::MonteCarlo;
use oxterm_mc::sweep::sweep_mc_try;
use oxterm_mlc::levels::{LevelAllocation, LevelSpec};
use oxterm_mlc::margins::LevelSamples;
use oxterm_mlc::program::{
    program_cell_circuit_probed, program_cell_mc, CircuitProgramOptions, McVariability,
    ProgramConditions, ProgramOutcome,
};
use oxterm_mlc::MlcError;
use oxterm_rram::params::OxramParams;
use oxterm_spice::probe::{ProbeCapture, ProbePlan};
use oxterm_telemetry::joule::JouleLedger;
use oxterm_telemetry::levels::LevelTracker;

/// All Monte Carlo outcomes for one level.
#[derive(Debug, Clone)]
pub struct LevelCampaign {
    /// The level programmed.
    pub spec: LevelSpec,
    /// One outcome per successful Monte Carlo run, in run order.
    pub outcomes: Vec<ProgramOutcome>,
    /// Runs that failed and left a hole in `outcomes`.
    pub failed: usize,
}

impl LevelCampaign {
    /// The sampled read resistances (Ω).
    pub fn resistances(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.r_read_ohms).collect()
    }

    /// The sampled RESET latencies (s).
    pub fn latencies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.latency_s).collect()
    }

    /// The sampled RESET energies (J).
    pub fn energies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.energy_j).collect()
    }

    /// Converts to the margin-analysis sample form.
    pub fn to_level_samples(&self) -> LevelSamples {
        LevelSamples {
            code: self.spec.code,
            i_ref: self.spec.i_ref,
            r: self.resistances(),
        }
    }
}

/// Runs the full campaign: `runs` Monte Carlo programs per level of
/// `alloc`, in parallel, deterministically seeded.
///
/// Every run goes through [`sweep_mc_try`]: a failed run is recorded in
/// telemetry with its replay seed (plus one post-mortem bundle when
/// capture is on) and leaves a hole in its level; the other runs keep
/// their own RNG streams, so their outcomes do not move.
pub fn mc_campaign(
    params: &OxramParams,
    alloc: &LevelAllocation,
    runs: usize,
    seed: u64,
) -> Vec<LevelCampaign> {
    let cond = ProgramConditions::paper();
    let var = McVariability::default();
    let levels: Vec<LevelSpec> = alloc.levels().to_vec();
    // Only successful runs feed the streaming level tracker and joule
    // ledger (one branch each when disarmed), so their counts always
    // equal the batch counts below.
    let results = sweep_mc_try(&levels, MonteCarlo::new(runs, seed), |spec, _, rng| {
        let out = program_cell_mc(params, alloc, spec.code, &cond, &var, rng);
        if let Ok(o) = &out {
            LevelTracker::global().observe(spec.code, spec.i_ref, o.r_read_ohms);
            JouleLedger::global().observe_level(spec.code, spec.i_ref, o.energy_j, o.latency_s);
        }
        out
    });
    results
        .into_iter()
        .map(|(spec, results)| {
            let outcomes: Vec<_> = results.into_iter().filter_map(Result::ok).collect();
            LevelCampaign {
                spec,
                failed: runs - outcomes.len(),
                outcomes,
            }
        })
        .collect()
}

/// Fewest successful runs a level needs for its statistics: a spread takes
/// two samples.
const MIN_LEVEL_SAMPLES: usize = 2;

/// The failed check of a campaign that lost too many runs to analyse:
/// `Some("level 0000 kept 1 of 5 runs (its statistics need ≥ 2)")` for the
/// first level with fewer than two successful runs, else
/// `None`. Under the [`health_line`] rule a binary reports it as a failed
/// check and exits 1.
pub fn sparse_level(campaign: &[LevelCampaign]) -> Option<String> {
    campaign
        .iter()
        .find(|c| c.outcomes.len() < MIN_LEVEL_SAMPLES)
        .map(|c| {
            format!(
                "level {:04b} kept {} of {} runs (its statistics need ≥ {MIN_LEVEL_SAMPLES})",
                c.spec.code,
                c.outcomes.len(),
                c.outcomes.len() + c.failed
            )
        })
}

/// The one-line campaign health report, `campaign health: F of N runs
/// failed`, or `None` when every run succeeded. Binaries print it and exit
/// 3 when no check failed, so a clean run's stdout never changes.
pub fn health_line(campaign: &[LevelCampaign]) -> Option<String> {
    let failed: usize = campaign.iter().map(|c| c.failed).sum();
    let total: usize = failed + campaign.iter().map(|c| c.outcomes.len()).sum::<usize>();
    (failed > 0).then(|| format!("campaign health: {failed} of {total} runs failed"))
}

/// The standard campaign used across the figure binaries: the paper's QLC
/// allocation, 500 runs, fixed seed.
pub fn paper_qlc_campaign(runs: usize) -> Vec<LevelCampaign> {
    mc_campaign(
        &OxramParams::calibrated(),
        &LevelAllocation::paper_qlc(),
        runs,
        0xD47E_2021,
    )
}

/// Runs one designated circuit-level program with signal probes attached,
/// standing in for "run 0" of a fast-path Monte Carlo campaign.
///
/// The MC campaigns behind Figs 11 and 13 run on the circuit-free fast
/// path, which has no nodes or branches to probe. When `--probes` is given
/// on those binaries, this helper replays the campaign's operating point —
/// the paper's Fig 10 testbench pulsed at the allocation's lowest
/// compliance current (level `0000`, the slowest and most energetic RESET)
/// — at circuit level, so the requested waveforms describe a transient the
/// campaign actually models.
///
/// # Errors
///
/// Propagates transient-analysis failures, including probe specs naming
/// signals the Fig 10 testbench does not contain.
pub fn probe_designated_run(plan: &ProbePlan) -> Result<ProbeCapture, MlcError> {
    let alloc = LevelAllocation::paper_qlc();
    let i_ref = alloc.levels()[0].i_ref;
    let out =
        program_cell_circuit_probed(&CircuitProgramOptions::paper_fig10(), Some(i_ref), plan)?;
    Ok(out.probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn designated_probe_run_captures_requested_signals() {
        let plan = ProbePlan::parse("v(sl),i(vsense)").expect("valid spec");
        let capture = probe_designated_run(&plan).expect("fig10 testbench converges");
        assert_eq!(capture.traces.len(), 2);
        assert!(capture.traces.iter().any(|t| t.label == "v(sl)"));
        assert!(capture.traces.iter().all(|t| !t.samples.is_empty()));
    }

    #[test]
    fn campaign_covers_every_level() {
        let campaign = mc_campaign(
            &OxramParams::calibrated(),
            &LevelAllocation::paper_qlc(),
            5,
            1,
        );
        assert_eq!(campaign.len(), 16);
        for lc in &campaign {
            assert_eq!(lc.outcomes.len(), 5);
            assert_eq!(lc.failed, 0);
            assert!(lc.resistances().iter().all(|&r| r > 10e3));
        }
        assert_eq!(health_line(&campaign), None);
        assert_eq!(sparse_level(&campaign), None);
    }

    #[test]
    fn a_level_below_two_samples_is_a_failed_check() {
        let mut campaign = mc_campaign(
            &OxramParams::calibrated(),
            &LevelAllocation::paper_qlc(),
            2,
            7,
        );
        assert_eq!(sparse_level(&campaign), None);
        let lc = &mut campaign[3];
        lc.outcomes.truncate(1);
        lc.failed = 1;
        assert_eq!(
            sparse_level(&campaign).as_deref(),
            Some("level 0011 kept 1 of 2 runs (its statistics need ≥ 2)")
        );
        assert_eq!(
            health_line(&campaign).as_deref(),
            Some("campaign health: 1 of 32 runs failed")
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = mc_campaign(
            &OxramParams::calibrated(),
            &LevelAllocation::paper_qlc(),
            3,
            9,
        );
        let b = mc_campaign(
            &OxramParams::calibrated(),
            &LevelAllocation::paper_qlc(),
            3,
            9,
        );
        assert_eq!(a[4].resistances(), b[4].resistances());
    }
}
