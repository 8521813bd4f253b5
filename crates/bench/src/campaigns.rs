//! Shared Monte Carlo campaigns reused by several experiment binaries.
//!
//! Figs 11, 12 and 13 and Table 3 all consume the same campaign: for every
//! level of an allocation, `runs` Monte Carlo programs with full
//! variability. Running it once and slicing it three ways matches how the
//! paper derives those artifacts from one 500-run simulation set.

use oxterm_mc::engine::MonteCarlo;
use oxterm_mc::supervisor::{run_supervised, CampaignOutcome, SupervisorError, SupervisorOptions};
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
    /// One outcome per Monte Carlo run.
    pub outcomes: Vec<ProgramOutcome>,
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
/// # Panics
///
/// Panics if any program operation fails — the allocation must sit inside
/// the calibrated model's programmable window.
pub fn mc_campaign(
    params: &OxramParams,
    alloc: &LevelAllocation,
    runs: usize,
    seed: u64,
) -> Vec<LevelCampaign> {
    let cond = ProgramConditions::paper();
    let var = McVariability::default();
    let levels: Vec<LevelSpec> = alloc.levels().to_vec();
    // The fallible sweep records any failed run (with its replayable seed)
    // in telemetry before this function panics on it. Successful runs
    // additionally feed the streaming level tracker (one branch when
    // disarmed), which is where the level report gets its
    // distributions from.
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
        .map(|(spec, outcomes)| LevelCampaign {
            spec,
            outcomes: outcomes
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .expect("level inside programmable window"),
        })
        .collect()
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

/// Supervised variant of [`paper_qlc_campaign`]: `runs` programs per QLC
/// level flattened into one `16 × runs` campaign (run `i` programs level
/// `i / runs`), executed under [`run_supervised`] so retries,
/// panic isolation, checkpoint/resume and quorum bookkeeping cover the
/// whole figure in a single ledger.
///
/// Runs that exhaust their attempts simply leave a hole in their
/// level's sample set; the returned [`CampaignOutcome`] carries the
/// failure fraction and suggested process exit code. The flat indexing
/// gives this path its own (fully deterministic) sample streams — it is
/// deliberately not bit-compatible with the unsupervised per-level sweep
/// of [`mc_campaign`].
pub fn supervised_qlc_campaign(
    runs: usize,
    opts: &SupervisorOptions,
) -> Result<(Vec<LevelCampaign>, CampaignOutcome<ProgramOutcome>), SupervisorError> {
    let params = OxramParams::calibrated();
    let alloc = LevelAllocation::paper_qlc();
    let cond = ProgramConditions::paper();
    let var = McVariability::default();
    let levels: Vec<LevelSpec> = alloc.levels().to_vec();
    let total = levels.len() * runs;
    let outcome = run_supervised(MonteCarlo::new(total, 0xD47E_2021), opts, |attempt, rng| {
        let spec = &levels[attempt.run_index as usize / runs];
        let out = program_cell_mc(&params, &alloc, spec.code, &cond, &var, rng)
            .map_err(|e| e.to_string())?;
        // Feed the streaming tracker only on success: failed attempts
        // (including injected chaos faults) must not pollute the level
        // distributions, and a retried run contributes exactly its one
        // successful outcome.
        LevelTracker::global().observe(spec.code, spec.i_ref, out.r_read_ohms);
        JouleLedger::global().observe_level(spec.code, spec.i_ref, out.energy_j, out.latency_s);
        Ok(out)
    })?;
    let campaigns = levels
        .iter()
        .enumerate()
        .map(|(k, &spec)| LevelCampaign {
            spec,
            outcomes: outcome.results[k * runs..(k + 1) * runs]
                .iter()
                .filter_map(|r| r.as_ref().ok().cloned())
                .collect(),
        })
        .collect();
    Ok((campaigns, outcome))
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
            assert!(lc.resistances().iter().all(|&r| r > 10e3));
        }
    }

    #[test]
    fn supervised_campaign_covers_every_level_cleanly() {
        let (campaign, outcome) =
            supervised_qlc_campaign(3, &SupervisorOptions::default()).expect("campaign runs");
        assert_eq!(campaign.len(), 16);
        assert_eq!(outcome.exit_code(), 0);
        assert_eq!(outcome.failures, 0);
        for lc in &campaign {
            assert_eq!(lc.outcomes.len(), 3);
            assert!(lc.resistances().iter().all(|&r| r > 10e3));
        }
    }

    #[test]
    fn supervised_campaign_is_deterministic() {
        let a = supervised_qlc_campaign(2, &SupervisorOptions::default()).expect("campaign runs");
        let b = supervised_qlc_campaign(2, &SupervisorOptions::default()).expect("campaign runs");
        assert_eq!(a.0[7].resistances(), b.0[7].resistances());
        assert_eq!(a.0[7].energies(), b.0[7].energies());
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
