//! Fig 5 — stochastic I–V characteristics: SET, RESET, and forming sweeps
//! with sampled variability overlaid on the nominal curve.

use oxterm_bench::chart::{xy_chart, Scale};
use oxterm_bench::table::Table;
use oxterm_bench::telemetry_cli;
use oxterm_rram::iv::{butterfly_sweep, forming_sweep, IvSweepConfig};
use oxterm_rram::params::{InstanceVariation, OxramParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n_samples = telemetry_cli::count_arg("fig05", &args, 50).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.code);
    });
    println!("== Fig 5: I-V characteristics with variability ({n_samples} samples) ==\n");
    let params = OxramParams::calibrated();
    let mut rng = StdRng::seed_from_u64(0xF1_65);

    // Nominal curves.
    let nominal_bf = butterfly_sweep(
        &params,
        &InstanceVariation::nominal(),
        &IvSweepConfig::butterfly(),
    )
    .expect("valid sweep");
    let nominal_fmg = forming_sweep(
        &params,
        &InstanceVariation::nominal(),
        &IvSweepConfig::forming(),
    )
    .expect("valid sweep");

    // Stochastic envelopes: per sweep index, min/max current across samples.
    let mut bf_runs = Vec::with_capacity(n_samples);
    let mut fmg_runs = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let d2d = InstanceVariation::sample_d2d(&params, &mut rng);
        let c2c = InstanceVariation::sample_c2c(&params, &mut rng);
        let inst = d2d.combine(&c2c);
        bf_runs.push(butterfly_sweep(&params, &inst, &IvSweepConfig::butterfly()).expect("valid"));
        fmg_runs.push(forming_sweep(&params, &inst, &IvSweepConfig::forming()).expect("valid"));
    }
    let envelope = |runs: &[Vec<oxterm_rram::iv::IvPoint>], idx: usize| -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for run in runs {
            let i = run[idx].i.abs().max(1e-12);
            lo = lo.min(i);
            hi = hi.max(i);
        }
        (lo, hi)
    };

    let nominal_pts: Vec<(f64, f64)> = nominal_bf
        .iter()
        .map(|p| (p.v, p.i.abs().max(1e-12)))
        .collect();
    let lo_pts: Vec<(f64, f64)> = (0..nominal_bf.len())
        .map(|k| (nominal_bf[k].v, envelope(&bf_runs, k).0))
        .collect();
    let hi_pts: Vec<(f64, f64)> = (0..nominal_bf.len())
        .map(|k| (nominal_bf[k].v, envelope(&bf_runs, k).1))
        .collect();
    println!(
        "{}",
        xy_chart(
            "SET/RST butterfly: nominal (model line) with min/max envelope (symbols)",
            &[
                ("nominal", &nominal_pts),
                ("env lo", &lo_pts),
                ("env hi", &hi_pts)
            ],
            64,
            16,
            Scale::Linear,
            Scale::Log,
        )
    );

    let fmg_nominal: Vec<(f64, f64)> = nominal_fmg
        .iter()
        .map(|p| (p.v, p.i.abs().max(1e-12)))
        .collect();
    println!(
        "{}",
        xy_chart(
            "forming leg (virgin cell, 0 → 3.3 V)",
            &[("FMG", &fmg_nominal)],
            64,
            12,
            Scale::Linear,
            Scale::Log,
        )
    );

    // Spread of the switching voltages across samples.
    let mut set_onsets = Vec::new();
    for run in &bf_runs {
        if let Some(p) = run.iter().find(|p| p.compliance_active) {
            set_onsets.push(p.v);
        }
    }
    let mut fmg_onsets = Vec::new();
    for run in &fmg_runs {
        if let Some(p) = run.iter().find(|p| p.rho > 0.5) {
            fmg_onsets.push(p.v);
        }
    }
    let mut t = Table::new(&["transition", "min (V)", "max (V)", "spread (V)"]);
    for (name, v) in [("SET onset", &set_onsets), ("FMG onset", &fmg_onsets)] {
        if v.is_empty() {
            continue;
        }
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        t.row_strings(vec![
            name.to_string(),
            format!("{lo:.2}"),
            format!("{hi:.2}"),
            format!("{:.2}", hi - lo),
        ]);
    }
    println!("{}", t.render());
    println!("paper: model (lines) consistent with measurements (symbols) for SET/RST/FMG,");
    println!("       with ±5 % σ on α and Lx producing the observed switching-voltage spread.");
}
