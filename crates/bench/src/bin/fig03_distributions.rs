//! Fig 3 — HRS and LRS cumulative resistance distributions from 500
//! consecutive RST/SET cycles on the 8×8 array (500 × 64 samples, 0.3 V
//! read).

use oxterm_array::cycling::{cycle_array, CyclingConfig};
use oxterm_bench::chart::{xy_chart, Scale};
use oxterm_bench::table::{eng, Table};
use oxterm_bench::telemetry_cli;
use oxterm_numerics::stats::{quantile, Ecdf};
use oxterm_rram::params::OxramParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cycles = telemetry_cli::count_arg("fig03", &args, 500).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.code);
    });
    println!("== Fig 3: HRS/LRS distributions, 64 cells × {cycles} RST/SET cycles ==\n");
    let config = CyclingConfig {
        n_cycles: cycles,
        ..CyclingConfig::paper_fig3()
    };
    let mut rng = StdRng::seed_from_u64(0xF1_63);
    let data = cycle_array(&OxramParams::calibrated(), &config, &mut rng)
        .expect("campaign conditions are valid");

    // Probability rows matching the figure's axis.
    let probs = [0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.9999f64];
    let lrs = Ecdf::new(&data.r_lrs).expect("populated");
    let hrs = Ecdf::new(&data.r_hrs).expect("populated");
    let mut t = Table::new(&["probability", "R_LRS", "R_HRS"]);
    for &p in &probs {
        t.row_strings(vec![
            format!("{p}"),
            eng(lrs.inverse(p), "Ω"),
            eng(hrs.inverse(p), "Ω"),
        ]);
    }
    println!("{}", t.render());

    let lrs_pts: Vec<(f64, f64)> = lrs
        .points()
        .step_by(50.max(data.r_lrs.len() / 400))
        .collect();
    let hrs_pts: Vec<(f64, f64)> = hrs
        .points()
        .step_by(50.max(data.r_hrs.len() / 400))
        .collect();
    println!(
        "{}",
        xy_chart(
            "cumulative probability vs resistance (log x)",
            &[("LRS", &lrs_pts), ("HRS", &hrs_pts)],
            64,
            16,
            Scale::Log,
            Scale::Linear,
        )
    );

    let lrs_med = quantile(&data.r_lrs, 0.5).expect("populated");
    let hrs_med = quantile(&data.r_hrs, 0.5).expect("populated");
    let lrs_decades = (lrs.inverse(0.99) / lrs.inverse(0.01)).log10();
    let hrs_decades = (hrs.inverse(0.99) / hrs.inverse(0.01)).log10();
    println!(
        "medians: LRS {} | HRS {}  (paper: ~1e4 Ω vs ~1e5–1e6 Ω)",
        eng(lrs_med, "Ω"),
        eng(hrs_med, "Ω")
    );
    println!(
        "1%–99% spread: LRS {lrs_decades:.2} decades vs HRS {hrs_decades:.2} decades \
         (paper: HRS spread ≫ LRS spread)"
    );
}
