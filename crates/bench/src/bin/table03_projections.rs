//! Table 3 — projections beyond quad-level cell: 4, 5, and 6 bits/cell in
//! the same 6–36 µA window.
//!
//! Paper: minimal ΔR 2.5 kΩ / 1.24 kΩ / 620 Ω and worst-case ΔR 2.1 kΩ /
//! 490 Ω / 90 Ω for 4 / 5 / 6 bits — sensing below ~0.5 µA of current
//! difference becomes impractical for state-of-the-art sense amplifiers.

use oxterm_bench::table::{eng, Table};
use oxterm_bench::telemetry_cli;
use oxterm_mlc::projection::{project, ProjectionConfig};
use oxterm_rram::params::OxramParams;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runs = telemetry_cli::count_arg("table03", &args, 500).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.code);
    });
    println!("== Table 3: projections beyond QLC ({runs} MC runs per level) ==\n");
    let params = OxramParams::calibrated();

    let paper = [(4u32, 2.5e3, 2.1e3), (5, 1.24e3, 490.0), (6, 620.0, 90.0)];
    let mut t = Table::new(&[
        "bits/cell",
        "levels",
        "min ΔR paper",
        "min ΔR measured",
        "worst ΔR paper",
        "worst ΔR measured",
        "overlap",
    ]);
    for (bits, p_min, p_wc) in paper {
        let row = project(
            &params,
            &ProjectionConfig::paper(bits, runs, 0xD47E + bits as u64),
        )
        .expect("window is programmable");
        t.row_strings(vec![
            format!("{bits}"),
            format!("{}", row.levels),
            eng(p_min, "Ω"),
            eng(row.min_nominal_margin, "Ω"),
            eng(p_wc, "Ω"),
            eng(row.worst_case_margin, "Ω"),
            if row.report.has_overlap() {
                "YES".into()
            } else {
                "no".to_string()
            },
        ]);
        // Current-difference view for the sensing argument.
        let min_di = row
            .report
            .levels
            .windows(2)
            .map(|w| 0.3 / w[0].mean - 0.3 / w[1].mean)
            .fold(f64::INFINITY, f64::min);
        println!(
            "{bits} bits/cell: smallest adjacent read-current difference at 0.3 V: {}",
            eng(min_di, "A")
        );
    }
    println!("\n{}", t.render());
    println!("paper's conclusion: beyond 4 bits/cell the worst-case current difference");
    println!("falls below ~0.5 µA, out of reach for state-of-the-art sense amplifiers.");
}
