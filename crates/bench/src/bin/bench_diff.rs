//! Compares two `BENCH_telemetry.json` throughput summaries.
//!
//! ```text
//! cargo run -p oxterm-bench --bin bench_diff -- BASELINE FRESH
//! ```
//!
//! Applies the `--check-bench` rules of [`oxterm_bench::bench_diff`]
//! (wall time and failure counts may grow, `*_per_second` throughput may
//! shrink, by at most 25%; workload counters never gate) and exits 1 on a
//! failing metric, 2 on a usage, read or parse error. Typical use: stash
//! the committed baseline, rerun `repro_all`, then diff — or let
//! `repro_all --check-bench` do all three.

use oxterm_bench::bench_diff::{compare, BENCH_GATE};

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, fresh] = paths.as_slice() else {
        eprintln!("usage: bench_diff BASELINE FRESH");
        std::process::exit(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_diff: could not read {path}: {e}");
            std::process::exit(2);
        })
    };
    match compare(&read(baseline), &read(fresh), BENCH_GATE.rules) {
        Ok(verdict) => {
            println!("== bench diff: {baseline} -> {fresh} ==\n");
            print!("{}", verdict.render(BENCH_GATE.label));
            std::process::exit(i32::from(!verdict.failed().is_empty()));
        }
        Err(e) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(2);
        }
    }
}
