//! Criterion benches for the fast scalar programming path — the kernel
//! under every Monte Carlo figure (Figs 11–13, Table 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oxterm_mlc::levels::LevelAllocation;
use oxterm_mlc::program::{program_cell_fast, ProgramConditions};
use oxterm_rram::calib::{
    simulate_reset_termination, simulate_set, simulate_worst_case_reset, ResetConditions,
    SetConditions,
};
use oxterm_rram::params::{InstanceVariation, OxramParams};
use std::hint::black_box;

fn bench_reset_termination(c: &mut Criterion) {
    let params = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let mut group = c.benchmark_group("reset_termination");
    // 36 µA terminates fastest, 6 µA slowest — the per-run cost spread the
    // MC scheduler has to balance. Same rungs as oxbench's op ladder.
    for i_ua in [6.0f64, 10.0, 20.0, 36.0] {
        group.bench_with_input(BenchmarkId::from_parameter(i_ua), &i_ua, |bench, &i| {
            let cond = ResetConditions::paper_defaults(i * 1e-6);
            bench.iter(|| {
                black_box(simulate_reset_termination(&params, &inst, &cond).expect("terminates"))
            })
        });
    }
    group.finish();
}

fn bench_worst_case_reset(c: &mut Criterion) {
    let params = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    // The 60 µs open-loop standard RESET every termination saving is
    // measured against: the longest fixed-width pulse in the repo.
    c.bench_function("worst_case_reset_60us", |bench| {
        let cond = ResetConditions::paper_defaults(6e-6);
        bench.iter(|| {
            black_box(simulate_worst_case_reset(&params, &inst, &cond).expect("completes"))
        })
    });
}

fn bench_set(c: &mut Criterion) {
    let params = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    c.bench_function("set_pulse", |bench| {
        let cond = SetConditions::paper_defaults();
        bench.iter(|| black_box(simulate_set(&params, &inst, &cond).expect("completes")))
    });
}

fn bench_full_program(c: &mut Criterion) {
    let params = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let alloc = LevelAllocation::paper_qlc();
    let cond = ProgramConditions::paper();
    c.bench_function("program_cell_fast_code8", |bench| {
        bench.iter(|| {
            black_box(program_cell_fast(&params, &inst, &alloc, 8, &cond).expect("programs"))
        })
    });
}

criterion_group!(
    benches,
    bench_reset_termination,
    bench_worst_case_reset,
    bench_set,
    bench_full_program
);
criterion_main!(benches);
