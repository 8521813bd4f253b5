//! Per-layer probes for the traced run: the `rram` fast-path op ladder and
//! the `spice` circuit-level costs.
//!
//! Each probe first times public layer calls with every observer
//! disarmed, then installs the global `Telemetry` (once per process) and
//! repeats a fixed set of calls to read the layer's own work counters.

use crate::spans::{worker_id, Clock, Span, SpanLog, NO_CODE};
use crate::stats::median;
use crate::workloads::{fail, WORD_CELLS};
use oxterm_mlc::levels::LevelAllocation;
use oxterm_mlc::program::{
    program_cell_circuit, program_cell_fast, CircuitProgramOptions, ProgramConditions,
};
use oxterm_mlc::word::{program_word_circuit, WordProgramOptions};
use oxterm_rram::calib::{simulate_reset_termination, simulate_set, ResetConditions};
use oxterm_rram::params::{InstanceVariation, OxramParams};
use oxterm_telemetry::{JsonWriter, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Reference-current rungs of the nominal op ladder (µA).
const RUNGS_UA: [u32; 4] = [6, 10, 20, 36];
/// Codes timed for the single-cell circuit program.
const CELL_CODES: [u16; 4] = [0, 5, 10, 15];
/// Words timed (serially) for the per-word spice costs.
const SPICE_WORDS: usize = 6;

/// Times `f` until at least `budget_s` seconds and `min_reps` calls have
/// passed, recording one span per call; returns the median call time (µs).
fn time_calls<T>(
    clock: &Clock,
    spans: &SpanLog,
    name: &'static str,
    code: i64,
    budget_s: f64,
    min_reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let t_budget = Instant::now();
    let mut us = Vec::new();
    while us.len() < min_reps || t_budget.elapsed().as_secs_f64() < budget_s {
        let start_ns = clock.now_ns();
        std::hint::black_box(f());
        let end_ns = clock.now_ns();
        us.push((end_ns - start_ns) as f64 * 1e-3);
        let id = spans.id();
        spans.push(Span {
            id,
            parent: 0,
            op: id,
            name,
            start_ns,
            end_ns,
            worker: worker_id(),
            run: us.len() as u64 - 1,
            code,
        });
    }
    median(&us)
}

fn counter(report: &oxterm_telemetry::RunReport, name: &str) -> u64 {
    report.counter(name).unwrap_or(0)
}

/// The `rram` layer on a nominal op ladder: terminated RESET per rung,
/// SET, and the `program_cell_fast` call that wraps them.
pub fn ladder(trace_out: Option<&str>) -> String {
    let clock = Clock::start();
    let spans = SpanLog::new(trace_out.is_some());
    let params = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let alloc = LevelAllocation::paper_qlc();
    let cond = ProgramConditions::paper();
    let set = simulate_set(&params, &inst, &cond.set)
        .unwrap_or_else(|e| fail(&format!("nominal SET: {e}")));
    let level_of = |ua: u32| {
        alloc
            .levels()
            .iter()
            .copied()
            .find(|l| (l.i_ref * 1e6 - f64::from(ua)).abs() < 1e-6)
            .unwrap_or_else(|| fail(&format!("no QLC level at {ua} µA")))
    };
    // The RESET exactly as `program_cell_fast` runs it after the SET.
    let reset_cond = |ua: u32| ResetConditions {
        i_ref: level_of(ua).i_ref,
        rho_start: set.rho_final,
        ..cond.reset
    };
    let mut w = JsonWriter::new();
    w.begin_object();
    let set_us = time_calls(&clock, &spans, "rram.simulate_set", NO_CODE, 0.2, 5, || {
        simulate_set(&params, &inst, &cond.set)
    });
    w.f64("rram.set_us", set_us);
    let mut reset_us = Vec::new();
    let mut share = Vec::new();
    for ua in RUNGS_UA {
        let level = level_of(ua);
        let code = i64::from(level.code);
        let rc = reset_cond(ua);
        let r = time_calls(
            &clock,
            &spans,
            "rram.simulate_reset_termination",
            code,
            0.2,
            5,
            || simulate_reset_termination(&params, &inst, &rc),
        );
        let p = time_calls(
            &clock,
            &spans,
            "mlc.program_cell_fast",
            code,
            0.2,
            5,
            || program_cell_fast(&params, &inst, &alloc, level.code, &cond),
        );
        w.f64(&format!("rram.reset_us.{ua}ua"), r);
        reset_us.push(r);
        share.push((set_us + r) / p);
    }
    w.f64("rram.share_of_program", median(&share));

    // Work counts: one counted RESET per rung with telemetry armed.
    Telemetry::install(Telemetry::enabled());
    let tel = Telemetry::global();
    for (ua, r_us) in RUNGS_UA.iter().zip(&reset_us) {
        let before = tel.report();
        simulate_reset_termination(&params, &inst, &reset_cond(*ua))
            .unwrap_or_else(|e| fail(&format!("nominal RESET at {ua} µA: {e}")));
        let after = tel.report();
        let steps =
            counter(&after, "rram.termination.steps") - counter(&before, "rram.termination.steps");
        let runs =
            counter(&after, "rram.termination.runs") - counter(&before, "rram.termination.runs");
        let per_reset = steps as f64 / runs.max(1) as f64;
        w.f64(&format!("rram.steps_per_reset.{ua}ua"), per_reset);
        w.f64(&format!("rram.ns_per_step.{ua}ua"), r_us * 1e3 / per_reset);
    }
    write_spans(&spans, trace_out);
    w.end_object();
    w.finish()
}

/// The `spice` layer: single-cell circuit programs (small MNA) and
/// serial 8-cell word programs (the `word_rw` op), plus Newton/LU counts
/// per word.
pub fn spice(seed: u64, trace_out: Option<&str>) -> String {
    let clock = Clock::start();
    let spans = SpanLog::new(trace_out.is_some());
    let alloc = LevelAllocation::paper_qlc();
    let mut w = JsonWriter::new();
    w.begin_object();
    let cell_opts = CircuitProgramOptions::paper_fig10();
    let mut cell_us = Vec::new();
    for code in CELL_CODES {
        let i_ref = alloc.levels()[code as usize].i_ref;
        let us = time_calls(
            &clock,
            &spans,
            "mlc.program_cell_circuit",
            i64::from(code),
            0.3,
            3,
            || program_cell_circuit(&cell_opts, Some(i_ref)),
        );
        w.f64(&format!("spice.cell_circuit_ms.{code}"), us * 1e-3);
        cell_us.push(us);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let words: Vec<[u16; WORD_CELLS]> = (0..SPICE_WORDS)
        .map(|_| std::array::from_fn(|_| (rng.random::<u64>() % 16) as u16))
        .collect();
    let opts = WordProgramOptions::paper();
    let mut word_us = Vec::new();
    for codes in &words {
        word_us.push(time_calls(
            &clock,
            &spans,
            "mlc.program_word_circuit",
            NO_CODE,
            0.0,
            1,
            || program_word_circuit(codes, &alloc, &opts),
        ));
    }
    let cell_mean_us = cell_us.iter().sum::<f64>() / cell_us.len() as f64;
    w.f64(
        "spice.word_over_cell_cost",
        word_us.iter().sum::<f64>() / word_us.len() as f64 / cell_mean_us,
    );

    // Work counts: the same words again with telemetry armed.
    Telemetry::install(Telemetry::enabled());
    for codes in &words {
        program_word_circuit(codes, &alloc, &opts)
            .unwrap_or_else(|e| fail(&format!("word {codes:?}: {e}")));
    }
    let report = Telemetry::global().report();
    let iters = report
        .histogram("spice.newton.iterations")
        .map_or(0.0, |h| h.sum);
    let lu = counter(&report, "spice.newton.lu_dense") + counter(&report, "spice.newton.lu_sparse");
    let n = words.len() as f64;
    w.f64("spice.newton_iters_per_word", iters / n)
        .f64("spice.lu_per_word", lu as f64 / n)
        .f64(
            "spice.us_per_newton_iter",
            word_us.iter().sum::<f64>() / iters.max(1.0),
        );
    write_spans(&spans, trace_out);
    w.end_object();
    w.finish()
}

fn write_spans(spans: &SpanLog, trace_out: Option<&str>) {
    if let Some(path) = trace_out {
        spans
            .write(path)
            .unwrap_or_else(|e| fail(&format!("cannot write span file {path}: {e}")));
    }
}
