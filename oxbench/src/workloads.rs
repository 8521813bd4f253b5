//! The end-to-end workloads: the paper's QLC Monte Carlo campaign (bare
//! and observed) and circuit-level word write with read-back.
//!
//! Both are closed loops: the `mc` engine's cursor hands each of
//! `threads` workers its next op as soon as its last one returns. Each op
//! is timed from the call into the layer to its return.

use crate::spans::{worker_id, Clock, Span, SpanLog, NO_CODE};
use crate::stats::{beyond, median, peak_rss_mb, quantile, Digest};
use oxterm_mc::engine::MonteCarlo;
use oxterm_mc::sweep::sweep_mc_try;
use oxterm_mlc::levels::{LevelAllocation, LevelSpec};
use oxterm_mlc::margins::{analyze, LevelSamples};
use oxterm_mlc::program::{
    program_cell_fast, program_cell_mc, McVariability, ProgramConditions, ProgramOutcome,
};
use oxterm_mlc::read::MlcReader;
use oxterm_mlc::word::{program_word_circuit, WordProgramOptions};
use oxterm_rram::calib::CalibrationTarget;
use oxterm_rram::params::{InstanceVariation, OxramParams};
use oxterm_telemetry::joule::JouleLedger;
use oxterm_telemetry::{JsonWriter, LevelTracker, Profiler, Telemetry, Tracer};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Monte Carlo runs per level in one campaign: the paper's Fig 11–13 set.
const RUNS_PER_LEVEL: usize = 500;
/// Cells in one word (paper §4.2: 8 bit lines under one SL pulse).
pub const WORD_CELLS: usize = 8;
/// Words per `word_rw` repetition: enough that its p90 has 10 samples
/// beyond it.
const WORD_BATCH: usize = 100;

/// Which workload a process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QlcMc,
    QlcMcObserved,
    WordRw,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "qlc_mc" => Some(Workload::QlcMc),
            "qlc_mc_observed" => Some(Workload::QlcMcObserved),
            "word_rw" => Some(Workload::WordRw),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QlcMc => "qlc_mc",
            Workload::QlcMcObserved => "qlc_mc_observed",
            Workload::WordRw => "word_rw",
        }
    }
}

/// Command-line settings of one workload process.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    /// Where to write the span file; `None` runs untraced.
    pub trace_out: Option<String>,
    /// Stop once set-up is done and report only `setup_s`.
    pub setup_only: bool,
    /// An `oxterm_chaos` fault plan to arm (benchmark self-test only).
    pub chaos: Option<String>,
    /// Wall-clock ns (Unix epoch) at which the parent spawned this
    /// process; set-up time counts from there.
    pub t0_unix_ns: Option<u128>,
}

/// Everything built before the first timed op.
struct Setup {
    params: OxramParams,
    alloc: LevelAllocation,
    /// Nominal fast-path read resistance per code: the reference for
    /// `xval_max_abs_ln_ratio`.
    r_fast: Vec<f64>,
    /// Paper Table 2 resistance per code (Ω).
    r_table2: Vec<f64>,
    reader: Option<MlcReader>,
}

fn setup(s: &Settings) -> Setup {
    match &s.chaos {
        Some(spec) => {
            let plan = oxterm_chaos::FaultPlan::parse(spec)
                .unwrap_or_else(|e| fail(&format!("bad --chaos spec {spec:?}: {e}")));
            oxterm_chaos::arm(plan);
        }
        None => assert!(!oxterm_chaos::is_armed(), "chaos plan armed"),
    }
    if s.workload == Workload::QlcMcObserved {
        // The four observers repro_all and the figure binaries arm.
        Telemetry::install(Telemetry::enabled());
        Profiler::install(Profiler::enabled());
        LevelTracker::install(LevelTracker::enabled());
        JouleLedger::install(JouleLedger::enabled());
    } else {
        assert_all_disarmed();
    }
    let params = OxramParams::calibrated();
    let alloc = LevelAllocation::paper_qlc();
    let cond = ProgramConditions::paper();
    let r_fast = alloc
        .levels()
        .iter()
        .map(|l| {
            program_cell_fast(
                &params,
                &InstanceVariation::nominal(),
                &alloc,
                l.code,
                &cond,
            )
            .unwrap_or_else(|e| fail(&format!("nominal program of code {}: {e}", l.code)))
            .r_read_ohms
        })
        .collect();
    let table2 = CalibrationTarget::paper().allocation;
    let r_table2 = alloc
        .levels()
        .iter()
        .map(|l| {
            let i_ua = l.i_ref * 1e6;
            table2
                .iter()
                .find(|(i, _)| (i - i_ua).abs() < 1e-6)
                .map(|(_, r_kohm)| r_kohm * 1e3)
                .unwrap_or_else(|| fail(&format!("no Table 2 row at {i_ua} µA")))
        })
        .collect();
    let reader = (s.workload == Workload::WordRw)
        .then(|| MlcReader::from_allocation(&alloc, &params, WordProgramOptions::paper().v_read));
    Setup {
        params,
        alloc,
        r_fast,
        r_table2,
        reader,
    }
}

/// Bare workloads run with every process-global observer disarmed.
fn assert_all_disarmed() {
    assert!(!Telemetry::global().is_enabled(), "telemetry armed");
    assert!(!Profiler::global().is_enabled(), "profiler armed");
    assert!(!LevelTracker::global().is_enabled(), "level tracker armed");
    assert!(!JouleLedger::global().is_enabled(), "joule ledger armed");
    assert!(!Tracer::global().is_enabled(), "tracer armed");
    assert!(
        !oxterm_telemetry::postmortem::is_active(),
        "post-mortem capture armed"
    );
    assert!(
        !oxterm_telemetry::progress::enabled(),
        "progress reporter armed"
    );
}

pub fn fail(msg: &str) -> ! {
    eprintln!("oxbench: {msg}");
    std::process::exit(2);
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// A decorrelated per-repetition seed.
fn derive_seed(seed: u64, rep: u64) -> u64 {
    MonteCarlo::new(0, seed).seed_for_run(rep as usize)
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
struct OpRec {
    /// Index of the sweep point (level) the op ran in.
    point: usize,
    code: u16,
    worker: u64,
    start_ns: u64,
    end_ns: u64,
}

impl OpRec {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-3
    }
}

/// A named output check with what it measured.
struct Check {
    name: &'static str,
    pass: bool,
    detail: String,
}

/// The summary of one repetition: one paper-sized campaign (`qlc_*`) or
/// one batch of `WORD_BATCH` words (`word_rw`). A run reports the median
/// of each figure over its repetitions, so one repetition disturbed by
/// another process on the host does not move the result.
#[derive(Default)]
struct Rep {
    attempted: usize,
    failed: usize,
    cells: usize,
    wall_s: f64,
    op_n: usize,
    op_p50_us: f64,
    op_p90_us: f64,
    op_p99_us: f64,
    table2_max_rel_err: f64,
    xval_max_abs_ln_ratio: f64,
    busy_frac: f64,
    tail_idle_s: f64,
    /// Median op time per level code (`qlc_*` only).
    p50_by_code: Vec<f64>,
    /// Bits read back as another code, per bit written (`word_rw` only).
    readback_error_frac: f64,
    checks: Vec<Check>,
}

impl Rep {
    /// Fills the op-time and `mc` load-balance figures from the op log.
    /// `points` holds each sweep point's window (start, end).
    fn time_ops(&mut self, ops: &[OpRec], points: &[(u64, u64)], threads: usize) {
        let mut us: Vec<f64> = ops.iter().map(OpRec::us).collect();
        us.sort_by(f64::total_cmp);
        self.op_n = us.len();
        self.op_p50_us = quantile(&us, 0.50);
        self.op_p90_us = quantile(&us, 0.90);
        self.op_p99_us = quantile(&us, 0.99);
        self.busy_frac = us.iter().sum::<f64>() * 1e-6 / (threads as f64 * self.wall_s);
        // Worker seconds idle at each point's barrier: from a worker's last
        // op end to the point's end (a worker with no op idles throughout).
        let mut last_end: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        for op in ops {
            let e = last_end.entry((op.point, op.worker)).or_default();
            *e = (*e).max(op.end_ns);
        }
        let mut idle_ns = 0u64;
        for (p, &(start, end)) in points.iter().enumerate() {
            let lasts: Vec<u64> = last_end
                .range((p, 0)..=(p, u64::MAX))
                .map(|(_, &l)| l)
                .collect();
            let absent = threads.saturating_sub(lasts.len()) as u64;
            idle_ns +=
                lasts.iter().map(|&l| end.saturating_sub(l)).sum::<u64>() + absent * (end - start);
        }
        self.tail_idle_s = idle_ns as f64 * 1e-9;
    }

    /// Fills the Table 2 and cross-validation errors from the programmed
    /// resistances, grouped by code.
    fn level_errors(&mut self, r_by_code: &[Vec<f64>], su: &Setup) {
        for (code, r) in r_by_code.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
            let m = median(r);
            self.table2_max_rel_err = self
                .table2_max_rel_err
                .max((m / su.r_table2[code] - 1.0).abs());
            self.xval_max_abs_ln_ratio = self
                .xval_max_abs_ln_ratio
                .max((m / su.r_fast[code]).ln().abs());
        }
    }
}

/// Runs one workload process end to end and returns its JSON report.
pub fn run(s: &Settings) -> String {
    let t_main = Instant::now();
    let su = setup(s);
    let setup_s = match s.t0_unix_ns {
        Some(t0) => unix_ns().saturating_sub(t0) as f64 * 1e-9,
        None => t_main.elapsed().as_secs_f64(),
    };
    let mut w = JsonWriter::new();
    w.begin_object()
        .string("workload", s.workload.name())
        .u64("seed", s.seed)
        .u64("threads", s.threads as u64)
        .f64("setup_s", setup_s);
    if s.setup_only {
        w.end_object();
        return w.finish();
    }
    let clock = Clock::start();
    let spans = SpanLog::new(s.trace_out.is_some());
    let mut digest = Digest::new();
    let mut reps = Vec::new();
    let mut rss_mb = f64::NAN;
    let window = Instant::now();
    // At least one repetition; then repeat until the window has passed.
    while reps.is_empty() || window.elapsed().as_secs_f64() < s.seconds {
        let rep = reps.len() as u64;
        let d = (rep == 0).then_some(&mut digest);
        reps.push(match s.workload {
            Workload::QlcMc | Workload::QlcMcObserved => qlc_rep(s, &su, rep, &clock, &spans, d),
            Workload::WordRw => word_rep(s, &su, rep, &clock, &spans, d),
        });
        if rep == 0 {
            // Memory for a fixed amount of work: armed observers grow with
            // every campaign, so a faster build that fits more repetitions
            // into the window must not read as using more memory.
            rss_mb = peak_rss_mb();
        }
    }
    if let Some(path) = &s.trace_out {
        spans
            .write(path)
            .unwrap_or_else(|e| fail(&format!("cannot write span file {path}: {e}")));
    }
    report(&mut w, s, &reps, &digest, rss_mb);
    w.end_object();
    w.finish()
}

fn report(w: &mut JsonWriter, s: &Settings, reps: &[Rep], digest: &Digest, rss_mb: f64) {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&Rep) -> usize| reps.iter().map(f).sum::<usize>() as u64;
    let op_n = reps.iter().map(|r| r.op_n).min().unwrap_or(0);
    w.u64("reps", reps.len() as u64)
        .u64("attempted", sum(&|r| r.attempted))
        .u64("failed", sum(&|r| r.failed))
        .u64("cells", sum(&|r| r.cells))
        .f64("wall_s", reps.iter().map(|r| r.wall_s).sum())
        .f64("cells_per_s", med(&|r| r.cells as f64 / r.wall_s))
        .u64("op_n_per_rep", op_n as u64)
        .f64("op_p50_us", med(&|r| r.op_p50_us))
        .f64("op_p90_us", med(&|r| r.op_p90_us))
        .f64("op_p99_us", med(&|r| r.op_p99_us))
        .u64("op_beyond_p90_per_rep", beyond(op_n, 0.90) as u64)
        .u64("op_beyond_p99_per_rep", beyond(op_n, 0.99) as u64)
        .f64("peak_rss_mb", rss_mb)
        .f64("table2_max_rel_err", med(&|r| r.table2_max_rel_err))
        .f64("xval_max_abs_ln_ratio", med(&|r| r.xval_max_abs_ln_ratio))
        .string("digest", &digest.hex())
        .f64("mc_worker_busy_frac", med(&|r| r.busy_frac))
        .f64("mc_point_tail_idle_s", med(&|r| r.tail_idle_s));
    if s.workload == Workload::WordRw {
        w.f64("readback_error_frac", med(&|r| r.readback_error_frac));
    } else {
        // Per-code median op time: which level a change helps or costs.
        w.begin_object_key("op_p50_us_by_code");
        for code in 0..reps[0].p50_by_code.len() {
            w.f64(&code.to_string(), med(&|r| r.p50_by_code[code]));
        }
        w.end_object();
    }
    // A check passes when it passes in every repetition; the detail shown
    // is from the first repetition that failed it, else from the first.
    w.begin_object_key("checks");
    let mut correct = true;
    for (k, first) in reps[0].checks.iter().enumerate() {
        let failing = reps.iter().map(|r| &r.checks[k]).find(|c| !c.pass);
        let shown = failing.unwrap_or(first);
        correct &= failing.is_none();
        w.begin_object_key(first.name)
            .bool("pass", failing.is_none())
            .string("detail", &shown.detail)
            .end_object();
    }
    w.end_object();
    w.bool("correct", correct);
}

/// The root span of one repetition.
fn root_span(spans: &SpanLog, id: u64, name: &'static str, start_ns: u64, end_ns: u64, run: u64) {
    spans.push(Span {
        id,
        parent: 0,
        op: id,
        name,
        start_ns,
        end_ns,
        worker: worker_id(),
        run,
        code: NO_CODE,
    });
}

/// Each point's window (first op start, last op end) over `n_points`.
fn point_windows(ops: &[OpRec], n_points: usize) -> Vec<(u64, u64)> {
    let mut w = vec![(u64::MAX, 0u64); n_points];
    for op in ops {
        let p = &mut w[op.point];
        *p = (p.0.min(op.start_ns), p.1.max(op.end_ns));
    }
    w.into_iter().map(|(a, b)| (a.min(b), b)).collect()
}

/// `qlc_*`: one paper-sized campaign — 500 runs at each of the 16 ISO-ΔI
/// levels through `sweep_mc_try`, as `mc_campaign` runs it.
fn qlc_rep(
    s: &Settings,
    su: &Setup,
    rep: u64,
    clock: &Clock,
    spans: &SpanLog,
    digest: Option<&mut Digest>,
) -> Rep {
    let cond = ProgramConditions::paper();
    let var = McVariability::default();
    let levels: Vec<LevelSpec> = su.alloc.levels().to_vec();
    let ops = Mutex::new(Vec::<OpRec>::with_capacity(levels.len() * RUNS_PER_LEVEL));
    let campaign =
        MonteCarlo::new(RUNS_PER_LEVEL, derive_seed(s.seed, rep)).with_threads(s.threads);
    let root = spans.id();
    let t0 = clock.now_ns();
    let results = sweep_mc_try(&levels, campaign, |spec, i, rng| {
        let start_ns = clock.now_ns();
        let out = program_cell_mc(&su.params, &su.alloc, spec.code, &cond, &var, rng);
        let end_ns = clock.now_ns();
        // What `mc_campaign` feeds on success (one branch when disarmed).
        if let Ok(o) = &out {
            LevelTracker::global().observe(spec.code, spec.i_ref, o.r_read_ohms);
            JouleLedger::global().observe_level(spec.code, spec.i_ref, o.energy_j, o.latency_s);
        }
        let worker = worker_id();
        if spans.is_on() {
            let id = spans.id();
            spans.push(Span {
                id,
                parent: root,
                op: id,
                name: "mlc.program_cell_mc",
                start_ns,
                end_ns,
                worker,
                run: i as u64,
                code: i64::from(spec.code),
            });
        }
        ops.lock().expect("op log poisoned").push(OpRec {
            point: usize::from(spec.code),
            code: spec.code,
            worker,
            start_ns,
            end_ns,
        });
        out
    });
    let t1 = clock.now_ns();
    root_span(spans, root, "mc.sweep_mc_try", t0, t1, rep);
    let ops = ops.into_inner().expect("op log poisoned");

    let mut r = Rep {
        wall_s: (t1 - t0) as f64 * 1e-9,
        ..Rep::default()
    };
    r.time_ops(&ops, &point_windows(&ops, levels.len()), s.threads);
    let mut by_code = vec![Vec::new(); levels.len()];
    for op in &ops {
        by_code[usize::from(op.code)].push(op.us());
    }
    r.p50_by_code = by_code.iter().map(|v| median(v)).collect();

    let mut samples = Vec::with_capacity(levels.len());
    let (mut e_sum, mut l_sum) = (0.0, 0.0);
    let mut digest = digest;
    for (spec, runs) in results {
        r.attempted += runs.len();
        let ok: Vec<ProgramOutcome> = runs.into_iter().filter_map(Result::ok).collect();
        r.cells += ok.len();
        for o in &ok {
            e_sum += o.energy_j;
            l_sum += o.latency_s;
            if let Some(d) = digest.as_deref_mut() {
                d.f64(o.r_read_ohms);
                d.f64(o.latency_s);
                d.f64(o.energy_j);
            }
        }
        samples.push(LevelSamples {
            code: spec.code,
            i_ref: spec.i_ref,
            r: ok.iter().map(|o| o.r_read_ohms).collect(),
        });
    }
    r.failed = r.attempted - r.cells;
    let r_by_code: Vec<Vec<f64>> = samples.iter().map(|l| l.r.clone()).collect();
    r.level_errors(&r_by_code, su);

    // The bands repro_all checks: Table 2 within 6 %, Fig 11 without
    // overlap (worst-case margin above 1 kΩ), Fig 13 mean RESET energy and
    // latency in 15–60 pJ and 0.8–2.5 µs.
    r.checks.push(Check {
        name: "table2_within_6pct",
        pass: r.table2_max_rel_err < 0.06,
        detail: format!(
            "campaign {rep}: max |median/Table2 - 1| = {:.4}",
            r.table2_max_rel_err
        ),
    });
    let (pass, detail) = match analyze(&samples) {
        Ok(m) => (
            !m.has_overlap() && m.worst_case_margin() > 1e3,
            format!(
                "campaign {rep}: worst-case margin {:.0} Ω",
                m.worst_case_margin()
            ),
        ),
        Err(e) => (false, format!("campaign {rep}: {e}")),
    };
    r.checks.push(Check {
        name: "fig11_no_overlap",
        pass,
        detail,
    });
    let n = r.cells.max(1) as f64;
    let (e_mean, l_mean) = (e_sum / n, l_sum / n);
    r.checks.push(Check {
        name: "fig13_energy_latency",
        pass: (15e-12..60e-12).contains(&e_mean) && (0.8e-6..2.5e-6).contains(&l_mean),
        detail: format!(
            "campaign {rep}: mean {:.2} pJ / {:.3} µs",
            e_mean * 1e12,
            l_mean * 1e6
        ),
    });
    r
}

/// `word_rw`: one batch of `WORD_BATCH` circuit-level 8-cell word writes,
/// each read back bit by bit.
fn word_rep(
    s: &Settings,
    su: &Setup,
    rep: u64,
    clock: &Clock,
    spans: &SpanLog,
    digest: Option<&mut Digest>,
) -> Rep {
    let reader = su.reader.as_ref().expect("word_rw set-up builds a reader");
    let opts = WordProgramOptions::paper();
    let n_levels = su.alloc.n_levels();
    let ops = Mutex::new(Vec::<OpRec>::with_capacity(WORD_BATCH));
    let campaign = MonteCarlo::new(WORD_BATCH, derive_seed(s.seed, rep)).with_threads(s.threads);
    let root = spans.id();
    let t0 = clock.now_ns();
    let results = campaign.try_run(|i, rng| {
        let codes: [u16; WORD_CELLS] =
            std::array::from_fn(|_| (rng.random::<u64>() % n_levels as u64) as u16);
        let op = spans.id();
        let start_ns = clock.now_ns();
        let written = program_word_circuit(&codes, &su.alloc, &opts);
        let mid_ns = clock.now_ns();
        let rec = written.map(|out| {
            let reads: [u16; WORD_CELLS] =
                std::array::from_fn(|b| reader.classify_resistance(out.r_read_ohms[b]));
            (codes, out, reads)
        });
        let end_ns = clock.now_ns();
        let worker = worker_id();
        if spans.is_on() {
            let run = rep * WORD_BATCH as u64 + i as u64;
            let span = |id, parent, name, start_ns, end_ns| Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
                worker,
                run,
                code: NO_CODE,
            };
            spans.push(span(op, root, "bench.word_op", start_ns, end_ns));
            spans.push(span(
                spans.id(),
                op,
                "mlc.program_word_circuit",
                start_ns,
                mid_ns,
            ));
            spans.push(span(
                spans.id(),
                op,
                "mlc.classify_resistance",
                mid_ns,
                end_ns,
            ));
        }
        ops.lock().expect("op log poisoned").push(OpRec {
            point: 0,
            code: 0,
            worker,
            start_ns,
            end_ns,
        });
        rec
    });
    let t1 = clock.now_ns();
    root_span(spans, root, "mc.try_run", t0, t1, rep);
    let ops = ops.into_inner().expect("op log poisoned");

    let mut r = Rep {
        wall_s: (t1 - t0) as f64 * 1e-9,
        attempted: results.len(),
        ..Rep::default()
    };
    r.time_ops(&ops, &[(t0, t1)], s.threads);
    let (mut misread, mut far, mut unfired) = (0usize, 0usize, 0usize);
    let mut r_by_code = vec![Vec::new(); n_levels];
    let mut digest = digest;
    for (codes, out, reads) in results.iter().filter_map(|r| r.as_ref().ok()) {
        for b in 0..WORD_CELLS {
            let (code, ohms) = (codes[b], out.r_read_ohms[b]);
            r.cells += 1;
            misread += usize::from(reads[b] != code);
            far += usize::from(reads[b].abs_diff(code) > 1);
            unfired += usize::from(out.latencies[b].is_none());
            r_by_code[usize::from(code)].push(ohms);
            if let Some(d) = digest.as_deref_mut() {
                d.word(u64::from(code));
                d.f64(ohms);
            }
        }
    }
    r.failed = results.iter().filter(|r| r.is_err()).count();
    r.level_errors(&r_by_code, su);
    r.readback_error_frac = misread as f64 / r.cells.max(1) as f64;
    r.checks.push(Check {
        name: "word_terminations_fire",
        pass: unfired == 0 && r.cells > 0,
        detail: format!(
            "batch {rep}: {unfired} of {} bits never terminated",
            r.cells
        ),
    });
    r.checks.push(Check {
        name: "word_readback_within_1_level",
        pass: far == 0 && r.cells > 0,
        detail: format!(
            "batch {rep}: {far} of {} bits read back > 1 level off, {misread} one level off",
            r.cells
        ),
    });
    r
}
