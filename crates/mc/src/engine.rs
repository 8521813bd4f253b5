//! Deterministic parallel Monte Carlo runner.

use oxterm_telemetry::postmortem::{self, PostmortemReport};
use oxterm_telemetry::profiler::monotonic_ns;
use oxterm_telemetry::{Arg, PhaseId, Profiler, Telemetry, Tracer, Track};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::progress::CampaignProgress;

/// How one fallible Monte Carlo run failed.
///
/// [`MonteCarlo::try_run`] isolates worker panics with
/// `std::panic::catch_unwind`, so a panicking run becomes one
/// [`RunError::Panic`] result instead of aborting the whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError<E> {
    /// The run closure returned an error.
    Run(E),
    /// The run closure panicked; the payload rendered as a string.
    Panic(String),
}

impl<E: std::fmt::Display> std::fmt::Display for RunError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Run(e) => e.fmt(f),
            RunError::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for RunError<E> {}

/// Renders a `catch_unwind` payload as a string (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A Monte Carlo campaign: `runs` independent evaluations of a closure.
///
/// Every run gets a private RNG seeded from `(seed, run_index)` through a
/// SplitMix64 mix, so results are bit-identical regardless of thread count
/// or scheduling — a hard requirement for reproducible experiment tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarlo {
    /// Number of runs.
    pub runs: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
}

impl MonteCarlo {
    /// Creates a campaign with automatic thread count.
    pub fn new(runs: usize, seed: u64) -> Self {
        MonteCarlo {
            runs,
            seed,
            threads: None,
        }
    }

    /// Forces a specific worker count (1 = serial).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// The derived 64-bit seed of run `run_index` — what
    /// [`MonteCarlo::rng_for_run`] feeds to `seed_from_u64`. Telemetry
    /// failure notes quote this value so a single run can be replayed with
    /// `StdRng::seed_from_u64(seed)` outside the campaign.
    pub fn seed_for_run(&self, run_index: usize) -> u64 {
        splitmix64(self.seed ^ (run_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The per-run RNG for `run_index` (public so sequential code can
    /// reproduce a single run of interest).
    pub fn rng_for_run(&self, run_index: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed_for_run(run_index))
    }

    /// Executes the campaign, returning one result per run (in run order).
    ///
    /// Work is distributed dynamically (an atomic cursor), so uneven
    /// per-run cost — low-reference-current RESETs take longest — balances
    /// across workers.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        // One global-handle lookup per campaign; the per-run timing path
        // only exists when telemetry, tracing or progress was turned on, so
        // a disabled build pays a single branch per run.
        let tel = Telemetry::global();
        tel.incr("mc.engine.campaigns");
        tel.add("mc.engine.runs", self.runs as u64);
        let campaign_span = tel.span("mc.engine.campaign_seconds");
        let prof = Profiler::global();
        let _campaign = prof.phase(PhaseId::McCampaign);
        let h_run = tel.histogram("mc.engine.run_seconds");
        let h_busy = tel.histogram("mc.engine.worker_busy_seconds");

        let threads = self.resolved_threads().min(self.runs.max(1));
        let tracer = Tracer::global().clone();
        let mut trace_campaign = tracer.span(Track::Mc, "campaign");
        trace_campaign.arg(Arg::u64("runs", self.runs as u64));
        trace_campaign.arg(Arg::u64("seed", self.seed));
        trace_campaign.arg(Arg::u64("threads", threads as u64));
        let progress = CampaignProgress::start(self.runs, threads);
        let timed = h_run.is_some() || progress.is_enabled();

        if threads <= 1 {
            let out = (0..self.runs)
                .map(|i| {
                    let mut rng = self.rng_for_run(i);
                    let mut run_span = tracer.span(Track::McWorker(0), "run");
                    run_span.arg(Arg::u64("run", i as u64));
                    let _run_phase = prof.phase(PhaseId::McWorkerRun);
                    if timed {
                        let t0 = monotonic_ns();
                        let value = f(i, &mut rng);
                        let dt = monotonic_ns().wrapping_sub(t0) as f64 * 1e-9;
                        if let Some(h) = &h_run {
                            h.record(dt);
                        }
                        progress.tick(dt);
                        value
                    } else {
                        f(i, &mut rng)
                    }
                })
                .collect();
            progress.finish();
            campaign_span.finish();
            return out;
        }
        let mut slots: Vec<Option<T>> = Vec::with_capacity(self.runs);
        slots.resize_with(self.runs, || None);
        let slots = Mutex::new(&mut slots);
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..threads {
                // Shared state is captured by reference; only the worker
                // index moves into the closure (it names the trace track).
                let f = &f;
                let (tracer, progress) = (&tracer, &progress);
                let (h_run, h_busy) = (&h_run, &h_busy);
                let (slots, cursor) = (&slots, &cursor);
                scope.spawn(move || {
                    let mut busy = 0.0f64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= self.runs {
                            break;
                        }
                        let mut rng = self.rng_for_run(i);
                        let mut run_span = tracer.span(Track::McWorker(w as u16), "run");
                        run_span.arg(Arg::u64("run", i as u64));
                        let _run_phase = prof.phase(PhaseId::McWorkerRun);
                        let value = if timed {
                            let t0 = monotonic_ns();
                            let value = f(i, &mut rng);
                            let dt = monotonic_ns().wrapping_sub(t0) as f64 * 1e-9;
                            if let Some(h) = h_run {
                                h.record(dt);
                            }
                            busy += dt;
                            progress.tick(dt);
                            value
                        } else {
                            f(i, &mut rng)
                        };
                        drop(run_span);
                        slots.lock()[i] = Some(value);
                    }
                    if let Some(h) = h_busy {
                        h.record(busy);
                    }
                });
            }
        });
        progress.finish();
        campaign_span.finish();
        slots
            .into_inner()
            .iter_mut()
            .map(|s| s.take().expect("every slot filled"))
            .collect()
    }

    /// Like [`MonteCarlo::run`] for fallible per-run closures.
    ///
    /// Failed runs are returned in place (the output is in run order, one
    /// `Result` per run) and recorded in telemetry: the
    /// `mc.engine.convergence_failures` counter and one
    /// `mc.engine.failed_run` note per failure carrying the run index and
    /// derived seed, so any failing run can be replayed in isolation.
    ///
    /// When post-mortem capture is active
    /// ([`oxterm_telemetry::postmortem::is_active`]), every failed run also
    /// produces one artifact bundle: the solver-level diagnostics the run
    /// stashed (residual history, worst-residual unknowns, timestep tail,
    /// probe tails) enriched with the run index and derived replay seed —
    /// or a minimal `mc_run` bundle for failures that never reached a
    /// solver. Artifact paths flow into the live progress line and into
    /// the telemetry run report.
    ///
    /// Worker panics are isolated: the closure runs under
    /// `std::panic::catch_unwind`, so a panicking run yields one
    /// [`RunError::Panic`] result (payload as the error string) plus a
    /// post-mortem bundle, and every other run completes normally. Each
    /// run is also bracketed for `oxterm-chaos` fault injection (inert
    /// unless a plan is armed).
    pub fn try_run<T, E, F>(&self, f: F) -> Vec<Result<T, RunError<E>>>
    where
        T: Send,
        E: Send + std::fmt::Display,
        F: Fn(usize, &mut StdRng) -> Result<T, E> + Sync,
    {
        // The wrapper feeds the live progress line its failure count the
        // moment a run errors; the closure stays opaque to `run` otherwise.
        let out = self.run(|i, rng| {
            let diag = postmortem::is_active();
            if diag {
                // Drain any stale report a previous (recovered) run left
                // on this worker thread.
                let _ = postmortem::take_last();
            }
            oxterm_chaos::begin_run(i as u64);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::Panic) {
                    Telemetry::global().incr("chaos.injected.panic");
                    panic!("chaos: injected worker panic (run {i})");
                }
                f(i, rng)
            }));
            oxterm_chaos::end_run();
            let r = match caught {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(e)) => Err(RunError::Run(e)),
                Err(payload) => Err(RunError::Panic(panic_message(payload))),
            };
            if let Err(e) = &r {
                let seed = self.seed_for_run(i);
                let artifact = if diag {
                    self.bundle_failure(i, seed, &e.to_string())
                } else {
                    None
                };
                crate::progress::note_failure(seed, artifact);
            }
            r
        });
        let tel = Telemetry::global();
        let tracer = Tracer::global();
        if tel.is_enabled() || tracer.is_enabled() {
            for (i, r) in out.iter().enumerate() {
                if let Err(e) = r {
                    if tel.is_enabled() {
                        tel.incr("mc.engine.convergence_failures");
                        if matches!(e, RunError::Panic(_)) {
                            tel.incr("mc.engine.panicked_runs");
                        }
                        tel.note(
                            "mc.engine.failed_run",
                            format!("run {i} seed {:#018x}: {e}", self.seed_for_run(i)),
                        );
                    }
                    tracer.instant(
                        Track::Mc,
                        "run_failed",
                        &[
                            Arg::u64("run", i as u64),
                            Arg::u64("seed", self.seed_for_run(i)),
                        ],
                    );
                }
            }
        }
        out
    }

    /// Turns one failed run's stashed solver diagnostics (or nothing, for
    /// failures that never reached a solver) into a post-mortem artifact
    /// carrying the run index and replay seed. Returns the artifact path
    /// if one was written.
    fn bundle_failure(&self, run_index: usize, seed: u64, error: &str) -> Option<String> {
        let mut report = postmortem::take_last()
            .unwrap_or_else(|| PostmortemReport::new("mc_run", error.to_string()));
        report.run_index = Some(run_index as u64);
        report.seed = Some(seed);
        if report.error.is_empty() {
            report.error = error.to_string();
        }
        // A solver-terminal site may already have written this report to
        // disk; rewrite the same file with the run/seed enrichment rather
        // than producing a second artifact for the same failure.
        match report.artifact_path.clone() {
            Some(path) => postmortem::write_at(&path, &report),
            None => postmortem::write_report(&mut report),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn parallel_matches_serial_exactly() {
        let campaign = MonteCarlo::new(200, 7);
        let serial: Vec<f64> = campaign.with_threads(1).run(|_, rng| rng.random::<f64>());
        let parallel: Vec<f64> = campaign.with_threads(8).run(|_, rng| rng.random::<f64>());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_indices_are_passed_in_order() {
        let campaign = MonteCarlo::new(50, 1).with_threads(4);
        let idx: Vec<usize> = campaign.run(|i, _| i);
        assert_eq!(idx, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn different_runs_get_different_randomness() {
        let campaign = MonteCarlo::new(100, 3);
        let vals: Vec<u64> = campaign.run(|_, rng| rng.random::<u64>());
        let mut dedup = vals.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), vals.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<u64> = MonteCarlo::new(10, 1).run(|_, rng| rng.random());
        let b: Vec<u64> = MonteCarlo::new(10, 2).run(|_, rng| rng.random());
        assert_ne!(a, b);
    }

    #[test]
    fn zero_runs_is_fine() {
        let out: Vec<u8> = MonteCarlo::new(0, 1).run(|_, _| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn try_run_keeps_failures_in_place() {
        let campaign = MonteCarlo::new(20, 5).with_threads(4);
        let out: Vec<Result<usize, RunError<String>>> = campaign.try_run(|i, _| {
            if i % 3 == 0 {
                Err(format!("no convergence in run {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(out.len(), 20);
        for (i, r) in out.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(
                    *r.as_ref().unwrap_err(),
                    RunError::Run(format!("no convergence in run {i}"))
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn panicking_run_is_isolated_to_one_failure() {
        // Regression: a panic inside one worker closure must become a
        // single failed-run result, not poison or abort the campaign.
        let campaign = MonteCarlo::new(30, 5).with_threads(4);
        let out: Vec<Result<usize, RunError<String>>> = campaign.try_run(|i, _| {
            if i == 13 {
                panic!("deliberate panic in run {i}");
            }
            Ok(i)
        });
        assert_eq!(out.len(), 30);
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                match r {
                    Err(RunError::Panic(msg)) => {
                        assert!(msg.contains("deliberate panic in run 13"), "{msg}");
                    }
                    other => panic!("expected Panic error, got {other:?}"),
                }
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn panic_payload_rendering() {
        let campaign = MonteCarlo::new(1, 0).with_threads(1);
        let out: Vec<Result<(), RunError<String>>> =
            campaign.try_run(|_, _| -> Result<(), String> {
                std::panic::panic_any(String::from("owned payload"));
            });
        match &out[0] {
            Err(RunError::Panic(msg)) => assert_eq!(msg, "owned payload"),
            other => panic!("expected Panic, got {other:?}"),
        }
    }

    #[test]
    fn seed_for_run_matches_rng_for_run() {
        let campaign = MonteCarlo::new(4, 11);
        let mut direct = StdRng::seed_from_u64(campaign.seed_for_run(2));
        let mut via = campaign.rng_for_run(2);
        assert_eq!(direct.random::<u64>(), via.random::<u64>());
    }

    #[test]
    fn single_run_reproducible_via_rng_for_run() {
        let campaign = MonteCarlo::new(100, 9);
        let all: Vec<u64> = campaign.run(|_, rng| rng.random());
        let mut rng = campaign.rng_for_run(42);
        assert_eq!(all[42], rng.random::<u64>());
    }
}
