//! Shared `--telemetry`, `--trace` and `--progress` handling for the
//! experiment binaries.
//!
//! Usage in a `src/bin/` target:
//!
//! ```ignore
//! let (args, tel_cli) = telemetry_cli::init("fig11")?;
//! let runs = telemetry_cli::count_arg("fig11", &args, 500)?;
//! // ... experiment ...
//! tel_cli.finish();
//! ```
//!
//! `init` installs the enabled process-global [`Telemetry`] and/or
//! [`Tracer`] when the flags are present (it must run before any
//! instrumented work) and strips the flags from the argument list so
//! positional arguments keep their meaning. Once the binary has stripped
//! its own flags too, [`count_arg`] reads the one optional count and
//! rejects anything else left over ([`no_args`] does the same for
//! binaries without a count). `finish` prints the run report and writes
//! the requested artifacts.
//!
//! Flags:
//!
//! * `--telemetry[=json[:PATH]]` — print the ASCII run report at exit;
//!   `=json` also writes it to `PATH` (default
//!   `results/telemetry_<name>.json`).
//! * `--trace[=PATH]` — record a flight-recorder trace and write Chrome
//!   trace-event JSON to `PATH` (default `results/trace_<name>.json`; open
//!   it at <https://ui.perfetto.dev>), plus an ASCII timeline on stdout.
//! * `--progress` — live Monte Carlo campaign status lines on stderr.
//! * `--probes[=SPEC]` — capture the named node voltages / branch currents
//!   during the experiment's transients (comma list, e.g.
//!   `v(sl),v(bl_sense),i(vsense)`; the bare flag uses the binary's default
//!   spec). Each probe is written to `results/probe_<name>_<label>.csv`,
//!   and with `--trace` the probes additionally appear as Perfetto counter
//!   tracks in the trace file.
//! * `--artifacts-dir[=PATH]` — write a post-mortem JSON bundle for every
//!   Newton/op/transient non-convergence and every failed Monte Carlo run
//!   (default directory `results/artifacts_<name>`).
//! * `--chaos=SPEC` — arm deterministic fault injection for the binary's
//!   Monte Carlo campaigns (e.g.
//!   `newton_stall:p=0.02,nan_stamp:p=0.005,panic:p=0.001,slow_step:p=0.01`,
//!   optional `seed=N` entry). The campaigns run unchanged; a run the plan
//!   hits fails and leaves a hole in its level.
//! * `--profile[=PATH]` — arm the hierarchical phase profiler; at exit,
//!   print the hot-path attribution (ASCII phase tree + matrix stats) and
//!   write the JSON report to `PATH` (default
//!   `results/hotpath_<name>.json`). The per-phase totals are also folded
//!   into the telemetry registry as `profile.*` counters.
//!
//! No flag takes an empty value: `--trace=` or `--telemetry=json:` is a
//! config error naming the flag, so a run can never finish and then fail
//! to write the artifact it was asked for.

use crate::hotpath::{HotPathReport, MatrixStats};
use oxterm_spice::probe::{ProbeCapture, ProbePlan};
use oxterm_telemetry::{
    PhaseGuard, PhaseId, Profiler, Telemetry, TraceSnapshot, TraceSpan, Tracer, Track,
};

/// A configuration error the binary should exit on (library code here
/// never calls `std::process::exit` — `cargo xtask lint` bans it outside
/// `src/bin`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable cause, ready for stderr.
    pub message: String,
    /// Suggested process exit code.
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    fn config(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }
}

/// How the binary was asked to report telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No flag: telemetry stays disabled (zero-overhead path).
    #[default]
    Off,
    /// `--telemetry`: print the ASCII report at exit.
    Table,
    /// `--telemetry=json[:PATH]`: print the report and write the JSON file
    /// (to `PATH` when given, else `results/telemetry_<name>.json`).
    Json {
        /// Explicit output path, if one was supplied after the colon.
        path: Option<String>,
    },
}

/// Flags recognised by [`init_from`], split from the positional arguments.
///
/// Pure parse result — applying the side effects (installing the global
/// handles) is [`init_from`]'s job, so tests can exercise the grammar
/// without mutating process state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedFlags {
    /// Telemetry reporting mode.
    pub mode: TelemetryMode,
    /// `Some(explicit_path)` when `--trace[=PATH]` was present.
    pub trace: Option<Option<String>>,
    /// Whether `--progress` was present.
    pub progress: bool,
    /// `Some(explicit_spec)` when `--probes[=SPEC]` was present (`None`
    /// inside means "use the binary's default spec").
    pub probes: Option<Option<String>>,
    /// `Some(explicit_dir)` when `--artifacts-dir[=PATH]` was present.
    pub artifacts_dir: Option<Option<String>>,
    /// The raw `--chaos=SPEC` string, if present (validated at `init`).
    pub chaos: Option<String>,
    /// `Some(explicit_json_path)` when `--profile[=PATH]` was present
    /// (`None` inside means the default `results/hotpath_<name>.json`).
    pub profile: Option<Option<String>>,
    /// Remaining (positional) arguments, in order.
    pub rest: Vec<String>,
}

/// Splits recognised flags from positional arguments without side effects.
///
/// Any `--flag=` or `--telemetry=json:` with nothing after the separator
/// is a config error naming the flag — including flags parsed later by
/// the binary itself (`repro_all --bench-history=`) or by no one.
pub fn parse_flags(
    name: &str,
    args: impl Iterator<Item = String>,
) -> Result<ParsedFlags, CliError> {
    let mut parsed = ParsedFlags::default();
    for a in args {
        if a.starts_with("--") && (a.ends_with('=') || a == "--telemetry=json:") {
            return Err(CliError::config(format!(
                "{name}: {a:?} needs a value after the separator"
            )));
        }
        if a == "--telemetry" {
            parsed.mode = TelemetryMode::Table;
        } else if a == "--telemetry=json" {
            parsed.mode = TelemetryMode::Json { path: None };
        } else if let Some(path) = a.strip_prefix("--telemetry=json:") {
            parsed.mode = TelemetryMode::Json {
                path: Some(path.to_string()),
            };
        } else if a == "--trace" {
            parsed.trace = Some(None);
        } else if let Some(path) = a.strip_prefix("--trace=") {
            parsed.trace = Some(Some(path.to_string()));
        } else if a == "--progress" {
            parsed.progress = true;
        } else if a == "--probes" {
            parsed.probes = Some(None);
        } else if let Some(spec) = a.strip_prefix("--probes=") {
            parsed.probes = Some(Some(spec.to_string()));
        } else if a == "--artifacts-dir" {
            parsed.artifacts_dir = Some(None);
        } else if let Some(dir) = a.strip_prefix("--artifacts-dir=") {
            parsed.artifacts_dir = Some(Some(dir.to_string()));
        } else if let Some(spec) = a.strip_prefix("--chaos=") {
            parsed.chaos = Some(spec.to_string());
        } else if a == "--profile" {
            parsed.profile = Some(None);
        } else if let Some(path) = a.strip_prefix("--profile=") {
            parsed.profile = Some(Some(path.to_string()));
        } else {
            parsed.rest.push(a);
        }
    }
    Ok(parsed)
}

/// The leading positional count (runs, samples, ...) of a binary whose
/// flags have all been stripped from `args`, or `default` when there is
/// none.
///
/// A leftover `--`-prefixed argument is a flag no one recognised, an
/// unparseable count is a typo and a second positional is one too many:
/// all are config errors naming the argument, so a misspelled
/// `--chaos` can never quietly run the default campaign.
pub fn count_arg(name: &str, args: &[String], default: usize) -> Result<usize, CliError> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(CliError::config(format!("{name}: unknown flag {flag:?}")));
    }
    if let Some(extra) = args.get(1) {
        return Err(CliError::config(format!(
            "{name}: unexpected argument {extra:?}"
        )));
    }
    match args.first() {
        None => Ok(default),
        Some(count) => count.parse().map_err(|_| {
            CliError::config(format!(
                "{name}: bad count {count:?} (expected a non-negative integer)"
            ))
        }),
    }
}

/// [`count_arg`]'s rules for a binary that takes no positional argument:
/// an unknown flag or a stray positional is a config error naming it.
pub fn no_args(name: &str, args: &[String]) -> Result<(), CliError> {
    count_arg(name, args, 0)?;
    match args.first() {
        None => Ok(()),
        Some(arg) => Err(CliError::config(format!(
            "{name}: unexpected argument {arg:?} (takes no positional arguments)"
        ))),
    }
}

/// Parsed telemetry CLI state; call [`TelemetryCli::finish`] at exit.
#[derive(Debug)]
pub struct TelemetryCli {
    mode: TelemetryMode,
    /// Trace output path (resolved; `None` when tracing is off).
    trace_to: Option<String>,
    name: &'static str,
    /// The `--probes[=SPEC]` request, if present.
    probes: Option<Option<String>>,
    /// Probe captures handed back by the experiment (CSV + counter-track
    /// emission happens in [`TelemetryCli::finish`]).
    captures: Vec<ProbeCapture>,
    /// Whole-binary span on the bench track, opened at `init` so every
    /// trace has at least one lane framing the run.
    bench_span: TraceSpan,
    /// Hot-path JSON output path when `--profile[=PATH]` armed the
    /// profiler (`None` = profiling off).
    profile_to: Option<String>,
    /// Whole-binary `bench/run` phase, opened at `init` so the profile
    /// tree always has its root; closed just before the snapshot.
    run_phase: Option<PhaseGuard>,
    /// Structural stats of the run's representative circuit, handed in by
    /// the binary via [`TelemetryCli::record_matrix_stats`].
    matrix: Option<MatrixStats>,
}

/// Parses `std::env::args`, installs global telemetry/tracing if requested,
/// and returns the remaining (non-flag) arguments plus the CLI state.
///
/// `name` keys the default output files: `results/telemetry_<name>.json`
/// and `results/trace_<name>.json`.
///
/// A configuration error (empty `=VALUE`, bad `--chaos` spec) comes back
/// as a [`CliError`]; the binary prints it and exits with
/// [`CliError::code`].
pub fn init(name: &'static str) -> Result<(Vec<String>, TelemetryCli), CliError> {
    init_from(name, std::env::args().skip(1))
}

/// [`init`] over an explicit argument iterator (testable).
pub fn init_from(
    name: &'static str,
    args: impl Iterator<Item = String>,
) -> Result<(Vec<String>, TelemetryCli), CliError> {
    let parsed = parse_flags(name, args)?;
    // The profiler folds into the registry, so `--profile` arms it too.
    if parsed.mode != TelemetryMode::Off || parsed.profile.is_some() {
        Telemetry::install(Telemetry::enabled());
    }
    if parsed.profile.is_some() {
        Profiler::install(Profiler::enabled());
    }
    if let Some(spec) = &parsed.chaos {
        let plan = oxterm_chaos::FaultPlan::parse(spec)
            .map_err(|e| CliError::config(format!("{name}: bad --chaos spec {spec:?}: {e}")))?;
        oxterm_chaos::arm(plan);
        eprintln!("chaos({name}): armed plan {}", plan.canonical());
    }
    let trace_to = parsed.trace.map(|explicit| {
        Tracer::install(Tracer::enabled());
        explicit.unwrap_or_else(|| format!("results/trace_{name}.json"))
    });
    if parsed.progress {
        oxterm_telemetry::progress::set_enabled(true);
    }
    if let Some(dir) = parsed.artifacts_dir {
        oxterm_telemetry::postmortem::set_artifacts_dir(
            dir.unwrap_or_else(|| format!("results/artifacts_{name}")),
        );
    }
    let mut bench_span = Tracer::global().span(Track::Bench, name);
    bench_span.arg(oxterm_telemetry::Arg::u64(
        "positional_args",
        parsed.rest.len() as u64,
    ));
    let run_phase = Profiler::global().phase(PhaseId::BenchRun);
    Ok((
        parsed.rest,
        TelemetryCli {
            mode: parsed.mode,
            trace_to,
            name,
            probes: parsed.probes,
            captures: Vec::new(),
            bench_span,
            profile_to: parsed
                .profile
                .map(|explicit| explicit.unwrap_or_else(|| format!("results/hotpath_{name}.json"))),
            run_phase: Some(run_phase),
            matrix: None,
        },
    ))
}

impl TelemetryCli {
    /// The probe plan requested by `--probes[=SPEC]`, or `Ok(None)` when
    /// the flag was absent. `default_spec` is the binary's canonical
    /// signal set, used when the flag carries no explicit spec.
    ///
    /// A malformed spec is a configuration error (exit code 2) surfaced
    /// as a [`CliError`] so the binary can report it before simulating
    /// anything.
    pub fn probe_plan(&self, default_spec: &str) -> Result<Option<ProbePlan>, CliError> {
        let Some(spec) = self.probes.as_ref() else {
            return Ok(None);
        };
        let spec = spec.as_deref().unwrap_or(default_spec);
        ProbePlan::parse(spec).map(Some).map_err(|e| {
            CliError::config(format!("{}: bad --probes spec {spec:?}: {e}", self.name))
        })
    }

    /// Hands a finished probe capture back for emission at
    /// [`TelemetryCli::finish`]: one CSV per probe, plus Perfetto counter
    /// tracks merged into the trace file when `--trace` is active.
    /// Call once per probed transient; empty captures are ignored.
    pub fn record_probes(&mut self, capture: &ProbeCapture) {
        if !capture.is_empty() {
            self.captures.push(capture.clone());
        }
    }

    /// Hands the structural stats of the run's representative circuit to
    /// the hot-path report written at [`TelemetryCli::finish`] (the LU
    /// work estimates stay absent without them). The last call wins.
    pub fn record_matrix_stats(&mut self, stats: MatrixStats) {
        self.matrix = Some(stats);
    }

    /// Writes the trace artifacts (Chrome JSON + ASCII timeline), prints
    /// the run report, and writes the telemetry JSON / hot-path artifacts
    /// if asked. No-op when no flag was given.
    pub fn finish(mut self) {
        self.write_probe_csvs();
        // Close the whole-binary phase before snapshotting so the
        // `bench/run` root covers everything the run did.
        drop(self.run_phase.take());
        self.write_profile();
        self.bench_span.finish();
        if let Some(path) = self.trace_to.take() {
            let snapshot = Tracer::global().snapshot();
            record_drops(Telemetry::global(), &snapshot);
            let mut counters: Vec<_> = self
                .captures
                .iter()
                .flat_map(ProbeCapture::counter_tracks)
                .collect();
            // Cumulative dissipated energy over wall time, when the joule
            // ledger was armed and fed: one more counter lane next to the
            // probe tracks.
            if let Some(track) = oxterm_telemetry::joule::JouleLedger::global().counter_track() {
                counters.push(track);
            }
            write_trace(&path, &snapshot, &counters);
            println!("\n== trace timeline ({}) ==\n", self.name);
            println!("{}", snapshot.to_ascii(100));
        }
        if self.mode != TelemetryMode::Off {
            let report = Telemetry::global().report();
            println!("\n== telemetry ({}) ==\n", self.name);
            println!("{}", report.to_table());
            if let TelemetryMode::Json { path } = &self.mode {
                let path = path
                    .clone()
                    .unwrap_or_else(|| format!("results/telemetry_{}.json", self.name));
                match ensure_parent(&path).and_then(|()| std::fs::write(&path, report.to_json())) {
                    Ok(()) => println!("telemetry report written to {path}"),
                    Err(e) => eprintln!("could not write {path}: {e}"),
                }
            }
        }
    }

    /// Snapshots the phase profiler, folds the totals into the telemetry
    /// registry, and — under `--profile` — prints the hot-path attribution
    /// and writes its JSON artifact.
    fn write_profile(&self) {
        let prof = Profiler::global();
        if !prof.is_enabled() {
            return;
        }
        let snapshot = prof.snapshot();
        if snapshot.is_empty() {
            return;
        }
        snapshot.fold_into(Telemetry::global());
        let Some(path) = &self.profile_to else {
            return;
        };
        let report = HotPathReport {
            newton_iterations: Telemetry::global()
                .report()
                .histogram("spice.newton.iterations")
                .map(|h| h.sum)
                .unwrap_or(0.0),
            matrix: self.matrix.clone(),
            snapshot,
        };
        println!("\n== hot path ({}) ==\n", self.name);
        print!("{}", report.to_text());
        match ensure_parent(path).and_then(|()| std::fs::write(path, report.to_json())) {
            Ok(()) => println!("hot-path report written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    /// One CSV per captured probe: `results/probe_<name>_<label>.csv`
    /// (with a capture index inserted when the experiment recorded more
    /// than one probed transient).
    fn write_probe_csvs(&self) {
        let many = self.captures.len() > 1;
        for (ci, capture) in self.captures.iter().enumerate() {
            for trace in &capture.traces {
                let label = sanitize_label(&trace.label);
                let path = if many {
                    format!("results/probe_{}_{ci}_{label}.csv", self.name)
                } else {
                    format!("results/probe_{}_{label}.csv", self.name)
                };
                match ensure_parent(&path).and_then(|()| std::fs::write(&path, trace.to_csv())) {
                    Ok(()) => println!(
                        "probe {} written to {path} ({} samples kept of {} offered, \
                         {} decimation pass(es))",
                        trace.label,
                        trace.samples.len(),
                        trace.offered,
                        trace.compactions,
                    ),
                    Err(e) => eprintln!("could not write {path}: {e}"),
                }
            }
        }
    }
}

/// Maps a probe label to a filename-safe stem: `v(bl_sense)` → `v_bl_sense`.
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .trim_matches('_')
        .to_string()
}

/// Folds per-track-class drop counts into the telemetry report so ring
/// overflow is visible in the RunReport, never silent.
fn record_drops(tel: &Telemetry, snapshot: &TraceSnapshot) {
    if !tel.is_enabled() {
        return;
    }
    for (class, n) in &snapshot.dropped {
        if *n > 0 {
            tel.add(&format!("trace.dropped.{class}"), *n);
        }
    }
}

fn write_trace(path: &str, snapshot: &TraceSnapshot, counters: &[oxterm_telemetry::CounterTrack]) {
    let json = snapshot.to_chrome_json_with_counters(counters);
    match ensure_parent(path).and_then(|()| std::fs::write(path, json)) {
        Ok(()) => println!(
            "trace written to {path} ({} events, {} counter track(s), {} dropped) — \
             open at https://ui.perfetto.dev",
            snapshot.events.len(),
            counters.len(),
            snapshot.total_dropped(),
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn ensure_parent(path: &str) -> std::io::Result<()> {
    match std::path::Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ParsedFlags {
        parse_flags("fig11", args.iter().map(|s| (*s).to_string())).unwrap()
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn flag_is_stripped_and_positionals_survive() {
        let p = parse(&["120", "--telemetry"]);
        assert_eq!(p.rest, vec!["120".to_string()]);
        assert_eq!(p.mode, TelemetryMode::Table);
        // Unrecognised flags are left in `rest` for the binary's own
        // parser, and `count_arg` rejects whatever survives that.
        let p = parse(&["--submit=127.0.0.1:7077", "200", "--chekpoint=x"]);
        assert_eq!(
            p.rest,
            strings(&["--submit=127.0.0.1:7077", "200", "--chekpoint=x"])
        );
    }

    #[test]
    fn count_arg_defaults_parses_and_rejects_leftovers() {
        assert_eq!(count_arg("fig11", &[], 500), Ok(500));
        assert_eq!(count_arg("fig11", &strings(&["200"]), 500), Ok(200));
        assert_eq!(no_args("fig10", &[]), Ok(()));
        assert_eq!(no_args("fig10", &strings(&["bogus"])).unwrap_err().code, 2);
        // The whole argument path a binary takes: shared flags first, then
        // the leftover rules, with or without a count. Every case exits 2
        // naming the culprit.
        let cases = [
            ("200 --chekpoint=x", "--chekpoint=x"),
            ("--submit=127.0.0.1:7077 200", "--submit=127.0.0.1:7077"),
            ("-- 40", "\"--\""),
            ("2OO", "2OO"),
            ("-5", "-5"),
            ("--trcae=x.json bogus", "--trcae=x.json"),
            ("--dashboard 200", "--dashboard"),
            ("200 --checkpoint=", "--checkpoint="),
            ("200 bogus", "bogus"),
        ];
        // Retired flags are unknown flags like any other, and an empty
        // `=VALUE` never reaches the run: each names itself.
        let lone = "--lint --lint=deny --metrics-out=x --metrics-listen=x --trace= \
                    --telemetry=json: --probes= --artifacts-dir= --chaos= --resume= \
                    --quorum= --profile= --bench-history= --checkpoint --checkpoint=x \
                    --resume=x --quorum=0.1";
        let lone = lone.split_whitespace().map(|flag| (flag, flag));
        for (args, culprit) in cases.into_iter().chain(lone) {
            let parsed = parse_flags("fig11", args.split(' ').map(String::from));
            let counted = parsed
                .clone()
                .and_then(|p| count_arg("fig11", &p.rest, 500));
            let bare = parsed.and_then(|p| no_args("fig11", &p.rest));
            for err in [counted.unwrap_err(), bare.unwrap_err()] {
                assert_eq!(err.code, 2, "{args}");
                assert!(err.message.contains(culprit), "{}", err.message);
            }
        }
    }

    #[test]
    fn no_flag_means_off() {
        let p = parse(&["7"]);
        assert_eq!(p.rest, vec!["7".to_string()]);
        assert_eq!(p.mode, TelemetryMode::Off);
        assert_eq!(p.trace, None);
        assert!(!p.progress);
    }

    #[test]
    fn json_variant_parses() {
        let p = parse(&["--telemetry=json"]);
        assert_eq!(p.mode, TelemetryMode::Json { path: None });
    }

    #[test]
    fn json_path_variant_parses() {
        let p = parse(&["--telemetry=json:out/run.json"]);
        assert_eq!(
            p.mode,
            TelemetryMode::Json {
                path: Some("out/run.json".to_string())
            }
        );
    }

    #[test]
    fn trace_flags_parse() {
        assert_eq!(parse(&["--trace"]).trace, Some(None));
        assert_eq!(
            parse(&["--trace=results/t.json"]).trace,
            Some(Some("results/t.json".to_string()))
        );
    }

    #[test]
    fn progress_flag_parses_alongside_others() {
        let p = parse(&["--progress", "500", "--trace", "--telemetry"]);
        assert!(p.progress);
        assert_eq!(p.trace, Some(None));
        assert_eq!(p.mode, TelemetryMode::Table);
        assert_eq!(p.rest, vec!["500".to_string()]);
    }

    #[test]
    fn parent_creation_handles_bare_filenames() {
        assert!(ensure_parent("bare.json").is_ok());
    }

    #[test]
    fn probe_and_artifacts_flags_parse() {
        let p = parse(&["--probes", "7"]);
        assert_eq!(p.probes, Some(None));
        assert_eq!(p.rest, vec!["7".to_string()]);
        let p = parse(&["--probes=v(sl),i(vsense)"]);
        assert_eq!(p.probes, Some(Some("v(sl),i(vsense)".to_string())));
        assert_eq!(parse(&["--artifacts-dir"]).artifacts_dir, Some(None));
        assert_eq!(
            parse(&["--artifacts-dir=out/am"]).artifacts_dir,
            Some(Some("out/am".to_string()))
        );
        let off = parse(&["7"]);
        assert_eq!(off.probes, None);
        assert_eq!(off.artifacts_dir, None);
    }

    #[test]
    fn probe_labels_sanitize_to_filename_stems() {
        assert_eq!(sanitize_label("v(bl_sense)"), "v_bl_sense");
        assert_eq!(sanitize_label("i(vsense:0)"), "i_vsense_0");
    }

    #[test]
    fn campaign_flags_parse() {
        let p = parse(&["--chaos=newton_stall:p=0.02,seed=7", "500"]);
        assert_eq!(p.chaos, Some("newton_stall:p=0.02,seed=7".to_string()));
        assert_eq!(p.rest, vec!["500".to_string()]);
        assert_eq!(parse(&["500"]).chaos, None);
    }

    #[test]
    fn probe_plan_surfaces_parse_errors_as_config_errors() {
        let (_, cli) = init_from("cli_test", ["--probes=bogus!!".to_string()].into_iter())
            .expect("init accepts a probes flag");
        let err = cli.probe_plan("v(sl)").unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--probes"), "{}", err.message);
    }

    #[test]
    fn observability_flags_parse() {
        let p = parse(&["--profile", "7"]);
        assert_eq!(p.profile, Some(None));
        assert_eq!(p.rest, vec!["7".to_string()]);
        assert_eq!(
            parse(&["--profile=out/h.json"]).profile,
            Some(Some("out/h.json".to_string()))
        );
        assert_eq!(parse(&["7"]).profile, None);
    }

    #[test]
    fn dashboard_flag_parses_and_defaults_off() {
        // `--dashboard` is retired: the shared parser leaves it for the
        // leftover rules, which reject it, and a bare count still parses.
        let p = parse(&["--dashboard", "500"]);
        assert_eq!(p.rest, strings(&["--dashboard", "500"]));
        let err = count_arg("fig11", &p.rest, 500).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--dashboard"), "{}", err.message);
        assert_eq!(count_arg("fig11", &parse(&["500"]).rest, 7), Ok(500));
    }

    #[test]
    fn lint_flags_parse() {
        // `--lint` and `--lint=deny` are retired: each survives the shared
        // parser untouched and is rejected by name, exit 2.
        for flag in ["--lint", "--lint=deny"] {
            let p = parse(&[flag, "7"]);
            assert_eq!(p.rest, strings(&[flag, "7"]));
            let err = count_arg("fig11", &p.rest, 500).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(err.message.contains(flag), "{}", err.message);
        }
        assert_eq!(count_arg("fig11", &parse(&["7"]).rest, 500), Ok(7));
    }

    #[test]
    fn init_rejects_unlistenable_metrics_address() {
        // There is no `/metrics` listener any more, so `init` binds nothing
        // and hands the flag back; the binary's leftover check rejects it.
        let flag = "--metrics-listen=not-an-address";
        let (rest, _cli) = init_from("cli_test", [flag.to_string()].into_iter())
            .expect("a retired flag is not a shared-flag error");
        assert_eq!(rest, strings(&[flag]));
        let err = no_args("cli_test", &rest).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains(flag), "{}", err.message);
    }

    #[test]
    fn init_rejects_bad_chaos_spec() {
        for (spec, culprit) in [
            ("--chaos=bogus:p=2", "bogus"),
            ("--chaos=panic:p=0.02:transient", "transient"),
        ] {
            let err = init_from("cli_test", [spec.to_string()].into_iter())
                .expect_err("invalid chaos spec must be a config error");
            assert_eq!(err.code, 2);
            assert!(err.message.contains("--chaos"), "{}", err.message);
            assert!(err.message.contains(culprit), "{}", err.message);
        }
    }
}
