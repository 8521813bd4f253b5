//! Self-tests of the benchmark itself: seeded determinism, failure
//! accounting under injected faults, tail sample counts and the span file.
//!
//! They run the real workload sizes, so run them on an optimised build:
//! `cargo test --release --manifest-path oxbench/Cargo.toml`.

use std::process::Command;

/// Runs one `oxbench` process and returns its JSON report as text.
fn oxbench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_oxbench"))
        .args(args)
        .output()
        .expect("oxbench runs");
    assert!(
        out.status.success(),
        "oxbench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    stdout.lines().last().expect("one report line").to_string()
}

/// One campaign (`--seconds 0` runs exactly one repetition).
fn one_rep(workload: &str, seed: &str, extra: &[&str]) -> String {
    let mut args = vec![
        "workload",
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
    ];
    args.extend_from_slice(extra);
    oxbench(&args)
}

/// The raw text of a top-level scalar field of a flat report.
fn field<'a>(report: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = report
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} in {report}"))
        + pat.len();
    let rest = &report[start..];
    let end = rest.find([',', '}']).expect("field ends");
    rest[..end].trim_matches('"')
}

fn num(report: &str, key: &str) -> f64 {
    field(report, key).parse().expect("numeric field")
}

#[test]
fn same_seed_gives_identical_outputs_on_any_thread_count() {
    for workload in ["qlc_mc", "word_rw"] {
        let a = one_rep(workload, "11", &["--threads", "2"]);
        let b = one_rep(workload, "11", &["--threads", "1"]);
        let c = one_rep(workload, "12", &["--threads", "2"]);
        assert_eq!(field(&a, "digest"), field(&b, "digest"), "{workload}");
        assert_ne!(field(&a, "digest"), field(&c, "digest"), "{workload}");
        assert_eq!(field(&a, "correct"), "true", "{a}");
    }
}

#[test]
fn injected_faults_count_as_attempted_and_failed() {
    let clean = one_rep("qlc_mc", "3", &[]);
    assert_eq!(num(&clean, "failed"), 0.0);
    let chaos = one_rep("qlc_mc", "3", &["--chaos", "newton_stall:p=0.05,seed=9"]);
    let (attempted, failed) = (num(&chaos, "attempted"), num(&chaos, "failed"));
    assert_eq!(
        attempted,
        num(&clean, "attempted"),
        "every op counts as attempted"
    );
    let frac = failed / attempted;
    assert!((0.03..0.07).contains(&frac), "failed_frac {frac}");
    assert_eq!(num(&chaos, "cells"), attempted - failed);
}

#[test]
fn tail_percentiles_have_ten_samples_beyond() {
    let qlc = one_rep("qlc_mc", "5", &[]);
    assert!(num(&qlc, "op_beyond_p99_per_rep") >= 10.0, "{qlc}");
    let word = one_rep("word_rw", "5", &[]);
    assert!(num(&word, "op_beyond_p90_per_rep") >= 10.0, "{word}");
}

#[test]
fn span_file_links_every_op_to_its_parent() {
    let path = format!("{}/word_rw_spans.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_file(&path);
    one_rep("word_rw", "7", &["--trace-out", &path]);
    let text = std::fs::read_to_string(&path).expect("span file written");
    let spans: Vec<&str> = text.lines().collect();
    let count = |name: &str| spans.iter().filter(|s| field(s, "name") == name).count();
    assert_eq!(count("mc.try_run"), 1);
    assert_eq!(count("bench.word_op"), 100);
    assert_eq!(count("mlc.program_word_circuit"), 100);
    assert_eq!(count("mlc.classify_resistance"), 100);
    for s in &spans {
        assert!(num(s, "end_ns") >= num(s, "start_ns"), "{s}");
        if field(s, "name") == "mlc.program_word_circuit" {
            // A child carries its op's id and has that op as parent.
            assert_eq!(field(s, "op"), field(s, "parent"), "{s}");
        }
    }
}
