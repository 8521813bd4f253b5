//! The drift gates: one rule-table comparison of flat summaries.
//!
//! Three committed flat `{"key": number, ...}` baselines protect the
//! reproduction: checklist throughput (`BENCH_telemetry.json`,
//! `--check-bench`), the per-level resistance distributions of Figs
//! 11/12 (`--check-levels`) and the per-level energy, latency and
//! termination savings of Fig 13 (`--check-energy`). [`GATES`] holds one
//! row per gate with its rule slice; [`compare`] applies a slice to a
//! baseline and a fresh summary.
//!
//! Keys no rule of the gate matches are informational (workload
//! counters, phase shares, and the `level.*.p50` and `energy.*` rollups
//! that ride `BENCH_telemetry.json`), and string values are skipped. A
//! nonzero baseline gates on the relative change; a zero baseline passes
//! only a fresh zero, except under [`Sense::Higher`], so a failure count
//! that leaves 0 fails.
//!
//! Consumed by `repro_all` and the `bench_diff` binary. The parser is a
//! deliberately minimal flat-JSON reader (string and number values only)
//! because the workspace carries no serde and every summary format is
//! fully under our control.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A value from the flat summary JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchValue {
    /// Any JSON number (all summary metrics).
    Num(f64),
    /// A JSON string (the `bench` name field).
    Str(String),
}

/// Parses a flat JSON object of string/number values.
///
/// # Errors
///
/// Returns a message naming the offending byte offset for anything that is
/// not a single flat `{"key": <string|number>, ...}` object.
pub fn parse_flat_json(s: &str) -> Result<BTreeMap<String, BenchValue>, String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {i}", i = *i));
        }
        *i += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    *i += 1;
                }
                _ => {
                    out.push(c as char);
                    *i += 1;
                }
            }
        }
        Err("unterminated string".to_string())
    };

    skip_ws(&mut i);
    if b.get(i) != Some(&b'{') {
        return Err(format!("expected '{{' at byte {i}"));
    }
    i += 1;
    let mut map = BTreeMap::new();
    skip_ws(&mut i);
    if b.get(i) == Some(&b'}') {
        return Ok(map);
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?} at byte {i}"));
        }
        i += 1;
        skip_ws(&mut i);
        let value = if b.get(i) == Some(&b'"') {
            BenchValue::Str(parse_string(&mut i)?)
        } else if matches!(b.get(i), Some(b'{') | Some(b'[')) {
            return Err(format!(
                "unsupported nested value for key {key:?} at byte {i}; \
                 the summary must stay a flat object"
            ));
        } else {
            let start = i;
            while i < b.len() && !matches!(b[i], b',' | b'}') && !b[i].is_ascii_whitespace() {
                i += 1;
            }
            let tok = &s[start..i];
            // `f64::from_str` happily accepts "NaN"/"inf", and bools/null
            // would otherwise be folded into a confusing number error —
            // reject both explicitly so a malformed summary never half-parses.
            if matches!(tok, "true" | "false" | "null") {
                return Err(format!(
                    "unsupported value {tok:?} for key {key:?} at byte {start}; \
                     only strings and finite numbers are allowed"
                ));
            }
            let v = tok
                .parse::<f64>()
                .map_err(|e| format!("bad number {tok:?} at byte {start}: {e}"))?;
            if !v.is_finite() {
                return Err(format!(
                    "non-finite number {tok:?} for key {key:?} at byte {start}; \
                     summary metrics must be finite"
                ));
            }
            BenchValue::Num(v)
        };
        map.insert(key, value);
        skip_ws(&mut i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Ok(map),
            other => return Err(format!("expected ',' or '}}' at byte {i}, found {other:?}")),
        }
    }
}

/// Which way a gated statistic may move before it fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Wall time, failure counts: growth fails.
    Lower,
    /// Throughput: shrinkage fails.
    Higher,
    /// Reproducibility statistics: movement either way fails.
    Both,
}

/// One row of a gate's rule table.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Selects the summary keys this rule gates (first match wins).
    pub matches: fn(&str) -> bool,
    /// The direction that counts as a failure.
    pub sense: Sense,
    /// Relative change tolerated in the failing direction (fraction).
    pub tol: f64,
    /// Whether a key present on only one side fails the gate.
    pub missing_fails: bool,
}

/// One drift gate: the flag that requests it, the committed baseline it
/// compares against and the rules it applies.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Command-line flag of `repro_all`.
    pub flag: &'static str,
    /// Short name prefixed to every report line.
    pub label: &'static str,
    /// Committed baseline, relative to the repository root.
    pub baseline: &'static str,
    /// The flag that re-blesses the baseline (`None`: rewritten every run).
    pub bless: Option<&'static str>,
    /// The rule table.
    pub rules: &'static [Rule],
}

/// Checklist throughput against `BENCH_telemetry.json`, which every
/// `repro_all` run rewrites.
pub const BENCH_GATE: Gate = Gate {
    flag: "--check-bench",
    label: "bench",
    baseline: "BENCH_telemetry.json",
    bless: None,
    rules: &[
        Rule {
            matches: |k| k.ends_with("_per_second"),
            sense: Sense::Higher,
            tol: 0.25,
            missing_fails: false,
        },
        Rule {
            matches: |k| k == "wall_seconds" || k.contains("failures"),
            sense: Sense::Lower,
            tol: 0.25,
            missing_fails: false,
        },
    ],
};

/// Per-level resistance distributions against the committed baseline.
pub const LEVELS_GATE: Gate = Gate {
    flag: "--check-levels",
    label: "levels",
    baseline: "results/levels_baseline.json",
    bless: Some("--save-levels-baseline"),
    rules: &[Rule {
        matches: |k| {
            k.starts_with("level.")
                && matches!(k.rsplit('.').next(), Some("p01" | "p50" | "p99" | "sigma"))
        },
        sense: Sense::Both,
        tol: 0.05,
        missing_fails: true,
    }],
};

/// Per-level energy, latency and savings against the committed baseline.
pub const ENERGY_GATE: Gate = Gate {
    flag: "--check-energy",
    label: "energy",
    baseline: "results/energy_baseline.json",
    bless: Some("--save-energy-baseline"),
    rules: &[Rule {
        matches: |k| {
            k.starts_with("energy.")
                && matches!(
                    k.rsplit('.').next(),
                    Some("mean_j" | "p50_j" | "mean_latency_s" | "p50_latency_s" | "saved_j")
                )
        },
        sense: Sense::Both,
        tol: 0.05,
        missing_fails: true,
    }],
};

/// Every gate `repro_all` knows.
pub const GATES: &[Gate] = &[BENCH_GATE, LEVELS_GATE, ENERGY_GATE];

/// One gated statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Summary key.
    pub key: String,
    /// Baseline value (`None` when the key is new).
    pub baseline: Option<f64>,
    /// Fresh value (`None` when the key disappeared).
    pub fresh: Option<f64>,
    /// Relative change `(fresh − baseline) / baseline`, when both exist
    /// and the baseline is nonzero.
    pub rel: Option<f64>,
    /// The gating rule's direction.
    pub sense: Sense,
    /// The gating rule's tolerance (fraction).
    pub tol: f64,
    /// Whether this statistic fails the gate.
    pub failed: bool,
}

/// Every gated statistic of one comparison, key-sorted.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Gated deltas; informational keys are not listed.
    pub deltas: Vec<Delta>,
}

/// Compares a fresh flat summary against its baseline under `rules`.
///
/// # Errors
///
/// Returns the flat-JSON parse error, naming the offending side.
pub fn compare(baseline: &str, fresh: &str, rules: &[Rule]) -> Result<Verdict, String> {
    let base = parse_flat_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let fresh = parse_flat_json(fresh).map_err(|e| format!("fresh: {e}"))?;
    // `Err` marks a string value: such keys are skipped.
    let num = |m: &BTreeMap<String, BenchValue>, k: &str| match m.get(k) {
        Some(BenchValue::Num(v)) => Ok(Some(*v)),
        Some(BenchValue::Str(_)) => Err(()),
        None => Ok(None),
    };
    let keys: BTreeSet<&String> = base.keys().chain(fresh.keys()).collect();
    let deltas = keys
        .into_iter()
        .filter_map(|k| {
            let rule = rules.iter().find(|r| (r.matches)(k))?;
            let (Ok(b), Ok(f)) = (num(&base, k), num(&fresh, k)) else {
                return None;
            };
            let (rel, failed) = match (b, f) {
                (Some(b), Some(f)) if b != 0.0 => {
                    let r = (f - b) / b;
                    let failed = match rule.sense {
                        Sense::Lower => r > rule.tol,
                        Sense::Higher => r < -rule.tol,
                        Sense::Both => r.abs() > rule.tol,
                    };
                    (Some(r), failed)
                }
                (Some(_), Some(f)) => (None, f != 0.0 && rule.sense != Sense::Higher),
                _ => (None, rule.missing_fails),
            };
            Some(Delta {
                key: k.clone(),
                baseline: b,
                fresh: f,
                rel,
                sense: rule.sense,
                tol: rule.tol,
                failed,
            })
        })
        .collect();
    Ok(Verdict { deltas })
}

impl Verdict {
    /// The statistics that fail the gate.
    #[must_use]
    pub fn failed(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.failed).collect()
    }

    /// The worst failure by absolute relative change; a missing key or a
    /// zero baseline outranks any finite change.
    #[must_use]
    pub fn worst(&self) -> Option<&Delta> {
        let mag = |d: &Delta| d.rel.map_or(f64::INFINITY, f64::abs);
        self.failed()
            .into_iter()
            .max_by(|a, b| mag(a).total_cmp(&mag(b)))
    }

    /// Report block: one line per failing statistic, then a verdict line
    /// naming the worst key (and its level, for per-level keys).
    #[must_use]
    pub fn render(&self, label: &str) -> String {
        let failed = self.failed();
        let Some(worst) = self.worst() else {
            return format!(
                "{label}: OK ({} gated statistics within tolerance)\n",
                self.deltas.len()
            );
        };
        let mut out = String::new();
        for d in &failed {
            let limit = match d.sense {
                Sense::Lower => "+",
                Sense::Higher => "-",
                Sense::Both => "±",
            };
            let what = match (d.baseline, d.fresh, d.rel) {
                (Some(b), Some(f), Some(r)) => format!(
                    "{b:.4e} -> {f:.4e} ({:+.2}%, limit {limit}{:.0}%)",
                    r * 100.0,
                    d.tol * 100.0
                ),
                (Some(b), Some(f), None) => format!("{b:.4e} -> {f:.4e} (zero baseline)"),
                (None, _, _) => "missing from baseline".to_string(),
                (Some(_), None, _) => "missing from fresh run".to_string(),
            };
            let _ = writeln!(out, "{label}: DRIFT {}: {what}", d.key);
        }
        // Per-level keys read `<prefix>.<binary code>.<statistic>`.
        let level = worst
            .key
            .split('.')
            .nth(1)
            .filter(|c| !c.is_empty() && c.bytes().all(|b| matches!(b, b'0' | b'1')));
        let _ = writeln!(
            out,
            "{label}: FAIL — {} ({} of {} gated statistics out of tolerance)",
            match level {
                Some(code) => format!("worst-drifting level: {code}, key {}", worst.key),
                None => format!("worst-drifting key: {}", worst.key),
            },
            failed.len(),
            self.deltas.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(wall: f64, nps: f64) -> String {
        format!(
            "{{\"bench\": \"repro_all\", \"wall_seconds\": {wall}, \
             \"newton_iterations_per_second\": {nps}, \"mc_runs\": 120}}"
        )
    }

    fn bench(baseline: &str, fresh: &str) -> Verdict {
        compare(baseline, fresh, BENCH_GATE.rules).expect("comparable")
    }

    #[test]
    fn parser_reads_flat_object() {
        let m = parse_flat_json("{\"a\": 1.5, \"b\": \"x\", \"c\": -2e3}").unwrap();
        assert_eq!(m["a"], BenchValue::Num(1.5));
        assert_eq!(m["b"], BenchValue::Str("x".to_string()));
        assert_eq!(m["c"], BenchValue::Num(-2000.0));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_flat_json("[1, 2]").is_err());
        assert!(parse_flat_json("{\"a\" 1}").is_err());
        assert!(parse_flat_json("{\"a\": nope}").is_err());
        assert!(parse_flat_json("{\"a\": 1").is_err());
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_flat_json("{}").unwrap().is_empty());
    }

    #[test]
    fn parser_rejects_non_finite_numbers() {
        for bad in ["NaN", "nan", "inf", "-inf", "Infinity"] {
            let err = parse_flat_json(&format!("{{\"wall_seconds\": {bad}}}")).expect_err(bad);
            assert!(err.contains("non-finite"), "{bad}: {err}");
        }
    }

    #[test]
    fn parser_rejects_unsupported_value_types() {
        for bad in ["true", "false", "null"] {
            let err = parse_flat_json(&format!("{{\"ok\": {bad}}}")).expect_err(bad);
            assert!(err.contains("unsupported value"), "{bad}: {err}");
        }
        let nested = parse_flat_json("{\"a\": {\"b\": 1}}").expect_err("nested object");
        assert!(nested.contains("nested"), "{nested}");
        assert!(parse_flat_json("{\"a\": [1, 2]}").is_err());
    }

    #[test]
    fn within_threshold_passes() {
        let v = bench(&summary(10.0, 1000.0), &summary(11.0, 950.0));
        assert!(v.failed().is_empty());
    }

    #[test]
    fn slow_wall_time_regresses() {
        let v = bench(&summary(10.0, 1000.0), &summary(14.0, 1000.0));
        let wall = v.deltas.iter().find(|d| d.key == "wall_seconds").unwrap();
        assert!(wall.failed);
    }

    #[test]
    fn throughput_drop_regresses_but_gain_does_not() {
        let drop = bench(&summary(10.0, 1000.0), &summary(10.0, 600.0));
        assert!(!drop.failed().is_empty());
        let gain = bench(&summary(10.0, 1000.0), &summary(10.0, 2000.0));
        assert!(gain.failed().is_empty());
    }

    #[test]
    fn workload_counters_are_informational() {
        let sense = |k: &str| {
            let rule = BENCH_GATE.rules.iter().find(|r| (r.matches)(k));
            rule.map(|r| r.sense)
        };
        assert_eq!(sense("mc_runs"), None);
        assert_eq!(sense("wall_seconds"), Some(Sense::Lower));
        assert_eq!(sense("mc_runs_per_second"), Some(Sense::Higher));
        assert_eq!(sense("mc_convergence_failures"), Some(Sense::Lower));
    }

    #[test]
    fn missing_metrics_never_gate() {
        let fresh = summary(10.0, 1000.0).replacen('{', "{\"brand_new_per_second\": 5.0, ", 1);
        let v = bench(&summary(10.0, 1000.0), &fresh);
        let new = v
            .deltas
            .iter()
            .find(|d| d.key == "brand_new_per_second")
            .unwrap();
        assert!(!new.failed);
        assert_eq!(new.baseline, None);
    }

    #[test]
    fn zero_baseline_failure_count_regresses() {
        let counts =
            |n: u32| format!("{{\"wall_seconds\": 4.0, \"mc_convergence_failures\": {n}}}");
        let v = bench(&counts(0), &counts(57));
        let failures = &v.failed()[0];
        assert_eq!(failures.key, "mc_convergence_failures");
        let rendered = v.render("bench");
        assert!(rendered.contains("0.0000e0 -> 5.7000e1"), "{rendered}");
        assert!(!rendered.contains("missing"), "{rendered}");
        assert!(bench(&counts(0), &counts(0)).failed().is_empty());
        // A zero throughput baseline cannot regress upwards.
        let nps = |n: u32| format!("{{\"mc_runs_per_second\": {n}}}");
        assert!(bench(&nps(0), &nps(400)).failed().is_empty());
    }

    #[test]
    fn gates_only_apply_their_own_rules() {
        let shaped = |p50: f64| {
            format!(
                "{{\"bench\": \"repro_all\", \"wall_seconds\": 4.0, \
                 \"mc_runs_per_second\": 400.0, \"mc_convergence_failures\": 0, \
                 \"phase_share.rram/calib\": 0.99, \"level.0001.p50\": {p50}, \
                 \"energy.mean_reset_j\": 3.4e-11}}"
            )
        };
        let (base, fresh) = (shaped(39640.9), shaped(39640.9 * 1.10));
        assert!(bench(&base, &fresh).failed().is_empty());
        let levels = compare(&base, &fresh, LEVELS_GATE.rules).expect("comparable");
        assert_eq!(levels.worst().expect("drifted").key, "level.0001.p50");
    }
}
