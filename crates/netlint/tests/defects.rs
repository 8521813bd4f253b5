//! The seeded defect corpus: each planted defect must be flagged with its
//! exact rule id, and the shipped experiment netlists must lint clean (no
//! deny findings) — the no-false-positive gate.

use oxterm_devices::passive::Resistor;
use oxterm_devices::sources::{CurrentSource, SourceWave};
use oxterm_netlint::{corpus, lint_entry, LintOptions, Severity};
use oxterm_spice::analysis::tran::TranOptions;
use oxterm_spice::circuit::Circuit;

fn rule_ids(entry: &corpus::CorpusEntry) -> Vec<&'static str> {
    lint_entry(entry, &LintOptions::default())
        .findings
        .iter()
        .map(|d| d.rule_id)
        .collect()
}

#[test]
fn floating_node_is_flagged() {
    let ids = rule_ids(&corpus::defect_floating_node());
    assert!(ids.contains(&"topo/floating-node"), "{ids:?}");
}

#[test]
fn vsrc_loop_is_flagged() {
    let ids = rule_ids(&corpus::defect_vsrc_loop());
    assert!(ids.contains(&"topo/vsrc-loop"), "{ids:?}");
}

#[test]
fn out_of_ladder_iref_is_flagged_as_deny() {
    let entry = corpus::defect_iref_out_of_ladder();
    let report = lint_entry(&entry, &LintOptions::default());
    let finding = report
        .findings
        .iter()
        .find(|d| d.rule_id == "soa/iref-window")
        .unwrap_or_else(|| panic!("missing soa/iref-window in {}", report.to_text()));
    assert_eq!(finding.severity, Severity::Deny);
}

#[test]
fn coarse_timestep_is_flagged() {
    let ids = rule_ids(&corpus::defect_coarse_timestep());
    assert!(ids.contains(&"opt/coarse-timestep"), "{ids:?}");
}

#[test]
fn picoamp_reference_trips_the_fixed_abstol() {
    // 50 pA sits within two decades of the fixed 1 pA `ABSTOL`.
    let mut circuit = Circuit::new();
    let a = circuit.node("a");
    circuit.add(CurrentSource::new(
        "iref",
        Circuit::gnd(),
        a,
        SourceWave::dc(50e-12),
    ));
    circuit.add(Resistor::new("rload", a, Circuit::gnd(), 1e6));
    let entry = corpus::CorpusEntry {
        name: "defect/picoamp-reference".to_string(),
        circuit,
        tran: Some(TranOptions::for_duration(1e-6)),
    };
    let ids = rule_ids(&entry);
    assert!(ids.contains(&"opt/abstol"), "{ids:?}");
    for entry in &corpus::shipped() {
        let ids = rule_ids(entry);
        assert!(!ids.contains(&"opt/abstol"), "`{}`: {ids:?}", entry.name);
    }
}

#[test]
fn defects_fail_the_gate() {
    for entry in [
        corpus::defect_floating_node(),
        corpus::defect_vsrc_loop(),
        corpus::defect_iref_out_of_ladder(),
    ] {
        let report = lint_entry(&entry, &LintOptions::default());
        assert!(!report.is_clean(), "`{}` should not be clean", entry.name);
    }
}

#[test]
fn shipped_netlists_have_no_deny_findings() {
    let entries = corpus::shipped();
    assert!(entries.len() >= 19, "corpus shrank to {}", entries.len());
    for entry in &entries {
        let report = lint_entry(entry, &LintOptions::default());
        assert!(
            report.is_clean(),
            "shipped netlist `{}` has deny findings:\n{}",
            entry.name,
            report.to_text()
        );
    }
}

#[test]
fn shipped_netlists_have_no_warnings_either() {
    // Stronger than the gate: the shipped corpus is also warning-free, so
    // any future warn finding is a real regression, not ambient noise.
    for entry in &corpus::shipped() {
        let report = lint_entry(entry, &LintOptions::default());
        assert!(
            report.findings.is_empty(),
            "shipped netlist `{}` has findings:\n{}",
            entry.name,
            report.to_text()
        );
    }
}

#[test]
fn corpus_families_are_nonempty() {
    // `netlint NAME...` selects entries by key substring, so each family
    // must be present and keyed under its own prefix.
    for (prefix, entries) in [
        ("fig10/", corpus::fig10_entries()),
        ("ladder/", corpus::ladder_entries()),
        ("ablation/", corpus::ablation_entries()),
    ] {
        assert!(!entries.is_empty(), "empty corpus family {prefix}");
        for entry in &entries {
            assert!(
                entry.name.starts_with(prefix),
                "{} not under {prefix}",
                entry.name
            );
        }
    }
}
