//! Acceptance check for solver hot-path attribution: with the global
//! profiler armed, a realistic mix of circuit-level and fast-path program
//! operations must attribute ≥ 90% of its profiled solver work to *named
//! leaf phases* — the "time we can't name" budget the hot-path report is
//! built to police.
//!
//! One test only: it installs the process-global `Profiler`/`Telemetry`
//! (first call wins, so this binary must not share the install with other
//! tests).

use oxterm_bench::hotpath::{matrix_stats, HotPathReport};
use oxterm_mlc::levels::LevelAllocation;
use oxterm_mlc::program::{
    build_program_circuit, program_cell_circuit, program_cell_mc, CircuitProgramOptions,
    McVariability, ProgramConditions,
};
use oxterm_rram::params::OxramParams;
use oxterm_telemetry::{PhaseId, PhaseRole, Profiler, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn solver_work_attributes_to_named_leaf_phases() {
    assert!(Profiler::install(Profiler::enabled()), "first install");
    assert!(Telemetry::install(Telemetry::enabled()), "first install");

    // Circuit-level path: full MNA transient with the Fig 10 testbench.
    let opts = CircuitProgramOptions::paper_fig10();
    let circuit_out = program_cell_circuit(&opts, Some(10e-6)).expect("circuit program runs");
    assert!(circuit_out.latency_s.is_some(), "termination fired");

    // Fast path: the Monte Carlo volume driver (semi-analytic kernels).
    // Weighted like `repro_all`, where 5,761 programs share the profile with
    // one circuit transient: MC programs outnumber circuit transients by
    // orders of magnitude, so the fast-path leaves dominate the profile.
    let params = OxramParams::calibrated();
    let alloc = LevelAllocation::paper_qlc();
    let cond = ProgramConditions::paper();
    let var = McVariability::default();
    let mut rng = StdRng::seed_from_u64(7);
    for sweep in 0..16 {
        for code in 0..16u16 {
            program_cell_mc(&params, &alloc, code, &cond, &var, &mut rng)
                .unwrap_or_else(|e| panic!("sweep {sweep} code {code}: {e}"));
        }
    }

    let snapshot = Profiler::global().snapshot();
    assert!(!snapshot.is_empty(), "instrumentation recorded phases");

    // Both execution paths land in the catalog: interior scopes delegate
    // to the leaves that carry the attribution.
    for id in [
        PhaseId::MlcProgram,
        PhaseId::RramFastReset,
        PhaseId::RramFastSet,
        PhaseId::OpSolve,
        PhaseId::TranRun,
        PhaseId::TranNewton,
        PhaseId::NewtonStamp,
        PhaseId::NewtonSolveLu,
        PhaseId::NewtonResidual,
    ] {
        assert!(
            snapshot.phase(id).is_some(),
            "phase {} missing from:\n{}",
            id.path(),
            snapshot.to_ascii_tree()
        );
    }

    // The acceptance bar: ≥ 90% of profiled solver work is named leaf
    // self time (orchestration excluded from the denominator by role).
    let coverage = snapshot.leaf_coverage().expect("solver work recorded");
    eprintln!("leaf coverage: {:.2}%", coverage * 100.0);
    assert!(
        coverage >= 0.90,
        "leaf coverage {:.1}% < 90%:\n{}",
        coverage * 100.0,
        snapshot.to_ascii_tree()
    );
    let leaf_named: u64 = snapshot
        .phases
        .iter()
        .filter(|p| p.id.role() == PhaseRole::Leaf)
        .map(|p| p.self_ns())
        .sum();
    assert_eq!(leaf_named, snapshot.leaf_self_ns());

    // The full report joins the profile with the testbench's structural
    // cost and the Newton work the telemetry registry counted.
    let (circuit, _) = build_program_circuit(&opts).expect("testbench builds");
    let newton_iterations = Telemetry::global()
        .report()
        .histogram("spice.newton.iterations")
        .map(|h| h.sum)
        .unwrap_or(0.0);
    assert!(newton_iterations > 0.0, "transient ran Newton solves");
    let report = HotPathReport {
        snapshot,
        matrix: Some(matrix_stats(&circuit)),
        newton_iterations,
    };
    assert!(report.estimated_lu_nnz().unwrap_or(0.0) > 0.0);

    let text = report.to_text();
    assert!(text.contains("leaf coverage"), "{text}");
    assert!(text.contains("representative MNA system"), "{text}");
    let json = report.to_json();
    assert!(json.contains("\"leaf_coverage\""), "{json}");
    assert!(json.contains("\"tran/newton/solve_lu\""), "{json}");
    assert!(json.contains("\"nnz_estimate\""), "{json}");
}
