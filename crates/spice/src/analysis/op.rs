//! DC operating-point analysis with gmin and source stepping fallbacks.

use oxterm_telemetry::{Arg, PhaseId, Profiler, Telemetry, Tracer, Track};

use crate::analysis::{newton_solve, MnaWorkspace, NewtonOutcome};
use crate::circuit::Circuit;
use crate::device::AnalysisKind;
use crate::options::GMIN;
use crate::solution::Solution;
use crate::SpiceError;

pub use crate::options::OpOptions;

/// Solves the DC operating point of a circuit.
///
/// Independent sources are evaluated at `t = 0`; capacitors are open;
/// dynamic device state is frozen at its initial value.
///
/// The solve strategy mirrors production SPICE engines:
/// 1. direct Newton–Raphson from a zero (or warm) start,
/// 2. gmin stepping — solve with a large node-to-ground shunt conductance
///    and relax it decade by decade,
/// 3. source stepping — ramp all independent sources from 10 % to 100 %.
///
/// # Errors
///
/// Returns [`SpiceError::NoConvergence`] when all three strategies fail, or
/// [`SpiceError::Numerics`] for structural problems (singular topology).
pub fn solve_op(circuit: &Circuit, opts: &OpOptions) -> Result<Solution, SpiceError> {
    solve_op_from(circuit, None, opts)
}

/// Like [`solve_op`], warm-starting from a previous solution (DC sweeps).
///
/// # Errors
///
/// See [`solve_op`].
pub fn solve_op_from(
    circuit: &Circuit,
    warm: Option<&Solution>,
    opts: &OpOptions,
) -> Result<Solution, SpiceError> {
    solve_op_in(circuit, &mut MnaWorkspace::new(circuit, opts.sim), warm)
}

/// [`solve_op_from`] on a caller-owned workspace (which carries the
/// Newton options), so an analysis that solves several operating points (a
/// sweep, a transient's `t = 0`) builds its MNA pattern once.
pub(crate) fn solve_op_in(
    circuit: &Circuit,
    ws: &mut MnaWorkspace,
    warm: Option<&Solution>,
) -> Result<Solution, SpiceError> {
    let n = circuit.n_unknowns();
    let nn = circuit.n_nodes() - 1;
    let state = circuit.initial_state();
    let x0: Vec<f64> = match warm {
        Some(s) if s.as_slice().len() == n => s.as_slice().to_vec(),
        _ => vec![0.0; n],
    };
    let tel = Telemetry::global();
    let _op = Profiler::global().phase(PhaseId::OpSolve);
    tel.incr("spice.op.solves");
    // Convergence-aid escalation record, kept only while post-mortem
    // capture is active (one relaxed load when off).
    let diag_on = oxterm_telemetry::postmortem::is_active();
    let mut escalations: Vec<String> = Vec::new();

    // 1. Direct Newton.
    match newton_solve(circuit, ws, &x0, &state, AnalysisKind::Dc, 1.0, GMIN) {
        Ok(NewtonOutcome { x, .. }) => {
            tel.incr("spice.op.direct");
            return Ok(Solution::new(x, nn));
        }
        Err(e) => {
            if diag_on {
                escalations.push(format!("direct Newton failed: {e}"));
            }
        }
    }

    // 2. Gmin stepping.
    let mut x = x0.clone();
    let mut gshunt = 1e-2;
    let mut gmin_ok = true;
    while gshunt > GMIN * 1.01 {
        match newton_solve(circuit, ws, &x, &state, AnalysisKind::Dc, 1.0, gshunt) {
            Ok(out) => x = out.x,
            Err(e) => {
                gmin_ok = false;
                if diag_on {
                    escalations.push(format!("gmin stepping failed at gshunt {gshunt:.1e}: {e}"));
                }
                break;
            }
        }
        gshunt *= 0.1;
    }
    if gmin_ok {
        match newton_solve(circuit, ws, &x, &state, AnalysisKind::Dc, 1.0, GMIN) {
            Ok(out) => {
                tel.incr("spice.op.gmin_recoveries");
                // Convergence-aid escalation: the direct solve failed and gmin
                // stepping rescued it — worth a mark on the solver timeline.
                Tracer::global().instant(Track::Solver, "gmin_recovery", &[]);
                return Ok(Solution::new(out.x, nn));
            }
            Err(e) => {
                if diag_on {
                    escalations.push(format!(
                        "gmin stepping converged but the final solve at gmin failed: {e}"
                    ));
                }
            }
        }
    }

    // 3. Source stepping.
    let mut x = x0;
    let mut factor = 0.0f64;
    let mut last_err;
    let mut step = 0.1f64;
    let mut failures = 0;
    while factor < 1.0 {
        let next = (factor + step).min(1.0);
        match newton_solve(circuit, ws, &x, &state, AnalysisKind::Dc, next, GMIN) {
            Ok(out) => {
                x = out.x;
                factor = next;
                step = (step * 1.5).min(0.25);
            }
            Err(e) => {
                step *= 0.25;
                failures += 1;
                last_err = e.to_string();
                if failures > 40 || step < 1e-6 {
                    tel.incr("spice.op.failures");
                    Tracer::global().instant(
                        Track::Solver,
                        "op_failure",
                        &[Arg::u64("failures", failures as u64)],
                    );
                    let detail =
                        format!("direct, gmin and source stepping all failed (last: {last_err})");
                    if diag_on {
                        escalations.push(format!(
                            "source stepping abandoned after {failures} failed solves \
                             at factor {factor:.3}, step {step:.1e}"
                        ));
                        crate::postmortem::record_op_failure(&detail, escalations);
                    }
                    return Err(SpiceError::NoConvergence {
                        analysis: "op",
                        time: 0.0,
                        detail,
                    });
                }
            }
        }
    }
    tel.incr("spice.op.source_recoveries");
    Tracer::global().instant(Track::Solver, "source_recovery", &[]);
    Ok(Solution::new(x, nn))
}
