//! Circuit analyses: DC operating point, DC sweep, transient.

pub mod dc_sweep;
pub mod op;
pub mod tran;

use oxterm_numerics::dense::DMatrix;
use oxterm_numerics::sparse::TripletMatrix;
use oxterm_numerics::sparse_lu::SparseLu;

use oxterm_telemetry::{PhaseId, Profiler, Telemetry};

use crate::circuit::Circuit;
use crate::device::{AnalysisKind, DenseSink, StampContext, TripletSink};
use crate::options::{SimOptions, ABSTOL, MAX_DV, RELTOL, SPARSE_THRESHOLD, VNTOL};
use crate::SpiceError;

/// Assembles the linearized MNA system at the candidate solution and solves
/// it, returning the next Newton iterate.
pub(crate) fn assemble_and_solve(
    circuit: &Circuit,
    candidate: &[f64],
    state: &[f64],
    kind: AnalysisKind,
    source_factor: f64,
    gshunt: f64,
) -> Result<Vec<f64>, SpiceError> {
    let n = circuit.n_unknowns();
    if n == 0 {
        return Ok(Vec::new());
    }
    let nn = circuit.n_nodes() - 1;
    let mut b = vec![0.0; n];

    let stamp_all = |sink: &mut dyn crate::device::MnaSink, b_len_check: usize| {
        debug_assert_eq!(b_len_check, n);
        for el in &circuit.elements {
            let mut ctx = StampContext {
                sink,
                candidate,
                state: &state[el.state_offset..el.state_offset + el.state_len],
                kind,
                source_factor,
                branch_base: nn + el.branch_offset,
            };
            el.device.stamp(&mut ctx);
        }
    };

    let tel = Telemetry::global();
    let prof = Profiler::global();
    if n <= SPARSE_THRESHOLD {
        let mut a = DMatrix::zeros(n, n);
        {
            let _stamp = prof.phase(PhaseId::NewtonStamp);
            let mut sink = DenseSink {
                a: &mut a,
                b: &mut b,
            };
            stamp_all(&mut sink, n);
            for i in 0..nn {
                a.add(i, i, gshunt);
            }
        }
        tel.incr("spice.newton.lu_dense");
        let _solve = prof.phase(PhaseId::NewtonSolveLu);
        let lu = a.factorize()?;
        Ok(lu.solve(&b)?)
    } else {
        let mut a = TripletMatrix::new(n, n);
        {
            let _stamp = prof.phase(PhaseId::NewtonStamp);
            let mut sink = TripletSink {
                a: &mut a,
                b: &mut b,
            };
            stamp_all(&mut sink, n);
            for i in 0..nn {
                a.add(i, i, gshunt);
            }
        }
        tel.incr("spice.newton.lu_sparse");
        let _solve = prof.phase(PhaseId::NewtonSolveLu);
        let lu = SparseLu::factorize(&a.to_csc())?;
        Ok(lu.solve(&b)?)
    }
}

/// Result of a Newton solve: the converged iterate and the iteration count.
pub(crate) struct NewtonOutcome {
    pub x: Vec<f64>,
    pub iters: usize,
}

/// Damped Newton–Raphson at fixed `kind`/`source_factor`/`gshunt`.
///
/// When post-mortem capture is active
/// ([`oxterm_telemetry::postmortem::is_active`]), a failed solve stashes a
/// diagnostic report — per-iteration residual ∞-norm history plus the
/// top-K worst-residual unknowns named via `Circuit::unknown_name` — for a
/// terminal failure site to enrich and write. Inactive capture costs one
/// relaxed atomic load per solve.
pub(crate) fn newton_solve(
    circuit: &Circuit,
    x0: &[f64],
    state: &[f64],
    kind: AnalysisKind,
    source_factor: f64,
    gshunt: f64,
    opts: &SimOptions,
) -> Result<NewtonOutcome, SpiceError> {
    let n = circuit.n_unknowns();
    let nn = circuit.n_nodes() - 1;
    let linear = !circuit.has_nonlinear();
    let tel = Telemetry::global();
    let prof = Profiler::global();
    let _newton = prof.phase(PhaseId::TranNewton);
    tel.incr("spice.newton.solves");
    let time = match kind {
        AnalysisKind::Dc => 0.0,
        AnalysisKind::Tran { time, .. } => time,
    };
    if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::NewtonStall) {
        tel.incr("spice.newton.failures");
        tel.incr("chaos.injected.newton_stall");
        return Err(SpiceError::NoConvergence {
            analysis: "newton",
            time,
            detail: "chaos: injected Newton stall".into(),
        });
    }
    let diag_on = oxterm_telemetry::postmortem::is_active();
    let mut residual_history: Vec<f64> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    let mut x = x0.to_vec();
    let mut worst = f64::INFINITY;
    for iter in 0..opts.max_newton_iters {
        let x_new = assemble_and_solve(circuit, &x, state, kind, source_factor, gshunt)?;
        if x_new.iter().any(|v| !v.is_finite()) {
            tel.incr("spice.newton.failures");
            if diag_on {
                crate::postmortem::stash_newton_failure(
                    circuit,
                    time,
                    "non-finite solution vector",
                    &residual_history,
                    &ratios,
                    &x,
                );
            }
            return Err(SpiceError::NoConvergence {
                analysis: "newton",
                time,
                detail: "non-finite solution vector".into(),
            });
        }
        if linear {
            tel.record("spice.newton.iterations", 1.0);
            return Ok(NewtonOutcome { x: x_new, iters: 1 });
        }
        let _residual = prof.phase(PhaseId::NewtonResidual);
        let mut converged = true;
        worst = 0.0;
        if diag_on {
            ratios.clear();
        }
        for i in 0..n {
            let atol = if i < nn { VNTOL } else { ABSTOL };
            let tol = atol + RELTOL * x_new[i].abs().max(x[i].abs());
            let err = (x_new[i] - x[i]).abs();
            let ratio = err / tol;
            worst = worst.max(ratio);
            if err > tol {
                converged = false;
            }
            if diag_on {
                ratios.push(ratio);
            }
        }
        if diag_on && residual_history.len() < crate::postmortem::MAX_RESIDUAL_HISTORY {
            residual_history.push(worst);
        }
        if converged {
            tel.record("spice.newton.iterations", (iter + 1) as f64);
            tel.record("spice.newton.final_residual", worst);
            return Ok(NewtonOutcome {
                x: x_new,
                iters: iter + 1,
            });
        }
        // Global damping: clamp node-voltage updates relative to the
        // previous iterate; branch currents take the full step.
        let mut damped = x_new;
        for i in 0..nn {
            let d = damped[i] - x[i];
            if d > MAX_DV {
                damped[i] = x[i] + MAX_DV;
            } else if d < -MAX_DV {
                damped[i] = x[i] - MAX_DV;
            }
        }
        x = damped;
    }
    tel.incr("spice.newton.failures");
    tel.record("spice.newton.final_residual", worst);
    let detail = format!(
        "{} iterations, worst error {worst:.2} × tolerance",
        opts.max_newton_iters
    );
    if diag_on {
        crate::postmortem::stash_newton_failure(
            circuit,
            time,
            &detail,
            &residual_history,
            &ratios,
            &x,
        );
    }
    Err(SpiceError::NoConvergence {
        analysis: "newton",
        time,
        detail,
    })
}
