//! Circuit analyses: DC operating point, DC sweep, transient.

pub mod dc_sweep;
pub mod op;
pub mod tran;

use oxterm_numerics::sparse::CscMatrix;
use oxterm_numerics::sparse_lu::SparseLu;

use oxterm_telemetry::{PhaseId, Profiler, Telemetry};

use crate::circuit::Circuit;
use crate::device::{AnalysisKind, MnaSink, StampContext};
use crate::options::{SimOptions, ABSTOL, GMIN, MAX_DV, RELTOL, VNTOL};
use crate::SpiceError;

/// The linearized MNA system of one analysis, re-assembled in place each
/// Newton iteration.
///
/// The sparsity pattern is every node diagonal (where `gshunt` lands) plus
/// whatever the first assembly stamps, and is kept for the whole analysis.
/// Later iterations zero the values, stamp straight into their pattern
/// slots and refactorize in place, allocating nothing. A stamp outside the
/// pattern (a device that starts conducting, a monitor that closes a
/// switch) is never dropped: it is set aside, the pattern grows to hold
/// it, and the values already stamped move to their new slots.
///
/// Devices are stamped exactly once per iteration. There is no separate
/// pattern pass, which would consume chaos fault draws and double-count
/// device counters.
pub(crate) struct MnaWorkspace {
    /// Newton options of the analysis that owns the workspace.
    sim: SimOptions,
    /// Non-ground node unknowns: the diagonal that takes `gshunt`.
    n_nodes: usize,
    a: CscMatrix,
    /// `slots[r·n + c]` is the index of `A[r, c]` in `a`'s values, or
    /// [`NO_SLOT`] off the pattern. A dense map makes a stamp one load; it
    /// costs `4·n²` bytes, 64 KiB for the largest shipped system
    /// (128 unknowns).
    slots: Vec<u32>,
    b: Vec<f64>,
    /// Stamps of the current assembly that fell outside the pattern.
    missed: Vec<(usize, usize, f64)>,
    lu: SparseLu,
}

/// [`MnaWorkspace::slots`] entry of a position outside the pattern.
const NO_SLOT: u32 = u32::MAX;

/// Stamps into a [`MnaWorkspace`]'s pattern slots.
struct SlotSink<'w> {
    n: usize,
    slots: &'w [u32],
    values: &'w mut [f64],
    b: &'w mut [f64],
    missed: &'w mut Vec<(usize, usize, f64)>,
}

impl MnaSink for SlotSink<'_> {
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        match self.slots[r * self.n + c] {
            NO_SLOT => self.missed.push((r, c, v)),
            k => self.values[k as usize] += v,
        }
    }
    #[inline]
    fn rhs(&mut self, r: usize, v: f64) {
        self.b[r] += v;
    }
}

impl MnaWorkspace {
    /// A workspace for `circuit` whose pattern holds only the node
    /// diagonal; the first assembly adds everything the devices stamp.
    pub(crate) fn new(circuit: &Circuit, sim: SimOptions) -> Self {
        let n = circuit.n_unknowns();
        let n_nodes = circuit.n_nodes() - 1;
        let mut ws = MnaWorkspace {
            sim,
            n_nodes,
            a: CscMatrix::from_pattern(n, n, (0..n_nodes).map(|i| (i, i))),
            slots: vec![NO_SLOT; n * n],
            b: vec![0.0; n],
            missed: Vec::new(),
            lu: SparseLu::default(),
        };
        ws.index_slots();
        ws
    }

    /// Points every pattern position's slot at its value index.
    fn index_slots(&mut self) {
        let a = &self.a;
        let n = a.n_rows();
        for c in 0..n {
            for k in a.col_ptr()[c]..a.col_ptr()[c + 1] {
                self.slots[a.row_idx()[k] * n + c] = k as u32;
            }
        }
    }

    /// The value slot of `(r, c)`, which must be in the pattern.
    fn slot(&self, r: usize, c: usize) -> usize {
        self.slots[r * self.a.n_rows() + c] as usize
    }

    /// Assembles the linearized MNA system at the candidate solution.
    fn assemble(
        &mut self,
        circuit: &Circuit,
        candidate: &[f64],
        state: &[f64],
        kind: AnalysisKind,
        source_factor: f64,
        gshunt: f64,
    ) {
        self.a.values_mut().fill(0.0);
        self.b.fill(0.0);
        let mut sink = SlotSink {
            n: self.a.n_rows(),
            slots: &self.slots,
            values: self.a.values_mut(),
            b: &mut self.b,
            missed: &mut self.missed,
        };
        for el in &circuit.elements {
            let mut ctx = StampContext {
                sink: &mut sink,
                candidate,
                state: &state[el.state_offset..el.state_offset + el.state_len],
                kind,
                source_factor,
                branch_base: self.n_nodes + el.branch_offset,
            };
            el.device.stamp(&mut ctx);
        }
        if !self.missed.is_empty() {
            self.grow();
        }
        for i in 0..self.n_nodes {
            let k = self.slot(i, i);
            self.a.values_mut()[k] += gshunt;
        }
    }

    /// Widens the pattern to hold the missed stamps, carrying over the
    /// values already stamped, then adds the missed values.
    fn grow(&mut self) {
        let n = self.a.n_rows();
        let old = &self.a;
        let entries = (0..n)
            .flat_map(|c| {
                (old.col_ptr()[c]..old.col_ptr()[c + 1]).map(move |k| (old.row_idx()[k], c))
            })
            .chain(self.missed.iter().map(|&(r, c, _)| (r, c)));
        let grown = CscMatrix::from_pattern(n, n, entries);
        let old = std::mem::replace(&mut self.a, grown);
        self.index_slots();
        for c in 0..n {
            for k in old.col_ptr()[c]..old.col_ptr()[c + 1] {
                let s = self.slot(old.row_idx()[k], c);
                self.a.values_mut()[s] = old.values()[k];
            }
        }
        let mut missed = std::mem::take(&mut self.missed);
        for (r, c, v) in missed.drain(..) {
            let s = self.slot(r, c);
            self.a.values_mut()[s] += v;
        }
        self.missed = missed;
    }

    /// Refactorizes the assembled system in place and solves it into `x`.
    fn factor_solve(&mut self, x: &mut [f64]) -> Result<(), SpiceError> {
        self.lu.factorize_into(&self.a)?;
        Ok(self.lu.solve_into(&self.b, x)?)
    }
}

/// L+U nonzeros of one sparse factorization of `circuit`'s MNA system,
/// assembled as the first Newton iteration of its operating point is
/// (zero start, full sources, final `gmin` shunt).
///
/// This is the per-iteration price of the LU phase; it touches no
/// telemetry.
///
/// # Errors
///
/// Returns [`SpiceError::Numerics`] when that system is singular.
pub fn lu_fill(circuit: &Circuit) -> Result<usize, SpiceError> {
    let mut ws = MnaWorkspace::new(circuit, SimOptions::default());
    let zero = vec![0.0; circuit.n_unknowns()];
    ws.assemble(
        circuit,
        &zero,
        &circuit.initial_state(),
        AnalysisKind::Dc,
        1.0,
        GMIN,
    );
    ws.lu.factorize_into(&ws.a)?;
    Ok(ws.lu.nnz())
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
    ws: &mut MnaWorkspace,
    x0: &[f64],
    state: &[f64],
    kind: AnalysisKind,
    source_factor: f64,
    gshunt: f64,
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
    let mut x_new = vec![0.0; n];
    let mut worst = f64::INFINITY;
    let max_iters = ws.sim.max_newton_iters;
    for iter in 0..max_iters {
        {
            let _stamp = prof.phase(PhaseId::NewtonStamp);
            ws.assemble(circuit, &x, state, kind, source_factor, gshunt);
        }
        tel.incr("spice.newton.lu_sparse");
        {
            let _solve = prof.phase(PhaseId::NewtonSolveLu);
            ws.factor_solve(&mut x_new)?;
        }
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
        for i in 0..nn {
            let d = x_new[i] - x[i];
            if d > MAX_DV {
                x_new[i] = x[i] + MAX_DV;
            } else if d < -MAX_DV {
                x_new[i] = x[i] - MAX_DV;
            }
        }
        std::mem::swap(&mut x, &mut x_new);
    }
    tel.incr("spice.newton.failures");
    tel.record("spice.newton.final_residual", worst);
    let detail = format!(
        "{} iterations, worst error {worst:.2} × tolerance",
        max_iters
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

#[cfg(test)]
mod tests {
    use std::any::Any;

    use super::*;
    use crate::analysis::tran::{run_transient, TranOptions};
    use crate::circuit::NodeId;
    use crate::device::Device;

    /// Conductance `g` between two nodes.
    #[derive(Debug)]
    struct G(NodeId, NodeId, f64);

    /// Voltage source ramping at `slope` V/s from 0 V at `t = 0`.
    #[derive(Debug)]
    struct Ramp(NodeId, f64);

    /// Injects `gm·v(ctrl)` into `out`, but only once the candidate
    /// `v(ctrl)` exceeds `level`: its off-diagonal `(out, ctrl)` stamp is
    /// absent from every assembly before the crossing.
    #[derive(Debug)]
    struct LateVccs {
        out: NodeId,
        ctrl: NodeId,
        gm: f64,
        level: f64,
    }

    /// Stamps `+1` then `−1` at `(out, ctrl)`: a value of exactly zero
    /// that puts the position in the pattern from the first assembly.
    #[derive(Debug)]
    struct Holder(NodeId, NodeId);

    macro_rules! any_impls {
        () => {
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        };
    }

    impl Device for G {
        fn name(&self) -> &str {
            "g"
        }
        fn stamp(&self, ctx: &mut StampContext<'_>) {
            ctx.stamp_conductance(self.0, self.1, self.2);
        }
        any_impls!();
    }

    impl Device for Ramp {
        fn name(&self) -> &str {
            "ramp"
        }
        fn n_branches(&self) -> usize {
            1
        }
        fn stamp(&self, ctx: &mut StampContext<'_>) {
            let v = self.1 * ctx.time() * ctx.source_factor();
            ctx.stamp_voltage_source(0, self.0, Circuit::gnd(), v);
        }
        any_impls!();
    }

    impl Device for LateVccs {
        fn name(&self) -> &str {
            "late_vccs"
        }
        fn is_nonlinear(&self) -> bool {
            true
        }
        fn stamp(&self, ctx: &mut StampContext<'_>) {
            if ctx.v(self.ctrl) > self.level {
                ctx.stamp_vccs(Circuit::gnd(), self.out, self.ctrl, Circuit::gnd(), self.gm);
            }
        }
        any_impls!();
    }

    impl Device for Holder {
        fn name(&self) -> &str {
            "holder"
        }
        fn stamp(&self, ctx: &mut StampContext<'_>) {
            let (r, c) = (ctx.node_unknown(self.0), ctx.node_unknown(self.1));
            ctx.mat(r, c, 1.0);
            ctx.mat(r, c, -1.0);
        }
        any_impls!();
    }

    /// A 1 V/µs ramp divided in half onto `ctrl`; `out` is loaded by 1 kΩ
    /// and fed by a [`LateVccs`] that switches on at `v(ctrl) = 0.2 V`.
    /// With `hold`, a [`Holder`] puts the late position in the pattern
    /// up front: the reference the growing pattern must match.
    fn late_circuit(hold: bool) -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new();
        let (a, ctrl, out) = (c.node("a"), c.node("ctrl"), c.node("out"));
        let gnd = Circuit::gnd();
        c.add(Ramp(a, 1e6));
        c.add(G(a, ctrl, 1e-3));
        c.add(G(ctrl, gnd, 1e-3));
        c.add(G(out, gnd, 1e-3));
        if hold {
            c.add(Holder(out, ctrl));
        }
        c.add(LateVccs {
            out,
            ctrl,
            gm: 1e-3,
            level: 0.2,
        });
        (c, ctrl, out)
    }

    #[test]
    fn late_stamp_grows_the_pattern_and_keeps_every_value() {
        let (c, ctrl, _) = late_circuit(false);
        let kind = AnalysisKind::Tran {
            time: 5e-7,
            dt: 1e-8,
        };
        let state = c.initial_state();
        let candidate = |v_ctrl: f64| {
            let mut x = vec![0.0; c.n_unknowns()];
            x[ctrl.unknown().unwrap()] = v_ctrl;
            x
        };
        let mut ws = MnaWorkspace::new(&c, SimOptions::default());
        ws.assemble(&c, &candidate(0.1), &state, kind, 1.0, GMIN);
        let before = ws.a.nnz();
        ws.assemble(&c, &candidate(0.3), &state, kind, 1.0, GMIN);
        assert_eq!(ws.a.nnz(), before + 1, "the late stamp joined the pattern");
        assert!(ws.missed.is_empty());

        // A workspace whose first assembly already saw the late stamp
        // holds the same pattern and values, so it solves bit for bit.
        let mut fresh = MnaWorkspace::new(&c, SimOptions::default());
        fresh.assemble(&c, &candidate(0.3), &state, kind, 1.0, GMIN);
        assert_eq!(ws.a, fresh.a);
        assert_eq!(ws.b, fresh.b);
        let (mut x, mut xf) = (vec![0.0; c.n_unknowns()], vec![0.0; c.n_unknowns()]);
        ws.factor_solve(&mut x).unwrap();
        fresh.factor_solve(&mut xf).unwrap();
        assert_eq!(x, xf);
    }

    #[test]
    fn transient_through_pattern_growth_matches_reference() {
        let run = |hold| {
            let (mut c, ctrl, out) = late_circuit(hold);
            let r = run_transient(&mut c, &TranOptions::for_duration(1e-6), &mut [])
                .expect("transient runs");
            (r.times().to_vec(), r.node_trace(ctrl), r.node_trace(out))
        };
        let (t, ctrl, out) = run(false);
        let (t_ref, ctrl_ref, out_ref) = run(true);
        assert_eq!(t, t_ref);
        for (w, w_ref) in [(&ctrl, &ctrl_ref), (&out, &out_ref)] {
            for (y, y_ref) in w.y().iter().zip(w_ref.y()) {
                assert!(
                    (y - y_ref).abs() <= 1e-12 * y_ref.abs(),
                    "{y} vs reference {y_ref}"
                );
            }
        }
        // The late stamp fired mid-run: `out` follows `ctrl` once it
        // crosses 0.2 V, and stays at 0 V before.
        assert_eq!(out.y()[1], 0.0);
        assert!((out.last() - ctrl.last()).abs() < 1e-9, "{}", out.last());
        assert!(ctrl.last() > 0.45);
    }
}
