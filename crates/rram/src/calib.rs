//! Fast scalar programming simulations and model calibration.
//!
//! Monte Carlo reproduction of the paper's Figs 11–13 needs on the order of
//! `500 runs × 16 levels` terminated-RESET simulations. Running each through
//! the full MNA transient engine works but is wasteful for a series
//! `driver – R_series – cell` path, so this module provides a semi-analytic
//! fast path. The filament state obeys the autonomous scalar ODE
//! `dρ/dt = F(ρ)`: at each `ρ` the cell voltage is solved against the access
//! path's load line (the series resistance, or during SET the access
//! transistor's compliance current) by Newton with the analytic Jacobian,
//! warm-started from the previous evaluations, and [`model::state_rate`]
//! gives the rate. One error-controlled Dormand–Prince 5(4) integrator
//! carries the state together with the driver and cell energies. SET and
//! fixed-width RESET pulses integrate in time. A terminated RESET
//! integrates time and energies as functions of `ρ`, from the start state
//! down to the closed-form trip state at which the cell current equals
//! `IrefR`, so the trip is located exactly. The integration test suite
//! cross-checks this fast path against the full circuit-level transient
//! and against a Richardson-extrapolated fixed-step reference.
//!
//! The same fast path makes model calibration affordable:
//! [`calibrate`] runs a Nelder–Mead search over the model card to match the
//! paper's published Table 2 / Fig 13 anchors.

use oxterm_numerics::optimize::{nelder_mead, NelderMeadOptions};
use oxterm_numerics::roots::{newton_bisect, RootOptions};

use crate::model;
use crate::params::{InstanceVariation, OxramParams};
use crate::RramError;
use oxterm_telemetry::joule::{DeviceClass, JouleLedger, Role};
use oxterm_telemetry::{Arg, PhaseId, Profiler, Telemetry, Tracer, Track};

/// Conditions for a current-terminated RESET operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResetConditions {
    /// Driver voltage applied across the series path (V).
    pub v_drive: f64,
    /// Series resistance: access transistor + line + termination input (Ω).
    pub r_series: f64,
    /// Termination reference current `IrefR` (A).
    pub i_ref: f64,
    /// Starting filament state (LRS = 1.0).
    pub rho_start: f64,
    /// Abandon the run after this long (s).
    pub t_max: f64,
    /// Read-back voltage for the reported resistance (V).
    pub v_read: f64,
}

impl ResetConditions {
    /// The conditions used throughout the paper reproduction: SL driven at
    /// ≈1.2 V (Table 1) through ≈3 kΩ of access-transistor and line
    /// resistance, 0.3 V read-back. The exact values are the calibration
    /// fit's optimum against the paper's Table 2.
    pub fn paper_defaults(i_ref: f64) -> Self {
        ResetConditions {
            v_drive: 1.1523,
            r_series: 3.6131e3,
            i_ref,
            rho_start: 1.0,
            t_max: 60e-6,
            v_read: 0.3,
        }
    }
}

/// Result of a terminated (or fixed-width) RESET.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TerminationOutcome {
    /// Final filament state.
    pub rho_final: f64,
    /// Read resistance at `v_read` (Ω).
    pub r_read_ohms: f64,
    /// Time from pulse start to termination (s).
    pub latency_s: f64,
    /// Energy drawn from the driver, `∫ v_drive·i dt` (J).
    pub energy_j: f64,
    /// Cell current at pulse start (A).
    pub i_initial: f64,
}

/// The current the access path delivers at cell voltage `v`.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// The driver through the series path: `(v_drive − v)/r_series`.
    Divider { v_drive: f64, r_series: f64 },
    /// A saturated access transistor: the constant compliance current.
    Compliance { i: f64 },
}

impl Load {
    fn current(self, v: f64) -> f64 {
        match self {
            Load::Divider { v_drive, r_series } => (v_drive - v) / r_series,
            Load::Compliance { i } => i,
        }
    }

    /// `−∂current/∂v`, the load's share of the Newton Jacobian.
    fn conductance(self) -> f64 {
        match self {
            Load::Divider { r_series, .. } => 1.0 / r_series,
            Load::Compliance { .. } => 0.0,
        }
    }
}

/// Solver work of one fast-path run, counted locally and flushed to
/// telemetry once per run so the step loop stays free of atomics.
#[derive(Debug, Default)]
struct SolveWork {
    newton_iters: u64,
    fallbacks: u64,
}

impl SolveWork {
    fn flush(&self, tel: &Telemetry) {
        tel.add("rram.divider.newton_iters", self.newton_iters);
        tel.add("rram.divider.fallbacks", self.fallbacks);
    }
}

/// Newton iterates tried from the warm start before the bracketed fallback.
const WARM_NEWTON_BUDGET: u32 = 12;

/// Solves `I(v_c, ρ) = load(v_c)` for the cell-voltage magnitude on
/// `(0, v_drive)` and returns `(v_c, I(v_c, ρ))`.
///
/// Newton starts from `guess` (a [`WarmStart`] prediction) with the analytic
/// Jacobian `∂I/∂v + load conductance`. A guess or iterate outside
/// `(0, v_drive)`, or an exhausted iteration budget, falls back to the
/// bracketed [`newton_bisect`] on `[0, v_drive]`. Both accept at the
/// [`RootOptions::default`] tolerances; on acceptance the warm path also
/// applies the Newton correction it has already computed, so the returned
/// root is accurate well below the `f_tol` band.
fn solve_cell(
    params: &OxramParams,
    inst: &InstanceVariation,
    rho: f64,
    v_drive: f64,
    load: Load,
    guess: f64,
    work: &mut SolveWork,
) -> Result<(f64, f64), RramError> {
    let opts = RootOptions::default();
    let inside = |v: f64| v > 0.0 && v < v_drive;
    let mut v = guess;
    let mut iters = 0;
    while inside(v) && iters < WARM_NEWTON_BUDGET {
        iters += 1;
        work.newton_iters += 1;
        let (i, g) = model::current_and_conductance(params, inst, v, rho);
        let f = i - load.current(v);
        let step = f / (g + load.conductance());
        let next = v - step;
        if f.abs() <= opts.f_tol || step.abs() <= opts.x_tol {
            // Converged. The final correction comes free and squares the
            // error; linearising I about `v` gives the current there to the
            // same order without another transcendental call.
            return Ok(if inside(next) {
                (next, i - g * step)
            } else {
                (v, i)
            });
        }
        v = next;
    }
    work.fallbacks += 1;
    let f = |vc: f64| model::cell_current(params, inst, vc, rho) - load.current(vc);
    let v = newton_bisect(f, 0.0, v_drive, opts)?;
    Ok((v, model::cell_current(params, inst, v, rho)))
}

/// Relative tolerance of the fast path's step control, applied to every
/// integrated component: the state (or time) and both energies.
const RTOL: f64 = 1e-6;

/// Dormand–Prince 5(4) stage nodes `c₂…c₇`.
const DP_C: [f64; 6] = [1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];

/// Dormand–Prince 5(4) stage weights: row `j` builds stage `j + 2` from
/// stages `1…j + 1`. The last row is the fifth-order solution, so the
/// seventh stage is `f` at the step's end (first same as last).
#[rustfmt::skip]
const DP_A: [[f64; 6]; 6] = [
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
];

/// Fifth- minus fourth-order weights: the local error estimate.
#[rustfmt::skip]
const DP_E: [f64; 7] = [
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0,
    -1.0 / 40.0,
];

/// One right-hand-side evaluation: the derivatives of the three integrated
/// components and the cell current they came from.
#[derive(Debug, Clone, Copy)]
struct Stage {
    dy: [f64; 3],
    i: f64,
}

/// Error-controlled Dormand–Prince 5(4) integration of `y' = f(x, y)` in
/// three components. `k1` always holds `f` at `(x, y)`: an accepted step's
/// last stage is the next step's first.
struct Dopri {
    x: f64,
    y: [f64; 3],
    k1: Stage,
    /// Step size to try next.
    h: f64,
    /// Accepted steps.
    steps: u64,
}

impl Dopri {
    /// Starts at `(x, y)`, where `f` is `k1`, trying a step of `h` first.
    fn new(x: f64, y: [f64; 3], k1: Stage, h: f64) -> Self {
        Dopri {
            x,
            y,
            k1,
            h,
            steps: 0,
        }
    }

    /// Takes one accepted step toward `x_end`, landing on it exactly when
    /// it is within the step size.
    ///
    /// A step is accepted when every component's error estimate is within
    /// [`RTOL`] of its magnitude; the next size follows the usual
    /// `0.9·err^(−1/5)` rule, kept within `[0.2, 5]` and not grown straight
    /// after a rejection.
    fn step<F>(&mut self, x_end: f64, f: &mut F) -> Result<(), RramError>
    where
        F: FnMut(f64, &[f64; 3]) -> Result<Stage, RramError>,
    {
        let mut rejected = false;
        loop {
            let last = self.x + self.h >= x_end;
            let h = if last { x_end - self.x } else { self.h };
            let mut k = [self.k1; 7];
            let mut y = self.y;
            for (j, row) in DP_A.iter().enumerate() {
                for (c, yc) in y.iter_mut().enumerate() {
                    let sum: f64 = row[..=j].iter().zip(&k).map(|(a, s)| a * s.dy[c]).sum();
                    *yc = self.y[c] + h * sum;
                }
                k[j + 1] = f(self.x + DP_C[j] * h, &y)?;
            }
            let mut err = 0.0f64;
            for (c, yc) in y.iter().enumerate() {
                let e: f64 = DP_E.iter().zip(&k).map(|(w, s)| w * s.dy[c]).sum();
                let e = (h * e).abs();
                let r = if e == 0.0 {
                    0.0
                } else {
                    e / (RTOL * self.y[c].abs().max(yc.abs()))
                };
                // A NaN estimate must reject the step, so it wins the max.
                if r.is_nan() || r > err {
                    err = r;
                }
            }
            if err <= 1.0 {
                self.x = if last { x_end } else { self.x + h };
                self.y = y;
                self.k1 = k[6];
                self.steps += 1;
                self.h = h * step_factor(err, if rejected { 1.0 } else { 5.0 });
                return Ok(());
            }
            rejected = true;
            self.h = h * step_factor(err, 1.0);
            if self.x + self.h == self.x {
                return Err(oxterm_numerics::NumericsError::NoConvergence {
                    iterations: self.steps as usize,
                    residual: err,
                }
                .into());
            }
        }
    }
}

/// Step-size factor `0.9·err^(−1/5)` kept within `[0.2, max]`; a NaN error
/// estimate shrinks by the full `0.2`.
fn step_factor(err: f64, max: f64) -> f64 {
    let fac = 0.9 * err.powf(-0.2);
    if fac.is_nan() {
        0.2
    } else {
        fac.clamp(0.2, max)
    }
}

/// Newton's starting cell voltage for the next state `ρ`: the linear
/// extrapolation in `ρ` through the last two solved points, or the last
/// voltage alone when there is one point or the line leaves `(0, v_drive)`.
struct WarmStart {
    last: (f64, f64),
    prev: Option<(f64, f64)>,
}

impl WarmStart {
    fn new(rho: f64, v: f64) -> Self {
        WarmStart {
            last: (rho, v),
            prev: None,
        }
    }

    fn guess(&self, rho: f64, v_drive: f64) -> f64 {
        let (r1, v1) = self.last;
        let Some((r0, v0)) = self.prev else {
            return v1;
        };
        let v = v1 + (v1 - v0) / (r1 - r0) * (rho - r1);
        if v > 0.0 && v < v_drive {
            v
        } else {
            v1
        }
    }

    fn record(&mut self, rho: f64, v: f64) {
        if rho != self.last.0 {
            self.prev = Some(self.last);
        }
        self.last = (rho, v);
    }
}

/// The first step to try: `1 %` of the scale on which a component of
/// magnitude `scale` changing at `rate` moves, capped at the whole `span`.
fn first_step(scale: f64, rate: f64, span: f64) -> f64 {
    let h = 0.01 * scale.abs() / rate.abs();
    if h.is_finite() && h > 0.0 {
        h.min(span)
    } else {
        span
    }
}

/// A fixed-width pulse integrated in time.
#[derive(Debug, Clone, Copy)]
struct PulseRun {
    rho: f64,
    energy: f64,
    e_cell: f64,
    i_initial: f64,
    i_final: f64,
}

/// Integrates `(ρ, E, E_cell)` over `width` seconds from `rho_start`.
/// `solve(ρ, guess)` returns the cell operating point `(v_c, I)` from a
/// [`WarmStart`] guess; `polarity` signs `v_c` for the state law (+1 SET,
/// −1 RESET).
fn integrate_pulse<S>(
    params: &OxramParams,
    inst: &InstanceVariation,
    v_drive: f64,
    polarity: f64,
    rho_start: f64,
    width: f64,
    mut solve: S,
) -> Result<PulseRun, RramError>
where
    S: FnMut(f64, f64) -> Result<(f64, f64), RramError>,
{
    let mut warm = WarmStart::new(rho_start, 0.5 * v_drive);
    let mut f = |_t: f64, y: &[f64; 3]| -> Result<Stage, RramError> {
        let (vc, i) = solve(y[0], warm.guess(y[0], v_drive))?;
        warm.record(y[0], vc);
        let rate = model::state_rate(params, inst, y[0], polarity * vc, i.abs());
        Ok(Stage {
            dy: [rate, v_drive * i, vc * i],
            i,
        })
    };
    let y0 = [rho_start, 0.0, 0.0];
    let k1 = f(0.0, &y0)?;
    let mut dp = Dopri::new(0.0, y0, k1, first_step(rho_start, k1.dy[0], width));
    while dp.x < width {
        dp.step(width, &mut f)?;
    }
    Ok(PulseRun {
        rho: dp.y[0].clamp(0.0, 1.0),
        energy: dp.y[1],
        e_cell: dp.y[2],
        i_initial: k1.i,
        i_final: dp.k1.i,
    })
}

/// Simulates one current-terminated RESET in the fast scalar path.
///
/// The driver applies `v_drive` across `r_series` in series with the cell
/// (RESET polarity) until the cell current falls to `i_ref`. The current
/// falls monotonically with `ρ`, and the trip happens at the cell voltage
/// `v* = v_drive − r_series·i_ref`, so the trip state `ρ*` is the closed
/// form [`model::rho_at_current`]`(v*, i_ref)`. Time and both energies are
/// integrated as functions of `ρ` from `rho_start` down to `ρ*`; a cell
/// that already draws no more than `i_ref` trips at `t = 0`.
///
/// # Errors
///
/// * [`RramError::InvalidParameter`] for an invalid model card,
/// * [`RramError::NotTerminated`] if the current never reaches `i_ref`
///   within `t_max` (reference below the leakage floor), quoting the cell
///   current at `t_max`,
/// * [`RramError::Numerics`] if the divider solve fails.
pub fn simulate_reset_termination(
    params: &OxramParams,
    inst: &InstanceVariation,
    cond: &ResetConditions,
) -> Result<TerminationOutcome, RramError> {
    params.validate()?;
    if cond.i_ref.is_nan() || cond.i_ref <= 0.0 {
        return Err(RramError::InvalidParameter {
            name: "i_ref",
            value: cond.i_ref,
        });
    }
    let tel = Telemetry::global();
    let _phase = Profiler::global().phase(PhaseId::RramFastReset);
    tel.incr("rram.termination.runs");
    if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::NewtonStall) {
        // Fast-path analogue of a forced Newton stall: the Monte Carlo
        // volume campaigns (Figs. 11/13) program cells through this
        // semi-analytic path, never through `newton_solve`.
        tel.incr("chaos.injected.newton_stall");
        return Err(RramError::Injected { site: "reset_fast" });
    }
    // One span per fast-path terminated RESET: the Monte Carlo volume
    // driver, so the trace shows what each worker is chewing on.
    let mut trace_span = Tracer::global().span(Track::Program, "reset_fast");
    trace_span.arg(Arg::f64("i_ref_a", cond.i_ref));
    let load = Load::Divider {
        v_drive: cond.v_drive,
        r_series: cond.r_series,
    };
    let mut work = SolveWork::default();
    let rho_start = cond.rho_start;
    let (vc0, i_initial) = solve_cell(
        params,
        inst,
        rho_start,
        cond.v_drive,
        load,
        0.5 * cond.v_drive,
        &mut work,
    )?;
    let trip = if i_initial <= cond.i_ref {
        Some(Trip::at_start(rho_start, i_initial))
    } else {
        integrate_to_trip(params, inst, cond, load, (vc0, i_initial), &mut work)?
    };
    let Some(trip) = trip else {
        // Report the current the cell would carry at the give-up time.
        let i_final = integrate_pulse(
            params,
            inst,
            cond.v_drive,
            -1.0,
            rho_start,
            cond.t_max,
            |rho, guess| solve_cell(params, inst, rho, cond.v_drive, load, guess, &mut work),
        )?
        .i_final;
        tel.incr("rram.termination.not_terminated");
        work.flush(tel);
        Tracer::global().instant(
            Track::Program,
            "not_terminated",
            &[
                Arg::f64("i_ref_a", cond.i_ref),
                Arg::f64("i_final_a", i_final),
            ],
        );
        return Err(RramError::NotTerminated {
            i_ref: cond.i_ref,
            t_max: cond.t_max,
            i_final,
        });
    };
    if tel.is_enabled() {
        tel.add("rram.termination.steps", trip.steps);
        work.flush(tel);
        tel.record("rram.termination.latency_s", trip.latency);
        // Residual of the located trip: how far the current at the trip
        // state sits below IrefR (round-off unless the cell started there).
        tel.record(
            "rram.termination.overshoot_rel",
            (cond.i_ref - trip.i) / cond.i_ref,
        );
    }
    trace_span.arg(Arg::u64("steps", trip.steps));
    trace_span.arg(Arg::f64("latency_sim_s", trip.latency));
    let ledger = JouleLedger::global();
    if ledger.is_enabled() {
        // The cell dissipates v_c·i; the balance of the drive,
        // (v_drive − v_c)·i, drops across the series path (access
        // transistor + line), which is what r_series models.
        ledger.record_energy(DeviceClass::RramCell, Role::RramCell, trip.e_cell);
        ledger.record_energy(
            DeviceClass::Resistor,
            Role::AccessTransistor,
            trip.energy - trip.e_cell,
        );
        ledger.mark(oxterm_telemetry::profiler::monotonic_ns());
    }
    Ok(TerminationOutcome {
        rho_final: trip.rho,
        r_read_ohms: model::read_resistance(params, inst, trip.rho, cond.v_read),
        latency_s: trip.latency,
        energy_j: trip.energy,
        i_initial,
    })
}

/// Where a terminated RESET tripped.
#[derive(Debug, Clone, Copy)]
struct Trip {
    latency: f64,
    energy: f64,
    e_cell: f64,
    rho: f64,
    /// Cell current at the trip state.
    i: f64,
    /// Accepted integrator steps.
    steps: u64,
}

impl Trip {
    /// The trip of a cell that already draws no more than `i_ref`.
    fn at_start(rho: f64, i: f64) -> Self {
        Trip {
            latency: 0.0,
            energy: 0.0,
            e_cell: 0.0,
            rho,
            i,
            steps: 0,
        }
    }
}

/// Integrates a terminated RESET from its start state, where the cell sits
/// at `(v_c, I)` with `I > i_ref`, down to the trip state. `None` if the
/// cell cannot get there within `t_max`.
fn integrate_to_trip(
    params: &OxramParams,
    inst: &InstanceVariation,
    cond: &ResetConditions,
    load: Load,
    (vc0, i0): (f64, f64),
    work: &mut SolveWork,
) -> Result<Option<Trip>, RramError> {
    let rho_start = cond.rho_start;
    let v_trip = cond.v_drive - cond.r_series * cond.i_ref;
    let Some(rho_trip) = model::rho_at_current(params, inst, v_trip, cond.i_ref) else {
        // The hopping background alone carries more than i_ref.
        return Ok(None);
    };
    if rho_trip >= rho_start {
        // Round-off at the boundary: the start state is the trip state.
        return Ok(Some(Trip::at_start(rho_start, i0)));
    }
    // Over s = ρ_start − ρ, increasing: dt/ds = −1/F(ρ), and the energies
    // follow as the power times dt/ds.
    let stage = |rho: f64, vc: f64, i: f64| {
        let dt_ds = -1.0 / model::state_rate(params, inst, rho, -vc, i);
        Stage {
            dy: [dt_ds, cond.v_drive * i * dt_ds, vc * i * dt_ds],
            i,
        }
    };
    let k1 = stage(rho_start, vc0, i0);
    if !k1.dy[0].is_finite() {
        // Below the RESET threshold the state holds for good.
        return Ok(None);
    }
    let mut warm = WarmStart::new(rho_start, vc0);
    let mut f = |s: f64, _: &[f64; 3]| -> Result<Stage, RramError> {
        let rho = rho_start - s;
        let guess = warm.guess(rho, cond.v_drive);
        let (vc, i) = solve_cell(params, inst, rho, cond.v_drive, load, guess, work)?;
        warm.record(rho, vc);
        Ok(stage(rho, vc, i))
    };
    let span = rho_start - rho_trip;
    let mut dp = Dopri::new(0.0, [0.0; 3], k1, first_step(rho_start, 1.0, span));
    while dp.x < span {
        dp.step(span, &mut f)?;
        if dp.y[0] > cond.t_max {
            return Ok(None);
        }
    }
    Ok(Some(Trip {
        latency: dp.y[0],
        energy: dp.y[1],
        e_cell: dp.y[2],
        rho: rho_trip,
        i: dp.k1.i,
        steps: dp.steps,
    }))
}

/// A fixed-width (standard, non-terminated) RESET pulse — the paper's
/// baseline: a worst-case-sized pulse (3.5 µs in Fig 10) that drives the
/// cell deep into HRS regardless of the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandardResetPulse {
    /// Driver voltage (V).
    pub v_drive: f64,
    /// Series resistance (Ω).
    pub r_series: f64,
    /// Pulse width (s).
    pub width: f64,
}

impl StandardResetPulse {
    /// The Fig 10 worst-case baseline at full-rail drive (see
    /// EXPERIMENTS.md deviation 1 for why our model needs the rail to go
    /// deep within 3.5 µs).
    pub fn paper_baseline() -> Self {
        StandardResetPulse {
            v_drive: 3.0,
            r_series: 3.6131e3,
            width: 3.5e-6,
        }
    }
}

/// Simulates a fixed-width (standard, non-terminated) RESET pulse.
///
/// # Errors
///
/// Propagates divider-solve failures.
pub fn simulate_standard_reset(
    params: &OxramParams,
    inst: &InstanceVariation,
    pulse: &StandardResetPulse,
    rho_start: f64,
    v_read: f64,
) -> Result<TerminationOutcome, RramError> {
    params.validate()?;
    let load = Load::Divider {
        v_drive: pulse.v_drive,
        r_series: pulse.r_series,
    };
    let mut work = SolveWork::default();
    let run = integrate_pulse(
        params,
        inst,
        pulse.v_drive,
        -1.0,
        rho_start,
        pulse.width,
        |rho, guess| solve_cell(params, inst, rho, pulse.v_drive, load, guess, &mut work),
    )?;
    let tel = Telemetry::global();
    if tel.is_enabled() {
        work.flush(tel);
    }
    Ok(TerminationOutcome {
        rho_final: run.rho,
        r_read_ohms: model::read_resistance(params, inst, run.rho, v_read),
        latency_s: pulse.width,
        energy_j: run.energy,
        i_initial: run.i_initial,
    })
}

/// The worst-case open-loop RESET used as the termination-savings baseline:
/// the *same* drive as `cond` (`v_drive` through `r_series`) held for the
/// full termination budget `cond.t_max` with the comparator disabled.
///
/// Every terminated write saves `worst.energy_j − energy_j` joules and
/// `cond.t_max − latency_s` seconds against this run. The dynamics do not
/// depend on `i_ref`, so one call covers every level programmed under the
/// same conditions. The run is hypothetical (no write uses it), so it does
/// **not** feed the [`JouleLedger`].
///
/// # Errors
///
/// Propagates divider-solve failures and invalid cards.
pub fn simulate_worst_case_reset(
    params: &OxramParams,
    inst: &InstanceVariation,
    cond: &ResetConditions,
) -> Result<TerminationOutcome, RramError> {
    let pulse = StandardResetPulse {
        v_drive: cond.v_drive,
        r_series: cond.r_series,
        width: cond.t_max,
    };
    simulate_standard_reset(params, inst, &pulse, cond.rho_start, cond.v_read)
}

/// Conditions for a SET operation with compliance current.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetConditions {
    /// Driver voltage (V).
    pub v_drive: f64,
    /// Series resistance (Ω).
    pub r_series: f64,
    /// Access-transistor compliance current (A).
    pub i_compliance: f64,
    /// Pulse width (s).
    pub width: f64,
    /// Starting filament state.
    pub rho_start: f64,
    /// Read-back voltage (V).
    pub v_read: f64,
}

impl SetConditions {
    /// The paper's standard SET: BL at 1.2 V, ~100 ns effective switching,
    /// ≈100 µA compliance from the 0.8/0.5 µm access transistor (Fig 1c).
    /// The pulse is sized so every cell saturates onto the compliance-
    /// defined LRS, which is what keeps the paper's LRS distribution tight.
    pub fn paper_defaults() -> Self {
        SetConditions {
            v_drive: 1.2,
            r_series: 2.0e3,
            i_compliance: 100e-6,
            width: 300e-9,
            rho_start: 0.1,
            v_read: 0.3,
        }
    }
}

/// Result of a SET operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetOutcome {
    /// Final filament state.
    pub rho_final: f64,
    /// Read resistance at `v_read` (Ω).
    pub r_read_ohms: f64,
    /// Energy drawn from the driver (J).
    pub energy_j: f64,
}

/// Simulates a compliance-limited SET pulse.
///
/// When the divider current would exceed the compliance, the access
/// transistor saturates: the current is clamped and the cell voltage
/// re-solved from the conduction law at the clamped current.
///
/// # Errors
///
/// Propagates divider/inversion solve failures and invalid cards.
pub fn simulate_set(
    params: &OxramParams,
    inst: &InstanceVariation,
    cond: &SetConditions,
) -> Result<SetOutcome, RramError> {
    params.validate()?;
    let _phase = Profiler::global().phase(PhaseId::RramFastSet);
    let divider = Load::Divider {
        v_drive: cond.v_drive,
        r_series: cond.r_series,
    };
    let clamp = Load::Compliance {
        i: cond.i_compliance,
    };
    // With exactly the compliance current through the series path the cell
    // sees `v_knee`. The divider current exceeds the compliance iff the cell
    // already draws more than that at `v_knee` (the divider residual is
    // increasing in v_c), so one current evaluation picks the load line.
    let v_knee = cond.v_drive - cond.r_series * cond.i_compliance;
    let mut work = SolveWork::default();
    let run = integrate_pulse(
        params,
        inst,
        cond.v_drive,
        1.0,
        cond.rho_start,
        cond.width,
        |rho, guess| {
            if model::cell_current(params, inst, v_knee, rho) > cond.i_compliance {
                let (vc, _) = solve_cell(params, inst, rho, cond.v_drive, clamp, guess, &mut work)?;
                Ok((vc, cond.i_compliance))
            } else {
                solve_cell(params, inst, rho, cond.v_drive, divider, guess, &mut work)
            }
        },
    )?;
    let tel = Telemetry::global();
    if tel.is_enabled() {
        work.flush(tel);
    }
    let ledger = JouleLedger::global();
    if ledger.is_enabled() {
        ledger.record_energy(DeviceClass::RramCell, Role::RramCell, run.e_cell);
        ledger.record_energy(
            DeviceClass::Resistor,
            Role::AccessTransistor,
            run.energy - run.e_cell,
        );
    }
    Ok(SetOutcome {
        rho_final: run.rho,
        r_read_ohms: model::read_resistance(params, inst, run.rho, cond.v_read),
        energy_j: run.energy,
    })
}

/// The paper's published anchors used as the calibration target.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationTarget {
    /// `(IrefR in µA, RHRS in kΩ)` — Table 2.
    pub allocation: Vec<(f64, f64)>,
    /// `(IrefR in µA, latency in s)` — Fig 10 / Fig 13b anchors.
    pub latencies: Vec<(f64, f64)>,
    /// `(IrefR in µA, RESET energy in J)` — Fig 13a anchors (median-level
    /// estimates consistent with the reported 25 pJ average / 150 pJ
    /// maximum).
    pub energies: Vec<(f64, f64)>,
    /// LRS read resistance at 0.3 V (Ω) — Fig 3's RLRS median.
    pub r_lrs: f64,
}

impl CalibrationTarget {
    /// Table 2 plus the Fig 10 (2.6 µs @ 10 µA), Fig 13b (4.01 µs @ 6 µA),
    /// and Fig 13a energy anchors.
    pub fn paper() -> Self {
        CalibrationTarget {
            energies: vec![(6.0, 80e-12), (36.0, 15e-12)],
            r_lrs: 10e3,
            allocation: vec![
                (6.0, 267.0),
                (8.0, 185.0),
                (10.0, 153.0),
                (12.0, 125.0),
                (14.0, 106.0),
                (16.0, 92.0),
                (18.0, 81.0),
                (20.0, 72.4),
                (22.0, 65.3),
                (24.0, 59.4),
                (26.0, 54.5),
                (28.0, 50.3),
                (30.0, 46.6),
                (32.0, 43.45),
                (34.0, 40.65),
                (36.0, 38.17),
            ],
            latencies: vec![(10.0, 2.6e-6), (6.0, 4.01e-6)],
        }
    }
}

/// Result of a calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationResult {
    /// The fitted model card.
    pub params: OxramParams,
    /// Fitted driver voltage (V).
    pub v_drive: f64,
    /// Fitted series resistance (Ω).
    pub r_series: f64,
    /// RMS log-space resistance error against the anchors.
    pub rms_log_error: f64,
    /// Objective evaluations consumed.
    pub evals: usize,
}

/// Objective for the calibration search (shared with tests).
fn calibration_objective(
    params: &OxramParams,
    v_drive: f64,
    r_series: f64,
    target: &CalibrationTarget,
) -> f64 {
    if params.validate().is_err() || !(0.5..=3.3).contains(&v_drive) || r_series <= 100.0 {
        return f64::INFINITY;
    }
    let inst = InstanceVariation::nominal();
    let mut err = 0.0;
    for &(i_ua, r_kohm) in &target.allocation {
        let cond = ResetConditions {
            v_drive,
            r_series,
            i_ref: i_ua * 1e-6,
            ..ResetConditions::paper_defaults(i_ua * 1e-6)
        };
        match simulate_reset_termination(params, &inst, &cond) {
            Ok(out) => {
                let e = (out.r_read_ohms / (r_kohm * 1e3)).ln();
                err += e * e;
            }
            Err(_) => return f64::INFINITY,
        }
    }
    for &(i_ua, lat) in &target.latencies {
        let cond = ResetConditions {
            v_drive,
            r_series,
            i_ref: i_ua * 1e-6,
            ..ResetConditions::paper_defaults(i_ua * 1e-6)
        };
        match simulate_reset_termination(params, &inst, &cond) {
            Ok(out) => {
                let e = (out.latency_s / lat).ln();
                err += 4.0 * e * e;
            }
            Err(_) => return f64::INFINITY,
        }
    }
    {
        let r_lrs = crate::model::read_resistance(params, &inst, 1.0, 0.3);
        let e = (r_lrs / target.r_lrs).ln();
        err += 2.0 * e * e;
    }
    for &(i_ua, energy) in &target.energies {
        let cond = ResetConditions {
            v_drive,
            r_series,
            i_ref: i_ua * 1e-6,
            ..ResetConditions::paper_defaults(i_ua * 1e-6)
        };
        match simulate_reset_termination(params, &inst, &cond) {
            Ok(out) => {
                let e = (out.energy_j / energy).ln();
                err += 1.5 * e * e;
            }
            Err(_) => return f64::INFINITY,
        }
    }
    err
}

/// Calibrates the model card (and drive conditions) against published
/// anchors with a Nelder–Mead search.
///
/// Free parameters: `ln g_on`, `v_shape`, `ln τ_rst0`, `v_rst`, `β`,
/// `v_drive`, `ln r_series`. SET-side parameters are left at their card
/// values (the paper's SET is a fixed 100 ns pulse common to all levels).
///
/// # Errors
///
/// Returns [`RramError::Numerics`] if the optimizer rejects its inputs.
pub fn calibrate(
    start: &OxramParams,
    v_drive0: f64,
    r_series0: f64,
    target: &CalibrationTarget,
    max_evals: usize,
) -> Result<CalibrationResult, RramError> {
    let x0 = [
        start.g_on.ln(),
        start.v_shape,
        start.tau_rst0.ln(),
        start.v_rst,
        start.beta_rst,
        v_drive0,
        r_series0.ln(),
        start.i_joule.ln(),
    ];
    let scale = [0.2, 0.2, 0.4, 0.04, 0.2, 0.05, 0.3, 0.4];
    let base = *start;
    let objective = move |x: &[f64]| {
        let mut p = base;
        p.g_on = x[0].exp();
        p.v_shape = x[1];
        p.tau_rst0 = x[2].exp();
        p.v_rst = x[3];
        p.beta_rst = x[4];
        p.i_joule = x[7].exp();
        let target = CalibrationTarget::paper();
        calibration_objective(&p, x[5], x[6].exp(), &target)
    };
    let min = nelder_mead(
        objective,
        &x0,
        &scale,
        NelderMeadOptions {
            max_evals,
            f_tol: 1e-6,
            x_tol: 1e-6,
        },
    )?;
    let mut fitted = *start;
    fitted.g_on = min.x[0].exp();
    fitted.v_shape = min.x[1];
    fitted.tau_rst0 = min.x[2].exp();
    fitted.v_rst = min.x[3];
    fitted.beta_rst = min.x[4];
    fitted.i_joule = min.x[7].exp();
    let n_anchors = target.allocation.len() as f64;
    Ok(CalibrationResult {
        params: fitted,
        v_drive: min.x[5],
        r_series: min.x[6].exp(),
        rms_log_error: (min.f / n_anchors).sqrt(),
        evals: min.evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> (OxramParams, InstanceVariation) {
        (OxramParams::calibrated(), InstanceVariation::nominal())
    }

    #[test]
    fn termination_resistance_monotone_in_reference() {
        let (p, inst) = nominal();
        let mut prev = 0.0;
        for i_ua in [36.0, 28.0, 20.0, 12.0, 6.0] {
            let out = simulate_reset_termination(
                &p,
                &inst,
                &ResetConditions::paper_defaults(i_ua * 1e-6),
            )
            .unwrap();
            assert!(
                out.r_read_ohms > prev,
                "R({i_ua} µA) = {} not > {prev}",
                out.r_read_ohms
            );
            prev = out.r_read_ohms;
        }
    }

    #[test]
    fn latency_grows_as_reference_falls() {
        let (p, inst) = nominal();
        let fast =
            simulate_reset_termination(&p, &inst, &ResetConditions::paper_defaults(36e-6)).unwrap();
        let slow =
            simulate_reset_termination(&p, &inst, &ResetConditions::paper_defaults(6e-6)).unwrap();
        assert!(slow.latency_s > 2.0 * fast.latency_s);
        assert!(slow.energy_j > fast.energy_j);
    }

    #[test]
    fn unreachable_reference_reports_not_terminated() {
        let (p, inst) = nominal();
        let mut cond = ResetConditions::paper_defaults(1e-12); // below leakage floor
        cond.t_max = 5e-6;
        let Err(RramError::NotTerminated { i_final, .. }) =
            simulate_reset_termination(&p, &inst, &cond)
        else {
            panic!("a reference below the leakage floor must not terminate");
        };
        // The quoted current is the cell's at t_max under the same drive.
        let pulse = StandardResetPulse {
            v_drive: cond.v_drive,
            r_series: cond.r_series,
            width: cond.t_max,
        };
        let held = simulate_standard_reset(&p, &inst, &pulse, cond.rho_start, cond.v_read).unwrap();
        let load = Load::Divider {
            v_drive: cond.v_drive,
            r_series: cond.r_series,
        };
        let i_at_t_max = bracketed_current(&p, &inst, held.rho_final, load, cond.v_drive);
        assert!(
            (i_final - i_at_t_max).abs() <= 1e-8 * i_at_t_max,
            "{i_final} vs {i_at_t_max}"
        );
        // A reference reached only after t_max is abandoned the same way.
        let slow = ResetConditions {
            t_max: 1e-6,
            ..ResetConditions::paper_defaults(6e-6)
        };
        assert!(matches!(
            simulate_reset_termination(&p, &inst, &slow),
            Err(RramError::NotTerminated { .. })
        ));
    }

    #[test]
    fn cell_already_below_the_reference_trips_at_once() {
        let (p, inst) = nominal();
        let cond = ResetConditions {
            rho_start: 0.05,
            ..ResetConditions::paper_defaults(36e-6)
        };
        let out = simulate_reset_termination(&p, &inst, &cond).unwrap();
        assert!(out.i_initial <= cond.i_ref);
        assert_eq!(out.rho_final, cond.rho_start);
        assert_eq!(out.latency_s, 0.0);
        assert_eq!(out.energy_j, 0.0);
    }

    #[test]
    fn terminated_state_draws_exactly_the_reference() {
        // The trip is located at the closed-form state, so the current there
        // equals IrefR to within the bracketed solve's 1e-14 A band.
        let p = OxramParams::calibrated();
        for inst in corners() {
            for i_ua in [6.0, 20.0, 36.0] {
                let cond = ResetConditions::paper_defaults(i_ua * 1e-6);
                let out = simulate_reset_termination(&p, &inst, &cond).unwrap();
                let load = Load::Divider {
                    v_drive: cond.v_drive,
                    r_series: cond.r_series,
                };
                let i = bracketed_current(&p, &inst, out.rho_final, load, cond.v_drive);
                assert!(
                    (i - cond.i_ref).abs() <= 1e-8 * cond.i_ref,
                    "{inst:?} {i_ua} µA: {i}"
                );
            }
        }
    }

    #[test]
    fn standard_reset_goes_deep() {
        let (p, inst) = nominal();
        let out =
            simulate_standard_reset(&p, &inst, &StandardResetPulse::paper_baseline(), 1.0, 0.3)
                .unwrap();
        let term =
            simulate_reset_termination(&p, &inst, &ResetConditions::paper_defaults(6e-6)).unwrap();
        assert!(
            out.r_read_ohms > 20.0 * term.r_read_ohms,
            "deep HRS {} vs terminated {}",
            out.r_read_ohms,
            term.r_read_ohms
        );
    }

    #[test]
    fn set_reaches_lrs_quickly() {
        let (p, inst) = nominal();
        let out = simulate_set(&p, &inst, &SetConditions::paper_defaults()).unwrap();
        assert!(out.rho_final > 0.6, "rho = {}", out.rho_final);
        assert!(out.r_read_ohms < 30e3, "R_LRS = {}", out.r_read_ohms);
    }

    #[test]
    fn set_compliance_limits_current_effect() {
        let (p, inst) = nominal();
        let mut strong = SetConditions::paper_defaults();
        strong.i_compliance = 500e-6;
        let mut weak = SetConditions::paper_defaults();
        weak.i_compliance = 30e-6;
        let r_strong = simulate_set(&p, &inst, &strong).unwrap();
        let r_weak = simulate_set(&p, &inst, &weak).unwrap();
        // Lower compliance → less energy.
        assert!(r_weak.energy_j < r_strong.energy_j);
    }

    #[test]
    fn trapezoid_energy_differs_from_rectangle_by_a_bounded_margin() {
        // Replays the terminated-RESET trajectory on a fixed 2 ns step with a
        // left-endpoint rectangle rule, the trip sampled at step ends, and
        // quantifies the change to the integrated energy: nonzero (the
        // quadrature really changed the number) but sub-percent (nobody's
        // calibration anchor moved materially).
        let (p, inst) = nominal();
        let cond = ResetConditions::paper_defaults(10e-6);
        let dt = 2e-9;
        let out = simulate_reset_termination(&p, &inst, &cond).unwrap();
        let mut rho = cond.rho_start;
        let mut rect = 0.0;
        let load = Load::Divider {
            v_drive: cond.v_drive,
            r_series: cond.r_series,
        };
        let mut vc = 0.5 * cond.v_drive;
        loop {
            let i;
            (vc, i) = solve_cell(
                &p,
                &inst,
                rho,
                cond.v_drive,
                load,
                vc,
                &mut SolveWork::default(),
            )
            .unwrap();
            if i <= cond.i_ref {
                break;
            }
            rect += cond.v_drive * i * dt;
            rho = model::advance_state(&p, &inst, rho, -vc, dt);
        }
        let rel = (out.energy_j - rect).abs() / rect;
        assert!(rel > 1e-7, "integral should differ from rectangle: {rel}");
        assert!(rel < 1e-2, "quadrature change too large: {rel}");
    }

    /// Reference solve: bracketed `newton_bisect` on `[0, v_drive]` from
    /// the midpoint, with its finite-difference derivative.
    fn bracketed(
        p: &OxramParams,
        inst: &InstanceVariation,
        rho: f64,
        load: Load,
        v_drive: f64,
    ) -> f64 {
        let f = |vc: f64| model::cell_current(p, inst, vc, rho) - load.current(vc);
        newton_bisect(f, 0.0, v_drive, RootOptions::default()).unwrap()
    }

    /// The cell current at the bracketed operating point.
    fn bracketed_current(
        p: &OxramParams,
        inst: &InstanceVariation,
        rho: f64,
        load: Load,
        v_drive: f64,
    ) -> f64 {
        model::cell_current(p, inst, bracketed(p, inst, rho, load, v_drive), rho)
    }

    fn corners() -> Vec<InstanceVariation> {
        let mut out = vec![InstanceVariation::nominal()];
        for lx_factor in [0.9, 1.1] {
            for alpha_factor in [0.9, 1.1] {
                out.push(InstanceVariation {
                    lx_factor,
                    alpha_factor,
                });
            }
        }
        out
    }

    #[test]
    fn warm_started_solve_agrees_with_bracketed_newton() {
        let p = OxramParams::calibrated();
        for inst in corners() {
            for v_drive in [1.1523, 3.0] {
                for rho in [1e-6, 1e-3, 0.1, 0.5, 1.0] {
                    let mut loads = vec![Load::Divider {
                        v_drive,
                        r_series: 3.6131e3,
                    }];
                    // The compliance line only has a root once the cell can
                    // draw the compliance current below v_drive.
                    if model::cell_current(&p, &inst, v_drive, rho) > 100e-6 {
                        loads.push(Load::Compliance { i: 100e-6 });
                    }
                    for load in loads {
                        let v_raw = bracketed(&p, &inst, rho, load, v_drive);
                        // `newton_bisect` stops anywhere inside its f_tol band,
                        // up to ~3e-11 V from the root here; one analytic
                        // correction puts the reference on the root itself.
                        let (i_raw, g) = model::current_and_conductance(&p, &inst, v_raw, rho);
                        let v_ref =
                            v_raw - (i_raw - load.current(v_raw)) / (g + load.conductance());
                        let i_ref = model::cell_current(&p, &inst, v_ref, rho);
                        // Cold (midpoint) and warm (a nearby previous step) starts.
                        for guess in [
                            0.5 * v_drive,
                            0.9 * v_ref,
                            (1.1 * v_ref).min(0.99 * v_drive),
                        ] {
                            let mut work = SolveWork::default();
                            let (v, i) =
                                solve_cell(&p, &inst, rho, v_drive, load, guess, &mut work)
                                    .unwrap();
                            let ctx = format!(
                                "{inst:?} v_drive={v_drive} rho={rho} {load:?} guess={guess}"
                            );
                            assert!(
                                (v - v_ref).abs() <= 1e-12 * v_ref,
                                "{ctx}: v {v} vs {v_ref}"
                            );
                            assert!(
                                (v - v_raw).abs() <= 1e-10 * v_raw,
                                "{ctx}: v {v} vs bracketed {v_raw}"
                            );
                            assert!(
                                (i - i_ref).abs() <= 1e-12 * i_ref,
                                "{ctx}: i {i} vs {i_ref}"
                            );
                            assert_eq!(work.fallbacks, 0, "{ctx}");
                            assert!(work.newton_iters <= u64::from(WARM_NEWTON_BUDGET), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn guesses_outside_the_bracket_take_the_fallback() {
        let (p, inst) = nominal();
        for v_drive in [1.1523, 3.0] {
            for rho in [1e-3, 0.5, 1.0] {
                let load = Load::Divider {
                    v_drive,
                    r_series: 3.6131e3,
                };
                let v_ref = bracketed(&p, &inst, rho, load, v_drive);
                for guess in [0.0, v_drive, -0.4, f64::NAN] {
                    let mut work = SolveWork::default();
                    let (v, i) =
                        solve_cell(&p, &inst, rho, v_drive, load, guess, &mut work).unwrap();
                    assert_eq!(work.fallbacks, 1, "guess {guess}");
                    assert_eq!(work.newton_iters, 0, "guess {guess}");
                    assert_eq!(v.to_bits(), v_ref.to_bits(), "guess {guess}");
                    assert_eq!(
                        i.to_bits(),
                        model::cell_current(&p, &inst, v_ref, rho).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_width_pulses_run_exactly_their_width() {
        // Below v_rst_floor / v_set_floor the state holds, so the current is
        // constant and the energy is exactly v·i·width: the integrator must
        // land on the pulse end, neither short of it nor a step past it.
        let (p, inst) = nominal();
        for width in [60e-6, 100e-9] {
            let pulse = StandardResetPulse {
                v_drive: 0.3,
                r_series: 3.6131e3,
                width,
            };
            let out = simulate_standard_reset(&p, &inst, &pulse, 1.0, 0.3).unwrap();
            assert_eq!(out.rho_final, 1.0);
            let exact = pulse.v_drive * out.i_initial * width;
            let rel = (out.energy_j - exact).abs() / exact;
            assert!(rel <= 1e-12, "RESET {width} s: rel {rel:e}");

            let set = SetConditions {
                v_drive: 0.3,
                width,
                rho_start: 0.5,
                ..SetConditions::paper_defaults()
            };
            let out = simulate_set(&p, &inst, &set).unwrap();
            assert_eq!(out.rho_final, 0.5);
            let load = Load::Divider {
                v_drive: set.v_drive,
                r_series: set.r_series,
            };
            let (_, i) = solve_cell(
                &p,
                &inst,
                0.5,
                set.v_drive,
                load,
                0.5 * set.v_drive,
                &mut SolveWork::default(),
            )
            .unwrap();
            let exact = set.v_drive * i * width;
            let rel = (out.energy_j - exact).abs() / exact;
            assert!(rel <= 1e-12, "SET {width} s: rel {rel:e}");
        }
    }

    #[test]
    fn worst_case_reset_bounds_every_terminated_run() {
        let (p, inst) = nominal();
        let cond = ResetConditions::paper_defaults(6e-6);
        let worst = simulate_worst_case_reset(&p, &inst, &cond).unwrap();
        assert!((worst.latency_s - cond.t_max).abs() < 1e-12);
        // 6 µA is the slowest, most energetic level; even it saves energy
        // and time against the open-loop budget pulse.
        let term = simulate_reset_termination(&p, &inst, &cond).unwrap();
        assert!(
            worst.energy_j > term.energy_j,
            "{} vs {}",
            worst.energy_j,
            term.energy_j
        );
        assert!(worst.latency_s > term.latency_s);
    }

    #[test]
    fn objective_is_finite_at_calibrated_point() {
        let p = OxramParams::calibrated();
        let c = ResetConditions::paper_defaults(10e-6);
        let obj = calibration_objective(&p, c.v_drive, c.r_series, &CalibrationTarget::paper());
        assert!(obj.is_finite(), "objective = {obj}");
    }

    #[test]
    fn calibrate_smoke_runs() {
        // A short smoke run: must not regress the objective.
        let p = OxramParams::calibrated();
        let c = ResetConditions::paper_defaults(10e-6);
        let before = calibration_objective(&p, c.v_drive, c.r_series, &CalibrationTarget::paper());
        let res = calibrate(&p, c.v_drive, c.r_series, &CalibrationTarget::paper(), 40).unwrap();
        let after = calibration_objective(
            &res.params,
            res.v_drive,
            res.r_series,
            &CalibrationTarget::paper(),
        );
        assert!(after <= before * 1.0001, "{after} vs {before}");
    }
}
