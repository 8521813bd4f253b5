//! An EKV-style all-region MOSFET model.
//!
//! The write-termination circuit (current mirrors + inverter comparator)
//! depends on behaviours that a piecewise square-law model handles poorly:
//! mirror devices sliding between saturation and triode as the cell current
//! decays, and the inverter input sitting near threshold. The long-channel
//! EKV interpolation
//!
//! ```text
//! I_DS = I_spec · [ F((v_P − v_S)/V_t) − F((v_P − v_D)/V_t) ],
//! F(u)  = ln²(1 + e^(u/2)),   v_P = (v_G − v_B − V_TH)/n
//! ```
//!
//! is a single smooth expression covering weak inversion through saturation,
//! is symmetric in drain/source, and has well-behaved analytic derivatives —
//! ideal for Newton iteration. Channel-length modulation is added as a
//! `(1 + λ·v_DS)` multiplier. PMOS devices are handled by reflecting all
//! terminal voltages around the bulk.
//!
//! Monte Carlo mismatch enters through [`Mosfet::set_delta_vth`] (threshold
//! shift) and [`Mosfet::set_beta_factor`] (current-factor multiplier), the
//! two dominant mismatch components in the paper's 0.13 µm process.

use std::any::Any;

use oxterm_spice::circuit::NodeId;
use oxterm_spice::device::{Device, DeviceClass, StampContext, StampTopology, UpdateContext};
use oxterm_telemetry::Telemetry;

use crate::VT_300K;

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// MOSFET model card (process-level parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Transconductance parameter `µ·C_ox` (A/V²).
    pub kp: f64,
    /// Zero-bias threshold voltage magnitude (V).
    pub vth0: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Subthreshold slope factor.
    pub n: f64,
}

impl MosParams {
    /// Generic n-channel card for a 0.13 µm-class 3.3 V high-voltage CMOS
    /// process (the technology class the paper targets).
    pub fn nmos_130nm_hv() -> Self {
        MosParams {
            polarity: MosPolarity::Nmos,
            kp: 170e-6,
            vth0: 0.58,
            lambda: 0.04,
            n: 1.35,
        }
    }

    /// Generic p-channel card for the same process.
    pub fn pmos_130nm_hv() -> Self {
        MosParams {
            polarity: MosPolarity::Pmos,
            kp: 60e-6,
            vth0: 0.62,
            lambda: 0.06,
            n: 1.40,
        }
    }
}

/// Operating-point evaluation of the model at given terminal voltages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Drain current, positive from drain to source (A).
    pub id: f64,
    /// ∂I/∂v_G (S).
    pub gm: f64,
    /// ∂I/∂v_D (S).
    pub gd: f64,
    /// ∂I/∂v_S (S).
    pub gs: f64,
    /// ∂I/∂v_B (S).
    pub gb: f64,
}

/// A four-terminal MOSFET instance.
#[derive(Debug, Clone)]
pub struct Mosfet {
    name: String,
    d: NodeId,
    g: NodeId,
    s: NodeId,
    b: NodeId,
    params: MosParams,
    w: f64,
    l: f64,
    delta_vth: f64,
    beta_factor: f64,
    /// Minimum drain-source conductance (convergence aid).
    gds_min: f64,
    /// Gate-source capacitance (F); 0 disables charge storage.
    cgs: f64,
    /// Gate-drain capacitance (F); 0 disables charge storage.
    cgd: f64,
}

impl Mosfet {
    /// Creates a MOSFET with terminals drain, gate, source, bulk.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is not strictly positive and finite.
    // Four terminals + model card + geometry is the SPICE instance-line
    // shape; bundling would only obscure it.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        params: MosParams,
        w: f64,
        l: f64,
    ) -> Self {
        assert!(
            w.is_finite() && w > 0.0 && l.is_finite() && l > 0.0,
            "MOSFET geometry must be positive and finite (w = {w}, l = {l})"
        );
        Mosfet {
            name: name.into(),
            d,
            g,
            s,
            b,
            params,
            w,
            l,
            delta_vth: 0.0,
            beta_factor: 1.0,
            gds_min: 1e-9,
            cgs: 0.0,
            cgd: 0.0,
        }
    }

    /// Adds constant gate-source / gate-drain capacitances (simplified
    /// Meyer model) — the source of realistic comparator/inverter delay in
    /// transient analysis.
    ///
    /// # Panics
    ///
    /// Panics if either capacitance is negative or non-finite.
    #[must_use]
    pub fn with_gate_caps(mut self, cgs: f64, cgd: f64) -> Self {
        assert!(
            cgs.is_finite() && cgs >= 0.0 && cgd.is_finite() && cgd >= 0.0,
            "gate capacitances must be non-negative and finite"
        );
        self.cgs = cgs;
        self.cgd = cgd;
        self
    }

    /// A rough oxide-capacitance estimate for this geometry in a 0.13 µm
    /// HV process (~5 fF/µm² plus overlap), split as CGS.
    pub fn default_cgs(&self) -> f64 {
        5e-3 * self.w * self.l + 0.3e-9 * self.w
    }

    /// Channel width (m).
    pub fn w(&self) -> f64 {
        self.w
    }

    /// Channel length (m).
    pub fn l(&self) -> f64 {
        self.l
    }

    /// Model card.
    pub fn params(&self) -> &MosParams {
        &self.params
    }

    /// Threshold-voltage mismatch offset (V); positive raises |V_TH|.
    pub fn set_delta_vth(&mut self, dv: f64) {
        self.delta_vth = dv;
    }

    /// Current-factor mismatch multiplier (1.0 = nominal).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn set_beta_factor(&mut self, factor: f64) {
        assert!(factor > 0.0, "beta factor must be positive");
        self.beta_factor = factor;
    }

    /// `F(u) = ln²(1 + e^(u/2))` and its derivative, overflow-safe.
    /// The bool reports whether the large-argument linear continuation was
    /// taken (deep strong inversion, beyond the smooth EKV expression).
    fn f_and_fprime(u: f64) -> (f64, f64, bool) {
        let h = u * 0.5;
        let clamped = h > 40.0;
        let ln1p = if clamped {
            h // ln(1 + e^h) → h for large h
        } else {
            h.exp().ln_1p()
        };
        // σ(h) = 1 / (1 + e^(−h))
        let sigma = if h > 40.0 {
            1.0
        } else if h < -40.0 {
            0.0
        } else {
            1.0 / (1.0 + (-h).exp())
        };
        (ln1p * ln1p, ln1p * sigma, clamped)
    }

    /// Evaluates the model at absolute terminal voltages.
    pub fn eval(&self, vd: f64, vg: f64, vs: f64, vb: f64) -> MosEval {
        let sgn = match self.params.polarity {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        };
        // Bulk-referenced, polarity-reflected frame.
        let td = sgn * (vd - vb);
        let tg = sgn * (vg - vb);
        let ts = sgn * (vs - vb);

        let n = self.params.n;
        let vt = VT_300K;
        let vth = self.params.vth0 + self.delta_vth;
        let i_spec = 2.0 * n * self.params.kp * self.beta_factor * (self.w / self.l) * vt * vt;

        let vp = (tg - vth) / n;
        let us = (vp - ts) / vt;
        let ud = (vp - td) / vt;
        let (f_s, fp_s, clamp_s) = Self::f_and_fprime(us);
        let (f_d, fp_d, clamp_d) = Self::f_and_fprime(ud);
        if clamp_s || clamp_d {
            // Rare-event guard: evaluations past the overflow continuation
            // mean the device is biased outside the smooth EKV region, so
            // surface it instead of silently linearizing.
            Telemetry::global().incr("devices.mosfet.overflow_guards");
        }

        let i0 = i_spec * (f_s - f_d);
        let vds = td - ts;
        let m = 1.0 + self.params.lambda * vds;

        // Derivatives in the reflected frame.
        let di_dg = i_spec * (fp_s - fp_d) / (n * vt) * m;
        let di_dd = i_spec * fp_d / vt * m + i0 * self.params.lambda;
        let di_ds = -i_spec * fp_s / vt * m - i0 * self.params.lambda;
        let di_db = -(di_dg + di_dd + di_ds);

        // Reflecting back: i = sgn·ĩ; ∂i/∂v_x = ∂ĩ/∂ṽ_x (sgn² = 1).
        MosEval {
            id: sgn * i0 * m,
            gm: di_dg,
            gd: di_dd,
            gs: di_ds,
            gb: di_db,
        }
    }
}

/// State layout when gate caps are enabled: `[vgs, igs, vgd, igd]`.
const ST_VGS: usize = 0;
const ST_IGS: usize = 1;
const ST_VGD: usize = 2;
const ST_IGD: usize = 3;

impl Mosfet {
    /// Companion stamp for one gate capacitor between `a` (gate) and `b`.
    fn stamp_gate_cap(
        &self,
        ctx: &mut StampContext<'_>,
        c: f64,
        a: NodeId,
        b: NodeId,
        v_prev: f64,
        i_prev: f64,
    ) {
        use oxterm_spice::device::AnalysisKind;
        let AnalysisKind::Tran { dt, .. } = ctx.kind() else {
            return;
        };
        // Trapezoidal companion model.
        let g = 2.0 * c / dt;
        ctx.stamp_conductance(a, b, g);
        ctx.stamp_current(a, b, -(g * v_prev + i_prev));
    }
}

impl Device for Mosfet {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn state_len(&self) -> usize {
        if self.cgs > 0.0 || self.cgd > 0.0 {
            4
        } else {
            0
        }
    }

    fn update_state(&self, ctx: &oxterm_spice::device::UpdateContext<'_>, state: &mut [f64]) {
        if state.is_empty() {
            return;
        }
        let vgs = ctx.v(self.g) - ctx.v(self.s);
        let vgd = ctx.v(self.g) - ctx.v(self.d);
        let dt = ctx.dt();
        if dt == 0.0 {
            state[ST_VGS] = vgs;
            state[ST_IGS] = 0.0;
            state[ST_VGD] = vgd;
            state[ST_IGD] = 0.0;
            return;
        }
        let advance =
            |c: f64, v: f64, v_prev: f64, i_prev: f64| 2.0 * c * (v - v_prev) / dt - i_prev;
        let igs = advance(self.cgs, vgs, state[ST_VGS], state[ST_IGS]);
        let igd = advance(self.cgd, vgd, state[ST_VGD], state[ST_IGD]);
        state[ST_VGS] = vgs;
        state[ST_IGS] = igs;
        state[ST_VGD] = vgd;
        state[ST_IGD] = igd;
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let (vd, vg, vs, vb) = (ctx.v(self.d), ctx.v(self.g), ctx.v(self.s), ctx.v(self.b));
        if self.cgs > 0.0 {
            let (v_prev, i_prev) = if ctx.state().len() >= 4 {
                (ctx.state()[ST_VGS], ctx.state()[ST_IGS])
            } else {
                (0.0, 0.0)
            };
            self.stamp_gate_cap(ctx, self.cgs, self.g, self.s, v_prev, i_prev);
        }
        if self.cgd > 0.0 {
            let (v_prev, i_prev) = if ctx.state().len() >= 4 {
                (ctx.state()[ST_VGD], ctx.state()[ST_IGD])
            } else {
                (0.0, 0.0)
            };
            self.stamp_gate_cap(ctx, self.cgd, self.g, self.d, v_prev, i_prev);
        }
        let e = self.eval(vd, vg, vs, vb);

        // Linearized drain-source current: i ≈ Σ g_x·v_x + I_eq.
        let mut i_eq = e.id - e.gm * vg - e.gd * vd - e.gs * vs - e.gb * vb;
        if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::NanStamp) {
            Telemetry::global().incr("chaos.injected.nan_stamp");
            i_eq = f64::NAN;
        }
        let ud = ctx.node_unknown(self.d);
        let us = ctx.node_unknown(self.s);
        let cols = [
            (ctx.node_unknown(self.g), e.gm),
            (ctx.node_unknown(self.d), e.gd),
            (ctx.node_unknown(self.s), e.gs),
            (ctx.node_unknown(self.b), e.gb),
        ];
        for (col, g) in cols {
            ctx.mat(ud, col, g);
            ctx.mat(us, col, -g);
        }
        ctx.stamp_current(self.d, self.s, i_eq);
        // Convergence aid: a tiny fixed drain-source conductance.
        ctx.stamp_conductance(self.d, self.s, self.gds_min);
    }

    fn terminals(&self) -> Vec<NodeId> {
        vec![self.d, self.g, self.s, self.b]
    }

    fn stamp_topology(&self) -> Option<StampTopology> {
        // The gate is capacitive only — no DC conduction path through it.
        Some(StampTopology {
            dc_conductances: vec![(self.d, self.s), (self.d, self.b), (self.s, self.b)],
            ..StampTopology::default()
        })
    }

    fn device_class(&self) -> DeviceClass {
        DeviceClass::Mosfet
    }

    fn power(&self, ctx: &UpdateContext<'_>, state: &[f64]) -> f64 {
        let (vd, vg, vs, vb) = (ctx.v(self.d), ctx.v(self.g), ctx.v(self.s), ctx.v(self.b));
        let e = self.eval(vd, vg, vs, vb);
        let vds = vd - vs;
        // Channel dissipation, including the stamped gds_min aid.
        let mut p = vds * (e.id + self.gds_min * vds);
        // Gate-cap charging power (post-update state currents).
        if state.len() >= 4 {
            p += (vg - vs) * state[ST_IGS] + (vg - vd) * state[ST_IGD];
        }
        p
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passive::Resistor;
    use crate::sources::{SourceWave, VoltageSource};
    use oxterm_spice::analysis::op::{solve_op, OpOptions};
    use oxterm_spice::circuit::Circuit;

    fn nmos_at(vd: f64, vg: f64, vs: f64) -> MosEval {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let s = c.node("s");
        let m = Mosfet::new(
            "m1",
            d,
            g,
            s,
            Circuit::gnd(),
            MosParams::nmos_130nm_hv(),
            0.8e-6,
            0.5e-6,
        );
        m.eval(vd, vg, vs, 0.0)
    }

    #[test]
    fn cutoff_current_is_tiny() {
        let e = nmos_at(1.0, 0.0, 0.0);
        assert!(e.id < 1e-9, "cutoff id = {}", e.id);
        assert!(e.id > 0.0);
    }

    #[test]
    fn saturation_current_is_square_lawish() {
        // In saturation the EKV model gives I ≈ kp/(2n)·(W/L)·vov².
        let e1 = nmos_at(3.0, 1.58, 0.0); // vov = 1.0
        let e2 = nmos_at(3.0, 2.58, 0.0); // vov = 2.0
        let ratio = e2.id / e1.id;
        assert!(
            (3.2..4.6).contains(&ratio),
            "expected roughly quadratic growth, ratio = {ratio}"
        );
    }

    #[test]
    fn triode_conductance_positive_and_symmetric() {
        let e = nmos_at(0.05, 3.3, 0.0);
        assert!(e.gd > 0.0);
        // Symmetric model: reversing drain/source flips the current.
        let fwd = nmos_at(0.1, 3.3, 0.0);
        let rev = nmos_at(0.0, 3.3, 0.1);
        // Not exactly equal due to the λ·vds term, but close.
        assert!((fwd.id + rev.id).abs() / fwd.id.abs() < 0.02);
    }

    #[test]
    fn derivative_sum_is_zero() {
        // Only potential differences matter, so ∂I/∂(all terminals) = 0.
        for (vd, vg, vs) in [(1.0, 2.0, 0.0), (0.1, 0.5, 0.0), (2.0, 3.3, 1.0)] {
            let e = nmos_at(vd, vg, vs);
            let sum = e.gm + e.gd + e.gs + e.gb;
            let scale = e.gm.abs() + e.gd.abs() + e.gs.abs() + e.gb.abs() + 1e-30;
            assert!(sum.abs() / scale < 1e-9, "sum = {sum}");
        }
    }

    #[test]
    fn analytic_derivatives_match_finite_difference() {
        let h = 1e-7;
        for (vd, vg, vs) in [(1.5, 1.2, 0.0), (0.2, 2.5, 0.0), (3.0, 0.7, 0.3)] {
            let e = nmos_at(vd, vg, vs);
            let gm_fd = (nmos_at(vd, vg + h, vs).id - nmos_at(vd, vg - h, vs).id) / (2.0 * h);
            let gd_fd = (nmos_at(vd + h, vg, vs).id - nmos_at(vd - h, vg, vs).id) / (2.0 * h);
            let gs_fd = (nmos_at(vd, vg, vs + h).id - nmos_at(vd, vg, vs - h).id) / (2.0 * h);
            let tol = |g: f64| 1e-4 * g.abs().max(1e-12);
            assert!(
                (e.gm - gm_fd).abs() < tol(gm_fd),
                "gm {} vs {}",
                e.gm,
                gm_fd
            );
            assert!(
                (e.gd - gd_fd).abs() < tol(gd_fd),
                "gd {} vs {}",
                e.gd,
                gd_fd
            );
            assert!(
                (e.gs - gs_fd).abs() < tol(gs_fd),
                "gs {} vs {}",
                e.gs,
                gs_fd
            );
        }
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let s = c.node("s");
        let b = c.node("b");
        let p = Mosfet::new("mp", d, g, s, b, MosParams::pmos_130nm_hv(), 1.6e-6, 0.5e-6);
        // Source and bulk at 3.3 V, gate low, drain at 1 V: PMOS on,
        // current flows source → drain, i.e. i(d→s) < 0.
        let e = p.eval(1.0, 0.0, 3.3, 3.3);
        assert!(e.id < -1e-6, "id = {}", e.id);
        // Off when gate is high.
        let off = p.eval(1.0, 3.3, 3.3, 3.3);
        assert!(off.id.abs() < 1e-9);
    }

    #[test]
    fn mismatch_hooks_shift_current() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let mut m = Mosfet::new(
            "m1",
            d,
            g,
            Circuit::gnd(),
            Circuit::gnd(),
            MosParams::nmos_130nm_hv(),
            0.8e-6,
            0.5e-6,
        );
        let nominal = m.eval(2.0, 1.5, 0.0, 0.0).id;
        m.set_delta_vth(0.05);
        let shifted = m.eval(2.0, 1.5, 0.0, 0.0).id;
        assert!(shifted < nominal);
        m.set_delta_vth(0.0);
        m.set_beta_factor(1.1);
        let boosted = m.eval(2.0, 1.5, 0.0, 0.0).id;
        assert!((boosted / nominal - 1.1).abs() < 1e-9);
    }

    #[test]
    fn gate_caps_delay_an_inverter() {
        use crate::sources::{SourceWave, VoltageSource};
        use oxterm_spice::analysis::tran::{run_transient, TranOptions};
        use oxterm_spice::waveform::CrossDir;

        // CMOS inverter driving its own output capacitance; compare the
        // output fall delay with and without gate caps on the devices.
        let t50 = |with_caps: bool| -> f64 {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let vin = c.node("in");
            let out = c.node("out");
            c.add(VoltageSource::new(
                "vdd",
                vdd,
                Circuit::gnd(),
                SourceWave::dc(3.3),
            ));
            c.add(VoltageSource::new(
                "vin",
                vin,
                Circuit::gnd(),
                SourceWave::pulse(3.3, 5e-9, 1e-9, 1e-6, 1e-9),
            ));
            // Drive through a series resistor so gate charge matters.
            let gate = c.node("gate");
            c.add(crate::passive::Resistor::new("rg", vin, gate, 50e3));
            let mut n = Mosfet::new(
                "mn",
                out,
                gate,
                Circuit::gnd(),
                Circuit::gnd(),
                MosParams::nmos_130nm_hv(),
                2e-6,
                0.5e-6,
            );
            let mut p = Mosfet::new(
                "mp",
                out,
                gate,
                vdd,
                vdd,
                MosParams::pmos_130nm_hv(),
                5e-6,
                0.5e-6,
            );
            if with_caps {
                n = n.with_gate_caps(20e-15, 10e-15);
                p = p.with_gate_caps(40e-15, 20e-15);
            }
            c.add(n);
            c.add(p);
            c.add(crate::passive::Capacitor::new(
                "cl",
                out,
                Circuit::gnd(),
                5e-15,
            ));
            let opts = TranOptions {
                dt_max: Some(0.2e-9),
                ..TranOptions::for_duration(60e-9)
            };
            let res = run_transient(&mut c, &opts, &mut []).expect("inverter converges");
            res.node_trace(out)
                .first_crossing(1.65, CrossDir::Falling)
                .expect("output falls")
        };
        let without = t50(false);
        let with = t50(true);
        assert!(
            with > without + 0.5e-9,
            "gate caps added no delay: {with:.3e} vs {without:.3e}"
        );
    }

    #[test]
    fn gate_caps_do_not_change_dc() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let base = Mosfet::new(
            "m1",
            d,
            g,
            Circuit::gnd(),
            Circuit::gnd(),
            MosParams::nmos_130nm_hv(),
            0.8e-6,
            0.5e-6,
        );
        let with_caps = base.clone().with_gate_caps(1e-15, 1e-15);
        let a = base.eval(2.0, 1.5, 0.0, 0.0);
        let b = with_caps.eval(2.0, 1.5, 0.0, 0.0);
        assert_eq!(a, b);
        assert!((base.default_cgs() - with_caps.default_cgs()).abs() < 1e-20);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_gate_cap_rejected() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let _ = Mosfet::new(
            "m1",
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
            MosParams::nmos_130nm_hv(),
            1e-6,
            0.5e-6,
        )
        .with_gate_caps(-1e-15, 0.0);
    }

    #[test]
    fn nmos_common_source_amplifier_op() {
        // Classic common-source stage: drain resistor from 3.3 V.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        let g = c.node("g");
        c.add(VoltageSource::new(
            "vdd",
            vdd,
            Circuit::gnd(),
            SourceWave::dc(3.3),
        ));
        c.add(VoltageSource::new(
            "vg",
            g,
            Circuit::gnd(),
            SourceWave::dc(1.2),
        ));
        c.add(Resistor::new("rd", vdd, d, 50e3));
        c.add(Mosfet::new(
            "m1",
            d,
            g,
            Circuit::gnd(),
            Circuit::gnd(),
            MosParams::nmos_130nm_hv(),
            0.8e-6,
            0.5e-6,
        ));
        let sol = solve_op(&c, &OpOptions::default()).unwrap();
        let vds = sol.v(d);
        // The device must pull the drain well below VDD but not to ground.
        assert!(vds > 0.01 && vds < 3.2, "vds = {vds}");
    }
}
