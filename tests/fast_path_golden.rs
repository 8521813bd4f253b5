//! Golden pins and a convergence check for the fast scalar programming path.
//!
//! `program_cell_fast` outputs recorded from the error-controlled kernel.
//! A kernel change must reproduce them to 1e-9 relative; a deliberate
//! numerical shift re-records them and says so in CHANGES.md. Separately,
//! the kernel must agree to 1e-4 with a fixed-step reference that is
//! Richardson-extrapolated to zero step size.

use oxterm_mlc::levels::LevelAllocation;
use oxterm_mlc::program::{program_cell_fast, ProgramConditions};
use oxterm_numerics::roots::{newton_bisect, RootOptions};
use oxterm_rram::calib::SetConditions;
use oxterm_rram::model;
use oxterm_rram::params::{InstanceVariation, OxramParams};

/// Allowed relative drift from the recorded values.
const REL_TOL: f64 = 1e-9;

/// `(code, R_read Ω, RESET latency s, RESET energy J, SET energy J)` of the
/// nominal cell.
#[rustfmt::skip]
const NOMINAL: [(u16, f64, f64, f64, f64); 16] = [
    (0, 36992.234947343146, 2.4571866093565384e-7, 1.4144875201873847e-11, 2.480257342509458e-11),
    (1, 39587.88150845516, 2.8097417951579174e-7, 1.5565698800965985e-11, 2.480257342509458e-11),
    (2, 42511.26037558461, 3.2228544074096567e-7, 1.7135312470545727e-11, 2.480257342509458e-11),
    (3, 45827.95995096033, 3.710463238607193e-7, 1.88755275454834e-11, 2.480257342509458e-11),
    (4, 49622.31371358644, 4.290607332250216e-7, 2.0812196410247726e-11, 2.480257342509458e-11),
    (5, 54004.61215720927, 4.986952214628707e-7, 2.2976169943306366e-11, 2.480257342509458e-11),
    (6, 59121.921939779546, 5.831039703448965e-7, 2.5404574123563417e-11, 2.480257342509458e-11),
    (7, 65174.808605531405, 6.865700890804264e-7, 2.8142566056695583e-11, 2.480257342509458e-11),
    (8, 72444.0970893556, 8.15041257470918e-7, 3.1245842727994e-11, 2.480257342509458e-11),
    (9, 81335.48075471936, 9.770055511959726e-7, 3.478438347643294e-11, 2.480257342509458e-11),
    (10, 92457.6045053723, 1.1849949543061006e-6, 3.884832138298686e-11, 2.480257342509458e-11),
    (11, 106767.1158224159, 1.4583249578113338e-6, 4.355768964909392e-11, 2.480257342509458e-11),
    (12, 125858.86683374173, 1.8284706877019813e-6, 4.907968765310751e-11, 2.480257342509458e-11),
    (13, 152604.646992255, 2.3506613191195445e-6, 5.566175139284271e-11, 2.480257342509458e-11),
    (14, 192751.00585467427, 3.132247997903003e-6, 6.370159929850702e-11, 2.480257342509458e-11),
    (15, 259717.13048650674, 4.4157096886736e-6, 7.391798748936924e-11, 2.480257342509458e-11),
];

/// `(lx_factor, alpha_factor, code, R_read Ω, RESET latency s, RESET energy
/// J, SET energy J)` at the ±10% corners for the 36 µA (code 0) and 6 µA
/// (code 15) levels.
#[rustfmt::skip]
const CORNERS: [(f64, f64, u16, f64, f64, f64, f64); 8] = [
    (0.9, 0.9, 0, 36992.234947343146, 2.763895401427209e-7, 1.615492555704784e-11, 2.6213413949119722e-11),
    (0.9, 0.9, 15, 259717.1304865068, 4.855118113919086e-6, 8.178692614349925e-11, 2.6213413949119722e-11),
    (0.9, 1.1, 0, 36992.234947343146, 1.6367997799038223e-7, 9.821783737532721e-12, 2.9639673960520666e-11),
    (0.9, 1.1, 15, 259717.1304865068, 2.596579295734784e-6, 4.494893509167382e-11, 2.9639673960520666e-11),
    (1.1, 0.9, 0, 36992.234947343146, 3.212995236972152e-7, 1.7466252704134366e-11, 1.9024196822724844e-11),
    (1.1, 0.9, 15, 259717.13048650668, 6.7503766919704796e-6, 1.090825589930743e-10, 1.9024196822724844e-11),
    (1.1, 1.1, 0, 36992.234947343146, 2.195445035724377e-7, 1.2434902522332956e-11, 2.3402595322933392e-11),
    (1.1, 1.1, 15, 259717.13048650668, 4.0513117396842925e-6, 6.735987669779152e-11, 2.3402595322933392e-11),
];

fn check(ctx: &str, name: &str, got: f64, want: f64) {
    let rel = (got - want).abs() / want.abs();
    assert!(
        rel <= REL_TOL,
        "{ctx} {name}: {got:e} vs golden {want:e} ({rel:.2e} relative)"
    );
}

fn check_program(inst: &InstanceVariation, code: u16, want: [f64; 4]) {
    let params = OxramParams::calibrated();
    let alloc = LevelAllocation::paper_qlc();
    let out = program_cell_fast(&params, inst, &alloc, code, &ProgramConditions::paper())
        .unwrap_or_else(|e| panic!("code {code} at {inst:?}: {e}"));
    let ctx = format!("code {code} at {inst:?}");
    check(&ctx, "R", out.r_read_ohms, want[0]);
    check(&ctx, "latency", out.latency_s, want[1]);
    check(&ctx, "RESET energy", out.energy_j, want[2]);
    check(&ctx, "SET energy", out.set_energy_j, want[3]);
}

#[test]
fn nominal_codes_match_golden() {
    for (code, r, lat, e, e_set) in NOMINAL {
        check_program(&InstanceVariation::nominal(), code, [r, lat, e, e_set]);
    }
}

#[test]
fn corner_extremes_match_golden() {
    for (lx_factor, alpha_factor, code, r, lat, e, e_set) in CORNERS {
        let inst = InstanceVariation {
            lx_factor,
            alpha_factor,
        };
        check_program(&inst, code, [r, lat, e, e_set]);
    }
}

/// Cell operating point `(v_c, I)` on the divider `v_drive – r_series –
/// cell`, by bracketed `newton_bisect` on `[0, v_drive]`.
fn divider_point(
    p: &OxramParams,
    inst: &InstanceVariation,
    rho: f64,
    v_drive: f64,
    r_series: f64,
) -> (f64, f64) {
    let f = |v: f64| model::cell_current(p, inst, v, rho) - (v_drive - v) / r_series;
    let v = newton_bisect(f, 0.0, v_drive, RootOptions::default()).unwrap();
    (v, model::cell_current(p, inst, v, rho))
}

/// SET operating point: the divider's, unless it would exceed the
/// compliance current, in which case the cell carries exactly that.
fn set_point(
    p: &OxramParams,
    inst: &InstanceVariation,
    rho: f64,
    set: &SetConditions,
) -> (f64, f64) {
    let (v, i) = divider_point(p, inst, rho, set.v_drive, set.r_series);
    if i <= set.i_compliance {
        return (v, i);
    }
    let f = |v: f64| model::cell_current(p, inst, v, rho) - set.i_compliance;
    let v = newton_bisect(f, 0.0, set.v_drive, RootOptions::default()).unwrap();
    (v, set.i_compliance)
}

/// One classical Runge–Kutta step of `(ρ, E, E_cell)` over `h`, where
/// `point(ρ)` is the operating point and `polarity` signs `v_c` for the
/// state law (+1 SET, −1 RESET). Returns the new state and its current.
fn rk4_step(
    p: &OxramParams,
    inst: &InstanceVariation,
    y: [f64; 3],
    h: f64,
    v_drive: f64,
    polarity: f64,
    point: &dyn Fn(f64) -> (f64, f64),
) -> ([f64; 3], f64) {
    let rhs = |y: [f64; 3]| {
        let (vc, i) = point(y[0]);
        let rate = model::state_rate(p, inst, y[0], polarity * vc, i.abs());
        [rate, v_drive * i, vc * i]
    };
    let add =
        |y: [f64; 3], k: [f64; 3], s: f64| [y[0] + s * k[0], y[1] + s * k[1], y[2] + s * k[2]];
    let k1 = rhs(y);
    let k2 = rhs(add(y, k1, 0.5 * h));
    let k3 = rhs(add(y, k2, 0.5 * h));
    let k4 = rhs(add(y, k3, h));
    let mut out = y;
    for c in 0..3 {
        out[c] += h / 6.0 * (k1[c] + 2.0 * k2[c] + 2.0 * k3[c] + k4[c]);
    }
    (out, point(out[0]).1)
}

/// `program_cell_fast` recomputed on fixed steps: SET over `width/h_set`
/// steps, then the terminated RESET on steps of `h_reset` until the current
/// falls to IrefR, the trip time located by bisecting the last step's size.
/// Returns `[R, latency, RESET energy, SET energy]`.
fn fixed_step_program(inst: &InstanceVariation, code: u16, h_set: f64, h_reset: f64) -> [f64; 4] {
    let p = OxramParams::calibrated();
    let cond = ProgramConditions::paper();
    let set = cond.set;
    let n = (set.width / h_set).round() as usize;
    let h = set.width / n as f64;
    let set_point = |rho: f64| set_point(&p, inst, rho, &set);
    let mut y = [set.rho_start, 0.0, 0.0];
    for _ in 0..n {
        y = rk4_step(&p, inst, y, h, set.v_drive, 1.0, &set_point).0;
    }
    let e_set = y[1];

    let rst = cond.reset;
    let i_ref = LevelAllocation::paper_qlc().level(code).unwrap().i_ref;
    let rst_point = |rho: f64| divider_point(&p, inst, rho, rst.v_drive, rst.r_series);
    let mut y = [y[0], 0.0, 0.0];
    let mut t = 0.0;
    loop {
        let (next, i) = rk4_step(&p, inst, y, h_reset, rst.v_drive, -1.0, &rst_point);
        if i > i_ref {
            (y, t) = (next, t + h_reset);
            assert!(t < rst.t_max, "code {code} at {inst:?}: no trip");
            continue;
        }
        let (mut lo, mut hi) = (0.0, h_reset);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            let (_, i) = rk4_step(&p, inst, y, mid, rst.v_drive, -1.0, &rst_point);
            if i > i_ref {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (end, _) = rk4_step(&p, inst, y, hi, rst.v_drive, -1.0, &rst_point);
        let r = model::read_resistance(&p, inst, end[0], rst.v_read);
        return [r, t + hi, end[1], e_set];
    }
}

/// The kernel against a fixed-step reference run at two steps and
/// Richardson-extrapolated: every output within 1e-4 relative, at the
/// nominal cell and the fastest and slowest ±10% Lx/α corners, for the
/// extreme levels (36 µA and 6 µA).
#[test]
fn kernel_matches_richardson_extrapolated_fixed_step_reference() {
    const NAMES: [&str; 4] = ["R", "latency", "RESET energy", "SET energy"];
    let params = OxramParams::calibrated();
    let alloc = LevelAllocation::paper_qlc();
    let cond = ProgramConditions::paper();
    for (lx_factor, alpha_factor) in [(1.0, 1.0), (0.9, 1.1), (1.1, 0.9)] {
        let inst = InstanceVariation {
            lx_factor,
            alpha_factor,
        };
        for code in [0, 15] {
            let coarse = fixed_step_program(&inst, code, 1e-9, 4e-9);
            let fine = fixed_step_program(&inst, code, 0.5e-9, 2e-9);
            let out = program_cell_fast(&params, &inst, &alloc, code, &cond).unwrap();
            let got = [
                out.r_read_ohms,
                out.latency_s,
                out.energy_j,
                out.set_energy_j,
            ];
            for k in 0..4 {
                // Fourth-order steps: the halved run's error is 1/16 of the
                // coarse run's, so their gap is 15/16 of the coarse error.
                let reference = fine[k] + (fine[k] - coarse[k]) / 15.0;
                let ctx = format!("code {code} at {inst:?} {}", NAMES[k]);
                let gap = ((fine[k] - coarse[k]) / reference).abs();
                assert!(gap < 1e-5, "{ctx}: reference not converged ({gap:.1e})");
                let rel = ((got[k] - reference) / reference).abs();
                assert!(
                    rel <= 1e-4,
                    "{ctx}: {:e} vs reference {reference:e} ({rel:.2e})",
                    got[k]
                );
            }
        }
    }
}
