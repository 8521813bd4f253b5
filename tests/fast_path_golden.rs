//! Golden pins for the fast scalar programming path.
//!
//! `program_cell_fast` outputs recorded with a bracketed `newton_bisect`
//! divider solve (midpoint start, finite-difference derivative) on every
//! step. A kernel change must reproduce them to 1e-9 relative; a
//! deliberate numerical shift re-records them and says so in CHANGES.md.

use oxterm_mlc::levels::LevelAllocation;
use oxterm_mlc::program::{program_cell_fast, ProgramConditions};
use oxterm_rram::params::{InstanceVariation, OxramParams};

/// Allowed relative drift from the recorded values.
const REL_TOL: f64 = 1e-9;

/// `(code, R_read Ω, RESET latency s, RESET energy J, SET energy J)` of the
/// nominal cell.
#[rustfmt::skip]
const NOMINAL: [(u16, f64, f64, f64, f64); 16] = [
    (0, 37141.59536790048, 2.440159796622877e-7, 1.4118428121261761e-11, 2.4820487961375976e-11),
    (1, 39648.40974701026, 2.791658954326438e-7, 1.5485488049441273e-11, 2.4820487961375976e-11),
    (2, 42625.01401252085, 3.2036517653285977e-7, 1.707839876489573e-11, 2.4820487961375976e-11),
    (3, 45894.12575290686, 3.690118635090735e-7, 1.878845931511042e-11, 2.4820487961375976e-11),
    (4, 49692.63675495677, 4.269074373612266e-7, 2.0722248172379237e-11, 2.4820487961375976e-11),
    (5, 54102.498466630066, 4.964185602363465e-7, 2.289449639290714e-11, 2.4820487961375976e-11),
    (6, 59199.493351141406, 5.807002249561492e-7, 2.5307822464078642e-11, 2.4820487961375976e-11),
    (7, 65288.08202319641, 6.840332148245102e-7, 2.8056183201880577e-11, 2.4820487961375976e-11),
    (8, 72535.20484980912, 8.123670426639228e-7, 3.114392943922684e-11, 2.4820487961375976e-11),
    (9, 81433.77754248273, 9.74186825400228e-7, 3.4679282821825616e-11, 2.4820487961375976e-11),
    (10, 92562.17639652484, 1.1820238313134897e-6, 3.8739065918028253e-11, 2.4820487961375976e-11),
    (11, 106809.11410179728, 1.4551920175433962e-6, 4.3422255955409214e-11, 2.4820487961375976e-11),
    (12, 125901.93561633478, 1.8251617459408676e-6, 4.8940177355512934e-11, 2.4820487961375976e-11),
    (13, 152647.83619461235, 2.3471569439309078e-6, 5.551789174992526e-11, 2.4820487961375976e-11),
    (14, 192827.5105307718, 3.1285182724451264e-6, 6.355935208318035e-11, 2.4820487961375976e-11),
    (15, 259732.7433565876, 4.41170434571119e-6, 7.376191653562672e-11, 2.4820487961375976e-11),
];

/// `(lx_factor, alpha_factor, code, R_read Ω, RESET latency s, RESET energy
/// J, SET energy J)` at the ±10% corners for the 36 µA (code 0) and 6 µA
/// (code 15) levels.
#[rustfmt::skip]
const CORNERS: [(f64, f64, u16, f64, f64, f64, f64); 8] = [
    (0.9, 0.9, 0, 37089.94364062926, 2.745767460390154e-7, 1.6094907521193048e-11, 2.623148616436048e-11),
    (0.9, 0.9, 15, 259765.1588513385, 4.851001200111332e-6, 8.162526756099456e-11, 2.623148616436048e-11),
    (0.9, 1.1, 0, 37013.981247900374, 1.6182479576780536e-7, 9.703312422419884e-12, 2.965901585572899e-11),
    (0.9, 1.1, 15, 259856.45719922017, 2.592481143094172e-6, 4.4785629042019765e-11, 2.965901585572899e-11),
    (1.1, 0.9, 0, 36994.42456125185, 3.1995705172567055e-7, 1.7390694992800363e-11, 1.9035857240653474e-11),
    (1.1, 0.9, 15, 259761.7917412452, 6.746681529202629e-6, 1.0896361087557405e-10, 1.9035857240653474e-11),
    (1.1, 1.1, 0, 36995.822277380736, 2.179564936507778e-7, 1.2338293053056771e-11, 2.3418609825080472e-11),
    (1.1, 1.1, 15, 259750.419546786, 4.0474207427490055e-6, 6.721595485823577e-11, 2.3418609825080472e-11),
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
