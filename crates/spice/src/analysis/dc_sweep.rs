//! Warm-started DC parameter sweeps.

use crate::analysis::op::solve_op_in;
use crate::analysis::MnaWorkspace;
use crate::circuit::Circuit;
use crate::options::OpOptions;
use crate::solution::Solution;
use crate::SpiceError;

/// Sweeps a circuit parameter across `points`, solving the DC operating
/// point at each value with warm starting from the previous point.
///
/// `configure` is called with the circuit and the current sweep value before
/// each solve; it typically sets a source level via
/// [`Circuit::device_mut`].
///
/// Quasi-static I–V curves (the paper's Figs 1c and 5) are produced this way:
/// the sweep rate is assumed slow relative to every circuit time constant.
///
/// # Errors
///
/// Propagates the first solve failure, tagged with the sweep value.
///
/// # Examples
///
/// See the crate-level example; `oxterm-rram::iv` builds its I–V sweeps on
/// this function.
pub fn dc_sweep<F>(
    circuit: &mut Circuit,
    points: &[f64],
    mut configure: F,
    opts: &OpOptions,
) -> Result<Vec<(f64, Solution)>, SpiceError>
where
    F: FnMut(&mut Circuit, f64) -> Result<(), SpiceError>,
{
    let mut out = Vec::with_capacity(points.len());
    let mut prev: Option<Solution> = None;
    let mut ws = MnaWorkspace::new(circuit, opts.sim);
    for &p in points {
        configure(circuit, p)?;
        let sol = solve_op_in(circuit, &mut ws, prev.as_ref()).map_err(|e| match e {
            SpiceError::NoConvergence {
                analysis,
                time,
                detail,
            } => SpiceError::NoConvergence {
                analysis,
                time,
                detail: format!("{detail} (sweep value {p})"),
            },
            other => other,
        })?;
        prev = Some(sol.clone());
        out.push((p, sol));
    }
    Ok(out)
}

/// Builds a linearly spaced sweep grid, inclusive of both endpoints.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn linspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    (0..n)
        .map(|i| start + (stop - start) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_exact() {
        let g = linspace(-1.0, 1.0, 5);
        assert_eq!(g, vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_rejects_single_point() {
        linspace(0.0, 1.0, 1);
    }
}
