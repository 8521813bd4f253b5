//! Left-looking sparse LU factorization with partial pivoting
//! (Gilbert–Peierls), in the style of CSparse's `cs_lu`.
//!
//! This is the factorization behind every Newton iteration of
//! `oxterm-spice`. MNA matrices have a handful of entries per row, and this
//! factorization's cost is proportional to the flops actually performed on
//! structural nonzeros, so it beats a dense `O(n³)` LU from the 11-unknown
//! cell testbench up to full-array netlists. [`SparseLu::factorize_into`]
//! refactorizes in place, reusing every factor and search buffer, so a
//! Newton loop on a fixed pattern allocates nothing after its first
//! iteration.
//!
//! The implementation follows the classic scheme: for each column `k`, a
//! depth-first search over the partially-built pattern of `L` determines the
//! topological nonzero pattern of `L⁻¹·A(:,k)`, a numeric sparse triangular
//! solve fills it in, and the largest remaining non-pivotal entry is chosen as
//! the pivot (partial pivoting).

use crate::sparse::CscMatrix;
use crate::NumericsError;

/// A sparse LU factorization `P·A = L·U`.
///
/// Produced by [`SparseLu::factorize`], or refreshed in place by
/// [`SparseLu::factorize_into`]. `L` has a unit diagonal; `U` stores its
/// diagonal as the last entry of each column.
///
/// # Examples
///
/// ```
/// use oxterm_numerics::sparse::TripletMatrix;
/// use oxterm_numerics::sparse_lu::SparseLu;
///
/// # fn main() -> Result<(), oxterm_numerics::NumericsError> {
/// let mut t = TripletMatrix::new(2, 2);
/// t.add(0, 0, 4.0);
/// t.add(0, 1, 1.0);
/// t.add(1, 0, 1.0);
/// t.add(1, 1, 3.0);
/// let lu = SparseLu::factorize(&t.to_csc())?;
/// let x = lu.solve(&[1.0, 2.0])?;
/// assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    /// `pinv[original_row] = pivot position`.
    pinv: Vec<usize>,
    /// Dense scatter workspace (all zero between columns).
    x: Vec<f64>,
    mark: Vec<bool>,
    /// Reach of the current column, in DFS postorder.
    reach: Vec<usize>,
    stack: Vec<usize>,
    pstack: Vec<usize>,
}

/// Pivots below this magnitude (relative to the matrix scale) are singular.
const PIVOT_FLOOR: f64 = 1e-13;

/// `pinv` entry of a row not yet chosen as a pivot.
const UNPIVOTED: usize = usize::MAX;

impl SparseLu {
    /// Factorizes a square CSC matrix with partial pivoting.
    ///
    /// # Errors
    ///
    /// See [`SparseLu::factorize_into`].
    pub fn factorize(a: &CscMatrix) -> Result<Self, NumericsError> {
        let mut lu = SparseLu::default();
        lu.factorize_into(a)?;
        Ok(lu)
    }

    /// Refactorizes `a` in place, with the same partial pivoting as
    /// [`SparseLu::factorize`], reusing every factor and search buffer.
    /// Once the buffers have grown to fit a pattern, refactorizing any
    /// matrix of that pattern allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] for non-square inputs and
    /// [`NumericsError::SingularMatrix`] when no usable pivot exists in a
    /// column. After an error the factors are unusable ([`SparseLu::n`] is
    /// 0) until the next successful call.
    pub fn factorize_into(&mut self, a: &CscMatrix) -> Result<(), NumericsError> {
        let n = a.n_rows();
        if a.n_cols() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: n,
                found: a.n_cols(),
            });
        }
        self.n = 0;
        let scale = a.values().iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        let SparseLu {
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            pinv,
            x,
            mark,
            reach,
            stack,
            pstack,
            ..
        } = self;

        for v in [&mut *l_colptr, &mut *u_colptr] {
            v.clear();
            v.push(0);
        }
        for v in [&mut *l_rows, &mut *u_rows] {
            v.clear();
            v.reserve(4 * a.nnz());
        }
        for v in [&mut *l_vals, &mut *u_vals] {
            v.clear();
            v.reserve(4 * a.nnz());
        }
        // pinv[i] = pivot position of original row i, or UNPIVOTED.
        pinv.clear();
        pinv.resize(n, UNPIVOTED);
        x.clear();
        x.resize(n, 0.0);
        mark.clear();
        mark.resize(n, false);
        reach.reserve(n); // reverse postorder
        stack.reserve(n);
        pstack.reserve(n);

        for k in 0..n {
            // --- Symbolic: reach of A(:,k) through the pattern of L. ---
            reach.clear();
            for idx in a.col_ptr()[k]..a.col_ptr()[k + 1] {
                let b = a.row_idx()[idx];
                if mark[b] {
                    continue;
                }
                // Iterative DFS from b.
                stack.clear();
                pstack.clear();
                stack.push(b);
                pstack.push(usize::MAX); // sentinel: not yet initialized
                while let Some(&j) = stack.last() {
                    let jcol = pinv[j];
                    let top = stack.len() - 1;
                    if pstack[top] == usize::MAX {
                        mark[j] = true;
                        pstack[top] = if jcol == UNPIVOTED {
                            usize::MAX - 1 // no children
                        } else {
                            l_colptr[jcol] + 1 // skip unit diagonal
                        };
                    }
                    let mut descended = false;
                    if jcol != UNPIVOTED {
                        let end = l_colptr[jcol + 1];
                        let mut p = pstack[top];
                        while p < end {
                            let i = l_rows[p];
                            if !mark[i] {
                                pstack[top] = p + 1;
                                stack.push(i);
                                pstack.push(usize::MAX);
                                descended = true;
                                break;
                            }
                            p += 1;
                        }
                        if !descended {
                            pstack[top] = end;
                        }
                    }
                    if !descended {
                        // j finished: record in postorder.
                        reach.push(j);
                        stack.pop();
                        pstack.pop();
                    }
                }
            }

            // --- Numeric: sparse triangular solve x = L \ A(:,k). ---
            for idx in a.col_ptr()[k]..a.col_ptr()[k + 1] {
                x[a.row_idx()[idx]] = a.values()[idx];
            }
            // Topological order = reverse postorder.
            for &j in reach.iter().rev() {
                let jcol = pinv[j];
                if jcol == UNPIVOTED {
                    continue;
                }
                let xj = x[j]; // L diagonal is 1, no division needed
                if xj != 0.0 {
                    for p in (l_colptr[jcol] + 1)..l_colptr[jcol + 1] {
                        x[l_rows[p]] -= l_vals[p] * xj;
                    }
                }
            }

            // --- Pivot search among non-pivotal rows. ---
            let mut ipiv = UNPIVOTED;
            let mut best = -1.0f64;
            for &i in reach.iter() {
                if pinv[i] == UNPIVOTED {
                    let t = x[i].abs();
                    if t > best {
                        best = t;
                        ipiv = i;
                    }
                }
            }
            if ipiv == UNPIVOTED || best <= PIVOT_FLOOR * scale {
                return Err(NumericsError::SingularMatrix { step: k });
            }
            let pivot = x[ipiv];

            // --- Emit U column k (upper entries then diagonal). ---
            for &i in reach.iter() {
                let pos = pinv[i];
                if pos != UNPIVOTED {
                    u_rows.push(pos);
                    u_vals.push(x[i]);
                }
            }
            u_rows.push(k);
            u_vals.push(pivot);
            u_colptr.push(u_rows.len());

            // --- Emit L column k (unit diagonal then sub-diagonal). ---
            pinv[ipiv] = k;
            l_rows.push(ipiv);
            l_vals.push(1.0);
            for &i in reach.iter() {
                if pinv[i] == UNPIVOTED {
                    let v = x[i] / pivot;
                    if v != 0.0 {
                        l_rows.push(i);
                        l_vals.push(v);
                    }
                }
            }
            l_colptr.push(l_rows.len());

            // --- Clear workspace. ---
            for &i in reach.iter() {
                x[i] = 0.0;
                mark[i] = false;
            }
        }

        // Remap L row indices into pivot ordering.
        for r in l_rows.iter_mut() {
            *r = pinv[*r];
        }
        self.n = n;
        Ok(())
    }

    /// Dimension of the factorized system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total structural nonzeros in `L` and `U` (fill-in diagnostic).
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let mut x = vec![0.0; b.len()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-owned `x`, allocating nothing.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` or `x` is not of
    /// length `n`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), NumericsError> {
        let n = self.n;
        for len in [b.len(), x.len()] {
            if len != n {
                return Err(NumericsError::DimensionMismatch {
                    expected: n,
                    found: len,
                });
            }
        }
        // z = P b
        let z = x;
        for (i, &bi) in b.iter().enumerate() {
            z[self.pinv[i]] = bi;
        }
        // Forward: L z' = z (unit diagonal, column-oriented).
        for j in 0..n {
            let zj = z[j];
            if zj != 0.0 {
                for p in (self.l_colptr[j] + 1)..self.l_colptr[j + 1] {
                    z[self.l_rows[p]] -= self.l_vals[p] * zj;
                }
            }
        }
        // Backward: U x = z' (diagonal stored last in each column).
        for j in (0..n).rev() {
            let lo = self.u_colptr[j];
            let hi = self.u_colptr[j + 1];
            let diag = self.u_vals[hi - 1];
            let xj = z[j] / diag;
            z[j] = xj;
            if xj != 0.0 {
                for p in lo..(hi - 1) {
                    z[self.u_rows[p]] -= self.u_vals[p] * xj;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    fn solve_both(t: &TripletMatrix, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let csc = t.to_csc();
        let xs = SparseLu::factorize(&csc).unwrap().solve(b).unwrap();
        let xd = csc.to_dense().factorize().unwrap().solve(b).unwrap();
        (xs, xd)
    }

    #[test]
    fn matches_dense_on_small_system() {
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 2.0);
        t.add(0, 1, -1.0);
        t.add(1, 0, -1.0);
        t.add(1, 1, 2.0);
        t.add(1, 2, -1.0);
        t.add(2, 1, -1.0);
        t.add(2, 2, 2.0);
        let (xs, xd) = solve_both(&t, &[1.0, 0.0, 1.0]);
        for (a, b) in xs.iter().zip(&xd) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn requires_pivoting() {
        // Leading entry zero: only partial pivoting can factor this.
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        let lu = SparseLu::factorize(&t.to_csc()).unwrap();
        let x = lu.solve(&[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn singular_detected() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(1, 0, 2.0);
        // Column 1 empty => singular.
        assert!(matches!(
            SparseLu::factorize(&t.to_csc()),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn random_sparse_systems_match_dense() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [5usize, 12, 30, 64] {
            let mut t = TripletMatrix::new(n, n);
            for i in 0..n {
                t.add(i, i, 4.0 + next());
                // ~3 off-diagonal entries per row
                for _ in 0..3 {
                    let j = ((next().abs() * n as f64) as usize).min(n - 1);
                    t.add(i, j, next());
                }
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let (xs, xd) = solve_both(&t, &b);
            for (a, c) in xs.iter().zip(&xd) {
                assert!((a - c).abs() < 1e-9, "n={n}: sparse {a} vs dense {c}");
            }
            // Residual check too.
            let csc = t.to_csc();
            let r = csc.mul_vec(&xs).unwrap();
            for (ri, bi) in r.iter().zip(&b) {
                assert!((ri - bi).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tridiagonal_ladder_like_mna() {
        // An RC-ladder-like conductance matrix, the exact structure the
        // array parasitic models produce.
        let n = 200;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 2.0);
            if i > 0 {
                t.add(i, i - 1, -1.0);
                t.add(i - 1, i, -1.0);
            }
        }
        t.add(0, 0, 1.0); // ground tie
        let csc = t.to_csc();
        let lu = SparseLu::factorize(&csc).unwrap();
        let b = vec![1.0; n];
        let x = lu.solve(&b).unwrap();
        let r = csc.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9);
        }
        // Fill-in for a tridiagonal system should stay linear in n.
        assert!(lu.nnz() < 6 * n);
    }
}
