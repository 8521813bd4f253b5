//! Compressed-sparse-column matrices, built from coordinate triplets or from
//! a bare pattern.
//!
//! Coordinate assembly naturally produces duplicate entries (every device
//! stamps into the same node positions), so [`TripletMatrix`] accumulates
//! duplicates and [`TripletMatrix::to_csc`] sums them during compression —
//! exactly the semantics of the dense [`crate::dense::DMatrix::add`] stamp.
//! A solver that re-assembles one system many times instead builds the
//! pattern once with [`CscMatrix::from_pattern`] and rewrites
//! [`CscMatrix::values_mut`] in place.

use crate::NumericsError;

/// A growable coordinate-format (COO) sparse matrix used during assembly.
///
/// # Examples
///
/// ```
/// use oxterm_numerics::sparse::TripletMatrix;
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.add(0, 0, 1.0);
/// t.add(0, 0, 2.0); // duplicates accumulate
/// t.add(1, 1, 5.0);
/// let csc = t.to_csc();
/// assert_eq!(csc.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl TripletMatrix {
    /// Creates an empty `n_rows × n_cols` triplet accumulator.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        TripletMatrix {
            n_rows,
            n_cols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored (possibly duplicate) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends `value` at `(row, col)`; duplicates are summed at compression.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n_rows && col < self.n_cols,
            "triplet out of bounds"
        );
        if value != 0.0 {
            self.rows.push(row);
            self.cols.push(col);
            self.vals.push(value);
        }
    }

    /// Drops all entries, keeping allocations for reuse across NR iterations.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Compresses to CSC, summing duplicate coordinates.
    pub fn to_csc(&self) -> CscMatrix {
        let n_cols = self.n_cols;
        // Count entries per column.
        let mut count = vec![0usize; n_cols + 1];
        for &c in &self.cols {
            count[c + 1] += 1;
        }
        for j in 0..n_cols {
            count[j + 1] += count[j];
        }
        let col_ptr_raw = count.clone();
        let nnz = self.vals.len();
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut cursor = col_ptr_raw.clone();
        for k in 0..nnz {
            let c = self.cols[k];
            let dst = cursor[c];
            row_idx[dst] = self.rows[k];
            values[dst] = self.vals[k];
            cursor[c] += 1;
        }
        let mut csc = CscMatrix {
            n_rows: self.n_rows,
            n_cols,
            col_ptr: col_ptr_raw,
            row_idx,
            values,
        };
        csc.sum_duplicates();
        csc
    }
}

/// A compressed-sparse-column matrix with a fixed pattern.
///
/// The pattern (column pointers and row indices, rows ascending within each
/// column) never changes after construction; the values may be rewritten in
/// place through [`CscMatrix::values_mut`], which is how a Newton loop
/// re-assembles the same MNA system each iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    n_rows: usize,
    n_cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds the pattern holding every `(row, col)` position in `entries`
    /// (duplicates merged), with all values zero.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of bounds.
    ///
    /// # Examples
    ///
    /// ```
    /// use oxterm_numerics::sparse::CscMatrix;
    ///
    /// let mut m = CscMatrix::from_pattern(2, 2, [(1, 0), (0, 0), (1, 0)]);
    /// assert_eq!(m.row_idx(), &[0, 1]);
    /// m.values_mut()[1] = 4.0;
    /// assert_eq!(m.get(1, 0), 4.0);
    /// ```
    pub fn from_pattern(
        n_rows: usize,
        n_cols: usize,
        entries: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let mut cells: Vec<(usize, usize)> = entries
            .into_iter()
            .map(|(r, c)| {
                assert!(r < n_rows && c < n_cols, "pattern entry out of bounds");
                (c, r)
            })
            .collect();
        cells.sort_unstable();
        cells.dedup();
        let mut col_ptr = vec![0usize; n_cols + 1];
        for &(c, _) in &cells {
            col_ptr[c + 1] += 1;
        }
        for j in 0..n_cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        CscMatrix {
            n_rows,
            n_cols,
            col_ptr,
            row_idx: cells.iter().map(|&(_, r)| r).collect(),
            values: vec![0.0; cells.len()],
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of structurally stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column pointer array (`n_cols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices, column by column.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Stored values, column by column.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable stored values, column by column; the pattern stays fixed.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Entry accessor (linear scan within the column; fine for tests and
    /// diagnostics, not for inner loops).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let lo = self.col_ptr[col];
        let hi = self.col_ptr[col + 1];
        for k in lo..hi {
            if self.row_idx[k] == row {
                return self.values[k];
            }
        }
        0.0
    }

    /// Computes `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `x.len() != n_cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericsError> {
        if x.len() != self.n_cols {
            return Err(NumericsError::DimensionMismatch {
                expected: self.n_cols,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.n_rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                y[self.row_idx[k]] += self.values[k] * xj;
            }
        }
        Ok(y)
    }

    /// In-place consolidation of duplicate row indices within each column,
    /// also sorting rows ascending.
    fn sum_duplicates(&mut self) {
        let mut new_col_ptr = Vec::with_capacity(self.n_cols + 1);
        let mut new_rows = Vec::with_capacity(self.row_idx.len());
        let mut new_vals = Vec::with_capacity(self.values.len());
        new_col_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..self.n_cols {
            scratch.clear();
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                scratch.push((self.row_idx[k], self.values[k]));
            }
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let r = scratch[i].0;
                let mut v = scratch[i].1;
                let mut k = i + 1;
                while k < scratch.len() && scratch[k].0 == r {
                    v += scratch[k].1;
                    k += 1;
                }
                new_rows.push(r);
                new_vals.push(v);
                i = k;
            }
            new_col_ptr.push(new_rows.len());
        }
        self.col_ptr = new_col_ptr;
        self.row_idx = new_rows;
        self.values = new_vals;
    }

    /// Converts to a dense matrix (tests and cross-checks).
    pub fn to_dense(&self) -> crate::dense::DMatrix {
        let mut m = crate::dense::DMatrix::zeros(self.n_rows, self.n_cols);
        for j in 0..self.n_cols {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                m.add(self.row_idx[k], j, self.values[k]);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.0);
        t.add(2, 1, -4.0);
        t.add(2, 1, 1.0);
        let m = t.to_csc();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(2, 1), -3.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn zero_entries_are_skipped() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 1, 0.0);
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(2, 0, 1.0);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 2.0);
        t.add(1, 0, 1.0);
        t.add(1, 1, 3.0);
        t.add(2, 2, -1.0);
        t.add(0, 2, 5.0);
        let m = t.to_csc();
        let x = [1.0, 2.0, 3.0];
        let y = m.mul_vec(&x).unwrap();
        let yd = m.to_dense().mul_vec(&x).unwrap();
        assert_eq!(y, yd);
    }

    #[test]
    fn rows_sorted_within_columns() {
        let mut t = TripletMatrix::new(4, 1);
        t.add(3, 0, 1.0);
        t.add(0, 0, 2.0);
        t.add(2, 0, 3.0);
        let m = t.to_csc();
        assert_eq!(m.row_idx(), &[0, 2, 3]);
    }

    #[test]
    fn clear_retains_dimensions() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.clear();
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.n_rows(), 2);
    }
}
