//! Sparse symmetric linear algebra: CSR matrices and a conjugate-gradient
//! solver.
//!
//! Quadratic placement reduces to solving `A x = b` with `A` the
//! (symmetric positive definite) connectivity Laplacian augmented by the
//! fixed-pad diagonal. The flat placer solves systems of up to a few
//! thousand variables (below the flow's multilevel threshold), where
//! Jacobi-preconditioned CG converges in a few hundred iterations
//! without fill-in. Multilevel refinement runs a bounded number of
//! iterations on systems of 10⁵–10⁶ variables; there the mat-vec fans
//! rows out over worker threads and dot products reduce in fixed
//! chunks, so results stay bitwise identical at any thread count.

use lily_fault::{CancelToken, Cancelled};
use lily_par::ParOptions;

/// Minimum number of stored entries before [`CsrMatrix::mul`] fans rows
/// out over worker threads; below this the spawn cost dominates the
/// mat-vec itself. The threshold affects only scheduling: each row is
/// always reduced by the same sequential fold, so results are bitwise
/// identical either way.
const PAR_NNZ: usize = 16_384;

/// Rows per parallel SpMV chunk. Fixed (never derived from the thread
/// count) so chunk boundaries — and therefore nothing at all about the
/// arithmetic — change with parallelism.
const SPMV_ROW_CHUNK: usize = 1024;

/// Elements per ordered-reduction chunk in [`ordered_dot`]. Fixed so
/// the partial-sum tree depends only on the vector length: problems at
/// or below this size reduce by the historical flat left fold
/// (bit-compatible with the sequential implementation this replaced),
/// larger ones by a deterministic two-level chunked sum.
const DOT_CHUNK: usize = 4096;

/// A row missing its structural diagonal entry, discovered by
/// [`CsrMatrix::diagonal`]. A Laplacian-plus-anchors matrix always has
/// a full diagonal; a missing one means the builder was fed a malformed
/// system, and silently treating it as `0.0` would quietly disable the
/// Jacobi preconditioner for that row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingDiagonal {
    /// The first row (lowest index) with no stored diagonal entry.
    pub row: usize,
}

impl std::fmt::Display for MissingDiagonal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "row {} has no structural diagonal entry", self.row)
    }
}

impl std::error::Error for MissingDiagonal {}

/// A sparse symmetric matrix in compressed-sparse-row form. Both halves
/// of each off-diagonal entry are stored, keeping the mat-vec trivial.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
}

/// Builder accumulating (row, col, value) triplets; duplicates are
/// summed.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    n: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl CsrBuilder {
    /// Creates a builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        Self { n, triplets: Vec::new() }
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of range");
        self.triplets.push((row, col, value));
    }

    /// Adds a symmetric off-diagonal pair plus the Laplacian diagonal
    /// contribution: `A[i][i] += w`, `A[j][j] += w`, `A[i][j] -= w`,
    /// `A[j][i] -= w`.
    pub fn add_spring(&mut self, i: usize, j: usize, w: f64) {
        self.add(i, i, w);
        self.add(j, j, w);
        self.add(i, j, -w);
        self.add(j, i, -w);
    }

    /// Adds only the diagonal (a spring to a fixed location).
    pub fn add_anchor(&mut self, i: usize, w: f64) {
        self.add(i, i, w);
    }

    /// Finalizes into CSR form.
    pub fn build(mut self) -> CsrMatrix {
        self.triplets.sort_unstable_by_key(|t| (t.0, t.1));
        let mut row_ptr = vec![0usize; self.n + 1];
        let mut col = Vec::new();
        let mut val = Vec::new();
        let mut i = 0usize;
        while i < self.triplets.len() {
            let (r, c, mut v) = self.triplets[i];
            i += 1;
            while i < self.triplets.len() && self.triplets[i].0 == r && self.triplets[i].1 == c {
                v += self.triplets[i].2;
                i += 1;
            }
            row_ptr[r + 1] += 1;
            col.push(c);
            val.push(v);
        }
        for r in 0..self.n {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix { n: self.n, row_ptr, col, val }
    }
}

impl CsrMatrix {
    /// Assembles a matrix from rows given in order: `row_ptr[r]..row_ptr[r + 1]`
    /// indexes row `r`'s columns (ascending, distinct) and values.
    pub(crate) fn from_rows(row_ptr: Vec<usize>, col: Vec<usize>, val: Vec<f64>) -> Self {
        debug_assert_eq!(row_ptr.last().copied(), Some(col.len()));
        debug_assert_eq!(col.len(), val.len());
        Self { n: row_ptr.len() - 1, row_ptr, col, val }
    }

    /// Row `r`'s stored columns and values.
    #[cfg(test)]
    pub(crate) fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col[span.clone()], &self.val[span])
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from `n`.
    pub fn mul(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let opts = ParOptions::current();
        if self.val.len() >= PAR_NNZ && opts.is_parallel() {
            lily_par::par_chunks_mut(&opts, y, SPMV_ROW_CHUNK, |offset, rows| {
                self.mul_rows(x, offset, rows);
            });
        } else {
            self.mul_rows(x, 0, y);
        }
    }

    /// Computes rows `offset..offset + out.len()` of `A x` into `out`.
    /// Each row is an independent left fold over its stored entries, so
    /// any row partition yields bitwise-identical results.
    fn mul_rows(&self, x: &[f64], offset: usize, out: &mut [f64]) {
        for (i, yr) in out.iter_mut().enumerate() {
            let r = offset + i;
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.val[k] * x[self.col[k]];
            }
            *yr = acc;
        }
    }

    /// The diagonal of the matrix (for Jacobi preconditioning).
    ///
    /// # Errors
    ///
    /// [`MissingDiagonal`] naming the first row with no stored diagonal
    /// entry. Historically such rows silently yielded `0.0`, which
    /// disabled the preconditioner for that row and let a malformed
    /// system masquerade as a hard-to-converge one.
    pub fn diagonal(&self) -> Result<Vec<f64>, MissingDiagonal> {
        let mut d = vec![0.0; self.n];
        for (r, dr) in d.iter_mut().enumerate() {
            let mut found = false;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                if self.col[k] == r {
                    *dr = self.val[k];
                    found = true;
                }
            }
            if !found {
                return Err(MissingDiagonal { row: r });
            }
        }
        Ok(d)
    }
}

/// Dot product with a deterministic, thread-count-independent reduction
/// order: the input is cut into fixed [`DOT_CHUNK`]-element chunks, each
/// chunk is reduced by a sequential left fold (in parallel across
/// chunks when worthwhile), and the per-chunk partials are summed left
/// to right. Vectors no longer than one chunk reduce to the plain
/// sequential fold, bit-for-bit.
pub fn ordered_dot(a: &[f64], b: &[f64]) -> f64 {
    let chunk_dot =
        |c: usize| -> f64 { a[c..].iter().take(DOT_CHUNK).zip(&b[c..]).map(|(x, y)| x * y).sum() };
    if a.len() <= DOT_CHUNK {
        return chunk_dot(0);
    }
    let starts: Vec<usize> = (0..a.len()).step_by(DOT_CHUNK).collect();
    let partials = lily_par::par_map(&ParOptions::current(), &starts, |&c| chunk_dot(c));
    partials.iter().sum()
}

/// Squared Euclidean norm via [`ordered_dot`] (same determinism
/// contract).
pub fn ordered_norm_sq(v: &[f64]) -> f64 {
    ordered_dot(v, v)
}

/// Outcome of a [`cg_solve`] run: the solution estimate plus the
/// convergence evidence the caller needs to decide whether to trust it.
#[derive(Debug, Clone, PartialEq)]
pub struct CgSolve {
    /// The solution estimate (the best iterate when not converged).
    pub x: Vec<f64>,
    /// Iterations spent.
    pub iterations: usize,
    /// Final relative residual `‖b − A x‖ / ‖b‖`.
    pub residual: f64,
    /// Whether the residual dropped below the tolerance.
    pub converged: bool,
}

impl CgSolve {
    /// Whether the solution can be used: converged and every component
    /// finite.
    pub fn is_usable(&self) -> bool {
        self.converged && self.x.iter().all(|v| v.is_finite())
    }
}

/// Solves `A x = b` by Jacobi-preconditioned conjugate gradients,
/// starting from `x0`, reporting convergence instead of assuming it.
///
/// `A` must be symmetric positive definite (the placement Laplacian with
/// at least one anchor per connected component is). Divergence is
/// detected two ways: a non-finite residual (NaN inputs, indefinite
/// matrices) stops the iteration immediately, and exhausting `max_iter`
/// leaves `converged` false with the final residual recorded. The
/// returned iterate is the last finite one when possible.
///
/// The calling thread's ambient [`CancelToken`] is polled once per
/// iteration: a tripped token (stage deadline,
/// injected cancel) stops the solve instead of spending the remaining
/// iteration budget. Outside any cancellation scope the ambient token
/// never trips.
///
/// # Errors
///
/// [`Cancelled`] when the ambient token trips mid-solve.
///
/// # Panics
///
/// Panics on dimension mismatch (caller-side programming error; the
/// slices come from the same builder).
pub fn cg_solve(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<CgSolve, Cancelled> {
    cg_solve_under(a, b, x0, tol, max_iter, &lily_fault::ambient_token())
}

/// [`cg_solve`] polling `cancel`: the body the placers call with the
/// token their public entry point snapshot.
pub(crate) fn cg_solve_under(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    tol: f64,
    max_iter: usize,
    cancel: &CancelToken,
) -> Result<CgSolve, Cancelled> {
    let n = a.n();
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    if n == 0 {
        return Ok(CgSolve { x: Vec::new(), iterations: 0, residual: 0.0, converged: true });
    }
    if !b.iter().all(|v| v.is_finite()) || !x0.iter().all(|v| v.is_finite()) {
        return Ok(CgSolve { x: x0.to_vec(), iterations: 0, residual: f64::NAN, converged: false });
    }
    // A structurally-deficient matrix (missing diagonal) is a malformed
    // system, not a convergence problem: refuse to iterate and report a
    // non-converged, non-finite-residual solve the caller's existing
    // divergence handling already knows how to reject.
    let Ok(diag) = a.diagonal() else {
        return Ok(CgSolve { x: x0.to_vec(), iterations: 0, residual: f64::NAN, converged: false });
    };
    let precond = |r: &[f64], z: &mut [f64]| {
        for i in 0..n {
            z[i] = if diag[i].abs() > 1e-300 { r[i] / diag[i] } else { r[i] };
        }
    };

    let mut x = x0.to_vec();
    let mut r = vec![0.0; n];
    a.mul(&x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut z = vec![0.0; n];
    precond(&r, &mut z);
    let mut p = z.clone();
    let mut rz = ordered_dot(&r, &z);
    let b_norm = ordered_norm_sq(b).sqrt().max(1e-300);
    let mut ap = vec![0.0; n];
    let mut rel = f64::INFINITY;

    for iter in 0..max_iter {
        cancel.check()?;
        let r_norm = ordered_norm_sq(&r).sqrt();
        rel = r_norm / b_norm;
        if !rel.is_finite() {
            return Ok(CgSolve { x, iterations: iter, residual: rel, converged: false });
        }
        if r_norm <= tol * b_norm {
            return Ok(CgSolve { x, iterations: iter, residual: rel, converged: true });
        }
        a.mul(&p, &mut ap);
        let pap = ordered_dot(&p, &ap);
        if pap.abs() < 1e-300 || !pap.is_finite() {
            break;
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        precond(&r, &mut z);
        let rz_new = ordered_dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    // Stalled (pap breakdown) or out of budget: the iterate may still
    // be perfectly usable (placement only needs a few digits), so
    // report the residual and let the caller set the acceptance bar.
    Ok(CgSolve { x, iterations: max_iter, residual: rel, converged: false })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sums_duplicates() {
        let mut b = CsrBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.0);
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(1, 1, 1.0);
        let m = b.build();
        assert_eq!(m.diagonal().unwrap(), vec![3.0, 1.0]);
        let mut y = vec![0.0; 2];
        m.mul(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 0.0]);
    }

    #[test]
    fn cg_solves_small_spd_system() {
        // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11]
        let mut b = CsrBuilder::new(2);
        b.add(0, 0, 4.0);
        b.add(0, 1, 1.0);
        b.add(1, 0, 1.0);
        b.add(1, 1, 3.0);
        let a = b.build();
        let CgSolve { x, iterations: iters, .. } =
            cg_solve(&a, &[1.0, 2.0], &[0.0, 0.0], 1e-12, 100).unwrap();
        assert!(iters <= 3);
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-9);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn cg_solves_spring_chain() {
        // Chain of 5 nodes, ends anchored at 0 and 1 with weight 10:
        // equilibrium positions are evenly spaced.
        let n = 5;
        let mut b = CsrBuilder::new(n);
        for i in 0..n - 1 {
            b.add_spring(i, i + 1, 1.0);
        }
        b.add_anchor(0, 10.0);
        b.add_anchor(n - 1, 10.0);
        let a = b.build();
        let mut rhs = vec![0.0; n];
        rhs[0] = 10.0 * 0.0;
        rhs[n - 1] = 10.0 * 1.0;
        let x = cg_solve(&a, &rhs, &vec![0.0; n], 1e-12, 1000).unwrap().x;
        // Monotone, close to linear interpolation.
        for i in 1..n {
            assert!(x[i] > x[i - 1]);
        }
        assert!(x[0] >= 0.0 && x[n - 1] <= 1.0);
        let mid = x[2];
        assert!((mid - 0.5).abs() < 0.05, "mid {mid}");
    }

    #[test]
    fn zero_dimension_is_ok() {
        let a = CsrBuilder::new(0).build();
        let CgSolve { x, iterations: it, .. } = cg_solve(&a, &[], &[], 1e-9, 10).unwrap();
        assert!(x.is_empty());
        assert_eq!(it, 0);
    }

    #[test]
    fn missing_diagonal_is_an_error_not_zero() {
        // Last row has off-diagonal entries only: historically
        // `diagonal()` yielded a silent 0.0 there.
        let mut b = CsrBuilder::new(3);
        b.add(0, 0, 2.0);
        b.add(1, 1, 2.0);
        b.add(2, 0, -1.0);
        b.add(0, 2, -1.0);
        let a = b.build();
        assert_eq!(a.diagonal(), Err(MissingDiagonal { row: 2 }));
        // cg_solve refuses to iterate rather than running with a
        // half-disabled preconditioner.
        let s = cg_solve(&a, &[1.0, 1.0, 1.0], &[0.0; 3], 1e-9, 100).unwrap();
        assert!(!s.converged);
        assert_eq!(s.iterations, 0);
        assert!(!s.is_usable());
        assert!(s.residual.is_nan());
    }

    #[test]
    fn missing_diagonal_reports_lowest_row() {
        // Rows 1 and 3 both lack a diagonal; row 1 must be named.
        let mut b = CsrBuilder::new(4);
        b.add(0, 0, 1.0);
        b.add(1, 0, -1.0);
        b.add(2, 2, 1.0);
        b.add(3, 2, -1.0);
        let a = b.build();
        assert_eq!(a.diagonal(), Err(MissingDiagonal { row: 1 }));
    }

    #[test]
    fn empty_rows_also_lack_a_diagonal() {
        // A fully empty row is the degenerate case of the same defect.
        let mut b = CsrBuilder::new(2);
        b.add(0, 0, 1.0);
        let a = b.build();
        assert_eq!(a.diagonal(), Err(MissingDiagonal { row: 1 }));
    }

    /// A deterministic pseudo-random SPD system big enough to cross the
    /// `PAR_NNZ` and `DOT_CHUNK` thresholds.
    fn big_system(n: usize) -> (CsrMatrix, Vec<f64>) {
        let mut b = CsrBuilder::new(n);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n - 1 {
            b.add_spring(i, i + 1, 1.0 + (next() % 7) as f64 * 0.25);
        }
        for i in 0..n {
            if next() % 5 == 0 {
                let j = (next() as usize) % n;
                if j != i {
                    b.add_spring(i, j, 0.5);
                }
            }
            b.add_anchor(i, 0.01);
        }
        b.add_anchor(0, 10.0);
        b.add_anchor(n - 1, 10.0);
        let rhs: Vec<f64> =
            (0..n).map(|i| ((next() % 100) as f64 - 50.0) * 0.1 + i as f64 * 1e-4).collect();
        (b.build(), rhs)
    }

    #[test]
    fn spmv_and_cg_are_bitwise_identical_at_any_thread_count() {
        let n = 6000;
        let (a, rhs) = big_system(n);
        assert!(a.val.len() >= PAR_NNZ, "test must exercise the parallel path");
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();

        lily_par::set_threads(Some(1));
        let mut y1 = vec![0.0; n];
        a.mul(&x, &mut y1);
        let d1 = ordered_dot(&x, &y1);
        let s1 = cg_solve(&a, &rhs, &vec![0.0; n], 1e-8, 300).unwrap();

        for threads in [2usize, 8] {
            lily_par::set_threads(Some(threads));
            let mut yt = vec![0.0; n];
            a.mul(&x, &mut yt);
            let same = y1.iter().zip(&yt).all(|(p, q)| p.to_bits() == q.to_bits());
            assert!(same, "SpMV bits differ at {threads} threads");
            assert_eq!(d1.to_bits(), ordered_dot(&x, &yt).to_bits(), "dot at {threads}");
            let st = cg_solve(&a, &rhs, &vec![0.0; n], 1e-8, 300).unwrap();
            assert_eq!(st.iterations, s1.iterations, "cg iterations at {threads}");
            assert_eq!(st.residual.to_bits(), s1.residual.to_bits(), "cg residual at {threads}");
            let same = s1.x.iter().zip(&st.x).all(|(p, q)| p.to_bits() == q.to_bits());
            assert!(same, "cg solution bits differ at {threads} threads");
        }
        lily_par::set_threads(None);
    }

    #[test]
    fn ordered_dot_matches_flat_fold_at_or_below_one_chunk() {
        // At or below DOT_CHUNK elements the reduction must be the
        // historical flat left fold, bit for bit (golden compatibility).
        for n in [0usize, 1, 7, DOT_CHUNK] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos() * 3.7).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin() - 0.4).collect();
            let flat: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(ordered_dot(&a, &b).to_bits(), flat.to_bits(), "n={n}");
        }
    }

    #[test]
    fn warm_start_converges_instantly() {
        let mut b = CsrBuilder::new(2);
        b.add(0, 0, 2.0);
        b.add(1, 1, 2.0);
        let a = b.build();
        let CgSolve { x, iterations: iters, .. } =
            cg_solve(&a, &[2.0, 4.0], &[1.0, 2.0], 1e-10, 100).unwrap();
        assert_eq!(iters, 0);
        assert_eq!(x, vec![1.0, 2.0]);
    }
}
