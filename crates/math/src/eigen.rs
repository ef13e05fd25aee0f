//! Jacobi eigensolver for small real-symmetric matrices.
//!
//! The two-qubit Weyl (KAK) decomposition diagonalises the complex-symmetric
//! matrix `M = Uᵀ U` (in the magic basis) by *simultaneously* diagonalising
//! its commuting real and imaginary parts, both of which are real symmetric.
//! This module provides the two building blocks that requires:
//!
//! * [`jacobi_eigen`] — eigenvalues and an orthonormal eigenbasis of a real
//!   symmetric `n×n` matrix (cyclic Jacobi rotations), and
//! * [`simultaneous_diagonalize`] — a common orthogonal eigenbasis for two
//!   commuting real symmetric matrices.
//!
//! Matrices are at most [`MAX_DIM`]×[`MAX_DIM`] and live on the stack: NASSC
//! prices `C_2q` with two Weyl decompositions whenever a candidate SWAP's
//! trailing block changes, so the solver sits on the routing path.

/// The largest dimension a [`RealMatrix`] supports: the eigensolver serves
/// the two-qubit (4×4) Weyl decomposition.
pub const MAX_DIM: usize = 4;

/// A dense real matrix of dimension at most [`MAX_DIM`], stored row-major on
/// the stack, so the eigensolver never touches the allocator for it.
///
/// Only the handful of operations needed by the eigensolver are provided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealMatrix {
    n: usize,
    /// The first `n * n` entries hold the matrix; the rest stay zero.
    data: [f64; MAX_DIM * MAX_DIM],
}

impl RealMatrix {
    /// Creates an `n×n` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_DIM`.
    pub fn zeros(n: usize) -> Self {
        assert!(
            n <= MAX_DIM,
            "RealMatrix supports up to {MAX_DIM}x{MAX_DIM}, got {n}"
        );
        Self {
            n,
            data: [0.0; MAX_DIM * MAX_DIM],
        }
    }

    /// Creates the `n×n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * n` or `n > MAX_DIM`.
    pub fn from_rows(n: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), n * n, "row-major data must have n*n entries");
        let mut m = Self::zeros(n);
        m.data[..n * n].copy_from_slice(data);
        m
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element access.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Mutable element access.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Matrix product.
    pub fn mul(&self, rhs: &RealMatrix) -> RealMatrix {
        assert_eq!(self.n, rhs.n);
        let n = self.n;
        let mut out = RealMatrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.data[i * n + j] += a * rhs.get(k, j);
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> RealMatrix {
        let n = self.n;
        let mut out = RealMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Returns `true` when the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// The largest absolute off-diagonal entry.
    pub fn max_off_diagonal(&self) -> f64 {
        let mut m: f64 = 0.0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    m = m.max(self.get(i, j).abs());
                }
            }
        }
        m
    }

    /// Determinant via LU decomposition with partial pivoting.
    pub fn det(&self) -> f64 {
        let n = self.n;
        let mut a = *self;
        let mut det = 1.0;
        for col in 0..n {
            // Pivot.
            let mut pivot = col;
            for row in (col + 1)..n {
                if a.get(row, col).abs() > a.get(pivot, col).abs() {
                    pivot = row;
                }
            }
            if a.get(pivot, col).abs() < 1e-300 {
                return 0.0;
            }
            if pivot != col {
                for j in 0..n {
                    let tmp = a.get(col, j);
                    a.set(col, j, a.get(pivot, j));
                    a.set(pivot, j, tmp);
                }
                det = -det;
            }
            det *= a.get(col, col);
            for row in (col + 1)..n {
                let factor = a.get(row, col) / a.get(col, col);
                for j in col..n {
                    let v = a.get(row, j) - factor * a.get(col, j);
                    a.set(row, j, v);
                }
            }
        }
        det
    }
}

/// The result of a symmetric eigendecomposition: `matrix = V · diag(values) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues, in the order matching the columns of `vectors`.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors stored as columns.
    pub vectors: RealMatrix,
}

/// Diagonalises a real symmetric matrix with the cyclic Jacobi method.
///
/// Returns eigenvalues and an orthonormal eigenvector matrix (columns are
/// eigenvectors). Eigenvalues are **not** sorted.
///
/// # Panics
///
/// Panics if the matrix is not symmetric within `1e-8`.
pub fn jacobi_eigen(matrix: &RealMatrix) -> Eigen {
    assert!(
        matrix.is_symmetric(1e-8),
        "jacobi_eigen requires a symmetric matrix"
    );
    let n = matrix.dim();
    let mut a = *matrix;
    let mut v = RealMatrix::identity(n);

    for _sweep in 0..100 {
        if a.max_off_diagonal() < 1e-14 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-15 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                // Standard Jacobi rotation angle: tan(2θ) = 2a_pq / (a_pp - a_qq)
                let phi = 0.5 * (2.0 * apq).atan2(app - aqq);
                let c = phi.cos();
                let s = phi.sin();
                // Apply rotation R(p,q,phi) on both sides: A' = Rᵀ A R.
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp + s * akq);
                    a.set(k, q, -s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk + s * aqk);
                    a.set(q, k, -s * apk + c * aqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp + s * vkq);
                    v.set(k, q, -s * vkp + c * vkq);
                }
            }
        }
    }

    let values = (0..n).map(|i| a.get(i, i)).collect();
    Eigen { values, vectors: v }
}

/// Finds a common orthonormal eigenbasis of two commuting real symmetric
/// matrices `a` and `b`.
///
/// The returned matrix `V` has columns that are simultaneously eigenvectors
/// of both inputs: `Vᵀ a V` and `Vᵀ b V` are both diagonal (within numerical
/// tolerance). The algorithm diagonalises `a`, groups (near-)degenerate
/// eigenvalues, and re-diagonalises `b` restricted to each degenerate
/// subspace.
///
/// # Panics
///
/// Panics if either matrix is not symmetric.
pub fn simultaneous_diagonalize(a: &RealMatrix, b: &RealMatrix, degeneracy_tol: f64) -> RealMatrix {
    assert_eq!(a.dim(), b.dim());
    let n = a.dim();
    let ea = jacobi_eigen(a);

    // Sort eigenpairs by eigenvalue so that degenerate clusters are contiguous.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| ea.values[i].partial_cmp(&ea.values[j]).unwrap());

    let mut basis = RealMatrix::zeros(n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            basis.set(row, new_col, ea.vectors.get(row, old_col));
        }
    }
    let sorted_values: Vec<f64> = order.iter().map(|&i| ea.values[i]).collect();

    // Identify clusters of (near-)equal eigenvalues of `a`.
    let mut clusters: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for i in 1..=n {
        if i == n || (sorted_values[i] - sorted_values[i - 1]).abs() > degeneracy_tol {
            clusters.push((start, i));
            start = i;
        }
    }

    // Within each cluster, diagonalise b restricted to the subspace.
    let mut result = basis;
    for &(lo, hi) in &clusters {
        let m = hi - lo;
        if m <= 1 {
            continue;
        }
        // Compute the m×m restriction Bsub = Pᵀ b P where P are the cluster columns.
        let mut bsub = RealMatrix::zeros(m);
        for i in 0..m {
            for j in 0..m {
                let mut acc = 0.0;
                for r in 0..n {
                    for c in 0..n {
                        acc += basis.get(r, lo + i) * b.get(r, c) * basis.get(c, lo + j);
                    }
                }
                bsub.set(i, j, acc);
            }
        }
        // Symmetrise tiny numerical asymmetry before diagonalising.
        for i in 0..m {
            for j in (i + 1)..m {
                let avg = 0.5 * (bsub.get(i, j) + bsub.get(j, i));
                bsub.set(i, j, avg);
                bsub.set(j, i, avg);
            }
        }
        let eb = jacobi_eigen(&bsub);
        // New columns are linear combinations of the cluster columns.
        for new in 0..m {
            for row in 0..n {
                let mut acc = 0.0;
                for old in 0..m {
                    acc += basis.get(row, lo + old) * eb.vectors.get(old, new);
                }
                result.set(row, lo + new, acc);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &Eigen) -> RealMatrix {
        let n = e.values.len();
        let mut d = RealMatrix::zeros(n);
        for i in 0..n {
            d.set(i, i, e.values[i]);
        }
        e.vectors.mul(&d).mul(&e.vectors.transpose())
    }

    #[test]
    fn diagonalizes_simple_symmetric_matrix() {
        let m = RealMatrix::from_rows(3, &[2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0]);
        let e = jacobi_eigen(&m);
        let r = reconstruct(&e);
        for i in 0..3 {
            for j in 0..3 {
                assert!((r.get(i, j) - m.get(i, j)).abs() < 1e-10);
            }
        }
        let mut values = e.values.clone();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let sqrt2 = std::f64::consts::SQRT_2;
        assert!((values[0] - (2.0 - sqrt2)).abs() < 1e-10);
        assert!((values[1] - 2.0).abs() < 1e-10);
        assert!((values[2] - (2.0 + sqrt2)).abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = RealMatrix::from_rows(
            4,
            &[
                4.0, 1.0, 0.5, 0.0, 1.0, 3.0, 0.0, 0.2, 0.5, 0.0, 2.0, 1.0, 0.0, 0.2, 1.0, 1.0,
            ],
        );
        let e = jacobi_eigen(&m);
        let vtv = e.vectors.transpose().mul(&e.vectors);
        for i in 0..4 {
            for j in 0..4 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((vtv.get(i, j) - expected).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn simultaneous_diagonalization_of_commuting_pair() {
        // A has a degenerate eigenvalue; B breaks the degeneracy. They commute
        // because both are polynomials of the same underlying symmetric matrix.
        let base = RealMatrix::from_rows(
            4,
            &[
                1.0, 0.5, 0.0, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.3, 0.0, 0.0, 0.3, 2.0,
            ],
        );
        let a = base.mul(&base); // base^2
        let b = base;
        let v = simultaneous_diagonalize(&a, &b, 1e-6);
        let da = v.transpose().mul(&a).mul(&v);
        let db = v.transpose().mul(&b).mul(&v);
        assert!(da.max_off_diagonal() < 1e-8, "A not diagonalized: {da:?}");
        assert!(db.max_off_diagonal() < 1e-8, "B not diagonalized: {db:?}");
    }

    #[test]
    fn determinant_of_rotation_is_one() {
        let m = RealMatrix::from_rows(
            4,
            &[
                2.0, 0.1, 0.0, 0.0, 0.1, 2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 4.0,
            ],
        );
        let e = jacobi_eigen(&m);
        assert!((e.vectors.det().abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn identity_is_fixed_point() {
        let id = RealMatrix::identity(4);
        let e = jacobi_eigen(&id);
        for v in &e.values {
            assert!((v - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "up to 4x4")]
    fn matrices_wider_than_max_dim_are_rejected() {
        RealMatrix::zeros(MAX_DIM + 1);
    }

    #[test]
    fn det_lu_matches_known_value() {
        let m = RealMatrix::from_rows(3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0]);
        assert!((m.det() - -3.0).abs() < 1e-10);
    }
}
