//! Least-squares fitting of the paper's polynomial cost surface.
//!
//! §2.3 models a plan's cost in a 2-D selectivity space as
//! `cost(p, pnt) = c1·σi + c2·σj + c3·σi·σj + c4`, obtained through "standard
//! surface-fitting techniques". [`SurfaceFit`] generalizes this to any number
//! of dimensions: the basis contains a constant, every single dimension, and
//! every pairwise product. The fitted surface provides cheap cost and
//! gradient (slope) estimates at arbitrary points without further optimizer
//! calls, which the weight-assignment step of ERP exploits.

use rld_common::{Result, RldError};
use rld_paramspace::Point;

/// A fitted polynomial cost surface over a d-dimensional parameter space.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceFit {
    dims: usize,
    /// Coefficients ordered as: constant, d linear terms, then pairwise
    /// products (i, j) with i < j in lexicographic order.
    coefficients: Vec<f64>,
}

impl SurfaceFit {
    /// Number of basis functions for a `dims`-dimensional surface.
    pub fn basis_size(dims: usize) -> usize {
        1 + dims + dims * (dims.saturating_sub(1)) / 2
    }

    /// Fit the surface to `(point, cost)` samples by ordinary least squares.
    ///
    /// Requires at least [`SurfaceFit::basis_size`] samples; all samples must
    /// share the same dimensionality.
    pub fn fit(samples: &[(Point, f64)]) -> Result<Self> {
        let dims = samples
            .first()
            .map(|(p, _)| p.dims())
            .ok_or_else(|| RldError::InvalidArgument("no samples to fit".into()))?;
        if dims == 0 {
            return Err(RldError::InvalidArgument(
                "samples must have at least one dimension".into(),
            ));
        }
        if samples.iter().any(|(p, _)| p.dims() != dims) {
            return Err(RldError::DimensionMismatch {
                expected: dims,
                actual: samples
                    .iter()
                    .map(|(p, _)| p.dims())
                    .find(|d| *d != dims)
                    .unwrap_or(dims),
            });
        }
        let k = Self::basis_size(dims);
        if samples.len() < k {
            return Err(RldError::InvalidArgument(format!(
                "need at least {k} samples to fit a {dims}-D surface, got {}",
                samples.len()
            )));
        }

        // Normal equations: (XᵀX) β = Xᵀy, solved by Gaussian elimination
        // with partial pivoting. k is tiny (≤ ~60 for d ≤ 10).
        let mut xtx = vec![vec![0.0f64; k]; k];
        let mut xty = vec![0.0f64; k];
        for (p, y) in samples {
            let basis = basis_vector(p, dims);
            for i in 0..k {
                xty[i] += basis[i] * y;
                for j in 0..k {
                    xtx[i][j] += basis[i] * basis[j];
                }
            }
        }
        let coefficients = solve_linear_system(xtx, xty)?;
        Ok(Self { dims, coefficients })
    }

    /// Number of dimensions of the fitted surface.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The fitted coefficients (constant, linear terms, pairwise terms).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Predicted cost at a point.
    pub fn predict(&self, point: &Point) -> Result<f64> {
        if point.dims() != self.dims {
            return Err(RldError::DimensionMismatch {
                expected: self.dims,
                actual: point.dims(),
            });
        }
        let basis = basis_vector(point, self.dims);
        Ok(basis
            .iter()
            .zip(&self.coefficients)
            .map(|(b, c)| b * c)
            .sum())
    }

    /// Analytic gradient (slope per dimension) of the fitted surface at a point.
    pub fn gradient(&self, point: &Point) -> Result<Vec<f64>> {
        if point.dims() != self.dims {
            return Err(RldError::DimensionMismatch {
                expected: self.dims,
                actual: point.dims(),
            });
        }
        let d = self.dims;
        let mut grad = vec![0.0; d];
        // Linear terms.
        for (i, g) in grad.iter_mut().enumerate() {
            *g += self.coefficients[1 + i];
        }
        // Pairwise terms: coefficient index of (i, j), i < j.
        let mut idx = 1 + d;
        for i in 0..d {
            for j in (i + 1)..d {
                let c = self.coefficients[idx];
                grad[i] += c * point.coords[j];
                grad[j] += c * point.coords[i];
                idx += 1;
            }
        }
        Ok(grad)
    }

    /// Root-mean-square error of the fit on a sample set.
    pub fn rmse(&self, samples: &[(Point, f64)]) -> Result<f64> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let mut sum = 0.0;
        for (p, y) in samples {
            let e = self.predict(p)? - y;
            sum += e * e;
        }
        Ok((sum / samples.len() as f64).sqrt())
    }
}

/// Basis vector: `[1, x_0 .. x_{d-1}, x_i·x_j (i<j)]`.
fn basis_vector(p: &Point, dims: usize) -> Vec<f64> {
    let mut basis = Vec::with_capacity(SurfaceFit::basis_size(dims));
    basis.push(1.0);
    basis.extend_from_slice(&p.coords);
    for i in 0..dims {
        for j in (i + 1)..dims {
            basis.push(p.coords[i] * p.coords[j]);
        }
    }
    basis
}

/// Solve `A x = b` by Gaussian elimination with partial pivoting. Adds a tiny
/// ridge term when the system is near-singular (e.g. samples on a line).
fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>> {
    let n = b.len();
    // Ridge regularization for numerical stability.
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += 1e-9;
    }
    for col in 0..n {
        // Pivot.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap();
        if a[pivot_row][col].abs() < 1e-12 {
            return Err(RldError::InvalidArgument(
                "singular system: samples do not span the basis".into(),
            ));
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        // Eliminate. The pivot row is copied out so the updated rows can be
        // borrowed mutably while reading it.
        let pivot_vals = a[col].clone();
        for row in (col + 1)..n {
            let factor = a[row][col] / pivot_vals[col];
            for (entry, pivot_entry) in a[row][col..].iter_mut().zip(&pivot_vals[col..]) {
                *entry -= factor * pivot_entry;
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for col in (row + 1)..n {
            sum -= a[row][col] * x[col];
        }
        x[row] = sum / a[row][row];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_samples(f: impl Fn(f64, f64) -> f64) -> Vec<(Point, f64)> {
        let mut samples = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let x = i as f64 / 5.0;
                let y = j as f64 / 5.0;
                samples.push((Point::new(vec![x, y]), f(x, y)));
            }
        }
        samples
    }

    #[test]
    fn recovers_exact_bilinear_surface() {
        // The paper's form: c1·x + c2·y + c3·x·y + c4.
        let samples = grid_samples(|x, y| 3.0 * x + 2.0 * y + 5.0 * x * y + 1.0);
        let fit = SurfaceFit::fit(&samples).unwrap();
        assert_eq!(fit.dims(), 2);
        assert!(fit.rmse(&samples).unwrap() < 1e-6);
        // c4 (constant), c1, c2, c3 in our ordering: [1.0, 3.0, 2.0, 5.0].
        let c = fit.coefficients();
        assert!((c[0] - 1.0).abs() < 1e-6);
        assert!((c[1] - 3.0).abs() < 1e-6);
        assert!((c[2] - 2.0).abs() < 1e-6);
        assert!((c[3] - 5.0).abs() < 1e-6);
        let p = Point::new(vec![0.3, 0.7]);
        assert!(
            (fit.predict(&p).unwrap() - (3.0 * 0.3 + 2.0 * 0.7 + 5.0 * 0.21 + 1.0)).abs() < 1e-6
        );
    }

    #[test]
    fn gradient_matches_analytic_form() {
        let samples = grid_samples(|x, y| 3.0 * x + 2.0 * y + 5.0 * x * y + 1.0);
        let fit = SurfaceFit::fit(&samples).unwrap();
        let p = Point::new(vec![0.4, 0.6]);
        let g = fit.gradient(&p).unwrap();
        assert!((g[0] - (3.0 + 5.0 * 0.6)).abs() < 1e-6);
        assert!((g[1] - (2.0 + 5.0 * 0.4)).abs() < 1e-6);
    }

    #[test]
    fn basis_size_formula() {
        assert_eq!(SurfaceFit::basis_size(1), 2);
        assert_eq!(SurfaceFit::basis_size(2), 4);
        assert_eq!(SurfaceFit::basis_size(3), 7);
        assert_eq!(SurfaceFit::basis_size(5), 16);
    }

    #[test]
    fn three_dimensional_fit() {
        let mut samples = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    let (x, y, z) = (i as f64, j as f64, k as f64);
                    samples.push((
                        Point::new(vec![x, y, z]),
                        2.0 + x + 0.5 * y + 3.0 * z + 0.25 * x * y + 0.1 * y * z,
                    ));
                }
            }
        }
        let fit = SurfaceFit::fit(&samples).unwrap();
        assert!(fit.rmse(&samples).unwrap() < 1e-6);
    }

    #[test]
    fn rejects_insufficient_or_inconsistent_samples() {
        assert!(SurfaceFit::fit(&[]).is_err());
        let too_few = vec![
            (Point::new(vec![0.0, 0.0]), 1.0),
            (Point::new(vec![1.0, 0.0]), 2.0),
        ];
        assert!(SurfaceFit::fit(&too_few).is_err());
        let mixed = vec![
            (Point::new(vec![0.0, 0.0]), 1.0),
            (Point::new(vec![1.0]), 2.0),
            (Point::new(vec![1.0, 1.0]), 2.0),
            (Point::new(vec![0.5, 1.0]), 2.0),
        ];
        assert!(matches!(
            SurfaceFit::fit(&mixed),
            Err(RldError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn predict_rejects_wrong_dims() {
        let samples = grid_samples(|x, y| x + y);
        let fit = SurfaceFit::fit(&samples).unwrap();
        assert!(fit.predict(&Point::new(vec![1.0])).is_err());
        assert!(fit.gradient(&Point::new(vec![1.0, 2.0, 3.0])).is_err());
    }

    #[test]
    fn noisy_fit_has_bounded_error() {
        // Deterministic "noise" from a hash-like pattern.
        let samples: Vec<(Point, f64)> = grid_samples(|x, y| 4.0 * x + y + 2.0 * x * y)
            .into_iter()
            .enumerate()
            .map(|(i, (p, v))| (p, v + ((i % 7) as f64 - 3.0) * 0.01))
            .collect();
        let fit = SurfaceFit::fit(&samples).unwrap();
        assert!(fit.rmse(&samples).unwrap() < 0.05);
    }
}
