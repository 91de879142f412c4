//! Matrix-valued realizations and their averaging (paper Section 2.1).
//!
//! A realization is a matrix `[ζ_ij]`, `1 ≤ i ≤ nrow`, `1 ≤ j ≤ ncol`
//! (in the performance test: the SDE solution recorded at 1000 time
//! points × 2 components). The accumulator stores `Σζ_ij` and `Σζ²_ij`
//! entrywise plus the common sample volume `l`, exactly the payload a
//! processor periodically ships to rank 0 (Section 2.2).

use crate::error::StatsError;
use crate::moments::ScalarAccumulator;

/// Entrywise accumulator of matrix realizations.
///
/// Stores the two sum matrices and the sample volume; realizations are
/// supplied as flat row-major slices of length `nrow * ncol`.
///
/// # Examples
///
/// ```
/// use parmonc_stats::MatrixAccumulator;
///
/// let mut acc = MatrixAccumulator::new(2, 2)?;
/// acc.add(&[1.0, 2.0, 3.0, 4.0])?;
/// acc.add(&[3.0, 2.0, 1.0, 0.0])?;
/// let s = acc.summary();
/// assert_eq!(s.means, vec![2.0, 2.0, 2.0, 2.0]);
/// # Ok::<(), parmonc_stats::StatsError>(())
/// ```
#[derive(Debug, PartialEq)]
pub struct MatrixAccumulator {
    nrow: usize,
    ncol: usize,
    sums: Vec<f64>,
    sums_sq: Vec<f64>,
    count: u64,
}

impl Clone for MatrixAccumulator {
    fn clone(&self) -> Self {
        Self {
            nrow: self.nrow,
            ncol: self.ncol,
            sums: self.sums.clone(),
            sums_sq: self.sums_sq.clone(),
            count: self.count,
        }
    }

    /// Overwrites `self` reusing its existing allocations when the
    /// shapes match — the collector refreshes per-worker snapshots in
    /// place through this, so steady-state collection does not
    /// allocate.
    fn clone_from(&mut self, source: &Self) {
        self.nrow = source.nrow;
        self.ncol = source.ncol;
        self.sums.clone_from(&source.sums);
        self.sums_sq.clone_from(&source.sums_sq);
        self.count = source.count;
    }
}

const LANES: usize = 8;

/// Elementwise `dst[k] += src[k]` in fixed-width chunks so LLVM can
/// emit vector adds. Bitwise identical to the plain scalar loop: each
/// lane touches only its own element, so no floating-point operation
/// is reordered or reassociated.
fn add_assign_slices(dst: &mut [f64], src: &[f64]) {
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in d.by_ref().zip(s.by_ref()) {
        for k in 0..LANES {
            dc[k] += sc[k];
        }
    }
    for (x, y) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *x += y;
    }
}

/// Entrywise `sums[k] += z[k]; sums_sq[k] += z[k]²` in fixed-width
/// chunks (same bitwise-safety argument as [`add_assign_slices`]).
#[inline(always)]
fn accumulate_realization(sums: &mut [f64], sums_sq: &mut [f64], z: &[f64]) {
    let mut s = sums.chunks_exact_mut(LANES);
    let mut q = sums_sq.chunks_exact_mut(LANES);
    let mut zc = z.chunks_exact(LANES);
    for ((sc, qc), c) in s.by_ref().zip(q.by_ref()).zip(zc.by_ref()) {
        for k in 0..LANES {
            let v = c[k];
            sc[k] += v;
            qc[k] += v * v;
        }
    }
    for ((x, y), &v) in s
        .into_remainder()
        .iter_mut()
        .zip(q.into_remainder().iter_mut())
        .zip(zc.remainder())
    {
        *x += v;
        *y += v * v;
    }
}

/// Whether every entry of `z` is finite, with no branch per entry:
/// `v * 0.0` is ±0 for a finite `v` and NaN for ±∞ or NaN, and NaN
/// survives every later add, so one `== 0.0` per lane decides. Exact.
#[inline(always)]
fn all_finite(z: &[f64]) -> bool {
    let mut lanes = [0.0f64; LANES];
    let mut zc = z.chunks_exact(LANES);
    for c in zc.by_ref() {
        for k in 0..LANES {
            lanes[k] += c[k] * 0.0;
        }
    }
    for (l, &v) in lanes.iter_mut().zip(zc.remainder()) {
        *l += v * 0.0;
    }
    lanes.iter().all(|&l| l == 0.0)
}

/// [`MatrixAccumulator::add`] for a realization of at least one chunk,
/// after the shape check: the finiteness fold, the scan only when the
/// fold fails (to name the first bad entry), then the accumulate pass.
/// On error `sums` and `sums_sq` are untouched. A safe body, compiled
/// into [`add_wide_dispatched`] and, with the `simd` feature, once more
/// under AVX2 (`crate::simd`).
#[inline(always)]
pub(crate) fn add_wide(sums: &mut [f64], sums_sq: &mut [f64], z: &[f64]) -> Result<(), StatsError> {
    if !all_finite(z) {
        if let Some((index, &value)) = z.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(StatsError::NonFinite { index, value });
        }
    }
    accumulate_realization(sums, sums_sq, z);
    Ok(())
}

/// [`add_wide`] out of line: the one call `add` makes for a wide
/// realization. With the `simd` feature on x86-64 it is the runtime
/// dispatcher in `crate::simd`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use crate::simd::add_wide as add_wide_dispatched;

/// [`add_wide`] out of line at the baseline width: the one call `add`
/// makes for a wide realization.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
#[inline(never)]
fn add_wide_dispatched(sums: &mut [f64], sums_sq: &mut [f64], z: &[f64]) -> Result<(), StatsError> {
    add_wide(sums, sums_sq, z)
}

/// The full averaged output for a matrix estimator: the four matrices
/// PARMONC writes to `func.dat`/`func_ci.dat` plus the three upper
/// bounds from `func_log.dat`.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSummary {
    /// Number of rows.
    pub nrow: usize,
    /// Number of columns.
    pub ncol: usize,
    /// Sample volume `l`.
    pub count: u64,
    /// Matrix of sample means `[ζ̄_ij]`, row-major.
    pub means: Vec<f64>,
    /// Matrix of absolute errors `[ε_ij]`, row-major.
    pub abs_errors: Vec<f64>,
    /// Matrix of relative errors `[ρ_ij]` in percent, row-major.
    pub rel_errors_percent: Vec<f64>,
    /// Matrix of sample variances `[σ̂²_ij]`, row-major.
    pub variances: Vec<f64>,
    /// `ε_max = max_ij ε_ij`.
    pub eps_max: f64,
    /// `ρ_max = max_ij ρ_ij` (ignores entries with zero mean, whose
    /// relative error is undefined; `0.0` if all means are zero).
    pub rho_max: f64,
    /// `σ²_max = max_ij σ̂²_ij`.
    pub sigma2_max: f64,
}

impl MatrixAccumulator {
    /// Creates an empty accumulator of shape `nrow × ncol`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyShape`] if either dimension is zero.
    pub fn new(nrow: usize, ncol: usize) -> Result<Self, StatsError> {
        if nrow == 0 || ncol == 0 {
            return Err(StatsError::EmptyShape);
        }
        Ok(Self {
            nrow,
            ncol,
            sums: vec![0.0; nrow * ncol],
            sums_sq: vec![0.0; nrow * ncol],
            count: 0,
        })
    }

    /// Reassembles an accumulator from raw parts (deserialization path).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyShape`] for zero dimensions and
    /// [`StatsError::ShapeMismatch`] if the vectors do not have
    /// `nrow * ncol` entries.
    pub fn from_parts(
        nrow: usize,
        ncol: usize,
        sums: Vec<f64>,
        sums_sq: Vec<f64>,
        count: u64,
    ) -> Result<Self, StatsError> {
        if nrow == 0 || ncol == 0 {
            return Err(StatsError::EmptyShape);
        }
        // A corrupted frame can claim an absurd shape whose element
        // count overflows; that can never match the actual vectors.
        let len = nrow.checked_mul(ncol);
        if len != Some(sums.len()) || len != Some(sums_sq.len()) {
            return Err(StatsError::ShapeMismatch {
                expected: (nrow, ncol),
                got_len: sums.len().min(sums_sq.len()),
            });
        }
        Ok(Self {
            nrow,
            ncol,
            sums,
            sums_sq,
            count,
        })
    }

    /// Shape `(nrow, ncol)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrow, self.ncol)
    }

    /// Sample volume `l`.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no realizations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw sum matrix `[Σζ_ij]`, row-major.
    #[must_use]
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Raw sum-of-squares matrix `[Σζ²_ij]`, row-major.
    #[must_use]
    pub fn sums_sq(&self) -> &[f64] {
        &self.sums_sq
    }

    /// Mutable access to the raw state
    /// (`[Σζ_ij]`, `[Σζ²_ij]`, `l`) for in-place deserialization —
    /// the same trust level as [`MatrixAccumulator::from_parts`], but
    /// reusing this accumulator's allocations. The shape is fixed;
    /// only the contents may be overwritten.
    #[must_use]
    pub fn raw_parts_mut(&mut self) -> (&mut [f64], &mut [f64], &mut u64) {
        (&mut self.sums, &mut self.sums_sq, &mut self.count)
    }

    /// Records one matrix realization given as a flat row-major slice.
    ///
    /// Two vectorised passes, no branch per entry: a finiteness fold,
    /// then the accumulation. With the `simd` feature on a CPU with
    /// AVX2 both run at AVX2 width, chosen at runtime, with the same
    /// bits as the baseline build.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::ShapeMismatch`] if `realization` does not
    /// have `nrow * ncol` entries, or [`StatsError::NonFinite`] with the
    /// index and value of the first NaN/infinite entry, as a scan would
    /// give. On either error the accumulator is left untouched.
    ///
    /// Inlined into the caller (`always`: the runner's loop must not pay
    /// a call for a one-cell realization). Below one 8-entry chunk the
    /// whole call stays inline: for a one-cell realization it is the
    /// length compare, a finiteness test and two adds. From one chunk up
    /// it is one out-of-line call into the fold and accumulate pass.
    #[inline(always)]
    pub fn add(&mut self, realization: &[f64]) -> Result<(), StatsError> {
        if realization.len() != self.sums.len() {
            return Err(StatsError::ShapeMismatch {
                expected: (self.nrow, self.ncol),
                got_len: realization.len(),
            });
        }
        if realization.len() < LANES {
            if let Some((index, &value)) =
                realization.iter().enumerate().find(|(_, v)| !v.is_finite())
            {
                return Err(StatsError::NonFinite { index, value });
            }
            accumulate_realization(&mut self.sums, &mut self.sums_sq, realization);
        } else {
            add_wide_dispatched(&mut self.sums, &mut self.sums_sq, realization)?;
        }
        self.count += 1;
        Ok(())
    }

    /// Merges another accumulator into this one (formula (5) in sum
    /// form).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::MergeShapeMismatch`] if the shapes differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), StatsError> {
        if self.shape() != other.shape() {
            return Err(StatsError::MergeShapeMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        add_assign_slices(&mut self.sums, &other.sums);
        add_assign_slices(&mut self.sums_sq, &other.sums_sq);
        self.count += other.count;
        Ok(())
    }

    /// Extracts the scalar accumulator of entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrow` or `j >= ncol`.
    #[must_use]
    pub fn entry(&self, i: usize, j: usize) -> ScalarAccumulator {
        assert!(
            i < self.nrow && j < self.ncol,
            "entry ({i},{j}) out of bounds"
        );
        let k = i * self.ncol + j;
        ScalarAccumulator::from_sums(self.sums[k], self.sums_sq[k], self.count)
    }

    /// Computes the full averaged output: the four matrices and the
    /// three upper bounds of the paper's Section 2.1.
    #[must_use]
    pub fn summary(&self) -> MatrixSummary {
        let n = self.sums.len();
        let mut means = vec![0.0; n];
        let mut abs_errors = vec![0.0; n];
        let mut rel_errors = vec![0.0; n];
        let mut variances = vec![0.0; n];
        let mut eps_max = 0.0f64;
        let mut rho_max = 0.0f64;
        let mut sigma2_max = 0.0f64;

        for k in 0..n {
            let acc = ScalarAccumulator::from_sums(self.sums[k], self.sums_sq[k], self.count);
            means[k] = acc.mean();
            variances[k] = acc.variance();
            abs_errors[k] = if self.count == 0 {
                0.0
            } else {
                acc.abs_error()
            };
            rel_errors[k] = acc.rel_error_percent();
            eps_max = eps_max.max(abs_errors[k]);
            sigma2_max = sigma2_max.max(variances[k]);
            if rel_errors[k].is_finite() {
                rho_max = rho_max.max(rel_errors[k]);
            }
        }

        MatrixSummary {
            nrow: self.nrow,
            ncol: self.ncol,
            count: self.count,
            means,
            abs_errors,
            rel_errors_percent: rel_errors,
            variances,
            eps_max,
            rho_max,
            sigma2_max,
        }
    }
}

impl MatrixSummary {
    /// The sample mean of entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn mean(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nrow && j < self.ncol);
        self.means[i * self.ncol + j]
    }

    /// The absolute error of entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn abs_error(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nrow && j < self.ncol);
        self.abs_errors[i * self.ncol + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmonc_testkit::prelude::*;

    fn acc2x2() -> MatrixAccumulator {
        MatrixAccumulator::new(2, 2).unwrap()
    }

    #[test]
    fn rejects_empty_shapes() {
        assert_eq!(MatrixAccumulator::new(0, 3), Err(StatsError::EmptyShape));
        assert_eq!(MatrixAccumulator::new(3, 0), Err(StatsError::EmptyShape));
    }

    #[test]
    fn rejects_wrong_length_realization() {
        let mut acc = acc2x2();
        let err = acc.add(&[1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, StatsError::ShapeMismatch { got_len: 3, .. }));
        assert_eq!(acc.count(), 0);
    }

    #[test]
    fn rejects_non_finite_and_leaves_state_unchanged() {
        let mut acc = acc2x2();
        acc.add(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        let before = acc.clone();
        let err = acc.add(&[1.0, f64::NAN, 1.0, 1.0]).unwrap_err();
        assert!(matches!(err, StatsError::NonFinite { index: 1, .. }));
        assert_eq!(acc, before);
    }

    #[test]
    fn entrywise_means_and_errors() {
        let mut acc = acc2x2();
        acc.add(&[1.0, 10.0, 100.0, -1.0]).unwrap();
        acc.add(&[3.0, 10.0, 300.0, 1.0]).unwrap();
        let s = acc.summary();
        assert_eq!(s.means, vec![2.0, 10.0, 200.0, 0.0]);
        // Entry (0,1) is constant → zero variance & errors.
        assert_eq!(s.variances[1], 0.0);
        assert_eq!(s.abs_errors[1], 0.0);
        // Entry (1,1) has zero mean → infinite relative error, but
        // rho_max must ignore it.
        assert!(s.rel_errors_percent[3].is_infinite());
        assert!(s.rho_max.is_finite());
        // eps_max comes from the largest-variance entry (1,0).
        assert_eq!(s.eps_max, s.abs_errors[2]);
        assert_eq!(s.sigma2_max, s.variances[2]);
    }

    #[test]
    fn accessors() {
        let mut acc = acc2x2();
        acc.add(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let s = acc.summary();
        assert_eq!(s.mean(1, 0), 3.0);
        assert_eq!(s.abs_error(0, 0), 0.0);
        assert_eq!(acc.entry(0, 1).mean(), 2.0);
    }

    #[test]
    fn merge_shape_mismatch() {
        let mut a = acc2x2();
        let b = MatrixAccumulator::new(2, 3).unwrap();
        assert!(matches!(
            a.merge(&b),
            Err(StatsError::MergeShapeMismatch { .. })
        ));
    }

    #[test]
    fn from_parts_validation() {
        assert!(MatrixAccumulator::from_parts(2, 2, vec![0.0; 4], vec![0.0; 4], 0).is_ok());
        assert!(matches!(
            MatrixAccumulator::from_parts(2, 2, vec![0.0; 3], vec![0.0; 4], 0),
            Err(StatsError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            MatrixAccumulator::from_parts(0, 2, vec![], vec![], 0),
            Err(StatsError::EmptyShape)
        ));
    }

    #[test]
    fn clone_from_reuses_allocations_and_matches_clone() {
        let mut src = acc2x2();
        src.add(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut dst = acc2x2();
        let sums_ptr = dst.sums().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src.clone());
        assert_eq!(
            dst.sums().as_ptr(),
            sums_ptr,
            "same-shape clone_from must not reallocate"
        );
    }

    #[test]
    fn chunked_loops_match_scalar_reference() {
        // Lengths around the 8-lane boundary, including a remainder.
        for n in [1usize, 7, 8, 9, 16, 19] {
            let z: Vec<f64> = (0..n).map(|k| 0.1 + k as f64).collect();
            let mut acc = MatrixAccumulator::new(1, n).unwrap();
            acc.add(&z).unwrap();
            acc.add(&z).unwrap();
            let mut other = MatrixAccumulator::new(1, n).unwrap();
            other.add(&z).unwrap();
            acc.merge(&other).unwrap();
            for (k, zk) in z.iter().enumerate() {
                // Three adds of the same value: exact scalar reference.
                let s = zk + zk + zk;
                let q = zk * zk + zk * zk + zk * zk;
                assert_eq!(acc.sums()[k], s, "n={n} k={k}");
                assert_eq!(acc.sums_sq()[k], q, "n={n} k={k}");
            }
            assert_eq!(acc.count(), 3);
        }
    }

    /// The parent's `add` — an early-exit scan with a branch per entry,
    /// then the plain scalar accumulation: the reference the fold and
    /// the chunked pass must reproduce bit for bit.
    fn reference_add(acc: &mut MatrixAccumulator, z: &[f64]) -> Result<(), StatsError> {
        assert_eq!(z.len(), acc.sums.len());
        if let Some((index, &value)) = z.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(StatsError::NonFinite { index, value });
        }
        for ((s, q), &v) in acc.sums.iter_mut().zip(acc.sums_sq.iter_mut()).zip(z) {
            *s += v;
            *q += v * v;
        }
        acc.count += 1;
        Ok(())
    }

    /// Around the 8-lane boundary, with and without a remainder, and
    /// the paper's 1000 × 2.
    fn lengths() -> impl Iterator<Item = usize> {
        (1..=19).chain([2000])
    }

    /// NaN, ±∞, and a negative NaN with a payload (the error must carry
    /// the entry's own bits).
    const BAD: [f64; 4] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(0xfff0_0000_0000_0001),
    ];

    fn finite_row(n: usize) -> Vec<f64> {
        (0..n).map(|k| 1.0 - k as f64 * 0.25).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `add` on a non-empty accumulator fails with the reference's
    /// error, to the bit, and leaves the accumulator untouched.
    fn assert_rejected_like_the_reference(z: &[f64]) {
        let mut acc = MatrixAccumulator::new(1, z.len()).unwrap();
        acc.add(&finite_row(z.len())).unwrap();
        let before = acc.clone();
        let want = reference_add(&mut acc.clone(), z).unwrap_err();
        let got = acc.add(z).unwrap_err();
        let (
            StatsError::NonFinite { index, value },
            StatsError::NonFinite {
                index: want_index,
                value: want_value,
            },
        ) = (got, want)
        else {
            panic!("expected NonFinite from both, len {}", z.len());
        };
        assert_eq!(
            (index, value.to_bits()),
            (want_index, want_value.to_bits()),
            "len {}",
            z.len()
        );
        assert_eq!(acc, before, "len {} index {index}", z.len());
    }

    #[test]
    fn a_non_finite_entry_is_named_like_the_scan_at_every_position() {
        for n in lengths() {
            for p in 0..n {
                for bad in BAD {
                    let mut z = finite_row(n);
                    z[p] = bad;
                    assert_rejected_like_the_reference(&z);
                }
            }
        }
    }

    #[test]
    fn of_two_non_finite_entries_the_first_is_named() {
        let at_2000 = [0, 1, 7, 8, 9, 15, 16, 999, 1991, 1992, 1998, 1999];
        for n in lengths() {
            let positions: Vec<usize> = if n == 2000 {
                at_2000.to_vec()
            } else {
                (0..n).collect()
            };
            for (i, &p) in positions.iter().enumerate() {
                for &q in &positions[i + 1..] {
                    for (first, second) in BAD.iter().flat_map(|a| BAD.iter().map(move |b| (a, b)))
                    {
                        let mut z = finite_row(n);
                        z[p] = *first;
                        z[q] = *second;
                        assert_rejected_like_the_reference(&z);
                    }
                }
            }
        }
    }

    #[test]
    fn finite_edge_values_are_accepted_with_the_reference_bits() {
        // ±MAX squares to +∞ in `sums_sq`, exactly as the scalar loop does.
        let edges = [
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
        ];
        for n in lengths() {
            for shift in 0..edges.len() {
                let z: Vec<f64> = (0..n).map(|k| edges[(k + shift) % edges.len()]).collect();
                let mut acc = MatrixAccumulator::new(1, n).unwrap();
                acc.add(&finite_row(n)).unwrap();
                let mut want = acc.clone();
                reference_add(&mut want, &z).unwrap();
                acc.add(&z).unwrap();
                assert_eq!(bits(acc.sums()), bits(want.sums()), "n={n} shift={shift}");
                assert_eq!(
                    bits(acc.sums_sq()),
                    bits(want.sums_sq()),
                    "n={n} shift={shift}"
                );
                assert_eq!(acc.count(), 2);
                if let Some(k) = z.iter().position(|v| v.abs() == f64::MAX) {
                    assert_eq!(acc.sums_sq()[k], f64::INFINITY);
                }
            }
        }
    }

    #[test]
    fn summary_of_empty_accumulator() {
        let s = acc2x2().summary();
        assert_eq!(s.count, 0);
        assert!(s.means.iter().all(|m| *m == 0.0));
        assert_eq!(s.eps_max, 0.0);
    }

    proptest! {
        /// Distributing realizations over M "processors" and merging
        /// reproduces the single-processor sums — the heart of the
        /// paper's claim that the parallel estimator (4) converges to
        /// the same value.
        #[test]
        fn merge_is_distribution_invariant(
            rows in collection::vec(
                collection::vec(-1e3f64..1e3, 6),
                1..40
            ),
            m in 1usize..6
        ) {
            // Sequential reference.
            let mut reference = MatrixAccumulator::new(2, 3).unwrap();
            for r in &rows {
                reference.add(r).unwrap();
            }
            // Round-robin over m processors, then merge.
            let mut parts: Vec<MatrixAccumulator> =
                (0..m).map(|_| MatrixAccumulator::new(2, 3).unwrap()).collect();
            for (i, r) in rows.iter().enumerate() {
                parts[i % m].add(r).unwrap();
            }
            let mut merged = MatrixAccumulator::new(2, 3).unwrap();
            for p in &parts {
                merged.merge(p).unwrap();
            }
            prop_assert_eq!(merged.count(), reference.count());
            for k in 0..6 {
                prop_assert!(
                    (merged.sums()[k] - reference.sums()[k]).abs()
                        <= 1e-9 * (1.0 + reference.sums()[k].abs())
                );
                prop_assert!(
                    (merged.sums_sq()[k] - reference.sums_sq()[k]).abs()
                        <= 1e-9 * (1.0 + reference.sums_sq()[k].abs())
                );
            }
        }

        /// Merging with an empty accumulator is the identity.
        #[test]
        fn merge_empty_is_identity(
            rows in collection::vec(collection::vec(-1e3f64..1e3, 4), 1..20)
        ) {
            let mut acc = MatrixAccumulator::new(2, 2).unwrap();
            for r in &rows {
                acc.add(r).unwrap();
            }
            let before = acc.clone();
            acc.merge(&MatrixAccumulator::new(2, 2).unwrap()).unwrap();
            prop_assert_eq!(acc, before);
        }

        /// At the paper's 1000 × 2, `add` (finiteness fold, chunked
        /// accumulate) leaves `sums` and `sums_sq` bit-equal to the plain
        /// `s += v; q += v * v` loop.
        #[test]
        fn paper_shape_adds_match_the_scalar_loop_bitwise(
            rows in collection::vec(collection::vec(-1e6f64..1e6, 2000), 1..6)
        ) {
            let mut acc = MatrixAccumulator::new(1000, 2).unwrap();
            let mut want = acc.clone();
            for r in &rows {
                acc.add(r).unwrap();
                reference_add(&mut want, r).unwrap();
            }
            prop_assert_eq!(bits(acc.sums()), bits(want.sums()));
            prop_assert_eq!(bits(acc.sums_sq()), bits(want.sums_sq()));
            prop_assert_eq!(acc.count(), rows.len() as u64);
        }

        /// Variances are non-negative for arbitrary data.
        #[test]
        fn variances_non_negative(
            rows in collection::vec(collection::vec(-1e6f64..1e6, 4), 1..30)
        ) {
            let mut acc = MatrixAccumulator::new(2, 2).unwrap();
            for r in &rows {
                acc.add(r).unwrap();
            }
            prop_assert!(acc.summary().variances.iter().all(|v| *v >= 0.0));
        }
    }
}
