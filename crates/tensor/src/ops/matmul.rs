//! Dense matrix multiplication kernels.
//!
//! Plain triple loops with the `k` loop innermost hoisted for cache
//! friendliness; fast enough for the synthetic-scale workloads while staying
//! obviously correct (the crossbar simulator is validated against these).

use crate::{Tensor, TensorError};

fn expect_rank2(t: &Tensor, op: &'static str) -> Result<(usize, usize), TensorError> {
    let d = t.shape().dims();
    if d.len() != 2 {
        return Err(TensorError::RankMismatch { op, expected: 2, actual: d.len() });
    }
    Ok((d[0], d[1]))
}

/// `C = A (m×k) · B (k×n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix operands and
/// [`TensorError::ShapeMismatch`] when inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k) = expect_rank2(a, "matmul")?;
    let (k2, n) = expect_rank2(b, "matmul")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut out = Tensor::zeros(vec![m, n])?;
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for i in 0..m {
        for p in 0..k {
            let aip = ad[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += aip * bv;
            }
        }
    }
    Ok(out)
}

/// `C = Aᵀ (k×m)ᵀ · B (k×n)`, i.e. `A` is stored transposed. Used by the
/// trainer's weight-gradient computation without materialising transposes.
///
/// # Errors
///
/// Same contract as [`matmul`].
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (k, m) = expect_rank2(a, "matmul_at")?;
    let (k2, n) = expect_rank2(b, "matmul_at")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut out = Tensor::zeros(vec![m, n])?;
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for p in 0..k {
        let arow = &ad[p * m..(p + 1) * m];
        let brow = &bd[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    Ok(out)
}

/// `C = A (m×k) · Bᵀ (n×k)ᵀ`. Used by the trainer's input-gradient step.
///
/// # Errors
///
/// Same contract as [`matmul`].
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k) = expect_rank2(a, "matmul_bt")?;
    let (n, k2) = expect_rank2(b, "matmul_bt")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_bt",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut out = Tensor::zeros(vec![m, n])?;
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                acc += av * bv;
            }
            od[i * n + j] = acc;
        }
    }
    Ok(out)
}

/// Matrix–vector product `y = A (m×k) · x (k)`. The fundamental operation
/// the crossbar performs in-situ (`I_i = Σ_j G_ij V_j`).
///
/// Each `y[i]` is the sequential sum `((0 + a_i0·x_0) + a_i1·x_1) + …` in
/// index order. Rows run four at a time with four independent
/// accumulators, so the additions of neighbouring rows overlap instead of
/// waiting on one dependency chain; every row still sums in the same
/// order, so the result is bit-identical to one row at a time.
///
/// # Errors
///
/// Returns an error if `a` is not a matrix or the vector length mismatches.
pub fn matvec(a: &Tensor, x: &[f32]) -> Result<Vec<f32>, TensorError> {
    let (m, k) = expect_rank2(a, "matvec")?;
    if x.len() != k {
        return Err(TensorError::ShapeMismatch {
            op: "matvec",
            lhs: a.shape().dims().to_vec(),
            rhs: vec![x.len()],
        });
    }
    let mut y = vec![0.0f32; m];
    let split = m / 4 * 4;
    let (quad_rows, tail_rows) = a.data().split_at(split * k);
    for (out, quad) in y.chunks_exact_mut(4).zip(quad_rows.chunks_exact(4 * k)) {
        let (r01, r23) = quad.split_at(2 * k);
        let ((r0, r1), (r2, r3)) = (r01.split_at(k), r23.split_at(k));
        let mut acc = [0.0f32; 4];
        for ((((&a0, &a1), &a2), &a3), &xv) in r0.iter().zip(r1).zip(r2).zip(r3).zip(x) {
            acc[0] += a0 * xv;
            acc[1] += a1 * xv;
            acc[2] += a2 * xv;
            acc[3] += a3 * xv;
        }
        out.copy_from_slice(&acc);
    }
    for (out, row) in y[split..].iter_mut().zip(tail_rows.chunks_exact(k)) {
        *out = row.iter().zip(x).fold(0.0, |acc, (&av, &xv)| acc + av * xv);
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use proptest::prelude::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
        let n = b.shape().dims()[1];
        let mut out = Tensor::zeros(vec![m, n]).unwrap();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                out.set(&[i, j], acc);
            }
        }
        out
    }

    #[test]
    fn identity() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn rectangular() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn inner_dim_mismatch() {
        let a = Tensor::zeros(vec![2, 3]).unwrap();
        let b = Tensor::zeros(vec![4, 2]).unwrap();
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn rank_mismatch() {
        let a = Tensor::zeros(vec![6]).unwrap();
        let b = Tensor::zeros(vec![2, 3]).unwrap();
        assert!(matches!(matmul(&a, &b), Err(crate::TensorError::RankMismatch { .. })));
    }

    fn transpose(t: &Tensor) -> Tensor {
        let (m, n) = (t.shape().dims()[0], t.shape().dims()[1]);
        let mut out = Tensor::zeros(vec![n, m]).unwrap();
        for i in 0..m {
            for j in 0..n {
                out.set(&[j, i], t.at(&[i, j]));
            }
        }
        out
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let mut r = init::rng(7);
        let a = init::uniform(vec![4, 5], -1.0, 1.0, &mut r).unwrap();
        let b = init::uniform(vec![4, 6], -1.0, 1.0, &mut r).unwrap();
        let expect = naive(&transpose(&a), &b);
        let got = matmul_at(&a, &b).unwrap();
        for (x, y) in expect.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let mut r = init::rng(8);
        let a = init::uniform(vec![4, 5], -1.0, 1.0, &mut r).unwrap();
        let b = init::uniform(vec![6, 5], -1.0, 1.0, &mut r).unwrap();
        let expect = naive(&a, &transpose(&b));
        let got = matmul_bt(&a, &b).unwrap();
        for (x, y) in expect.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut r = init::rng(9);
        let a = init::uniform(vec![3, 4], -2.0, 2.0, &mut r).unwrap();
        let x = vec![0.5, -1.0, 2.0, 0.25];
        let xm = Tensor::from_vec(vec![4, 1], x.clone()).unwrap();
        let y = matvec(&a, &x).unwrap();
        let ym = matmul(&a, &xm).unwrap();
        for (u, v) in y.iter().zip(ym.data()) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    /// `seed`-drawn values in `[-4, 4)`; about one in `one_in` of them (none
    /// when `one_in` is 0) is a signed zero, a NaN or an infinity instead.
    fn awkward_values(len: usize, seed: u64, one_in: u32) -> Vec<f32> {
        use rand::Rng;
        let mut r = init::rng(seed);
        let special = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        (0..len)
            .map(|_| {
                if one_in > 0 && r.gen_range(0..one_in) == 0 {
                    special[r.gen_range(0..special.len())]
                } else {
                    r.gen_range(-4.0f32..4.0)
                }
            })
            .collect()
    }

    proptest! {
        #[test]
        fn matvec_is_bit_identical_to_the_sequential_row_sum(
            m in 0usize..14,
            k in 0usize..71,
            seed in 0u64..1_000_000,
            rarity in 0usize..4,
        ) {
            let one_in = [0, 64, 16, 4][rarity];
            let a = Tensor::from_vec(vec![m, k], awkward_values(m * k, seed, one_in));
            if m == 0 || k == 0 {
                // a tensor has no empty dimension, so matvec never sees one
                prop_assert!(matches!(a, Err(crate::TensorError::EmptyShape)));
                return Ok(());
            }
            let a = a.unwrap();
            let x = awkward_values(k, seed ^ 0x9e37, one_in);
            let y = matvec(&a, &x).unwrap();
            prop_assert_eq!(y.len(), m);
            for (i, (&got, row)) in y.iter().zip(a.data().chunks(k)).enumerate() {
                let mut want = 0.0f32;
                for (&av, &xv) in row.iter().zip(&x) {
                    want += av * xv;
                }
                // Rust leaves the sign and payload of a NaN result
                // unspecified, so any NaN matches any NaN; every other
                // value, signed zeros included, must match bit for bit
                prop_assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "row {} of {}x{}: {} vs {}",
                    i,
                    m,
                    k,
                    got,
                    want
                );
            }
        }

        #[test]
        fn matmul_matches_naive(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..500) {
            let mut r = init::rng(seed);
            let a = init::uniform(vec![m, k], -3.0, 3.0, &mut r).unwrap();
            let b = init::uniform(vec![k, n], -3.0, 3.0, &mut r).unwrap();
            let fast = matmul(&a, &b).unwrap();
            let slow = naive(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn matmul_distributes_over_addition(seed in 0u64..200) {
            let mut r = init::rng(seed);
            let a = init::uniform(vec![3, 3], -1.0, 1.0, &mut r).unwrap();
            let b = init::uniform(vec![3, 3], -1.0, 1.0, &mut r).unwrap();
            let c = init::uniform(vec![3, 3], -1.0, 1.0, &mut r).unwrap();
            let lhs = matmul(&a, &b.add(&c).unwrap()).unwrap();
            let rhs = matmul(&a, &b).unwrap().add(&matmul(&a, &c).unwrap()).unwrap();
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
