//! Quantization-error metrics — Eq. 10 of the paper.

/// Mean squared error between two equally long sample slices.
///
/// # Panics
///
/// Panics when the slices have different lengths or are empty.
pub fn mse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse operands must have equal length");
    assert!(!a.is_empty(), "mse of empty slices is undefined");
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64
}

/// MSE between raw samples and their image under a quantizer function —
/// the objective the calibration minimises over `ΔR2` in Eq. 10.
///
/// # Panics
///
/// Panics when `samples` is empty.
pub fn quantizer_mse<F: Fn(f64) -> f64>(samples: &[f64], quantize: F) -> f64 {
    assert!(!samples.is_empty(), "quantizer_mse of empty samples is undefined");
    samples.iter().map(|&x| (quantize(x) - x) * (quantize(x) - x)).sum::<f64>()
        / samples.len() as f64
}

/// [`quantizer_mse`] over a count histogram, where `counts[k]` samples
/// have value `k`: one quantizer call per occupied bin instead of one per
/// sample. Algorithm 1 scores every candidate this way.
///
/// # Panics
///
/// Panics when the histogram holds no samples.
pub fn weighted_quantizer_mse<F: Fn(f64) -> f64>(counts: &[u64], quantize: F) -> f64 {
    let n: u64 = counts.iter().sum();
    assert!(n > 0, "weighted_quantizer_mse of an empty histogram is undefined");
    let sq_err = |(k, &c): (usize, &u64)| {
        let err = quantize(k as f64) - k as f64;
        c as f64 * (err * err)
    };
    counts.iter().enumerate().filter(|(_, &c)| c > 0).map(sq_err).sum::<f64>() / n as f64
}

/// Signal-to-quantization-noise ratio in dB; `+inf` for exact
/// reconstruction of a non-zero signal.
///
/// # Panics
///
/// Panics when the slices have different lengths or are empty.
pub fn sqnr_db(signal: &[f64], reconstructed: &[f64]) -> f64 {
    let noise = mse(signal, reconstructed);
    let power = signal.iter().map(|&x| x * x).sum::<f64>() / signal.len() as f64;
    if noise == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (power / noise).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniformQuantizer;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn mse_basic() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(mse(&[0.0, 0.0], &[3.0, 4.0]), 12.5);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mse_length_mismatch_panics() {
        let _ = mse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn quantizer_mse_decreases_with_resolution() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64 * 0.1).collect();
        let max = 99.9;
        let errs: Vec<f64> = (2..=8)
            .map(|bits| {
                let q = UniformQuantizer::new(bits, max / ((1u32 << bits) - 1) as f64).unwrap();
                quantizer_mse(&samples, |x| q.quantize(x))
            })
            .collect();
        for w in errs.windows(2) {
            assert!(w[1] < w[0], "more bits must not increase MSE: {errs:?}");
        }
    }

    proptest! {
        #[test]
        fn weighted_mse_equals_mse_of_the_expanded_samples(
            counts in collection::vec(0u64..40, 1..130),
            bits in 1u32..8,
            delta in 0.05f64..9.0,
        ) {
            prop_assume!(counts.iter().any(|&c| c > 0));
            let q = UniformQuantizer::new(bits, delta).unwrap();
            let expanded: Vec<f64> = counts
                .iter()
                .enumerate()
                .flat_map(|(k, &c)| std::iter::repeat_n(k as f64, c as usize))
                .collect();
            let direct = quantizer_mse(&expanded, |x| q.quantize(x));
            let weighted = weighted_quantizer_mse(&counts, |x| q.quantize(x));
            prop_assert!(
                (weighted - direct).abs() <= 1e-12 * direct.max(1.0),
                "weighted {weighted} vs per-sample {direct}"
            );
        }
    }

    #[test]
    fn sqnr_improves_about_6db_per_bit() {
        // Classic rule of thumb for a full-range uniform signal.
        let samples: Vec<f64> = (0..4096).map(|i| i as f64 / 4096.0 * 255.0).collect();
        let sq = |bits: u32| {
            let q = UniformQuantizer::new(bits, 255.0 / ((1u32 << bits) - 1) as f64).unwrap();
            let rec: Vec<f64> = samples.iter().map(|&x| q.quantize(x)).collect();
            sqnr_db(&samples, &rec)
        };
        let gain = sq(8) - sq(4);
        assert!((gain - 24.0).abs() < 3.0, "expected ~24 dB for 4 extra bits, got {gain}");
    }

    #[test]
    fn sqnr_infinite_for_exact() {
        assert!(sqnr_db(&[1.0, 2.0], &[1.0, 2.0]).is_infinite());
    }
}
