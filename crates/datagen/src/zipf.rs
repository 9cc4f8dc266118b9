//! Zipf-distributed sampling.
//!
//! Product popularity in real communities (All Consuming book mentions,
//! Amazon sales) is heavy-tailed; the catalog generator draws per-product
//! popularity ranks from a Zipf law so the synthetic rating streams show the
//! same few-hits / long-tail structure the paper's crawled data had.

use rand::{Rng, RngExt};

/// A Zipf(n, s) sampler over `0..n` using a precomputed CDF.
///
/// Item `i` has probability proportional to `1 / (i + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `0..n` with exponent `s ≥ 0`.
    ///
    /// Costs n `powf`s: build once, sample many. Each sample is one binary
    /// search.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty domain");
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the domain is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples an index in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // The CDF is finite and positive, and `u ∈ [0, 1)` is never −0.0.
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// The probability of index `i`.
    pub fn probability(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one() {
        let z = Zipf::new(100, 1.0);
        let sum: f64 = (0..100).map(|i| z.probability(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn head_is_heavier_than_tail() {
        let z = Zipf::new(1000, 1.0);
        assert!(z.probability(0) > 10.0 * z.probability(100));
        assert!(z.probability(0) > z.probability(1));
    }

    #[test]
    fn s_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.probability(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_follow_the_law_roughly() {
        let z = Zipf::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[49] * 5);
        // Every sample is in range (implicitly: no panic) and head ≈ p(0).
        let head_freq = counts[0] as f64 / 20_000.0;
        assert!((head_freq - z.probability(0)).abs() < 0.02);
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::new(20, 1.0);
        let a: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(1);
            (0..10).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(1);
            (0..10).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_domain_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
