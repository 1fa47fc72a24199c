//! Seeded input generation and the order statistics every metric uses.

/// SplitMix64: a tiny, fully determined generator, so one `--seed` always
/// yields the same workload inputs on every machine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Median of `values` (mean of the middle two for an even count); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it, i.e. the 11th-largest value, returned as
/// `(percentile, value)`. With 20 or fewer samples that percentile would
/// not lie above the median, so the maximum is reported at percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 2 * BEYOND {
        return (100.0, v.last().copied().unwrap_or(f64::NAN));
    }
    let rank = n - BEYOND; // 1-based rank of the value with ten beyond it
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(x, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        assert_eq!(tail(&v[..20]), (100.0, 20.0));
    }

    #[test]
    fn median_and_rng_are_deterministic() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
    }
}
