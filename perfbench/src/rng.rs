//! Seeded draws for the harness's own inputs: query pools, arrival
//! schedules and mutation streams. The data columns come from
//! `psi::workloads`; everything the harness decides on its own comes from
//! here, so a seed fixes every input before the program is called.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a workload seed, so that
    /// adding a draw to one stream never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given rate.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Due times, in nanoseconds from the phase start, of `count` Poisson
/// arrivals at `rate` per second.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x5C4E_D01E);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            t += rng.exp(rate);
            (t * 1e9) as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_reproduces_from_its_seed() {
        let a = poisson_schedule(7, 50.0, 2000);
        assert_eq!(a, poisson_schedule(7, 50.0, 2000));
        assert_ne!(a, poisson_schedule(8, 50.0, 2000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        // 2000 arrivals at 50/s span about 40 s.
        let span_s = *a.last().unwrap() as f64 / 1e9;
        assert!((36.0..44.0).contains(&span_s), "span {span_s}");
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 1).next_u64()).collect();
        let mut b = Rng::new(1, 2);
        assert_ne!(a[0], b.next_u64());
        assert!(a.iter().all(|&x| x == a[0]));
    }
}
