//! The benchmark's own transaction-type streams.
//!
//! Each logical worker draws the type of its next transaction from the
//! workload's standard mix with a private SplitMix64 stream seeded from
//! `(seed, round, node, worker)`. The program never sees the seed: it
//! only receives the sequence of per-type calls.

/// A seeded SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Mix {
    state: u64,
}

impl Mix {
    /// The stream of logical worker `(node, worker)` in measurement
    /// round `round` under `seed`.
    pub fn new(seed: u64, round: usize, node: u16, worker: usize) -> Mix {
        let mut m = Mix { state: seed };
        // Fold each coordinate in through the mixer so nearby seeds,
        // rounds and neighbouring workers give unrelated streams.
        for (x, k) in [
            (round as u64, 0xD6E8_FEB8_6659_FD93),
            (node as u64, 0xA24B_AED4_963E_E407),
            (worker as u64, 0x9FB2_1C65_1E98_DF25),
        ] {
            m.state = m.next_u64() ^ x.wrapping_mul(k);
        }
        m
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draws an index with probability `weights[i] / Σ weights`.
    pub fn pick(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        let mut x = self.next_u64() % total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w as u64 {
                return i;
            }
            x -= w as u64;
        }
        unreachable!("x < total by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_follows_the_weights() {
        let weights = [45, 43, 4, 4, 4];
        let mut m = Mix::new(7, 0, 0, 0);
        let mut counts = [0u32; 5];
        for _ in 0..100_000 {
            counts[m.pick(&weights)] += 1;
        }
        for (c, w) in counts.iter().zip(weights) {
            let share = *c as f64 / 100_000.0;
            assert!((share - w as f64 / 100.0).abs() < 0.01, "{counts:?}");
        }
    }

    #[test]
    fn streams_differ_by_seed_round_and_worker() {
        let draw = |seed, round, node, worker| {
            let mut m = Mix::new(seed, round, node, worker);
            (0..8).map(|_| m.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0, 0, 0), draw(1, 0, 0, 0));
        assert_ne!(draw(1, 0, 0, 0), draw(2, 0, 0, 0));
        assert_ne!(draw(1, 0, 0, 0), draw(1, 1, 0, 0));
        assert_ne!(draw(1, 0, 0, 0), draw(1, 0, 1, 0));
        assert_ne!(draw(1, 0, 0, 0), draw(1, 0, 0, 1));
    }
}
