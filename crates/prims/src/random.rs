//! Small deterministic RNG utilities.
//!
//! Two needs in this workspace are served here, with no RNG crate:
//!
//! 1. **Per-index deterministic hashing.** Luby's Algorithm A re-randomizes
//!    vertex priorities on every round. Doing that with a splittable counter
//!    RNG ([`hash64`] / [`SplitMix64`]) keeps the algorithm deterministic for
//!    a fixed seed regardless of the parallel schedule, which mirrors how the
//!    PBBS implementations draw per-vertex random numbers.
//! 2. **Cheap per-task streams.** Parallel generators (e.g. the R-MAT
//!    generator) give every edge index its own stream seeded from the edge
//!    index, so edges can be generated independently in parallel and the
//!    resulting graph does not depend on the number of threads.

/// SplitMix64: tiny, fast, statistically solid 64-bit mixer/generator.
///
/// Used both as a stream RNG (via [`SplitMix64::next_u64`]) and, through
/// [`hash64`], as a stateless integer mixer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        mix64(self.state)
    }

    /// Returns a uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The finalization mixer of SplitMix64 as a stateless hash.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Stateless 64-bit hash of `(seed, index)`.
///
/// Deterministic, well-mixed, and cheap; used for per-vertex/per-round random
/// priorities (Luby) and per-edge generator streams.
///
/// ```
/// use greedy_prims::random::hash64;
/// assert_eq!(hash64(1, 2), hash64(1, 2));
/// assert_ne!(hash64(1, 2), hash64(1, 3));
/// assert_ne!(hash64(1, 2), hash64(2, 2));
/// ```
pub fn hash64(seed: u64, index: u64) -> u64 {
    mix64(
        seed.wrapping_mul(0xA24BAED4963EE407)
            .wrapping_add(mix64(index.wrapping_add(0x9E3779B97F4A7C15))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn hash64_distributes_low_bit() {
        // Crude sanity check: the low bit of the hash should be roughly balanced.
        let ones = (0..10_000).filter(|&i| hash64(99, i) & 1 == 1).count();
        assert!((4_000..6_000).contains(&ones), "ones = {ones}");
    }
}
