//! The host-speed reference: a fixed sequential greedy MIS over a random
//! graph, written here on plain arrays of its own, so that no change to the
//! repository's code moves it.
//!
//! A shared VM runs the same code faster or slower from one minute to the
//! next, as other tenants load the host's caches, memory and cores: on a
//! 2-vCPU VM the CPU time of a fixed single-threaded graph loop rose by half
//! between a quiet and a busy hour. Each workload runs this loop between its
//! timed operations and reports their CPU time in units of the loop's, taken
//! in the same run, so the host's speed cancels out and a change in the
//! program does not.

use crate::host::{cpu_s, CpuClock};

/// SplitMix64: the generator behind the reference graph and order.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random graph in compressed adjacency form, a random vertex order, and
/// the flags one greedy pass fills in.
pub struct Reference {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    order: Vec<u32>,
    in_set: Vec<bool>,
}

impl Reference {
    /// `n` vertices and `m` uniformly random edges (self-loops dropped,
    /// duplicates kept). The graph and the order depend on nothing else, so
    /// every run of every seed measures the same loop.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n > 1 && n < u32::MAX as usize && 2 * m < u32::MAX as usize);
        let mut state = 0x0005_EED0_F4EF;
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| {
                let u = (splitmix64(&mut state) % n as u64) as u32;
                let v = (splitmix64(&mut state) % n as u64) as u32;
                (u, v)
            })
            .filter(|(u, v)| u != v)
            .collect();
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        let mut neighbors = vec![0u32; offsets[n] as usize];
        for &(u, v) in &edges {
            for (a, b) in [(u, v), (v, u)] {
                neighbors[next[a as usize] as usize] = b;
                next[a as usize] += 1;
            }
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Self {
            offsets,
            neighbors,
            order,
            in_set: vec![false; n],
        }
    }

    /// One greedy pass in the fixed order: a vertex joins the set unless a
    /// neighbour already has. Returns the set's size.
    pub fn run(&mut self) -> usize {
        self.in_set.iter_mut().for_each(|f| *f = false);
        let mut size = 0;
        for &v in &self.order {
            let v = v as usize;
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            if !self.neighbors[lo..hi]
                .iter()
                .any(|&u| self.in_set[u as usize])
            {
                self.in_set[v] = true;
                size += 1;
            }
        }
        size
    }

    /// CPU seconds of one pass on the calling thread.
    pub fn time(&mut self) -> f64 {
        let t0 = cpu_s(CpuClock::Thread);
        std::hint::black_box(self.run());
        cpu_s(CpuClock::Thread) - t0
    }

    /// Whether the last pass left a maximal independent set.
    #[cfg(test)]
    fn is_maximal_independent(&self) -> bool {
        (0..self.in_set.len()).all(|v| {
            let nbrs = &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize];
            let covered = nbrs.iter().any(|&u| self.in_set[u as usize]);
            if self.in_set[v] {
                !covered
            } else {
                covered
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_finds_the_same_maximal_independent_set_every_time() {
        let mut r = Reference::new(2_000, 10_000);
        let size = r.run();
        assert!(size > 0 && size < 2_000);
        assert!(r.is_maximal_independent());
        assert_eq!(r.run(), size);
        assert!(r.time() >= 0.0);
        let again = Reference::new(2_000, 10_000);
        assert_eq!((&again.order, &again.neighbors), (&r.order, &r.neighbors));
    }
}
