//! The **deterministic reservations** framework — the generic programming
//! abstraction behind the paper's prefix-based algorithms — plus MIS and
//! maximal-matching backends built on it.
//!
//! The paper's companion work ("Internally deterministic parallel algorithms
//! can be fast", reference \[2\] of the SPAA paper) packages the prefix
//! technique as a reusable primitive called `speculative_for`: a loop whose
//! iterates may conflict, executed greedily over prefixes of the iterates.
//! Each step, every unfinished iterate of the prefix *reserves* the shared
//! state it needs (a priority write that the lowest-numbered iterate wins)
//! and then *commits* if it still holds its reservations; losers retry in the
//! next step. Because reservations always resolve in iterate order, the
//! final state is identical to running the loop sequentially — which is
//! exactly the determinism property the SPAA paper proves cheap for MIS and
//! MM under random orders.
//!
//! This module provides:
//!
//! * [`speculative_for::speculative_for`] — the generic driver, usable for
//!   other greedy loops (the paper suggests spanning forest as future work).
//!   [`crate::matching::prefix::prefix_matching`] is its matching instance;
//! * [`reserve_cell::ReserveCell`] — the write-with-min priority reservation
//!   cell;
//! * [`mis::reservation_mis`] and [`matching::reservation_matching`] — the
//!   paper's two problems at a fixed granularity: the Algorithm 3 loops
//!   [`crate::mis::prefix::prefix_mis`] and
//!   [`crate::matching::prefix::prefix_matching`] at
//!   [`PrefixPolicy::Fixed`](crate::mis::prefix::PrefixPolicy::Fixed). They
//!   return bit-identical results to the sequential implementations (the
//!   integration tests verify this). The MIS loop needs no reservation
//!   cell, because only a vertex writes its own decision.
//!
//! ```
//! use greedy_core::ordering::random_permutation;
//! use greedy_core::mis::sequential::sequential_mis;
//! use greedy_core::reservations::mis::reservation_mis;
//! use greedy_graph::gen::random::random_graph;
//!
//! let g = random_graph(300, 1_200, 1);
//! let pi = random_permutation(g.num_vertices(), 2);
//! assert_eq!(reservation_mis(&g, &pi), sequential_mis(&g, &pi));
//! ```

pub mod matching;
pub mod mis;
pub mod reserve_cell;
pub mod speculative_for;
