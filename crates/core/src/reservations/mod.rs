//! The **deterministic reservations** framework — the generic programming
//! abstraction behind the paper's prefix-based algorithms.
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
//! [`speculative_for::speculative_for`] is the generic driver, usable for
//! other greedy loops (the paper suggests spanning forest as future work).
//! [`crate::matching::prefix::prefix_matching`] is its matching instance.
//! The MIS loop, [`crate::mis::prefix::prefix_mis`], needs no reservation,
//! because only a vertex writes its own decision.

pub mod speculative_for;
