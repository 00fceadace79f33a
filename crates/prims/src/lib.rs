//! # greedy-prims
//!
//! The parallel primitives the `greedy-parallel` workspace runs.
//!
//! The SPAA 2012 paper ("Greedy Sequential Maximal Independent Set and Matching
//! are Parallel on Average", Blelloch, Fineman, Shun) expresses its algorithms in
//! the CRCW PRAM work–depth model, assuming standard primitives. This crate
//! holds the shared-memory realizations the workspace calls, on top of
//! [`rayon`]:
//!
//! * [`permutation`] — the random order π ([`permutation::par_random_permutation`]);
//! * [`sort`] — the stable parallel radix sort behind π, CSR builds and
//!   edge-list canonicalization;
//! * [`pack`] — parallel pack and adjacent-duplicate removal;
//! * [`scan`] — counts to offsets;
//! * [`random`] — deterministic per-index hashing and the SplitMix64 stream;
//! * [`util`] — block boundaries and the coarse-task fan-out.
//!
//! The parallel primitives fall back to sequential code below a grain size
//! so that small inputs do not pay scheduling overhead, and every one is
//! deterministic: it returns exactly the same result at every thread count.
//!
//! ## Quick example
//!
//! ```
//! use greedy_prims::scan::exclusive_scan_in_place;
//!
//! let mut counts = vec![3u64, 1, 4, 1, 5];
//! let total = exclusive_scan_in_place(&mut counts);
//! assert_eq!(counts, vec![0, 3, 4, 8, 9]);
//! assert_eq!(total, 14);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

pub mod pack;
pub mod permutation;
pub mod random;
pub mod scan;
pub mod sort;
pub mod util;
