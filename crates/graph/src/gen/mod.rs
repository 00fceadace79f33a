//! Graph generators.
//!
//! * [`random`] — uniform sparse random multigraph G(n, m), the paper's
//!   "random graph" input (n = 10⁷, m = 5·10⁷ at paper scale).
//! * [`rmat`] — the R-MAT recursive-matrix generator of Chakrabarti et al.,
//!   the paper's power-law input (n = 2²⁴, m = 5·10⁷ at paper scale).
//! * [`structured`] — complete, path, cycle, star, grid, tree, and bipartite
//!   graphs used as adversarial and edge-case inputs in tests and the
//!   dependence-length experiment.
//!
//! All generators are deterministic in their seed and independent of the
//! number of threads.

pub mod random;
pub mod rmat;
pub mod structured;
