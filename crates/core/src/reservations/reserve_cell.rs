//! Priority reservation cells.
//!
//! A [`ReserveCell`] holds the smallest priority written to it since the last
//! reset — the shared-memory realization of the CRCW PRAM "priority write"
//! the paper assumes. Iterates reserve a resource by writing their own
//! priority; after all reservations of a phase are in, the iterate whose
//! priority the cell still holds owns the resource for that step.
//!
//! The cells use `Relaxed` atomics: the driver's phase boundaries order a
//! phase's writes before the next phase's reads (see
//! [`crate::reservations::speculative_for`]), and within a phase a cell
//! needs only its own modification order.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Sentinel meaning "no reservation".
pub const EMPTY: u64 = u64::MAX;

/// A write-with-min cell.
#[derive(Debug)]
pub struct ReserveCell {
    value: AtomicU64,
}

impl Default for ReserveCell {
    fn default() -> Self {
        Self::new()
    }
}

impl ReserveCell {
    /// A cell holding no reservation.
    pub fn new() -> Self {
        Self {
            value: AtomicU64::new(EMPTY),
        }
    }

    /// Attempts to reserve with `priority` (smaller wins). Returns `true` if
    /// this call lowered the cell's value.
    pub fn reserve(&self, priority: u64) -> bool {
        self.value.fetch_min(priority, Relaxed) > priority
    }

    /// The currently held (smallest) priority, or [`EMPTY`].
    pub fn current(&self) -> u64 {
        self.value.load(Relaxed)
    }

    /// True if `priority` holds the reservation.
    pub fn holds(&self, priority: u64) -> bool {
        self.current() == priority
    }

    /// Clears the reservation (used between steps).
    pub fn reset(&self) {
        self.value.store(EMPTY, Relaxed);
    }
}

/// A fixed-size array of reservation cells.
#[derive(Debug, Default)]
pub struct ReserveTable {
    cells: Vec<ReserveCell>,
}

impl ReserveTable {
    /// Creates `len` empty cells.
    pub fn new(len: usize) -> Self {
        Self {
            cells: (0..len).map(|_| ReserveCell::new()).collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the table has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell at `index`.
    pub fn cell(&self, index: usize) -> &ReserveCell {
        &self.cells[index]
    }

    /// Reserves cell `index` with `priority` (smaller wins).
    pub fn reserve(&self, index: usize, priority: u64) -> bool {
        self.cells[index].reserve(priority)
    }

    /// True if `priority` holds cell `index`.
    pub fn holds(&self, index: usize, priority: u64) -> bool {
        self.cells[index].holds(priority)
    }

    /// Clears the given cells.
    pub fn reset(&self, index: usize) {
        self.cells[index].reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn lowest_priority_wins() {
        let cell = ReserveCell::new();
        assert!(cell.reserve(10));
        assert!(
            !cell.reserve(20),
            "larger priority must not displace a smaller one"
        );
        assert!(cell.reserve(5));
        assert_eq!(cell.current(), 5);
        assert!(cell.holds(5));
        assert!(!cell.holds(10));
    }

    #[test]
    fn reset_clears() {
        let cell = ReserveCell::new();
        cell.reserve(3);
        cell.reset();
        assert_eq!(cell.current(), EMPTY);
        assert!(cell.reserve(100));
    }

    #[test]
    fn concurrent_reservations_resolve_to_minimum() {
        let cell = ReserveCell::new();
        (0..10_000u64).into_par_iter().for_each(|p| {
            cell.reserve(p);
        });
        assert_eq!(cell.current(), 0);
    }

    #[test]
    fn table_indexes_cells_independently() {
        let table = ReserveTable::new(4);
        assert_eq!(table.len(), 4);
        assert!(!table.is_empty());
        table.reserve(0, 7);
        table.reserve(1, 3);
        assert!(table.holds(0, 7));
        assert!(table.holds(1, 3));
        assert_eq!(table.cell(2).current(), EMPTY);
        table.reset(0);
        assert_eq!(table.cell(0).current(), EMPTY);
    }

    #[test]
    fn empty_table() {
        let table = ReserveTable::new(0);
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
    }
}
