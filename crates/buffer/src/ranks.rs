//! DRAM-rank-aware page placement.
//!
//! DRAM background power is per-rank, not per-byte: a rank holding one
//! page costs as much as a full one. Consolidating the buffer pool's
//! pages onto the fewest ranks lets the empty ranks drop to self-refresh
//! — the memory-side instance of Sec. 4.2's "consolidate resource use …
//! to facilitate powering down unused hardware components".

use grail_power::units::{Joules, SimDuration, Watts};
use grail_storage::page::PageId;
use std::collections::BTreeMap;

/// A placement of pages onto fixed-capacity DRAM ranks.
#[derive(Debug, Clone)]
pub struct RankPlacement {
    rank_capacity: usize,
    ranks: Vec<Vec<PageId>>,
    location: BTreeMap<PageId, usize>,
}

impl RankPlacement {
    /// `ranks` ranks of `rank_capacity` pages each.
    ///
    /// # Panics
    /// Panics on zero ranks or zero capacity.
    pub fn new(ranks: usize, rank_capacity: usize) -> Self {
        assert!(ranks > 0 && rank_capacity > 0, "need ranks and capacity");
        RankPlacement {
            rank_capacity,
            ranks: vec![Vec::new(); ranks],
            location: BTreeMap::new(),
        }
    }

    /// Place a page, first-fit onto the lowest-index rank with room
    /// (the consolidating strategy). Returns the rank, or `None` if
    /// memory is full.
    pub fn place(&mut self, page: PageId) -> Option<usize> {
        if self.location.contains_key(&page) {
            return self.location.get(&page).copied();
        }
        let idx = self
            .ranks
            .iter()
            .position(|r| r.len() < self.rank_capacity)?;
        self.ranks[idx].push(page);
        self.location.insert(page, idx);
        Some(idx)
    }

    /// Place a page round-robin (the consolidation-oblivious baseline
    /// real allocators approximate via interleaving).
    pub fn place_interleaved(&mut self, page: PageId) -> Option<usize> {
        if self.location.contains_key(&page) {
            return self.location.get(&page).copied();
        }
        let idx = (0..self.ranks.len())
            .min_by_key(|i| self.ranks[*i].len())
            .filter(|i| self.ranks[*i].len() < self.rank_capacity)?;
        self.ranks[idx].push(page);
        self.location.insert(page, idx);
        Some(idx)
    }

    /// Remove a page.
    pub fn remove(&mut self, page: PageId) -> bool {
        match self.location.remove(&page) {
            Some(r) => {
                self.ranks[r].retain(|p| *p != page);
                true
            }
            None => false,
        }
    }

    /// Pages per rank.
    pub fn occupancy(&self) -> Vec<usize> {
        self.ranks.iter().map(|r| r.len()).collect()
    }

    /// Ranks holding at least one page (must stay powered).
    pub fn powered_ranks(&self) -> usize {
        self.ranks.iter().filter(|r| !r.is_empty()).count()
    }

    /// Background energy over `d` with `idle` power per powered rank and
    /// `self_refresh` per parked rank.
    pub fn background_energy(&self, d: SimDuration, idle: Watts, self_refresh: Watts) -> Joules {
        let powered = self.powered_ranks() as f64;
        let parked = (self.ranks.len() - self.powered_ranks()) as f64;
        idle * powered * d + self_refresh * parked * d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    #[test]
    fn first_fit_consolidates() {
        let mut r = RankPlacement::new(4, 2);
        for i in 0..4 {
            r.place(pid(i));
        }
        assert_eq!(r.occupancy(), vec![2, 2, 0, 0]);
        assert_eq!(r.powered_ranks(), 2);
    }

    #[test]
    fn interleaved_spreads() {
        let mut r = RankPlacement::new(4, 2);
        for i in 0..4 {
            r.place_interleaved(pid(i));
        }
        assert_eq!(r.occupancy(), vec![1, 1, 1, 1]);
        assert_eq!(r.powered_ranks(), 4);
    }

    #[test]
    fn background_energy_favors_consolidation() {
        let d = SimDuration::from_secs(100);
        let idle = Watts::new(4.0);
        let sr = Watts::new(0.8);
        let mut spread = RankPlacement::new(4, 4);
        let mut packed = RankPlacement::new(4, 4);
        for i in 0..4 {
            spread.place_interleaved(pid(i));
            packed.place(pid(i));
        }
        let e_spread = spread.background_energy(d, idle, sr);
        let e_packed = packed.background_energy(d, idle, sr);
        assert!(e_packed.joules() < e_spread.joules());
        // Packed: 1 rank idle + 3 self-refresh = (4 + 2.4) × 100.
        assert!((e_packed.joules() - 640.0).abs() < 1e-9);
        // Spread: 4 ranks idle = 1600.
        assert!((e_spread.joules() - 1600.0).abs() < 1e-9);
    }

    #[test]
    fn full_memory_returns_none() {
        let mut r = RankPlacement::new(1, 2);
        assert!(r.place(pid(0)).is_some());
        assert!(r.place(pid(1)).is_some());
        assert!(r.place(pid(2)).is_none());
        assert!(r.place_interleaved(pid(3)).is_none());
    }

    #[test]
    fn duplicate_place_is_stable_and_remove_works() {
        let mut r = RankPlacement::new(2, 2);
        let first = r.place(pid(7)).unwrap();
        assert_eq!(r.place(pid(7)), Some(first));
        assert_eq!(r.occupancy().iter().sum::<usize>(), 1);
        assert!(r.remove(pid(7)));
        assert!(!r.remove(pid(7)));
        assert_eq!(r.powered_ranks(), 0);
    }
}
