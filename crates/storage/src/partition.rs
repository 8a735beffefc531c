//! Partitioning across disk subsets, and redundant replicas.
//!
//! "The most effective means of varying power use in our system was by
//! repartitioning our database across fewer disks" — Fig. 1's knob.
//! Sec. 5.1 adds that "for read-mostly workloads, increasing redundancy
//! may improve energy efficiency": keep a narrow replica on few disks
//! for light load and a wide one for heavy load, and spin down the rest.
//!
//! Disks here are plain *slots* (`u32`); binding to simulated devices
//! happens upstream.

use crate::error::StorageError;

/// A partitioning of one table across disk slots.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    /// The disk slot of each partition (one partition per entry).
    pub slots: Vec<u32>,
    /// Total table bytes.
    pub table_bytes: u64,
}

impl Partitioning {
    /// Partition `table_bytes` across `disks` slots.
    pub fn even(disks: u32, table_bytes: u64) -> Result<Self, StorageError> {
        if disks == 0 {
            return Err(StorageError::EmptyPartitioning);
        }
        Ok(Partitioning {
            slots: (0..disks).collect(),
            table_bytes,
        })
    }

    /// Number of partitions (= disks used).
    pub fn width(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Cost (bytes moved) to repartition to `target`: bytes whose slot
    /// assignment changes, approximated at even spread. Repartitioning is
    /// exactly the "creating or maintaining different partitionings"
    /// overhead Fig. 1's discussion flags.
    pub fn repartition_bytes(&self, target: &Partitioning) -> u64 {
        if self.width() == target.width() && self.slots == target.slots {
            return 0;
        }
        // Hash repartitioning moves ~(1 - overlap/max) of data; even
        // approximation: fraction = 1 - min(w1,w2)/max(w1,w2) for growth/
        // shrink plus reshuffle of retained disks' excess. Use the
        // standard consistent-shuffle bound: moved = bytes × (1 - w_min/
        // w_max).
        let w1 = self.width() as u64;
        let w2 = target.width() as u64;
        let (min, max) = (w1.min(w2), w1.max(w2));
        let moved = self.table_bytes as f64 * (1.0 - min as f64 / max as f64);
        moved.ceil() as u64
    }
}

/// A set of redundant replicas of one table, each on its own disk slots
/// (Sec. 5.1's energy use of extra capacity).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSet {
    /// The replicas, narrowest first.
    pub replicas: Vec<Partitioning>,
}

impl ReplicaSet {
    /// Build from partitionings (sorted narrowest-first internally).
    pub fn new(mut replicas: Vec<Partitioning>) -> Result<Self, StorageError> {
        if replicas.is_empty() {
            return Err(StorageError::EmptyPartitioning);
        }
        replicas.sort_by_key(|p| p.width());
        Ok(ReplicaSet { replicas })
    }

    /// The narrowest replica whose width meets `min_width` (load-driven
    /// replica choice); falls back to the widest.
    pub fn choose(&self, min_width: u32) -> &Partitioning {
        self.replicas
            .iter()
            .find(|p| p.width() >= min_width)
            .unwrap_or(self.replicas.last().expect("non-empty"))
    }

    /// Disk slots that can be spun down when serving from `active`:
    /// every slot used by some replica but not by the active one.
    pub fn idle_slots(&self, active: &Partitioning) -> Vec<u32> {
        let mut idle: Vec<u32> = self
            .replicas
            .iter()
            .flat_map(|p| p.slots.iter().copied())
            .filter(|s| !active.slots.contains(s))
            .collect();
        idle.sort_unstable();
        idle.dedup();
        idle
    }

    /// Total storage footprint across replicas (the capacity price of
    /// the energy saving).
    pub fn total_bytes(&self) -> u64 {
        self.replicas.iter().map(|p| p.table_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_disks_rejected() {
        assert!(Partitioning::even(0, 100).is_err());
    }

    #[test]
    fn repartition_cost_shape() {
        let from = Partitioning::even(204, 1_000_000).unwrap();
        let to66 = Partitioning::even(66, 1_000_000).unwrap();
        let cost = from.repartition_bytes(&to66);
        assert!(cost > 0);
        assert!(cost < 1_000_000, "never moves more than the table");
        assert_eq!(from.repartition_bytes(&from.clone()), 0);
        // Shrinking further moves more.
        let to36 = Partitioning::even(36, 1_000_000).unwrap();
        assert!(from.repartition_bytes(&to36) > cost);
    }

    #[test]
    fn replica_choice_and_idle_slots() {
        let narrow = Partitioning::even(8, 1000).unwrap();
        let wide = Partitioning::even(64, 1000).unwrap();
        let rs = ReplicaSet::new(vec![wide.clone(), narrow.clone()]).unwrap();
        assert_eq!(rs.choose(1).width(), 8, "light load picks narrow");
        assert_eq!(rs.choose(32).width(), 64, "heavy load picks wide");
        assert_eq!(rs.choose(100).width(), 64, "fallback to widest");
        let idle = rs.idle_slots(&narrow);
        assert_eq!(idle.len(), 56);
        assert!(!idle.contains(&3));
        assert_eq!(rs.total_bytes(), 2000);
    }

    #[test]
    fn empty_replica_set_rejected() {
        assert!(ReplicaSet::new(vec![]).is_err());
    }
}
