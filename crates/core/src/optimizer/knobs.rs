//! The system-wide knobs of Sec. 4.1, as a sweepable configuration
//! space.
//!
//! "All modern commercial database systems offer a multitude of knobs …
//! the same way many of those knobs have been tuned to date to increase
//! performance, we expect DBAs to use them to improve energy
//! efficiency." A [`KnobConfig`] fixes parallelism, memory grant,
//! compression, and DVFS point; [`sweep`] enumerates a grid so the
//! harness can score every setting under every objective.

/// One configuration of the Sec. 4.1 knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnobConfig {
    /// Degree of parallelism for operators.
    pub dop: u32,
    /// Sort/hash memory grant in bytes.
    pub memory_grant: u64,
    /// Whether tables are stored compressed.
    pub compression: bool,
    /// DVFS operating point index (0 = fastest).
    pub pstate: usize,
}

/// The swept grid for the knob experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobGrid {
    /// Parallelism settings to try.
    pub dops: Vec<u32>,
    /// Memory grants to try.
    pub grants: Vec<u64>,
    /// Compression on/off.
    pub compression: Vec<bool>,
    /// P-states to try.
    pub pstates: Vec<usize>,
}

impl KnobGrid {
    /// A small default grid (3×3×2×3 = 54 points).
    pub fn small() -> Self {
        KnobGrid {
            dops: vec![1, 8, 32],
            grants: vec![64 << 20, 512 << 20, 4 << 30],
            compression: vec![false, true],
            pstates: vec![0, 2, 4],
        }
    }

    /// Number of points in the grid.
    pub fn len(&self) -> usize {
        self.dops.len() * self.grants.len() * self.compression.len() * self.pstates.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Enumerate every configuration in `grid`, deterministically.
pub fn sweep(grid: &KnobGrid) -> Vec<KnobConfig> {
    let mut out = Vec::with_capacity(grid.len());
    for &dop in &grid.dops {
        for &memory_grant in &grid.grants {
            for &compression in &grid.compression {
                for &pstate in &grid.pstates {
                    out.push(KnobConfig {
                        dop,
                        memory_grant,
                        compression,
                        pstate,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_grid() {
        let grid = KnobGrid::small();
        let configs = sweep(&grid);
        assert_eq!(configs.len(), grid.len());
        assert_eq!(configs.len(), 54);
        // Deterministic order.
        assert_eq!(configs, sweep(&grid));
        // All distinct.
        #[expect(
            clippy::disallowed_types,
            reason = "membership probe only; never iterated"
        )]
        let mut seen = std::collections::HashSet::new();
        for c in &configs {
            assert!(seen.insert(format!("{c:?}")));
        }
    }
}
