//! Optimization objectives.
//!
//! The paper's thesis in one type: the same plan space scored by time,
//! by energy, or by energy-delay product. MinTime is the classic
//! optimizer; MinEnergy is what Sec. 4.1 asks for.

use super::cost::PlanCost;

/// A plan-scoring objective (lower is better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize elapsed time (the classic optimizer).
    MinTime,
    /// Minimize energy.
    MinEnergy,
    /// Minimize energy × delay (balances both).
    MinEdp,
}

impl Objective {
    /// The plan's score (lower is better).
    pub fn score(&self, c: &PlanCost) -> f64 {
        match self {
            Objective::MinTime => c.elapsed_secs,
            Objective::MinEnergy => c.energy_j,
            Objective::MinEdp => c.energy_j * c.elapsed_secs,
        }
    }

    /// True if `a` beats `b` under this objective.
    pub fn better(&self, a: &PlanCost, b: &PlanCost) -> bool {
        self.score(a) < self.score(b)
    }

    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::MinTime => "min_time",
            Objective::MinEnergy => "min_energy",
            Objective::MinEdp => "min_edp",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(t: f64, e: f64) -> PlanCost {
        PlanCost {
            cpu_secs: t,
            io_secs: 0.0,
            elapsed_secs: t,
            energy_j: e,
            memory_bytes: 0,
        }
    }

    #[test]
    fn objectives_disagree_by_design() {
        // Fig. 2's two options: fast-and-hungry vs slow-and-frugal.
        let compressed = cost(5.5, 487.0);
        let uncompressed = cost(10.0, 338.0);
        assert!(Objective::MinTime.better(&compressed, &uncompressed));
        assert!(Objective::MinEnergy.better(&uncompressed, &compressed));
        // EDP: 487×5.5 = 2679 vs 338×10 = 3380 — compressed wins EDP.
        assert!(Objective::MinEdp.better(&compressed, &uncompressed));
    }

    #[test]
    fn scores_are_monotone_in_their_dimension() {
        let worse = cost(3.0, 300.0);
        let better = cost(2.0, 200.0);
        for o in [Objective::MinTime, Objective::MinEnergy, Objective::MinEdp] {
            assert!(o.better(&better, &worse), "{}", o.name());
        }
    }
}
