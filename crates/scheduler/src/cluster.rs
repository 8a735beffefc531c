//! Cluster-level consolidation: the \[TWM+08\] idea the paper endorses —
//! "using virtual machine migration and turning off servers to effect
//! energy-proportionality" over a heterogeneous fleet (Sec. 2.4).
//!
//! Machines have linear power curves and different peak efficiencies
//! (the technology-refresh heterogeneity the paper notes). A placement
//! policy maps an aggregate demand onto the fleet; consolidation packs
//! the most efficient machines full and powers the rest off, making the
//! *cluster* energy-proportional even though no single machine is.

use grail_power::proportionality::{CurveShape, PowerCurve};
use grail_power::units::{Joules, SimDuration, Watts};
use std::cmp::Ordering;
use std::fmt;

/// One machine in the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Name for reports.
    pub name: String,
    /// Peak throughput, work/s.
    pub capacity: f64,
    /// Power at zero load (while on).
    pub idle: Watts,
    /// Power at full load.
    pub peak: Watts,
    /// Cold-boot latency when a powered-off machine is brought back.
    pub boot_latency: SimDuration,
    /// Energy burned by one cold boot (drawn before any work is served).
    pub boot_energy: Joules,
    /// Fault domain (rack / PDU group): machines sharing a domain fail
    /// together under correlated outages. Defaults to 0.
    pub domain: u32,
}

/// Default cold-boot latency: two minutes of POST + OS + service start.
const DEFAULT_BOOT_LATENCY: SimDuration = SimDuration::from_secs(120);

impl Machine {
    /// A machine description.
    ///
    /// # Panics
    /// Panics on non-positive capacity or idle above peak. Use
    /// [`Machine::try_new`] for a non-panicking variant.
    pub fn new(name: &str, capacity: f64, idle: Watts, peak: Watts) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(idle.get() <= peak.get(), "idle above peak");
        Machine {
            name: name.to_string(),
            capacity,
            idle,
            peak,
            boot_latency: DEFAULT_BOOT_LATENCY,
            boot_energy: peak * DEFAULT_BOOT_LATENCY,
            domain: 0,
        }
    }

    /// A machine description, rejecting bad geometry instead of
    /// panicking. The whole description — including the default boot
    /// cost — passes [`Machine::validate`].
    ///
    /// # Errors
    /// [`ClusterError::BadMachine`] on non-positive (or non-finite)
    /// capacity, idle above peak, or negative power.
    pub fn try_new(
        name: &str,
        capacity: f64,
        idle: Watts,
        peak: Watts,
    ) -> Result<Self, ClusterError> {
        let m = Machine {
            name: name.to_string(),
            capacity,
            idle,
            peak,
            boot_latency: DEFAULT_BOOT_LATENCY,
            // Placeholder until the power curve is known valid; the real
            // default (peak × latency) is derived below.
            boot_energy: Joules::ZERO,
            domain: 0,
        };
        m.validate()?;
        let boot_energy = m.peak * DEFAULT_BOOT_LATENCY;
        m.try_with_boot(DEFAULT_BOOT_LATENCY, boot_energy)
    }

    /// Check every field of a (possibly hand-assembled or
    /// builder-mutated) machine description.
    ///
    /// # Errors
    /// [`ClusterError::BadMachine`] on non-positive or non-finite
    /// capacity, non-finite or negative power, idle above peak, or a
    /// non-finite boot energy (arithmetic on `Joules` can overflow to
    /// infinity even though its constructor rejects it).
    pub fn validate(&self) -> Result<(), ClusterError> {
        let name = &self.name;
        if !self.capacity.is_finite() || self.capacity <= 0.0 {
            return Err(ClusterError::BadMachine(format!(
                "{name}: capacity must be positive, got {}",
                self.capacity
            )));
        }
        if self.idle.get() < 0.0 || !self.idle.get().is_finite() || !self.peak.get().is_finite() {
            return Err(ClusterError::BadMachine(format!(
                "{name}: power draws must be finite and non-negative"
            )));
        }
        if self.idle.get() > self.peak.get() {
            return Err(ClusterError::BadMachine(format!(
                "{name}: idle {} above peak {}",
                self.idle, self.peak
            )));
        }
        if !self.boot_energy.joules().is_finite() || self.boot_energy.joules() < 0.0 {
            return Err(ClusterError::BadMachine(format!(
                "{name}: boot energy must be finite and non-negative, got {} J",
                self.boot_energy.joules()
            )));
        }
        Ok(())
    }

    /// Override the cold-boot cost (builder style).
    pub fn with_boot(mut self, latency: SimDuration, energy: Joules) -> Self {
        self.boot_latency = latency;
        self.boot_energy = energy;
        self
    }

    /// Override the cold-boot cost, rejecting bad geometry (a non-finite
    /// energy from overflowed `Joules` arithmetic) instead of letting it
    /// poison recovery billing.
    ///
    /// # Errors
    /// [`ClusterError::BadMachine`] if the resulting description fails
    /// [`Machine::validate`].
    pub fn try_with_boot(
        mut self,
        latency: SimDuration,
        energy: Joules,
    ) -> Result<Self, ClusterError> {
        self.boot_latency = latency;
        self.boot_energy = energy;
        self.validate()?;
        Ok(self)
    }

    /// Assign this machine to a fault domain (builder style).
    pub fn with_domain(mut self, domain: u32) -> Self {
        self.domain = domain;
        self
    }

    /// Power at `load` work/s (clamped to capacity).
    pub fn power_at(&self, load: f64) -> Watts {
        let curve = PowerCurve {
            idle: self.idle,
            peak: self.peak,
            shape: CurveShape::Linear,
        };
        curve.power_at(load / self.capacity)
    }

    /// Work per Joule at full load.
    pub fn peak_efficiency(&self) -> f64 {
        self.capacity / self.peak.get()
    }
}

/// How demand is spread over the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Load-balance across every machine, all powered (the classic
    /// availability-first layout).
    Spread,
    /// Fill the most (peak-)efficient machines to capacity first; power
    /// off machines that receive nothing.
    Consolidate,
}

/// A computed placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Work/s assigned per machine (fleet order).
    pub loads: Vec<f64>,
    /// Whether each machine stays powered.
    pub powered: Vec<bool>,
}

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// Aggregate demand exceeds fleet capacity.
    Overloaded,
    /// The fleet is empty.
    EmptyFleet,
    /// A machine description is invalid (bad capacity or power curve).
    BadMachine(String),
    /// A machine index is out of range for the fleet.
    UnknownMachine(usize),
    /// A chaos schedule (or its run parameters) does not fit the fleet:
    /// wrong machine/domain shape, non-finite demand/policy inputs, or
    /// work or energy totals that would overflow `f64`.
    BadSchedule(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Overloaded => f.write_str("demand exceeds fleet capacity"),
            ClusterError::EmptyFleet => f.write_str("empty fleet"),
            ClusterError::BadMachine(why) => write!(f, "bad machine: {why}"),
            ClusterError::UnknownMachine(i) => write!(f, "unknown machine index {i}"),
            ClusterError::BadSchedule(why) => write!(f, "bad chaos schedule: {why}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The fleet's one efficiency ordering, as a comparator over machine
/// indices: most peak-efficient first, ties broken by fleet order for
/// determinism. Consolidation fills in this order and hedged re-dispatch
/// replays on its first available machine.
pub(crate) fn by_peak_efficiency(fleet: &[Machine]) -> impl Fn(&usize, &usize) -> Ordering + '_ {
    move |&a, &b| {
        fleet[b]
            .peak_efficiency()
            .total_cmp(&fleet[a].peak_efficiency())
            .then(a.cmp(&b))
    }
}

/// Place `demand` work/s on `fleet` under `policy`.
pub fn place(
    fleet: &[Machine],
    demand: f64,
    policy: PlacementPolicy,
) -> Result<Placement, ClusterError> {
    if fleet.is_empty() {
        return Err(ClusterError::EmptyFleet);
    }
    let total: f64 = fleet.iter().map(|m| m.capacity).sum();
    if demand > total * (1.0 + 1e-9) {
        return Err(ClusterError::Overloaded);
    }
    let demand = demand.max(0.0);
    match policy {
        PlacementPolicy::Spread => {
            let loads = fleet.iter().map(|m| demand * m.capacity / total).collect();
            Ok(Placement {
                loads,
                powered: vec![true; fleet.len()],
            })
        }
        PlacementPolicy::Consolidate => {
            let mut order: Vec<usize> = (0..fleet.len()).collect();
            order.sort_by(by_peak_efficiency(fleet));
            let mut loads = vec![0.0; fleet.len()];
            let mut powered = vec![false; fleet.len()];
            let mut rest = demand;
            for i in order {
                if rest <= 0.0 {
                    break;
                }
                let take = rest.min(fleet[i].capacity);
                loads[i] = take;
                powered[i] = true;
                rest -= take;
            }
            Ok(Placement { loads, powered })
        }
    }
}

impl Placement {
    /// Total fleet power under this placement (off machines draw
    /// nothing).
    pub fn power(&self, fleet: &[Machine]) -> Watts {
        fleet
            .iter()
            .zip(&self.loads)
            .zip(&self.powered)
            .map(
                |((m, load), on)| {
                    if *on {
                        m.power_at(*load)
                    } else {
                        Watts::ZERO
                    }
                },
            )
            .sum()
    }

    /// Cluster energy efficiency (work/s per Watt = work/Joule).
    pub fn efficiency(&self, fleet: &[Machine]) -> f64 {
        let p = self.power(fleet).get();
        let served: f64 = self.loads.iter().sum();
        if p <= 0.0 {
            0.0
        } else {
            served / p
        }
    }

    /// Number of powered machines.
    pub fn powered_count(&self) -> usize {
        self.powered.iter().filter(|p| **p).count()
    }
}

/// A mixed-generation fleet for experiments: two old brawny boxes, two
/// newer mid-range, two efficient recent ones (the refresh-cycle
/// heterogeneity of Sec. 2.4).
pub fn refresh_cycle_fleet() -> Vec<Machine> {
    vec![
        Machine::new("old-a", 1000.0, Watts::new(300.0), Watts::new(400.0)),
        Machine::new("old-b", 1000.0, Watts::new(300.0), Watts::new(400.0)),
        Machine::new("mid-a", 1500.0, Watts::new(250.0), Watts::new(380.0)),
        Machine::new("mid-b", 1500.0, Watts::new(250.0), Watts::new(380.0)),
        Machine::new("new-a", 2000.0, Watts::new(180.0), Watts::new(350.0)),
        Machine::new("new-b", 2000.0, Watts::new(180.0), Watts::new(350.0)),
    ]
}

/// A fleet for chaos experiments: `domains` racks of `per_domain`
/// machines each, cycling the three refresh-cycle machine classes so
/// every domain holds a heterogeneous mix. Machine `i` lands in domain
/// `i / per_domain` and is named `d{domain}-m{slot}-{class}`.
pub fn chaos_fleet(domains: u32, per_domain: u32) -> Vec<Machine> {
    let classes = [
        ("old", 1000.0, 300.0, 400.0),
        ("mid", 1500.0, 250.0, 380.0),
        ("new", 2000.0, 180.0, 350.0),
    ];
    let mut fleet = Vec::with_capacity((domains * per_domain) as usize);
    for d in 0..domains {
        for s in 0..per_domain {
            let (class, cap, idle, peak) = classes[(d * per_domain + s) as usize % classes.len()];
            fleet.push(
                Machine::new(
                    &format!("d{d}-m{s}-{class}"),
                    cap,
                    Watts::new(idle),
                    Watts::new(peak),
                )
                .with_domain(d),
            );
        }
    }
    fleet
}

/// Number of fault domains a fleet spans (highest domain index + 1).
pub fn domain_count(fleet: &[Machine]) -> u32 {
    fleet.iter().map(|m| m.domain + 1).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidation_beats_spread_at_partial_load() {
        let fleet = refresh_cycle_fleet();
        let total: f64 = fleet.iter().map(|m| m.capacity).sum();
        for frac in [0.1, 0.25, 0.5, 0.75] {
            let demand = total * frac;
            let spread = place(&fleet, demand, PlacementPolicy::Spread).expect("fits");
            let packed = place(&fleet, demand, PlacementPolicy::Consolidate).expect("fits");
            assert!(
                packed.power(&fleet).get() < spread.power(&fleet).get(),
                "at {frac}: {} vs {}",
                packed.power(&fleet),
                spread.power(&fleet)
            );
            assert!(packed.efficiency(&fleet) > spread.efficiency(&fleet));
        }
    }

    #[test]
    fn policies_converge_at_full_load() {
        let fleet = refresh_cycle_fleet();
        let total: f64 = fleet.iter().map(|m| m.capacity).sum();
        let spread = place(&fleet, total, PlacementPolicy::Spread).expect("fits");
        let packed = place(&fleet, total, PlacementPolicy::Consolidate).expect("fits");
        assert!((spread.power(&fleet).get() - packed.power(&fleet).get()).abs() < 1e-6);
        assert_eq!(packed.powered_count(), fleet.len());
    }

    #[test]
    fn consolidation_fills_efficient_machines_first() {
        let fleet = refresh_cycle_fleet();
        // Demand exactly the two new machines' capacity.
        let p = place(&fleet, 4000.0, PlacementPolicy::Consolidate).expect("fits");
        assert_eq!(p.powered_count(), 2);
        assert!(p.powered[4] && p.powered[5], "new machines power on first");
        assert_eq!(p.loads[4], 2000.0);
        assert_eq!(p.loads[5], 2000.0);
    }

    #[test]
    fn demand_conserved() {
        let fleet = refresh_cycle_fleet();
        for policy in [PlacementPolicy::Spread, PlacementPolicy::Consolidate] {
            let p = place(&fleet, 3123.0, policy).expect("fits");
            let served: f64 = p.loads.iter().sum();
            assert!((served - 3123.0).abs() < 1e-6);
            // No machine over capacity.
            for (m, l) in fleet.iter().zip(&p.loads) {
                assert!(*l <= m.capacity + 1e-9);
            }
        }
    }

    #[test]
    fn cluster_proportionality_emerges_from_consolidation() {
        // EE at 25% load under consolidation stays near peak EE; under
        // spread it collapses — the cluster-level [BH07] curve.
        let fleet = refresh_cycle_fleet();
        let total: f64 = fleet.iter().map(|m| m.capacity).sum();
        let full = place(&fleet, total, PlacementPolicy::Consolidate).expect("fits");
        let quarter_packed =
            place(&fleet, total * 0.25, PlacementPolicy::Consolidate).expect("fits");
        let quarter_spread = place(&fleet, total * 0.25, PlacementPolicy::Spread).expect("fits");
        let peak_ee = full.efficiency(&fleet);
        assert!(quarter_packed.efficiency(&fleet) > 0.85 * peak_ee);
        assert!(quarter_spread.efficiency(&fleet) < 0.60 * peak_ee);
    }

    #[test]
    fn errors() {
        assert_eq!(
            place(&[], 1.0, PlacementPolicy::Spread).unwrap_err(),
            ClusterError::EmptyFleet
        );
        let fleet = refresh_cycle_fleet();
        assert_eq!(
            place(&fleet, 1e9, PlacementPolicy::Consolidate).unwrap_err(),
            ClusterError::Overloaded
        );
        // Zero demand consolidation powers nothing.
        let p = place(&fleet, 0.0, PlacementPolicy::Consolidate).expect("fits");
        assert_eq!(p.powered_count(), 0);
        assert_eq!(p.power(&fleet), Watts::ZERO);
    }

    #[test]
    #[should_panic(expected = "idle above peak")]
    fn bad_machine_rejected() {
        let _ = Machine::new("x", 1.0, Watts::new(10.0), Watts::new(5.0));
    }

    #[test]
    fn try_new_rejects_without_panicking() {
        assert!(matches!(
            Machine::try_new("x", 0.0, Watts::new(1.0), Watts::new(2.0)),
            Err(ClusterError::BadMachine(_))
        ));
        assert!(matches!(
            Machine::try_new("x", f64::NAN, Watts::new(1.0), Watts::new(2.0)),
            Err(ClusterError::BadMachine(_))
        ));
        assert!(matches!(
            Machine::try_new("x", 1.0, Watts::new(10.0), Watts::new(5.0)),
            Err(ClusterError::BadMachine(_))
        ));
        let ok = Machine::try_new("x", 1.0, Watts::new(1.0), Watts::new(2.0)).expect("valid");
        assert_eq!(ok, Machine::new("x", 1.0, Watts::new(1.0), Watts::new(2.0)));
    }

    #[test]
    fn validate_rejects_bad_boot_geometry() {
        // Joules arithmetic saturates Sub at zero but overflows Mul to
        // infinity — exactly what try_with_boot must catch.
        let inf = Watts::new(f64::MAX) * SimDuration::from_secs(10);
        assert!(!inf.joules().is_finite());
        let m = Machine::new("x", 1.0, Watts::new(1.0), Watts::new(2.0));
        assert!(matches!(
            m.clone().try_with_boot(SimDuration::from_secs(30), inf),
            Err(ClusterError::BadMachine(_))
        ));
        assert!(m.validate().is_ok());
        assert!(m.with_boot(SimDuration::ZERO, inf).validate().is_err());
        // The happy path still sets the fields.
        let ok = Machine::new("x", 1.0, Watts::new(1.0), Watts::new(2.0))
            .try_with_boot(SimDuration::from_secs(30), Joules::new(500.0))
            .expect("valid boot geometry");
        assert_eq!(ok.boot_energy, Joules::new(500.0));
        // try_new validates the derived default boot cost too.
        assert!(Machine::try_new("x", 1.0, Watts::new(1.0), Watts::new(f64::MAX)).is_err());
    }

    #[test]
    fn chaos_fleet_spans_domains() {
        let fleet = chaos_fleet(4, 6);
        assert_eq!(fleet.len(), 24);
        assert_eq!(domain_count(&fleet), 4);
        for (i, m) in fleet.iter().enumerate() {
            assert_eq!(m.domain, i as u32 / 6);
            assert!(m.validate().is_ok());
        }
        // Every domain holds all three classes (heterogeneous racks).
        for d in 0..4u32 {
            let caps: Vec<f64> = fleet
                .iter()
                .filter(|m| m.domain == d)
                .map(|m| m.capacity)
                .collect();
            for class_cap in [1000.0, 1500.0, 2000.0] {
                assert!(caps.contains(&class_cap), "domain {d} missing {class_cap}");
            }
        }
        assert_eq!(domain_count(&[]), 0);
        assert_eq!(domain_count(&refresh_cycle_fleet()), 1);
    }

    #[test]
    fn with_boot_overrides_default_cost() {
        let m = Machine::new("x", 1.0, Watts::new(1.0), Watts::new(2.0))
            .with_boot(SimDuration::from_secs(30), Joules::new(500.0));
        assert_eq!(m.boot_latency, SimDuration::from_secs(30));
        assert_eq!(m.boot_energy, Joules::new(500.0));
        // Default: peak power for the default boot window.
        let d = Machine::new("x", 1.0, Watts::new(1.0), Watts::new(2.0));
        assert!((d.boot_energy.joules() - 2.0 * 120.0).abs() < 1e-9);
    }
}
