//! The static metric catalog: every metric name in the workspace,
//! registered exactly once.
//!
//! Instrumentation sites pass bare `&'static str` literals; this table
//! is where those names acquire a kind, a unit, and help text for the
//! Prometheus exposition. The exposition relies on two invariants: call
//! sites never build names at runtime (the recording API takes
//! `&'static str`, so cardinality is bounded), and each catalog name
//! appears exactly once (`catalog_is_sorted_and_duplicate_free`). The
//! root `tests/metrics_determinism.rs` fails when a pinned scrape
//! carries a name missing here.

/// What family a metric belongs to (drives the Prometheus `# TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Last-write (or accumulated) gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
    /// Tumbling-window rate (exported as a gauge of the last window).
    Rate,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge | MetricKind::Rate => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registered metric: its dotted name, kind, unit, and help text.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Dotted metric name, as passed at the instrumentation site.
    pub name: &'static str,
    /// Metric family.
    pub kind: MetricKind,
    /// Unit suffix for documentation ("1" for dimensionless counts).
    pub unit: &'static str,
    /// One-line help text for the exposition.
    pub help: &'static str,
}

/// Every metric the workspace emits, in name order. Each name is
/// registered exactly once (asserted by a test below).
pub const CATALOG: &[MetricSpec] = &[
    MetricSpec {
        name: "chaos.breaker_trips",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Restarted machines held in circuit-breaker quarantine",
    },
    MetricSpec {
        name: "chaos.cold_boots",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Cold boots billed to the Recovery ledger during chaos runs",
    },
    MetricSpec {
        name: "chaos.event_rate",
        kind: MetricKind::Rate,
        unit: "1/h",
        help: "Chaos schedule events per simulated hour (last closed window)",
    },
    MetricSpec {
        name: "chaos.events",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Chaos schedule events applied (crashes, outages, brownouts, surges)",
    },
    MetricSpec {
        name: "chaos.offered_work",
        kind: MetricKind::Gauge,
        unit: "work",
        help: "Cumulative work offered to the fleet, in demand units",
    },
    MetricSpec {
        name: "chaos.placements",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Placement recomputations during chaos runs",
    },
    MetricSpec {
        name: "chaos.redispatches",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Re-dispatch attempts that recovered stranded work",
    },
    MetricSpec {
        name: "chaos.replicas",
        kind: MetricKind::Gauge,
        unit: "1",
        help: "Effective replica count under the current placement",
    },
    MetricSpec {
        name: "chaos.served_rate",
        kind: MetricKind::Gauge,
        unit: "work/s",
        help: "Work rate currently served under the placement",
    },
    MetricSpec {
        name: "chaos.served_work",
        kind: MetricKind::Gauge,
        unit: "work",
        help: "Cumulative work served to completion, in demand units",
    },
    MetricSpec {
        name: "chaos.shed_rate",
        kind: MetricKind::Gauge,
        unit: "work/s",
        help: "Work rate currently shed by admission control (SLA-visible)",
    },
    MetricSpec {
        name: "chaos.shed_work",
        kind: MetricKind::Gauge,
        unit: "work",
        help: "Cumulative work shed by admission control, in demand units",
    },
    MetricSpec {
        name: "cpu.requests",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Compute reservations issued to the CPU model",
    },
    MetricSpec {
        name: "db.joules_per_query",
        kind: MetricKind::Gauge,
        unit: "J",
        help: "Wall-socket Joules per completed query over the run",
    },
    MetricSpec {
        name: "db.queries",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Queries completed by EnergyAwareDb runs",
    },
    MetricSpec {
        name: "db.query_joules",
        kind: MetricKind::Histogram,
        unit: "J",
        help: "Attributed energy per completed query",
    },
    MetricSpec {
        name: "db.query_rate",
        kind: MetricKind::Rate,
        unit: "1/s",
        help: "Queries completed per simulated second (last closed window)",
    },
    MetricSpec {
        name: "db.query_secs",
        kind: MetricKind::Histogram,
        unit: "s",
        help: "Per-query latency from dispatch to completion",
    },
    MetricSpec {
        name: "driver.jobs",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Jobs completed by the stream driver",
    },
    MetricSpec {
        name: "driver.queue_depth",
        kind: MetricKind::Histogram,
        unit: "1",
        help: "Ready-queue depth observed at each event dispatch",
    },
    MetricSpec {
        name: "fault.degraded_accesses",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Reads served in RAID-degraded mode",
    },
    MetricSpec {
        name: "fault.io_faults",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Injected IO faults surfaced to the driver",
    },
    MetricSpec {
        name: "fault.rebuilds",
        kind: MetricKind::Counter,
        unit: "1",
        help: "RAID rebuilds completed",
    },
    MetricSpec {
        name: "fault.recovery_bills",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Direct Recovery-category bills (crash reboots, replayed work)",
    },
    MetricSpec {
        name: "fault.spin_up_failures",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Disk spin-up attempts that failed",
    },
    MetricSpec {
        name: "io.disk_service_secs",
        kind: MetricKind::Histogram,
        unit: "s",
        help: "Disk service time per request",
    },
    MetricSpec {
        name: "io.requests",
        kind: MetricKind::Counter,
        unit: "1",
        help: "IO requests issued to storage devices",
    },
    MetricSpec {
        name: "io.retries",
        kind: MetricKind::Counter,
        unit: "1",
        help: "IO retries after retryable faults",
    },
    MetricSpec {
        name: "io.ssd_service_secs",
        kind: MetricKind::Histogram,
        unit: "s",
        help: "SSD service time per request",
    },
    MetricSpec {
        name: "power.parks",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Disk park (spin-down) decisions taken",
    },
    MetricSpec {
        name: "power.state_entries",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Power-state entries summed over all device state machines",
    },
    MetricSpec {
        name: "power.transition_joules",
        kind: MetricKind::Gauge,
        unit: "J",
        help: "Energy consumed by power-state transitions alone",
    },
    MetricSpec {
        name: "power.transition_secs",
        kind: MetricKind::Gauge,
        unit: "s",
        help: "Simulated time spent inside power-state transitions",
    },
    MetricSpec {
        name: "power.transitions",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Power-state transitions summed over all device state machines",
    },
    MetricSpec {
        name: "power.unparks",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Disk unpark (spin-up) decisions taken",
    },
    MetricSpec {
        name: "trace.dropped",
        kind: MetricKind::Counter,
        unit: "1",
        help: "Trace events evicted because the recorder ring was full",
    },
];

/// Look up the spec for a dotted metric name.
pub fn spec_for(name: &str) -> Option<&'static MetricSpec> {
    CATALOG
        .binary_search_by(|s| s.name.cmp(name))
        .ok()
        .map(|i| &CATALOG[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_duplicate_free() {
        for w in CATALOG.windows(2) {
            assert!(
                w[0].name < w[1].name,
                "catalog must be sorted, duplicate-free: {} vs {}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn lookup_hits_and_misses() {
        assert_eq!(spec_for("io.requests").unwrap().kind, MetricKind::Counter);
        assert_eq!(
            spec_for("db.query_secs").unwrap().kind,
            MetricKind::Histogram
        );
        assert!(spec_for("no.such.metric").is_none());
    }
}
