//! Simulator errors.

use std::fmt;

use grail_power::units::SimInstant;

/// Errors raised by the simulator.
///
/// Marked `#[non_exhaustive]`: fault injection grows this enum over time,
/// so downstream matches must carry a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A device id that does not exist in this simulation.
    UnknownDevice(String),
    /// A machine with neither disks nor SSDs: nothing can carry its IO.
    NoStorage,
    /// An array was declared over zero disks, or RAID-5 over fewer than
    /// three.
    BadArrayGeometry {
        /// Number of member disks supplied.
        disks: usize,
        /// Minimum required for the level.
        min: usize,
    },
    /// A request was issued at a time earlier than a previous request to
    /// the same device (callers must issue in time order).
    OutOfOrderIssue {
        /// The offending device, printed.
        device: String,
    },
    /// The simulation was already finished.
    Finished,
    /// An injected transient IO error: the request burned service time and
    /// energy but delivered nothing. Retry no earlier than `until`.
    TransientIo {
        /// The faulting device, printed.
        device: String,
        /// Earliest instant at which a retry may be issued.
        until: SimInstant,
    },
    /// An injected latent-sector error on a read: the medium returned an
    /// unrecoverable sector, the attempt's time and energy are wasted.
    /// Retry no earlier than `until` (the array can reconstruct around it).
    LatentSector {
        /// The faulting device, printed.
        device: String,
        /// Earliest instant at which a retry may be issued.
        until: SimInstant,
    },
    /// The disk has failed entirely and cannot serve requests until
    /// rebuilt/replaced.
    DeviceFailed {
        /// The failed device, printed.
        device: String,
    },
    /// The driver's retry policy gave up on a job after `attempts` tries.
    RetriesExhausted {
        /// Stream the job belonged to.
        stream: usize,
        /// Index of the job within its stream.
        job: usize,
        /// Number of attempts made (including the first).
        attempts: u32,
    },
    /// A rebuild was requested on an array with no failed member.
    NothingToRebuild {
        /// The array, printed.
        array: String,
    },
    /// An operation needed loaded tables, but nothing has been loaded
    /// (call `load_tpch` first).
    NotLoaded,
    /// Query planning or demand measurement failed before anything was
    /// dispatched to the simulator.
    Plan {
        /// The planner/executor error, printed.
        reason: String,
    },
    /// A configuration whose parts do not fit each other (a chaos
    /// schedule generated for another machine count, an event naming a
    /// machine the configuration does not have), rejected before
    /// anything runs.
    BadConfig(String),
}

impl SimError {
    /// True when the error is transient and the same request may succeed
    /// if reissued (after [`SimError::retry_until`]).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SimError::TransientIo { .. } | SimError::LatentSector { .. }
        )
    }

    /// Earliest instant a retry may be issued, for retryable errors.
    pub fn retry_until(&self) -> Option<SimInstant> {
        match self {
            SimError::TransientIo { until, .. } | SimError::LatentSector { until, .. } => {
                Some(*until)
            }
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            SimError::NoStorage => f.write_str("machine has no storage: no disks and no SSDs"),
            SimError::BadArrayGeometry { disks, min } => {
                write!(f, "bad array geometry: {disks} disks (minimum {min})")
            }
            SimError::OutOfOrderIssue { device } => {
                write!(f, "out-of-order issue to {device}")
            }
            SimError::Finished => f.write_str("simulation already finished"),
            SimError::TransientIo { device, until } => write!(
                f,
                "transient IO error on {device}; retry after {:.6}s",
                until.as_secs_f64()
            ),
            SimError::LatentSector { device, until } => write!(
                f,
                "latent sector error on {device}; retry after {:.6}s",
                until.as_secs_f64()
            ),
            SimError::DeviceFailed { device } => write!(f, "device {device} has failed"),
            SimError::RetriesExhausted {
                stream,
                job,
                attempts,
            } => write!(
                f,
                "stream {stream} job {job}: retries exhausted after {attempts} attempts"
            ),
            SimError::NothingToRebuild { array } => {
                write!(f, "array {array} has no failed member to rebuild")
            }
            SimError::NotLoaded => f.write_str("no tables loaded; call load_tpch first"),
            SimError::Plan { reason } => write!(f, "query planning failed: {reason}"),
            SimError::BadConfig(why) => write!(f, "bad configuration: {why}"),
        }
    }
}

impl std::error::Error for SimError {}
