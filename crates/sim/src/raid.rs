//! RAID striping over disk sets.
//!
//! Fig. 1's database is "striped across all disks in a RAID 5
//! configuration"; repartitioning it across fewer spindles is the
//! experiment's (coarse) power knob.

use crate::error::SimError;
use crate::ids::DiskId;
use grail_power::units::Bytes;

/// RAID level of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaidLevel {
    /// Striping, no redundancy.
    Raid0,
    /// Striping with distributed parity (one disk's worth).
    Raid5,
}

impl RaidLevel {
    /// Fewest member disks an array at this level can stripe over.
    pub fn min_disks(self) -> usize {
        match self {
            RaidLevel::Raid0 => 1,
            RaidLevel::Raid5 => 3,
        }
    }
}

/// A striped array over a set of member disks.
#[derive(Debug, Clone, PartialEq)]
pub struct RaidSpec {
    /// RAID level.
    pub level: RaidLevel,
    /// Member disks, in stripe order.
    pub disks: Vec<DiskId>,
}

impl RaidSpec {
    /// Validate and build an array spec.
    pub fn new(level: RaidLevel, disks: Vec<DiskId>) -> Result<Self, SimError> {
        let min = level.min_disks();
        if disks.len() < min {
            return Err(SimError::BadArrayGeometry {
                disks: disks.len(),
                min,
            });
        }
        Ok(RaidSpec { level, disks })
    }

    /// Number of member disks.
    pub fn width(&self) -> usize {
        self.disks.len()
    }

    /// Number of data-bearing disks for reads (RAID-5 loses one disk's
    /// worth to parity).
    pub fn data_width(&self) -> usize {
        match self.level {
            RaidLevel::Raid0 => self.disks.len(),
            RaidLevel::Raid5 => self.disks.len() - 1,
        }
    }

    /// Per-disk byte share for a large read of `bytes`: the transfer is
    /// spread over all spindles, each moving `bytes / data_width` of
    /// useful data (RAID-5 spindles interleave parity they skip).
    ///
    /// Yields one entry per member disk. The first disk absorbs the
    /// remainder so shares always sum to at least `bytes`.
    pub(crate) fn read_shares(&self, bytes: Bytes) -> Shares<'_> {
        self.spread(bytes.get(), self.data_width() as u64, None)
    }

    /// Per-disk byte share for a degraded RAID-5 read of `bytes` with the
    /// member at `failed_idx` missing.
    ///
    /// Every stripe unit that lived on the failed disk must be
    /// reconstructed by reading the corresponding unit from *all* `n-1`
    /// survivors and XOR-ing, so each survivor moves its healthy share
    /// `bytes/(n-1)` inflated by `n/(n-1)` — the reconstruction tax. The
    /// first survivor absorbs the rounding remainder so shares always sum
    /// to at least the reconstruction volume.
    ///
    /// Yields one entry per *surviving* member disk (the failed disk
    /// serves nothing). Errors if the level has no redundancy or
    /// `failed_idx` is out of range.
    pub(crate) fn degraded_read_shares(
        &self,
        bytes: Bytes,
        failed_idx: usize,
    ) -> Result<Shares<'_>, SimError> {
        if self.level != RaidLevel::Raid5 {
            return Err(SimError::BadArrayGeometry {
                disks: self.disks.len(),
                min: 3,
            });
        }
        let Some(failed) = self.disks.get(failed_idx) else {
            return Err(SimError::UnknownDevice(format!(
                "member index {failed_idx}"
            )));
        };
        // Healthy per-survivor share inflated by n/(n-1): total volume
        // moved is bytes · n/(n-1) over n-1 survivors.
        let n = self.disks.len() as u64;
        Ok(self.spread(bytes.get() * n / (n - 1), n - 1, Some(*failed)))
    }

    /// Per-disk byte share for a degraded RAID-5 full-stripe write of
    /// `bytes` with the member at `failed_idx` missing: the survivors
    /// absorb the same `n/(n-1)` parity volume as a healthy write, spread
    /// over one fewer spindle.
    pub(crate) fn degraded_write_shares(
        &self,
        bytes: Bytes,
        failed_idx: usize,
    ) -> Result<Shares<'_>, SimError> {
        // Same total volume and survivor set as a degraded read: a
        // healthy RAID-5 full-stripe write moves bytes · n/(n-1), and in
        // degraded mode the failed member's units are simply dropped
        // while parity for them must still be computed from the rest.
        self.degraded_read_shares(bytes, failed_idx)
    }

    /// Per-disk byte share for a large (full-stripe) write of `bytes`.
    /// RAID-5 writes `bytes · n/(n-1)` in total (data + parity), spread
    /// over all `n` spindles.
    pub(crate) fn write_shares(&self, bytes: Bytes) -> Shares<'_> {
        match self.level {
            RaidLevel::Raid0 => self.read_shares(bytes),
            RaidLevel::Raid5 => {
                let n = self.disks.len() as u64;
                self.spread(bytes.get() * n / (n - 1), n, None)
            }
        }
    }

    /// `total` bytes in `over` equal shares over the members other than
    /// `skip`, the first of them absorbing the remainder.
    fn spread(&self, total: u64, over: u64, skip: Option<DiskId>) -> Shares<'_> {
        let per = total / over;
        Shares {
            disks: self.disks.iter(),
            skip,
            per,
            next: total - per * (over - 1),
        }
    }
}

/// The `(disk, bytes)` shares of one array IO, computed as they are
/// walked: an array IO allocates nothing for them.
#[derive(Debug, Clone)]
pub(crate) struct Shares<'a> {
    disks: std::slice::Iter<'a, DiskId>,
    skip: Option<DiskId>,
    per: u64,
    /// The next member's share: the remainder-carrying first one, then
    /// `per`.
    next: u64,
}

impl Iterator for Shares<'_> {
    type Item = (DiskId, Bytes);

    fn next(&mut self) -> Option<(DiskId, Bytes)> {
        let disk = *self.disks.find(|d| Some(**d) != self.skip)?;
        let share = std::mem::replace(&mut self.next, self.per);
        Some((disk, Bytes::new(share)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<DiskId> {
        (0..n).map(DiskId).collect()
    }

    #[test]
    fn geometry_validation() {
        assert!(RaidSpec::new(RaidLevel::Raid5, ids(2)).is_err());
        assert!(RaidSpec::new(RaidLevel::Raid5, ids(3)).is_ok());
        assert!(RaidSpec::new(RaidLevel::Raid0, ids(0)).is_err());
        assert!(RaidSpec::new(RaidLevel::Raid0, ids(1)).is_ok());
    }

    #[test]
    fn raid0_read_split_even() {
        let a = RaidSpec::new(RaidLevel::Raid0, ids(4)).unwrap();
        let shares: Vec<_> = a.read_shares(Bytes::new(4000)).collect();
        assert_eq!(shares.len(), 4);
        assert!(shares.iter().all(|(_, b)| b.get() == 1000));
    }

    #[test]
    fn raid5_read_uses_all_spindles_minus_parity_share() {
        let a = RaidSpec::new(RaidLevel::Raid5, ids(5)).unwrap();
        let shares: Vec<_> = a.read_shares(Bytes::new(4000)).collect();
        assert_eq!(shares.len(), 5);
        // data_width = 4, so each spindle moves 1000 useful bytes.
        assert!(shares.iter().all(|(_, b)| b.get() == 1000));
        let total: u64 = shares.iter().map(|(_, b)| b.get()).sum();
        assert!(total >= 4000);
    }

    #[test]
    fn raid5_write_parity_overhead() {
        let a = RaidSpec::new(RaidLevel::Raid5, ids(5)).unwrap();
        let total: u64 = a.write_shares(Bytes::new(4000)).map(|(_, b)| b.get()).sum();
        // 4000 × 5/4 = 5000 bytes actually written.
        assert_eq!(total, 5000);
    }

    #[test]
    fn degraded_read_excludes_failed_and_inflates_survivors() {
        let a = RaidSpec::new(RaidLevel::Raid5, ids(5)).unwrap();
        let shares: Vec<_> = a
            .degraded_read_shares(Bytes::new(4000), 2)
            .unwrap()
            .collect();
        assert_eq!(shares.len(), 4);
        assert!(shares.iter().all(|(d, _)| *d != DiskId(2)));
        // Total volume = 4000 × 5/4 = 5000 over 4 survivors.
        let total: u64 = shares.iter().map(|(_, b)| b.get()).sum();
        assert_eq!(total, 5000);
        // Each survivor moves more than its healthy 1000-byte share.
        assert!(shares.iter().all(|(_, b)| b.get() >= 1250));
    }

    #[test]
    fn degraded_read_rejects_raid0_and_bad_index() {
        let r0 = RaidSpec::new(RaidLevel::Raid0, ids(4)).unwrap();
        assert!(r0.degraded_read_shares(Bytes::new(100), 0).is_err());
        let r5 = RaidSpec::new(RaidLevel::Raid5, ids(4)).unwrap();
        assert!(r5.degraded_read_shares(Bytes::new(100), 9).is_err());
    }

    #[test]
    fn degraded_write_matches_healthy_total_volume() {
        let a = RaidSpec::new(RaidLevel::Raid5, ids(5)).unwrap();
        let healthy: u64 = a.write_shares(Bytes::new(4000)).map(|(_, b)| b.get()).sum();
        let degraded: u64 = a
            .degraded_write_shares(Bytes::new(4000), 0)
            .unwrap()
            .map(|(_, b)| b.get())
            .sum();
        assert_eq!(healthy, degraded);
    }

    #[test]
    fn remainder_goes_to_first_disk() {
        let a = RaidSpec::new(RaidLevel::Raid0, ids(3)).unwrap();
        let shares: Vec<_> = a.read_shares(Bytes::new(10)).collect();
        assert_eq!(shares[0].1.get(), 4);
        assert_eq!(shares[1].1.get(), 3);
        assert_eq!(shares[2].1.get(), 3);
    }
}
