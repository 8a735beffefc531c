//! Calibrated CPU-work constants (cycles per unit of real work).
//!
//! The executor does real work on real data, but *simulated* CPU time
//! must not depend on the host machine; instead every operator charges
//! `cycles = constant × units`. The constants are calibrated so the
//! Fig. 2 scanner reproduces the paper's measured CPU times on its
//! \[HLA+06\]-era hardware: ~10 cycles per scanned value uncompressed
//! (3.2 s of 2.3 GHz CPU for a ~750 M-value projection), rising to ~16
//! with decompression (5.1 s).

use grail_power::units::Cycles;
use grail_storage::compress::Encoding;
use serde::Serialize;

/// The cycles-per-unit table used by the executor and mirrored by the
/// optimizer's cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostCharge {
    /// Per decoded value touched by a scan (read, predicate-ready,
    /// emit).
    pub scan_cycles_per_value: f64,
    /// Per value, added by decode, for each encoding (indexed via
    /// [`CostCharge::decode_cycles`]).
    pub decode_plain: f64,
    /// RLE decode cost per value.
    pub decode_rle: f64,
    /// Dictionary decode cost per value.
    pub decode_dict: f64,
    /// Bit-pack decode cost per value.
    pub decode_bitpack: f64,
    /// Delta decode cost per value.
    pub decode_delta: f64,
    /// Per expression term per row in filters/projections.
    pub expr_cycles_per_term: f64,
    /// Per row inserted into a join hash table.
    pub hash_build_cycles_per_row: f64,
    /// Per probe row.
    pub hash_probe_cycles_per_row: f64,
    /// Per (outer, inner) pair in nested-loop join.
    pub nl_cycles_per_pair: f64,
    /// Per comparison in sorting.
    pub sort_cycles_per_cmp: f64,
    /// Per row merged in an external sort's run merge.
    pub merge_cycles_per_row: f64,
    /// Per row aggregated.
    pub agg_cycles_per_row: f64,
    /// Per output group.
    pub agg_cycles_per_group: f64,
}

impl CostCharge {
    /// The Fig. 2 calibration (see module docs).
    pub fn default_calibrated() -> Self {
        CostCharge {
            scan_cycles_per_value: 9.8,
            decode_plain: 0.0,
            decode_rle: 2.0,
            decode_dict: 8.5,
            decode_bitpack: 10.2,
            decode_delta: 5.5,
            expr_cycles_per_term: 3.0,
            hash_build_cycles_per_row: 45.0,
            hash_probe_cycles_per_row: 32.0,
            nl_cycles_per_pair: 5.0,
            sort_cycles_per_cmp: 28.0,
            merge_cycles_per_row: 18.0,
            agg_cycles_per_row: 24.0,
            agg_cycles_per_group: 40.0,
        }
    }

    /// Decode cost per value for `enc`.
    pub fn decode_cycles(&self, enc: Encoding) -> f64 {
        match enc {
            Encoding::Plain => self.decode_plain,
            Encoding::Rle => self.decode_rle,
            Encoding::Dict => self.decode_dict,
            Encoding::BitPack => self.decode_bitpack,
            Encoding::Delta => self.decode_delta,
        }
    }
}

/// Round a fractional cycle count up to whole [`Cycles`].
pub fn cycles(count: f64) -> Cycles {
    Cycles::new(count.max(0.0).ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_reproduces_fig2_cpu_times() {
        // Fig. 2: ~750 M values (5 columns × 150 M rows), 2.3 GHz CPU.
        let c = CostCharge::default_calibrated();
        let values = 750.0e6;
        let hz = 2.3e9;
        let uncompressed_secs = values * c.scan_cycles_per_value / hz;
        assert!(
            (uncompressed_secs - 3.2).abs() < 0.15,
            "uncompressed CPU {uncompressed_secs}s vs paper 3.2s"
        );
        // Compressed mix under the Fig. 2 codec set (plain keys, dict
        // status, bitpacked price and date): average decode ≈ 5.8
        // cycles/value on top.
        let avg_decode =
            (c.decode_plain + c.decode_plain + c.decode_dict + c.decode_bitpack + c.decode_bitpack)
                / 5.0;
        let compressed_secs = values * (c.scan_cycles_per_value + avg_decode) / hz;
        assert!(
            (compressed_secs - 5.1).abs() < 0.35,
            "compressed CPU {compressed_secs}s vs paper 5.1s"
        );
    }

    #[test]
    fn cycles_rounds_up_and_clamps() {
        assert_eq!(cycles(0.1).get(), 1);
        assert_eq!(cycles(5.0).get(), 5);
        assert_eq!(cycles(-3.0).get(), 0);
    }

    #[test]
    fn every_encoding_has_a_decode_cost() {
        let c = CostCharge::default_calibrated();
        for enc in Encoding::ALL {
            assert!(c.decode_cycles(enc) >= 0.0);
        }
        assert_eq!(c.decode_cycles(Encoding::Plain), 0.0);
        assert!(c.decode_cycles(Encoding::BitPack) > c.decode_cycles(Encoding::Rle));
    }
}
