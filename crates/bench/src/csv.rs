//! Deterministic CSV assembly shared by everything that returns or
//! writes a `figures/` file.
//!
//! Every `figures/` file flows through [`Csv`] (or through
//! [`grail_sim::trace::BinnedSeries::to_csv`] for time series), so the
//! formatting rules live in one place: header row first, one line per
//! row, cells joined with commas, floats rendered with Rust's
//! shortest-roundtrip `Display` — regenerating a figure from the same
//! records produces byte-identical bytes.

use std::fmt::Write as _;

/// A CSV table under construction with a fixed column count.
#[derive(Debug, Clone)]
pub struct Csv {
    out: String,
    cols: usize,
}

impl Csv {
    /// Start a table with the given column headers.
    ///
    /// # Panics
    /// Panics on an empty column list.
    pub fn new(columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a CSV needs at least one column");
        Csv {
            out: format!("{}\n", columns.join(",")),
            cols: columns.len(),
        }
    }

    /// Append one row of pre-rendered cells.
    ///
    /// # Panics
    /// Panics when the cell count differs from the header's.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.cols,
            "row arity must match the header ({} columns)",
            self.cols
        );
        let _ = writeln!(self.out, "{}", cells.join(","));
    }

    /// The finished CSV text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Render an `f64` cell deterministically (shortest decimal that
/// round-trips — the same rule the trace exporters use).
pub fn cell_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_then_rows_deterministic() {
        let build = || {
            let mut c = Csv::new(&["disks", "time_s"]);
            c.row(&["36".to_string(), cell_f64(12.5)]);
            c.row(&["66".to_string(), cell_f64(8.0)]);
            c.finish()
        };
        let text = build();
        assert_eq!(text, "disks,time_s\n36,12.5\n66,8\n");
        assert_eq!(text, build());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_rejected() {
        let mut c = Csv::new(&["a", "b"]);
        c.row(&["only one".to_string()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_rejected() {
        let _ = Csv::new(&[]);
    }
}
