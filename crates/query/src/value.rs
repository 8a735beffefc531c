//! Runtime values.
//!
//! GRAIL normalizes every scalar to a 64-bit code at the storage
//! boundary — integers verbatim, decimals scaled by 100, dates as day
//! numbers, strings dictionary-coded — the representation read-optimized
//! column engines (the paper's \[HLA+06\] scanner) actually scan. The
//! [`Datum`] alias marks an `i64` carrying such a code; what it means is
//! the column's [`crate::schema::ColumnType`].

/// A 64-bit-coded scalar value.
pub type Datum = i64;
