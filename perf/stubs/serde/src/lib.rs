//! Offline stand-in for `serde`, used only by the `grail-perf` build.
//!
//! The sandbox has no crate registry, and the measured crates use serde
//! solely to derive `Serialize`/`Deserialize` on their public types. No
//! measured path serializes anything, so the traits here are satisfied
//! by every type and their methods are unreachable.

pub use serde_derive::{Deserialize, Serialize};

/// A data format that can serialize (never instantiated here).
pub trait Serializer: Sized {
    /// Output of a successful serialization.
    type Ok;
    /// Error of a failed serialization.
    type Error;
}

/// A data format that can deserialize (never instantiated here).
pub trait Deserializer<'de>: Sized {
    /// Error of a failed deserialization.
    type Error;
}

/// Satisfied by every type; see the crate docs.
pub trait Serialize {
    /// Unreachable: no `Serializer` exists in the stand-in.
    fn serialize<S: Serializer>(&self, _serializer: S) -> Result<S::Ok, S::Error> {
        unreachable!("the serde stand-in has no data formats")
    }
}

impl<T: ?Sized> Serialize for T {}

/// Satisfied by every type; see the crate docs.
pub trait Deserialize<'de>: Sized {
    /// Unreachable: no `Deserializer` exists in the stand-in.
    fn deserialize<D: Deserializer<'de>>(_deserializer: D) -> Result<Self, D::Error> {
        unreachable!("the serde stand-in has no data formats")
    }
}

impl<'de, T> Deserialize<'de> for T {}
