//! Offline stand-in for `serde`: the two trait names and their derives.
//! The derives expand to nothing (see `serde_derive`), which is enough
//! because no code the benchmark links bounds on these traits.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
pub trait Deserialize<'de>: Sized {}
