//! The reference benchmark of this repository: five named workloads,
//! end-to-end metrics, a per-layer ledger and a traced run. See README.md.

pub mod harness;
pub mod json;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod traced;
pub mod workloads;
