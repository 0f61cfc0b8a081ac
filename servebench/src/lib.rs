//! The serving benchmark's library: seeded workload inputs, the
//! open-loop client, the `serve` process, answer checking and the traced
//! in-process replay. `main.rs` runs one workload end to end.

pub mod check;
pub mod client;
pub mod inputs;
pub mod reference;
pub mod server;
pub mod stats;
pub mod traced;
