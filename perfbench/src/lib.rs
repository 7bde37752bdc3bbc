//! The repository's gating benchmark: full discoveries and explorer runs
//! timed end to end through the program's public API, and a traced run that
//! splits the time into layers with delegating wrappers at the layer
//! boundaries. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

pub mod calib;
pub mod net;
pub mod report;
pub mod span;
pub mod timed;
pub mod workload;
