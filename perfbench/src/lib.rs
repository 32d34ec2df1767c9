//! The repository benchmark's measurement code.
//!
//! The benchmark itself is `benches/run.rs`; this library holds what it
//! measures with, so the unit tests can reach it:
//!
//! * [`workload`] — the workloads, generated from a seed;
//! * [`trace`] — the in-memory span recorder of the traced run;
//! * [`timing`] — the `exec` timing decorator around the default backend;
//! * [`traced`] — `Trainer::run`'s computation, driven layer by layer
//!   under spans.

pub mod timing;
pub mod trace;
pub mod traced;
pub mod workload;
