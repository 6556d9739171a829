//! # dohperf-bench
//!
//! The reproduction harness: [`repro`] renders every table and figure of
//! the paper from a simulated campaign, and [`gates`] holds every
//! byte-identity and metrics gate `repro gate` runs. Performance is
//! measured by the perf benchmark (`perfbench/`).

pub mod gates;
pub mod repro;

pub use repro::{Experiment, Kind, OutFormat, ReproConfig, ReproContext, EXPERIMENTS};
