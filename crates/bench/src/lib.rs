//! # dohperf-bench
//!
//! The reproduction harness: [`repro`] renders every table and figure of
//! the paper from a simulated campaign, [`gates`] holds every
//! byte-identity and metrics gate `repro gate` runs, and the Criterion
//! benches (under `benches/`) measure the performance of each pipeline
//! stage.

pub mod gates;
pub mod repro;

pub use repro::{OutFormat, ReproConfig, ReproContext, EXPERIMENTS};
