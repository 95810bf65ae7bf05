//! # magma-benchmark — the repo benchmark
//!
//! Four workloads that separate the layers, seven end-to-end metrics
//! reported for each, and (in the second binary) an outside-in layer
//! ledger. See `README.md` beside this crate for how to run it, what
//! every name means, and which layer metric should move which
//! end-to-end metric; `../BENCHMARK.json` is the contract the driver
//! reads.
//!
//! The library holds what both binaries share and touches only the
//! narrow API surface the README lists: workload definitions and their
//! execution ([`workloads`]), the metric catalogue ([`catalog`]), order
//! statistics ([`stats`]), the disturbance guard ([`guard`]), the
//! repetition/report plumbing ([`report`]) and the flag parser ([`cli`]).

pub mod catalog;
pub mod cli;
pub mod guard;
pub mod report;
pub mod stats;
pub mod workloads;
