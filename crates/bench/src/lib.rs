//! # migratory-bench — workloads and reporting for the experiment suite
//!
//! The paper is a theory paper: its "evaluation" is a set of theorems,
//! worked examples and figures. The `experiments` binary has one row per
//! theorem and example (`fig1-2`, `thm3.2`, `cor3.3`, `thm4.3`, `ex4.1`,
//! `thm5.1`, `flow`), the enforcement engine's ablations (`enforce`,
//! `enforce-large`, `persist`) and the algorithm micro-benchmarks
//! (`micro`). This library holds the workloads they share and the TCP
//! driver of the `tail-smoke` gate. The server over the wire is measured
//! by `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tcpdrive;
pub mod workload;

pub use tcpdrive::*;
pub use workload::*;
