//! # elephants-core — the experiment runner
//!
//! Ties the systems together into the paper's two experiment suites:
//!
//! * [`dss`] — TPC-H on Hive vs PDW at the four paper scale factors
//!   (250 GB, 1 TB, 4 TB, 16 TB) via similitude scaling: real data is
//!   generated at a laptop-friendly scale factor, and every
//!   capacity/throughput parameter is divided by `k = SF_paper / SF_real`
//!   (fixed overheads stay); regenerates Tables 2–5 and Figure 1,
//! * [`fanout`] — the parallel runner for independent simulations (results
//!   in job order, so thread count never changes output),
//! * [`serving`] — YCSB on SQL-CS / Mongo-AS / Mongo-CS: latency-vs-
//!   throughput sweeps for Figures 2–6 plus the §3.4.2 load times,
//! * [`report`] — markdown/CSV rendering for the `repro_*` binaries.

#![forbid(unsafe_code)]

pub mod dss;
pub mod fanout;
pub mod report;
pub mod serving;

pub use dss::{DssConfig, DssResults, QueryCell, ScaleRun};
pub use serving::{ServingConfig, SweepPoint, SystemKind};
