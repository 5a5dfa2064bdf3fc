//! The four workloads and what one repetition of each reports.

use crate::dss::Dss;
use crate::serving::Sweep;
use crate::trace::Tracer;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Tpch16Tb,
    YcsbCRead,
    YcsbAUpdate,
    YcsbDAppend,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Tpch16Tb,
        Kind::YcsbCRead,
        Kind::YcsbAUpdate,
        Kind::YcsbDAppend,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Tpch16Tb => "tpch_16tb",
            Kind::YcsbCRead => "ycsb_c_read",
            Kind::YcsbAUpdate => "ycsb_a_update",
            Kind::YcsbDAppend => "ycsb_d_append",
        }
    }

    pub fn parse(name: &str) -> Result<Kind, String> {
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown workload `{name}` (known: {})", known.join(", "))
            })
    }

    /// The seed at which the simulated outputs equal the committed
    /// `results/` artifacts (`repro_table3`, `repro_fig2/4/5`).
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::Tpch16Tb => 19_920_101,
            _ => 42,
        }
    }

    /// Digest of the simulated outputs at [`Kind::default_seed`], full
    /// scale. Recorded when the cells were checked against the artifacts.
    pub fn expected_digest(self) -> u64 {
        match self {
            Kind::Tpch16Tb => 0x381c_0cc9_8369_f061,
            Kind::YcsbCRead => 0xd8b0_64a5_3432_6dc4,
            Kind::YcsbAUpdate => 0xaa4a_e33c_e429_cde5,
            Kind::YcsbDAppend => 0x88c1_2e1e_c132_d8ff,
        }
    }
}

/// What one repetition measured.
pub struct Rep {
    /// Host seconds to generate and load the data or build and load the
    /// stores.
    pub setup_s: f64,
    /// Host seconds of the timed region: every engine/query run or sweep
    /// point, plus rendering the result table.
    pub wall_s: f64,
    /// Host milliseconds per unit of work.
    pub units_ms: Vec<f64>,
    /// Units with a wrong answer or an unexpected error.
    pub failed_units: usize,
    /// FNV-64 of the simulated outputs.
    pub digest: u64,
    /// The rendered result table.
    pub table: String,
    /// Layer statistics that are not spans (hit rates, lock share, arena
    /// high-water mark, probe overhead).
    pub extras: BTreeMap<&'static str, f64>,
}

pub enum Runner {
    Dss(Dss),
    Serving(Sweep),
}

impl Runner {
    /// `smoke` shrinks the workload for tests (TPC-H at SF 0.005, one YCSB
    /// target measured for 1 s); its timings are never reported as metrics.
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Result<Runner, String> {
        Ok(match kind {
            Kind::Tpch16Tb => {
                Runner::Dss(Dss::new(if smoke { 0.005 } else { 0.02 }, 16_000.0, seed)?)
            }
            Kind::YcsbCRead => Runner::Serving(Sweep::new(ycsb::Workload::C, seed, smoke)),
            Kind::YcsbAUpdate => Runner::Serving(Sweep::new(ycsb::Workload::A, seed, smoke)),
            Kind::YcsbDAppend => Runner::Serving(Sweep::new(ycsb::Workload::D, seed, smoke)),
        })
    }

    pub fn rep(&mut self, tr: &mut Tracer) -> Result<Rep, String> {
        match self {
            Runner::Dss(d) => d.rep(tr),
            Runner::Serving(s) => Ok(s.rep(tr)),
        }
    }
}
