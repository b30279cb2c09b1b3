//! The analysis phase: every table, figure and headline statistic of the
//! paper, re-derived from scan records and public world data.

pub mod cloaking;
pub mod faults;
pub mod figures;
pub mod lexical;
pub mod nontargeted;
pub mod report;
pub mod table1;
pub mod tables;
pub mod volumes;

pub use faults::{fault_sweep, FaultArm, FaultSweepReport};
pub use report::{analyze, AnalysisReport};
