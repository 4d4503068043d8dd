//! Scenario construction, traffic generation, and the simulation runner.
//!
//! Reproduces the paper's experimental setup (Section 7, Table 2):
//! 100 stations placed uniformly at random in a unit square with
//! transmission radius 0.2; Bernoulli message arrivals at
//! 5·10⁻⁴ msgs/node/slot with a 0.2 / 0.4 / 0.4 unicast / multicast /
//! broadcast mix; 10 000-slot runs; 100-slot service timeout; 90%
//! reliability threshold; results averaged over 100 seeds.
//!
//! ```
//! use rmm_workload::{Scenario, run_one};
//! use rmm_mac::ProtocolKind;
//!
//! let scenario = Scenario { sim_slots: 2_000, n_runs: 1, ..Scenario::default() };
//! let result = run_one(&scenario, ProtocolKind::Bmmm, 7);
//! assert!(result.group_metrics.messages > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod churn;
pub mod mobility;
pub mod observe;
pub mod placement;
pub mod runner;
pub mod scenario;
pub mod traffic;

pub use chaos::{
    check_invariants, run_chaos, shrink, ChaosConfig, ChaosOutcome, ChaosRepro, ChaosSchedule,
    Violation, ViolationKind,
};
pub use churn::{ChurnEvent, ChurnKind, ChurnPlan, EpochMetrics};
pub use mobility::{MobilityConfig, RandomWaypoint};
pub use observe::{
    collect_dwell, collect_metrics, DwellReport, PhaseTimings, RunManifest, StationDwell,
};
pub use placement::uniform_square;
pub use runner::{
    mean_group_metrics, run, run_many, run_many_jobs, run_one, run_one_naive, Run, RunOpts,
    RunResult, StallReport,
};
pub use scenario::{scenario_schema_hash, Scenario};
pub use traffic::{TrafficGen, TrafficMix};
