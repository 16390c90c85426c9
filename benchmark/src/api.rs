//! The library surface the benchmark is allowed to touch.
//!
//! Every call into `crates/*` goes through a name re-exported here, and
//! `README.md` lists the same names. A refactor that renames or folds
//! one of them keeps the benchmark compiling by keeping the item or a
//! re-export of it, so numbers before and after stay comparable.
//!
//! Only `run_world` is used among the `run_world_*` variants and only
//! `world`, `world_on_mesh` and `world_on_cluster` among the
//! `Communicator` constructors.

// The point-to-point porting surface and the collective interface.
pub use intercom::{Algo, Comm, CommError, Communicator, ReduceOp};
// Persistent plans: the floor the default path should reach.
pub use intercom::plan::{AllreducePlan, BcastPlan, CollectPlan, ReduceScatterPlan};
// Schedule IR: lowering, the pass pipeline and the process-wide cache.
pub use intercom::ir::{global_cache, lower, optimize, OptLevel, PlanKey, PlanOp};

// Machine models and the closed-form cost of a strategy.
pub use intercom_cost::{
    flat_on_cluster_cost, hier_cost, hybrid_cost, rank_strategies, select_hier, ClusterShape,
    CollectiveOp, CostContext, HierChoice, HierMachine, MachineParams,
};
pub use intercom_topology::{Cluster, Mesh2D};

// The two backends.
pub use intercom_meshsim::fluid::max_min_rates;
pub use intercom_meshsim::{simulate, SimConfig};
pub use intercom_runtime::run_world;

// The NX baseline of Table 3 and the telemetry switch.
pub use intercom_nx::{nx_bcast, nx_gdsum};
pub use intercom_obs::metrics::set_enabled as set_metrics_enabled;
