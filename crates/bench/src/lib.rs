//! # intercom-bench — the paper's evaluation, regenerated
//!
//! One binary per table/figure of the SC'94 paper:
//!
//! | target | reproduces | run with |
//! |---|---|---|
//! | `table2` | Table 2: hybrid broadcast costs, 30-node linear array | `cargo run -p intercom-bench --bin table2` |
//! | `fig2`   | Fig. 2: predicted hybrid curves vs message length     | `cargo run -p intercom-bench --bin fig2` |
//! | `table3` | Table 3: NX vs iCC on the simulated 16×32 Paragon     | `cargo run -p intercom-bench --release --bin table3` |
//! | `fig4`   | Fig. 4: collect on 16×32, broadcast on 15×30          | `cargo run -p intercom-bench --release --bin fig4` |
//!
//! The other bins regenerate EXPERIMENTS.md sections (`section5`,
//! `crossover_map`, `groups`, `pipelined`, `hypercube`) or measure what
//! `benchmark/` does not (`obs`). Performance numbers live in
//! `benchmark/`, not here.

pub mod measure;
pub mod report;
pub mod sizes;

pub use measure::{bcast_time, collect_time, gsum_time, Series};
