//! `intercom-cli` — the reproduction's one command-line tool: a
//! subcommand per table, figure or section claim of the paper's
//! evaluation, plus the observability tools. `intercom-cli help` lists
//! them with their options. Performance numbers live in `benchmark/`,
//! not here.

mod args;
mod measure;
mod metrics;
mod obs;
mod paper;
mod report;
mod trace;

use args::Options;
use std::process::ExitCode;

const USAGE: &str = "\
usage: intercom-cli <subcommand> [options]

the paper's evaluation (EXPERIMENTS.md):
  table2                 Table 2: broadcast hybrids on a 30-node linear array
  fig2                   Fig. 2: predicted hybrid curves vs message length
  table3 [--quick]       Table 3: NX vs iCC on the simulated 16x32 Paragon
  fig4 [--quick]         Fig. 4: collect on 16x32, broadcast on 15x30 (simulated)
  section5 [--p N]       §5: the composed algorithms' cost catalog (p = 30)
  crossover-map          the selector's winning broadcast family over (p, n)
  groups                 §9: collect within 64-node groups of a 16x32 mesh
  pipelined              §8: pipelined vs scatter/collect broadcast, ± jitter
  hypercube              §11: the library on a simulated iPSC/860 hypercube

observability:
  obs [--smoke]          the disabled recorder's overhead, gated at +3 %
  trace [RECORD] [--mesh RxC] [--check]
                         Chrome traces and residual reports (p = 12)
  metrics [RECORD] [--json] [--watch ITERS] [--check]
                         the telemetry registry after a workload (p = 8)

options:
  --quick                smaller meshes and a sparser sweep
  --smoke                the shorter run ci.sh gates on
  RECORD:
  --op <name|all>        broadcast | reduce | allreduce | reduce_scatter |
                         collect | scatter | gather | all (default: all)
  --p <N>                world size
  --n <BYTES>            vector / block size (default: 4096)
  --strategy <SPEC>      mst | sc | d1xd2x...:mst|sc (default: mst)
  --backend <B>          threads | sim | both (default: both)
  --root <R>             root rank of the rooted collectives (default: 0)
  --out <PATH>           trace: output directory (default: target/traces);
                         metrics: a file to write instead of stdout
  --mesh <RxC>           simulated mesh shape (default: 1xP)
  --check                trace: re-parse every JSON document and verify the
                         known (9, SC) 3x3 cross-stage skew;
                         metrics: the export/parse/re-export round trip
  --json                 the strict-JSON exposition, not Prometheus text
  --watch <ITERS>        re-run the workload, printing per-iteration deltas
";

/// The flags `trace` and `metrics` share.
const RECORD: &str = "--op --p --n --strategy --backend --root --out";

type Run = fn(&Options) -> Result<(), String>;

/// A subcommand's body, whether it takes the `RECORD` flags, and its
/// other flags.
fn command(name: &str) -> Option<(Run, bool, &'static str)> {
    Some(match name {
        "table2" => (paper::table2, false, ""),
        "fig2" => (paper::fig2, false, ""),
        "table3" => (paper::table3, false, "--quick"),
        "fig4" => (paper::fig4, false, "--quick"),
        "section5" => (paper::section5, false, "--p"),
        "crossover-map" => (paper::crossover_map, false, ""),
        "groups" => (paper::groups, false, ""),
        "pipelined" => (paper::pipelined, false, ""),
        "hypercube" => (paper::hypercube, false, ""),
        "obs" => (obs::run, false, "--smoke"),
        "trace" => (trace::run, true, "--mesh --check"),
        "metrics" => (metrics::run, true, "--json --watch --check"),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some((run, record, flags)) = command(&name) else {
        eprint!("intercom-cli: unknown subcommand {name:?}\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let allowed = format!("{} {flags}", if record { RECORD } else { "" });
    match args::parse(argv, &allowed).and_then(|o| run(&o)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("intercom-cli {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
