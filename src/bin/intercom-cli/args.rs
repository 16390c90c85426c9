//! The one option parser every subcommand shares, and the two value
//! parsers behind it: a strategy spec and a collective's name.

use intercom::ir::PlanOp;
use intercom_cost::{Strategy, StrategyKind};
use std::path::PathBuf;

/// Every option of every subcommand. A subcommand accepts only the
/// flags its table entry lists; the rest keep these defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub op: String,
    /// World size (`trace`, `metrics`) or array length (`section5`);
    /// `None` means the subcommand's own default.
    pub p: Option<usize>,
    pub n: usize,
    pub strategy: String,
    pub backend: String,
    pub root: usize,
    pub mesh: Option<(usize, usize)>,
    pub out: Option<PathBuf>,
    pub json: bool,
    pub watch: usize,
    pub check: bool,
    pub quick: bool,
    pub smoke: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            op: "all".into(),
            p: None,
            n: 4096,
            strategy: "mst".into(),
            backend: "both".into(),
            root: 0,
            mesh: None,
            out: None,
            json: false,
            watch: 0,
            check: false,
            quick: false,
            smoke: false,
        }
    }
}

/// Parses `args` (the flags after the subcommand), accepting only the
/// flags in `allowed` (a space-separated list).
pub fn parse<I: IntoIterator<Item = String>>(args: I, allowed: &str) -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if !allowed.split_whitespace().any(|f| f == a) {
            return Err(format!("unknown argument {a}"));
        }
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        let number = |v: String| v.parse::<usize>().map_err(|e| format!("{a}: {e}"));
        match a.as_str() {
            "--op" => o.op = value()?,
            "--p" => o.p = Some(number(value()?)?),
            "--n" => o.n = number(value()?)?,
            "--strategy" => o.strategy = value()?,
            "--backend" => o.backend = value()?,
            "--root" => o.root = number(value()?)?,
            "--mesh" => {
                let spec = value()?;
                let (r, c) = spec
                    .split_once(['x', 'X'])
                    .ok_or_else(|| format!("--mesh wants RxC, got {spec}"))?;
                o.mesh = Some((number(r.into())?, number(c.into())?));
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--json" => o.json = true,
            "--watch" => o.watch = number(value()?)?,
            "--check" => o.check = true,
            "--quick" => o.quick = true,
            "--smoke" => o.smoke = true,
            _ => unreachable!("{a} is listed but not parsed"),
        }
    }
    Ok(o)
}

impl Options {
    /// The collectives `--op` names for a world of `p` ranks: one, or
    /// all seven for `all`. A `--root` outside the world is refused
    /// here, before any world runs.
    pub fn ops(&self, p: usize) -> Result<Vec<PlanOp>, String> {
        if self.root >= p {
            return Err(format!(
                "--root {} is not a rank of a {p}-rank world",
                self.root
            ));
        }
        let all = collectives(self.root);
        if self.op == "all" {
            return Ok(all.to_vec());
        }
        all.into_iter()
            .find(|op| op.name() == self.op)
            .map(|op| vec![op])
            .ok_or_else(|| format!("unknown collective {}", self.op))
    }

    /// The backends `--backend` names.
    pub fn backends(&self) -> Result<Vec<&'static str>, String> {
        match self.backend.as_str() {
            "both" => Ok(vec!["threads", "sim"]),
            "threads" => Ok(vec!["threads"]),
            "sim" => Ok(vec!["sim"]),
            other => Err(format!("unknown backend {other}")),
        }
    }
}

/// The seven collectives the tools record, rooted ones at `root`; each
/// is named by [`PlanOp::name`].
pub fn collectives(root: usize) -> [PlanOp; 7] {
    [
        PlanOp::Broadcast { root },
        PlanOp::Reduce { root },
        PlanOp::AllReduce,
        PlanOp::ReduceScatter,
        PlanOp::Collect,
        PlanOp::Scatter { root },
        PlanOp::Gather { root },
    ]
}

/// Parses a strategy spec for a world of `p`: `mst`, `sc` (or `long`),
/// or `d1xd2x...:mst|sc` whose dims multiply to `p`.
pub fn parse_strategy(spec: &str, p: usize) -> Result<Strategy, String> {
    let kind = |k: &str| match k {
        "mst" => Ok(StrategyKind::Mst),
        "sc" | "long" => Ok(StrategyKind::ScatterCollect),
        k => Err(format!("strategy kind {k}: want mst or sc")),
    };
    let (dims, k) = match spec.split_once(':') {
        Some((dims, k)) => {
            let dims: Vec<usize> = dims
                .split(['x', 'X'])
                .map(|d| d.parse().map_err(|e| format!("strategy dim: {e}")))
                .collect::<Result<_, _>>()?;
            (dims, k)
        }
        None if matches!(spec, "mst" | "sc" | "long") => (vec![p], spec),
        None => return Err(format!("strategy {spec}: want mst, sc or d1xd2x...:mst|sc")),
    };
    if dims.contains(&0) {
        return Err(format!("strategy {spec}: a dimension of 0 nodes"));
    }
    let s = Strategy::new(dims, kind(k)?);
    if s.nodes() != p {
        return Err(format!(
            "strategy {s} covers {} nodes, world has {p}",
            s.nodes()
        ));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_op_name_round_trips() {
        for op in collectives(3) {
            let o = Options {
                op: op.name().into(),
                root: 3,
                ..Options::default()
            };
            assert_eq!(o.ops(4).unwrap(), vec![op]);
            assert!(o.ops(3).unwrap_err().contains("--root 3"));
        }
        let all = Options::default().ops(1).unwrap();
        assert_eq!(all.len(), 7);
        let bogus = Options {
            op: "alltoall".into(),
            ..Options::default()
        };
        assert!(bogus.ops(1).is_err());
    }

    #[test]
    fn strategy_specs_parse_for_p6() {
        assert_eq!(parse_strategy("mst", 6).unwrap(), Strategy::pure_mst(6));
        assert_eq!(parse_strategy("sc", 6).unwrap(), Strategy::pure_long(6));
        assert_eq!(
            parse_strategy("2x3:sc", 6).unwrap(),
            Strategy::new(vec![2, 3], StrategyKind::ScatterCollect)
        );
    }

    #[test]
    fn bad_strategy_specs_are_rejected() {
        let err = parse_strategy("2x2:sc", 6).unwrap_err();
        assert!(err.contains("covers 4 nodes"), "{err}");
        let err = parse_strategy("2x3:ring", 6).unwrap_err();
        assert!(err.contains("kind ring"), "{err}");
        assert!(parse_strategy("ring", 6).is_err());
        assert!(parse_strategy("0x6:sc", 6).is_err());
        assert!(parse_strategy("mst", 0).is_err());
    }

    #[test]
    fn flags_parse_and_unlisted_flags_are_rejected() {
        let allowed = "--p --mesh --check";
        let o = parse(args(&["--p", "9", "--mesh", "3x3", "--check"]), allowed).unwrap();
        assert_eq!((o.p, o.mesh, o.check), (Some(9), Some((3, 3)), true));
        assert!(parse(args(&["--json"]), allowed).is_err());
        assert!(parse(args(&["--p"]), allowed).is_err());
        assert!(parse(args(&["--mesh", "33"]), allowed).is_err());
        assert!(parse(args(&[""]), "").is_err());
    }
}
