//! Plain-text tables, CSV and message-length sweeps for the paper
//! subcommands.

/// Formats seconds the way the paper's Table 3 does (4 significant-ish
/// digits, seconds).
pub fn fmt_secs(t: f64) -> String {
    if t == 0.0 {
        "0".into()
    } else if t >= 0.01 {
        format!("{t:.2}")
    } else if t >= 0.0001 {
        format!("{t:.4}")
    } else {
        format!("{t:.6}")
    }
}

/// Formats a byte count with the paper's units (8, 64 K, 1 M).
pub fn fmt_bytes(n: usize) -> String {
    if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
        format!("{} M", n >> 20)
    } else if n >= 1 << 10 && n.is_multiple_of(1 << 10) {
        format!("{} K", n >> 10)
    } else {
        n.to_string()
    }
}

/// A minimal markdown-ish table printer with aligned columns.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for (c, cell) in cells.iter().enumerate() {
                let pad = widths[c] - cell.chars().count();
                s.push(' ');
                s.push_str(cell);
                s.push_str(&" ".repeat(pad + 1));
                s.push('|');
            }
            s
        };
        let mut out = line(&self.header);
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// Emits a CSV block (header + rows of f64 series keyed by a size
/// column) — the format the figure subcommands print for plotting.
pub fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = header.join(",");
    out.push('\n');
    for r in rows {
        out.push_str(&r.join(","));
        out.push('\n');
    }
    out
}

/// Powers of two from `lo` to `hi` inclusive (both rounded to powers of
/// two), optionally thinned to every `step`-th power.
pub fn pow2_sweep(lo: usize, hi: usize, step: u32) -> Vec<usize> {
    assert!(lo >= 1 && hi >= lo && step >= 1);
    let lo_exp = usize::BITS - lo.next_power_of_two().leading_zeros() - 1;
    let hi_exp = usize::BITS - hi.next_power_of_two().leading_zeros() - 1;
    (lo_exp..=hi_exp)
        .step_by(step as usize)
        .map(|e| 1usize << e)
        .collect()
}

/// The paper's Table 3 vector lengths: 8 B, 64 KB, 1 MB.
pub const TABLE3_LENGTHS: [usize; 3] = [8, 64 * 1024, 1024 * 1024];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_units() {
        assert_eq!(fmt_bytes(8), "8");
        assert_eq!(fmt_bytes(65536), "64 K");
        assert_eq!(fmt_bytes(1 << 20), "1 M");
        assert_eq!(fmt_bytes(1000), "1000");
    }

    #[test]
    fn secs_formats() {
        assert_eq!(fmt_secs(0.51), "0.51");
        assert_eq!(fmt_secs(0.0035), "0.0035");
        assert_eq!(fmt_secs(0.0), "0");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["xxx", "y"]);
        let s = t.render();
        assert!(s.contains("| a   | bb |"), "{s}");
        assert!(s.contains("| xxx | y  |"), "{s}");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x", "y"]);
    }

    #[test]
    fn csv_joins() {
        let s = csv(&["n", "t"], &[vec!["1".into(), "2.5".into()]]);
        assert_eq!(s, "n,t\n1,2.5\n");
    }

    #[test]
    fn sweep_endpoints() {
        let s = pow2_sweep(8, 1 << 20, 1);
        assert_eq!(*s.first().unwrap(), 8);
        assert_eq!(*s.last().unwrap(), 1 << 20);
    }

    #[test]
    fn sweep_thinning() {
        let s = pow2_sweep(8, 1 << 20, 3);
        assert_eq!(s, vec![8, 64, 512, 4096, 32768, 262144]);
    }

    #[test]
    fn degenerate_sweep() {
        assert_eq!(pow2_sweep(16, 16, 1), vec![16]);
    }
}
