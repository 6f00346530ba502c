//! Shared harness for the Table 1 / Theorem 1.6 reproduction binaries:
//! table formatting, TSV persistence, and power-law exponent fitting.
//!
//! Each `src/bin/*` binary regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index) by sweeping `n`,
//! measuring simulator rounds, and printing a paper-style table. The
//! *shape* — who wins, the fitted growth exponent, where crossovers fall —
//! is the reproduction target; absolute round counts depend on the
//! polylog constants the paper hides (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
// Node-indexed state vectors are idiomatic for this simulator; indexing
// loops over node ids are deliberate.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]
#![warn(missing_docs)]

pub mod plot;
pub mod report;

use std::fmt::Write as _;

/// A simple column-aligned table that can also persist itself as TSV.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", line.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes a TSV copy under `results/` (created if needed).
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — these binaries are experiment drivers.
    pub fn save_tsv(&self, name: &str) {
        let mut tsv = self.headers.join("\t");
        tsv.push('\n');
        for row in &self.rows {
            tsv.push_str(&row.join("\t"));
            tsv.push('\n');
        }
        report::save_artifact(&format!("{name}.tsv"), &tsv);
    }
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `b` of the
/// best-fit power law `y = a·x^b`.
///
/// # Panics
///
/// Panics if fewer than two points are given or any value is
/// non-positive.
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(
        xs.len() >= 2 && xs.len() == ys.len(),
        "need ≥ 2 paired points"
    );
    assert!(
        xs.iter().chain(ys).all(|&v| v > 0.0),
        "power-law fit needs positive values"
    );
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx).powi(2)).sum();
    cov / var
}

/// Formats a ratio like `1.37x`.
pub fn ratio(a: u64, b: u64) -> String {
    if b == 0 {
        "—".into()
    } else {
        format!("{:.2}x", a as f64 / b as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_of_quadratic_is_two() {
        let xs = [2.0, 4.0, 8.0, 16.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
        let b = fit_exponent(&xs, &ys);
        assert!((b - 2.0).abs() < 1e-9, "{b}");
    }

    #[test]
    fn exponent_of_sqrt_is_half() {
        let xs = [16.0, 64.0, 256.0, 1024.0];
        let ys: Vec<f64> = xs.iter().map(|x: &f64| x.sqrt()).collect();
        let b = fit_exponent(&xs, &ys);
        assert!((b - 0.5).abs() < 1e-9, "{b}");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["n", "rounds"]);
        t.row(vec!["16".into(), "120".into()]);
        t.row(vec!["1024".into(), "9".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("1024"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
