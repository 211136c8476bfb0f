//! Series/table printing for the figure binaries.
//!
//! Each figure binary prints the same rows/series the paper plots, as
//! aligned text tables (one row per x value, one column pair per series:
//! mean and stddev). `EXPERIMENTS.md` records these outputs against the
//! paper's curves.

use simcore::Summary;

/// One data point of a series.
#[derive(Debug, Clone)]
pub struct Point {
    pub x: u64,
    pub mean: f64,
    pub std: f64,
}

/// One plotted line.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    pub points: Vec<Point>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: u64, summary: &Summary) {
        self.points.push(Point {
            x,
            mean: summary.mean(),
            std: summary.std(),
        });
    }

    /// Mean at a given x, if present.
    pub fn at(&self, x: u64) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.mean)
    }
}

/// Render a figure: aligned columns, one row per x, `mean ± std` cells.
pub fn render_figure(title: &str, x_label: &str, y_label: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n# y: {y_label}\n"));
    // Header.
    out.push_str(&format!("{x_label:>10}"));
    for s in series {
        out.push_str(&format!(" | {:>24}", s.label));
    }
    out.push('\n');
    // Union of x values, sorted.
    let mut xs: Vec<u64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.x))
        .collect();
    xs.sort_unstable();
    xs.dedup();
    for x in xs {
        out.push_str(&format!("{x:>10}"));
        for s in series {
            match s.points.iter().find(|p| p.x == x) {
                Some(p) => {
                    out.push_str(&format!(" | {:>13.3} ±{:>8.3}", p.mean, p.std));
                }
                None => out.push_str(&format!(" | {:>24}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Render a simple two-column table (label, value) — e.g. Figure 2's
/// speedup summary.
pub fn render_table(title: &str, rows: &[(String, f64)], unit: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(8).max(8);
    for (label, v) in rows {
        out.push_str(&format!("{label:>width$} : {v:>12.2} {unit}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates_points() {
        let mut s = Series::new("plfs");
        s.push(16, &Summary::from_iter([1.0, 2.0, 3.0]));
        s.push(32, &Summary::from_iter([5.0]));
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.at(16), Some(2.0));
        assert_eq!(s.at(32), Some(5.0));
        assert_eq!(s.at(64), None);
    }

    #[test]
    fn figure_renders_all_series_and_x_values() {
        let mut a = Series::new("direct");
        a.push(16, &Summary::from_iter([1.0]));
        a.push(64, &Summary::from_iter([2.0]));
        let mut b = Series::new("plfs");
        b.push(16, &Summary::from_iter([3.0]));
        let text = render_figure("Fig Test", "procs", "MB/s", &[a, b]);
        assert!(text.contains("Fig Test"));
        assert!(text.contains("direct"));
        assert!(text.contains("plfs"));
        // x=64 exists with a '-' for the missing series.
        let line64 = text.lines().find(|l| l.trim_start().starts_with("64")).unwrap();
        assert!(line64.contains('-'));
    }

    #[test]
    fn table_renders_rows() {
        let rows = vec![("LANL 1".to_string(), 28.5), ("QCD".to_string(), 150.0)];
        let t = render_table("Write speedups", &rows, "x");
        assert!(t.contains("LANL 1"));
        assert!(t.contains("150.00 x"));
    }
}
