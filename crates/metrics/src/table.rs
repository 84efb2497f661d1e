//! Plain-text tables for harness output.
//!
//! The experiment harness prints, for every figure, the same rows/series the
//! paper reports; this module renders them with aligned columns so the
//! output is directly quotable in EXPERIMENTS.md.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple monospace table builder.
///
/// ```
/// use domus_metrics::table::Table;
/// let mut t = Table::new(&["V", "σ̄(Qv) %"]);
/// t.row(&["128".into(), "9.61".into()]);
/// let s = t.render();
/// assert!(s.contains("σ̄(Qv)"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl Table {
    /// A table with the given column headers; first column left-aligned,
    /// the rest right-aligned (the common numeric layout).
    pub fn new(headers: &[&str]) -> Self {
        let mut aligns = vec![Align::Right; headers.len()];
        if !aligns.is_empty() {
            aligns[0] = Align::Left;
        }
        Self { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new(), aligns }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity != header arity");
        self.rows.push(cells.to_vec());
    }

    /// Appends a row of displayable values.
    pub fn row_display<D: std::fmt::Display>(&mut self, cells: &[D]) {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with unicode column rules and a header separator.
    pub fn render(&self) -> String {
        // Width must be measured in chars: headers contain σ̄ etc.
        let width = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| width(h)).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(width(cell));
            }
        }
        let mut out = String::new();
        let fmt_cell = |cell: &str, w: usize, a: Align| -> String {
            let pad = w - width(cell).min(w);
            match a {
                Align::Left => format!("{cell}{}", " ".repeat(pad)),
                Align::Right => format!("{}{cell}", " ".repeat(pad)),
            }
        };
        // Header
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| fmt_cell(h, widths[i], Align::Left))
            .collect();
        let _ = writeln!(out, "| {} |", header_line.join(" | "));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "|-{}-|", rule.join("-|-"));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| fmt_cell(c, widths[i], self.aligns[i]))
                .collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }
}

/// Formats an `f64` with `prec` decimals, using `-` for NaN.
pub fn num(x: f64, prec: usize) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.prec$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "123.45".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal display width.
        let w0 = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == w0), "{s}");
        assert!(lines[3].contains("123.45"));
    }

    #[test]
    fn unicode_headers_align() {
        let mut t = Table::new(&["V", "σ̄(Qv) %"]);
        t.row(&["8".into(), "0.00".into()]);
        t.row(&["1024".into(), "10.31".into()]);
        let s = t.render();
        assert!(s.contains("10.31"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn num_formats() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(num(f64::NAN, 2), "-");
    }

    #[test]
    fn row_display_stringifies() {
        let mut t = Table::new(&["x", "y"]);
        t.row_display(&[1, 2]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
