//! ASCII table rendering for experiment output.
//!
//! Every experiment prints its reproduced "table" through this module, so
//! EXPERIMENTS.md entries and terminal output stay identical in shape.

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row; short rows are padded with empty cells.
    ///
    /// # Panics
    /// Panics if the row has more cells than the table has headers: cutting
    /// it would print data under the wrong heading.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            row.len() <= self.headers.len(),
            "row {row:?} has more cells than the headers {:?}",
            self.headers
        );
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with `|` separators and a header rule.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (cell, &w) in cells.iter().zip(widths) {
                out.push(' ');
                out.push_str(cell);
                for _ in cell.chars().count()..w {
                    out.push(' ');
                }
                out.push_str(" |");
            }
            out.push('\n');
        };
        render_row(&self.headers, &widths, &mut out);
        out.push('|');
        for &w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

/// Formats a float with 3 decimals (the experiments' standard cell format).
pub fn fmt(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats an optional float, rendering `⊥` for `None` (undefined values,
/// matching the paper's notation for partial functions).
pub fn fmt_opt(value: Option<f64>) -> String {
    match value {
        Some(v) => fmt(v),
        None => "⊥".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["metric", "value"]);
        t.row(["precision", "0.123"]);
        t.row(["recall-at-10", "0.9"]);
        let out = t.render();
        let lines: Vec<_> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have the same display width.
        let w = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == w), "{out}");
        assert!(lines[0].contains("metric"));
        assert!(lines[1].starts_with("|--"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only-one"]);
        let out = t.render();
        assert!(out.lines().count() == 3);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "more cells than the headers [\"a\", \"b\"]")]
    fn over_long_row_is_rejected() {
        Table::new(["a", "b"]).row(["1", "2", "3"]);
    }

    #[test]
    fn formats() {
        assert_eq!(fmt(0.12345), "0.123");
        assert_eq!(fmt_opt(Some(1.0)), "1.000");
        assert_eq!(fmt_opt(None), "⊥");
    }

    #[test]
    fn unicode_width_alignment() {
        let mut t = Table::new(["sim"]);
        t.row(["⊥"]);
        t.row(["0.5"]);
        let out = t.render();
        let w = out.lines().next().unwrap().chars().count();
        assert!(out.lines().all(|l| l.chars().count() == w));
    }
}
