//! Plain-text result tables.
//!
//! Every experiment produces a [`Table`]; the `repro` binary renders them
//! to aligned text so the tables and figures listed in the
//! README's Experiments table can be regenerated with one command.

use std::fmt;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A text label.
    Text(String),
    /// An integer count.
    Int(i64),
    /// A float, rendered with 4 significant decimals.
    Num(f64),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Num(v) => write!(f, "{v:.4}"),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_owned())
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}
impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell::Int(v)
    }
}
impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as i64)
    }
}
impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}

/// A titled table with named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the column count.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|c| c.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["name", "count", "score"]);
        t.push_row(vec!["alpha".into(), 3usize.into(), 0.5f64.into()]);
        t.push_row(vec!["b".into(), Cell::Int(-1), 1.25f64.into()]);
        t
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.title(), "demo");
        assert_eq!(t.columns().len(), 3);
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("x", &["a"]);
        t.push_row(vec![Cell::Int(1), Cell::Int(2)]);
    }

    #[test]
    fn render_alignment() {
        let text = sample().render();
        assert!(text.contains("## demo"));
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("name"));
        assert!(lines[1].contains("score"));
        // All data lines have equal length (aligned).
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn cell_display() {
        assert_eq!(Cell::from("x").to_string(), "x");
        assert_eq!(Cell::from(2.5f64).to_string(), "2.5000");
        assert_eq!(Cell::from(7usize).to_string(), "7");
        assert_eq!(Cell::from(String::from("s")).to_string(), "s");
    }
}
