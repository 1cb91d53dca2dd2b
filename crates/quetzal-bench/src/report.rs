//! Plain-text experiment reports (aligned table + TSV).

/// A simple experiment output table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment identifier (e.g. `Fig. 13a`).
    pub id: String,
    /// One-line description.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes appended after the table (paper-vs-measured
    /// commentary, substitutions, scaling caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        // Column widths.
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        let line = |cells: &[String], w: &[usize]| -> String {
            cells
                .iter()
                .zip(w)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", line(&self.headers, &w))?;
        writeln!(
            f,
            "{}",
            "-".repeat(w.iter().sum::<usize>() + 2 * (w.len() - 1))
        )?;
        for r in &self.rows {
            writeln!(f, "{}", line(r, &w))?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Formats a ratio as `1.23x`.
pub fn ratio(num: f64, den: f64) -> String {
    if den == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.2}x", num / den)
    }
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// Formats a float with SI-ish precision.
pub fn num(v: f64) -> String {
    if v.abs() >= 1e6 {
        format!("{:.3e}", v)
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Fig. X", "demo", &["a", "bbbb"]);
        t.row(&["1".into(), "2".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("Fig. X"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("x", "y", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(3.0, 2.0), "1.50x");
        assert_eq!(ratio(1.0, 0.0), "n/a");
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(num(5.0), "5.00");
        assert_eq!(num(12345.0), "12345");
    }
}
