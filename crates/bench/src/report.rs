//! Small plain-text table formatter used by every reproduction module.

/// A plain-text table with a title, column headers and string cells.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title (e.g. `"Figure 1 — asymptotic comparison"`).
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row; the cell count must match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a free-text note shown under the table.
    pub fn note(&mut self, text: &str) -> &mut Self {
        self.notes.push(text.to_string());
        self
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
            .collect();
        out.push_str(&format!("  {}\n", header_line.join("  ")));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("  {}\n", rule.join("  ")));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| format!("{:width$}", cell, width = widths[i]))
                .collect();
            out.push_str(&format!("  {}\n", line.join("  ")));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

/// Formats a float with a sensible number of digits for table cells. A value
/// within `1e-8` of an integer prints as that integer, from either side.
pub fn fmt(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if (value - value.round()).abs() < 1e-8 && value.abs() < 1e15 {
        format!("{}", value.round() as i64)
    } else if value.abs() >= 1000.0 || value.abs() < 0.01 {
        format!("{value:.3e}")
    } else {
        format!("{value:.3}")
    }
}

/// The git commit of the workspace a tracked `BENCH_*.json` was recorded
/// from (`unknown` outside a git checkout; uncommitted changes are not
/// visible in it).
pub fn workspace_commit() -> String {
    std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table_with_notes() {
        let mut t = Table::new("demo", &["a", "metric"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["longer".into(), "2.5".into()]);
        t.note("a note");
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("longer"));
        assert!(text.contains("note: a note"));
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(3.0), "3");
        assert_eq!(fmt(13.75), "13.750");
        assert_eq!(fmt(60000.0), "60000");
        assert_eq!(fmt(4.9999999999), "5");
        assert_eq!(fmt(5.0000000001), "5");
        assert_eq!(fmt(59_999.999999999), "60000");
        assert_eq!(fmt(-3.0000000001), "-3");
        assert_eq!(fmt(4.999), "4.999");
        assert_eq!(fmt(16_646_673.999_2), "1.665e7");
        assert_eq!(
            fmt(5e13),
            "5e13".to_string().replace("e13", "0000000000000")
        );
    }
}
