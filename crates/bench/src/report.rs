//! Small plain-text table formatter used by every reproduction module, and
//! the writer and checker for the tracked `BENCH_*.json` files.

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

/// Writes a tracked `BENCH_*.json` file, reads it back and panics unless what
/// is on disk is well-formed JSON ([`validate_json`]).
pub fn write_tracked_json(path: &std::path::Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    let written = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot re-read {}: {e}", path.display()));
    validate_json(&written).unwrap_or_else(|e| panic!("{} is malformed JSON: {e}", path.display()));
}

/// Extracts the first `"key": <number>` field from JSON text. Returns `None`
/// for a missing key or a non-numeric value (e.g. `null`) — callers decide
/// whether that means "skip" or "fail".
pub(crate) fn extract_u64_field(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = rest.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// A JSON well-formedness check (RFC 8259: objects, arrays, strings with
/// their escape set, numbers by the JSON grammar, booleans, null) — enough to
/// fail CI when a benchmark writes a broken file, with zero dependencies.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, "true"),
        Some(b'f') => parse_literal(bytes, pos, "false"),
        Some(b'n') => parse_literal(bytes, pos, "null"),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

/// A string: no raw control bytes, and only the escapes `\" \\ \/ \b \f \n
/// \r \t` and `\u` with four hex digits.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    while let Some(&byte) = bytes.get(*pos) {
        *pos += 1;
        match byte {
            b'"' => return Ok(()),
            b'\\' => match bytes.get(*pos) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                Some(b'u') => {
                    let hex = bytes.get(*pos + 1..*pos + 5);
                    if !hex.is_some_and(|hex| hex.iter().all(u8::is_ascii_hexdigit)) {
                        return Err(format!("bad \\u escape at byte {}", *pos - 1));
                    }
                    *pos += 5;
                }
                _ => return Err(format!("bad escape at byte {}", *pos - 1)),
            },
            0..=0x1f => return Err(format!("raw control byte in a string at byte {}", *pos - 1)),
            _ => {}
        }
    }
    Err("unterminated string".into())
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

/// A number by the JSON grammar: `-? (0 | [1-9][0-9]*) (.[0-9]+)?
/// ([eE][+-]?[0-9]+)?` — no leading `+`, no leading zeros, no bare `.`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    let invalid = || format!("invalid number at byte {start}");
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(invalid()),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(invalid());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(invalid());
        }
    }
    Ok(())
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

    #[test]
    fn validator_accepts_json_and_rejects_garbage() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e3",
            "0",
            "-0.25",
            "1E+2",
            "2e-7",
            r#"{"a": [1, 2.0, true, "x\"y", null], "b": {"c": []}}"#,
            r#"["\\ \/ \b \f \n \r \t \u00e9 \uABcd", "é"]"#,
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good:?} rejected: {e}"));
        }
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1} extra",
            "1.2.3",
            "nul",
            "+1",
            "01",
            "-01",
            ".5",
            "5.",
            "1e",
            "1e+",
            "-",
            "\"a\tb\"",
            "\"line\nbreak\"",
            r#""\q""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\"#,
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn numeric_field_extraction_handles_null_and_missing() {
        let json = "{\n  \"edges\": 1050000,\n  \"peak_rss_bytes\": null\n}";
        assert_eq!(extract_u64_field(json, "edges"), Some(1_050_000));
        assert_eq!(extract_u64_field(json, "peak_rss_bytes"), None);
        assert_eq!(extract_u64_field(json, "nope"), None);
    }
}
