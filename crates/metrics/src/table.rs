//! Table rendering: Markdown and CSV writers used by the experiment harness
//! to write the result tables of `results/eN.md`.

/// A simple rectangular table of strings with a header row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    /// Table title (printed above the table).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; panics if the arity does not match the header.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table as GitHub-flavored Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders the table as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Deterministic table assembly from keyed rows.
///
/// Sweeps and other concurrent producers hand back rows tagged with their
/// grid index; a `RowSink` collects `(key, rows)` pairs in *any* arrival
/// order and emits a [`Table`] whose rows are sorted by key — so the
/// rendered table (and its CSV) depends only on the keys, never on thread
/// scheduling or completion order.
#[derive(Clone, Debug)]
pub struct RowSink {
    table: Table,
    keyed: Vec<(usize, Vec<String>)>,
}

impl RowSink {
    /// Creates a sink that assembles into a table with the given title and
    /// headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        RowSink {
            table: Table::new(title, headers),
            keyed: Vec::new(),
        }
    }

    /// Adds one row under `key`. Rows sharing a key keep their insertion
    /// order relative to each other (stable sort).
    pub fn push(&mut self, key: usize, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.table.headers.len(),
            "row arity mismatch for key {key}"
        );
        self.keyed.push((key, row));
    }

    /// Number of rows collected so far.
    pub fn len(&self) -> usize {
        self.keyed.len()
    }

    /// Returns `true` if no rows were collected.
    pub fn is_empty(&self) -> bool {
        self.keyed.is_empty()
    }

    /// Sorts the collected rows by key and produces the table.
    pub fn into_table(mut self) -> Table {
        self.keyed.sort_by_key(|(k, _)| *k);
        for (_, row) in self.keyed {
            self.table.rows.push(row);
        }
        self.table
    }
}

/// Formats a float with 2 decimal digits (helper for table cells).
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a fraction as a percentage with 1 decimal digit.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["n", "rounds"]);
        t.push_row(vec!["64".into(), "17.50".into()]);
        t.push_row(vec!["128".into(), "19.25".into()]);
        t
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| n | rounds |"));
        assert!(md.contains("| 64 | 17.50 |"));
        assert_eq!(md.matches("|---|").count(), 1);
    }

    #[test]
    fn csv_rendering_and_escaping() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["plain".into(), "with,comma".into()]);
        t.push_row(vec!["with\"quote".into(), "ok".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn row_sink_orders_by_key_not_arrival() {
        let mut sink = RowSink::new("t", &["k"]);
        sink.push(2, vec!["two".into()]);
        sink.push(0, vec!["zero".into()]);
        sink.push(1, vec!["one".into()]);
        assert_eq!(sink.len(), 3);
        assert!(!sink.is_empty());
        let t = sink.into_table();
        assert_eq!(t.rows, vec![vec!["zero"], vec!["one"], vec!["two"]]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_sink_checks_arity() {
        let mut sink = RowSink::new("t", &["a", "b"]);
        sink.push(0, vec!["only-one".into()]);
    }

    #[test]
    fn helpers() {
        assert_eq!(fmt2(3.46159), "3.46");
        assert_eq!(fmt_pct(0.5), "50.0%");
        assert_eq!(sample().len(), 2);
        assert!(!sample().is_empty());
    }
}
