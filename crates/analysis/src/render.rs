//! Plain-text rendering for the `repro` binary.
//!
//! Small, dependency-free helpers that turn analysis structs into the
//! aligned ASCII tables the paper's tables correspond to.

use std::fmt::Write as _;

/// Render a table: header row plus data rows, columns padded to fit.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (j, cell) in row.iter().enumerate() {
            widths[j] = widths[j].max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (j, cell) in cells.iter().enumerate() {
            let _ = write!(out, "| {:<width$} ", cell, width = widths[j]);
        }
        out.push_str("|\n");
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    write_row(&mut out, &header_cells);
    for (j, w) in widths.iter().enumerate() {
        let _ = write!(out, "|{:-<width$}", "", width = w + 2);
        if j == cols - 1 {
            out.push_str("|\n");
        }
    }
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Format a float with fixed decimals.
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Format a fraction as a percentage.
pub fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Format a p-value compactly (`<0.001` below threshold).
pub fn pval(p: f64) -> String {
    if p < 0.001 {
        "<0.001".to_string()
    } else {
        format!("{p:.3}")
    }
}

/// A sparkline-style ASCII CDF: 20 buckets of `#` density. Gives the
/// repro binary a visual check of curve shapes without plotting. `unit`
/// follows each value ("ms", "mi", or "" for a plain count).
pub fn ascii_cdf(values: &[f64], probs: &[f64], width: usize, unit: &str) -> String {
    if values.is_empty() {
        return String::from("(empty)");
    }
    let max = values[values.len() - 1].max(1e-9);
    let mut out = String::new();
    let steps = 10;
    for i in (1..=steps).rev() {
        let q = i as f64 / steps as f64;
        // Find the first value whose cumulative probability reaches q.
        let idx = probs
            .iter()
            .position(|&p| p >= q)
            .unwrap_or(probs.len() - 1);
        let x = values[idx];
        let bar = ((x / max) * width as f64).round() as usize;
        let _ = writeln!(
            out,
            "p{:>3.0} {:>10.1}{unit} |{}",
            q * 100.0,
            x,
            "#".repeat(bar.min(width))
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let out = table(
            &["Name", "Value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("Name"));
        assert!(lines[3].contains("longer-name"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        table(&["A", "B"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.281), "28.1%");
        assert_eq!(pval(0.0001), "<0.001");
        assert_eq!(pval(0.05), "0.050");
    }

    #[test]
    fn ascii_cdf_renders() {
        let values = vec![1.0, 2.0, 3.0, 4.0];
        let probs = vec![0.25, 0.5, 0.75, 1.0];
        let out = ascii_cdf(&values, &probs, 20, "ms");
        assert!(out.contains("p100"));
        assert!(out.contains("#"));
        assert!(out.starts_with("p100        4.0ms |"), "{out}");
        let count = ascii_cdf(&values, &probs, 20, "");
        assert!(count.starts_with("p100        4.0 |"), "{count}");
        assert_eq!(ascii_cdf(&[], &[], 20, "ms"), "(empty)");
    }
}
