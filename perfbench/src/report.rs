//! Metric rows, sample aggregation, digests, the results header, and the
//! metric list `BENCHMARK.json` names.

use crate::trace::Span;
use dohperf_core::records::ClientRecord;
use dohperf_core::store_io::record_to_store;
use dohperf_store::{encode_chunk_into, EncodeScratch, DEFAULT_CHUNK_BUDGET};
use dohperf_telemetry::JsonValue;

/// The repository root (the directory holding `BENCHMARK.json`).
pub const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Where results and traces go unless `--trace DIR` names another place.
pub const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name, e.g. `op_ms.p50`.
    pub metric: String,
    /// Value as measured (a median unless the name says otherwise).
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// Samples behind the value.
    pub n: usize,
}

/// Per-metric samples, kept in first-push order.
#[derive(Default)]
pub struct Samples {
    metrics: Vec<(String, &'static str, f64, Vec<f64>)>,
}

impl Samples {
    /// Add one sample of `metric`, reported as the median.
    pub fn push(&mut self, metric: &str, unit: &'static str, value: f64) {
        self.push_quantile(metric, unit, 0.5, value);
    }

    /// Add one sample of `metric`, reported as its quantile `q`.
    pub fn push_quantile(&mut self, metric: &str, unit: &'static str, q: f64, value: f64) {
        match self.metrics.iter_mut().find(|(m, ..)| m == metric) {
            Some((.., values)) => values.push(value),
            None => self
                .metrics
                .push((metric.to_string(), unit, q, vec![value])),
        }
    }

    /// One row per metric: its quantile (the median unless pushed with
    /// [`Samples::push_quantile`]).
    pub fn rows(&self) -> Vec<Row> {
        self.metrics
            .iter()
            .map(|(metric, unit, q, values)| Row {
                metric: metric.clone(),
                value: quantile(values, *q),
                unit: unit.to_string(),
                n: values.len(),
            })
            .collect()
    }
}

/// What a workload process reports to the `perf run` process that
/// spawned it: tab-separated lines on its standard output.
#[derive(Debug, Default, PartialEq)]
pub struct RunReport {
    /// Metric rows.
    pub rows: Vec<Row>,
    /// `(label, digest)` of every op's output.
    pub digests: Vec<(String, String)>,
    /// Why ops failed.
    pub failures: Vec<String>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that erred, panicked or failed their output check.
    pub failed: u64,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl RunReport {
    /// Serialise, one record per line.
    pub fn to_lines(&self) -> String {
        let clean = |s: &str| s.replace(['\t', '\n'], " ");
        let mut out = String::new();
        for r in &self.rows {
            out += &format!("row\t{}\t{}\t{}\t{}\n", r.metric, r.value, r.unit, r.n);
        }
        for (label, digest) in &self.digests {
            out += &format!("digest\t{}\t{digest}\n", clean(label));
        }
        for f in &self.failures {
            out += &format!("fail\t{}\n", clean(f));
        }
        for sp in &self.spans {
            let parent = sp.parent.map_or("-".to_string(), |p| p.to_string());
            out += &format!(
                "span\t{}\t{}\t{}\t{parent}\t{}\t{}\n",
                sp.op,
                sp.layer,
                clean(&sp.name),
                sp.start_ns,
                sp.end_ns
            );
        }
        out += &format!("ops\t{}\t{}\n", self.attempted, self.failed);
        out
    }

    /// Parse [`RunReport::to_lines`] output; the closing `ops` line must be
    /// present, so a process that died part-way is an error.
    pub fn parse(text: &str) -> Result<RunReport, String> {
        let mut report = RunReport::default();
        let mut closed = false;
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = || format!("malformed report line {line:?}");
            let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
            let int = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match fields.as_slice() {
                ["row", metric, value, unit, n] => report.rows.push(Row {
                    metric: metric.to_string(),
                    value: num(value)?,
                    unit: unit.to_string(),
                    n: int(n)? as usize,
                }),
                ["digest", label, digest] => {
                    report.digests.push((label.to_string(), digest.to_string()))
                }
                ["fail", why] => report.failures.push(why.to_string()),
                ["span", op, layer, name, parent, start, end] => report.spans.push(Span {
                    op: int(op)?,
                    layer: layer.to_string(),
                    name: name.to_string(),
                    parent: match *parent {
                        "-" => None,
                        p => Some(int(p)? as usize),
                    },
                    start_ns: int(start)?,
                    end_ns: int(end)?,
                }),
                ["ops", attempted, failed] => {
                    report.attempted = int(attempted)?;
                    report.failed = int(failed)?;
                    closed = true;
                }
                _ => return Err(bad()),
            }
        }
        if closed {
            Ok(report)
        } else {
            Err("the workload process ended without reporting its ops".to_string())
        }
    }

    /// The value of row `metric`, if reported.
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.value)
    }
}

/// Median (mean of the middle two for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` by linear interpolation between order statistics at rank
/// `(n + 1) q`, clamped to the sample range — Python's
/// `statistics.quantiles` "exclusive" method, so quartiles printed here
/// match the ones a reader computes from the same values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = ((n + 1) as f64 * q).clamp(1.0, n as f64);
            let lo = rank.floor() as usize;
            let frac = rank - lo as f64;
            let hi = (lo + 1).min(n);
            sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
        }
    }
}

/// FNV-1a, 64-bit: a stable digest for printed outputs.
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hash state.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hash `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of rendered text.
pub fn text_digest(text: &str) -> String {
    let mut h = Fnv::new();
    h.write(text.as_bytes());
    h.hex()
}

/// Digest of records through their store encoding, which keeps every
/// float as raw bits: equal digests mean bit-identical records.
pub fn records_digest(records: &[ClientRecord]) -> String {
    let mut h = Fnv::new();
    let mut scratch = EncodeScratch::new();
    let mut chunk = Vec::with_capacity(DEFAULT_CHUNK_BUDGET);
    let mut bytes = Vec::new();
    for part in records.chunks(DEFAULT_CHUNK_BUDGET) {
        chunk.clear();
        chunk.extend(part.iter().map(record_to_store));
        bytes.clear();
        encode_chunk_into(&chunk, &mut scratch, &mut bytes);
        h.write(&bytes);
    }
    h.hex()
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON: every digit `{}` prints, and `null` for NaN or
/// infinity, which JSON cannot hold.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The run length and the metric names and units `BENCHMARK.json` lists.
pub struct Manifest {
    /// Seconds of op time the fixed op counts are sized to.
    pub run_seconds: u64,
    /// End-to-end metrics: what every untraced run prints.
    pub end_to_end: Vec<(String, String)>,
    /// Per-layer metrics: what every traced run prints.
    pub per_layer: Vec<(String, String)>,
}

/// Parse the `BENCHMARK.json` this binary was built with.
pub fn manifest() -> Result<Manifest, String> {
    let doc = JsonValue::parse(include_str!("../../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let section = |key: &str| -> Result<Vec<(String, String)>, String> {
        let Some(JsonValue::Array(items)) = doc.get(key) else {
            return Err(format!("BENCHMARK.json: {key} is not an array"));
        };
        items
            .iter()
            .map(|item| {
                let field = |f: &str| {
                    item.get(f)
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("BENCHMARK.json: a {key} entry lacks {f}"))
                };
                Ok((field("name")?, field("unit")?))
            })
            .collect()
    };
    Ok(Manifest {
        run_seconds: doc
            .get("run_seconds")
            .and_then(JsonValue::as_u64)
            .ok_or("BENCHMARK.json: run_seconds is not a whole number")?,
        end_to_end: section("end_to_end")?,
        per_layer: section("per_layer")?,
    })
}

/// The commit the checkout is at, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn commit() -> String {
    let git = std::path::Path::new(ROOT).join(".git");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Version of the compiler that built this binary.
pub const RUSTC: &str = env!("PERF_RUSTC_VERSION");

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// One metric over the runs of a workload.
pub struct Aggregate {
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Samples behind one run's value.
    pub n: usize,
    /// One value per run.
    pub values: Vec<f64>,
}

impl Aggregate {
    /// Median over runs.
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// The median as a row.
    pub fn row(&self) -> Row {
        Row {
            metric: self.metric.clone(),
            value: self.median(),
            unit: self.unit.clone(),
            n: self.n,
        }
    }
}

/// Group the rows of several runs by metric, keeping first-seen order.
pub fn group(runs: &[Vec<Row>]) -> Vec<Aggregate> {
    let mut out: Vec<Aggregate> = Vec::new();
    for row in runs.iter().flatten() {
        match out.iter_mut().find(|a| a.metric == row.metric) {
            Some(a) => a.values.push(row.value),
            None => out.push(Aggregate {
                metric: row.metric.clone(),
                unit: row.unit.clone(),
                n: row.n,
                values: vec![row.value],
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.9), 2.0);
    }

    #[test]
    fn manifest_parses() {
        let m = manifest().expect("BENCHMARK.json parses");
        assert!(m.run_seconds > 0);
        assert!(m.end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(!m.per_layer.is_empty());
    }

    #[test]
    fn run_report_round_trips() {
        let report = RunReport {
            rows: vec![Row {
                metric: "op_ms.p50".into(),
                value: 0.1 + 0.2,
                unit: "ms".into(),
                n: 7,
            }],
            digests: vec![("op 0 seed 7".into(), "00ff".into())],
            failures: vec!["op 1:\tbad\nthing".into()],
            attempted: 7,
            failed: 1,
            spans: vec![Span {
                op: 2,
                layer: "core.campaign".into(),
                name: "Campaign::run".into(),
                parent: Some(0),
                start_ns: 5,
                end_ns: 9,
            }],
        };
        let back = RunReport::parse(&report.to_lines()).expect("parses");
        assert_eq!(back.rows, report.rows, "values keep every digit");
        assert_eq!(back.failures, vec!["op 1: bad thing".to_string()]);
        assert_eq!((back.attempted, back.failed), (7, 1));
        assert_eq!(back.spans, report.spans);
        assert!(RunReport::parse("row\tx\t1\tms\t1\n").is_err());
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1.5), "1.5");
    }
}
