//! Dataset export.
//!
//! The paper releases its dataset for further research; this module writes
//! the campaign's records in two interchange formats:
//!
//! * **CSV** — one row per (client, provider) observation, flat columns,
//!   ready for pandas/R;
//! * **JSON Lines** — one JSON object per client, preserving the nested
//!   structure.
//!
//! As in the paper, no client addresses are exported — only /24 prefixes.

use crate::records::{ClientRecord, Dataset};
use std::fmt::Write as _;

/// CSV header for the per-observation export.
const CSV_HEADER: &str = "client_id,country,maxmind_country,prefix,lat,lon,ns_distance_miles,\
provider,t_doh_ms,t_dohr_ms,pop_index,pop_distance_miles,nearest_pop_distance_miles,\
do53_ms,do53_source";

/// Render the dataset as CSV (one row per client × provider).
pub fn to_csv(ds: &Dataset) -> String {
    let mut out = String::with_capacity(ds.records.len() * 4 * 120);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for record in &ds.records {
        for sample in &record.doh {
            append_csv_row(&mut out, record, sample);
        }
    }
    out
}

fn append_csv_row(out: &mut String, r: &ClientRecord, s: &crate::records::DohSample) {
    let do53 = r.do53_ms.map(|v| format!("{v:.3}")).unwrap_or_default();
    let source = match r.do53_source {
        crate::records::Do53Source::BrightDataHeader => "header",
        crate::records::Do53Source::RipeAtlasRemedy => "atlas",
    };
    let _ = writeln!(
        out,
        "{},{},{},{},{:.4},{:.4},{:.1},{},{:.3},{:.3},{},{:.1},{:.1},{},{}",
        r.client_id,
        r.country_iso,
        r.maxmind_country,
        r.prefix.to_cidr(),
        r.position.lat,
        r.position.lon,
        r.nameserver_distance_miles,
        s.provider.name(),
        s.t_doh_ms,
        s.t_dohr_ms,
        s.pop_index,
        s.pop_distance_miles,
        s.nearest_pop_distance_miles,
        do53,
        source,
    );
}

/// Render the dataset as JSON Lines (one client object per line).
///
/// Serialisation is a handwritten minimal JSON emitter.
pub fn to_jsonl(ds: &Dataset) -> String {
    let mut out = String::with_capacity(ds.records.len() * 400);
    for r in &ds.records {
        let mut obj = JsonObject::new();
        obj.num("client_id", r.client_id as f64);
        obj.str("country", r.country_iso);
        obj.str("maxmind_country", r.maxmind_country);
        obj.str("prefix", &r.prefix.to_cidr());
        obj.num("lat", r.position.lat);
        obj.num("lon", r.position.lon);
        obj.num("ns_distance_miles", r.nameserver_distance_miles);
        match r.do53_ms {
            Some(v) => obj.num("do53_ms", v),
            None => obj.null("do53_ms"),
        }
        let providers: Vec<String> = r
            .doh
            .iter()
            .map(|s| {
                let mut p = JsonObject::new();
                p.str("provider", s.provider.name());
                p.num("t_doh_ms", s.t_doh_ms);
                p.num("t_dohr_ms", s.t_dohr_ms);
                p.num("pop_distance_miles", s.pop_distance_miles);
                p.num("nearest_pop_distance_miles", s.nearest_pop_distance_miles);
                p.finish()
            })
            .collect();
        obj.raw("doh", &format!("[{}]", providers.join(",")));
        out.push_str(&obj.finish());
        out.push('\n');
    }
    out
}

/// Tiny JSON object builder (strings are escaped minimally: the exported
/// fields are ISO codes, provider names and numbers, none of which contain
/// control characters).
struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    fn new() -> Self {
        JsonObject { fields: Vec::new() }
    }
    fn str(&mut self, key: &str, value: &str) {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.fields.push(format!("\"{key}\":\"{escaped}\""));
    }
    fn num(&mut self, key: &str, value: f64) {
        if value.is_finite() {
            self.fields.push(format!("\"{key}\":{value}"));
        } else {
            self.null(key);
        }
    }
    fn null(&mut self, key: &str) {
        self.fields.push(format!("\"{key}\":null"));
    }
    fn raw(&mut self, key: &str, value: &str) {
        self.fields.push(format!("\"{key}\":{value}"));
    }
    fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use std::sync::OnceLock;

    fn dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| {
            Campaign::new(CampaignConfig {
                scale: 0.02,
                ..CampaignConfig::quick(3)
            })
            .run()
        })
    }

    #[test]
    fn csv_has_header_and_four_rows_per_client() {
        let ds = dataset();
        let csv = to_csv(ds);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 1 + ds.records.len() * 4);
        // Every row has the same number of commas as the header.
        let commas = CSV_HEADER.matches(',').count();
        for line in &lines[1..] {
            assert_eq!(line.matches(',').count(), commas, "{line}");
        }
    }

    #[test]
    fn csv_never_exports_full_addresses() {
        let csv = to_csv(dataset());
        // Prefixes end in .0/24 — no full host addresses. Column 3 is
        // `prefix` (see CSV_HEADER); a row too short to have one is its
        // own failure, reported with the offending row for context.
        for (lineno, line) in csv.lines().enumerate().skip(1) {
            let Some(prefix) = line.split(',').nth(3) else {
                panic!("row {lineno} has no prefix column (expected ≥4 fields): {line:?}");
            };
            assert!(
                prefix.ends_with(".0/24"),
                "row {lineno}: prefix column {prefix:?} is not a /24 — \
                 a full client address may have leaked into the export"
            );
        }
    }

    #[test]
    fn jsonl_is_one_valid_object_per_client() {
        let ds = dataset();
        let jsonl = to_jsonl(ds);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), ds.records.len());
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            // Balanced braces and quotes (cheap structural check).
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
            assert_eq!(line.matches('"').count() % 2, 0);
            assert!(line.contains("\"doh\":["));
        }
    }

    #[test]
    fn atlas_clients_export_null_do53() {
        let ds = dataset();
        let jsonl = to_jsonl(ds);
        let has_null = jsonl.lines().any(|l| l.contains("\"do53_ms\":null"));
        let has_value = jsonl
            .lines()
            .any(|l| l.contains("\"do53_ms\":") && !l.contains("\"do53_ms\":null"));
        assert!(has_null, "Super Proxy countries must export null Do53");
        assert!(has_value, "other countries must export numeric Do53");
    }
}
