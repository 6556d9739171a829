//! Export a campaign dataset to CSV and JSON Lines — the paper publishes
//! its dataset, and so does this reproduction.
//!
//! ```sh
//! cargo run --release --example export_dataset -- target/examples/dataset 0.1
//! ```

use dohperf::analysis::robustness::headline_cis;
use dohperf::core::campaign::{Campaign, CampaignConfig};
use dohperf::core::export::{to_csv, to_jsonl};
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let dir = PathBuf::from(args.next().unwrap_or_else(|| "target/dataset".into()));
    let scale: f64 = args
        .next()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.1)
        .clamp(0.01, 1.0);

    let config = CampaignConfig {
        seed: 2021,
        scale,
        ..CampaignConfig::default()
    };
    println!("running campaign at scale {scale:.2}...");
    let dataset = Campaign::new(config).run();

    std::fs::create_dir_all(&dir)?;
    let csv = to_csv(&dataset);
    let jsonl = to_jsonl(&dataset);
    std::fs::write(dir.join("dataset.csv"), &csv)?;
    std::fs::write(dir.join("dataset.jsonl"), &jsonl)?;
    println!(
        "wrote {} ({} KiB) and {} ({} KiB)",
        dir.join("dataset.csv").display(),
        csv.len() / 1024,
        dir.join("dataset.jsonl").display(),
        jsonl.len() / 1024,
    );
    println!(
        "{} clients, {} countries, {} observations",
        dataset.records.len(),
        dataset.country_count(),
        dataset.records.len() * 4,
    );
    if let Some(cis) = headline_cis(&dataset, config.seed) {
        println!(
            "headline medians (95% bootstrap): DoH1 {:.0}ms [{:.0},{:.0}], Do53 {:.0}ms [{:.0},{:.0}]",
            cis.doh1.estimate, cis.doh1.lo, cis.doh1.hi, cis.do53.estimate, cis.do53.lo, cis.do53.hi,
        );
    }
    Ok(())
}
