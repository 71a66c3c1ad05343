//! Characterize a real (or synthetic) Common Log Format access log.
//!
//! ```text
//! cargo run --release --example characterize_log -- /path/to/access.log [base-epoch]
//! ```
//!
//! With no arguments, the example writes a small synthetic CLF log to a
//! temporary file first and then analyzes it — demonstrating the full
//! round trip the paper's Figure 1 pipeline performs: raw log text → parsed
//! records → sessions → statistical characterization.

use std::fs;
use std::io::Write as _;

use webpuzzle::core::{AnalysisConfig, FullWebModel};
use webpuzzle::weblog::clf::{format_line, parse_log, WVU_BASE_EPOCH};
use webpuzzle::weblog::{WeekDataset, DEFAULT_SESSION_THRESHOLD};
use webpuzzle::workload::{ServerProfile, WorkloadGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let (path, base_epoch) = match args.next() {
        Some(p) => (
            p,
            args.next()
                .map(|s| s.parse::<i64>())
                .transpose()?
                .unwrap_or(WVU_BASE_EPOCH),
        ),
        None => (write_demo_log()?, WVU_BASE_EPOCH),
    };

    println!("parsing {path}…");
    let text = fs::read_to_string(&path)?;
    let records = parse_log(&text, base_epoch)?;
    println!("parsed {} records", records.len());

    let dataset = WeekDataset::from_records(records, DEFAULT_SESSION_THRESHOLD)?;
    let model = FullWebModel::analyze(&path, &dataset, &AnalysisConfig::fast())?;
    println!("\n{model}");
    Ok(())
}

// Generate a small synthetic log and serialize it as CLF text.
fn write_demo_log() -> Result<String, Box<dyn std::error::Error>> {
    let profile = ServerProfile::clarknet().with_scale(0.01);
    let records = WorkloadGenerator::new(profile).seed(7).generate()?;
    let path = std::env::temp_dir().join("webpuzzle_demo_access.log");
    let mut file = fs::File::create(&path)?;
    for r in &records {
        writeln!(file, "{}", format_line(r, WVU_BASE_EPOCH))?;
    }
    println!(
        "no log supplied — wrote a {}-line synthetic CLF log to {}",
        records.len(),
        path.display()
    );
    Ok(path.display().to_string())
}
