//! Figure 7: the windowing approach — runtime and memory as a function of
//! the window length W.
//!
//! Larger windows mean fewer resets (less runtime overhead) but longer
//! provenance lists (more memory), which is the trade-off the figure shows
//! for Bitcoin, CTU and Prosper Loans. In addition to the paper's
//! count-based window, each sweep also measures the time-based window
//! extension (`WindowedTracker::time_based`) at the equivalent duration, so
//! the two reset triggers can be compared directly.

use tin_analytics::report::{format_bytes, format_secs, TextTable};
use tin_bench::{run_tracker, scale_from_env, Workload};
use tin_core::policy::PolicyConfig;
use tin_datasets::DatasetKind;

fn main() {
    let scale = scale_from_env();
    println!("Reproducing Figure 7 (windowing approach), scale = {scale:?}\n");

    for kind in [
        DatasetKind::Bitcoin,
        DatasetKind::Ctu,
        DatasetKind::ProsperLoans,
    ] {
        let w = Workload::generate(kind, scale);
        println!("  {}", w.describe());

        // The paper sweeps W from 2K to 16K interactions; scale the sweep to
        // the generated stream length so every setting causes some resets.
        let n = w.interactions.len();
        let windows: Vec<usize> = [64usize, 32, 16, 8, 4, 2]
            .iter()
            .map(|d| (n / d).max(1))
            .collect();

        // Time span of the stream, used to express each count window as an
        // equivalent duration for the time-based variant.
        let span = w
            .interactions
            .last()
            .map(|r| r.time.value())
            .unwrap_or(0.0)
            .max(f64::MIN_POSITIVE);

        let mut table = TextTable::new(
            format!(
                "Figure 7 ({}): runtime / memory vs window size W",
                kind.label()
            ),
            &[
                "W (interactions)",
                "runtime (s)",
                "provenance memory",
                "time-window runtime (s)",
                "time-window memory",
            ],
        );
        for window in windows {
            let (_, result) = run_tracker(&PolicyConfig::Windowed { window }, &w);
            let duration = span * window as f64 / n as f64;
            let (_, time_result) = run_tracker(&PolicyConfig::TimeWindowed { duration }, &w);
            table.push_row(vec![
                window.to_string(),
                format_secs(result.runtime_secs),
                format_bytes(result.footprint.total()),
                format_secs(time_result.runtime_secs),
                format_bytes(time_result.footprint.total()),
            ]);
        }
        println!("{}", table.render());
        println!("CSV:\n{}", table.to_csv());
    }
}
