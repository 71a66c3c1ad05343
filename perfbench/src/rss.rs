//! Resident-set sampling for `rss_growth_mib`: peak RSS while the
//! passes run, minus RSS right after set-up.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Current resident set size of this process, KiB (`None` where
/// `/proc/self/status` is unavailable).
pub fn current_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Background thread tracking the peak RSS until stopped.
pub struct PeakSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl PeakSampler {
    /// Start sampling every 5 ms.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(current_kib().unwrap_or(0)));
        let handle = {
            let stop = Arc::clone(&stop);
            let peak = Arc::clone(&peak);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(kib) = current_kib() {
                        peak.fetch_max(kib, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        PeakSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// Stop the sampler, wait for its thread, and return the peak, KiB.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        if let Some(kib) = current_kib() {
            self.peak.fetch_max(kib, Ordering::Relaxed);
        }
        self.peak.load(Ordering::Relaxed)
    }
}
