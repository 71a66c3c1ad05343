//! Rate-limited progress reporting for long-running stages.

use std::time::{Duration, Instant};

use crate::sink;

/// Minimum interval between emitted progress events.
const INTERVAL: Duration = Duration::from_millis(200);

/// Counts work units and forwards progress to the sink at most once per
/// 200 ms, so tight loops never flood the terminal.
pub struct ProgressMeter {
    stage: &'static str,
    total: Option<u64>,
    done: u64,
    last_emit: Option<Instant>,
}

impl ProgressMeter {
    /// Start a meter for `stage`; pass the expected total when known.
    pub fn new(stage: &'static str, total: Option<u64>) -> Self {
        ProgressMeter {
            stage,
            total,
            done: 0,
            last_emit: None,
        }
    }

    /// Record `n` completed units, emitting on the first tick and then
    /// whenever the interval has elapsed.
    pub fn tick(&mut self, n: u64) {
        self.done += n;
        let due = match self.last_emit {
            None => true,
            Some(at) => at.elapsed() >= INTERVAL,
        };
        if due {
            self.emit();
        }
    }

    /// Units recorded so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Emit a final event unconditionally.
    pub fn finish(mut self) {
        self.emit();
    }

    fn emit(&mut self) {
        sink::progress(self.stage, self.done, self.total);
        self.last_emit = Some(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_accumulates() {
        let mut meter = ProgressMeter::new("test/stage", Some(100));
        for _ in 0..10 {
            meter.tick(5);
        }
        assert_eq!(meter.done(), 50);
        meter.finish();
    }
}
