//! When a record is due, which its latency is timed from.
//!
//! On the open-loop `live` workload record `k` (zero-based, in log
//! order) is due `k / rate` seconds after the run starts, whatever the
//! system under test is doing, so a stall also charges the wait it
//! imposes on every record due behind it; lateness is how far behind
//! schedule the generator itself put a record on the wire. A backlog
//! sent flat out (`catchup`) is due all at once when the pass starts. In
//! a closed loop (`drain`, `batch`) the next record is asked for only
//! when the previous reply returned, so that is when it is due.

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    rate: f64,
}

impl Schedule {
    /// A schedule offering `rate` records per second (must be > 0).
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Schedule { rate }
    }

    /// Due time of record `k`, seconds after the start.
    pub fn due(&self, k: u64) -> f64 {
        k as f64 / self.rate
    }

    /// How many of `total` records are due at `elapsed` seconds (a
    /// record due exactly now counts).
    pub fn due_count(&self, elapsed: f64, total: u64) -> u64 {
        if elapsed < 0.0 {
            return 0;
        }
        ((elapsed * self.rate).floor() as u64 + 1).min(total)
    }

    /// Seconds from now until record `k` is due (negative when overdue).
    pub fn until_due(&self, k: u64, elapsed: f64) -> f64 {
        self.due(k) - elapsed
    }

    /// How late record `k` went out when sent at `sent_at` seconds (0
    /// when on time).
    pub fn lateness(&self, k: u64, sent_at: f64) -> f64 {
        (sent_at - self.due(k)).max(0.0)
    }
}

/// Which moment a record's latency counts from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Due {
    /// Open loop: record `k` is due at its slot of a fixed-rate schedule.
    Slot(Schedule),
    /// A backlog: every record is due when the pass starts.
    PassStart,
    /// Closed loop: a record is due when the reply to the previous one
    /// returned; the first when the pass starts.
    PreviousReply,
}

impl Due {
    /// Due time of record `k`, seconds after the pass start, when the
    /// reply to record `k − 1` returned at `previous_reply` seconds (0
    /// for the first record).
    pub fn of(&self, k: u64, previous_reply: f64) -> f64 {
        match self {
            Due::Slot(s) => s.due(k),
            Due::PassStart => 0.0,
            Due::PreviousReply => previous_reply,
        }
    }
}

/// How many of the first `records` records round-robin dealing over
/// `conns` connections gives connection `conn` (record `k` goes to
/// connection `k % conns`).
pub fn dealt(records: u64, conn: u64, conns: u64) -> u64 {
    if records <= conn {
        0
    } else {
        (records - conn - 1) / conns + 1
    }
}
