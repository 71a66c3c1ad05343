//! Lightweight nested wall-clock spans.
//!
//! [`enter`] (or the [`crate::span!`] macro) opens a span; dropping the
//! returned [`SpanGuard`] records its duration. Spans nest through a
//! thread-local stack, and repeated entries of the same span name under
//! the same parent aggregate into one node (total time + hit count), so
//! per-interval loops stay compact in the report.
//!
//! The hot path allocates nothing: names are `&'static str`, node lookup
//! is a linear scan over a small arena, and timing uses [`Instant`].

use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::sink;

/// Aggregated statistics for one span node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Static span name, e.g. `"hurst/whittle"`.
    pub name: &'static str,
    /// Arena index of the parent span, `None` for roots.
    pub parent: Option<usize>,
    /// Total wall-clock nanoseconds across all entries.
    pub total_ns: u64,
    /// Number of times the span was entered and closed.
    pub count: u64,
}

static ARENA: Mutex<Vec<SpanStat>> = Mutex::new(Vec::new());

/// Lock the arena, recovering from poisoning. The arena holds plain
/// aggregates that are valid after any partial update, and span guards
/// drop during panics — in particular while the stream supervisor
/// unwinds an engine panic via `catch_unwind`. Panicking here again
/// (as `expect` would) turns that recoverable panic into an abort.
fn lock_arena() -> MutexGuard<'static, Vec<SpanStat>> {
    ARENA.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Open guard for an active span; records on drop.
#[must_use = "dropping the guard immediately records a ~zero-length span"]
pub struct SpanGuard {
    idx: usize,
    name: &'static str,
    depth: usize,
    start: Instant,
}

/// Enter a span named `name`, nested under the calling thread's current
/// innermost span (if any).
pub fn enter(name: &'static str) -> SpanGuard {
    let (parent, depth) = STACK.with(|s| {
        let stack = s.borrow();
        (stack.last().copied(), stack.len())
    });
    let idx = {
        let mut arena = lock_arena();
        match arena
            .iter()
            .position(|n| n.parent == parent && n.name == name)
        {
            Some(i) => i,
            None => {
                arena.push(SpanStat {
                    name,
                    parent,
                    total_ns: 0,
                    count: 0,
                });
                arena.len() - 1
            }
        }
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    SpanGuard {
        idx,
        name,
        depth,
        start: Instant::now(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        {
            let mut arena = lock_arena();
            // A concurrent `reset` may have shrunk the arena while this
            // guard was open; recording into a fresh index would
            // misattribute, so the late close is dropped instead.
            if let Some(node) = arena.get_mut(self.idx) {
                node.total_ns += nanos;
                node.count += 1;
            }
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards normally drop in LIFO order; tolerate out-of-order
            // drops (e.g. guards stored in structs) by removing the last
            // matching entry instead of blindly popping.
            if let Some(at) = stack.iter().rposition(|&i| i == self.idx) {
                stack.remove(at);
            }
        });
        sink::span_close(self.name, self.depth, nanos);
    }
}

/// Snapshot the whole arena (parent links are arena indices).
pub fn snapshot() -> Vec<SpanStat> {
    lock_arena().clone()
}

/// Clear all recorded spans.
///
/// Intended for tests and for process-level tools that run several
/// independent analyses; must not be called while spans are open on
/// other threads (their guards would then record into fresh indices).
pub fn reset() {
    lock_arena().clear();
    STACK.with(|s| s.borrow_mut().clear());
}

/// Open a named span; bind the result to keep it alive:
/// `let _span = webpuzzle_obs::span!("hurst/whittle");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::spans::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The arena is process-global; serialize tests that reset it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn nesting_links_parents() {
        let _lock = TEST_LOCK.lock().unwrap();
        reset();
        {
            let _a = enter("unit/outer");
            let _b = enter("unit/inner");
        }
        let snap = snapshot();
        let outer = snap.iter().position(|n| n.name == "unit/outer").unwrap();
        let inner = snap.iter().find(|n| n.name == "unit/inner").unwrap();
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(snap[outer].parent, None);
        assert_eq!(snap[outer].count, 1);
    }

    #[test]
    fn poisoned_arena_recovers_instead_of_panicking() {
        let _lock = TEST_LOCK.lock().unwrap();
        reset();
        // Poison the arena mutex by panicking while holding it, as an
        // engine panic under the supervisor's catch_unwind would.
        let _ = std::panic::catch_unwind(|| {
            let _arena = ARENA.lock().unwrap();
            panic!("poison the span arena");
        });
        assert!(ARENA.is_poisoned());
        // Every entry point must keep working instead of aborting.
        {
            let _g = enter("unit/after_poison");
        }
        let snap = snapshot();
        let node = snap.iter().find(|n| n.name == "unit/after_poison").unwrap();
        assert_eq!(node.count, 1);
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn repeated_entries_aggregate() {
        let _lock = TEST_LOCK.lock().unwrap();
        reset();
        for _ in 0..3 {
            let _g = enter("unit/repeat");
        }
        let snap = snapshot();
        let node = snap.iter().find(|n| n.name == "unit/repeat").unwrap();
        assert_eq!(node.count, 3);
    }
}
