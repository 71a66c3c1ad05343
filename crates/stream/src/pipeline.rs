//! The pull-based [`Source`] abstraction.
//!
//! A [`Source`] produces items one at a time (fallibly): the CLF reader,
//! the fault injector and the wire source all implement it, and the
//! supervisor drains one into the engine without ever holding the whole
//! stream — the defining property of the one-pass engine.

use crate::Result;

/// A pull-based producer of items.
///
/// Unlike `Iterator`, each pull is fallible (log lines can be
/// malformed, IO can fail). `None` means the stream is exhausted and
/// will keep answering `None`.
pub trait Source {
    /// The produced item type.
    type Item;

    /// Pull the next item.
    fn next_item(&mut self) -> Option<Result<Self::Item>>;
}

/// Adapt any infallible iterator into a [`Source`] (handy for tests and
/// for feeding in-memory record slices to the fault injector).
#[derive(Debug)]
pub struct IterSource<I>(pub I);

impl<I: Iterator> Source for IterSource<I> {
    type Item = I::Item;

    fn next_item(&mut self) -> Option<Result<Self::Item>> {
        self.0.next().map(Ok)
    }
}
