//! Pull-based event sources.
//!
//! An [`EventSource`] is one generating process of a simulation (a node's
//! churn schedule, a node's Poisson request process, a gateway arrival
//! stream) that exposes only its *next* event; the simulation loop merges
//! sources on demand. The pending set then scales with the number of
//! concurrently active processes, not with `population × horizon` as it
//! would if every event of the run were scheduled up front.
//!
//! Contract: a source yields events in nondecreasing time order, and
//! [`EventSource::peek_time`] always matches the timestamp the next call to
//! [`EventSource::next_event`] will return. Merging is deterministic: the
//! driver breaks timestamp ties by source **rank** — the order sources were
//! registered:
//!
//! ```text
//!  rank 0   churn(node 0)  ──┐           merge key: (next event time, rank)
//!  rank 1   churn(node 1)  ──┤
//!  ...                       ├──► head-heap ──► event loop ──► handlers
//!  rank N   node requests ──┤
//!  rank N+1 gateway reqs  ──┘
//!
//!  tie at time t:  lower rank first; and source events at t precede
//!  runtime (scheduler) events at t.
//! ```
//!
//! This is the order a scheduler would deliver if every source were drained
//! into it, in rank order, before the run — FIFO sequence numbers — and the
//! node crate's tests hold the loop to exactly that reference.

use crate::time::SimTime;

/// A process that lazily produces timestamped events in nondecreasing order.
pub trait EventSource {
    /// The payload produced by this source.
    type Event;

    /// Timestamp of the next event, or `None` when the source is exhausted.
    fn peek_time(&self) -> Option<SimTime>;

    /// Produces the next event. Timestamps never decrease between calls.
    fn next_event(&mut self) -> Option<(SimTime, Self::Event)>;
}

impl<S: EventSource + ?Sized> EventSource for Box<S> {
    type Event = S::Event;

    fn peek_time(&self) -> Option<SimTime> {
        (**self).peek_time()
    }

    fn next_event(&mut self) -> Option<(SimTime, Self::Event)> {
        (**self).next_event()
    }
}

/// Adapts any iterator of `(time, event)` pairs in nondecreasing time order
/// into an [`EventSource`], buffering one look-ahead element.
#[derive(Debug)]
pub struct IterSource<I: Iterator> {
    head: Option<I::Item>,
    rest: I,
}

impl<E, I: Iterator<Item = (SimTime, E)>> IterSource<I> {
    /// Wraps `iter`; the first element is pulled eagerly so peeks are free.
    pub fn new(mut iter: I) -> Self {
        let head = iter.next();
        Self { head, rest: iter }
    }
}

impl<E, I: Iterator<Item = (SimTime, E)>> EventSource for IterSource<I> {
    type Event = E;

    fn peek_time(&self) -> Option<SimTime> {
        self.head.as_ref().map(|(t, _)| *t)
    }

    fn next_event(&mut self) -> Option<(SimTime, E)> {
        let out = self.head.take();
        if let Some((t, _)) = &out {
            self.head = self.rest.next();
            debug_assert!(
                self.head.as_ref().map(|(n, _)| n >= t).unwrap_or(true),
                "sources must yield nondecreasing times"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_source_peeks_and_drains_in_order() {
        let events = vec![
            (SimTime::from_secs(1), "a"),
            (SimTime::from_secs(1), "b"),
            (SimTime::from_secs(3), "c"),
        ];
        let mut source = IterSource::new(events.into_iter());
        assert_eq!(source.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(source.next_event(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(source.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(source.next_event(), Some((SimTime::from_secs(1), "b")));
        assert_eq!(source.next_event(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(source.peek_time(), None);
        assert_eq!(source.next_event(), None);
    }

    #[test]
    fn boxed_sources_forward() {
        let mut source: Box<dyn EventSource<Event = u32>> =
            Box::new(IterSource::new(vec![(SimTime::ZERO, 7u32)].into_iter()));
        assert_eq!(source.peek_time(), Some(SimTime::ZERO));
        assert_eq!(source.next_event(), Some((SimTime::ZERO, 7)));
        assert_eq!(source.next_event(), None);
    }
}
