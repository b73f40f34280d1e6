//! Churn models.
//!
//! The paper repeatedly stresses that the IPFS population is highly dynamic:
//! weekly unique-peer counts are an order of magnitude above instantaneous
//! connection counts (99 147 unique peers vs ≈9 600 concurrently connected in
//! the studied week). The churn model reproduces that gap: each node cycles
//! through online sessions and offline gaps with heavy-tailed session lengths,
//! so that a week of simulation shows many more unique node IDs than are
//! online at any instant.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Parameters of the per-node churn process.
#[derive(Debug, Clone)]
pub struct ChurnModel {
    /// Fraction of nodes that are effectively always online (stable servers,
    /// gateways, pinning services).
    pub stable_fraction: f64,
    /// Mean online-session length for churning nodes.
    pub mean_session: SimDuration,
    /// Pareto shape for session lengths (lower = heavier tail).
    pub session_shape: f64,
    /// Mean offline gap between sessions for churning nodes.
    pub mean_offline: SimDuration,
    /// Maximum first-join delay: node arrivals are spread uniformly over this
    /// window so the population ramps up rather than appearing at once.
    pub arrival_spread: SimDuration,
}

impl Default for ChurnModel {
    fn default() -> Self {
        Self {
            stable_fraction: 0.12,
            mean_session: SimDuration::from_hours(4),
            session_shape: 1.4,
            mean_offline: SimDuration::from_hours(10),
            arrival_spread: SimDuration::from_hours(6),
        }
    }
}

impl ChurnModel {
    /// A model with no churn at all: every node is online from time zero.
    pub fn always_online() -> Self {
        Self {
            stable_fraction: 1.0,
            mean_session: SimDuration::from_days(365),
            session_shape: 2.0,
            mean_offline: SimDuration::from_secs(1),
            arrival_spread: SimDuration::ZERO,
        }
    }

    /// Generates the online/offline schedule of one node over `horizon`.
    ///
    /// The schedule is a list of `[online, offline)` intervals; the RNG should
    /// be the node's own derived stream so schedules are independent.
    pub fn schedule(&self, rng: &mut SimRng, horizon: SimDuration) -> NodeSchedule {
        let stable = {
            use rand::Rng;
            rng.gen_bool(self.stable_fraction.clamp(0.0, 1.0))
        };
        let first_join = if self.arrival_spread == SimDuration::ZERO {
            SimTime::ZERO
        } else {
            use rand::Rng;
            SimTime::from_millis(rng.gen_range(0..=self.arrival_spread.as_millis()))
        };

        let mut sessions = Vec::new();
        if stable {
            // A stable node that would only arrive after the horizon has no
            // session at all (the seed emitted an inverted start-after-end
            // interval here, which the event loop merely happened to drop).
            let horizon_end = SimTime::ZERO + horizon;
            if first_join <= horizon_end {
                sessions.push(OnlineSession {
                    start: first_join,
                    end: horizon_end,
                });
            }
            return NodeSchedule { stable, sessions };
        }

        let mut t = first_join;
        let horizon_end = SimTime::ZERO + horizon;
        while t < horizon_end {
            // Heavy-tailed session length around the configured mean. The
            // Pareto mean is x_min * shape / (shape - 1); solve for x_min.
            let shape = self.session_shape.max(1.05);
            let x_min = self.mean_session.as_secs_f64() * (shape - 1.0) / shape;
            let session_secs = rng.sample_pareto(x_min.max(1.0), shape);
            let end = (t + SimDuration::from_secs_f64(session_secs)).min(horizon_end);
            sessions.push(OnlineSession { start: t, end });
            let gap = rng.sample_exponential(self.mean_offline.as_secs_f64().max(1.0));
            t = end + SimDuration::from_secs_f64(gap);
        }
        NodeSchedule { stable, sessions }
    }
}

/// One contiguous online interval of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineSession {
    /// When the node comes online.
    pub start: SimTime,
    /// When the node goes offline (exclusive).
    pub end: SimTime,
}

impl OnlineSession {
    /// Length of the session.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// The full online/offline schedule of a node over the simulated horizon.
#[derive(Debug, Clone)]
pub struct NodeSchedule {
    /// Whether the node was classified as a stable, always-online node.
    pub stable: bool,
    /// Online sessions in increasing time order, non-overlapping.
    pub sessions: Vec<OnlineSession>,
}

/// One churn transition of a node, as produced by a [`ScheduleCursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The node comes online (a session starts).
    Online,
    /// The node goes offline (a session ends).
    Offline,
}

/// A pull-based cursor over a [`NodeSchedule`]: yields the alternating
/// `Online`/`Offline` transitions of the node's sessions in time order,
/// one at a time, without materializing them anywhere.
///
/// The schedule itself is passed to each call rather than borrowed, so the
/// cursor is plain `Copy` state that a simulation driver can keep per node
/// next to other runtime state. Combined with the scheduler this is the
/// churn half of the lazy event-sourcing path: the driver holds one cursor
/// per node and only ever sees each node's *next* transition.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleCursor {
    /// Half-step position: transition `i` is session `i / 2`, with even
    /// positions yielding `Online` (session start) and odd `Offline` (end).
    pos: usize,
}

impl ScheduleCursor {
    /// A cursor at the first transition of a schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next transition, or `None` when the schedule is exhausted.
    pub fn peek(&self, schedule: &NodeSchedule) -> Option<(SimTime, ChurnEvent)> {
        let session = schedule.sessions.get(self.pos / 2)?;
        Some(if self.pos.is_multiple_of(2) {
            (session.start, ChurnEvent::Online)
        } else {
            (session.end, ChurnEvent::Offline)
        })
    }

    /// Steps past the transition returned by [`ScheduleCursor::peek`].
    pub fn advance(&mut self) {
        self.pos += 1;
    }
}

/// An owning [`EventSource`](crate::source::EventSource) over one node's
/// schedule, for drivers that prefer boxed sources over inline cursors.
#[derive(Debug, Clone)]
pub struct ScheduleSource {
    schedule: NodeSchedule,
    cursor: ScheduleCursor,
}

impl ScheduleSource {
    /// Wraps a schedule.
    pub fn new(schedule: NodeSchedule) -> Self {
        Self {
            schedule,
            cursor: ScheduleCursor::new(),
        }
    }
}

impl crate::source::EventSource for ScheduleSource {
    type Event = ChurnEvent;

    fn peek_time(&self) -> Option<SimTime> {
        self.cursor.peek(&self.schedule).map(|(t, _)| t)
    }

    fn next_event(&mut self) -> Option<(SimTime, ChurnEvent)> {
        let out = self.cursor.peek(&self.schedule)?;
        self.cursor.advance();
        Some(out)
    }
}

impl NodeSchedule {
    /// Returns true if the node is online at `t`.
    pub fn online_at(&self, t: SimTime) -> bool {
        self.sessions.iter().any(|s| s.start <= t && t < s.end)
    }

    /// Total online time across all sessions.
    pub fn total_online(&self) -> SimDuration {
        self.sessions
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration())
    }

    /// Returns true if the node was online at any point during the horizon.
    pub fn ever_online(&self) -> bool {
        self.sessions.iter().any(|s| s.end > s.start)
    }

    /// First time the node comes online, if ever.
    pub fn first_online(&self) -> Option<SimTime> {
        self.sessions.first().map(|s| s.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_online_schedule_spans_horizon() {
        let model = ChurnModel::always_online();
        let mut rng = SimRng::new(1);
        let horizon = SimDuration::from_days(7);
        let sched = model.schedule(&mut rng, horizon);
        assert!(sched.stable);
        assert_eq!(sched.sessions.len(), 1);
        assert!(sched.online_at(SimTime::from_secs(0)));
        assert!(sched.online_at(SimTime::ZERO + SimDuration::from_days(6)));
        assert_eq!(sched.total_online(), horizon);
    }

    #[test]
    fn sessions_are_ordered_and_non_overlapping() {
        let model = ChurnModel::default();
        // Include horizons shorter than the arrival spread: stable nodes
        // whose first join falls past the horizon must get no session, not
        // an inverted one.
        for horizon in [SimDuration::from_hours(2), SimDuration::from_days(7)] {
            for seed in 0..50 {
                let mut rng = SimRng::new(seed);
                let sched = model.schedule(&mut rng, horizon);
                for pair in sched.sessions.windows(2) {
                    assert!(pair[0].end <= pair[1].start, "overlap in seed {seed}");
                }
                for s in &sched.sessions {
                    assert!(s.start <= s.end);
                    assert!(s.end <= SimTime::ZERO + horizon);
                }
            }
        }
    }

    #[test]
    fn churn_creates_gap_between_concurrent_and_unique() {
        // With default churn, the number of nodes online at a given instant
        // should be well below the number of nodes that were ever online —
        // the effect the paper observes between averages and weekly totals.
        let model = ChurnModel::default();
        let horizon = SimDuration::from_days(7);
        let n = 600;
        let parent = SimRng::new(99);
        let schedules: Vec<NodeSchedule> = (0..n)
            .map(|i| {
                let mut rng = parent.derive_indexed("churn", i);
                model.schedule(&mut rng, horizon)
            })
            .collect();
        let ever: usize = schedules.iter().filter(|s| s.ever_online()).count();
        let probe = SimTime::ZERO + SimDuration::from_days(3);
        let concurrent: usize = schedules.iter().filter(|s| s.online_at(probe)).count();
        assert!(ever > 0 && concurrent > 0);
        assert!(
            (concurrent as f64) < 0.85 * ever as f64,
            "concurrent {concurrent} should be well below ever-online {ever}"
        );
    }

    #[test]
    fn stable_fraction_extremes() {
        let all_stable = ChurnModel {
            stable_fraction: 1.0,
            ..ChurnModel::default()
        };
        let mut rng = SimRng::new(3);
        assert!(
            all_stable
                .schedule(&mut rng, SimDuration::from_days(1))
                .stable
        );

        let none_stable = ChurnModel {
            stable_fraction: 0.0,
            ..ChurnModel::default()
        };
        let mut rng = SimRng::new(4);
        assert!(
            !none_stable
                .schedule(&mut rng, SimDuration::from_days(1))
                .stable
        );
    }

    #[test]
    fn schedule_cursor_yields_all_transitions_in_order() {
        let model = ChurnModel::default();
        let mut rng = SimRng::new(12);
        let sched = model.schedule(&mut rng, SimDuration::from_days(7));
        let mut cursor = ScheduleCursor::new();
        let mut transitions = Vec::new();
        while let Some((t, event)) = cursor.peek(&sched) {
            cursor.advance();
            transitions.push((t, event));
        }
        assert_eq!(transitions.len(), sched.sessions.len() * 2);
        for (i, session) in sched.sessions.iter().enumerate() {
            assert_eq!(transitions[i * 2], (session.start, ChurnEvent::Online));
            assert_eq!(transitions[i * 2 + 1], (session.end, ChurnEvent::Offline));
        }
        for pair in transitions.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "nondecreasing transition times");
        }
    }

    #[test]
    fn schedule_source_matches_cursor() {
        use crate::source::EventSource;
        let model = ChurnModel::default();
        let mut rng = SimRng::new(13);
        let sched = model.schedule(&mut rng, SimDuration::from_days(2));
        let mut source = ScheduleSource::new(sched.clone());
        let mut cursor = ScheduleCursor::new();
        loop {
            assert_eq!(source.peek_time(), cursor.peek(&sched).map(|(t, _)| t));
            let from_source = source.next_event();
            let from_cursor = cursor.peek(&sched);
            cursor.advance();
            assert_eq!(from_source, from_cursor);
            if from_source.is_none() {
                break;
            }
        }
    }

    #[test]
    fn online_at_edges() {
        let sched = NodeSchedule {
            stable: false,
            sessions: vec![OnlineSession {
                start: SimTime::from_secs(10),
                end: SimTime::from_secs(20),
            }],
        };
        assert!(!sched.online_at(SimTime::from_secs(9)));
        assert!(sched.online_at(SimTime::from_secs(10)));
        assert!(sched.online_at(SimTime::from_secs(19)));
        assert!(!sched.online_at(SimTime::from_secs(20)), "end is exclusive");
        assert_eq!(sched.first_online(), Some(SimTime::from_secs(10)));
    }
}
