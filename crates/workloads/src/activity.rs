//! Synthetic user-activity traces.
//!
//! The thesis's production study (Ch. 8) is driven by real users arriving
//! at and leaving their workstations. We reproduce the *process* behind the
//! numbers it reports — "65-70% of hosts in Sprite are idle on average
//! during the day, with up to 80% idle at night and on weekends" — with a
//! two-state alternating-renewal model per host: exponential active and
//! idle periods whose means depend on the hour of day and the day of week.
//! Mutka/Livny-style long idle stretches \[ML87\] come out of the night/
//! weekend regime automatically.

use std::sync::atomic::{AtomicUsize, Ordering};

use sprite_net::HostId;
use sprite_sim::{DetRng, SimDuration, SimTime};

/// Seconds in an hour/day/week of simulated time.
pub const HOUR: u64 = 3_600;
/// Seconds in a day.
pub const DAY: u64 = 24 * HOUR;
/// Seconds in a week (simulations start on a Monday at midnight).
pub const WEEK: u64 = 7 * DAY;

/// Hour of day (0-23) at `t`.
pub fn hour_of(t: SimTime) -> u64 {
    (t.as_micros() / 1_000_000 % DAY) / HOUR
}

/// True on Saturday/Sunday (simulated time starts Monday 00:00).
pub fn is_weekend(t: SimTime) -> bool {
    let day = t.as_micros() / 1_000_000 / DAY % 7;
    day >= 5
}

/// True during working hours on a weekday.
pub fn is_working_hours(t: SimTime) -> bool {
    !is_weekend(t) && (9..18).contains(&hour_of(t))
}

/// Parameters of the per-host activity model.
#[derive(Debug, Clone, Copy)]
pub struct ActivityModel {
    /// Mean length of an at-console session during working hours.
    pub day_active_mean: SimDuration,
    /// Mean length of an idle gap during working hours.
    pub day_idle_mean: SimDuration,
    /// Mean at-console session length off hours.
    pub off_active_mean: SimDuration,
    /// Mean idle gap off hours.
    pub off_idle_mean: SimDuration,
}

impl Default for ActivityModel {
    /// Calibrated so ~1/3 of hosts are busy during the day and ~1/5 or less
    /// at night and on weekends — the fractions Chapter 8 reports.
    fn default() -> Self {
        ActivityModel {
            day_active_mean: SimDuration::from_secs(20 * 60),
            day_idle_mean: SimDuration::from_secs(40 * 60),
            off_active_mean: SimDuration::from_secs(8 * 60),
            off_idle_mean: SimDuration::from_secs(80 * 60),
        }
    }
}

impl ActivityModel {
    fn means_at(&self, t: SimTime) -> (SimDuration, SimDuration) {
        if is_working_hours(t) {
            (self.day_active_mean, self.day_idle_mean)
        } else {
            (self.off_active_mean, self.off_idle_mean)
        }
    }
}

/// One console transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// The user's state *from* this instant.
    pub active: bool,
}

/// How [`locate`] found its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// The hint itself bracketed `t`.
    Hint,
    /// The index after the hint bracketed `t`.
    Next,
    /// Neither did; a binary search answered.
    Search,
}

/// `events.partition_point(|e| e.at <= t)` — the index just past the last
/// transition at or before `t` — tried first at `hint` and then at
/// `hint + 1`. An index `i` is the answer exactly when it brackets `t`
/// (`events[i - 1].at <= t < events[i].at`, open at either end), and the
/// events are strictly ordered, so only one index can; the probes give the
/// binary search's answer for any `hint` and any `t`.
fn locate(events: &[ActivityEvent], hint: usize, t: SimTime) -> (usize, Probe) {
    let brackets = |i: usize| {
        i <= events.len()
            && (i == 0 || events[i - 1].at <= t)
            && (i == events.len() || t < events[i].at)
    };
    if brackets(hint) {
        (hint, Probe::Hint)
    } else if brackets(hint + 1) {
        (hint + 1, Probe::Next)
    } else {
        (events.partition_point(|e| e.at <= t), Probe::Search)
    }
}

/// A host's activity trace over a horizon.
#[derive(Debug)]
pub struct ActivityTrace {
    /// The host this trace belongs to.
    pub host: HostId,
    events: Vec<ActivityEvent>,
    /// The index the last lookup returned. Simulations sweep time forward
    /// a minute at a time, so the next answer is almost always this index
    /// or the one after it. An atomic keeps the trace `Sync` for drivers
    /// that share traces across threads; relaxed ordering suffices because
    /// any stored value is a valid hint, only a faster or slower one.
    hint: AtomicUsize,
}

impl Clone for ActivityTrace {
    fn clone(&self) -> Self {
        ActivityTrace {
            host: self.host,
            events: self.events.clone(),
            hint: AtomicUsize::new(self.hint.load(Ordering::Relaxed)),
        }
    }
}

impl ActivityTrace {
    /// Generates a trace for `host` covering `[0, horizon)`.
    pub fn generate(
        rng: &mut DetRng,
        model: &ActivityModel,
        host: HostId,
        horizon: SimDuration,
    ) -> Self {
        let end = SimTime::ZERO + horizon;
        let mut events = Vec::new();
        let mut t = SimTime::ZERO;
        // Start idle with a random phase so hosts do not move in lockstep.
        let mut active = rng.chance(0.25);
        events.push(ActivityEvent { at: t, active });
        while t < end {
            let (active_mean, idle_mean) = model.means_at(t);
            let dwell = if active {
                rng.exponential(active_mean)
            } else {
                rng.exponential(idle_mean)
            };
            t += dwell.max(SimDuration::from_secs(1));
            active = !active;
            if t < end {
                events.push(ActivityEvent { at: t, active });
            }
        }
        ActivityTrace {
            host,
            events,
            hint: AtomicUsize::new(0),
        }
    }

    /// The transitions, in time order.
    pub fn events(&self) -> &[ActivityEvent] {
        &self.events
    }

    /// The last transition at or before `t`. These lookups run millions of
    /// times in the month-long production simulations, nearly always a
    /// minute after the previous one, so [`locate`] starts from the last
    /// answer: a forward sweep costs two to four comparisons per lookup
    /// and falls back to a binary search only when more than one
    /// transition passed since the previous lookup. Lookups in any other order get the same
    /// answer, just from the binary search.
    fn last_transition_before(&self, t: SimTime) -> Option<&ActivityEvent> {
        let hint = self.hint.load(Ordering::Relaxed);
        let (i, _) = locate(&self.events, hint, t);
        if i != hint {
            self.hint.store(i, Ordering::Relaxed);
        }
        i.checked_sub(1).map(|j| &self.events[j])
    }

    /// Whether the user is at the console at `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        match self.last_transition_before(t) {
            Some(e) => e.active,
            None => false,
        }
    }

    /// How long the console has been untouched at `t` (zero while active).
    pub fn idle_duration_at(&self, t: SimTime) -> SimDuration {
        match self.last_transition_before(t) {
            Some(e) if e.active => SimDuration::ZERO,
            Some(e) => t.elapsed_since(e.at),
            None => t.elapsed_since(SimTime::ZERO),
        }
    }
}

/// Fraction of hosts idle at `t` given their traces.
pub fn fraction_idle(traces: &[ActivityTrace], t: SimTime) -> f64 {
    if traces.is_empty() {
        return 0.0;
    }
    let idle = traces.iter().filter(|tr| !tr.active_at(t)).count();
    idle as f64 / traces.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_helpers() {
        let monday_10am = SimTime::ZERO + SimDuration::from_secs(10 * HOUR);
        assert_eq!(hour_of(monday_10am), 10);
        assert!(!is_weekend(monday_10am));
        assert!(is_working_hours(monday_10am));
        let saturday_noon = SimTime::ZERO + SimDuration::from_secs(5 * DAY + 12 * HOUR);
        assert!(is_weekend(saturday_noon));
        assert!(!is_working_hours(saturday_noon));
        let monday_3am = SimTime::ZERO + SimDuration::from_secs(3 * HOUR);
        assert!(!is_working_hours(monday_3am));
    }

    #[test]
    fn traces_cover_the_horizon_in_order() {
        let mut rng = DetRng::seed_from(1);
        let tr = ActivityTrace::generate(
            &mut rng,
            &ActivityModel::default(),
            HostId::new(0),
            SimDuration::from_secs(2 * DAY),
        );
        let evs = tr.events();
        assert!(!evs.is_empty());
        for w in evs.windows(2) {
            assert!(w[0].at < w[1].at, "events strictly ordered");
            assert_ne!(w[0].active, w[1].active, "states alternate");
        }
    }

    #[test]
    fn idle_fractions_match_the_thesis_bands() {
        let mut rng = DetRng::seed_from(7);
        let model = ActivityModel::default();
        let traces: Vec<ActivityTrace> = (0..200)
            .map(|i| {
                ActivityTrace::generate(
                    &mut rng,
                    &model,
                    HostId::new(i),
                    SimDuration::from_secs(WEEK),
                )
            })
            .collect();
        // Average over weekday working hours (Mon-Fri, 9-18).
        let mut day = Vec::new();
        let mut night = Vec::new();
        for day_idx in 0..7u64 {
            for hour in 0..24u64 {
                let t =
                    SimTime::ZERO + SimDuration::from_secs(day_idx * DAY + hour * HOUR + 30 * 60);
                let f = fraction_idle(&traces, t);
                if is_working_hours(t) {
                    day.push(f);
                } else {
                    night.push(f);
                }
            }
        }
        let day_avg = day.iter().sum::<f64>() / day.len() as f64;
        let night_avg = night.iter().sum::<f64>() / night.len() as f64;
        assert!(
            (0.60..0.78).contains(&day_avg),
            "daytime idle fraction {day_avg} outside the 65-70% band"
        );
        assert!(
            night_avg > 0.75,
            "off-hours idle fraction {night_avg} should reach ~80%"
        );
        assert!(night_avg > day_avg);
    }

    #[test]
    fn idle_duration_tracks_last_activity() {
        let mut rng = DetRng::seed_from(3);
        let tr = ActivityTrace::generate(
            &mut rng,
            &ActivityModel::default(),
            HostId::new(0),
            SimDuration::from_secs(DAY),
        );
        // Find an idle->active transition and check durations around it.
        let evs = tr.events();
        if let Some(w) = evs.windows(2).find(|w| !w[0].active && w[1].active) {
            let mid = w[0].at + w[1].at.elapsed_since(w[0].at) / 2;
            assert_eq!(
                tr.idle_duration_at(mid),
                mid.elapsed_since(w[0].at),
                "idle duration counts from the idle period's start"
            );
            assert_eq!(tr.idle_duration_at(w[1].at), SimDuration::ZERO);
        }
    }

    /// The answer the unhinted lookup gives: `(active_at, idle_duration_at)`
    /// from a fresh binary search.
    fn unhinted(events: &[ActivityEvent], t: SimTime) -> (bool, SimDuration) {
        let i = events.partition_point(|e| e.at <= t);
        match i.checked_sub(1).map(|j| events[j]) {
            Some(e) if e.active => (true, SimDuration::ZERO),
            Some(e) => (false, t.elapsed_since(e.at)),
            None => (false, t.elapsed_since(SimTime::ZERO)),
        }
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn hinted_lookups_match_binary_search_in_any_order() {
        let mut rng = DetRng::seed_from(11);
        let tr = ActivityTrace::generate(
            &mut rng,
            &ActivityModel::default(),
            HostId::new(0),
            SimDuration::from_secs(3 * DAY),
        );
        let last = tr
            .events()
            .last()
            .map(|e| e.at.as_micros() / 1_000_000)
            .unwrap_or(0);
        let mut times: Vec<u64> = (0..2_000)
            .map(|_| rng.uniform_u64(3 * DAY + HOUR))
            .collect();
        times.extend((0..3 * DAY).rev().step_by(97)); // decreasing
        times.extend([5_000; 4]); // repeated
        times.extend([last, last + 1, last + DAY, 0, last]); // at, past the last event
        for t in times {
            let t = secs(t);
            let want = unhinted(tr.events(), t);
            assert_eq!((tr.active_at(t), tr.idle_duration_at(t)), want, "t = {t}");
        }
        // A trace whose first transition comes after time zero: lookups
        // before it find no event, from any hint.
        let events = vec![
            ActivityEvent {
                at: secs(100),
                active: true,
            },
            ActivityEvent {
                at: secs(200),
                active: false,
            },
            ActivityEvent {
                at: secs(300),
                active: true,
            },
        ];
        for hint in 0..=events.len() {
            for t in [0, 99, 100, 150, 200, 299, 300, 10_000] {
                let want = events.partition_point(|e| e.at <= secs(t));
                assert_eq!(locate(&events, hint, secs(t)).0, want, "hint {hint} t {t}");
            }
        }
        let late = ActivityTrace {
            host: HostId::new(1),
            events,
            hint: AtomicUsize::new(3),
        };
        assert_eq!(
            (late.active_at(secs(50)), late.idle_duration_at(secs(50))),
            (false, SimDuration::from_secs(50))
        );
        assert_eq!(
            (late.active_at(secs(250)), late.idle_duration_at(secs(250))),
            (false, SimDuration::from_secs(50))
        );
    }

    /// The work counter beside the wall-clock metric: a monotone one-minute
    /// sweep over a 15-day trace answers from the hint or the index after
    /// it, and falls back to a binary search only for a minute in which
    /// two or more transitions happened — so at most once per transition.
    #[test]
    fn minute_sweep_falls_back_to_search_at_most_once_per_transition() {
        let tr = ActivityTrace::generate(
            &mut DetRng::seed_from(53),
            &ActivityModel::default(),
            HostId::new(0),
            SimDuration::from_secs(15 * DAY),
        );
        let events = tr.events();
        let (mut hint, mut searches, mut crowded_minutes) = (0, 0, 0);
        for minute in 0..15 * DAY / 60 {
            let t = secs(60 * minute);
            let (i, probe) = locate(events, hint, t);
            assert_eq!(i, events.partition_point(|e| e.at <= t));
            match probe {
                Probe::Hint => assert_eq!(i, hint),
                Probe::Next => assert_eq!(i, hint + 1),
                Probe::Search => searches += 1,
            }
            if i >= hint + 2 {
                crowded_minutes += 1;
            }
            hint = i;
        }
        assert_eq!(
            searches, crowded_minutes,
            "a search only when two transitions passed"
        );
        assert!(
            searches <= events.len(),
            "{searches} searches for {} transitions",
            events.len()
        );
        assert!(
            searches as u64 * 100 < 15 * DAY / 60,
            "{searches} searches in a 15-day sweep"
        );
    }

    #[test]
    fn traces_stay_shareable_across_threads() {
        fn shareable<T: Send + Sync>() {}
        shareable::<ActivityTrace>();
    }

    #[test]
    fn same_seed_reproduces_the_same_trace() {
        let model = ActivityModel::default();
        let a = ActivityTrace::generate(
            &mut DetRng::seed_from(9),
            &model,
            HostId::new(0),
            SimDuration::from_secs(DAY),
        );
        let b = ActivityTrace::generate(
            &mut DetRng::seed_from(9),
            &model,
            HostId::new(0),
            SimDuration::from_secs(DAY),
        );
        assert_eq!(a.events(), b.events());
    }
}
