//! A `HostSelector` that times every call into the one it wraps.

use sprite_hostsel::{HostInfo, HostSelector, SelectorStats};
use sprite_net::{HostId, Transport};
use sprite_sim::SimTime;

use crate::spans::{span, Span};

/// Records a span around `report`, `select` and `release`.
pub struct TimedSelector<S>(pub S);

impl<S: HostSelector> HostSelector for TimedSelector<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn report(&mut self, net: &mut Transport, now: SimTime, info: HostInfo) -> SimTime {
        span(Span::HostselReport, || self.0.report(net, now, info))
    }

    fn select(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        truth: &[HostInfo],
    ) -> (Option<HostId>, SimTime) {
        span(Span::HostselSelect, || {
            self.0.select(net, now, requester, truth)
        })
    }

    fn release(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        requester: HostId,
        host: HostId,
    ) -> SimTime {
        span(Span::HostselRelease, || {
            self.0.release(net, now, requester, host)
        })
    }

    fn stats(&self) -> &SelectorStats {
        self.0.stats()
    }
}
