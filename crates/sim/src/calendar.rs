//! The calendar queue — the workspace's pending-event set.
//!
//! Month-long runs execute tens of millions of events, so this is the
//! hottest data structure in the repository. Instead of a binary heap
//! (O(log n) per operation) the queue keeps an array of time buckets, each
//! `width` microseconds wide, covering one "year" of `nbuckets * width`
//! microseconds (Brown 1988). Enqueue drops an entry into the bucket its
//! timestamp maps to — O(1). Entries beyond the current year wait in a
//! sorted overflow queue and migrate into buckets as years advance; when
//! every bucket is empty the queue jumps straight to the year of the next
//! overflow entry instead of ticking through empty buckets.
//!
//! A doubling/halving resize policy keeps the *average* bucket small, but
//! it cannot spread entries that share one timestamp: a lattice of periodic
//! timers (every host ticking on the same minute) puts k entries into one
//! bucket however narrow the buckets get. Scanning that bucket for its
//! minimum on every pop would cost O(k) per pop, O(k²) to drain it. So the
//! queue keeps one invariant instead: **when the cursor lands on a
//! non-empty bucket, its entries move once into the `head` queue, sorted by
//! key.** Pops then take the front of `head` in O(1), a peek reads it, and
//! a push into the cursor bucket while `head` holds it inserts at its
//! `partition_point` (O(log k) comparisons); pushes into any other bucket
//! stay plain O(1) appends. `head` is empty whenever the cursor moves: it
//! drains before the cursor steps forward, and its entries go back into
//! their bucket when a push behind the cursor pulls the cursor back.
//! Draining a bucket of k entries costs O(k log k) comparisons in total —
//! O(log k) amortized per pop — and O(1) when buckets hold a handful of
//! entries. [`EngineCounters::entries_compared`] counts every key
//! comparison the queue makes, so the cost is observable rather than
//! inferred.
//!
//! `head` is a `VecDeque`, so a sorted insert moves only the entries on
//! the shorter side of the insert point. The entries pushed while a crowded
//! bucket drains are mostly messages due a few milliseconds after the
//! lattice timestamp: they sort after everything still queued, land near
//! the back, and move almost nothing. (A `Vec` sorted the other way round,
//! popped from the back, would shift the whole remaining bucket on each
//! such insert: O(k) per insert again.) The buckets themselves stay plain
//! `Vec`s: a rebuild allocates tens of thousands of them.
//!
//! The queue is generic over its entry type so that both the serial
//! [`crate::Engine`] (closure events keyed `(time, seq)`) and the sharded
//! conservative-parallel engine in [`crate::shard`] (data events keyed
//! `(time, cell, seq)`) share one implementation — and one set of effort
//! counters ([`EngineCounters`]).

use std::collections::VecDeque;

use crate::stats::EngineCounters;

/// An entry the calendar can hold: a timestamp plus a tie-break key. The
/// triple `(at_micros, tie.0, tie.1)` must totally order entries; the queue
/// pops them in ascending order of that triple.
pub(crate) trait CalendarEntry {
    /// Absolute simulated time of the entry, in microseconds.
    fn at_micros(&self) -> u64;
    /// Tie-break key applied after the timestamp.
    fn tie(&self) -> (u64, u64);
}

/// Full ordering key of an entry.
fn key<T: CalendarEntry>(e: &T) -> (u64, u64, u64) {
    let (a, b) = e.tie();
    (e.at_micros(), a, b)
}

/// Outcome of asking the calendar for the next due entry.
pub(crate) enum Pop<T> {
    /// Nothing pending at all.
    Empty,
    /// The next entry lies beyond the deadline; it stays queued.
    Parked,
    /// The earliest entry, removed from the queue.
    Event(T),
}

const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;
/// The calendar year covers this multiple of the observed event spread.
/// Steady-state periodic workloads keep a pending set spanning one period;
/// a year many periods long means re-armed ticks almost always land inside
/// the current year (O(1) bucket insert) instead of in the overflow list.
const YEAR_SPREAD_FACTOR: u64 = 16;
/// Buckets allocated per pending entry at rebuild. Together with the factor
/// above this targets ~2 entries per occupied bucket.
const BUCKETS_PER_EVENT: usize = 8;

/// The bucketed pending-event set. All times are in microseconds.
pub(crate) struct Calendar<T> {
    /// Unsorted entries, one list per bucket.
    buckets: Vec<Vec<T>>,
    /// Microseconds per bucket (>= 1).
    width: u64,
    /// Start of bucket 0's window for the current rotation.
    year_start: u64,
    /// Next bucket index to inspect.
    cursor: usize,
    /// The cursor bucket's entries, sorted by key (soonest at the front),
    /// once the cursor has landed on it. While `head` is non-empty,
    /// `buckets[cursor]` is empty.
    head: VecDeque<T>,
    /// Entries at or beyond `year_end()`, sorted by key (soonest at the
    /// front).
    overflow: VecDeque<T>,
    /// Time of the most recently popped entry (0 before the first pop): the
    /// simulation's current time, as far as the queue can tell.
    now: u64,
    len: usize,
    /// Rebuild when `len` exceeds this (set to 2x the size at last rebuild).
    grow_at: usize,
    /// Rebuild when `len` drops below this (1/4 the size at last rebuild).
    shrink_at: usize,
}

impl<T: CalendarEntry> Calendar<T> {
    pub(crate) fn new() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1_000,
            year_start: 0,
            cursor: 0,
            head: VecDeque::new(),
            overflow: VecDeque::new(),
            now: 0,
            len: 0,
            grow_at: 32,
            shrink_at: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn year_len(&self) -> u64 {
        // Widths are clamped at resize so this cannot overflow.
        self.width * self.buckets.len() as u64
    }

    fn year_end(&self) -> u64 {
        self.year_start.saturating_add(self.year_len())
    }

    /// Inserts without resize bookkeeping.
    fn place(&mut self, ev: T, counters: &mut EngineCounters) {
        let at = ev.at_micros();
        debug_assert!(at >= self.year_start, "entry behind the calendar year");
        if at >= self.year_end() {
            insert_sorted(&mut self.overflow, ev, counters);
            return;
        }
        let idx = ((at - self.year_start) / self.width) as usize;
        if idx == self.cursor && !self.head.is_empty() {
            insert_sorted(&mut self.head, ev, counters);
            return;
        }
        // The cursor may already have advanced past this bucket (it moves
        // forward whenever a pop or peek scans over empty buckets, e.g.
        // while a shard is parked at a window boundary). Pushing behind it
        // must pull it back, or the entry becomes invisible until the year
        // wraps; the old cursor bucket's sorted entries go back with it.
        // (A parked cursor may sit past the last bucket; `head` is empty
        // then.)
        if idx < self.cursor {
            if !self.head.is_empty() {
                self.buckets[self.cursor].extend(self.head.drain(..));
            }
            self.cursor = idx;
        }
        self.buckets[idx].push(ev);
    }

    pub(crate) fn push(&mut self, ev: T, counters: &mut EngineCounters) {
        let at = ev.at_micros();
        if self.len == 0 {
            // Re-anchor the calendar on the first entry after an idle spell
            // so `cursor`/`year_start` never have to run backwards.
            self.year_start = at - at % self.width;
            self.cursor = 0;
        } else if at < self.year_start {
            // An entry before the anchor (only possible from external
            // scheduling between runs, never from handlers — they schedule
            // at or after `now`). Rare enough to just re-anchor everything.
            let mut events = self.gather();
            events.push(ev);
            self.rebuild(events, counters);
            return;
        }
        self.place(ev, counters);
        self.len += 1;
        if self.len > self.grow_at {
            self.resize(counters);
        }
    }

    /// Drains every pending entry into one unordered list.
    fn gather(&mut self) -> Vec<T> {
        let mut events: Vec<T> = Vec::with_capacity(self.len);
        events.extend(self.head.drain(..));
        for b in &mut self.buckets {
            events.append(b);
        }
        events.extend(self.overflow.drain(..));
        events
    }

    /// Rebuilds with a bucket count and width matched to the current entry
    /// population.
    fn resize(&mut self, counters: &mut EngineCounters) {
        let events = self.gather();
        self.rebuild(events, counters);
    }

    fn rebuild(&mut self, events: Vec<T>, counters: &mut EngineCounters) {
        counters.resizes += 1;
        let n = events.len();
        self.grow_at = (2 * n).max(32);
        self.shrink_at = n / 4;
        let nbuckets = (BUCKETS_PER_EVENT * n.max(1))
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != nbuckets {
            self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        }
        self.cursor = 0;
        self.len = n;
        if events.is_empty() {
            return;
        }
        let min = events.iter().map(|e| e.at_micros()).min().unwrap();
        let max = events.iter().map(|e| e.at_micros()).max().unwrap();
        // Size the year to several times the span from now to the last
        // pending entry (see YEAR_SPREAD_FACTOR); clamp so `width * nbuckets`
        // stays far from u64 overflow. Measuring from the earliest pending
        // entry instead would misjudge a set clustered on one instant, such
        // as a timer lattice seeded before the run: its span is 0, the width
        // collapses to 1 µs, and until the next rebuild — which a steady
        // population may never trigger — every lattice period scans the
        // whole, almost empty, year.
        let span = max - min.min(self.now);
        self.width = (YEAR_SPREAD_FACTOR.saturating_mul(span) / nbuckets as u64)
            .clamp(1, u64::MAX / (4 * nbuckets as u64));
        self.year_start = min - min % self.width;
        for ev in events {
            self.place(ev, counters);
        }
    }

    /// Advances to the year containing the next pending entry. Caller
    /// guarantees every bucket is empty and the overflow list is not.
    fn advance_year(&mut self, counters: &mut EngineCounters) {
        debug_assert!(!self.overflow.is_empty());
        let next_at = self.overflow.front().map(|e| e.at_micros()).unwrap();
        let contiguous_end = self.year_end().saturating_add(self.year_len());
        self.year_start = if next_at < contiguous_end {
            // The next entry lives in the very next year: roll forward.
            self.year_end()
        } else {
            // Far-future gap: jump straight to the entry's year.
            next_at - next_at % self.width
        };
        self.cursor = 0;
        let year_end = self.year_end();
        while let Some(ev) = self.overflow.front() {
            if ev.at_micros() >= year_end {
                break;
            }
            let ev = self.overflow.pop_front().unwrap();
            counters.overflow_migrations += 1;
            let idx = ((ev.at_micros() - self.year_start) / self.width) as usize;
            self.buckets[idx].push(ev);
        }
    }

    /// Moves the cursor to the first non-empty bucket of the current year,
    /// advancing years out of the overflow list as needed, and makes sure
    /// `head` holds that bucket, sorted. Returns the earliest pending
    /// entry's time. With a `deadline`, stops early (returning `None`) when
    /// every bucket is drained and the next overflow entry lies beyond it,
    /// so a parked caller never migrates a year it is not allowed to enter.
    /// Caller guarantees the queue is not empty.
    fn seek(&mut self, deadline: Option<u64>, counters: &mut EngineCounters) -> Option<u64> {
        loop {
            while self.cursor < self.buckets.len() {
                counters.buckets_scanned += 1;
                if self.head.is_empty() {
                    let bucket = &mut self.buckets[self.cursor];
                    if bucket.is_empty() {
                        self.cursor += 1;
                        continue;
                    }
                    // All entries in this bucket precede every entry in later
                    // buckets and in overflow; once sorted, the front is the
                    // global minimum.
                    self.head.extend(bucket.drain(..));
                    let mut compared = 0u64;
                    self.head.make_contiguous().sort_unstable_by(|a, b| {
                        compared += 1;
                        key(a).cmp(&key(b))
                    });
                    counters.entries_compared += compared;
                }
                return self.head.front().map(|e| e.at_micros());
            }
            // Every bucket drained; the remaining entries are all overflow.
            if let Some(d) = deadline {
                if self.overflow.front().is_some_and(|e| e.at_micros() > d) {
                    return None;
                }
            }
            self.advance_year(counters);
        }
    }

    /// Removes and returns the earliest entry, unless it lies beyond
    /// `deadline` (microseconds, inclusive).
    pub(crate) fn pop_due(
        &mut self,
        deadline: Option<u64>,
        counters: &mut EngineCounters,
    ) -> Pop<T> {
        if self.len == 0 {
            return Pop::Empty;
        }
        match self.seek(deadline, counters) {
            Some(at) if deadline.is_none_or(|d| at <= d) => {}
            _ => return Pop::Parked,
        }
        let ev = self.head.pop_front().unwrap();
        self.now = ev.at_micros();
        self.len -= 1;
        if self.len < self.shrink_at {
            self.resize(counters);
        }
        Pop::Event(ev)
    }

    /// Timestamp of the earliest pending entry without removing it. Advances
    /// the cursor over drained buckets (and migrates overflow years) exactly
    /// as [`Calendar::pop_due`] would, so a following pop reads the bucket
    /// that answered without rescanning or resorting it. Used by the sharded
    /// engine to pick the next barrier window.
    pub(crate) fn next_time(&mut self, counters: &mut EngineCounters) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.seek(None, counters)
    }
}

/// Inserts `ev` into `list`, which is sorted by key, counting the binary
/// search's comparisons.
fn insert_sorted<T: CalendarEntry>(list: &mut VecDeque<T>, ev: T, counters: &mut EngineCounters) {
    let k = key(&ev);
    let mut compared = 0u64;
    let idx = list.partition_point(|e| {
        compared += 1;
        key(e) < k
    });
    counters.entries_compared += compared;
    list.insert(idx, ev);
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;
    use crate::DetRng;

    /// A sharded-engine-shaped entry keyed `(time, cell, seq)`.
    #[derive(Debug)]
    struct Entry {
        at: u64,
        cell: u64,
        seq: u64,
    }

    impl CalendarEntry for Entry {
        fn at_micros(&self) -> u64 {
            self.at
        }
        fn tie(&self) -> (u64, u64) {
            (self.cell, self.seq)
        }
    }

    const MINUTE: u64 = 60_000_000;

    /// The calendar beside a binary-heap model of the same pending set.
    /// Every operation runs against both and must agree.
    struct Harness {
        cal: Calendar<Entry>,
        model: BinaryHeap<Reverse<(u64, u64, u64)>>,
        counters: EngineCounters,
        seq: u64,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                cal: Calendar::new(),
                model: BinaryHeap::new(),
                counters: EngineCounters::default(),
                seq: 0,
            }
        }

        fn push(&mut self, at: u64, cell: u64) {
            self.seq += 1;
            let e = Entry {
                at,
                cell,
                seq: self.seq,
            };
            self.model.push(Reverse(key(&e)));
            self.cal.push(e, &mut self.counters);
            assert_eq!(self.cal.len(), self.model.len());
        }

        /// Pops against `deadline`; returns the popped entry's time, or
        /// `None` when the calendar parked or was empty.
        fn pop(&mut self, deadline: Option<u64>) -> Option<u64> {
            let want = self
                .model
                .peek()
                .map(|r| r.0)
                .filter(|k| deadline.is_none_or(|d| k.0 <= d));
            let got = match self.cal.pop_due(deadline, &mut self.counters) {
                Pop::Event(e) => {
                    assert_eq!(Some(key(&e)), want, "popped out of key order");
                    self.model.pop();
                    Some(e.at)
                }
                Pop::Parked => {
                    assert!(want.is_none() && !self.model.is_empty(), "parked wrongly");
                    None
                }
                Pop::Empty => {
                    assert!(self.model.is_empty(), "empty with entries pending");
                    None
                }
            };
            assert_eq!(self.cal.len(), self.model.len());
            got
        }

        fn peek(&mut self) -> Option<u64> {
            let got = self.cal.next_time(&mut self.counters);
            assert_eq!(
                got,
                self.model.peek().map(|r| r.0 .0),
                "next_time disagrees"
            );
            got
        }

        fn drain(&mut self) {
            while self.pop(None).is_some() {}
            assert!(self.model.is_empty());
        }

        /// The bucket `at` maps to, if it lies inside the current year.
        fn bucket_of(&self, at: u64) -> Option<usize> {
            (at >= self.cal.year_start && at < self.cal.year_end())
                .then(|| ((at - self.cal.year_start) / self.cal.width) as usize)
        }
    }

    /// `0..n` in a seeded random order, so a bucket never arrives presorted.
    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut rng = DetRng::seed_from(seed);
        let mut v: Vec<u64> = (0..n).collect();
        for i in (1..v.len()).rev() {
            let j = rng.uniform_u64(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }

    #[test]
    fn crowded_same_time_lattice_pops_in_key_order() {
        let mut h = Harness::new();
        for cell in shuffled(2_000, 1) {
            h.push(MINUTE, cell);
            h.push(2 * MINUTE, cell);
        }
        h.drain();
    }

    #[test]
    fn pushes_into_the_sorted_cursor_bucket_while_it_drains() {
        let mut h = Harness::new();
        // A spread of times widens the buckets past one microsecond, so a
        // slightly later time can share the lattice's bucket.
        for m in 0..10 {
            h.push(m * MINUTE + 7, 10_000 + m);
        }
        for cell in shuffled(500, 2) {
            h.push(5 * MINUTE, 1_000 + cell);
        }
        while h.peek() != Some(5 * MINUTE) {
            h.pop(None);
        }
        for _ in 0..10 {
            h.pop(None);
        }
        assert!(
            !h.cal.head.is_empty(),
            "the answering bucket moved into head"
        );
        let later = 5 * MINUTE + 1_000;
        assert_eq!(h.bucket_of(later), Some(h.cal.cursor));
        let before = h.counters.entries_compared;
        let resizes = h.counters.resizes;
        for i in 0..50 {
            // Below the current front: same time, lower cell IDs.
            h.push(5 * MINUTE, i);
            // Above it: higher cells, and a later time in the same bucket.
            h.push(5 * MINUTE, 5_000 + i);
            h.push(later, i);
            if i == 0 {
                assert_eq!(h.counters.resizes, resizes);
                assert!(
                    h.cal.buckets[h.cal.cursor].is_empty(),
                    "pushes went into head"
                );
                assert!(h.counters.entries_compared > before, "inserts are counted");
            }
            // A later grow rebuild empties head; order must still hold.
            if i % 3 == 0 {
                h.pop(None);
                h.peek();
            }
        }
        assert!(
            h.counters.resizes > resizes,
            "the pushes cross a grow rebuild"
        );
        h.drain();
    }

    #[test]
    fn parked_after_the_sort_then_more_pushes() {
        let mut h = Harness::new();
        for cell in shuffled(300, 3) {
            h.push(MINUTE, 100 + cell);
        }
        assert_eq!(h.pop(Some(MINUTE - 1)), None);
        assert!(
            !h.cal.head.is_empty(),
            "parking still sorts the answering bucket"
        );
        for i in 0..20 {
            h.push(MINUTE, i);
            h.push(MINUTE, 1_000 + i);
            h.push(3 * MINUTE, i);
            assert_eq!(h.pop(Some(MINUTE - 1)), None);
        }
        assert_eq!(h.pop(Some(MINUTE)), Some(MINUTE));
        assert_eq!(h.peek(), Some(MINUTE));
        h.drain();
    }

    #[test]
    fn shrink_resize_in_the_middle_of_a_bucket() {
        let mut h = Harness::new();
        for cell in shuffled(2_000, 4) {
            h.push(MINUTE, cell);
        }
        h.push(4 * MINUTE, 0);
        let resizes = h.counters.resizes;
        for _ in 0..1_900 {
            h.pop(None);
        }
        assert!(
            h.counters.resizes > resizes,
            "draining below a quarter must shrink mid-bucket"
        );
        // The rebuild unsorted everything; entries still come out in order,
        // including ones pushed into the rebuilt bucket.
        h.push(MINUTE, 0);
        h.push(MINUTE, 5_000);
        h.drain();
    }

    #[test]
    fn push_behind_the_cursor_rewinds_it() {
        let mut h = Harness::new();
        for cell in 0..5 {
            h.push(MINUTE, cell);
        }
        for cell in shuffled(200, 5) {
            h.push(3 * MINUTE, cell);
        }
        for _ in 0..5 {
            assert_eq!(h.pop(None), Some(MINUTE));
        }
        assert_eq!(h.peek(), Some(3 * MINUTE));
        let cursor = h.cal.cursor;
        assert!(!h.cal.head.is_empty());
        assert!(h.bucket_of(2 * MINUTE).is_some_and(|b| b < cursor));
        h.push(2 * MINUTE, 9);
        assert!(h.cal.cursor < cursor, "the cursor rewinds to the new entry");
        assert!(h.cal.head.is_empty(), "head went back into its bucket");
        assert_eq!(h.peek(), Some(2 * MINUTE));
        assert_eq!(h.pop(None), Some(2 * MINUTE));
        assert_eq!(h.peek(), Some(3 * MINUTE));
        h.drain();
    }

    #[test]
    fn parked_past_the_last_bucket_then_a_push_inside_the_year() {
        let mut h = Harness::new();
        h.push(0, 1);
        h.push(10 * MINUTE, 1);
        assert_eq!(h.pop(None), Some(0));
        // Every bucket of the year is drained and the overflow entry lies
        // beyond the deadline: the cursor parks past the last bucket.
        assert_eq!(h.pop(Some(MINUTE)), None);
        assert_eq!(h.cal.cursor, h.cal.buckets.len());
        let inside = h.cal.year_end() - 1;
        h.push(inside, 2);
        assert_eq!(h.pop(Some(MINUTE)), Some(inside));
        h.drain();
    }

    #[test]
    fn randomized_mixes_match_a_binary_heap() {
        for seed in 0..20 {
            let mut rng = DetRng::seed_from(0xca1e_0000 + seed);
            let mut h = Harness::new();
            let mut now = 0u64;
            for _ in 0..4_000 {
                let cell = rng.uniform_u64(64);
                match rng.uniform_u64(20) {
                    // The minute lattice: many cells on one timestamp.
                    0..=5 => h.push((now / MINUTE + 1) * MINUTE, cell),
                    6..=7 => h.push(now, cell),
                    8..=9 => h.push(now + rng.uniform_u64(5 * MINUTE), cell),
                    10 => h.push(now + rng.uniform_u64(30 * 24 * 60 * MINUTE), cell),
                    // Behind the last pop: rewinds the cursor, or re-anchors
                    // the whole calendar when it falls before the year.
                    11 => h.push(now.saturating_sub(rng.uniform_u64(2 * MINUTE)), cell),
                    12..=15 => now = h.pop(None).unwrap_or(now),
                    16..=17 => {
                        let d = now + rng.uniform_u64(MINUTE);
                        now = h.pop(Some(d)).unwrap_or(now);
                    }
                    _ => {
                        h.peek();
                    }
                }
            }
            h.drain();
        }
    }

    #[test]
    fn lattice_seeded_at_one_instant_scans_few_buckets() {
        // Every timer seeded on the same instant before the first pop, then
        // re-armed one period ahead as it fires. The seeding rebuilds see a
        // span of 0; a year sized from it would be 1 µs per bucket, and each
        // period would sweep a whole, almost empty, year.
        const HOSTS: u64 = 5_000;
        let mut h = Harness::new();
        for cell in shuffled(HOSTS, 7) {
            h.push(MINUTE, cell);
        }
        let scanned = h.counters.buckets_scanned;
        let pops = 10 * HOSTS;
        for _ in 0..pops {
            let at = h.pop(None).unwrap();
            h.push(at + MINUTE, h.seq % HOSTS);
        }
        let per_pop = (h.counters.buckets_scanned - scanned) as f64 / pops as f64;
        assert!(per_pop <= 4.0, "{per_pop:.1} buckets scanned per pop");
        h.drain();
    }

    #[test]
    fn crowded_bucket_pops_cost_log_k_comparisons() {
        const K: u64 = 2_000;
        let mut h = Harness::new();
        for cell in shuffled(K, 6) {
            h.push(MINUTE, cell);
        }
        let before = h.counters.entries_compared;
        h.drain();
        let per_pop = (h.counters.entries_compared - before) as f64 / K as f64;
        let bound = 2.0 * (K as f64).log2();
        assert!(
            per_pop <= bound,
            "{per_pop:.1} comparisons per pop from a {K}-entry bucket (bound {bound:.1})"
        );
    }
}
