//! Bounded, age-stamped load caches and the allocation-free ranking fast
//! path shared by the decentralized selection architectures.
//!
//! The centralized selectors keep `BTreeMap` tables and build a fresh
//! `Vec` of candidates per query — fine for one daemon, fatal for a
//! per-host cache at 10 000 hosts. [`LoadCache`] is a fixed-slot array
//! (no hashing, no allocation after construction): inserts refresh an
//! existing entry in place or overwrite the *stalest* slot when full, and
//! stale entries are never eagerly evicted — readers simply skip anything
//! older than their trust horizon, the same epoch/age discipline the
//! fault layer uses for stale load reports. [`Ranker`] is the matching
//! query side: one reusable scratch buffer, sorted in place, with a
//! growth counter so benchmarks can assert the steady state allocates
//! nothing.
//!
//! Every host's daemon reports once a simulated minute and its gossip
//! pushes land in its peers' caches, so the slot search, the victim search
//! and the gossip batch builder sit on the hot path. The cache therefore
//! keeps two packed columns beside the entries: the `u32` host keys, which
//! the slot search scans, and the `written` stamps, which the victim
//! search and the batch builder scan. Slots are never freed, so the
//! occupied slots are always a prefix of the array: one occupancy count
//! says both how many keys to scan and whether a free slot exists, and no
//! sentinel key marks empty slots. The slot order, the victim (the
//! *first* stalest slot) and the batch order are exactly those of a plain
//! `Option<CacheEntry>` array scanned front to back; the test-only
//! reference model below pins that down, because gossip batches, and with
//! them every digest, depend on which entry a full cache evicts.

use sprite_net::HostId;
use sprite_sim::{SimDuration, SimTime};

use crate::load::{AvailabilityPolicy, HostInfo};

/// One cached observation of a peer's load state.
#[derive(Debug, Clone, Copy)]
pub struct CacheEntry {
    /// The observed state.
    pub info: HostInfo,
    /// When the origin host measured it (not when it arrived here), so a
    /// relayed entry ages from its measurement, never from its last hop.
    pub written: SimTime,
}

impl CacheEntry {
    /// The entry's age at `now`.
    pub fn age(&self, now: SimTime) -> SimDuration {
        now.saturating_elapsed_since(self.written)
    }
}

/// Batch members [`LoadCache::freshest_into`] selects per pass over the
/// slots; gossip batches are smaller, so one pass is the rule.
const ROUND: usize = 16;

/// A bounded, age-stamped load cache with fixed storage.
///
/// Slots `0..len` are occupied; the three columns are indexed alike and
/// never read past `len`.
#[derive(Debug, Clone)]
pub struct LoadCache {
    /// Host index of each slot: the column the key search scans.
    keys: Box<[u32]>,
    /// `written` of each slot: the column the victim search and the gossip
    /// batch builder scan.
    stamps: Box<[SimTime]>,
    /// The cached observations themselves.
    entries: Box<[CacheEntry]>,
    /// Occupied slots. Slots fill front to back and are never freed.
    len: usize,
}

impl LoadCache {
    /// A cache with `capacity` slots (at least one). All storage is
    /// allocated here; nothing grows afterwards.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let vacant = CacheEntry {
            info: HostInfo::idle_host(HostId::new(0), SimDuration::ZERO),
            written: SimTime::ZERO,
        };
        LoadCache {
            keys: vec![0; capacity].into_boxed_slice(),
            stamps: vec![SimTime::ZERO; capacity].into_boxed_slice(),
            entries: vec![vacant; capacity].into_boxed_slice(),
            len: 0,
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot holding `host`, if any.
    fn slot_of(&self, host: HostId) -> Option<usize> {
        let key = host.index() as u32;
        self.keys[..self.len].iter().position(|&k| k == key)
    }

    fn store(&mut self, slot: usize, entry: CacheEntry) {
        self.keys[slot] = entry.info.host.index() as u32;
        self.stamps[slot] = entry.written;
        self.entries[slot] = entry;
    }

    /// Inserts or refreshes an observation. An existing entry for the same
    /// host is replaced only by a fresher stamp (relays cannot roll time
    /// backwards). When the cache is full the stalest slot — the first one
    /// in slot order on a tie — is overwritten. Returns whether the entry
    /// was stored.
    pub fn insert(&mut self, entry: CacheEntry) -> bool {
        if let Some(i) = self.slot_of(entry.info.host) {
            if entry.written < self.stamps[i] {
                return false;
            }
            self.store(i, entry);
            return true;
        }
        let slot = if self.len < self.capacity() {
            self.len += 1;
            self.len - 1
        } else {
            let (mut victim, mut stalest) = (0, self.stamps[0]);
            for (i, &w) in self.stamps.iter().enumerate().skip(1) {
                if w < stalest {
                    (victim, stalest) = (i, w);
                }
            }
            // Never replace a fresher observation with a staler one.
            if entry.written < stalest {
                return false;
            }
            victim
        };
        self.store(slot, entry);
        true
    }

    /// Applies `adjust` to the cached load of `host` (anticipation and
    /// release bookkeeping); returns whether `host` was cached. Only the
    /// load can change this way, so the key and stamp columns stay valid.
    pub fn adjust_load(&mut self, host: HostId, adjust: impl FnOnce(f64) -> f64) -> bool {
        match self.slot_of(host) {
            Some(i) => {
                let load = &mut self.entries[i].info.load;
                *load = adjust(*load);
                true
            }
            None => false,
        }
    }

    /// The cached entry for `host`, if any.
    pub fn get(&self, host: HostId) -> Option<&CacheEntry> {
        self.slot_of(host).map(|i| &self.entries[i])
    }

    /// Every occupied slot, in slot order (callers needing a deterministic
    /// ranking sort through [`Ranker`], never iterate raw slots into
    /// scheduling decisions).
    pub fn entries(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries[..self.len].iter()
    }

    /// Copies the up-to-`limit` freshest entries into `out` (freshest
    /// first, host id breaking ties), reusing `out`'s storage. This is the
    /// gossip batch builder: one pass over the stamp and key columns per
    /// [`ROUND`] members, no allocation once `out` has warmed up, and only
    /// the members' entries are read. `(written desc, host asc)` is a
    /// strict total order and the partial batch stays sorted under it, so
    /// once it is full a slot that does not beat its last member beats
    /// none of them and is rejected by that one comparison.
    pub fn freshest_into(&self, limit: usize, out: &mut Vec<CacheEntry>) {
        out.clear();
        // Higher rank = earlier in the batch. The slot rides in the low
        // bits so the winners' entries are copied once, at the end; it
        // never decides an order, because keys are unique.
        let rank = |i: usize| {
            (u128::from(self.stamps[i].as_micros()) << 64)
                | (u128::from(u32::MAX - self.keys[i]) << 32)
                | i as u128
        };
        let limit = limit.min(self.len);
        // Ranks at or above `ceiling` are already in `out`. A slot index
        // is below `u32::MAX`, so no rank equals the first ceiling.
        let mut ceiling = u128::MAX;
        while out.len() < limit {
            // One pass picks the next up-to-`ROUND` members, best first.
            let want = (limit - out.len()).min(ROUND);
            let mut top = [0u128; ROUND];
            let mut n = 0;
            for i in 0..self.len {
                let r = rank(i);
                if r >= ceiling || (n == want && r < top[want - 1]) {
                    continue;
                }
                n = (n + 1).min(want);
                let mut j = n - 1;
                while j > 0 && r > top[j - 1] {
                    top[j] = top[j - 1];
                    j -= 1;
                }
                top[j] = r;
            }
            out.extend(top[..n].iter().map(|&r| self.entries[r as u32 as usize]));
            ceiling = top[n - 1];
        }
    }
}

/// How [`Ranker::rank`] orders surviving candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankOrder {
    /// Freshest observation first (gossip: distrust old news), then
    /// longest idle, then lowest host id.
    FreshestFirst,
    /// Longest idle first (coordinator tables: Mutka/Livny \[ML87\]), then
    /// lowest host id.
    IdlestFirst,
}

/// The allocation-free ranking fast path: one reusable scratch buffer,
/// sorted in place with `sort_unstable_by` (itself allocation-free for
/// `Copy` elements), plus a growth counter so benchmarks can assert the
/// warmed-up path never reallocates.
#[derive(Debug, Default)]
pub struct Ranker {
    scratch: Vec<CacheEntry>,
    grows: u64,
}

impl Ranker {
    /// A ranker whose scratch is pre-sized for caches of `capacity`
    /// entries, so the first query does not count as a growth.
    pub fn with_capacity(capacity: usize) -> Self {
        Ranker {
            scratch: Vec::with_capacity(capacity),
            grows: 0,
        }
    }

    /// Times the scratch buffer had to reallocate. Zero after warmup is
    /// the fast-path invariant the core_ops microbenchmark gates on.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Ranks `cache`'s trustworthy candidates for `requester`: entries no
    /// older than `max_age` that `policy` calls available, `requester`
    /// itself excluded, hosts rejected by `keep` (already-assigned hosts,
    /// say) skipped. Stale entries are *skipped, not evicted* — the cache
    /// is untouched and a fresher observation can still revive the slot.
    #[allow(clippy::too_many_arguments)]
    pub fn rank(
        &mut self,
        cache: &LoadCache,
        now: SimTime,
        max_age: SimDuration,
        requester: HostId,
        policy: &AvailabilityPolicy,
        order: RankOrder,
        keep: impl FnMut(HostId) -> bool,
    ) -> &[CacheEntry] {
        self.rank_entries(
            cache.entries(),
            now,
            max_age,
            requester,
            policy,
            order,
            keep,
        )
    }

    /// [`Ranker::rank`] over any slot sequence (the differential test feeds
    /// it the reference model's slots).
    #[allow(clippy::too_many_arguments)]
    fn rank_entries<'a>(
        &mut self,
        entries: impl Iterator<Item = &'a CacheEntry>,
        now: SimTime,
        max_age: SimDuration,
        requester: HostId,
        policy: &AvailabilityPolicy,
        order: RankOrder,
        mut keep: impl FnMut(HostId) -> bool,
    ) -> &[CacheEntry] {
        let cap_before = self.scratch.capacity();
        self.scratch.clear();
        for e in entries {
            if e.info.host != requester
                && e.age(now) <= max_age
                && policy.is_available(&e.info)
                && keep(e.info.host)
            {
                self.scratch.push(*e);
            }
        }
        // Both orders rank the idle key by *effective* idleness — idle time
        // weighted by hardware class — so a fast machine that freed up
        // recently outranks a slow one idle for longer. `total_cmp` keeps
        // the sort deterministic; at speed 1.0 everywhere the order matches
        // the old raw-idle comparison exactly.
        match order {
            RankOrder::FreshestFirst => self.scratch.sort_unstable_by(|a, b| {
                b.written
                    .cmp(&a.written)
                    .then(b.info.effective_idle().total_cmp(&a.info.effective_idle()))
                    .then(a.info.host.cmp(&b.info.host))
            }),
            RankOrder::IdlestFirst => self.scratch.sort_unstable_by(|a, b| {
                b.info
                    .effective_idle()
                    .total_cmp(&a.info.effective_idle())
                    .then(a.info.host.cmp(&b.info.host))
            }),
        }
        if self.scratch.capacity() != cap_before {
            self.grows += 1;
        }
        &self.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn entry(host: u32, written_secs: u64, idle_secs: u64) -> CacheEntry {
        CacheEntry {
            info: HostInfo::idle_host(h(host), SimDuration::from_secs(idle_secs)),
            written: t(written_secs),
        }
    }

    #[test]
    fn insert_refreshes_and_rejects_rollback() {
        let mut c = LoadCache::new(4);
        assert!(c.insert(entry(1, 10, 60)));
        assert!(c.insert(entry(1, 20, 90)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(h(1)).map(|e| e.written), Some(t(20)));
        // A staler relay of the same host must not roll the entry back.
        assert!(!c.insert(entry(1, 5, 600)));
        assert_eq!(c.get(h(1)).map(|e| e.written), Some(t(20)));
    }

    #[test]
    fn full_cache_overwrites_the_stalest_slot() {
        let mut c = LoadCache::new(3);
        c.insert(entry(1, 30, 60));
        c.insert(entry(2, 10, 60)); // stalest
        c.insert(entry(3, 20, 60));
        assert!(c.insert(entry(4, 40, 60)));
        assert!(c.get(h(2)).is_none(), "stalest entry was the victim");
        assert!(c.get(h(4)).is_some());
        // An entry staler than everything cached is dropped, not stored.
        assert!(!c.insert(entry(5, 1, 60)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn freshest_into_orders_and_bounds_the_batch() {
        let mut c = LoadCache::new(8);
        for (host, w) in [(1, 10), (2, 40), (3, 30), (4, 20)] {
            c.insert(entry(host, w, 60));
        }
        let mut batch = Vec::new();
        c.freshest_into(3, &mut batch);
        let hosts: Vec<u32> = batch.iter().map(|e| e.info.host.index() as u32).collect();
        assert_eq!(hosts, vec![2, 3, 4], "freshest three, freshest first");
    }

    #[test]
    fn rank_skips_stale_without_evicting() {
        let mut c = LoadCache::new(4);
        c.insert(entry(1, 0, 60));
        c.insert(entry(2, 100, 60));
        let mut r = Ranker::with_capacity(4);
        let now = t(110);
        let max_age = SimDuration::from_secs(30);
        let ranked = r.rank(
            &c,
            now,
            max_age,
            h(9),
            &AvailabilityPolicy::default(),
            RankOrder::FreshestFirst,
            |_| true,
        );
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].info.host, h(2));
        // The stale entry is still cached — skipped, not evicted.
        assert!(c.get(h(1)).is_some());
    }

    #[test]
    fn rank_orders_and_filters() {
        let mut c = LoadCache::new(8);
        c.insert(entry(1, 50, 60));
        c.insert(entry(2, 50, 600));
        c.insert(entry(3, 50, 300));
        let mut r = Ranker::with_capacity(8);
        let now = t(55);
        let age = SimDuration::from_secs(60);
        let policy = AvailabilityPolicy::default();
        let idle: Vec<HostId> = r
            .rank(&c, now, age, h(9), &policy, RankOrder::IdlestFirst, |_| {
                true
            })
            .iter()
            .map(|e| e.info.host)
            .collect();
        assert_eq!(idle, vec![h(2), h(3), h(1)]);
        let kept: Vec<HostId> = r
            .rank(
                &c,
                now,
                age,
                h(9),
                &policy,
                RankOrder::IdlestFirst,
                |host| host != h(2),
            )
            .iter()
            .map(|e| e.info.host)
            .collect();
        assert_eq!(kept, vec![h(3), h(1)], "keep-filter drops assigned hosts");
        let no_self: Vec<HostId> = r
            .rank(&c, now, age, h(2), &policy, RankOrder::IdlestFirst, |_| {
                true
            })
            .iter()
            .map(|e| e.info.host)
            .collect();
        assert_eq!(no_self, vec![h(3), h(1)], "requester never self-selects");
    }

    #[test]
    fn warmed_ranker_never_grows() {
        let mut c = LoadCache::new(64);
        for i in 0..64 {
            c.insert(entry(i, 50, 60 + u64::from(i)));
        }
        let mut r = Ranker::with_capacity(c.capacity());
        for _ in 0..100 {
            let ranked = r.rank(
                &c,
                t(55),
                SimDuration::from_secs(60),
                h(999),
                &AvailabilityPolicy::default(),
                RankOrder::FreshestFirst,
                |_| true,
            );
            assert_eq!(ranked.len(), 64);
        }
        assert_eq!(r.grows(), 0, "pre-sized scratch must never reallocate");
    }
}

/// The slot-array cache the column layout replaced, kept as the reference
/// model for the differential test: every slot an `Option<CacheEntry>`,
/// every operation a front-to-back scan.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug, Clone)]
    pub struct RefCache {
        slots: Vec<Option<CacheEntry>>,
    }

    impl RefCache {
        pub fn new(capacity: usize) -> Self {
            RefCache {
                slots: vec![None; capacity.max(1)],
            }
        }

        pub fn insert(&mut self, entry: CacheEntry) -> bool {
            let mut free: Option<usize> = None;
            let mut stalest: Option<(usize, SimTime)> = None;
            for (i, slot) in self.slots.iter().enumerate() {
                match slot {
                    Some(e) if e.info.host == entry.info.host => {
                        if entry.written >= e.written {
                            self.slots[i] = Some(entry);
                            return true;
                        }
                        return false;
                    }
                    Some(e) => {
                        if stalest.map(|(_, w)| e.written < w).unwrap_or(true) {
                            stalest = Some((i, e.written));
                        }
                    }
                    None => {
                        if free.is_none() {
                            free = Some(i);
                        }
                    }
                }
            }
            if let Some(i) = free {
                self.slots[i] = Some(entry);
                return true;
            }
            match stalest {
                Some((i, w)) if entry.written >= w => {
                    self.slots[i] = Some(entry);
                    true
                }
                _ => false,
            }
        }

        pub fn adjust_load(&mut self, host: HostId, adjust: impl FnOnce(f64) -> f64) -> bool {
            match self
                .slots
                .iter_mut()
                .flatten()
                .find(|e| e.info.host == host)
            {
                Some(e) => {
                    e.info.load = adjust(e.info.load);
                    true
                }
                None => false,
            }
        }

        pub fn get(&self, host: HostId) -> Option<&CacheEntry> {
            self.slots.iter().flatten().find(|e| e.info.host == host)
        }

        pub fn entries(&self) -> impl Iterator<Item = &CacheEntry> {
            self.slots.iter().flatten()
        }

        pub fn len(&self) -> usize {
            self.entries().count()
        }

        pub fn freshest_into(&self, limit: usize, out: &mut Vec<CacheEntry>) {
            out.clear();
            for e in self.entries() {
                let pos = out
                    .iter()
                    .position(|o| {
                        (e.written, o.info.host.index()) > (o.written, e.info.host.index())
                    })
                    .unwrap_or(out.len());
                if pos < limit {
                    if out.len() == limit {
                        out.pop();
                    }
                    out.insert(pos, *e);
                }
            }
        }
    }
}

#[cfg(test)]
mod differential {
    use super::reference::RefCache;
    use super::*;
    use sprite_sim::DetRng;

    fn same(a: &CacheEntry, b: &CacheEntry) -> bool {
        a.info == b.info && a.written == b.written
    }

    fn same_all<'a>(
        a: impl Iterator<Item = &'a CacheEntry>,
        b: impl Iterator<Item = &'a CacheEntry>,
    ) -> bool {
        let (a, b): (Vec<_>, Vec<_>) = (a.collect(), b.collect());
        a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| same(x, y))
    }

    /// One seeded stream of operations on both caches. Stamps come from a
    /// handful of seconds, so ties on `written` are the rule; relays are
    /// stamped up to three seconds behind the clock, so they are often
    /// older than the entry already stored; the host range is twice the
    /// capacity, so a full cache evicts on most misses.
    fn drive(capacity: usize, seed: u64, ops: usize) {
        let mut rng = DetRng::seed_from(seed);
        let mut cache = LoadCache::new(capacity);
        let mut model = RefCache::new(capacity);
        let hosts = 2 * capacity as u64 + 2;
        let mut now = 3;
        let (mut batch, mut model_batch) = (Vec::new(), Vec::new());
        let mut ranker = Ranker::with_capacity(capacity);
        let mut model_ranker = Ranker::with_capacity(capacity);
        let policy = AvailabilityPolicy::default();
        for op in 0..ops {
            let host = HostId::new(rng.uniform_u64(hosts) as u32);
            if rng.chance(0.2) {
                now += 1;
            }
            let ctx = format!("capacity {capacity} seed {seed} op {op}");
            match rng.uniform_u64(8) {
                0..=3 => {
                    let written = SimTime::ZERO + SimDuration::from_secs(now - rng.uniform_u64(4));
                    let mut info =
                        HostInfo::idle_host(host, SimDuration::from_secs(rng.uniform_u64(90)));
                    info.load = rng.uniform_u64(3) as f64 * 0.25;
                    let e = CacheEntry { info, written };
                    assert_eq!(cache.insert(e), model.insert(e), "insert: {ctx}");
                }
                4 => {
                    let delta = if rng.chance(0.5) { 1.0 } else { -1.0 };
                    let adjust = |l: f64| (l + delta).max(0.0);
                    assert_eq!(
                        cache.adjust_load(host, adjust),
                        model.adjust_load(host, adjust),
                        "adjust_load: {ctx}"
                    );
                }
                5 => {
                    let (a, b) = (cache.get(host), model.get(host));
                    assert!(
                        a.is_some() == b.is_some() && a.zip(b).is_none_or(|(a, b)| same(a, b)),
                        "get: {ctx}"
                    );
                }
                6 => {
                    let limit = rng.uniform_u64(capacity as u64 + 2) as usize;
                    cache.freshest_into(limit, &mut batch);
                    model.freshest_into(limit, &mut model_batch);
                    assert!(
                        same_all(batch.iter(), model_batch.iter()),
                        "freshest_into({limit}): {ctx}"
                    );
                }
                _ => {
                    let order = if rng.chance(0.5) {
                        RankOrder::FreshestFirst
                    } else {
                        RankOrder::IdlestFirst
                    };
                    let at = SimTime::ZERO + SimDuration::from_secs(now);
                    let max_age = SimDuration::from_secs(rng.uniform_u64(4));
                    let skip = HostId::new(rng.uniform_u64(hosts) as u32);
                    let ranked =
                        ranker.rank(&cache, at, max_age, host, &policy, order, |x| x != skip);
                    let model_ranked = model_ranker.rank_entries(
                        model.entries(),
                        at,
                        max_age,
                        host,
                        &policy,
                        order,
                        |x| x != skip,
                    );
                    assert!(same_all(ranked.iter(), model_ranked.iter()), "rank: {ctx}");
                }
            }
            assert_eq!(cache.len(), model.len(), "len: {ctx}");
            assert!(
                same_all(cache.entries(), model.entries()),
                "slot order: {ctx}"
            );
        }
    }

    #[test]
    fn columns_match_the_slot_array_model() {
        for capacity in [1, 2, 3, 8, 64] {
            for seed in 0..8 {
                drive(capacity, 0x5eed_0000 + seed, 3_000);
            }
        }
    }
}
