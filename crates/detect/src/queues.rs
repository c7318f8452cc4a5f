//! Acquire/release queues implementing DC rule (b) and WCP rule (b).
//!
//! DC analysis needs, for each lock `m` and each *pair* of threads `(t, t')`,
//! a queue `Acq_{m,t}(t')` of the times of `t'`-acquires of `m` not yet known
//! to be DC-ordered to a `t`-release of `m`, plus the matching release times
//! `Rel_{m,t}(t')` (paper Algorithm 1; §2.5 calls this out as a significant
//! cost). WCP analysis gets away with per-lock per-*thread* queues because
//! WCP composes with HB (footnote 6).
//!
//! The DC queues are realized as one append-only acquire/release log per
//! `(lock, acquiring thread)` plus a consumption cursor per releasing thread:
//! semantically identical to the paper's per-pair queues (each releaser sees
//! exactly the suffix it has not yet ordered), but robust to threads that
//! start mid-trace, with periodic compaction of fully-consumed prefixes.
//!
//! Two acquire-entry representations exist, matching the paper's optimization
//! levels: full vector clocks (Unopt/FTO) and epochs (SmartTrack).

use smarttrack_clock::{ClockValue, ThreadId, VectorClock};
use smarttrack_trace::{EventId, LockId};

use crate::common::slot;

/// An acquire entry: the acquire's time in its thread's clock, either a full
/// vector clock (Unopt, FTO) or just the local clock value (SmartTrack).
#[derive(Clone, Debug)]
pub enum AcqEntry {
    /// Full vector clock of the acquiring thread at the acquire.
    Vc(VectorClock),
    /// The acquiring thread's local clock component (SmartTrack's epoch
    /// optimization, sound because threads increment at every acquire).
    Epoch(ClockValue),
}

impl AcqEntry {
    /// Whether the recorded acquire (by thread `owner`) is ordered before the
    /// releasing thread's current time `now`.
    #[inline]
    fn ordered_before(&self, owner: ThreadId, now: &VectorClock) -> bool {
        match self {
            AcqEntry::Vc(vc) => vc.leq(now),
            AcqEntry::Epoch(c) => *c <= now.get(owner),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            AcqEntry::Vc(vc) => vc.heap_bytes(),
            AcqEntry::Epoch(_) => 0,
        }
    }
}

/// A release entry: the release time (always a full clock — it gets joined
/// into the consumer) plus the release's event id for graph recording.
#[derive(Clone, Debug)]
pub struct RelEntry {
    /// Clock of the releasing thread at the release.
    pub clock: VectorClock,
    /// The release event (for "w/ G" edge recording).
    pub event: EventId,
}

/// Append-only log of one thread's critical sections on one lock.
#[derive(Clone, Debug, Default)]
struct CsLog {
    /// Index of the first retained entry (earlier ones were compacted away).
    base: usize,
    acq: Vec<AcqEntry>,
    rel: Vec<RelEntry>,
    /// Hold mode per entry, aligned with `acq`: `true` for exclusive/write
    /// sections, `false` for read-mode rwlock sections.
    write: Vec<bool>,
}

impl CsLog {
    fn len_total(&self) -> usize {
        self.base + self.acq.len()
    }

    /// Cheap resident bytes: vector capacities only.
    fn resident_bytes(&self) -> usize {
        self.acq.capacity() * std::mem::size_of::<AcqEntry>()
            + self.rel.capacity() * std::mem::size_of::<RelEntry>()
            + self.write.capacity() * std::mem::size_of::<bool>()
    }

    fn footprint_bytes(&self) -> usize {
        self.acq.iter().map(AcqEntry::heap_bytes).sum::<usize>()
            + self.rel.iter().map(|r| r.clock.heap_bytes()).sum::<usize>()
            + self.resident_bytes()
    }
}

/// Runs `f` on a log and returns by how many bytes its
/// [`CsLog::resident_bytes`] grew (capacities never shrink: `drain`
/// keeps them).
fn log_growth(log: &mut CsLog, f: impl FnOnce(&mut CsLog)) -> usize {
    let before = log.resident_bytes();
    f(log);
    log.resident_bytes() - before
}

/// Resident bytes of one cursor row (its capacity).
#[allow(clippy::ptr_arg)]
fn cursor_row_bytes(row: &Vec<usize>) -> usize {
    row.capacity() * std::mem::size_of::<usize>()
}

/// The DC rule (b) queues (`Acq_{m,t}(t')` / `Rel_{m,t}(t')`).
#[derive(Debug, Default)]
pub struct DcRuleBQueues {
    /// `logs[m][t']` — acquire/release log of thread `t'` on lock `m`.
    logs: Vec<Vec<CsLog>>,
    /// `cursors[m][t][t']` — how much of `logs[m][t']` releaser `t` consumed.
    cursors: Vec<Vec<Vec<usize>>>,
    /// Total thread count, if known: enables sound compaction (an entry can
    /// only be dropped once *every* possible releaser has consumed it).
    thread_bound: Option<usize>,
    /// Running [`resident_bytes`](DcRuleBQueues::resident_bytes): updated
    /// wherever a log or cursor row can grow its capacity.
    resident: usize,
}

impl Clone for DcRuleBQueues {
    /// Cloned `Vec`s shrink to their length, so the counter is recomputed.
    fn clone(&self) -> Self {
        let mut q = DcRuleBQueues {
            logs: self.logs.clone(),
            cursors: self.cursors.clone(),
            thread_bound: self.thread_bound,
            resident: 0,
        };
        q.resident = q.walk_resident_bytes();
        q
    }
}

impl DcRuleBQueues {
    /// Creates empty queues.
    pub fn new() -> Self {
        DcRuleBQueues::default()
    }

    /// Declares the total number of threads the trace will ever use, which
    /// enables compaction of fully-consumed log prefixes. Without a bound,
    /// logs retain all entries (a single shared copy per entry — at most the
    /// retention of the paper's per-pair queues, which clone each entry into
    /// `T − 1` queues).
    pub fn set_thread_bound(&mut self, threads: usize) {
        self.thread_bound = Some(threads);
    }

    fn log_mut(&mut self, m: LockId, t: ThreadId) -> &mut CsLog {
        let lock = slot(&mut self.logs, m.index());
        slot(lock, t.index())
    }

    /// Handles `acq(m)` by `t` (Algorithm 1 line 2 / Algorithm 3 line 2).
    /// `write` is the hold mode: `false` for read-mode rwlock sections.
    pub fn on_acquire(&mut self, m: LockId, t: ThreadId, entry: &AcqEntry, write: bool) {
        self.resident += log_growth(self.log_mut(m, t), |log| {
            log.acq.push(entry.clone());
            log.write.push(write);
        });
    }

    /// Handles `rel(m)` by `t` (Algorithm 1 lines 4–8): consumes every other
    /// thread's acquires that are ordered before `now`, joining the matching
    /// release times into `now`; then appends `now` as `t`'s own release
    /// entry.
    ///
    /// `write_mode` is the mode of the section being released. A write-mode
    /// release conflicts with every prior section and consumes as usual; a
    /// *read-mode* release conflicts only with prior write-mode sections, so
    /// it joins only those — and it never advances the consumption cursor,
    /// because skipped read-mode entries may still be needed by a later
    /// write-mode release of the same thread (rule (b) applies only to
    /// write-involved section pairs; Genç et al., arXiv:1904.13088).
    ///
    /// Calls `on_rule_b(release_event)` for each rule (b) join, so
    /// graph-building variants can record edges.
    pub fn on_release(
        &mut self,
        m: LockId,
        t: ThreadId,
        now: &mut VectorClock,
        release_event: EventId,
        write_mode: bool,
        mut on_rule_b: impl FnMut(EventId),
    ) {
        let lock_logs = slot(&mut self.logs, m.index());
        let nthreads = lock_logs.len().max(t.index() + 1);
        if lock_logs.len() < nthreads {
            lock_logs.resize_with(nthreads, CsLog::default);
        }
        let lock_cursors = slot(&mut self.cursors, m.index());
        if lock_cursors.len() < nthreads {
            lock_cursors.resize_with(nthreads, Vec::new);
        }
        let row = &mut lock_cursors[t.index()];
        if row.len() < nthreads {
            let before = cursor_row_bytes(row);
            row.resize(nthreads, 0);
            self.resident += cursor_row_bytes(row) - before;
        }
        for (u, log) in lock_logs.iter().enumerate() {
            if u == t.index() {
                continue;
            }
            let owner = ThreadId::new(u as u32);
            let cursor = &mut row[u];
            if *cursor < log.base {
                *cursor = log.base;
            }
            if write_mode {
                while *cursor < log.len_total() {
                    let i = *cursor - log.base;
                    if !log.acq[i].ordered_before(owner, now) {
                        break;
                    }
                    let rel = log
                        .rel
                        .get(i)
                        .expect("matching release precedes this release (well-formed trace)");
                    now.join(&rel.clock);
                    on_rule_b(rel.event);
                    *cursor += 1;
                }
            } else {
                // Non-destructive peek: join write-mode entries only, and
                // leave the cursor alone. An open section (acquire without a
                // matching release yet — possible for a concurrently-held
                // read section) ends the prefix.
                let mut i = *cursor - log.base;
                while i < log.acq.len() {
                    if !log.acq[i].ordered_before(owner, now) {
                        break;
                    }
                    let Some(rel) = log.rel.get(i) else { break };
                    if log.write[i] {
                        now.join(&rel.clock);
                        on_rule_b(rel.event);
                    }
                    i += 1;
                }
            }
        }
        // Publish t's own release (matching its oldest un-released acquire).
        self.resident += log_growth(&mut lock_logs[t.index()], |own| {
            own.rel.push(RelEntry {
                clock: now.clone(),
                event: release_event,
            });
            debug_assert!(own.rel.len() <= own.acq.len(), "release without acquire");
        });
        // Compaction drains, which keeps every capacity: `resident` holds.
        self.compact(m);
    }

    /// Drops log prefixes that every possible releaser has consumed.
    /// Requires [`DcRuleBQueues::set_thread_bound`]; otherwise a future
    /// thread might still need old entries (DC has no HB composition to
    /// recover them) and nothing is dropped.
    fn compact(&mut self, m: LockId) {
        const COMPACT_THRESHOLD: usize = 64;
        let Some(bound) = self.thread_bound else {
            return;
        };
        let lock_logs = &mut self.logs[m.index()];
        let lock_cursors = match self.cursors.get(m.index()) {
            Some(c) => c,
            None => return,
        };
        for (u, log) in lock_logs.iter_mut().enumerate() {
            if log.rel.len() < COMPACT_THRESHOLD {
                continue;
            }
            let min_consumed = (0..bound)
                .filter(|&t| t != u)
                .map(|t| {
                    lock_cursors
                        .get(t)
                        .and_then(|row| row.get(u))
                        .copied()
                        .unwrap_or(0)
                })
                .min()
                .unwrap_or(0);
            // Only entries that are both consumed by everyone and released
            // can be dropped.
            let drop_to = min_consumed.min(log.base + log.rel.len());
            if drop_to > log.base {
                let n = drop_to - log.base;
                log.acq.drain(..n);
                log.rel.drain(..n);
                log.write.drain(..n);
                log.base = drop_to;
            }
        }
    }

    /// Approximate heap bytes (exact: includes per-entry clock spill).
    pub fn footprint_bytes(&self) -> usize {
        self.logs
            .iter()
            .flat_map(|l| l.iter())
            .map(CsLog::footprint_bytes)
            .sum::<usize>()
            + self.cursor_bytes()
    }

    /// Cheap resident bytes (log and cursor capacities), O(1): a running
    /// counter equal to [`walk_resident_bytes`](Self::walk_resident_bytes).
    pub fn resident_bytes(&self) -> usize {
        debug_assert_eq!(self.resident, self.walk_resident_bytes());
        self.resident
    }

    /// [`resident_bytes`](Self::resident_bytes) recomputed by walking every
    /// log and cursor row, O(#locks × #threads).
    pub(crate) fn walk_resident_bytes(&self) -> usize {
        self.logs
            .iter()
            .flat_map(|l| l.iter())
            .map(CsLog::resident_bytes)
            .sum::<usize>()
            + self.cursor_bytes()
    }

    fn cursor_bytes(&self) -> usize {
        self.cursors
            .iter()
            .flat_map(|l| l.iter())
            .map(cursor_row_bytes)
            .sum::<usize>()
    }
}

/// The WCP rule (b) queues: per lock, per *acquiring thread* (not per pair),
/// consumable by any releasing thread because WCP composes with HB.
///
/// Acquire entries are epochs of the acquirer's HB clock; release entries are
/// full HB clocks of the matching releases.
#[derive(Debug, Default)]
pub struct WcpRuleBQueues {
    /// `per_lock[m][t']` — shared acquire/release queue of `m`-critical
    /// sections by `t'`, with a single consumption cursor.
    per_lock: Vec<Vec<CsLog>>,
    /// Running [`resident_bytes`](WcpRuleBQueues::resident_bytes): updated
    /// wherever a log can grow its capacity.
    resident: usize,
}

impl Clone for WcpRuleBQueues {
    /// Cloned `Vec`s shrink to their length, so the counter is recomputed.
    fn clone(&self) -> Self {
        let mut q = WcpRuleBQueues {
            per_lock: self.per_lock.clone(),
            resident: 0,
        };
        q.resident = q.walk_resident_bytes();
        q
    }
}

impl WcpRuleBQueues {
    /// Creates empty queues.
    pub fn new() -> Self {
        WcpRuleBQueues::default()
    }

    fn log_mut(&mut self, m: LockId, t: ThreadId) -> &mut CsLog {
        let lock = slot(&mut self.per_lock, m.index());
        slot(lock, t.index())
    }

    /// Records `acq(m)` by `t` with local HB clock value `local`.
    /// `write` is the hold mode: `false` for read-mode rwlock sections.
    pub fn on_acquire(&mut self, m: LockId, t: ThreadId, local: ClockValue, write: bool) {
        self.resident += log_growth(self.log_mut(m, t), |log| {
            log.acq.push(AcqEntry::Epoch(local));
            log.write.push(write);
        });
    }

    /// Records the release time matching the oldest un-matched acquire of `m`
    /// by `t` (call at `rel(m)` by `t` after [`WcpRuleBQueues::consume`]).
    pub fn on_release_publish(&mut self, m: LockId, t: ThreadId, hb: &VectorClock, event: EventId) {
        self.resident += log_growth(self.log_mut(m, t), |log| {
            log.rel.push(RelEntry {
                clock: hb.clone(),
                event,
            });
            debug_assert!(log.rel.len() <= log.acq.len(), "release without acquire");
        });
    }

    /// At `rel(m)` by `t`: consumes every other thread's acquires that are
    /// WCP-ordered before the current release (checked against the releaser's
    /// WCP clock `wcp`), joining the matching releases' HB clocks into `wcp`.
    ///
    /// For a *write-mode* release, consumption is destructive across
    /// releasers; that is sound for WCP because a later section of the same
    /// lock (read or write mode) is HB-after a write release and WCP
    /// left/right-composes with HB (footnote 6). A *read-mode* release
    /// conflicts only with prior write-mode sections and is **not** HB-before
    /// later sections, so it peeks without draining: it joins the ordered
    /// prefix's write-mode entries and leaves everything in place.
    pub fn consume(
        &mut self,
        m: LockId,
        t: ThreadId,
        wcp: &mut VectorClock,
        write_mode: bool,
        mut on_rule_b: impl FnMut(EventId),
    ) {
        let lock = slot(&mut self.per_lock, m.index());
        for (u, log) in lock.iter_mut().enumerate() {
            if u == t.index() {
                continue;
            }
            let owner = ThreadId::new(u as u32);
            // Consume a prefix, then drain it in one move (the entry-at-a-
            // time `remove(0)` was quadratic on lock-heavy traces).
            let mut consumed = 0;
            let limit = log.acq.len().min(log.rel.len());
            while consumed < limit && log.acq[consumed].ordered_before(owner, wcp) {
                let rel = &log.rel[consumed];
                if write_mode || log.write[consumed] {
                    wcp.join(&rel.clock);
                    on_rule_b(rel.event);
                }
                consumed += 1;
            }
            if write_mode && consumed > 0 {
                log.acq.drain(..consumed);
                log.rel.drain(..consumed);
                log.write.drain(..consumed);
            }
        }
    }

    /// Approximate heap bytes (exact: includes per-entry clock spill).
    pub fn footprint_bytes(&self) -> usize {
        self.per_lock
            .iter()
            .flat_map(|l| l.iter())
            .map(CsLog::footprint_bytes)
            .sum()
    }

    /// Cheap resident bytes (log capacities), O(1): a running counter
    /// equal to [`walk_resident_bytes`](Self::walk_resident_bytes).
    /// Consumption drains, which keeps every capacity.
    pub fn resident_bytes(&self) -> usize {
        debug_assert_eq!(self.resident, self.walk_resident_bytes());
        self.resident
    }

    /// [`resident_bytes`](Self::resident_bytes) recomputed by walking every
    /// log, O(#locks × #threads).
    pub(crate) fn walk_resident_bytes(&self) -> usize {
        self.per_lock
            .iter()
            .flat_map(|l| l.iter())
            .map(CsLog::resident_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }
    fn vc(pairs: &[(u32, u32)]) -> VectorClock {
        pairs.iter().map(|&(t0, c)| (t(t0), c)).collect()
    }

    #[test]
    fn dc_queue_joins_matching_release_when_acquire_ordered() {
        let mut q = DcRuleBQueues::new();
        // T0 acquires m at time [1,0]; releases at [3,0].
        q.on_acquire(m(0), t(0), &AcqEntry::Vc(vc(&[(0, 1)])), true);
        let mut rel0 = vc(&[(0, 3)]);
        q.on_release(m(0), t(0), &mut rel0, EventId::new(2), true, |_| {});
        // T1 releases m with a clock that dominates T0's acquire: rule (b)
        // fires and T1 absorbs T0's release time.
        q.on_acquire(m(0), t(1), &AcqEntry::Vc(vc(&[(1, 4)])), true);
        let mut now = vc(&[(0, 2), (1, 5)]);
        let mut fired = Vec::new();
        q.on_release(m(0), t(1), &mut now, EventId::new(7), true, |e| {
            fired.push(e)
        });
        assert_eq!(fired, vec![EventId::new(2)]);
        assert_eq!(now.get(t(0)), 3, "absorbed T0's release time");
    }

    #[test]
    fn dc_queue_leaves_unordered_acquires() {
        let mut q = DcRuleBQueues::new();
        q.on_acquire(m(0), t(0), &AcqEntry::Vc(vc(&[(0, 4)])), true);
        let mut rel0 = vc(&[(0, 5)]);
        q.on_release(m(0), t(0), &mut rel0, EventId::new(2), true, |_| {});
        // T1's clock does not dominate the acquire time: no join.
        q.on_acquire(m(0), t(1), &AcqEntry::Vc(vc(&[(1, 8)])), true);
        let mut now = vc(&[(1, 9)]);
        let mut fired = 0;
        q.on_release(m(0), t(1), &mut now, EventId::new(8), true, |_| fired += 1);
        assert_eq!(fired, 0);
        assert_eq!(now.get(t(0)), 0);
    }

    #[test]
    fn dc_queue_consumption_is_per_releaser() {
        let mut q = DcRuleBQueues::new();
        q.on_acquire(m(0), t(0), &AcqEntry::Vc(vc(&[(0, 1)])), true);
        let mut rel0 = vc(&[(0, 3)]);
        q.on_release(m(0), t(0), &mut rel0, EventId::new(2), true, |_| {});
        // T1 consumes the entry.
        q.on_acquire(m(0), t(1), &AcqEntry::Vc(vc(&[(1, 4)])), true);
        let mut now1 = vc(&[(0, 2), (1, 5)]);
        let mut fired1 = 0;
        q.on_release(m(0), t(1), &mut now1, EventId::new(7), true, |_| {
            fired1 += 1
        });
        assert_eq!(fired1, 1);
        // T2 must *also* see the entry (DC has no HB composition to rely on).
        q.on_acquire(m(0), t(2), &AcqEntry::Vc(vc(&[(2, 3)])), true);
        let mut now2 = vc(&[(0, 2), (2, 4)]);
        let mut fired2 = 0;
        q.on_release(m(0), t(2), &mut now2, EventId::new(11), true, |_| {
            fired2 += 1
        });
        assert_eq!(
            fired2, 1,
            "per-pair queues: each releaser consumes independently"
        );
        assert_eq!(now2.get(t(0)), 3);
    }

    #[test]
    fn dc_epoch_entries_match_vc_entries_given_acquire_increments() {
        // With increments at acquires, the epoch check c <= now(owner) agrees
        // with the full VC check on join-closed clocks.
        let mut qv = DcRuleBQueues::new();
        let mut qe = DcRuleBQueues::new();
        qv.on_acquire(m(0), t(0), &AcqEntry::Vc(vc(&[(0, 2)])), true);
        qe.on_acquire(m(0), t(0), &AcqEntry::Epoch(2), true);
        let mut r1 = vc(&[(0, 4)]);
        let mut r2 = r1.clone();
        qv.on_release(m(0), t(0), &mut r1, EventId::new(1), true, |_| {});
        qe.on_release(m(0), t(0), &mut r2, EventId::new(1), true, |_| {});
        for (q, name) in [(&mut qv, "vc"), (&mut qe, "epoch")] {
            q.on_acquire(m(0), t(1), &AcqEntry::Epoch(2), true);
            let mut now = vc(&[(0, 2), (1, 3)]);
            let mut fired = 0;
            q.on_release(m(0), t(1), &mut now, EventId::new(5), true, |_| fired += 1);
            assert_eq!(fired, 1, "{name}");
        }
    }

    #[test]
    fn wcp_queue_is_shared_across_releasers() {
        let mut q = WcpRuleBQueues::new();
        q.on_acquire(m(0), t(0), 1, true);
        q.on_release_publish(m(0), t(0), &vc(&[(0, 2)]), EventId::new(3));
        // T1 releases with WCP knowledge of T0 up to 1: consumes the entry.
        let mut wcp1 = vc(&[(0, 1)]);
        let mut fired = 0;
        q.consume(m(0), t(1), &mut wcp1, true, |_| fired += 1);
        assert_eq!(fired, 1);
        assert_eq!(wcp1.get(t(0)), 2);
        // Entry is gone for T2 (WCP relies on HB composition instead).
        let mut wcp2 = vc(&[(0, 1)]);
        let mut fired2 = 0;
        q.consume(m(0), t(2), &mut wcp2, true, |_| fired2 += 1);
        assert_eq!(fired2, 0);
    }

    #[test]
    fn dc_read_release_peeks_write_entries_without_consuming() {
        let mut q = DcRuleBQueues::new();
        // T0: a read-mode section, then a write-mode section.
        q.on_acquire(m(0), t(0), &AcqEntry::Vc(vc(&[(0, 1)])), false);
        let mut r = vc(&[(0, 2)]);
        q.on_release(m(0), t(0), &mut r, EventId::new(1), false, |_| {});
        q.on_acquire(m(0), t(0), &AcqEntry::Vc(vc(&[(0, 3)])), true);
        let mut r = vc(&[(0, 4)]);
        q.on_release(m(0), t(0), &mut r, EventId::new(3), true, |_| {});
        // T1 releases a *read* section ordered after both: only the
        // write-mode entry joins (read/read section pairs do not conflict).
        q.on_acquire(m(0), t(1), &AcqEntry::Vc(vc(&[(1, 2)])), false);
        let mut now = vc(&[(0, 5), (1, 3)]);
        let mut fired = Vec::new();
        q.on_release(m(0), t(1), &mut now, EventId::new(6), false, |e| {
            fired.push(e)
        });
        assert_eq!(fired, vec![EventId::new(3)]);
        // Nothing was consumed: a later *write* release of T1 still sees
        // both entries.
        q.on_acquire(m(0), t(1), &AcqEntry::Vc(vc(&[(1, 5)])), true);
        let mut now = vc(&[(0, 5), (1, 6)]);
        let mut fired2 = Vec::new();
        q.on_release(m(0), t(1), &mut now, EventId::new(9), true, |e| {
            fired2.push(e)
        });
        assert_eq!(fired2, vec![EventId::new(1), EventId::new(3)]);
    }

    #[test]
    fn wcp_read_release_peeks_without_draining() {
        let mut q = WcpRuleBQueues::new();
        q.on_acquire(m(0), t(0), 1, false);
        q.on_release_publish(m(0), t(0), &vc(&[(0, 2)]), EventId::new(1));
        q.on_acquire(m(0), t(0), 3, true);
        q.on_release_publish(m(0), t(0), &vc(&[(0, 4)]), EventId::new(3));
        // A read-mode release joins only the write entry and drains nothing.
        let mut wcp = vc(&[(0, 4)]);
        let mut fired = Vec::new();
        q.consume(m(0), t(1), &mut wcp, false, |e| fired.push(e));
        assert_eq!(fired, vec![EventId::new(3)]);
        // A later write-mode release still consumes both.
        let mut wcp = vc(&[(0, 4)]);
        let mut fired2 = Vec::new();
        q.consume(m(0), t(2), &mut wcp, true, |e| fired2.push(e));
        assert_eq!(fired2, vec![EventId::new(1), EventId::new(3)]);
    }

    #[test]
    fn dc_compaction_preserves_unconsumed_entries() {
        let mut q = DcRuleBQueues::new();
        // 100 critical sections by T0, none ordered for T1.
        for i in 0..100u32 {
            q.on_acquire(m(0), t(0), &AcqEntry::Epoch(1_000 + i), true);
            let mut now = vc(&[(0, 1_000 + i)]);
            q.on_release(m(0), t(0), &mut now, EventId::new(i), true, |_| {});
        }
        q.on_acquire(m(0), t(1), &AcqEntry::Epoch(2), true);
        let mut now = vc(&[(0, 1_050), (1, 3)]);
        let mut fired = 0;
        q.on_release(m(0), t(1), &mut now, EventId::new(200), true, |_| {
            fired += 1
        });
        assert_eq!(fired, 51, "entries up to local time 1050 are ordered");
    }
}
