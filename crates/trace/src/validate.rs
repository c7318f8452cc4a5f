//! Streaming well-formedness validation.
//!
//! [`StreamValidator`] is the event-at-a-time core of trace validation
//! (paper §2.1: a thread only acquires a free lock and only releases a lock
//! it holds, plus fork/join sanity). It holds no event storage, so it can
//! run over unbounded streams: [`crate::TraceBuilder`] layers event
//! retention on top of it for offline traces, and the streaming analysis
//! sessions in `smarttrack-detect` use it directly.

use std::collections::HashMap;

use smarttrack_clock::ThreadId;

use crate::{BarrierId, Event, EventId, LockId, Op, TraceError};

/// Current ownership of one lock: exclusive (a plain `acq` or an `acqw`)
/// or shared by any number of read-mode holders. A lock with no entry in
/// the holder table is free. Dual-mode holds by one thread (read while
/// writing, or vice versa) are malformed, as is re-entrant read-acquisition.
#[derive(Clone, Debug, PartialEq, Eq)]
enum LockHolder {
    /// Held exclusively by one thread.
    Writer(ThreadId),
    /// Held in read (shared) mode by these threads (non-empty, no dups).
    Readers(Vec<ThreadId>),
}

impl LockHolder {
    /// A thread to blame in `AcquireHeldLock` errors.
    fn representative(&self) -> ThreadId {
        match self {
            LockHolder::Writer(t) => *t,
            LockHolder::Readers(ts) => ts[0],
        }
    }

    /// Whether `t` holds the lock in any mode.
    fn held_by(&self, t: ThreadId) -> bool {
        match self {
            LockHolder::Writer(w) => *w == t,
            LockHolder::Readers(ts) => ts.contains(&t),
        }
    }
}

/// Raw lock ids below this bound index [`LockTable`]'s direct-mapped slots
/// (grown on demand), which caps that table at 4 MiB the way the session
/// interner caps its own; ids at or above it — an id spray — go to a hash
/// map instead.
const DIRECT_LOCKS: usize = (4 << 20) / std::mem::size_of::<Option<LockHolder>>();

/// Lock ownership by raw lock id, with no hashing below [`DIRECT_LOCKS`].
/// A lock with no entry is free.
#[derive(Clone, Debug, Default)]
struct LockTable {
    /// `direct[m]` — the holder of lock `m < DIRECT_LOCKS`.
    direct: Vec<Option<LockHolder>>,
    /// Holders of locks at or above [`DIRECT_LOCKS`].
    spill: HashMap<LockId, LockHolder>,
}

impl LockTable {
    #[inline]
    fn get(&self, m: LockId) -> Option<&LockHolder> {
        match self.direct.get(m.index()) {
            Some(slot) => slot.as_ref(),
            None if m.index() < DIRECT_LOCKS => None,
            None => self.spill.get(&m),
        }
    }

    /// Removes and returns `m`'s holder, leaving the lock free.
    #[inline]
    fn take(&mut self, m: LockId) -> Option<LockHolder> {
        match self.direct.get_mut(m.index()) {
            Some(slot) => slot.take(),
            None if m.index() < DIRECT_LOCKS => None,
            None => self.spill.remove(&m),
        }
    }

    #[inline]
    fn put(&mut self, m: LockId, holder: LockHolder) {
        let i = m.index();
        if i < DIRECT_LOCKS {
            if i >= self.direct.len() {
                self.direct.resize(i + 1, None);
            }
            self.direct[i] = Some(holder);
        } else {
            self.spill.insert(m, holder);
        }
    }
}

/// Per-barrier party accounting for the round rules (see [`Op::BarrierEnter`]):
/// a round *gathers* entering threads until the first exit, then *drains* —
/// every gathered thread must exit exactly once before anyone may enter
/// again, so the parties of each round match.
#[derive(Clone, Debug, Default)]
struct BarrierParties {
    /// Threads that entered the current round (in entry order).
    entered: Vec<ThreadId>,
    /// Threads of the round that have exited so far (non-empty = draining).
    exited: Vec<ThreadId>,
}

/// Incremental well-formedness checker over an event stream.
///
/// Feed events in order with [`admit`](StreamValidator::admit); the
/// validator tracks lock ownership, fork/join lifecycles, and the id-space
/// bounds ([`num_threads`](StreamValidator::num_threads), …) that a
/// [`Trace`](crate::Trace) reports, without retaining the events
/// themselves.
///
/// # Examples
///
/// ```
/// use smarttrack_trace::{Event, Op, StreamValidator, ThreadId, LockId};
///
/// let mut v = StreamValidator::new();
/// let t0 = ThreadId::new(0);
/// let m = LockId::new(0);
/// v.admit(&Event::new(t0, Op::Acquire(m)))?;
/// assert!(v.admit(&Event::new(ThreadId::new(1), Op::Acquire(m))).is_err());
/// assert_eq!(v.len(), 1); // the rejected event is not admitted
/// # Ok::<(), smarttrack_trace::TraceError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct StreamValidator {
    lock_holder: LockTable,
    barriers: HashMap<BarrierId, BarrierParties>,
    started: Vec<bool>,
    forked: Vec<bool>,
    joined: Vec<bool>,
    admitted: usize,
    num_threads: usize,
    num_vars: usize,
    num_locks: usize,
    num_volatiles: usize,
    num_condvars: usize,
    num_barriers: usize,
}

impl StreamValidator {
    /// Creates a validator that has seen no events.
    pub fn new() -> Self {
        StreamValidator::default()
    }

    fn mark_thread(&mut self, t: ThreadId) {
        let i = t.index();
        if i >= self.started.len() {
            self.started.resize(i + 1, false);
            self.forked.resize(i + 1, false);
            self.joined.resize(i + 1, false);
        }
        self.num_threads = self.num_threads.max(i + 1);
    }

    /// Validates and accounts for the next event of the stream.
    ///
    /// On success the event is *admitted*: it gets the next sequential
    /// [`EventId`] (returned) and updates the lock/thread state. A rejected
    /// event leaves the validator unchanged, so a caller may skip it and
    /// continue.
    ///
    /// # Errors
    ///
    /// Returns the [`TraceError`] describing the violated well-formedness
    /// rule, with `at` set to the stream position.
    pub fn admit(&mut self, e: &Event) -> Result<EventId, TraceError> {
        let at = self.admitted;
        // Validation phase: reads only, so a rejected event really does
        // leave the validator unchanged (the tables may be shorter than a
        // rejected event's thread index — treat missing entries as false).
        let flag = |v: &[bool], t: ThreadId| v.get(t.index()).copied().unwrap_or(false);
        if flag(&self.joined, e.tid) {
            return Err(TraceError::InvalidJoin { at, target: e.tid });
        }
        match e.op {
            Op::Acquire(m) | Op::AcqWrite(m) => {
                if let Some(holder) = self.lock_holder.get(m) {
                    return Err(TraceError::AcquireHeldLock {
                        at,
                        tid: e.tid,
                        lock: m,
                        holder: holder.representative(),
                    });
                }
            }
            Op::AcqRead(m) => {
                // Read-acquisition is compatible with other readers, but not
                // with a writer and not re-entrantly with itself.
                match self.lock_holder.get(m) {
                    Some(LockHolder::Writer(w)) => {
                        return Err(TraceError::AcquireHeldLock {
                            at,
                            tid: e.tid,
                            lock: m,
                            holder: *w,
                        });
                    }
                    Some(LockHolder::Readers(ts)) if ts.contains(&e.tid) => {
                        return Err(TraceError::AcquireHeldLock {
                            at,
                            tid: e.tid,
                            lock: m,
                            holder: e.tid,
                        });
                    }
                    _ => {}
                }
            }
            Op::TryAcqFail(m) => {
                // A failed trylock is a no-op and carries no precondition at
                // all. We do NOT require the lock to be held by someone
                // else (the contender may have released it between the
                // failure and the moment the failure was serialized), and
                // we do NOT reject a failure against the thread's *own*
                // hold: in the non-reentrant model that is exactly the
                // probe that fails — a holder's re-`try_lock` returns
                // `WouldBlock`, as does a read-holder's `try_write`
                // upgrade attempt — and live captures record both.
                let _ = m;
            }
            Op::Release(m) => {
                if !self.lock_holder.get(m).is_some_and(|h| h.held_by(e.tid)) {
                    return Err(TraceError::ReleaseUnheldLock {
                        at,
                        tid: e.tid,
                        lock: m,
                    });
                }
            }
            Op::Fork(child) => {
                if child == e.tid {
                    return Err(TraceError::SelfForkJoin { at, tid: e.tid });
                }
                if flag(&self.forked, child) || flag(&self.started, child) {
                    return Err(TraceError::InvalidFork { at, target: child });
                }
            }
            Op::Join(child) => {
                if child == e.tid {
                    return Err(TraceError::SelfForkJoin { at, tid: e.tid });
                }
                if flag(&self.joined, child) {
                    return Err(TraceError::InvalidJoin { at, target: child });
                }
            }
            Op::Wait(_, m) => {
                // Wait is an atomic release-and-reacquire of the monitor:
                // the thread must hold it exclusively (a read-mode hold is
                // not a monitor) and still holds it afterwards.
                if self.lock_holder.get(m) != Some(&LockHolder::Writer(e.tid)) {
                    return Err(TraceError::WaitWithoutLock {
                        at,
                        tid: e.tid,
                        lock: m,
                    });
                }
            }
            Op::BarrierEnter(b) => {
                if let Some(parties) = self.barriers.get(&b) {
                    if !parties.exited.is_empty() {
                        // Draining: the previous round's parties must all
                        // exit before a new round may gather.
                        return Err(TraceError::BarrierEnterWhileDraining {
                            at,
                            tid: e.tid,
                            barrier: b,
                        });
                    }
                    if parties.entered.contains(&e.tid) {
                        return Err(TraceError::BarrierReenter {
                            at,
                            tid: e.tid,
                            barrier: b,
                        });
                    }
                }
            }
            Op::BarrierExit(b) => {
                let pending = self.barriers.get(&b).is_some_and(|parties| {
                    parties.entered.contains(&e.tid) && !parties.exited.contains(&e.tid)
                });
                if !pending {
                    return Err(TraceError::BarrierExitWithoutEnter {
                        at,
                        tid: e.tid,
                        barrier: b,
                    });
                }
            }
            Op::Read(_)
            | Op::Write(_)
            | Op::VolatileRead(_)
            | Op::VolatileWrite(_)
            | Op::Notify(_)
            | Op::NotifyAll(_) => {}
        }
        // Admission phase: the event is valid, record its effects.
        self.mark_thread(e.tid);
        match e.op {
            Op::Acquire(m) | Op::AcqWrite(m) => {
                self.lock_holder.put(m, LockHolder::Writer(e.tid));
                self.num_locks = self.num_locks.max(m.index() + 1);
            }
            Op::AcqRead(m) => {
                let mut readers = match self.lock_holder.take(m) {
                    Some(LockHolder::Readers(ts)) => ts,
                    None => Vec::new(),
                    Some(LockHolder::Writer(_)) => unreachable!("validated above"),
                };
                readers.push(e.tid);
                self.lock_holder.put(m, LockHolder::Readers(readers));
                self.num_locks = self.num_locks.max(m.index() + 1);
            }
            Op::TryAcqFail(m) => {
                // No ownership change; only the id-space bound widens.
                self.num_locks = self.num_locks.max(m.index() + 1);
            }
            Op::Release(m) => {
                match self.lock_holder.take(m) {
                    Some(LockHolder::Writer(_)) => {}
                    Some(LockHolder::Readers(mut ts)) => {
                        ts.retain(|&t| t != e.tid);
                        if !ts.is_empty() {
                            self.lock_holder.put(m, LockHolder::Readers(ts));
                        }
                    }
                    None => unreachable!("validated above"),
                }
                self.num_locks = self.num_locks.max(m.index() + 1);
            }
            Op::Read(x) | Op::Write(x) => {
                self.num_vars = self.num_vars.max(x.index() + 1);
            }
            Op::VolatileRead(v) | Op::VolatileWrite(v) => {
                self.num_volatiles = self.num_volatiles.max(v.index() + 1);
            }
            Op::Fork(child) => {
                self.mark_thread(child);
                self.forked[child.index()] = true;
            }
            Op::Join(child) => {
                self.mark_thread(child);
                self.joined[child.index()] = true;
            }
            Op::Wait(c, m) => {
                // The monitor stays held; only the id-space bounds widen.
                self.num_condvars = self.num_condvars.max(c.index() + 1);
                self.num_locks = self.num_locks.max(m.index() + 1);
            }
            Op::Notify(c) | Op::NotifyAll(c) => {
                self.num_condvars = self.num_condvars.max(c.index() + 1);
            }
            Op::BarrierEnter(b) => {
                self.barriers.entry(b).or_default().entered.push(e.tid);
                self.num_barriers = self.num_barriers.max(b.index() + 1);
            }
            Op::BarrierExit(b) => {
                let parties = self.barriers.get_mut(&b).expect("validated above");
                parties.exited.push(e.tid);
                if parties.exited.len() == parties.entered.len() {
                    // Round complete: parties matched, a new round may gather.
                    parties.entered.clear();
                    parties.exited.clear();
                }
                self.num_barriers = self.num_barriers.max(b.index() + 1);
            }
        }
        self.started[e.tid.index()] = true;
        self.admitted += 1;
        Ok(EventId::new(at as u32))
    }

    /// Number of events admitted so far.
    pub fn len(&self) -> usize {
        self.admitted
    }

    /// Returns `true` if no events have been admitted.
    pub fn is_empty(&self) -> bool {
        self.admitted == 0
    }

    /// Number of distinct threads seen (max index + 1).
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Number of distinct shared variables seen (max index + 1).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of distinct locks seen (max index + 1).
    pub fn num_locks(&self) -> usize {
        self.num_locks
    }

    /// Number of distinct volatile variables seen (max index + 1).
    pub fn num_volatiles(&self) -> usize {
        self.num_volatiles
    }

    /// Number of distinct condition variables seen (max index + 1).
    pub fn num_condvars(&self) -> usize {
        self.num_condvars
    }

    /// Number of distinct barriers seen (max index + 1).
    pub fn num_barriers(&self) -> usize {
        self.num_barriers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarId;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn rejection_leaves_state_unchanged() {
        let mut v = StreamValidator::new();
        v.admit(&Event::new(t(0), Op::Acquire(LockId::new(0))))
            .unwrap();
        let before = v.len();
        assert!(v
            .admit(&Event::new(t(1), Op::Acquire(LockId::new(0))))
            .is_err());
        assert_eq!(v.len(), before);
        // A rejected event from a brand-new thread must not widen the
        // id-space bounds either.
        assert_eq!(v.num_threads(), 1);
        assert!(v
            .admit(&Event::new(t(99), Op::Release(LockId::new(7))))
            .is_err());
        assert_eq!(v.num_threads(), 1);
        assert_eq!(v.num_locks(), 1);
        // The same lock can still be released by the real holder.
        v.admit(&Event::new(t(0), Op::Release(LockId::new(0))))
            .unwrap();
        // And then acquired by the other thread.
        v.admit(&Event::new(t(1), Op::Acquire(LockId::new(0))))
            .unwrap();
    }

    #[test]
    fn wait_requires_the_monitor_held() {
        use crate::{CondId, TraceError};
        let c = CondId::new(0);
        let m = LockId::new(0);
        let mut v = StreamValidator::new();
        assert!(matches!(
            v.admit(&Event::new(t(0), Op::Wait(c, m))),
            Err(TraceError::WaitWithoutLock { .. })
        ));
        v.admit(&Event::new(t(0), Op::Acquire(m))).unwrap();
        // Another thread holding is not enough.
        assert!(v.admit(&Event::new(t(1), Op::Wait(c, m))).is_err());
        v.admit(&Event::new(t(0), Op::Wait(c, m))).unwrap();
        // The monitor stays held across the wait.
        v.admit(&Event::new(t(0), Op::Release(m))).unwrap();
        assert_eq!(v.num_condvars(), 1);
    }

    #[test]
    fn notify_needs_no_lock() {
        let mut v = StreamValidator::new();
        v.admit(&Event::new(t(0), Op::Notify(crate::CondId::new(3))))
            .unwrap();
        v.admit(&Event::new(t(1), Op::NotifyAll(crate::CondId::new(1))))
            .unwrap();
        assert_eq!(v.num_condvars(), 4);
    }

    #[test]
    fn barrier_round_parties_must_match() {
        use crate::{BarrierId, TraceError};
        let b = BarrierId::new(0);
        let mut v = StreamValidator::new();
        // Exit without enter.
        assert!(matches!(
            v.admit(&Event::new(t(0), Op::BarrierExit(b))),
            Err(TraceError::BarrierExitWithoutEnter { .. })
        ));
        v.admit(&Event::new(t(0), Op::BarrierEnter(b))).unwrap();
        // Double enter.
        assert!(matches!(
            v.admit(&Event::new(t(0), Op::BarrierEnter(b))),
            Err(TraceError::BarrierReenter { .. })
        ));
        v.admit(&Event::new(t(1), Op::BarrierEnter(b))).unwrap();
        v.admit(&Event::new(t(0), Op::BarrierExit(b))).unwrap();
        // Draining: a new enter must wait for the round to finish.
        assert!(matches!(
            v.admit(&Event::new(t(2), Op::BarrierEnter(b))),
            Err(TraceError::BarrierEnterWhileDraining { .. })
        ));
        // Double exit.
        assert!(v.admit(&Event::new(t(0), Op::BarrierExit(b))).is_err());
        v.admit(&Event::new(t(1), Op::BarrierExit(b))).unwrap();
        // Round drained: fresh rounds (with different parties) may gather.
        v.admit(&Event::new(t(2), Op::BarrierEnter(b))).unwrap();
        v.admit(&Event::new(t(2), Op::BarrierExit(b))).unwrap();
        assert_eq!(v.num_barriers(), 1);
    }

    #[test]
    fn readers_share_and_writers_exclude() {
        use crate::TraceError;
        let m = LockId::new(0);
        let mut v = StreamValidator::new();
        // Two concurrent readers are fine.
        v.admit(&Event::new(t(0), Op::AcqRead(m))).unwrap();
        v.admit(&Event::new(t(1), Op::AcqRead(m))).unwrap();
        // A writer (either spelling) cannot break in while readers hold.
        assert!(matches!(
            v.admit(&Event::new(t(2), Op::AcqWrite(m))),
            Err(TraceError::AcquireHeldLock { .. })
        ));
        assert!(v.admit(&Event::new(t(2), Op::Acquire(m))).is_err());
        // Re-entrant read-acquisition by a holder is malformed.
        assert!(matches!(
            v.admit(&Event::new(t(0), Op::AcqRead(m))),
            Err(TraceError::AcquireHeldLock { holder, .. }) if holder == t(0)
        ));
        // A non-holder cannot release; each reader releases once.
        assert!(v.admit(&Event::new(t(2), Op::Release(m))).is_err());
        v.admit(&Event::new(t(0), Op::Release(m))).unwrap();
        assert!(v.admit(&Event::new(t(0), Op::Release(m))).is_err());
        v.admit(&Event::new(t(1), Op::Release(m))).unwrap();
        // Fully drained: a writer may now take the lock, excluding readers.
        v.admit(&Event::new(t(2), Op::AcqWrite(m))).unwrap();
        assert!(matches!(
            v.admit(&Event::new(t(0), Op::AcqRead(m))),
            Err(TraceError::AcquireHeldLock { holder, .. }) if holder == t(2)
        ));
        v.admit(&Event::new(t(2), Op::Release(m))).unwrap();
        assert_eq!(v.num_locks(), 1);
    }

    #[test]
    fn try_fail_carries_no_precondition() {
        let m = LockId::new(0);
        let mut v = StreamValidator::new();
        // Failing against a free lock is tolerated (the contender may have
        // released between the failure and its serialization).
        v.admit(&Event::new(t(0), Op::TryAcqFail(m))).unwrap();
        v.admit(&Event::new(t(1), Op::AcqRead(m))).unwrap();
        // Another thread's failure against a held lock is the normal case.
        v.admit(&Event::new(t(0), Op::TryAcqFail(m))).unwrap();
        // The holder's own probe fails too in the non-reentrant model: a
        // read-holder's try_write upgrade attempt, or a mutex holder's
        // re-try_lock, both return WouldBlock and both get recorded.
        v.admit(&Event::new(t(1), Op::TryAcqFail(m))).unwrap();
        v.admit(&Event::new(t(1), Op::Release(m))).unwrap();
        v.admit(&Event::new(t(1), Op::Acquire(m))).unwrap();
        v.admit(&Event::new(t(1), Op::TryAcqFail(m))).unwrap();
        // Holds are untouched by any of the probes.
        v.admit(&Event::new(t(1), Op::Release(m))).unwrap();
        assert_eq!(v.num_locks(), 1);
    }

    #[test]
    fn wait_requires_an_exclusive_hold() {
        use crate::{CondId, TraceError};
        let c = CondId::new(0);
        let m = LockId::new(0);
        let mut v = StreamValidator::new();
        v.admit(&Event::new(t(0), Op::AcqRead(m))).unwrap();
        // A read-mode hold is not a monitor.
        assert!(matches!(
            v.admit(&Event::new(t(0), Op::Wait(c, m))),
            Err(TraceError::WaitWithoutLock { .. })
        ));
        v.admit(&Event::new(t(0), Op::Release(m))).unwrap();
        v.admit(&Event::new(t(0), Op::AcqWrite(m))).unwrap();
        v.admit(&Event::new(t(0), Op::Wait(c, m))).unwrap();
        v.admit(&Event::new(t(0), Op::Release(m))).unwrap();
    }

    #[test]
    fn ids_are_sequential_over_admitted_events() {
        let mut v = StreamValidator::new();
        let a = v.admit(&Event::new(t(0), Op::Read(VarId::new(0)))).unwrap();
        let b = v
            .admit(&Event::new(t(1), Op::Write(VarId::new(3))))
            .unwrap();
        assert_eq!(a, EventId::new(0));
        assert_eq!(b, EventId::new(1));
        assert_eq!(v.num_threads(), 2);
        assert_eq!(v.num_vars(), 4);
    }

    #[test]
    fn spilled_lock_ids_validate_like_direct_ones() {
        use crate::TraceError;
        // One script of holds, shares and violations, run on a direct-mapped
        // id, the last direct id, the first spilled id and the largest id.
        let script = |m: LockId| {
            let mut v = StreamValidator::new();
            let ops = [
                (0, Op::Acquire(m)),
                (1, Op::Acquire(m)),
                (1, Op::Release(m)),
                (0, Op::Release(m)),
                (0, Op::AcqRead(m)),
                (1, Op::AcqRead(m)),
                (1, Op::AcqRead(m)),
                (2, Op::AcqWrite(m)),
                (0, Op::Release(m)),
                (0, Op::Release(m)),
                (1, Op::Release(m)),
                (2, Op::AcqWrite(m)),
                (2, Op::Release(m)),
            ];
            let outcomes: Vec<_> = ops
                .iter()
                .map(|&(tid, op)| match v.admit(&Event::new(t(tid), op)) {
                    Ok(_) => None,
                    Err(TraceError::AcquireHeldLock { holder, .. }) => Some(Ok(holder)),
                    Err(TraceError::ReleaseUnheldLock { tid, .. }) => Some(Err(tid)),
                    Err(e) => panic!("unexpected {e}"),
                })
                .collect();
            assert!(v.lock_holder.direct.len() <= DIRECT_LOCKS);
            assert!(
                v.lock_holder.spill.is_empty(),
                "released locks leave no entry"
            );
            (outcomes, v.len())
        };
        let direct = script(LockId::new(3));
        assert_eq!(
            direct.0.iter().filter(|o| o.is_some()).count(),
            5,
            "the script exercises every rejection: {direct:?}"
        );
        for raw in [DIRECT_LOCKS as u32 - 1, DIRECT_LOCKS as u32, u32::MAX] {
            assert_eq!(script(LockId::new(raw)), direct, "lock id {raw}");
        }
    }
}
