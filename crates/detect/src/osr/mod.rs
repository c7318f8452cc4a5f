//! Optimistic synchronization-reversal race prediction (Shi, Mathur &
//! Pavlogiannis, arXiv 2401.05642): the `OSR` analysis row.
//!
//! OSR is SyncP's closure with one rule relaxed. A *sync-preserving*
//! reordering may drop whole critical sections but never commutes two
//! acquisitions of one lock; OSR additionally permits a bounded number of
//! critical-section *reversals* — the later section of a same-lock pair
//! completes before the earlier one starts — which predicts strictly more
//! true races at near-SyncP cost (see [the fast path](#the-fast-path)).
//! Every report stays sound by construction: a reversal-carrying closure
//! is only believed once a concrete replay schedule of its ideal has been
//! found, and that schedule *is* the witness ([`osr_pair_witness`] exposes
//! it; the vindication layer's reversal-tolerant validator replays it).
//!
//! # The abort-and-commit check
//!
//! For a candidate pair, run the sync-preserving closure (the exact rule
//! table of [`crate::syncp`]) under a set `R` of reversal *directives* —
//! section pairs `(early, late)` on one lock whose scheduled order is
//! flipped, so rule 3 demands the **later** section's release instead of
//! the earlier's. The search starts from `R = ∅`:
//!
//! 1. **Commit.** If the closure stabilizes without forcing either
//!    endpoint and `R = ∅`, the run was exactly the SyncP closure and the
//!    ideal in trace order is a witness (hence SyncP ⊆ OSR, structurally).
//!    With `R ≠ ∅` the ideal has no trace-order schedule, so a bounded,
//!    iterative DFS replay scheduler searches for a concrete linearization
//!    obeying program order, mutual exclusion, exact reads-from,
//!    wait/notify prerequisites, and the barrier gather/drain protocol; the
//!    pair is reported only if one is found.
//! 2. **Abort.** If a rule-3 release pull forced an endpoint, the culprit
//!    section pair is *reversed* (added to `R`) and the closure restarts —
//!    at most [`MAX_ATTEMPTS`] times. An abort with no lock culprit (the
//!    endpoint was forced by reads-from, program order, fork/join, or a
//!    barrier round) is final: no reversal can help, the pair is ordered.
//!
//! A pair dropped because the attempts or the DFS budget ran out is a
//! *give-up*, counted in the lane's `ClosureCounters`.
//!
//! # The fast path
//!
//! [`Osr`](crate::Osr) is [`SyncP`](crate::SyncP)'s detector with this
//! module's pair check, [`osr_check`]. Attempt `R = ∅` runs SyncP's own
//! resumable [`SyncPCore::check_pair`], so a pair that commits there —
//! every SyncP race — costs what it costs SyncP, and no ideal is built for
//! it; only [`osr_pair_witness`] reads the ideal back. Only an aborted pair
//! runs the journaling closure, [`osr_close`], which reruns `R = ∅` to mine
//! its pulls before the directive search. It shares SyncP's seed and edge
//! table for rules 1, 2, 4 and 5 ([`SyncPCore::edges`]) and keeps only its
//! own rule 3, applied pairwise over every included section — O(S²) per
//! lock — because the abort handler needs each pull's pair identity. Both
//! rule-3 encodings compute the same least fixpoint, so the two closures
//! agree on the verdict and, on commit, on the ideal.

use std::collections::HashSet;

use smarttrack_trace::{EventId, Op, Trace};

use crate::common::slot;
use crate::syncp::{forced, lw_slot, raise, ClosureScratch, PairClosures, SyncPCore, NONE};

/// Maximum closure attempts per pair, `R = ∅` included. Each restart
/// commits one more reversal directive, so this bounds both the search and
/// `|R|` (at most `MAX_ATTEMPTS - 1`).
const MAX_ATTEMPTS: usize = 16;

/// Maximum distinct replay states the DFS scheduler explores per pair
/// before giving up (giving up means *not* reporting — sound).
const DFS_STATE_BUDGET: usize = 1 << 17;

/// One reversal directive: the same-lock section pair `(early, late)` (by
/// acquisition trace order) is scheduled in reverse — `late` completes
/// before `early` starts.
type Directive = (u32, u32);

/// Reusable scratch for the journaling closure of aborted pairs.
#[derive(Clone, Debug, Default)]
pub(crate) struct OsrScratch {
    /// The closure state, reset at every attempt.
    closure: ClosureScratch,
    /// Per lock: the sections whose acquisition is in the ideal, this
    /// attempt.
    sections: Vec<Vec<u32>>,
    /// Rule-3 pulls executed this attempt: `(early, late, reversed)`.
    /// The abort handler mines these for the next directive.
    pulls: Vec<(u32, u32, bool)>,
}

impl OsrScratch {
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.closure.heap_bytes()
            + self.sections.capacity() * size_of::<Vec<u32>>()
            + self
                .sections
                .iter()
                .map(|s| s.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self.pulls.capacity() * size_of::<(u32, u32, bool)>()
    }
}

/// Runs one closure attempt under `directives`, with `work` as the
/// worklist scratch. Returns `true` when the closure stabilized without
/// forcing either endpoint (the closure frontier then describes the
/// ideal); `false` on abort, with `scratch.pulls` holding this attempt's
/// rule-3 pulls. Like [`SyncPCore::check_pair`] it stops after the event
/// that forced an endpoint, and that event's pulls are journaled before
/// their edges are raised.
fn osr_close(
    core: &SyncPCore,
    scratch: &mut OsrScratch,
    work: &mut Vec<u32>,
    directives: &[Directive],
    a: u32,
    b: u32,
) -> bool {
    let (ma, mb) = (core.meta[a as usize], core.meta[b as usize]);
    let OsrScratch {
        closure,
        sections,
        pulls,
    } = scratch;
    closure.reset();
    sections.iter_mut().for_each(Vec::clear);
    pulls.clear();
    if core.start(closure, work, ma, mb) {
        return false;
    }
    let ClosureScratch {
        frontier,
        processed,
        rare,
        ..
    } = closure;
    while let Some(t) = work.pop() {
        while processed[t as usize] < frontier[t as usize] {
            let pos = processed[t as usize];
            processed[t as usize] = pos + 1;
            let idx = core.threads[t as usize].proj[pos as usize];
            let m = core.meta[idx as usize];
            // Set when rule 3 demands the release of a still-open section.
            let mut open_demand = false;
            core.edges(m, frontier, work, rare, |frontier, work, _| {
                if matches!(m.op, Op::Release(_)) {
                    return;
                }
                let s_idx = m.aux;
                let s = core.sections[s_idx as usize];
                let included = slot(sections, s.lock as usize);
                // Rule 3, pairwise against every included section of this
                // lock. Unlike SyncP's max/pending encoding the full pair
                // identity is needed here, because directive membership
                // is per pair.
                for &p_idx in included.iter() {
                    let ps = core.sections[p_idx as usize];
                    if !(ps.write || s.write) {
                        continue; // two read-mode sections: unordered
                    }
                    let (early, late) = if ps.acq < s.acq {
                        (p_idx, s_idx)
                    } else {
                        (s_idx, p_idx)
                    };
                    let reversed = directives.contains(&(early, late));
                    pulls.push((early, late, reversed));
                    let rel = core.sections[if reversed { late } else { early } as usize].rel;
                    if rel == NONE {
                        // A demanded release that never happened (open
                        // section): not schedulable either way.
                        open_demand = true;
                    } else {
                        let rm = core.meta[rel as usize];
                        raise(frontier, work, rm.tid, rm.tpos + 1);
                    }
                }
                included.push(s_idx);
            });
            if open_demand || forced(ma, mb, frontier) {
                return false;
            }
        }
    }
    true
}

#[derive(Clone, Debug, Default)]
struct LockRep {
    write_held: bool,
    readers: u32,
}

#[derive(Clone, Debug, Default)]
struct BarRep {
    gathered: u32,
    draining: u32,
}

/// Undo record for one replayed event (the DFS backtracks through these).
enum Undo {
    Nothing,
    Lw { x: usize, prev: u32 },
    VolLw { v: usize, prev: u32 },
    LockW { l: usize },
    LockR { l: usize },
    RelW { l: usize },
    RelR { l: usize },
    Enter { b: usize },
    Exit { b: usize, sealed_from: Option<u32> },
}

/// The bounded DFS replay scheduler: searches for a linearization of the
/// ideal that a real execution could take — program order, exact
/// reads-from (plain and volatile), lock mutual exclusion (read-mode
/// sections may overlap), wait-after-notify, the barrier gather/drain
/// protocol, and fork/join gating. Mirrors the enabledness model of the
/// vindication oracle, with the trace model's stricter barrier rule (no
/// gathering while a round drains).
///
/// The search is iterative: one explicit [`Frame`] per replayed event, so
/// its depth — up to the whole ideal — is bounded by the heap, not by the
/// calling thread's stack.
struct Replay<'c> {
    core: &'c SyncPCore,
    /// The ideal, split per thread (each list in trace = program order).
    per_thread: Vec<Vec<u32>>,
    positions: Vec<u32>,
    executed: Vec<bool>,
    lw: Vec<u32>,
    vol_lw: Vec<u32>,
    locks: Vec<LockRep>,
    bars: Vec<BarRep>,
    visited: HashSet<Vec<u32>>,
    states: usize,
    /// Set when the search stopped at [`DFS_STATE_BUDGET`].
    exhausted: bool,
    out: Vec<u32>,
    remaining: usize,
}

/// One DFS level: the enabled events of a replay state, the next one to
/// try, and the step taken into the child state (undone on backtrack).
struct Frame {
    cands: Vec<u32>,
    next: usize,
    taken: Option<(u32, Undo)>,
}

impl<'c> Replay<'c> {
    /// Replays the ideal a committed [`osr_close`] left in `frontier`.
    fn new(core: &'c SyncPCore, frontier: &[u32]) -> Self {
        let nthreads = core.threads.len();
        let per_thread: Vec<Vec<u32>> = core
            .threads
            .iter()
            .zip(frontier)
            .map(|(ts, &upto)| ts.proj[..upto as usize].to_vec())
            .collect();
        let remaining = per_thread.iter().map(Vec::len).sum();
        Replay {
            core,
            per_thread,
            positions: vec![0; nthreads],
            executed: vec![false; core.meta.len()],
            lw: Vec::new(),
            vol_lw: Vec::new(),
            locks: Vec::new(),
            bars: Vec::new(),
            visited: HashSet::new(),
            states: 0,
            exhausted: false,
            out: Vec::with_capacity(remaining),
            remaining,
        }
    }

    fn enabled(&self, e: u32) -> bool {
        let m = self.core.meta[e as usize];
        if m.tpos == 0 {
            let f = self.core.threads[m.tid as usize].fork;
            if f != NONE && !self.executed[f as usize] {
                return false;
            }
        }
        match m.op {
            Op::Read(x) => self.lw.get(x.index()).copied().unwrap_or(NONE) == m.aux,
            Op::VolatileRead(v) => self.vol_lw.get(v.index()).copied().unwrap_or(NONE) == m.aux,
            Op::Acquire(l) | Op::AcqWrite(l) => self
                .locks
                .get(l.index())
                .is_none_or(|st| !st.write_held && st.readers == 0),
            Op::AcqRead(l) => self.locks.get(l.index()).is_none_or(|st| !st.write_held),
            Op::Wait(..) if m.aux != NONE => self.core.prereqs[m.aux as usize]
                .iter()
                .all(|&p| self.executed[p as usize]),
            Op::Join(u) => {
                let u = u.index();
                self.positions.get(u).copied().unwrap_or(0) as usize
                    == self.per_thread.get(u).map_or(0, Vec::len)
            }
            Op::BarrierEnter(bar) => self.bars.get(bar.index()).is_none_or(|st| st.draining == 0),
            Op::BarrierExit(bar) => {
                let st = self.bars.get(bar.index());
                let live = st.is_some_and(|st| st.draining > 0 || st.gathered > 0);
                let r = m.aux as usize;
                live && self.core.prereqs[self.core.barriers[bar.index()].rounds[r].0 as usize]
                    .iter()
                    .all(|&p| self.executed[p as usize])
            }
            _ => true,
        }
    }

    fn step(&mut self, e: u32) -> Undo {
        let m = self.core.meta[e as usize];
        self.executed[e as usize] = true;
        self.positions[m.tid as usize] += 1;
        self.remaining -= 1;
        self.out.push(e);
        match m.op {
            Op::Write(x) => {
                let cell = lw_slot(&mut self.lw, x.index());
                let prev = *cell;
                *cell = e;
                Undo::Lw { x: x.index(), prev }
            }
            Op::VolatileWrite(v) => {
                let cell = lw_slot(&mut self.vol_lw, v.index());
                let prev = *cell;
                *cell = e;
                Undo::VolLw { v: v.index(), prev }
            }
            Op::Acquire(l) | Op::AcqWrite(l) => {
                slot(&mut self.locks, l.index()).write_held = true;
                Undo::LockW { l: l.index() }
            }
            Op::AcqRead(l) => {
                slot(&mut self.locks, l.index()).readers += 1;
                Undo::LockR { l: l.index() }
            }
            Op::Release(l) if m.aux != NONE => {
                let write = self.core.sections[m.aux as usize].write;
                let st = slot(&mut self.locks, l.index());
                if write {
                    st.write_held = false;
                    Undo::RelW { l: l.index() }
                } else {
                    st.readers -= 1;
                    Undo::RelR { l: l.index() }
                }
            }
            Op::BarrierEnter(bar) => {
                slot(&mut self.bars, bar.index()).gathered += 1;
                Undo::Enter { b: bar.index() }
            }
            Op::BarrierExit(bar) => {
                let st = slot(&mut self.bars, bar.index());
                let sealed_from = if st.draining == 0 {
                    let g = st.gathered;
                    st.draining = g;
                    st.gathered = 0;
                    Some(g)
                } else {
                    None
                };
                st.draining -= 1;
                Undo::Exit {
                    b: bar.index(),
                    sealed_from,
                }
            }
            _ => Undo::Nothing,
        }
    }

    fn unstep(&mut self, e: u32, undo: Undo) {
        let m = self.core.meta[e as usize];
        self.executed[e as usize] = false;
        self.positions[m.tid as usize] -= 1;
        self.remaining += 1;
        self.out.pop();
        match undo {
            Undo::Nothing => {}
            Undo::Lw { x, prev } => self.lw[x] = prev,
            Undo::VolLw { v, prev } => self.vol_lw[v] = prev,
            Undo::LockW { l } => self.locks[l].write_held = false,
            Undo::LockR { l } => self.locks[l].readers -= 1,
            Undo::RelW { l } => self.locks[l].write_held = true,
            Undo::RelR { l } => self.locks[l].readers += 1,
            Undo::Enter { b } => self.bars[b].gathered -= 1,
            Undo::Exit { b, sealed_from } => {
                let st = &mut self.bars[b];
                st.draining += 1;
                if let Some(g) = sealed_from {
                    st.gathered = g;
                    st.draining = 0;
                }
            }
        }
    }

    /// Enters the current replay state: `Ok` with its enabled events,
    /// lowest event index first, when it is to be expanded; `Err(true)`
    /// when the whole ideal is replayed, `Err(false)` when the state was
    /// seen before or the budget is spent.
    fn visit(&mut self) -> Result<Vec<u32>, bool> {
        if self.remaining == 0 {
            return Err(true);
        }
        if self.states >= DFS_STATE_BUDGET {
            self.exhausted = true;
            return Err(false);
        }
        if !self.visited.insert(self.positions.clone()) {
            return Err(false);
        }
        self.states += 1;
        let mut cands: Vec<u32> = (0..self.per_thread.len())
            .filter_map(|t| {
                self.per_thread[t]
                    .get(self.positions[t] as usize)
                    .copied()
                    .filter(|&e| self.enabled(e))
            })
            .collect();
        cands.sort_unstable();
        Ok(cands)
    }

    /// Searches for a schedule of the whole ideal, leaving it in `out`.
    fn dfs(&mut self) -> bool {
        let mut stack = match self.visit() {
            Ok(cands) => vec![Frame {
                cands,
                next: 0,
                taken: None,
            }],
            Err(found) => return found,
        };
        while let Some(frame) = stack.last_mut() {
            if let Some((e, undo)) = frame.taken.take() {
                self.unstep(e, undo);
            }
            let Some(&e) = frame.cands.get(frame.next) else {
                stack.pop();
                continue;
            };
            frame.next += 1;
            frame.taken = Some((e, self.step(e)));
            match self.visit() {
                Ok(cands) => stack.push(Frame {
                    cands,
                    next: 0,
                    taken: None,
                }),
                Err(true) => return true,
                Err(false) => {}
            }
        }
        false
    }
}

/// How [`osr_check`] committed a racing pair.
pub(crate) enum Commit {
    /// Attempt `R = ∅` committed: SyncP's closure left the ideal in the
    /// pair's [`PairClosures`] frontier, and in trace order it is the
    /// witness.
    SyncP,
    /// A reversal-carrying attempt committed and the DFS scheduler found
    /// this linearization of its ideal.
    Replayed(Vec<u32>),
}

/// The full abort-and-commit check for one conflicting pair `a < b`.
/// Returns how the pair committed when it is an OSR race, `None`
/// otherwise. Attempt `R = ∅` runs SyncP's linear closure; only when it
/// aborts does the journaling closure rerun to mine reversal directives.
/// A pair dropped because the attempts or the DFS budget ran out is
/// counted in `closures.counters`. `scratch` is allocated at the first
/// abort.
pub(crate) fn osr_check(
    core: &SyncPCore,
    closures: &mut PairClosures,
    scratch: &mut Option<Box<OsrScratch>>,
    a: u32,
    b: u32,
) -> Option<Commit> {
    if closures.check(core, a, b) {
        return Some(Commit::SyncP);
    }
    let scratch = scratch.get_or_insert_with(Box::default);
    // Same least fixpoint, so the journaling closure aborts too; it is
    // rerun only for its pull journal.
    let committed = osr_close(core, scratch, &mut closures.work, &[], a, b);
    debug_assert!(!committed, "osr_close(R = ∅) must agree with check_pair");
    let mut directives: Vec<Directive> = Vec::new();
    loop {
        // Reverse the most recent lock culprit not yet reversed; if the
        // abort had no reversible lock pull, no reversal can help.
        let next = scratch.pulls.iter().rev().find(|&&(e, l, rev)| {
            !rev && core.sections[e as usize].rel != NONE && core.sections[l as usize].rel != NONE
        });
        let &(e, l, _) = next?;
        if directives.len() + 1 == MAX_ATTEMPTS {
            closures.counters.attempts_exhausted += 1;
            return None;
        }
        directives.push((e, l));
        if osr_close(core, scratch, &mut closures.work, &directives, a, b) {
            let mut replay = Replay::new(core, &scratch.closure.frontier);
            if replay.dfs() {
                return Some(Commit::Replayed(replay.out));
            }
            closures.counters.dfs_exhausted += u64::from(replay.exhausted);
            return None;
        }
    }
}

/// Offline pair check exposing the witness: replays `trace` up to the
/// later of `(e1, e2)`, runs the abort-and-commit check, and — when the
/// pair races — returns the full witness reordering in *schedule* order
/// (trace order for a directive-free closure, the DFS scheduler's
/// linearization when sections were reversed), followed by the pair
/// itself. The returned order passes the vindication layer's
/// reversal-tolerant validator by construction; `None` means no
/// reversal-permitting witness exists within the search bounds.
///
/// # Panics
///
/// Panics if either id is out of bounds or the events do not conflict.
pub fn osr_pair_witness(trace: &Trace, e1: EventId, e2: EventId) -> Option<Vec<EventId>> {
    SyncPCore::pair_witness(trace, e1, e2, |core, a, b| {
        let mut closures = PairClosures::default();
        match osr_check(core, &mut closures, &mut None, a, b)? {
            Commit::SyncP => Some(core.ideal(closures.frontier(core, a, b))),
            Commit::Replayed(order) => Some(order),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, Detector, Osr};
    use smarttrack_trace::{paper, LockId, ThreadId, TraceBuilder, VarId};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    fn run(b: TraceBuilder) -> crate::Report {
        let mut det = Osr::new();
        run_detector(&mut det, &b.finish());
        det.report().clone()
    }

    /// The canonical reversal trace: t1's section writes y then x (inside
    /// the section), t2's section writes y, then t2 writes x *outside*.
    /// Reversing the sections schedules t2's section first and makes the
    /// two x-writes adjacent.
    fn reversal_trace() -> smarttrack_trace::Trace {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap(); // 0
        b.push(t(0), Op::Write(x(1))).unwrap(); // 1: w(y)
        b.push(t(0), Op::Write(x(0))).unwrap(); // 2: e1 = w(x)
        b.push(t(0), Op::Release(m(0))).unwrap(); // 3
        b.push(t(1), Op::Acquire(m(0))).unwrap(); // 4
        b.push(t(1), Op::Write(x(1))).unwrap(); // 5: w(y)
        b.push(t(1), Op::Release(m(0))).unwrap(); // 6
        b.push(t(1), Op::Write(x(0))).unwrap(); // 7: e2 = w(x)
        b.finish()
    }

    #[test]
    fn detects_unsynchronized_write_write() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        let r = run(b);
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.races()[0].prior_threads, vec![t(0)]);
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let mut b = TraceBuilder::new();
        for i in 0..2 {
            b.push(t(i), Op::Acquire(m(0))).unwrap();
            b.push(t(i), Op::Write(x(0))).unwrap();
            b.push(t(i), Op::Release(m(0))).unwrap();
        }
        assert!(run(b).is_empty(), "mutual exclusion survives reversal");
    }

    #[test]
    fn detects_the_reversal_race_syncp_misses() {
        let tr = reversal_trace();
        let mut syncp = crate::SyncP::new();
        run_detector(&mut syncp, &tr);
        assert!(syncp.report().is_empty(), "SyncP is forced by rule 3");

        let mut osr = Osr::new();
        run_detector(&mut osr, &tr);
        assert_eq!(osr.report().dynamic_count(), 1);
        assert_eq!(osr.report().races()[0].event, EventId::new(7));
    }

    #[test]
    fn reversal_witness_schedules_the_later_section_first() {
        let tr = reversal_trace();
        let order = osr_pair_witness(&tr, EventId::new(2), EventId::new(7))
            .expect("the reversal pair races");
        let ids: Vec<usize> = order.iter().map(|e| e.index()).collect();
        // t2's whole section must run before t1's acquire; the pair comes
        // last, adjacent.
        assert_eq!(ids, vec![4, 5, 6, 0, 1, 2, 7]);
        let acq_t2 = ids.iter().position(|&i| i == 4).unwrap();
        let acq_t1 = ids.iter().position(|&i| i == 0).unwrap();
        assert!(acq_t2 < acq_t1, "sections reversed in the schedule");
    }

    /// The fast path's premise: SyncP's linear closure and the journaling
    /// closure at `R = ∅` compute the same least fixpoint. For every
    /// cross-thread conflicting pair of random traces mixing locks,
    /// rwlocks, waits, barriers and forks — each checked against the
    /// prefix the streaming detector would hold — they must agree on the
    /// verdict, and on commit on the frontier.
    #[test]
    fn syncp_closure_matches_the_journaling_closure_at_empty_r() {
        use smarttrack_trace::gen::RandomTraceSpec;
        let (mut commits, mut aborts) = (0usize, 0usize);
        for seed in 0..160u64 {
            let n = seed as u32;
            let tr = RandomTraceSpec {
                threads: 2 + n % 3,
                events: 60 + (seed as usize % 4) * 40,
                vars: 2 + n % 4,
                locks: 1 + n % 3,
                condvars: n % 2,
                condvar_prob: 0.08 * f64::from(n % 2),
                barriers: (n / 2) % 2,
                barrier_prob: 0.04 * f64::from((n / 2) % 2),
                rwlocks: (n / 4) % 2,
                rw_read_prob: 0.1,
                rw_write_prob: 0.04,
                rw_release_prob: 0.2,
                try_fail_prob: 0.02,
                acquire_prob: 0.15,
                release_prob: 0.2,
                fork_join: (n / 8) % 2 == 1,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            let mut core = SyncPCore::default();
            let mut closures = PairClosures::default();
            let mut scratch = OsrScratch::default();
            let mut work = Vec::new();
            for (id, event) in tr.iter() {
                let b = id.index() as u32;
                core.ingest(b, event);
                for (prev, earlier) in tr.iter().take(id.index()) {
                    if !earlier.conflicts_with(event) {
                        continue;
                    }
                    let a = prev.index() as u32;
                    let fast = closures.check(&core, a, b);
                    let slow = osr_close(&core, &mut scratch, &mut work, &[], a, b);
                    assert_eq!(fast, slow, "seed {seed}: verdicts differ on ({a}, {b})");
                    if fast {
                        commits += 1;
                        assert_eq!(
                            closures.frontier(&core, a, b),
                            scratch.closure.frontier,
                            "seed {seed}: committed ideals differ on ({a}, {b})"
                        );
                    } else {
                        aborts += 1;
                    }
                }
            }
        }
        assert!(
            commits > 0 && aborts > 0,
            "the sweep must exercise both verdicts ({commits} commits, {aborts} aborts)"
        );
    }

    #[test]
    fn figure1_still_races_with_the_syncp_witness() {
        let tr = paper::figure1();
        let mut det = Osr::new();
        run_detector(&mut det, &tr);
        assert_eq!(det.report().dynamic_count(), 1);
        let order = osr_pair_witness(&tr, EventId::new(0), EventId::new(7)).expect("races");
        let ids: Vec<usize> = order.iter().map(|e| e.index()).collect();
        assert_eq!(ids, vec![4, 5, 6, 0, 7], "R = ∅ keeps the SyncP ideal");
    }

    #[test]
    fn stays_silent_on_figure3() {
        let mut det = Osr::new();
        run_detector(&mut det, &paper::figure3());
        assert!(
            det.report().is_empty(),
            "figure 3 has no predictable race; sound OSR must stay silent"
        );
    }

    #[test]
    fn observation_chain_across_sections_still_orders() {
        // t2's section *reads* what t1's section wrote: reversing the
        // sections would break reads-from, and keeping order runs into
        // rule 3 — the pair stays ordered under OSR too.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(1))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Read(x(1))).unwrap(); // observes t0's w(x1)
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert!(run(b).is_empty(), "observation pins the section order");
    }

    #[test]
    fn reversal_blocked_by_reads_from_inside_sections() {
        // Like the canonical trace, but t1's section *reads* y and t2's
        // writes it: in trace order rule 3 forces the endpoint; reversed,
        // t2's w(y) would become the read's last writer, breaking the
        // observed reads-from (the read saw no writer). The DFS finds no
        // schedule; OSR must not report.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Read(x(1))).unwrap(); // observed last writer: none
        b.push(t(0), Op::Write(x(0))).unwrap(); // e1
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Write(x(1))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap(); // e2
        assert!(run(b).is_empty(), "reversal would re-target the read");
    }

    #[test]
    fn state_accounting_is_nonzero() {
        let mut det = Osr::new();
        run_detector(&mut det, &paper::figure1());
        assert!(det.state_bytes() > 0);
        assert!(det.footprint_bytes() >= det.core.resident_bytes());
        let stats = det.hot_path_stats();
        assert!(stats.fast_hits + stats.slow_hits > 0);
    }

    /// The journaling scratch an aborted pair leaves behind — above all
    /// its pull journal, O(S²) per lock — is resident state: both the
    /// estimate and the exact walk count every byte of it.
    #[test]
    fn journaling_scratch_is_counted_in_both_footprints() {
        let mut det = Osr::new();
        run_detector(&mut det, &reversal_trace());
        let scratch = det.scratch.as_ref().expect("the reversal pair aborts");
        assert!(
            scratch.pulls.capacity() > 0,
            "the aborted pair journals its pulls"
        );
        let scratch = std::mem::size_of::<OsrScratch>() + scratch.heap_bytes();
        let (state, footprint) = (det.state_bytes(), det.footprint_bytes());
        let kept = std::mem::take(&mut det.scratch);
        assert_eq!(state - det.state_bytes(), scratch);
        assert_eq!(footprint - det.footprint_bytes(), scratch);
        det.scratch = kept;
        assert!(det.state_bytes() <= det.footprint_bytes());
    }
}
