//! The watch pool: every watch list of the solver in one `Vec<Watcher>`,
//! kissat-style, instead of one heap vector per literal.
//!
//! ## Layout
//!
//! Each literal owns two lists — binary clauses and long clauses — and
//! each list is a `(start, len, cap)` slot into the shared pool:
//!
//! ```text
//! slots:  [ v0 bin ][ v0 long ][ ¬v0 bin ][ ¬v0 long ][ v1 bin ] …
//! pool:   | list A ·· | list C ····· | dead ·· | list A' ······ | …
//! ```
//!
//! A list that outgrows its `cap` moves to the tail of the pool with
//! double the room (or grows in place if it already is the tail); the
//! slots it left are dead until the pool compacts, which it does at the
//! next propagation once dead-or-spare slots outnumber the watchers held.
//!
//! ## Bulk attach
//!
//! New clauses are queued ([`WatchPool::queue`]) and attached together
//! at the next propagation ([`WatchPool::settle`]): one pass counts the
//! new watchers per list, a second makes room for each list once and
//! places them — a counting sort, no per-list allocation. The watchers
//! go after each list's existing ones, in queue order, so every list
//! ends up exactly as one-at-a-time attaching would have left it and the
//! search (which visits watchers in list order) is unchanged.
//! [`WatchPool::rebuild`] is the same pass over an emptied pool.

use crate::arena::{CRef, ClauseArena};
use crate::types::Lit;

/// A watch-list entry. For long clauses `blocker` is some other literal
/// of the clause (if already true the clause is skipped without touching
/// the arena). For binary clauses `blocker` is the *other* literal — the
/// clause body is never read during propagation.
#[derive(Clone, Copy)]
pub(crate) struct Watcher {
    pub(crate) cref: CRef,
    pub(crate) blocker: Lit,
}

impl Watcher {
    /// Filler for reserved, not yet used pool slots.
    const NONE: Watcher = Watcher {
        cref: CRef::UNDEF,
        blocker: Lit(0),
    };
}

/// Which of a literal's two lists.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// Binary clauses, propagated first.
    Bin = 0,
    /// Clauses of three or more literals.
    Long = 1,
}

/// The list visited when `l` becomes true: watchers of clauses in which
/// `¬l` is watched.
#[inline]
pub(crate) fn list(l: Lit, kind: Kind) -> usize {
    2 * l.code() + kind as usize
}

/// One list's region of the pool.
#[derive(Clone, Copy, Default)]
struct Slot {
    start: u32,
    len: u32,
    cap: u32,
}

/// The smallest room a list gets when a single push outgrows it.
const MIN_CAP: u32 = 4;

/// Every watch list of one solver.
#[derive(Default)]
pub(crate) struct WatchPool {
    pool: Vec<Watcher>,
    /// Indexed by [`list`].
    slots: Vec<Slot>,
    /// Watchers held by the lists (the sum of their `len`s).
    live: usize,
    /// Clauses added since the last [`WatchPool::settle`], not yet
    /// watched.
    pending: Vec<CRef>,
    /// Attach scratch: per list, new watchers not yet given room. All
    /// zero outside [`WatchPool::attach`].
    fill: Vec<u32>,
}

/// The two watchers of a clause and the lists they go to: `¬l0`'s list
/// blocked by `l1` and `¬l1`'s blocked by `l0`.
#[inline]
fn watchers_of(arena: &ClauseArena, cref: CRef) -> [(usize, Watcher); 2] {
    let (l0, l1) = (arena.lit(cref, 0), arena.lit(cref, 1));
    let kind = if arena.size(cref) == 2 {
        Kind::Bin
    } else {
        Kind::Long
    };
    [
        (list(!l0, kind), Watcher { cref, blocker: l1 }),
        (list(!l1, kind), Watcher { cref, blocker: l0 }),
    ]
}

impl WatchPool {
    /// Add the (empty) lists of a new variable's two literals.
    pub(crate) fn add_var(&mut self) {
        self.slots.extend([Slot::default(); 4]);
    }

    /// Pool positions of `list`'s watchers.
    #[inline]
    pub(crate) fn range(&self, list: usize) -> std::ops::Range<usize> {
        let s = self.slots[list];
        s.start as usize..(s.start + s.len) as usize
    }

    /// The watcher at pool position `i` (from [`WatchPool::range`]).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Watcher {
        self.pool[i]
    }

    /// Overwrite the watcher at pool position `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, w: Watcher) {
        self.pool[i] = w;
    }

    /// Keep the first `len` watchers of `list`.
    #[inline]
    pub(crate) fn truncate(&mut self, list: usize, len: usize) {
        let s = &mut self.slots[list];
        self.live -= s.len as usize - len;
        s.len = len as u32;
    }

    /// Append one watcher to `list`, moving the list to the tail with
    /// double the room if it is full. Never moves any other list, so a
    /// caller may push to one list while walking another by position.
    #[inline]
    pub(crate) fn push(&mut self, list: usize, w: Watcher) {
        let s = self.slots[list];
        if s.len == s.cap {
            self.relocate(list, (2 * s.cap).max(MIN_CAP));
        }
        let s = &mut self.slots[list];
        self.pool[(s.start + s.len) as usize] = w;
        s.len += 1;
        self.live += 1;
    }

    /// Watch `cref` now (a learnt clause during search).
    pub(crate) fn attach_now(&mut self, arena: &ClauseArena, cref: CRef) {
        for (list, w) in watchers_of(arena, cref) {
            self.push(list, w);
        }
    }

    /// Watch `cref` from the next [`WatchPool::settle`] on.
    pub(crate) fn queue(&mut self, cref: CRef) {
        self.pending.push(cref);
    }

    /// Attach the queued clauses and compact a wasteful pool. Called at
    /// the top of every propagation, the one place lists are read.
    #[inline]
    pub(crate) fn settle(&mut self, arena: &ClauseArena) {
        if !self.pending.is_empty() {
            let mut pending = std::mem::take(&mut self.pending);
            self.attach(arena, pending.iter().copied());
            pending.clear();
            self.pending = pending;
        }
        if self.pool.len() > 2 * self.live {
            self.compact();
        }
    }

    /// Drop every watcher (and every queued clause) and watch `crefs`
    /// afresh, reusing the pool's buffer.
    pub(crate) fn rebuild(
        &mut self,
        arena: &ClauseArena,
        crefs: impl Iterator<Item = CRef> + Clone,
    ) {
        self.pool.clear();
        self.slots.fill(Slot::default());
        self.live = 0;
        self.pending.clear();
        self.attach(arena, crefs);
    }

    /// Append the watchers of `crefs` to their lists in one counting
    /// pass: count per list, then give each list room once (at its first
    /// new watcher) and place.
    fn attach(&mut self, arena: &ClauseArena, crefs: impl Iterator<Item = CRef> + Clone) {
        self.fill.resize(self.slots.len(), 0);
        let mut added = 0;
        for cref in crefs.clone() {
            for (list, _) in watchers_of(arena, cref) {
                self.fill[list] += 1;
                added += 1;
            }
        }
        self.pool.reserve(added);
        for cref in crefs {
            for (list, w) in watchers_of(arena, cref) {
                let extra = std::mem::take(&mut self.fill[list]);
                let s = self.slots[list];
                if s.len + extra > s.cap {
                    // An empty list gets exactly its watchers; a list
                    // that already has some keeps doubling.
                    let cap = if s.len == 0 {
                        extra
                    } else {
                        (s.len + extra).max(2 * s.cap)
                    };
                    self.relocate(list, cap);
                }
                self.push(list, w); // never relocates: the room is there
            }
        }
    }

    /// Give `list` room for `cap` watchers: in place if it ends the pool,
    /// otherwise by copying it to the tail and leaving its old slots dead.
    fn relocate(&mut self, list: usize, cap: u32) {
        let s = self.slots[list];
        let end = self.pool.len();
        let start = if (s.start + s.cap) as usize == end {
            s.start as usize
        } else {
            self.pool
                .extend_from_within(s.start as usize..(s.start + s.len) as usize);
            end
        };
        self.pool.resize(start + cap as usize, Watcher::NONE);
        self.slots[list] = Slot {
            start: start as u32,
            len: s.len,
            cap,
        };
    }

    /// Copy every list, in list order and with no spare room, into a
    /// pool sized to the watchers held.
    fn compact(&mut self) {
        let mut pool = Vec::with_capacity(self.live);
        for s in &mut self.slots {
            let start = pool.len() as u32;
            pool.extend_from_slice(&self.pool[s.start as usize..(s.start + s.len) as usize]);
            *s = Slot {
                start,
                len: s.len,
                cap: s.len,
            };
        }
        self.pool = pool;
    }

    /// Bytes held by the pool and its bookkeeping (capacities).
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.pool.capacity() * size_of::<Watcher>()
            + self.slots.capacity() * size_of::<Slot>()
            + self.pending.capacity() * size_of::<CRef>()
            + self.fill.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every list's `(cref, blocker)` pairs, in list order.
    fn snapshot(w: &WatchPool) -> Vec<Vec<(u32, u32)>> {
        (0..w.slots.len())
            .map(|l| {
                w.range(l)
                    .map(|i| (w.get(i).cref.0, w.get(i).blocker.0))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pool_lists_match_one_at_a_time_attach() {
        const VARS: u32 = 12;
        let mut arena = ClauseArena::new();
        let mut pool = WatchPool::default();
        for _ in 0..VARS {
            pool.add_var();
        }
        // The reference: one vector per list, pushed one watcher at a time.
        let mut model: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 4 * VARS as usize];
        let mut crefs = Vec::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for batch in 0..40 {
            for _ in 0..next(40) {
                let size = 2 + next(4) as u32;
                let first = next((VARS - size + 1) as u64) as u32;
                let lits: Vec<Lit> = (first..first + size)
                    .map(|v| Lit(2 * v + next(2) as u32))
                    .collect();
                let cref = arena.alloc(&lits, false);
                for (list, w) in watchers_of(&arena, cref) {
                    model[list].push((w.cref.0, w.blocker.0));
                }
                crefs.push(cref);
                // Learnt-style pushes and queued bulk attaches interleave.
                if batch % 3 == 0 {
                    pool.attach_now(&arena, cref);
                } else {
                    pool.queue(cref);
                }
            }
            pool.settle(&arena);
            assert_eq!(snapshot(&pool), model, "batch {batch}");
            assert_eq!(pool.live, model.iter().map(Vec::len).sum::<usize>());
            if batch % 5 == 4 {
                // Drop the back half of every list, as propagation does
                // when watchers move away: the next settle compacts.
                for (list, m) in model.iter_mut().enumerate() {
                    m.truncate(m.len() / 2);
                    pool.truncate(list, m.len());
                }
                pool.settle(&arena);
                assert_eq!(pool.pool.len(), pool.live, "settle did not compact");
                assert_eq!(snapshot(&pool), model, "compaction reordered a list");
            }
        }
        // A rebuild is a fresh bulk attach of everything, in order.
        pool.rebuild(&arena, crefs.iter().copied());
        let mut fresh: Vec<Vec<(u32, u32)>> = vec![Vec::new(); model.len()];
        for &cref in &crefs {
            for (list, w) in watchers_of(&arena, cref) {
                fresh[list].push((w.cref.0, w.blocker.0));
            }
        }
        assert_eq!(snapshot(&pool), fresh);
        assert_eq!(pool.pool.len(), pool.live, "a rebuild leaves no spare room");
    }
}
