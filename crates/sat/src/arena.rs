//! The flat clause arena: every clause lives inline in one `Vec<u32>`,
//! MiniSat `RegionAllocator`-style, with a relocating garbage collector.
//!
//! ## Layout
//!
//! A clause is a contiguous run of `u32` words at a word offset ([`CRef`]):
//!
//! ```text
//! problem clause:  [ header ] [ lit 0 ] [ lit 1 ] … [ lit n-1 ]
//! learnt clause:   [ header ] [ activity: f32 bits ] [ lbd ] [ lit 0 ] … [ lit n-1 ]
//! relocated stub:  [ header | RELOCED ] [ forward CRef ] …old words…
//! ```
//!
//! The header packs `size << 3 | flags` (`LEARNT`, `DELETED`, `RELOCED`),
//! so a clause costs `1 + size` words (learnt: `3 + size`) with no
//! per-clause heap allocation and perfect scan locality for unit
//! propagation. Activity and LBD live inline only for learnt clauses —
//! problem clauses never pay for them.
//!
//! ## Garbage collection
//!
//! Deleting a clause only sets the `DELETED` bit and counts the words as
//! wasted; the block stays in place so outstanding watchers can still see
//! the flag (they are dropped lazily during propagation). When the wasted
//! fraction passes a threshold the solver runs a **relocating GC**: live
//! clauses are copied front-to-back into a fresh arena, each old header is
//! overwritten with a forwarding pointer (`RELOCED` + forward `CRef`), and
//! every root — clause lists, reason references on the trail, watch
//! lists — is rewritten through [`ClauseArena::reloc`]. See
//! `Solver::garbage_collect` for the root-rewrite protocol.

use crate::types::Lit;

/// Word offset of a clause in the arena. `CRef::UNDEF` is the null ref.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub(crate) struct CRef(pub(crate) u32);

impl CRef {
    /// The null clause reference (no reason / no clause).
    pub(crate) const UNDEF: CRef = CRef(u32::MAX);
}

const LEARNT: u32 = 1;
const DELETED: u32 = 2;
const RELOCED: u32 = 4;
const SIZE_SHIFT: u32 = 3;

/// Words occupied by a clause with `size` literals.
#[inline]
fn clause_words(size: usize, learnt: bool) -> usize {
    1 + if learnt { 2 } else { 0 } + size
}

/// The arena itself: a bump allocator over `u32` words plus a wasted-word
/// count that drives GC.
pub(crate) struct ClauseArena {
    data: Vec<u32>,
    wasted: usize,
    /// Problem (non-learnt) clauses allocated and not deleted.
    problem: usize,
}

impl ClauseArena {
    pub(crate) fn new() -> ClauseArena {
        ClauseArena {
            data: Vec::new(),
            wasted: 0,
            problem: 0,
        }
    }

    /// Total words allocated (live + wasted).
    pub(crate) fn len_words(&self) -> usize {
        self.data.len()
    }

    /// Bytes currently held by the arena's buffer (capacity, i.e. what the
    /// process actually pays), for the `sat.arena_bytes` gauge.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.data.capacity() * 4
    }

    /// Words known dead (deleted clauses + literals shaved off by
    /// strengthening).
    pub(crate) fn wasted_words(&self) -> usize {
        self.wasted
    }

    /// Live problem clauses: every non-learnt clause allocated and not
    /// deleted. A GC target counts only the clauses relocated into it, so
    /// this stays exact across collections.
    pub(crate) fn problem_clauses(&self) -> usize {
        self.problem
    }

    /// Allocate a clause; `lits.len() >= 2`.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        debug_assert!(lits.len() >= 2);
        let cref = CRef(self.data.len() as u32);
        self.problem += usize::from(!learnt);
        self.data
            .push(((lits.len() as u32) << SIZE_SHIFT) | if learnt { LEARNT } else { 0 });
        if learnt {
            self.data.push(1.0f32.to_bits()); // activity
            self.data.push(lits.len() as u32); // lbd (pessimistic default)
        }
        for &l in lits {
            self.data.push(l.0);
        }
        cref
    }

    #[inline]
    fn header(&self, c: CRef) -> u32 {
        self.data[c.0 as usize]
    }

    #[inline]
    pub(crate) fn size(&self, c: CRef) -> usize {
        (self.header(c) >> SIZE_SHIFT) as usize
    }

    #[inline]
    pub(crate) fn is_learnt(&self, c: CRef) -> bool {
        self.header(c) & LEARNT != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, c: CRef) -> bool {
        self.header(c) & DELETED != 0
    }

    #[inline]
    fn lit_base(&self, c: CRef) -> usize {
        c.0 as usize + 1 + if self.header(c) & LEARNT != 0 { 2 } else { 0 }
    }

    #[inline]
    pub(crate) fn lit(&self, c: CRef, i: usize) -> Lit {
        Lit(self.data[self.lit_base(c) + i])
    }

    /// The clause's literals. (`Lit` is `repr(transparent)` over `u32`.)
    #[inline]
    pub(crate) fn lits(&self, c: CRef) -> &[Lit] {
        let base = self.lit_base(c);
        let n = self.size(c);
        // SAFETY: Lit is a transparent u32 wrapper.
        unsafe { std::mem::transmute(&self.data[base..base + n]) }
    }

    #[inline]
    pub(crate) fn lits_mut(&mut self, c: CRef) -> &mut [Lit] {
        let base = self.lit_base(c);
        let n = self.size(c);
        // SAFETY: Lit is a transparent u32 wrapper.
        unsafe { std::mem::transmute(&mut self.data[base..base + n]) }
    }

    #[inline]
    pub(crate) fn activity(&self, c: CRef) -> f32 {
        debug_assert!(self.is_learnt(c));
        f32::from_bits(self.data[c.0 as usize + 1])
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, c: CRef, act: f32) {
        debug_assert!(self.is_learnt(c));
        self.data[c.0 as usize + 1] = act.to_bits();
    }

    #[inline]
    pub(crate) fn lbd(&self, c: CRef) -> u32 {
        debug_assert!(self.is_learnt(c));
        self.data[c.0 as usize + 2]
    }

    #[inline]
    pub(crate) fn set_lbd(&mut self, c: CRef, lbd: u32) {
        debug_assert!(self.is_learnt(c));
        self.data[c.0 as usize + 2] = lbd;
    }

    /// Mark a clause deleted. The block stays; watchers drop it lazily and
    /// the next GC reclaims the words.
    pub(crate) fn delete(&mut self, c: CRef) {
        debug_assert!(!self.is_deleted(c));
        let words = clause_words(self.size(c), self.is_learnt(c));
        self.problem -= usize::from(!self.is_learnt(c));
        self.data[c.0 as usize] |= DELETED;
        self.wasted += words;
    }

    /// Shrink a clause in place to its first `new_size` literals
    /// (strengthening). The shaved words are counted as wasted — the block
    /// keeps its allocated length until the next GC, which copies only the
    /// live prefix.
    pub(crate) fn shrink(&mut self, c: CRef, new_size: usize) {
        let old = self.size(c);
        debug_assert!(new_size >= 2 && new_size < old);
        let flags = self.header(c) & ((1 << SIZE_SHIFT) - 1);
        // Remember the allocated block length in the slack so GC can still
        // step over the block when walking? GC never walks — it copies
        // through roots — so the header can simply take the new size.
        self.data[c.0 as usize] = ((new_size as u32) << SIZE_SHIFT) | flags;
        self.wasted += old - new_size;
        if self.header(c) & LEARNT != 0 {
            let lbd = self.lbd(c).min(new_size as u32);
            self.set_lbd(c, lbd);
        }
    }

    /// Has this clause already been moved by the in-progress GC?
    #[inline]
    fn is_reloced(&self, c: CRef) -> bool {
        self.header(c) & RELOCED != 0
    }

    /// Relocate `c` into `to`, or return its forwarding pointer if it
    /// already moved. Must not be called on deleted clauses.
    pub(crate) fn reloc(&mut self, c: CRef, to: &mut ClauseArena) -> CRef {
        debug_assert!(!self.is_deleted(c));
        if self.is_reloced(c) {
            return CRef(self.data[c.0 as usize + 1]);
        }
        let learnt = self.is_learnt(c);
        let fwd = to.alloc(self.lits(c), learnt);
        if learnt {
            to.set_activity(fwd, self.activity(c));
            to.set_lbd(fwd, self.lbd(c));
        }
        self.data[c.0 as usize] |= RELOCED;
        self.data[c.0 as usize + 1] = fwd.0;
        fwd
    }

    /// An empty arena pre-sized for the live words of `self`, as the GC
    /// to-space.
    pub(crate) fn gc_target(&self) -> ClauseArena {
        ClauseArena {
            data: Vec::with_capacity(self.data.len().saturating_sub(self.wasted)),
            wasted: 0,
            problem: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(xs: &[u32]) -> Vec<Lit> {
        xs.iter().map(|&x| Lit(x)).collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[2, 5, 7]), false);
        let c2 = a.alloc(&lits(&[4, 9]), true);
        assert_eq!(a.size(c1), 3);
        assert!(!a.is_learnt(c1));
        assert_eq!(a.lits(c1), &lits(&[2, 5, 7])[..]);
        assert_eq!(a.size(c2), 2);
        assert!(a.is_learnt(c2));
        assert_eq!(a.activity(c2), 1.0);
        assert_eq!(a.lbd(c2), 2);
        assert_eq!(a.lits(c2), &lits(&[4, 9])[..]);
    }

    #[test]
    fn delete_counts_waste() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[2, 5, 7]), false);
        let _c2 = a.alloc(&lits(&[4, 9]), true);
        assert_eq!(a.wasted_words(), 0);
        a.delete(c1);
        assert!(a.is_deleted(c1));
        assert_eq!(a.wasted_words(), 4); // header + 3 lits
    }

    #[test]
    fn shrink_keeps_prefix_and_counts_waste() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[2, 5, 7, 9]), true);
        a.shrink(c, 2);
        assert_eq!(a.size(c), 2);
        assert_eq!(a.lits(c), &lits(&[2, 5])[..]);
        assert_eq!(a.wasted_words(), 2);
        assert!(a.lbd(c) <= 2);
    }

    #[test]
    fn reloc_moves_once_and_forwards() {
        let mut a = ClauseArena::new();
        let dead = a.alloc(&lits(&[10, 11, 12, 13, 14]), false);
        let c = a.alloc(&lits(&[2, 5, 7]), true);
        a.set_activity(c, 3.5);
        a.set_lbd(c, 2);
        a.delete(dead);
        let mut to = a.gc_target();
        let f1 = a.reloc(c, &mut to);
        let f2 = a.reloc(c, &mut to);
        assert_eq!(f1, f2, "second reloc must follow the forward pointer");
        assert_eq!(to.lits(f1), &lits(&[2, 5, 7])[..]);
        assert_eq!(to.activity(f1), 3.5);
        assert_eq!(to.lbd(f1), 2);
        assert!(to.len_words() < a.len_words(), "dead clause not copied");
        assert_eq!(to.wasted_words(), 0);
    }
}
