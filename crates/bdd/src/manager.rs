//! The BDD manager: node arena, unique table, computed cache and core
//! Boolean operations.

use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::hash::{FastHashMap, FastHasher};

/// Point-in-time counters for a [`BddManager`], for benchmarking and the
/// query engine's observability layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BddStats {
    /// Total nodes in the arena (including the two terminals).
    pub nodes: usize,
    /// Entries in the unique (hash-consing) table.
    pub unique_entries: usize,
    /// Probes of the operation (computed) caches.
    pub cache_lookups: u64,
    /// Probes that hit.
    pub cache_hits: u64,
}

impl BddStats {
    /// Computed-cache hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }
}

/// A handle to a BDD node. Handles are plain 32-bit indices into the owning
/// [`BddManager`]'s arena, so they are `Copy` and comparing two handles for
/// equality decides semantic equivalence of the functions they denote
/// (canonicity of ROBDDs).
///
/// A `Bdd` is only meaningful together with the manager that created it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

/// The constant `false` function.
pub const BDD_FALSE: Bdd = Bdd(0);
/// The constant `true` function.
pub const BDD_TRUE: Bdd = Bdd(1);

/// Level assigned to the two terminal nodes; greater than every real
/// variable, so "top variable" comparisons need no special cases.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub(crate) struct Node {
    pub(crate) var: u32,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

/// The arena stays below 2³¹ nodes, so the [`Op`] tags and the
/// `and_exists` keys (cube ids with the top bit set) never equal a node
/// index.
const MAX_NODES: usize = 1 << 31;

/// Fewest slots the computed cache ever has.
const MIN_CACHE_SLOTS: usize = 1024;

/// The third key word of a computed-cache slot for the operations that
/// have no third node operand. `ite` keys with its third operand, a node
/// index, and `and_exists` with its cube id plus the top bit, so every
/// tag lies above both.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub(crate) enum Op {
    And = u32::MAX,
    Or = u32::MAX - 1,
    Xor = u32::MAX - 2,
    Exists = u32::MAX - 3,
    Replace = u32::MAX - 4,
}

/// One direct-mapped computed-cache entry `(a, b, c) → r`. The all-zero
/// slot is empty: no operation probes with `a = 0` (FALSE), since each
/// returns first on a FALSE first operand.
#[derive(Clone, Copy, Default)]
struct Slot {
    a: u32,
    b: u32,
    c: u32,
    r: u32,
}

/// The slot `(a, b, c)` maps to in a cache of `len` slots (a power of two).
#[inline]
fn slot_index(a: u32, b: u32, c: u32, len: usize) -> usize {
    let mut h = FastHasher::default();
    h.write_u32(a);
    h.write_u32(b);
    h.write_u32(c);
    // The high bits of a multiplicative hash mix every input bit.
    (h.finish() >> (64 - len.trailing_zeros())) as usize
}

/// A manager owning a forest of shared, reduced, ordered BDDs.
///
/// The integer index of a variable is its level in the global order:
/// variable 0 is the topmost. Callers pick the order by choosing indices.
///
/// Nodes are never garbage collected: a manager may live as long as its
/// caller (a solver session keeps one for a runner's life), and its arena
/// only grows. Every operation memoises through one lossy, direct-mapped
/// computed cache whose slot count is the arena's node count rounded up to
/// a power of two (at least 1 024), so the cache is bounded by the arena
/// and a colliding entry simply overwrites the older one. An operation cut
/// short by the budget ([`BddManager::set_budget`]) leaves earlier handles
/// and cache entries valid.
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    unique: FastHashMap<(u32, u32, u32), u32>,
    cache: Vec<Slot>,
    pub(crate) varmaps: Vec<Vec<u32>>,
    pub(crate) varmap_index: FastHashMap<Vec<u32>, u32>,
    pub(crate) cubes: Vec<Vec<u32>>,
    pub(crate) cube_index: FastHashMap<Vec<u32>, u32>,
    num_vars: u32,
    /// Cooperative cancellation flag shared with the caller; polled in
    /// [`BddManager::mk`], the single choke point every operation funnels
    /// through.
    interrupt: Option<Arc<AtomicBool>>,
    /// Wall-clock cutoff with the same effect as the interrupt flag.
    deadline: Option<Instant>,
    /// Latched once the budget is observed exhausted: recursive operations
    /// unwind immediately (returning an arbitrary node) and stop writing
    /// to the computed cache.
    interrupted: bool,
    /// Call counter gating the (comparatively expensive) budget poll.
    mk_tick: u32,
    /// Last observed unique-table capacity, for resize trace events.
    obs_unique_cap: usize,
    cache_lookups: u64,
    cache_hits: u64,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Create a manager with no variables.
    pub fn new() -> Self {
        let nodes = vec![
            Node {
                var: TERMINAL_LEVEL,
                lo: 0,
                hi: 0,
            },
            Node {
                var: TERMINAL_LEVEL,
                lo: 1,
                hi: 1,
            },
        ];
        BddManager {
            nodes,
            unique: FastHashMap::default(),
            cache: vec![Slot::default(); MIN_CACHE_SLOTS],
            varmaps: Vec::new(),
            varmap_index: FastHashMap::default(),
            cubes: Vec::new(),
            cube_index: FastHashMap::default(),
            num_vars: 0,
            interrupt: None,
            deadline: None,
            interrupted: false,
            mk_tick: 0,
            obs_unique_cap: 0,
            cache_lookups: 0,
            cache_hits: 0,
        }
    }

    /// Install a cooperative budget: when the flag is raised by another
    /// thread, or the deadline passes, running operations unwind quickly.
    ///
    /// **Contract:** once [`BddManager::interrupted`] reports `true`, the
    /// `Bdd` handles returned by operations that were in flight are
    /// meaningless. Everything else stays valid: the unique table is never
    /// corrupted and cache writes are suppressed while interrupted, so
    /// handles and cache entries from before the interrupt keep their
    /// meaning. Calling `set_budget` again re-arms the latch and the
    /// manager can be used on, without clearing its cache.
    pub fn set_budget(&mut self, interrupt: Option<Arc<AtomicBool>>, deadline: Option<Instant>) {
        self.interrupt = interrupt;
        self.deadline = deadline;
        self.interrupted = false;
    }

    /// Has the budget installed by [`BddManager::set_budget`] been
    /// observed exhausted?
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// Current substrate counters.
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes: self.nodes.len(),
            unique_entries: self.unique.len(),
            cache_lookups: self.cache_lookups,
            cache_hits: self.cache_hits,
        }
    }

    #[cold]
    fn poll_budget(&mut self) {
        if let Some(flag) = &self.interrupt {
            if flag.load(Ordering::Relaxed) {
                self.interrupted = true;
                return;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.interrupted = true;
            }
        }
    }

    /// Number of variables allocated so far (one past the highest index used).
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Total number of nodes in the arena (including both terminals).
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// Empty the computed cache (the unique table is kept — it is required
    /// for canonicity).
    pub fn clear_caches(&mut self) {
        self.cache.fill(Slot::default());
    }

    /// Probe the computed cache for `(a, b, c)`. While interrupted every
    /// probe answers FALSE uncounted, so the recursion unwinds at once.
    #[inline]
    pub(crate) fn cached(&mut self, a: u32, b: u32, c: u32) -> Option<u32> {
        if self.interrupted {
            return Some(0);
        }
        debug_assert!(a != 0, "a FALSE first operand never reaches the cache");
        self.cache_lookups += 1;
        let s = self.cache[slot_index(a, b, c, self.cache.len())];
        if s.a == a && s.b == b && s.c == c {
            self.cache_hits += 1;
            Some(s.r)
        } else {
            None
        }
    }

    /// Store `(a, b, c) → r` unless interrupted (then `r` is garbage),
    /// overwriting whatever shared the slot. Returns `r`.
    #[inline]
    pub(crate) fn remember(&mut self, a: u32, b: u32, c: u32, r: u32) -> u32 {
        if !self.interrupted {
            let i = slot_index(a, b, c, self.cache.len());
            self.cache[i] = Slot { a, b, c, r };
        }
        r
    }

    /// Double the computed cache, rehashing its entries (colliding ones
    /// are dropped).
    #[cold]
    fn grow_cache(&mut self) {
        let len = 2 * self.cache.len();
        let old = std::mem::replace(&mut self.cache, vec![Slot::default(); len]);
        for s in old.into_iter().filter(|s| s.a != 0) {
            self.cache[slot_index(s.a, s.b, s.c, len)] = s;
        }
    }

    /// The `(lo, hi)` cofactors of `f` on level `var`, which is at or
    /// above `f`'s top level.
    #[inline]
    pub(crate) fn cofactors(&self, f: u32, var: u32) -> (u32, u32) {
        let n = self.node(f);
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    #[inline]
    pub(crate) fn node(&self, b: u32) -> Node {
        self.nodes[b as usize]
    }

    /// The level (variable index) labelling the root of `b`;
    /// `u32::MAX` for terminals.
    #[inline]
    pub fn level(&self, b: Bdd) -> u32 {
        self.nodes[b.0 as usize].var
    }

    /// The low (else) child. Panics on terminals.
    pub fn low(&self, b: Bdd) -> Bdd {
        assert!(!self.is_terminal(b), "terminals have no children");
        Bdd(self.nodes[b.0 as usize].lo)
    }

    /// The high (then) child. Panics on terminals.
    pub fn high(&self, b: Bdd) -> Bdd {
        assert!(!self.is_terminal(b), "terminals have no children");
        Bdd(self.nodes[b.0 as usize].hi)
    }

    /// Is `b` one of the two constant functions?
    #[inline]
    pub fn is_terminal(&self, b: Bdd) -> bool {
        b.0 <= 1
    }

    /// Hash-consing constructor: find-or-create the node `(var, lo, hi)`,
    /// applying the ROBDD reduction rule `lo == hi ⇒ child`.
    #[inline]
    pub(crate) fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        // Budget poll: `mk` is the choke point every operation funnels
        // through, so a counter-gated check here bounds cancellation
        // latency without touching the per-op hot paths.
        self.mk_tick = self.mk_tick.wrapping_add(1);
        if self.mk_tick & 0x0FFF == 0 && !self.interrupted {
            self.poll_budget();
        }
        // Trace gate: when tracing is disabled this is exactly one relaxed
        // atomic load and a branch — the hot-path overhead contract that
        // `tests/obs.rs` asserts.
        if rzen_obs::trace::enabled() {
            self.trace_mk();
        }
        if lo == hi {
            return lo;
        }
        debug_assert!(var < self.nodes[lo as usize].var && var < self.nodes[hi as usize].var);
        let key = (var, lo, hi);
        if let Some(&id) = self.unique.get(&key) {
            return id;
        }
        assert!(self.nodes.len() < MAX_NODES, "BDD arena full (2^31 nodes)");
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert(key, id);
        if self.nodes.len() > self.cache.len() {
            self.grow_cache();
        }
        id
    }

    /// Trace-only bookkeeping for `mk`: counts calls and emits an instant
    /// event whenever the unique table reallocated since the last call
    /// (the "resize storm" signal). Reached only while tracing is enabled.
    fn trace_mk(&mut self) {
        rzen_obs::counter!(
            "bdd.mk.calls",
            "hash-consing constructor calls (traced runs)"
        )
        .inc();
        let cap = self.unique.capacity();
        if cap != self.obs_unique_cap {
            rzen_obs::trace::instant2(
                "bdd.unique.resize",
                "capacity",
                cap as u64,
                "entries",
                self.unique.len() as u64,
            );
            self.obs_unique_cap = cap;
        }
    }

    /// The positive literal of variable `v`.
    pub fn var(&mut self, v: u32) -> Bdd {
        self.num_vars = self.num_vars.max(v + 1);
        Bdd(self.mk(v, 0, 1))
    }

    /// The negative literal of variable `v`.
    pub fn nvar(&mut self, v: u32) -> Bdd {
        self.num_vars = self.num_vars.max(v + 1);
        Bdd(self.mk(v, 1, 0))
    }

    /// A constant function.
    pub fn constant(&self, b: bool) -> Bdd {
        if b {
            BDD_TRUE
        } else {
            BDD_FALSE
        }
    }

    /// Logical negation, `f ⊕ 1`.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        Bdd(self.apply(Op::Xor, f.0, 1))
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(Op::And, f.0, g.0))
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(Op::Or, f.0, g.0))
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(Op::Xor, f.0, g.0))
    }

    /// The Shannon recursion shared by the commutative binary operators.
    /// `xor(1, g)` is not a terminal case: it recurses into `¬g`.
    pub(crate) fn apply(&mut self, op: Op, f: u32, g: u32) -> u32 {
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if f == g {
            return if op == Op::Xor { 0 } else { f };
        }
        match (op, f) {
            (Op::And, 0) => return 0,
            (Op::And, 1) | (Op::Or, 0) | (Op::Xor, 0) => return g,
            (Op::Or, 1) => return 1,
            _ => {}
        }
        if let Some(r) = self.cached(f, g, op as u32) {
            return r;
        }
        let var = self.node(f).var.min(self.node(g).var);
        let (flo, fhi) = self.cofactors(f, var);
        let (glo, ghi) = self.cofactors(g, var);
        let lo = self.apply(op, flo, glo);
        let hi = self.apply(op, fhi, ghi);
        let r = self.mk(var, lo, hi);
        self.remember(f, g, op as u32, r)
    }

    /// If-then-else: `f ? g : h`, the universal ternary connective.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        Bdd(self.ite_rec(f.0, g.0, h.0))
    }

    fn ite_rec(&mut self, f: u32, g: u32, h: u32) -> u32 {
        // Terminal cases.
        match f {
            1 => return g,
            0 => return h,
            _ => {}
        }
        if g == h {
            return g;
        }
        if g == 1 && h == 0 {
            return f;
        }
        // Delegate the two-operand shapes to `apply` so their cache
        // entries are shared.
        if g == 0 && h == 1 {
            return self.apply(Op::Xor, f, 1);
        }
        if h == 0 {
            return self.apply(Op::And, f, g);
        }
        if g == 1 {
            return self.apply(Op::Or, f, h);
        }
        if let Some(r) = self.cached(f, g, h) {
            return r;
        }
        let var = self.node(f).var.min(self.node(g).var).min(self.node(h).var);
        let (flo, fhi) = self.cofactors(f, var);
        let (glo, ghi) = self.cofactors(g, var);
        let (hlo, hhi) = self.cofactors(h, var);
        let lo = self.ite_rec(flo, glo, hlo);
        let hi = self.ite_rec(fhi, ghi, hhi);
        let r = self.mk(var, lo, hi);
        self.remember(f, g, h, r)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let nf = self.not(f);
        self.or(nf, g)
    }

    /// Biconditional `f ↔ g`.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// Difference `f ∧ ¬g`.
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.and(f, ng)
    }

    /// Decide whether `f → g` is a tautology (i.e. `f ∧ ¬g` is unsat).
    pub fn implies_check(&mut self, f: Bdd, g: Bdd) -> bool {
        self.diff(f, g) == BDD_FALSE
    }

    /// Number of distinct nodes reachable from `f` (a size measure).
    pub fn node_count(&self, f: Bdd) -> usize {
        let mut seen = crate::hash::FastHashSet::default();
        let mut stack = vec![f.0];
        while let Some(n) = stack.pop() {
            if n <= 1 || !seen.insert(n) {
                continue;
            }
            let node = self.node(n);
            stack.push(node.lo);
            stack.push(node.hi);
        }
        seen.len() + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let m = BddManager::new();
        assert_eq!(m.constant(true), BDD_TRUE);
        assert_eq!(m.constant(false), BDD_FALSE);
        assert!(m.is_terminal(BDD_TRUE));
    }

    #[test]
    fn var_canonical() {
        let mut m = BddManager::new();
        assert_eq!(m.var(3), m.var(3));
        assert_ne!(m.var(3), m.var(4));
        assert_eq!(m.num_vars(), 5);
    }

    #[test]
    fn and_or_identities() {
        let mut m = BddManager::new();
        let x = m.var(0);
        assert_eq!(m.and(x, BDD_TRUE), x);
        assert_eq!(m.and(x, BDD_FALSE), BDD_FALSE);
        assert_eq!(m.or(x, BDD_FALSE), x);
        assert_eq!(m.or(x, BDD_TRUE), BDD_TRUE);
        let nx = m.not(x);
        assert_eq!(m.and(x, nx), BDD_FALSE);
        assert_eq!(m.or(x, nx), BDD_TRUE);
    }

    #[test]
    fn de_morgan() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let a = m.and(x, y);
        let na = m.not(a);
        let nx = m.not(x);
        let ny = m.not(y);
        let o = m.or(nx, ny);
        assert_eq!(na, o);
    }

    #[test]
    fn xor_via_ite() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let ny = m.not(y);
        let xor1 = m.xor(x, y);
        let xor2 = m.ite(x, ny, y);
        assert_eq!(xor1, xor2);
    }

    #[test]
    fn ite_special_cases() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        assert_eq!(m.ite(BDD_TRUE, x, y), x);
        assert_eq!(m.ite(BDD_FALSE, x, y), y);
        assert_eq!(m.ite(x, BDD_TRUE, BDD_FALSE), x);
        let nx = m.not(x);
        assert_eq!(m.ite(x, BDD_FALSE, BDD_TRUE), nx);
        assert_eq!(m.ite(x, y, y), y);
    }

    #[test]
    fn reduction_rule() {
        let mut m = BddManager::new();
        let x = m.var(0);
        // x ? y-or-not-y : true  ==  true
        let y = m.var(1);
        let ny = m.not(y);
        let t = m.or(y, ny);
        assert_eq!(m.ite(x, t, BDD_TRUE), BDD_TRUE);
    }

    #[test]
    fn implies_and_iff() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let a = m.and(x, y);
        assert!(m.implies_check(a, x));
        assert!(!m.implies_check(x, a));
        let i1 = m.iff(x, y);
        let i2 = m.iff(y, x);
        assert_eq!(i1, i2);
    }

    #[test]
    fn node_count_counts_shared_dag() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.xor(x, y);
        // xor over 2 vars: 1 root + 2 children + 2 terminals.
        assert_eq!(m.node_count(f), 5);
    }

    #[test]
    fn clear_caches_preserves_semantics() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let a = m.and(x, y);
        m.clear_caches();
        let a2 = m.and(x, y);
        assert_eq!(a, a2);
    }

    #[test]
    fn stats_counters_move() {
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..8).map(|i| m.var(i)).collect();
        let mut f = BDD_TRUE;
        for w in vars.windows(2) {
            let x = m.xor(w[0], w[1]);
            f = m.and(f, x);
        }
        // Repeat the same ops so the computed caches actually hit.
        let mut g = BDD_TRUE;
        for w in vars.windows(2) {
            let x = m.xor(w[0], w[1]);
            g = m.and(g, x);
        }
        assert_eq!(f, g);
        let s = m.stats();
        assert!(s.nodes > 2);
        assert!(s.unique_entries > 0);
        assert!(s.cache_lookups > 0);
        assert!(s.cache_hits > 0);
        assert!(s.cache_hit_rate() > 0.0 && s.cache_hit_rate() <= 1.0);
    }

    #[test]
    fn quantifiers_and_replace_count_their_probes() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.and(x, y);
        let g = m.or(x, y);
        let c = m.cube(&[0]);
        let map = m.varmap(&[(0, 2), (1, 3)]);
        let lookups = |m: &BddManager| m.stats().cache_lookups;

        let before = lookups(&m);
        m.exists(f, c);
        assert!(lookups(&m) > before, "exists");
        let before = lookups(&m);
        m.and_exists(f, g, c);
        assert!(lookups(&m) > before, "and_exists");
        let before = lookups(&m);
        m.replace(f, map);
        assert!(lookups(&m) > before, "replace");
    }

    #[test]
    fn cache_slots_follow_the_arena() {
        let mut m = BddManager::new();
        let slots = |m: &BddManager| MIN_CACHE_SLOTS.max(m.nodes.len().next_power_of_two());
        assert_eq!(m.cache.len(), slots(&m));
        // A 100 k-node chain: every `mk` adds one node.
        let mut f = 1;
        for v in (0..100_000).rev() {
            f = m.mk(v, f, 0);
            assert_eq!(m.cache.len(), slots(&m));
        }
        assert_eq!(m.arena_size(), 100_002);
        assert_eq!(m.cache.len(), 1 << 17);
    }

    #[test]
    fn pre_raised_interrupt_latches_and_unwinds() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..16).map(|i| m.var(i)).collect();

        let flag = Arc::new(AtomicBool::new(true));
        m.set_budget(Some(flag.clone()), None);
        assert!(!m.interrupted(), "set_budget resets the latch");

        // Enough mk() traffic to cross the poll gate.
        let mut f = BDD_FALSE;
        for _ in 0..64 {
            for w in vars.windows(2) {
                let x = m.xor(w[0], w[1]);
                f = m.or(f, x);
            }
            m.clear_caches();
            if m.interrupted() {
                break;
            }
        }
        assert!(m.interrupted(), "poll in mk() must observe the raised flag");

        // Clearing the budget restores normal operation on a fresh manager
        // state, and pre-existing handles still evaluate correctly.
        m.set_budget(None, None);
        assert!(!m.interrupted());
        let x = m.var(0);
        let y = m.var(1);
        let a = m.and(x, y);
        assert!(m.eval(a, |_| true));
        assert!(!m.eval(a, |v| v == 0));
    }

    #[test]
    fn expired_deadline_interrupts() {
        use std::time::Instant;

        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..16).map(|i| m.var(i)).collect();
        m.set_budget(None, Some(Instant::now()));
        let mut f = BDD_FALSE;
        for _ in 0..64 {
            for w in vars.windows(2) {
                let x = m.xor(w[0], w[1]);
                f = m.or(f, x);
            }
            m.clear_caches();
            if m.interrupted() {
                break;
            }
        }
        assert!(m.interrupted());
    }
}
