//! Hash-consing pool for guard terms and [`Dnf`]s.
//!
//! The §4.4 minimizer compares, unions, and composes the same annotation
//! DNFs millions of times on large constraint sets. Interning collapses
//! each distinct guard-set and each distinct DNF to a `u32` id:
//!
//! * equality of rows becomes equality of id vectors (no tree walks);
//! * union and guard-composition are memoized — the same `(lhs, rhs)`
//!   pair is computed structurally once and looked up ever after;
//! * downstream semantic caches (e.g. the minimizer's implication cache)
//!   can key on `(DnfId, DnfId)` pairs instead of whole formulas.
//!
//! The pool keeps the structural [`Dnf`] of every interned id, so holders
//! of a shared `&DnfPool` (worker threads) can resolve ids back to
//! formulas without synchronization; only interning new values needs
//! `&mut`.

use crate::annotated::{Dnf, GuardSet};
use crate::fx::FxHashMap;
use std::sync::Arc;

/// Id of an interned guard-set (conjunction term).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(pub u32);

/// Id of an interned DNF. Ids are dense and stable for the pool's
/// lifetime; `DnfId` equality is semantic DNF equality (DNFs are kept in
/// canonical minimal form by [`Dnf`] itself).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DnfId(pub u32);

impl DnfId {
    /// The id of [`Dnf::empty`] in every pool.
    pub const EMPTY: DnfId = DnfId(0);
    /// The id of [`Dnf::always`] in every pool.
    pub const ALWAYS: DnfId = DnfId(1);
}

/// The hash-consing pool. `EMPTY` and `ALWAYS` are pre-interned so the
/// two ubiquitous constants never hit the hash maps.
#[derive(Clone, Debug)]
pub struct DnfPool<G> {
    terms: Vec<GuardSet<G>>,
    term_ids: FxHashMap<GuardSet<G>, TermId>,
    /// Canonical term-id vector per DNF (sorted by id — deterministic,
    /// therefore a valid hash-cons key).
    dnf_keys: Vec<Vec<TermId>>,
    dnf_ids: FxHashMap<Vec<TermId>, DnfId>,
    /// Structural form per DNF, for `&self` resolution.
    dnf_structs: Vec<Dnf<G>>,
    union_memo: FxHashMap<(DnfId, DnfId), DnfId>,
    and_memo: FxHashMap<(DnfId, DnfId), DnfId>,
    /// `compose(dnf, guard)` keyed by the guard's singleton term id.
    compose_memo: FxHashMap<(DnfId, TermId), DnfId>,
    guard_dnf_memo: FxHashMap<TermId, DnfId>,
    ops_hits: u64,
    ops_misses: u64,
}

impl<G: Ord + Clone + std::hash::Hash> Default for DnfPool<G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<G: Ord + Clone + std::hash::Hash> DnfPool<G> {
    /// The id of [`Dnf::empty`] in every pool.
    pub const EMPTY: DnfId = DnfId::EMPTY;
    /// The id of [`Dnf::always`] in every pool.
    pub const ALWAYS: DnfId = DnfId::ALWAYS;

    /// A pool with `EMPTY` and `ALWAYS` pre-interned.
    pub fn new() -> Self {
        let mut pool = DnfPool {
            terms: Vec::new(),
            term_ids: FxHashMap::default(),
            dnf_keys: Vec::new(),
            dnf_ids: FxHashMap::default(),
            dnf_structs: Vec::new(),
            union_memo: FxHashMap::default(),
            and_memo: FxHashMap::default(),
            compose_memo: FxHashMap::default(),
            guard_dnf_memo: FxHashMap::default(),
            ops_hits: 0,
            ops_misses: 0,
        };
        let e = pool.intern(&Dnf::empty());
        let a = pool.intern(&Dnf::always());
        debug_assert_eq!(e, Self::EMPTY);
        debug_assert_eq!(a, Self::ALWAYS);
        pool
    }

    /// Number of distinct DNFs interned.
    pub fn dnf_count(&self) -> usize {
        self.dnf_structs.len()
    }

    /// Number of distinct guard-set terms interned.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Interns one guard-set. The slice must already be in the canonical
    /// sorted/deduplicated form [`Dnf`] maintains.
    pub fn intern_term(&mut self, gs: &GuardSet<G>) -> TermId {
        if let Some(&id) = self.term_ids.get(gs) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(gs.clone());
        self.term_ids.insert(gs.clone(), id);
        id
    }

    /// The guard-set behind a term id.
    pub fn term(&self, id: TermId) -> &GuardSet<G> {
        &self.terms[id.0 as usize]
    }

    /// Interns a DNF (canonical by construction) and returns its id.
    /// Structurally equal DNFs always map to the same id.
    pub fn intern(&mut self, d: &Dnf<G>) -> DnfId {
        let mut key: Vec<TermId> = d.terms().iter().map(|t| self.intern_term(t)).collect();
        key.sort_unstable();
        if let Some(&id) = self.dnf_ids.get(&key) {
            return id;
        }
        let id = DnfId(self.dnf_structs.len() as u32);
        self.dnf_keys.push(key.clone());
        self.dnf_ids.insert(key, id);
        self.dnf_structs.push(d.clone());
        id
    }

    /// The structural DNF behind an id — `&self`, so shareable across
    /// read-only borrowers.
    pub fn dnf(&self, id: DnfId) -> &Dnf<G> {
        &self.dnf_structs[id.0 as usize]
    }

    /// Read-only lookup of an already-interned guard-set. Returns `None`
    /// (without mutating the pool) when the term was never interned.
    pub fn lookup_term(&self, gs: &GuardSet<G>) -> Option<TermId> {
        self.term_ids.get(gs).copied()
    }

    /// Read-only lookup of an already-interned DNF. Worker threads use
    /// this to dedupe freshly computed rows against the shared pool
    /// before minting thread-local ids.
    pub fn lookup(&self, d: &Dnf<G>) -> Option<DnfId> {
        let mut key = Vec::with_capacity(d.terms().len());
        for t in d.terms() {
            key.push(self.lookup_term(t)?);
        }
        key.sort_unstable();
        self.dnf_ids.get(&key).copied()
    }

    /// Read-only probe of the compose memo (`&self`, worker-safe).
    /// Identity/absorption short-circuits are applied; `None` means the
    /// pair was never computed on the owning thread.
    pub fn peek_compose(&self, a: DnfId, t: TermId) -> Option<DnfId> {
        if a == Self::EMPTY {
            return Some(Self::EMPTY);
        }
        self.compose_memo.get(&(a, t)).copied()
    }

    /// Read-only probe of the union memo (`&self`, worker-safe).
    pub fn peek_union(&self, a: DnfId, b: DnfId) -> Option<DnfId> {
        if a == b || b == Self::EMPTY {
            return Some(a);
        }
        if a == Self::EMPTY {
            return Some(b);
        }
        if a == Self::ALWAYS || b == Self::ALWAYS {
            return Some(Self::ALWAYS);
        }
        self.union_memo.get(&(a.min(b), a.max(b))).copied()
    }

    /// Records a compose result discovered off-pool (e.g. by a worker's
    /// thread-local delta pool) so later sequential calls hit the memo.
    /// The ids must all be valid in this pool.
    pub fn note_compose(&mut self, a: DnfId, t: TermId, r: DnfId) {
        self.compose_memo.insert((a, t), r);
    }

    /// Records a union result discovered off-pool; see [`Self::note_compose`].
    pub fn note_union(&mut self, a: DnfId, b: DnfId, r: DnfId) {
        self.union_memo.insert((a.min(b), a.max(b)), r);
    }

    /// Memo hits across `union`/`and`/`compose` since construction
    /// (identity short-circuits are not counted).
    pub fn ops_hits(&self) -> u64 {
        self.ops_hits
    }

    /// Structural (memo-miss) computations across `union`/`and`/`compose`.
    pub fn ops_misses(&self) -> u64 {
        self.ops_misses
    }

    /// True if `id` is the empty (unreachable) DNF.
    pub fn is_empty(&self, id: DnfId) -> bool {
        id == Self::EMPTY
    }

    /// True if `id` is the unconditional DNF.
    pub fn is_always(&self, id: DnfId) -> bool {
        id == Self::ALWAYS
    }

    /// The singleton DNF `{{g}}` for a guard, or `ALWAYS` for `None`.
    pub fn of_guard(&mut self, g: Option<&G>) -> DnfId {
        match g {
            None => Self::ALWAYS,
            Some(g) => {
                let t = self.intern_term(&vec![g.clone()]);
                if let Some(&id) = self.guard_dnf_memo.get(&t) {
                    return id;
                }
                let id = self.intern(&Dnf::term(vec![g.clone()]));
                self.guard_dnf_memo.insert(t, id);
                id
            }
        }
    }

    /// Memoized union. Commutative, so the memo is keyed `(min, max)`.
    pub fn union(&mut self, a: DnfId, b: DnfId) -> DnfId {
        if a == b || b == Self::EMPTY {
            return a;
        }
        if a == Self::EMPTY {
            return b;
        }
        if a == Self::ALWAYS || b == Self::ALWAYS {
            return Self::ALWAYS;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&id) = self.union_memo.get(&key) {
            self.ops_hits += 1;
            return id;
        }
        self.ops_misses += 1;
        let mut out = self.dnf(a).clone();
        out.union_with(self.dnf(b));
        let id = self.intern(&out);
        self.union_memo.insert(key, id);
        id
    }

    /// Memoized conjunction (cross product of terms, minimized).
    pub fn and(&mut self, a: DnfId, b: DnfId) -> DnfId {
        if a == b || b == Self::ALWAYS {
            return a;
        }
        if a == Self::ALWAYS {
            return b;
        }
        if a == Self::EMPTY || b == Self::EMPTY {
            return Self::EMPTY;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&id) = self.and_memo.get(&key) {
            self.ops_hits += 1;
            return id;
        }
        self.ops_misses += 1;
        let mut out = Dnf::empty();
        for ta in self.dnf(a).terms() {
            for tb in self.dnf(b).terms() {
                let mut t = ta.clone();
                t.extend(tb.iter().cloned());
                out.insert(t);
            }
        }
        let id = self.intern(&out);
        self.and_memo.insert(key, id);
        id
    }

    /// Memoized "walk one more guarded edge": every term of `a` extended
    /// with `extra`. With no guard this is the identity.
    pub fn compose(&mut self, a: DnfId, extra: Option<&G>) -> DnfId {
        let Some(g) = extra else { return a };
        if a == Self::EMPTY {
            return Self::EMPTY;
        }
        let t = self.intern_term(&vec![g.clone()]);
        self.compose_term(a, t)
    }

    /// [`Self::compose`] addressed by an already-interned singleton guard
    /// term — the closure engine pre-interns every edge guard once and
    /// then composes by id only, skipping the per-call term hash.
    pub fn compose_term(&mut self, a: DnfId, t: TermId) -> DnfId {
        if a == Self::EMPTY {
            return Self::EMPTY;
        }
        let key = (a, t);
        if let Some(&id) = self.compose_memo.get(&key) {
            self.ops_hits += 1;
            return id;
        }
        self.ops_misses += 1;
        debug_assert_eq!(self.terms[t.0 as usize].len(), 1, "guard terms are singletons");
        let g = self.terms[t.0 as usize][0].clone();
        let mut out = Dnf::empty();
        self.dnf(a).compose_into(Some(&g), &mut out);
        let id = self.intern(&out);
        self.compose_memo.insert(key, id);
        id
    }

    /// Consumes the pool into an immutable, `Arc`-shared snapshot that any
    /// number of threads can read concurrently. Every id interned so far
    /// stays valid (and resolves to the same formula) in the snapshot.
    pub fn freeze(self) -> FrozenDnfPool<G> {
        FrozenDnfPool {
            pool: Arc::new(self),
        }
    }

    /// Merges the provisional mints and memo discoveries of one
    /// [`SnapshotOps`] overlay back into this pool, in discovery order.
    ///
    /// Re-interning in discovery order (first occurrence wins) is what
    /// makes the level-parallel closure's pool numbering bit-identical to
    /// the sequential sweep: callers absorb worker overlays in a fixed
    /// window order, so the id each minted formula receives is independent
    /// of thread scheduling. The returned [`PoolRemap`] translates the
    /// overlay's provisional ids (`>= base`) to their final pool ids.
    ///
    /// The overlay must have been built against a pool whose first
    /// `parts.base()` ids agree with this one — in the common case, this
    /// very pool, or a snapshot of it.
    pub fn absorb(&mut self, parts: SnapshotParts<G>) -> PoolRemap {
        let remap = PoolRemap {
            base: parts.base,
            map: parts.minted.iter().map(|d| self.intern(d)).collect(),
        };
        for (a, t, r) in parts.new_compose {
            self.note_compose(remap.fix(DnfId(a)), TermId(t), remap.fix(DnfId(r)));
        }
        for (a, b, r) in parts.new_union {
            self.note_union(remap.fix(DnfId(a)), remap.fix(DnfId(b)), remap.fix(DnfId(r)));
        }
        remap
    }
}

/// An immutable, reference-counted snapshot of a [`DnfPool`], safe to
/// share across request/worker threads (`Clone` is an `Arc` bump).
///
/// This is the first-class form of the snapshot pattern the level-parallel
/// closure proved out: readers resolve ids, probe memos, and look up
/// formulas with no locking, because nothing can mutate the pool anymore.
/// Threads that need to *create* formulas layer a [`SnapshotOps`] overlay
/// on top and later [`DnfPool::absorb`] it into a mutable pool.
///
/// ```
/// use dscweaver_graph::{Dnf, DnfPool};
///
/// let mut pool: DnfPool<u32> = DnfPool::new();
/// let id = pool.intern(&Dnf::term(vec![1, 2]));
/// let frozen = pool.freeze();
/// let reader = frozen.clone(); // hand this to another thread
/// assert_eq!(reader.dnf(id), &Dnf::term(vec![1, 2]));
/// assert_eq!(reader.lookup(&Dnf::term(vec![1, 2])), Some(id));
/// ```
#[derive(Clone, Debug)]
pub struct FrozenDnfPool<G> {
    pool: Arc<DnfPool<G>>,
}

impl<G: Ord + Clone + std::hash::Hash> FrozenDnfPool<G> {
    /// The read-only pool behind the snapshot.
    pub fn as_pool(&self) -> &DnfPool<G> {
        &self.pool
    }

    /// Number of distinct DNFs interned at freeze time.
    pub fn dnf_count(&self) -> usize {
        self.pool.dnf_count()
    }

    /// Number of distinct guard-set terms interned at freeze time.
    pub fn term_count(&self) -> usize {
        self.pool.term_count()
    }

    /// The structural DNF behind an id.
    pub fn dnf(&self, id: DnfId) -> &Dnf<G> {
        self.pool.dnf(id)
    }

    /// The guard-set behind a term id.
    pub fn term(&self, id: TermId) -> &GuardSet<G> {
        self.pool.term(id)
    }

    /// Read-only lookup of an already-interned DNF.
    pub fn lookup(&self, d: &Dnf<G>) -> Option<DnfId> {
        self.pool.lookup(d)
    }

    /// Read-only lookup of an already-interned guard-set.
    pub fn lookup_term(&self, gs: &GuardSet<G>) -> Option<TermId> {
        self.pool.lookup_term(gs)
    }

    /// A fresh mutable pool with identical contents and numbering —
    /// the escape hatch for paths that must intern (e.g. an incremental
    /// re-weave seeded from a frozen cache entry).
    pub fn thaw(&self) -> DnfPool<G> {
        (*self.pool).clone()
    }

    /// A write overlay for one worker/request thread: reads hit this
    /// snapshot, new formulas get provisional ids. See [`SnapshotOps`].
    pub fn overlay(&self) -> SnapshotOps<'_, G> {
        SnapshotOps::new(&self.pool)
    }
}

/// A thread-local write overlay over a read-only pool (or pool snapshot).
///
/// Reads (`resolve`, memo probes) go to the underlying pool without
/// synchronization; formulas the pool lacks are *minted* with provisional
/// ids `>= base` (where `base` is the pool's `dnf_count()` at overlay
/// creation) and recorded together with every memo discovery. The owner
/// of a mutable pool later calls [`DnfPool::absorb`] on
/// [`SnapshotOps::into_parts`] to merge the overlay deterministically —
/// absorbing overlays in a fixed order yields the same pool numbering as
/// a fully sequential run, which is what lets the closure engines (and
/// the serve registry) share one pool across threads while staying
/// bit-identical at any thread count.
pub struct SnapshotOps<'p, G> {
    pool: &'p DnfPool<G>,
    base: u32,
    minted: Vec<Dnf<G>>,
    minted_ids: FxHashMap<Dnf<G>, u32>,
    compose_local: FxHashMap<(u32, u32), u32>,
    union_local: FxHashMap<(u32, u32), u32>,
    new_compose: Vec<(u32, u32, u32)>,
    new_union: Vec<(u32, u32, u32)>,
    hits: u64,
    misses: u64,
}

/// What one [`SnapshotOps`] overlay hands back for the deterministic
/// merge: the minted formulas in discovery order plus the memo entries
/// discovered while composing, ready for [`DnfPool::absorb`].
pub struct SnapshotParts<G> {
    base: u32,
    minted: Vec<Dnf<G>>,
    new_compose: Vec<(u32, u32, u32)>,
    new_union: Vec<(u32, u32, u32)>,
    hits: u64,
    misses: u64,
}

impl<G> SnapshotParts<G> {
    /// The pool size the overlay was created at — provisional ids start
    /// here.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Memo hits observed by the overlay (pool probes and local).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Structural computations the overlay had to perform.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Translates an overlay's provisional ids to final pool ids after
/// [`DnfPool::absorb`]. Ids below the overlay base pass through.
pub struct PoolRemap {
    base: u32,
    map: Vec<DnfId>,
}

impl PoolRemap {
    /// Final pool id for `id` (identity below the overlay base).
    pub fn fix(&self, id: DnfId) -> DnfId {
        if id.0 >= self.base {
            self.map[(id.0 - self.base) as usize]
        } else {
            id
        }
    }
}

impl<'p, G: Ord + Clone + std::hash::Hash> SnapshotOps<'p, G> {
    /// An overlay over `pool` with provisional ids starting at the pool's
    /// current `dnf_count()`.
    pub fn new(pool: &'p DnfPool<G>) -> Self {
        SnapshotOps {
            pool,
            base: pool.dnf_count() as u32,
            minted: Vec::new(),
            minted_ids: FxHashMap::default(),
            compose_local: FxHashMap::default(),
            union_local: FxHashMap::default(),
            new_compose: Vec::new(),
            new_union: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// First provisional id this overlay mints.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The structural DNF behind a pool id or a provisional id minted by
    /// this overlay.
    pub fn resolve(&self, id: DnfId) -> &Dnf<G> {
        if id.0 >= self.base {
            &self.minted[(id.0 - self.base) as usize]
        } else {
            self.pool.dnf(id)
        }
    }

    /// Local intern: dedupe against the shared pool first, then against
    /// formulas already minted on this overlay.
    pub fn mint(&mut self, d: Dnf<G>) -> DnfId {
        if let Some(id) = self.pool.lookup(&d) {
            return id;
        }
        if let Some(&id) = self.minted_ids.get(&d) {
            return DnfId(id);
        }
        let id = self.base + self.minted.len() as u32;
        self.minted_ids.insert(d.clone(), id);
        self.minted.push(d);
        DnfId(id)
    }

    /// Overlay analogue of [`DnfPool::compose_term`] (with `None` as the
    /// identity). `a` must be a pool id, not a provisional one — closure
    /// compositions always read finished (global) rows.
    pub fn compose(&mut self, a: DnfId, t: Option<TermId>) -> DnfId {
        let Some(t) = t else { return a };
        debug_assert!(a.0 < self.base);
        if let Some(r) = self.pool.peek_compose(a, t) {
            self.hits += 1;
            return r;
        }
        if let Some(&r) = self.compose_local.get(&(a.0, t.0)) {
            self.hits += 1;
            return DnfId(r);
        }
        self.misses += 1;
        let out = {
            let g = &self.pool.term(t)[0];
            let mut out = Dnf::empty();
            self.resolve(a).compose_into(Some(g), &mut out);
            out
        };
        let r = self.mint(out);
        self.compose_local.insert((a.0, t.0), r.0);
        self.new_compose.push((a.0, t.0, r.0));
        r
    }

    /// Overlay analogue of [`DnfPool::union`]; either operand may be
    /// provisional.
    pub fn union(&mut self, a: DnfId, b: DnfId) -> DnfId {
        if a.0 < self.base && b.0 < self.base {
            if let Some(r) = self.pool.peek_union(a, b) {
                self.hits += 1;
                return r;
            }
        } else if a == b {
            return a;
        }
        let key = (a.0.min(b.0), a.0.max(b.0));
        if let Some(&r) = self.union_local.get(&key) {
            self.hits += 1;
            return DnfId(r);
        }
        self.misses += 1;
        let mut out = self.resolve(a).clone();
        out.union_with(self.resolve(b));
        let r = self.mint(out);
        self.union_local.insert(key, r.0);
        self.new_union.push((key.0, key.1, r.0));
        r
    }

    /// Memo hits so far (pool probes and overlay-local).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Structural computations so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Finishes the overlay for [`DnfPool::absorb`].
    pub fn into_parts(self) -> SnapshotParts<G> {
        SnapshotParts {
            base: self.base,
            minted: self.minted,
            new_compose: self.new_compose,
            new_union: self.new_union,
            hits: self.hits,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_pre_interned() {
        let pool: DnfPool<u32> = DnfPool::new();
        assert!(pool.dnf(DnfPool::<u32>::EMPTY).is_empty());
        assert!(pool.dnf(DnfPool::<u32>::ALWAYS).is_always());
        assert_eq!(pool.dnf_count(), 2);
    }

    #[test]
    fn structural_equality_is_id_equality() {
        let mut pool: DnfPool<u32> = DnfPool::new();
        let mut a = Dnf::term(vec![1, 2]);
        a.insert(vec![3]);
        let mut b = Dnf::term(vec![3]);
        b.insert(vec![2, 1]);
        let ia = pool.intern(&a);
        let ib = pool.intern(&b);
        assert_eq!(ia, ib);
        assert_eq!(pool.dnf(ia), &a);
        // A different DNF gets a different id.
        let ic = pool.intern(&Dnf::term(vec![1]));
        assert_ne!(ia, ic);
    }

    #[test]
    fn union_matches_structural() {
        let mut pool: DnfPool<u32> = DnfPool::new();
        let a = pool.intern(&Dnf::term(vec![1]));
        let b = pool.intern(&Dnf::term(vec![2]));
        let u = pool.union(a, b);
        let mut expect = Dnf::term(vec![1]);
        expect.union_with(&Dnf::term(vec![2]));
        assert_eq!(pool.dnf(u), &expect);
        // Memo: same answer, and identities short-circuit.
        assert_eq!(pool.union(b, a), u);
        assert_eq!(pool.union(a, DnfPool::<u32>::EMPTY), a);
        assert_eq!(pool.union(a, DnfPool::<u32>::ALWAYS), DnfPool::<u32>::ALWAYS);
        assert_eq!(pool.union(u, u), u);
    }

    #[test]
    fn and_matches_structural() {
        let mut pool: DnfPool<u32> = DnfPool::new();
        let mut ab = Dnf::term(vec![1]);
        ab.insert(vec![2]);
        let a = pool.intern(&ab);
        let b = pool.intern(&Dnf::term(vec![3]));
        let c = pool.and(a, b);
        let mut expect = Dnf::term(vec![1, 3]);
        expect.insert(vec![2, 3]);
        assert_eq!(pool.dnf(c), &expect);
        assert_eq!(pool.and(a, DnfPool::<u32>::ALWAYS), a);
        assert_eq!(pool.and(a, DnfPool::<u32>::EMPTY), DnfPool::<u32>::EMPTY);
    }

    #[test]
    fn compose_appends_guard() {
        let mut pool: DnfPool<u32> = DnfPool::new();
        let a = pool.intern(&Dnf::term(vec![1]));
        let c = pool.compose(a, Some(&7));
        assert_eq!(pool.dnf(c), &Dnf::term(vec![1, 7]));
        assert_eq!(pool.compose(a, None), a, "no guard is identity");
        assert_eq!(
            pool.compose(DnfPool::<u32>::ALWAYS, Some(&7)),
            pool.intern(&Dnf::term(vec![7]))
        );
        assert_eq!(
            pool.compose(DnfPool::<u32>::EMPTY, Some(&7)),
            DnfPool::<u32>::EMPTY
        );
    }

    /// The frozen-snapshot satellite regression: driving the same
    /// operations through a single-owner pool and through a
    /// `SnapshotOps` overlay (absorbed in discovery order) must produce
    /// bit-identical pool numbering — ids, counts, and resolutions.
    #[test]
    fn snapshot_overlay_numbering_matches_single_owner() {
        // Single-owner reference path.
        let mut own: DnfPool<u32> = DnfPool::new();
        let seed_a = own.intern(&Dnf::term(vec![1]));
        let seed_b = own.intern(&Dnf::term(vec![2]));
        let t7 = own.intern_term(&vec![7]);
        let mut own_results = Vec::new();
        own_results.push(own.union(seed_a, seed_b));
        own_results.push(own.compose_term(seed_a, t7));
        own_results.push(own.union(own_results[0], own_results[1]));

        // Snapshot path: same seeds, then the same ops through an
        // overlay over a frozen snapshot, absorbed back into a thawed
        // mutable pool.
        let mut base: DnfPool<u32> = DnfPool::new();
        let sa = base.intern(&Dnf::term(vec![1]));
        let sb = base.intern(&Dnf::term(vec![2]));
        let st7 = base.intern_term(&vec![7]);
        assert_eq!((sa, sb, st7), (seed_a, seed_b, t7));
        let frozen = base.freeze();
        let mut ops = frozen.overlay();
        let mut snap_results = Vec::new();
        snap_results.push(ops.union(sa, sb));
        snap_results.push(ops.compose(sa, Some(st7)));
        snap_results.push(ops.union(snap_results[0], snap_results[1]));
        assert!(ops.misses() >= 3, "all three ops are fresh");
        let parts = ops.into_parts();
        let mut merged = frozen.thaw();
        let remap = merged.absorb(parts);
        let snap_fixed: Vec<DnfId> = snap_results.iter().map(|&d| remap.fix(d)).collect();

        assert_eq!(snap_fixed, own_results, "id numbering must match");
        assert_eq!(merged.dnf_count(), own.dnf_count());
        assert_eq!(merged.term_count(), own.term_count());
        for id in 0..own.dnf_count() as u32 {
            assert_eq!(merged.dnf(DnfId(id)), own.dnf(DnfId(id)), "dnf {id}");
        }
        // Absorb also carried the memos: re-running the ops on the merged
        // pool is all hits, no new ids.
        let before = merged.dnf_count();
        let h0 = merged.ops_hits();
        assert_eq!(merged.union(sa, sb), own_results[0]);
        assert_eq!(merged.compose_term(sa, st7), own_results[1]);
        assert_eq!(merged.dnf_count(), before);
        assert_eq!(merged.ops_hits(), h0 + 2);
    }

    /// Concurrent readers of one frozen snapshot resolve identical
    /// formulas — the read-mostly sharing contract the serve registry
    /// relies on.
    #[test]
    fn frozen_pool_shared_across_threads() {
        let mut pool: DnfPool<u32> = DnfPool::new();
        let ids: Vec<DnfId> = (0..16u32).map(|i| pool.intern(&Dnf::term(vec![i]))).collect();
        let frozen = pool.freeze();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reader = frozen.clone();
                let ids = ids.clone();
                std::thread::spawn(move || {
                    ids.iter()
                        .map(|&id| reader.dnf(id).clone())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            let got = h.join().expect("reader thread");
            for (i, d) in got.iter().enumerate() {
                assert_eq!(d, &Dnf::term(vec![i as u32]));
            }
        }
    }

    #[test]
    fn of_guard_memoizes() {
        let mut pool: DnfPool<u32> = DnfPool::new();
        let a = pool.of_guard(Some(&4));
        let b = pool.of_guard(Some(&4));
        assert_eq!(a, b);
        assert_eq!(pool.of_guard(None), DnfPool::<u32>::ALWAYS);
        assert_eq!(pool.dnf(a), &Dnf::term(vec![4]));
    }
}
