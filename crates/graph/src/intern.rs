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
//! The pool keeps the structural [`Dnf`] of every interned id, so ids
//! resolve back to formulas through `&self`; only interning new values
//! needs `&mut`.

use crate::annotated::{Dnf, GuardSet};
use crate::fx::FxHashMap;

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
    /// DNF ids keyed by their canonical term-id vector (sorted by id —
    /// deterministic, therefore a valid hash-cons key).
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
    pub fn intern_term(&mut self, gs: &[G]) -> TermId {
        if let Some(&id) = self.term_ids.get(gs) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(gs.to_vec());
        self.term_ids.insert(gs.to_vec(), id);
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
        self.dnf_ids.insert(key, id);
        self.dnf_structs.push(d.clone());
        id
    }

    /// The structural DNF behind an id.
    pub fn dnf(&self, id: DnfId) -> &Dnf<G> {
        &self.dnf_structs[id.0 as usize]
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
                let t = self.intern_term(std::slice::from_ref(g));
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
        let t = self.intern_term(std::slice::from_ref(g));
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
