//! The compiled-lineage cache: artifacts keyed by `(φ truth table,
//! database shape)`, deliberately excluding tuple probabilities — stored
//! as `Arc<Artifact>` behind a node-budgeted LRU so artifacts can be
//! shared immutably across shard workers and memory stays bounded.

use std::collections::HashMap;
use std::sync::Arc;

use intext_boolfn::BoolFn;
use intext_tid::{Database, TupleDesc};

/// Semantic identity of a compiled lineage.
///
/// Two components (see `DESIGN.md` for the full rationale):
///
/// * **`φ`'s canonical truth table.** [`BoolFn`] *is* a complete truth
///   table, so two syntactically different formulas with the same
///   semantics produce the same key — intentionally: their lineages are
///   the same Boolean function of the tuples.
/// * **The database shape**: `k`, the domain size, and the tuple list
///   *in insertion order*. Order matters because `TupleId`s — the
///   variable names inside compiled circuits — are assigned by insertion
///   order, so the same set of tuples inserted differently yields a
///   differently-named (though isomorphic) circuit.
///
/// Tuple **probabilities are not part of the key**. That is the entire
/// point of caching the intensional representation: re-weighting the
/// TID reuses the artifact, and evaluation is one linear circuit walk.
///
/// Grounded-circuit artifacts (general queries off the H map) key on a
/// canonical query *text* instead of a `φ` table: `ground` carries the
/// normalized rendering and `phi` holds a fixed placeholder. Ground
/// keys never collide with H keys, are excluded from snapshot
/// persistence (the store format is `φ`-addressed), and are skipped by
/// incremental patching — the artifact simply ages out of the LRU when
/// its database shape stops recurring.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    phi: BoolFn,
    k: u8,
    domain_size: u32,
    tuples: Vec<TupleDesc>,
    ground: Option<Arc<str>>,
}

impl CacheKey {
    /// Builds the key for `φ` on `db`'s shape.
    pub fn new(phi: &BoolFn, db: &Database) -> Self {
        CacheKey {
            phi: phi.clone(),
            k: db.k(),
            domain_size: db.domain_size(),
            tuples: db.iter().map(|(_, t)| t).collect(),
            ground: None,
        }
    }

    /// Builds a grounded-circuit key from a canonical query rendering on
    /// `db`'s shape. The `φ` slot holds a placeholder; `is_ground`
    /// distinguishes these keys wherever `φ`-addressed machinery
    /// (snapshots, patching) must skip them.
    pub fn for_ground(text: &str, db: &Database) -> Self {
        CacheKey {
            phi: BoolFn::bottom(1),
            k: db.k(),
            domain_size: db.domain_size(),
            tuples: db.iter().map(|(_, t)| t).collect(),
            ground: Some(Arc::from(text)),
        }
    }

    /// `true` iff this key addresses a grounded-circuit artifact.
    pub fn is_ground(&self) -> bool {
        self.ground.is_some()
    }

    /// The canonical truth table of `φ`.
    pub fn phi(&self) -> &BoolFn {
        &self.phi
    }

    /// The chain length `k` of the database shape.
    pub fn k(&self) -> u8 {
        self.k
    }

    /// The domain size of the database shape.
    pub fn domain_size(&self) -> u32 {
        self.domain_size
    }

    /// The tuple list of the database shape, in insertion order.
    pub fn tuples(&self) -> &[TupleDesc] {
        &self.tuples
    }
}

/// A compiled lineage artifact, ready for linear-time probability walks
/// under any tuple probabilities: a `¬`-`∨`-template over compacted leaf
/// OBDDs. Every cacheable plan produces this one shape — Theorem 5.2's
/// d-D has one leaf per fragment, Proposition 3.7's OBDD and a grounded
/// lineage are the one-leaf template `Hole(0)`.
pub type Artifact = intext_core::CompiledLineage;

struct CacheSlot {
    artifact: Arc<Artifact>,
    /// Logical timestamp of the last `get` or `insert` touching this
    /// slot.
    last_used: u64,
}

impl std::fmt::Debug for CacheSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheSlot")
            .field("nodes", &self.artifact.size())
            .field("last_used", &self.last_used)
            .finish_non_exhaustive()
    }
}

/// A bounded, least-recently-used store of compiled artifacts.
///
/// Three properties matter for the engine (see `DESIGN.md`,
/// "Concurrency & memory model"):
///
/// * **Entries are `Arc<Artifact>`.** Artifacts are immutable once
///   compiled — every walk takes `&self` — so one artifact can be walked
///   concurrently by many shard workers without copies or locks, and an
///   eviction never invalidates a walk in flight: workers holding the
///   `Arc` keep the artifact alive, the cache merely stops retaining it.
/// * **The budget is measured in leaf OBDD nodes**, not entries:
///   [`Artifact::size`] summed over the cache (the historical "gates"
///   names stay). Artifact sizes vary by orders of magnitude with the
///   domain size, so an entry-count bound would not bound memory. `None`
///   means unbounded (the pre-eviction behaviour).
/// * **Eviction is strict LRU at insert time.** After an insert pushes
///   the total over budget, least-recently-used entries are dropped
///   until the total fits. An artifact larger than the whole budget is
///   never retained (it is still returned to the caller and counts as
///   one eviction) and — deliberately — does not evict anything else:
///   flushing hot entries for an artifact that cannot fit anyway would
///   be pure collateral damage.
///
/// Every method that can evict returns its eviction count, which the
/// engine adds to `EngineStats::cache_evictions`.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    entries: HashMap<CacheKey, CacheSlot>,
    budget: Option<usize>,
    total_gates: usize,
    /// The logical clock recency timestamps are drawn from.
    clock: u64,
}

impl ArtifactCache {
    /// An empty cache with the given node budget (`None` = unbounded).
    pub fn new(budget: Option<usize>) -> Self {
        ArtifactCache {
            budget,
            ..Self::default()
        }
    }

    /// The artifact for `key` to *use*, refreshing its recency, or
    /// `None` on a miss. The engine's one preparer
    /// ([`PqeEngine::prepare_batch`](crate::PqeEngine::prepare_batch))
    /// is its only caller, so a served hit ranks exactly as a
    /// sequential engine's does and a server evicts what that engine
    /// would.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<Artifact>> {
        let slot = self.entries.get_mut(key)?;
        self.clock += 1;
        slot.last_used = self.clock;
        Some(Arc::clone(&slot.artifact))
    }

    /// `true` iff `key` is cached, *without* bumping recency (used by
    /// `explain`, which must not perturb eviction order).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
    }

    /// The artifact for `key` *without* bumping recency — the read
    /// serializers and the patch step use, so exporting a snapshot
    /// never perturbs the eviction order it records.
    pub fn peek(&self, key: &CacheKey) -> Option<&Arc<Artifact>> {
        self.entries.get(key).map(|slot| &slot.artifact)
    }

    /// Every entry in ascending last-used order (least recently used
    /// first). This is the canonical snapshot order: inserting a saved
    /// snapshot back in this order replays the recency ranking, so a
    /// restored LRU evicts in the same order the saved one would have —
    /// and, the `HashMap` being iteration-order-unstable, sorting by the
    /// logical clock is also what makes snapshot bytes deterministic.
    pub fn entries_lru_order(&self) -> Vec<(&CacheKey, &Arc<Artifact>)> {
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_by_key(|(_, slot)| slot.last_used);
        entries
            .into_iter()
            .map(|(key, slot)| (key, &slot.artifact))
            .collect()
    }

    /// Every cached key, in unspecified order and without touching
    /// recency — how the engine finds the artifacts affected by a live
    /// tuple update (all keys over the updated database's shape,
    /// whatever their `φ`).
    pub fn keys(&self) -> impl Iterator<Item = &CacheKey> {
        self.entries.keys()
    }

    /// Inserts a freshly compiled artifact, evicting least-recently-used
    /// entries until the node budget holds again. Returns the shared
    /// handle plus the number of entries evicted.
    pub fn insert(&mut self, key: CacheKey, artifact: Artifact) -> (Arc<Artifact>, u64) {
        self.insert_arc(key, Arc::new(artifact))
    }

    /// Replaces the entry at `old_key` with an incrementally patched
    /// artifact under its post-update `new_key`. The patched entry is
    /// **LRU-refreshed** (a patch is a use: the artifact was just brought
    /// up to date because somebody is maintaining it) and its budget
    /// accounting uses the artifact's *new* size — patches that grow an
    /// entry past the node budget trigger the same eviction path as
    /// inserts, including the oversized-never-retained rule. Returns the
    /// shared handle plus the number of entries evicted.
    pub fn patch(
        &mut self,
        old_key: &CacheKey,
        new_key: CacheKey,
        artifact: Arc<Artifact>,
    ) -> (Arc<Artifact>, u64) {
        if let Some(old) = self.entries.remove(old_key) {
            self.total_gates -= old.artifact.size();
        }
        self.insert_arc(new_key, artifact)
    }

    /// [`insert`](Self::insert) for an already-shared artifact.
    fn insert_arc(&mut self, key: CacheKey, artifact: Arc<Artifact>) -> (Arc<Artifact>, u64) {
        self.clock += 1;
        let gates = artifact.size();
        if self.budget.is_some_and(|budget| gates > budget) {
            // An artifact that can never fit is not retained at all —
            // and must not flush the (still hot) existing entries as
            // collateral on its way through. One eviction: itself.
            return (artifact, 1);
        }
        let slot = CacheSlot {
            artifact: Arc::clone(&artifact),
            last_used: self.clock,
        };
        if let Some(old) = self.entries.insert(key, slot) {
            // The key was already resident (a snapshot or an import
            // re-admitting it, or a patch onto a cached shape); replace,
            // don't leak the old size.
            self.total_gates -= old.artifact.size();
        }
        self.total_gates += gates;
        let evicted = self.enforce_budget();
        (artifact, evicted)
    }

    /// Evicts LRU entries until `total_gates <= budget`; returns how many
    /// entries were dropped.
    fn enforce_budget(&mut self) -> u64 {
        let Some(budget) = self.budget else {
            return 0;
        };
        let mut evicted = 0;
        while self.total_gates > budget {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            let slot = self.entries.remove(&victim).expect("victim key exists");
            self.total_gates -= slot.artifact.size();
            evicted += 1;
        }
        evicted
    }

    /// Replaces the node budget, evicting immediately if the cache no
    /// longer fits; returns how many entries were dropped.
    pub fn set_budget(&mut self, budget: Option<usize>) -> u64 {
        self.budget = budget;
        self.enforce_budget()
    }

    /// The current node budget (`None` = unbounded).
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total leaf nodes currently retained — by construction never above the
    /// budget.
    pub fn total_gates(&self) -> usize {
        self.total_gates
    }

    /// Drops every entry (not counted as evictions).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.total_gates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::phi9;
    use intext_tid::{complete_database, Database};

    #[test]
    fn key_ignores_probabilities_but_not_shape() {
        let db = complete_database(3, 2);
        let a = CacheKey::new(&phi9(), &db);
        let b = CacheKey::new(&phi9(), &db);
        assert_eq!(a, b);
        // Different domain: different shape.
        let c = CacheKey::new(&phi9(), &complete_database(3, 3));
        assert_ne!(a, c);
        // Different φ table: different key.
        let d = CacheKey::new(&!&phi9(), &db);
        assert_ne!(a, d);
    }

    #[test]
    fn ground_keys_are_text_addressed_and_disjoint_from_h_keys() {
        let db = complete_database(3, 2);
        let a = CacheKey::for_ground("R(x0),S1(x0,x1)", &db);
        let b = CacheKey::for_ground("R(x0),S1(x0,x1)", &db);
        assert_eq!(a, b, "Arc<str> compares and hashes by content");
        assert!(a.is_ground());
        let c = CacheKey::for_ground("R(x0)", &db);
        assert_ne!(a, c);
        // A ground key never equals any H key, even one whose φ matches
        // the placeholder.
        let h = CacheKey::new(&intext_boolfn::BoolFn::bottom(1), &db);
        assert!(!h.is_ground());
        assert_ne!(a, h);
        // Shape still participates.
        let other = CacheKey::for_ground("R(x0),S1(x0,x1)", &complete_database(3, 3));
        assert_ne!(a, other);
    }

    #[test]
    fn key_depends_on_insertion_order() {
        use intext_tid::TupleDesc;
        let mut fwd = Database::new(1, 2);
        fwd.insert(TupleDesc::R(0)).unwrap();
        fwd.insert(TupleDesc::S(1, 0, 1)).unwrap();
        let mut rev = Database::new(1, 2);
        rev.insert(TupleDesc::S(1, 0, 1)).unwrap();
        rev.insert(TupleDesc::R(0)).unwrap();
        let phi = intext_boolfn::BoolFn::var(2, 0);
        assert_ne!(CacheKey::new(&phi, &fwd), CacheKey::new(&phi, &rev));
    }

    /// A distinct key per `domain` plus a compiled artifact for it; the
    /// artifact's node count grows with the domain, which the LRU tests
    /// below rely on only as "nonzero and known via `size()`".
    fn compiled(domain: u32) -> (CacheKey, Artifact) {
        let phi = phi9();
        let db = complete_database(3, domain);
        let artifact =
            intext_core::compile_dd(&phi, &db).expect("φ9 has zero Euler characteristic");
        (CacheKey::new(&phi, &db), artifact)
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut cache = ArtifactCache::new(None);
        for domain in 1..=3 {
            let (key, artifact) = compiled(domain);
            assert_eq!(cache.insert(key, artifact).1, 0);
        }
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn lru_evicts_least_recently_used_exactly_at_budget() {
        let (key_a, art_a) = compiled(2);
        let (key_b, art_b) = compiled(3);
        // C is the smallest artifact (sizes grow with the domain), so it
        // fits the budget but pushes A+B+C over it.
        let (key_c, art_c) = compiled(1);
        // Budget admits A and B together but not C on top of them.
        let budget = art_a.size() + art_b.size();
        assert!(art_c.size() <= budget, "C alone must fit the budget");
        let mut cache = ArtifactCache::new(Some(budget));
        cache.insert(key_a.clone(), art_a);
        let (_, evicted) = cache.insert(key_b.clone(), art_b);
        assert_eq!(evicted, 0, "exactly at budget: nothing evicted yet");
        assert_eq!(cache.total_gates(), budget);
        // Touch A so B becomes the least recently used.
        assert!(cache.get(&key_a).is_some());
        let (_, evicted) = cache.insert(key_c.clone(), art_c);
        assert!(evicted >= 1);
        assert!(!cache.contains(&key_b), "B was LRU and must go first");
        assert!(cache.contains(&key_c));
        assert!(cache.total_gates() <= budget);
        assert!(cache.get(&key_b).is_none(), "evicted ⟹ next access misses");
    }

    #[test]
    fn oversized_artifact_is_returned_but_not_retained() {
        let (key, artifact) = compiled(2);
        let mut cache = ArtifactCache::new(Some(artifact.size() - 1));
        let (handle, evicted) = cache.insert(key.clone(), artifact);
        assert_eq!(evicted, 1, "the entry itself is the only victim");
        assert!(handle.size() > 0, "caller still gets a usable artifact");
        assert!(!cache.contains(&key));
        assert_eq!(cache.total_gates(), 0);
    }

    #[test]
    fn oversized_artifact_leaves_hot_entries_untouched() {
        let (key_a, art_a) = compiled(1);
        let (key_big, art_big) = compiled(3);
        // Budget fits A but can never fit the domain-3 artifact.
        let mut cache = ArtifactCache::new(Some(art_big.size() - 1));
        assert!(art_a.size() < art_big.size());
        cache.insert(key_a.clone(), art_a);
        let retained = cache.total_gates();
        let (_, evicted) = cache.insert(key_big.clone(), art_big);
        assert_eq!(evicted, 1, "only the unfittable entry is evicted");
        assert!(cache.contains(&key_a), "hot entries are not collateral");
        assert!(!cache.contains(&key_big));
        assert_eq!(cache.total_gates(), retained);
    }

    #[test]
    fn shrinking_the_budget_evicts_immediately() {
        let mut cache = ArtifactCache::new(None);
        for domain in 1..=3 {
            let (key, artifact) = compiled(domain);
            cache.insert(key, artifact);
        }
        let total = cache.total_gates();
        let evicted = cache.set_budget(Some(total));
        assert_eq!(evicted, 0, "exactly fitting budget evicts nothing");
        assert!(cache.set_budget(Some(total - 1)) >= 1);
        assert!(cache.total_gates() < total);
        // Clearing empties the cache.
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.total_gates(), 0);
    }

    #[test]
    fn patch_refreshes_recency_and_rekeys() {
        let (key_a, art_a) = compiled(1);
        let (key_b, art_b) = compiled(2);
        let mut cache = ArtifactCache::new(None);
        cache.insert(key_a.clone(), art_a);
        cache.insert(key_b.clone(), art_b);
        // A is currently LRU. Patch it (same artifact shape, new key —
        // here simulated with a re-compile for a grown domain).
        let (key_a2, art_a2) = compiled(3);
        cache.patch(&key_a, key_a2.clone(), Arc::new(art_a2));
        assert!(!cache.contains(&key_a), "old key is gone after a patch");
        assert!(cache.contains(&key_a2));
        assert_eq!(cache.len(), 2);
        // The patched entry was LRU-refreshed: B is now least recent.
        let lru: Vec<_> = cache.entries_lru_order();
        assert_eq!(lru[0].0, &key_b, "patching counts as a use");
        assert_eq!(lru[1].0, &key_a2);
        // Patching a key that was already evicted just inserts.
        let (key_c, art_c) = compiled(1);
        let absent = CacheKey::new(&phi9(), &complete_database(3, 4));
        cache.patch(&absent, key_c.clone(), Arc::new(art_c));
        assert!(cache.contains(&key_c));
    }

    #[test]
    fn patch_past_budget_keeps_gate_invariant() {
        // The satellite bugfix regression: a patched artifact must be
        // budget-accounted at its *new* size. Patch a cached entry into
        // one too large for the whole budget and check the invariant
        // `total_gates() <= budget` — under the pre-fix accounting the
        // grown artifact would be retained at its stale size.
        let (key_small, art_small) = compiled(1);
        let (key_big, art_big) = compiled(3);
        let budget = art_big.size() - 1; // the patched artifact can never fit
        assert!(art_small.size() <= budget);
        let mut cache = ArtifactCache::new(Some(budget));
        cache.insert(key_small.clone(), art_small);
        let gates_before = cache.total_gates();
        assert!(gates_before <= budget);
        let (handle, evicted) = cache.patch(&key_small, key_big.clone(), Arc::new(art_big));
        assert_eq!(evicted, 1, "oversized patch result is not retained");
        assert!(handle.size() > budget, "caller still gets the artifact");
        assert!(!cache.contains(&key_small));
        assert!(!cache.contains(&key_big));
        assert!(
            cache.total_gates() <= budget,
            "gate budget invariant must survive patching"
        );
        // And a patch that fits re-enters accounting at the new size.
        let (key_mid, art_mid) = compiled(2);
        let mut cache = ArtifactCache::new(Some(art_mid.size()));
        let (key_small, art_small) = compiled(1);
        cache.insert(key_small.clone(), art_small);
        cache.patch(&key_small, key_mid.clone(), Arc::new(art_mid));
        assert!(cache.contains(&key_mid));
        assert_eq!(cache.total_gates(), cache.peek(&key_mid).unwrap().size());
        assert!(cache.total_gates() <= cache.budget().unwrap());
    }

    #[test]
    fn artifacts_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        // The whole sharded-evaluation design rests on these bounds: a
        // compile error here means an artifact grew interior mutability.
        assert_send_sync::<Artifact>();
        assert_send_sync::<std::sync::Arc<Artifact>>();
        assert_send_sync::<CacheKey>();
    }
}
