//! Relational instances over the `H`-query vocabulary.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// A relation symbol of the `h_{k,i}` vocabulary (Definition 3.1):
/// unary `R` and `T`, binary `S_1, ..., S_k`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Relation {
    /// The unary relation `R`.
    R,
    /// The binary relation `S_i` (`1 <= i <= k`).
    S(u8),
    /// The unary relation `T`.
    T,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relation::R => write!(f, "R"),
            Relation::S(i) => write!(f, "S{i}"),
            Relation::T => write!(f, "T"),
        }
    }
}

/// Identifier of a tuple inside a [`Database`]; doubles as the Boolean
/// variable naming that tuple in lineages, circuits and OBDDs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TupleId(pub u32);

/// A fully-described tuple.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TupleDesc {
    /// `R(a)`.
    R(u32),
    /// `S_i(a, b)`.
    S(u8, u32, u32),
    /// `T(b)`.
    T(u32),
}

impl fmt::Display for TupleDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TupleDesc::R(a) => write!(f, "R({a})"),
            TupleDesc::S(i, a, b) => write!(f, "S{i}({a},{b})"),
            TupleDesc::T(b) => write!(f, "T({b})"),
        }
    }
}

/// Errors from database construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DatabaseError {
    /// `S_i` index outside `1..=k`.
    BadRelationIndex(u8),
    /// Constant outside the declared domain.
    BadConstant(u32),
    /// The tuple was already inserted.
    DuplicateTuple(TupleDesc),
    /// No tuple with this id exists (removal of a dangling id).
    UnknownTuple(TupleId),
}

impl fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatabaseError::BadRelationIndex(i) => write!(f, "relation index S{i} out of range"),
            DatabaseError::BadConstant(c) => write!(f, "constant {c} outside the domain"),
            DatabaseError::DuplicateTuple(t) => write!(f, "duplicate tuple {t}"),
            DatabaseError::UnknownTuple(id) => write!(f, "no tuple with id {}", id.0),
        }
    }
}

impl std::error::Error for DatabaseError {}

/// A relational instance over the vocabulary `R, S_1..S_k, T` with the
/// active domain `{0, ..., domain_size - 1}`.
#[derive(Clone, Debug)]
pub struct Database {
    k: u8,
    domain_size: u32,
    tuples: Vec<TupleDesc>,
    /// Every tuple's id, one map for all relations: an empty instance
    /// allocates nothing, whatever its `k`.
    ids: HashMap<TupleDesc, TupleId>,
}

impl Database {
    /// Creates an empty instance for chain length `k` and the given domain.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: u8, domain_size: u32) -> Self {
        assert!(k >= 1, "the h_{{k,i}} queries need k >= 1");
        Database {
            k,
            domain_size,
            tuples: Vec::new(),
            ids: HashMap::new(),
        }
    }

    /// The chain length `k` of the vocabulary.
    pub fn k(&self) -> u8 {
        self.k
    }

    /// The canonical `R/S1../T` naming view over this database's
    /// physical schema (see [`crate::Vocabulary::h`]).
    pub fn vocabulary(&self) -> crate::Vocabulary {
        crate::Vocabulary::h(self.k)
    }

    /// Size of the active domain.
    pub fn domain_size(&self) -> u32 {
        self.domain_size
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff the instance has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    fn check_const(&self, c: u32) -> Result<(), DatabaseError> {
        if c < self.domain_size {
            Ok(())
        } else {
            Err(DatabaseError::BadConstant(c))
        }
    }

    /// Inserts a tuple, returning its fresh [`TupleId`].
    pub fn insert(&mut self, tuple: TupleDesc) -> Result<TupleId, DatabaseError> {
        let id = TupleId(u32::try_from(self.tuples.len()).expect("tuple count fits u32"));
        match tuple {
            TupleDesc::R(a) | TupleDesc::T(a) => self.check_const(a)?,
            TupleDesc::S(i, a, b) => {
                if i == 0 || i > self.k {
                    return Err(DatabaseError::BadRelationIndex(i));
                }
                self.check_const(a)?;
                self.check_const(b)?;
            }
        }
        match self.ids.entry(tuple) {
            Entry::Occupied(_) => return Err(DatabaseError::DuplicateTuple(tuple)),
            Entry::Vacant(slot) => slot.insert(id),
        };
        self.tuples.push(tuple);
        Ok(id)
    }

    /// Removes a tuple, returning its description. Tuple ids stay dense:
    /// every id above the removed one shifts down by one, exactly
    /// mirroring how re-inserting the remaining tuples in order would
    /// number them — so downstream shape comparisons and incremental
    /// artifact patches see the same ids a fresh build would.
    pub fn remove(&mut self, id: TupleId) -> Result<TupleDesc, DatabaseError> {
        if id.0 as usize >= self.tuples.len() {
            return Err(DatabaseError::UnknownTuple(id));
        }
        let removed = self.tuples.remove(id.0 as usize);
        self.ids.clear();
        let renumbered = self.tuples.iter().enumerate();
        self.ids
            .extend(renumbered.map(|(i, &tuple)| (tuple, TupleId(i as u32))));
        Ok(removed)
    }

    /// Looks up `R(a)`.
    pub fn r_tuple(&self, a: u32) -> Option<TupleId> {
        self.tuple_id(TupleDesc::R(a))
    }

    /// Looks up `S_i(a, b)`.
    pub fn s_tuple(&self, i: u8, a: u32, b: u32) -> Option<TupleId> {
        debug_assert!(i >= 1 && i <= self.k);
        self.tuple_id(TupleDesc::S(i, a, b))
    }

    /// Looks up `T(b)`.
    pub fn t_tuple(&self, b: u32) -> Option<TupleId> {
        self.tuple_id(TupleDesc::T(b))
    }

    /// Generic lookup by description.
    pub fn tuple_id(&self, tuple: TupleDesc) -> Option<TupleId> {
        self.ids.get(&tuple).copied()
    }

    /// The description of a tuple id.
    pub fn describe(&self, id: TupleId) -> TupleDesc {
        self.tuples[id.0 as usize]
    }

    /// Iterates over `(id, description)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, TupleDesc)> + '_ {
        self.tuples
            .iter()
            .enumerate()
            .map(|(i, &t)| (TupleId(i as u32), t))
    }

    /// All facts of `S_i`, as `((a, b), id)`, in insertion order.
    pub fn s_facts(&self, i: u8) -> impl Iterator<Item = ((u32, u32), TupleId)> + '_ {
        debug_assert!(i >= 1 && i <= self.k);
        self.iter().filter_map(move |(id, tuple)| match tuple {
            TupleDesc::S(j, a, b) if j == i => Some(((a, b), id)),
            _ => None,
        })
    }

    /// `true` iff `other` has the same *shape*: chain length, domain, and
    /// tuple list in insertion order — exactly the database component of a
    /// compiled-lineage cache key. Two same-shape instances assign every
    /// tuple the same [`TupleId`], so a circuit compiled against one walks
    /// correctly under the other's probabilities. A plain `Vec` compare:
    /// cheaper than building and hashing a key, which is what batch
    /// evaluation uses it to avoid on runs of same-shape scenarios.
    pub fn same_shape(&self, other: &Database) -> bool {
        self.k == other.k && self.domain_size == other.domain_size && self.tuples == other.tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut db = Database::new(2, 3);
        let r0 = db.insert(TupleDesc::R(0)).unwrap();
        let s = db.insert(TupleDesc::S(1, 0, 2)).unwrap();
        let t = db.insert(TupleDesc::T(2)).unwrap();
        assert_eq!(db.r_tuple(0), Some(r0));
        assert_eq!(db.r_tuple(1), None);
        assert_eq!(db.s_tuple(1, 0, 2), Some(s));
        assert_eq!(db.s_tuple(2, 0, 2), None);
        assert_eq!(db.t_tuple(2), Some(t));
        assert_eq!(db.len(), 3);
        assert_eq!(db.describe(s), TupleDesc::S(1, 0, 2));
    }

    #[test]
    fn duplicate_rejected() {
        let mut db = Database::new(1, 2);
        db.insert(TupleDesc::R(1)).unwrap();
        assert_eq!(
            db.insert(TupleDesc::R(1)),
            Err(DatabaseError::DuplicateTuple(TupleDesc::R(1)))
        );
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut db = Database::new(1, 2);
        assert_eq!(
            db.insert(TupleDesc::T(2)),
            Err(DatabaseError::BadConstant(2))
        );
    }

    #[test]
    fn bad_relation_index_rejected() {
        let mut db = Database::new(2, 2);
        assert_eq!(
            db.insert(TupleDesc::S(3, 0, 0)),
            Err(DatabaseError::BadRelationIndex(3))
        );
        assert_eq!(
            db.insert(TupleDesc::S(0, 0, 0)),
            Err(DatabaseError::BadRelationIndex(0))
        );
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut db = Database::new(1, 4);
        for a in 0..4 {
            assert_eq!(db.insert(TupleDesc::R(a)).unwrap(), TupleId(a));
        }
        let ids: Vec<u32> = db.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn remove_shifts_ids_like_a_fresh_build() {
        let mut db = Database::new(2, 3);
        db.insert(TupleDesc::R(0)).unwrap();
        db.insert(TupleDesc::S(1, 0, 2)).unwrap();
        db.insert(TupleDesc::S(2, 1, 1)).unwrap();
        db.insert(TupleDesc::T(2)).unwrap();
        assert_eq!(db.remove(TupleId(1)).unwrap(), TupleDesc::S(1, 0, 2));
        // Later ids shifted down; lookups agree with the new numbering.
        assert_eq!(db.len(), 3);
        assert_eq!(db.s_tuple(1, 0, 2), None);
        assert_eq!(db.s_tuple(2, 1, 1), Some(TupleId(1)));
        assert_eq!(db.t_tuple(2), Some(TupleId(2)));
        assert_eq!(db.describe(TupleId(2)), TupleDesc::T(2));
        // Same shape as building the remainder from scratch.
        let mut fresh = Database::new(2, 3);
        fresh.insert(TupleDesc::R(0)).unwrap();
        fresh.insert(TupleDesc::S(2, 1, 1)).unwrap();
        fresh.insert(TupleDesc::T(2)).unwrap();
        assert!(db.same_shape(&fresh));
        // Dangling ids are typed errors, and remove-then-reinsert is
        // an identity on the id assignment.
        assert_eq!(
            db.remove(TupleId(3)),
            Err(DatabaseError::UnknownTuple(TupleId(3)))
        );
        assert_eq!(db.insert(TupleDesc::S(1, 0, 2)).unwrap(), TupleId(3));
    }

    #[test]
    fn same_shape_tracks_order_domain_and_k() {
        let mut a = Database::new(1, 2);
        a.insert(TupleDesc::R(0)).unwrap();
        a.insert(TupleDesc::T(1)).unwrap();
        let b = a.clone();
        assert!(a.same_shape(&b));
        // Same tuples, different insertion order: different shape.
        let mut rev = Database::new(1, 2);
        rev.insert(TupleDesc::T(1)).unwrap();
        rev.insert(TupleDesc::R(0)).unwrap();
        assert!(!a.same_shape(&rev));
        // Different domain size alone changes the shape.
        let mut wide = Database::new(1, 3);
        wide.insert(TupleDesc::R(0)).unwrap();
        wide.insert(TupleDesc::T(1)).unwrap();
        assert!(!a.same_shape(&wide));
    }

    #[test]
    fn display_formats() {
        assert_eq!(TupleDesc::S(2, 1, 3).to_string(), "S2(1,3)");
        assert_eq!(Relation::S(2).to_string(), "S2");
        assert_eq!(TupleDesc::R(7).to_string(), "R(7)");
    }
}
