//! Probability annotations on top of a [`Database`].

use std::fmt;

use intext_numeric::BigRational;

use crate::{Database, DatabaseError, TupleDesc, TupleId};

/// Errors from TID construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TidError {
    /// A probability outside `[0, 1]`.
    OutOfRange(TupleId),
    /// Probability vector length differs from the tuple count.
    LengthMismatch { tuples: usize, probs: usize },
    /// The underlying instance rejected a structural update.
    Database(DatabaseError),
}

impl fmt::Display for TidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TidError::OutOfRange(id) => {
                write!(f, "probability of tuple {id:?} outside [0, 1]")
            }
            TidError::LengthMismatch { tuples, probs } => {
                write!(f, "{probs} probabilities for {tuples} tuples")
            }
            TidError::Database(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TidError {}

impl From<DatabaseError> for TidError {
    fn from(e: DatabaseError) -> Self {
        TidError::Database(e)
    }
}

/// A tuple-independent database: an instance plus a probability per tuple.
#[derive(Clone, Debug)]
pub struct Tid {
    db: Database,
    probs: Vec<BigRational>,
}

impl Tid {
    /// Builds a TID, validating that every probability lies in `[0, 1]`
    /// and that the vector covers every tuple.
    pub fn new(db: Database, probs: Vec<BigRational>) -> Result<Self, TidError> {
        if probs.len() != db.len() {
            return Err(TidError::LengthMismatch {
                tuples: db.len(),
                probs: probs.len(),
            });
        }
        for (i, p) in probs.iter().enumerate() {
            if !p.is_probability() {
                return Err(TidError::OutOfRange(TupleId(i as u32)));
            }
        }
        Ok(Tid { db, probs })
    }

    /// The underlying instance.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Probability of a tuple.
    pub fn prob(&self, id: TupleId) -> &BigRational {
        &self.probs[id.0 as usize]
    }

    /// Probability of a tuple as `f64`: the nearest double to the exact
    /// probability, what every `f64` answer is computed from.
    pub fn prob_f64(&self, id: TupleId) -> f64 {
        self.probs[id.0 as usize].to_f64()
    }

    /// Replaces a tuple's probability — the "update and recompute" use
    /// case that motivates keeping compiled lineages around.
    pub fn set_prob(&mut self, id: TupleId, p: BigRational) -> Result<(), TidError> {
        if !p.is_probability() {
            return Err(TidError::OutOfRange(id));
        }
        self.probs[id.0 as usize] = p;
        Ok(())
    }

    /// Inserts a tuple with its probability — the live-update entry
    /// point. The new tuple takes the next dense [`TupleId`]; validation
    /// (probability range, duplicates, domain) happens before any state
    /// changes, so a failed insert leaves the TID untouched.
    pub fn insert(&mut self, tuple: TupleDesc, p: BigRational) -> Result<TupleId, TidError> {
        if !p.is_probability() {
            return Err(TidError::OutOfRange(TupleId(self.db.len() as u32)));
        }
        let id = self.db.insert(tuple)?;
        self.probs.push(p);
        Ok(id)
    }

    /// Removes a tuple, returning its description and probability. Ids
    /// above the removed one shift down by one (see
    /// [`Database::remove`]); the probability vector shifts with them.
    pub fn remove(&mut self, id: TupleId) -> Result<(TupleDesc, BigRational), TidError> {
        let desc = self.db.remove(id)?;
        let p = self.probs.remove(id.0 as usize);
        Ok((desc, p))
    }

    /// The probability of one possible world, specified as the bitmask of
    /// present tuples (tuple `i` present iff bit `i` is set). Requires at
    /// most 63 tuples (brute-force scale).
    ///
    /// # Panics
    /// Panics if the database has 64 or more tuples.
    pub fn world_probability(&self, world: u64) -> BigRational {
        assert!(self.db.len() < 64, "world bitmask supports < 64 tuples");
        let mut acc = BigRational::one();
        for (i, p) in self.probs.iter().enumerate() {
            if (world >> i) & 1 == 1 {
                acc = &acc * p;
            } else {
                acc = &acc * &p.complement();
            }
        }
        acc
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// `true` iff the database has no tuples.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TupleDesc;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    fn two_tuple_db() -> Database {
        let mut db = Database::new(1, 2);
        db.insert(TupleDesc::R(0)).unwrap();
        db.insert(TupleDesc::S(1, 0, 1)).unwrap();
        db
    }

    #[test]
    fn valid_construction_and_access() {
        let tid = Tid::new(two_tuple_db(), vec![r(1, 2), r(1, 3)]).unwrap();
        assert_eq!(tid.prob(TupleId(0)), &r(1, 2));
        assert_eq!(tid.prob(TupleId(1)), &r(1, 3));
        assert_eq!(tid.len(), 2);
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(
            Tid::new(two_tuple_db(), vec![r(3, 2), r(1, 3)]).unwrap_err(),
            TidError::OutOfRange(TupleId(0))
        );
        assert_eq!(
            Tid::new(two_tuple_db(), vec![r(1, 2), r(-1, 3)]).unwrap_err(),
            TidError::OutOfRange(TupleId(1))
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        assert_eq!(
            Tid::new(two_tuple_db(), vec![r(1, 2)]).unwrap_err(),
            TidError::LengthMismatch {
                tuples: 2,
                probs: 1
            }
        );
    }

    #[test]
    fn world_probabilities_sum_to_one() {
        let tid = Tid::new(two_tuple_db(), vec![r(1, 2), r(1, 3)]).unwrap();
        let mut total = BigRational::zero();
        for w in 0..4u64 {
            total = &total + &tid.world_probability(w);
        }
        assert!(total.is_one());
        assert_eq!(tid.world_probability(0b11), r(1, 6));
        assert_eq!(tid.world_probability(0b00), r(1, 3));
    }

    #[test]
    fn insert_and_remove_keep_probs_aligned() {
        let mut tid = Tid::new(two_tuple_db(), vec![r(1, 2), r(1, 3)]).unwrap();
        let id = tid.insert(TupleDesc::T(1), r(1, 5)).unwrap();
        assert_eq!(id, TupleId(2));
        assert_eq!(tid.prob(id), &r(1, 5));
        // Failed inserts are atomic: nothing changed.
        assert_eq!(
            tid.insert(TupleDesc::T(1), r(1, 7)).unwrap_err(),
            TidError::Database(DatabaseError::DuplicateTuple(TupleDesc::T(1)))
        );
        assert_eq!(
            tid.insert(TupleDesc::R(1), r(7, 5)).unwrap_err(),
            TidError::OutOfRange(TupleId(3))
        );
        assert_eq!(tid.len(), 3);
        // Removal shifts the probability vector with the ids.
        let (desc, p) = tid.remove(TupleId(0)).unwrap();
        assert_eq!(desc, TupleDesc::R(0));
        assert_eq!(p, r(1, 2));
        assert_eq!(tid.prob(TupleId(0)), &r(1, 3));
        assert_eq!(tid.prob(TupleId(1)), &r(1, 5));
        assert_eq!(
            tid.remove(TupleId(9)).unwrap_err(),
            TidError::Database(DatabaseError::UnknownTuple(TupleId(9)))
        );
    }

    #[test]
    fn set_prob_validates() {
        let mut tid = Tid::new(two_tuple_db(), vec![r(1, 2), r(1, 3)]).unwrap();
        tid.set_prob(TupleId(0), r(2, 3)).unwrap();
        assert_eq!(tid.prob(TupleId(0)), &r(2, 3));
        assert!(tid.set_prob(TupleId(0), r(5, 3)).is_err());
    }
}
