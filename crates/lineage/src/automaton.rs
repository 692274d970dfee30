//! The product query automaton and its tuple stream.
//!
//! The automaton state packs, into one `u32`:
//! * bits `0..=k` — "`h_{k,i}` has a witness so far",
//! * bit [`R_BIT`] — `R(a)` present in the current Π_L group,
//! * bit [`T_BIT`] — `T(b)` present in the current Π_R group,
//! * bit [`PREV_BIT`] — the previously-scanned `S` tuple of the current
//!   `(a,b)` pair was present.
//!
//! Transitions are pure functions of `(state, step, present)`; resets are
//! explicit stream steps, which keeps the per-slot logic branch-free with
//! respect to group boundaries.
//!
//! [`Reach`] bounds the states the automaton can be in before each step,
//! from the stream's shape alone; the unroll visits only those.

use intext_tid::{Database, TupleId};

/// State bit: `R(a)` latch.
pub(crate) const R_BIT: u32 = 1 << 28;
/// State bit: `T(b)` latch.
pub(crate) const T_BIT: u32 = 1 << 29;
/// State bit: previous `S` of the current pair present.
pub(crate) const PREV_BIT: u32 = 1 << 30;

/// A relational slot scanned by the automaton.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOp {
    /// `R(a)` in the left stream.
    R,
    /// `T(b)` in the right stream.
    T,
    /// `S_i(a, b)`; `left` records which half of the order it belongs to.
    S {
        /// The relation index `i`.
        i: u8,
        /// `true` for `Π_L` slots (`i <= l`), `false` for `Π_R` (`i > l`).
        left: bool,
    },
}

/// One step of the unrolled stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamStep {
    /// Entering a new `Π_L` group (clears the `R` latch).
    ResetLeftGroup,
    /// Entering a new `Π_R` group (clears the `T` latch).
    ResetRightGroup,
    /// Entering a new `(a, b)` pair (clears the `prev` latch).
    ResetPair,
    /// Scanning a slot; `tuple` is `None` when the database has no tuple
    /// there (a forced "absent" transition that creates no OBDD node).
    Read {
        /// The slot kind.
        op: ReadOp,
        /// The database tuple occupying the slot, if any.
        tuple: Option<TupleId>,
    },
}

/// Applies a reset step to a state.
pub(crate) fn reset(state: u32, step: StreamStep) -> u32 {
    match step {
        StreamStep::ResetLeftGroup => state & !R_BIT,
        StreamStep::ResetRightGroup => state & !T_BIT,
        StreamStep::ResetPair => state & !PREV_BIT,
        StreamStep::Read { .. } => unreachable!("reset() only handles reset steps"),
    }
}

/// Applies a read transition: the automaton scans slot `op` and observes
/// whether the tuple is `present`.
pub(crate) fn read(state: u32, op: ReadOp, present: bool, k: u8) -> u32 {
    let mut s = state;
    match op {
        ReadOp::R => {
            s = if present { s | R_BIT } else { s & !R_BIT };
        }
        ReadOp::T => {
            s = if present { s | T_BIT } else { s & !T_BIT };
        }
        ReadOp::S { i, left } => {
            if present {
                if left && i == 1 && s & R_BIT != 0 {
                    s |= 1; // h_{k,0} = R ∧ S_1
                }
                if i >= 2 && s & PREV_BIT != 0 {
                    s |= 1 << (i - 1); // h_{k,i-1} = S_{i-1} ∧ S_i
                }
                if !left && i == k && s & T_BIT != 0 {
                    s |= 1 << k; // h_{k,k} = S_k ∧ T
                }
            }
            s = if present { s | PREV_BIT } else { s & !PREV_BIT };
        }
    }
    s
}

/// The witness bitmask of a final state (which `h_{k,i}` hold).
pub(crate) fn witnesses(state: u32) -> u32 {
    state & !(R_BIT | T_BIT | PREV_BIT)
}

/// A superset of the automaton states reachable before a stream step
/// when every read may see its slot present **or** absent, whether or
/// not the database has a tuple there: per state bit, `can0` / `can1`
/// say whether the bit may be clear / set, and the set is every state
/// whose bits each agree with them.
///
/// The set depends on `k`, the split and the domain only, never on which
/// tuples are present, so a compile and every later patch of a lineage
/// see the same sets. It is closed under the transitions: the successors
/// of its states lie in the next step's set, so a backward unroll that
/// visits only these states reads only entries it computed.
///
/// The masks step by [`read`] and [`reset`] themselves. Both are
/// monotone in the state bits (a set input bit never clears an output
/// bit), so the successors of the set's least state have every bit that
/// any successor may have clear, and those of its greatest state every
/// bit that any may have set.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Reach {
    can0: u32,
    can1: u32,
}

impl Reach {
    /// Every bit of a state over `h_{k,0..=k}` and the three latches.
    fn state_bits(k: u8) -> u32 {
        ((1 << (u32::from(k) + 1)) - 1) | R_BIT | T_BIT | PREV_BIT
    }

    /// The set after `step`.
    fn step(self, step: StreamStep, k: u8) -> Reach {
        let bits = Self::state_bits(k);
        let successors = |s: u32| match step {
            StreamStep::Read { op, .. } => [read(s, op, false, k), read(s, op, true, k)],
            reset_step => [reset(s, reset_step); 2],
        };
        let [least0, least1] = successors(bits & !self.can0);
        let [most0, most1] = successors(self.can1);
        Reach {
            can0: bits & !(least0 & least1),
            can1: most0 | most1,
        }
    }

    /// The sets before each step of `steps`, starting at stream position
    /// 0, and after the last: `steps.len() + 1` of them.
    pub(crate) fn along(steps: &[StreamStep], k: u8) -> Vec<Reach> {
        let mut sets = Vec::with_capacity(steps.len() + 1);
        // Before the first step: the all-clear start state alone.
        let mut reach = Reach {
            can0: Self::state_bits(k),
            can1: 0,
        };
        sets.push(reach);
        for &step in steps {
            reach = reach.step(step, k);
            sets.push(reach);
        }
        sets
    }

    /// Calls `f` on every state of the set (submask enumeration over the
    /// bits that may be either).
    pub(crate) fn for_each(self, mut f: impl FnMut(u32)) {
        let fixed = self.can1 & !self.can0;
        let free = self.can0 & self.can1;
        let mut sub = free;
        loop {
            f(fixed | sub);
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & free;
        }
    }
}

/// Builds the full `Π_L · Π_R` stream of a database for split variable
/// `l`: all slots of the left-grouped relations `R, S_1..S_l`, then all
/// slots of the right-grouped `T, S_{l+1}..S_k`.
pub fn slot_stream(db: &Database, l: u8) -> Vec<StreamStep> {
    let k = db.k();
    debug_assert!(l <= k);
    let n = db.domain_size();
    let mut steps = Vec::new();
    // Π_L: group by first attribute.
    if l >= 1 {
        for a in 0..n {
            steps.push(StreamStep::ResetLeftGroup);
            steps.push(StreamStep::Read {
                op: ReadOp::R,
                tuple: db.r_tuple(a),
            });
            for b in 0..n {
                steps.push(StreamStep::ResetPair);
                for i in 1..=l {
                    steps.push(StreamStep::Read {
                        op: ReadOp::S { i, left: true },
                        tuple: db.s_tuple(i, a, b),
                    });
                }
            }
        }
    }
    // Π_R: group by second attribute.
    if l < k {
        for b in 0..n {
            steps.push(StreamStep::ResetRightGroup);
            steps.push(StreamStep::Read {
                op: ReadOp::T,
                tuple: db.t_tuple(b),
            });
            for a in 0..n {
                steps.push(StreamStep::ResetPair);
                for i in (l + 1)..=k {
                    steps.push(StreamStep::Read {
                        op: ReadOp::S { i, left: false },
                        tuple: db.s_tuple(i, a, b),
                    });
                }
            }
        }
    }
    steps
}

/// Runs the automaton over a stream on a *concrete world* (presence
/// bitmask over tuple ids), returning the witness mask. This is the
/// reference semantics the OBDD unrolling is validated against.
#[cfg(test)]
pub(crate) fn run_concrete(steps: &[StreamStep], k: u8, world: u64) -> u32 {
    witnesses(run_full(steps, k, world, |_, _| {}))
}

/// [`run_concrete`]'s loop, returning the full final state (witness bits
/// and latches) and showing `visit` the full state before each step `j`
/// as `visit(j, state)`.
#[cfg(test)]
fn run_full(steps: &[StreamStep], k: u8, world: u64, mut visit: impl FnMut(usize, u32)) -> u32 {
    let mut s = 0u32;
    for (j, &step) in steps.iter().enumerate() {
        visit(j, s);
        match step {
            StreamStep::Read { op, tuple } => {
                let present = tuple.is_some_and(|t| (world >> t.0) & 1 == 1);
                s = read(s, op, present, k);
            }
            r => s = reset(s, r),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_query::h_witnesses;
    use intext_tid::{complete_database, random_database, DbGenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Witness mask computed the slow way, directly from `h_witnesses`.
    fn expected_witnesses(db: &Database, world: u64, skip: u8) -> u32 {
        let mut mask = 0u32;
        for i in 0..=db.k() {
            if i == skip {
                continue;
            }
            let holds = h_witnesses(db, i)
                .iter()
                .any(|&(t1, t2)| (world >> t1.0) & 1 == 1 && (world >> t2.0) & 1 == 1);
            if holds {
                mask |= 1 << i;
            }
        }
        mask
    }

    #[test]
    fn automaton_tracks_all_h_queries_on_complete_db() {
        // k = 3, every split l, every world of a tiny complete database.
        let db = complete_database(3, 1); // 2 + 3 = 5 tuples
        for l in 0..=3u8 {
            let steps = slot_stream(&db, l);
            for world in 0..(1u64 << db.len()) {
                let got = run_concrete(&steps, 3, world) & !(1 << l);
                let expect = expected_witnesses(&db, world, l);
                assert_eq!(got, expect, "l={l}, world={world:#07b}");
            }
        }
    }

    #[test]
    fn automaton_on_random_sparse_databases() {
        let mut rng = StdRng::seed_from_u64(11);
        for k in 1..=4u8 {
            for trial in 0..5 {
                let db = random_database(
                    &DbGenConfig {
                        k,
                        domain_size: 2,
                        density: 0.6,
                        prob_denominator: 10,
                    },
                    &mut rng,
                );
                if db.len() >= 20 {
                    continue; // keep worlds enumerable
                }
                for l in 0..=k {
                    let steps = slot_stream(&db, l);
                    for world in 0..(1u64 << db.len()) {
                        let got = run_concrete(&steps, k, world) & !(1 << l);
                        let expect = expected_witnesses(&db, world, l);
                        assert_eq!(got, expect, "k={k} l={l} trial={trial} world={world:b}");
                    }
                }
            }
        }
    }

    #[test]
    fn reachable_sets_hold_every_state_a_world_reaches() {
        // Every full state (witness bits and latches) that some world
        // drives the automaton into before step j must be among the
        // states `Reach` enumerates for step j, and so must the final
        // state: on complete and sparse instances, k ≤ 3, domain ≤ 2,
        // every split.
        let mut rng = StdRng::seed_from_u64(26);
        let mut instances = Vec::new();
        for k in 1..=3u8 {
            for domain_size in 1..=2 {
                instances.push(complete_database(k, domain_size));
                for density in [0.3, 0.6] {
                    let config = DbGenConfig {
                        k,
                        domain_size,
                        density,
                        prob_denominator: 10,
                    };
                    instances.push(random_database(&config, &mut rng));
                }
            }
        }
        for db in instances {
            let k = db.k();
            assert!(db.len() <= 16, "keep worlds enumerable");
            for l in 0..=k {
                let steps = slot_stream(&db, l);
                let sets: Vec<std::collections::HashSet<u32>> = Reach::along(&steps, k)
                    .into_iter()
                    .map(|reach| {
                        let mut states = std::collections::HashSet::new();
                        reach.for_each(|s| assert!(states.insert(s), "{s:#x} enumerated twice"));
                        states
                    })
                    .collect();
                for world in 0..(1u64 << db.len()) {
                    let last = run_full(&steps, k, world, |j, s| {
                        assert!(sets[j].contains(&s), "k={k} l={l} j={j} state {s:#x}");
                    });
                    assert!(
                        sets[steps.len()].contains(&last),
                        "k={k} l={l} final {last:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_mentions_each_tuple_at_most_once() {
        let db = complete_database(3, 2);
        for l in 0..=3u8 {
            let steps = slot_stream(&db, l);
            let mut seen = std::collections::HashSet::new();
            for s in &steps {
                if let StreamStep::Read { tuple: Some(t), .. } = s {
                    assert!(seen.insert(*t), "tuple {t:?} twice in stream (l={l})");
                }
            }
            // With 0 < l < k every tuple is covered; at the extremes the
            // irrelevant unary relation is skipped.
            let expected = match l {
                0 => db.len() - db.domain_size() as usize, // no R slots
                _ if l == 3 => db.len() - db.domain_size() as usize, // no T slots
                _ => db.len(),
            };
            assert_eq!(seen.len(), expected, "l={l}");
        }
    }

    #[test]
    fn empty_database_stream_has_no_variables() {
        let db = Database::new(2, 2);
        let steps = slot_stream(&db, 1);
        assert!(steps
            .iter()
            .all(|s| !matches!(s, StreamStep::Read { tuple: Some(_), .. })));
        assert_eq!(run_concrete(&steps, 2, 0), 0);
    }
}
