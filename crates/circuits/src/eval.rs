//! The lane-batched evaluation kernel's data plane: a
//! structure-of-arrays probability matrix and a reusable scratch arena.
//!
//! Once a d-D or OBDD is compiled, probability evaluation is a *linear*
//! walk of an immutable artifact — yet a scalar walk per scenario pays a
//! fresh buffer allocation, a full gate decode, and a closure call per
//! variable, per scenario. The kernel amortizes all three: one forward
//! pass over the gate (or node) table computes [`LANES`] scenarios at
//! once, reading per-variable probabilities from a [`ProbMatrix`] block
//! and keeping every intermediate in an [`EvalScratch`] that is grown
//! once and reused forever (zero heap allocations in steady state).
//!
//! **Bit-identity contract.** Each lane performs *exactly* the f64
//! operations of the scalar walk, in the same order: `∧`-gates fold a
//! product left-to-right over their inputs, `∨`-gates a sum, `¬`-gates
//! compute `1 - x`, and OBDD nodes compute `p·hi + (1 - p)·lo`. IEEE 754
//! arithmetic is deterministic, so lane `l` of
//! [`Circuit::probability_f64_many`](crate::Circuit::probability_f64_many)
//! is bit-identical to
//! [`Circuit::probability_f64`](crate::Circuit::probability_f64) under
//! lane `l`'s probabilities — batching is a performance knob, never a
//! semantics knob. The fixed-width inner loops over `LANES` are what
//! lets the compiler auto-vectorize the pass without changing that
//! order.
//!
//! See `DESIGN.md` §6 for the layout diagrams and the zero-allocation
//! argument; the `kernel` bench (E21 in `EXPERIMENTS.md`) measures the
//! payoff.

/// Number of scenarios one kernel invocation evaluates together.
///
/// Eight `f64` lanes fill one 64-byte cache line per variable block and
/// map onto one AVX-512 register (or two AVX2 / four NEON registers), so
/// the auto-vectorized inner loops stay register-resident. Ragged batch
/// tails simply leave trailing lanes unused — callers read back only the
/// lanes they filled.
pub const LANES: usize = 8;

/// Per-variable probabilities for a block of up to [`LANES`] scenarios,
/// in structure-of-arrays layout: variable-major, lane-minor, so the
/// `LANES` probabilities of one variable are one contiguous (and
/// cache-line-aligned-in-practice) block.
///
/// The matrix is a plain dense buffer indexed by variable id — in this
/// project variable ids are [`TupleId`]s, which are dense by
/// construction — and is meant to be **reused across blocks**:
/// [`reset`](Self::reset) only grows the backing storage, never shrinks
/// or reallocates it once the high-water mark is reached.
///
/// [`TupleId`]: https://docs.rs/intext-tid
#[derive(Clone, Debug, Default)]
pub struct ProbMatrix {
    vars: usize,
    data: Vec<f64>,
}

impl ProbMatrix {
    /// An empty matrix; size it with [`reset`](Self::reset).
    pub fn new() -> Self {
        ProbMatrix::default()
    }

    /// Prepares the matrix for a block over variables `0..vars`,
    /// growing the backing buffer if this is the largest block seen so
    /// far (newly grown lanes start at `0.0`). Lane contents from a
    /// previous block persist — callers overwrite every lane they will
    /// read back, and unread lanes are never observable.
    pub fn reset(&mut self, vars: usize) {
        self.vars = vars;
        let need = vars * LANES;
        if self.data.len() < need {
            self.data.resize(need, 0.0);
        }
    }

    /// Number of variables the matrix currently covers.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Sets variable `var`'s probability in scenario lane `lane`.
    ///
    /// # Panics
    /// Panics if `lane >= LANES` or `var` is outside the
    /// [`reset`](Self::reset) range.
    pub fn set(&mut self, var: u32, lane: usize, p: f64) {
        assert!(lane < LANES, "lane {lane} out of range");
        assert!((var as usize) < self.vars, "variable {var} out of range");
        self.data[var as usize * LANES + lane] = p;
    }

    /// The contiguous lane block of one variable.
    #[inline]
    pub(crate) fn block(&self, var: u32) -> &[f64; LANES] {
        // Same contract as `set`: reads outside the `reset` range would
        // silently see stale data from an earlier, larger block (the
        // backing buffer never shrinks), so catch the misuse in debug
        // builds rather than index arithmetic hiding it.
        debug_assert!((var as usize) < self.vars, "variable {var} out of range");
        self.data[var as usize * LANES..][..LANES]
            .try_into()
            .expect("block is exactly LANES wide")
    }
}

/// Reusable dense buffers for the lane-batched walks — the reason a
/// steady-state batch evaluation performs **zero heap allocations per
/// scenario**.
///
/// One buffer of value lanes (`LANES` running `f64`s per gate or OBDD
/// node), grown to the largest artifact walked through it and then
/// reused verbatim: a circuit pass overwrites its slots, an OBDD pass
/// clears and refills it (`Vec::clear` keeps the capacity). One scratch
/// serves both artifact kinds; shard workers each own one so walks stay
/// free of shared mutable state.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Gate- (or node-) major value lanes.
    pub(crate) lanes: Vec<[f64; LANES]>,
}

impl EvalScratch {
    /// A fresh scratch; the buffer is allocated lazily on first use.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Grows the value-lane buffer to at least `slots` blocks (growth
    /// only — steady-state calls are allocation-free).
    pub(crate) fn ensure_lanes(&mut self, slots: usize) {
        if self.lanes.len() < slots {
            self.lanes.resize(slots, [0.0; LANES]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_variable_major_lane_minor() {
        let mut m = ProbMatrix::new();
        m.reset(3);
        assert_eq!(m.vars(), 3);
        m.set(0, 0, 0.25);
        m.set(0, 7, 0.75);
        m.set(2, 3, 0.5);
        assert_eq!(m.block(0)[0], 0.25);
        assert_eq!(m.block(0)[7], 0.75);
        assert_eq!(m.block(2)[3], 0.5);
        assert_eq!(m.block(1), &[0.0; LANES]);
    }

    #[test]
    fn matrix_reset_grows_but_never_shrinks() {
        let mut m = ProbMatrix::new();
        m.reset(4);
        m.set(3, 1, 0.9);
        m.reset(2);
        assert_eq!(m.vars(), 2);
        m.reset(4);
        // The high-water buffer persisted; stale lanes are defined
        // (previous contents), just unread by well-behaved callers.
        assert_eq!(m.block(3)[1], 0.9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn matrix_rejects_out_of_range_vars() {
        let mut m = ProbMatrix::new();
        m.reset(2);
        m.set(2, 0, 0.5);
    }

    #[test]
    #[should_panic(expected = "lane")]
    fn matrix_rejects_out_of_range_lanes() {
        let mut m = ProbMatrix::new();
        m.reset(2);
        m.set(0, LANES, 0.5);
    }

    #[test]
    fn scratch_buffers_grow_once_and_stay() {
        let mut s = EvalScratch::new();
        s.ensure_lanes(4);
        assert_eq!(s.lanes.len(), 4);
        s.lanes[0][0] = 1.0;
        // A smaller request reuses the same storage.
        s.ensure_lanes(2);
        assert_eq!(s.lanes.len(), 4);
        assert_eq!(s.lanes[0][0], 1.0);
    }
}
