//! The lane-batched evaluation kernel's data plane: a
//! structure-of-arrays probability matrix and the reusable scratch of
//! every probability pass.
//!
//! Once a d-D or OBDD is compiled, probability evaluation is a *linear*
//! walk of an immutable artifact — yet a scalar walk per scenario pays a
//! fresh buffer allocation, a full node decode, and a probability
//! lookup per variable, per scenario. The kernel amortizes all three:
//! the one generic pass of each structure, run on [`LANES`]-wide blocks
//! (`[f64; LANES]` is an [`intext_numeric::ProbNum`]), computes that
//! many scenarios at once, reading per-variable probabilities from a
//! [`ProbMatrix`] block and keeping every intermediate in an
//! [`EvalScratch`] that is grown once and reused forever (zero heap
//! allocations in steady state).
//!
//! **Bit-identity contract.** Each lane performs *exactly* the f64
//! operations of the scalar pass, in the same order, because it *is*
//! the same pass: `∧`-gates fold a product left-to-right from one,
//! `∨`-gates a sum from zero, `¬`-gates compute `1 - x`, and OBDD nodes
//! compute `p·hi + (1 - p)·lo`. IEEE 754 arithmetic is deterministic,
//! so lane `l` of a lane pass is bit-identical to the `f64` pass under
//! lane `l`'s probabilities — batching is a performance knob, never a
//! semantics knob.
//!
//! See `DESIGN.md` §6 for the layout diagrams and the zero-allocation
//! argument; the `kernel` bench (E21 in `EXPERIMENTS.md`) measures the
//! payoff.

use intext_numeric::ProbNum;

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

    /// The contiguous lane block of one variable: its probability in
    /// every scenario lane, the value a lane pass reads for it.
    #[inline]
    pub fn block(&self, var: u32) -> &[f64; LANES] {
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

/// Reusable buffers of the probability passes — the reason a
/// steady-state lane walk performs **zero heap allocations per
/// scenario**.
///
/// Two dense per-variable tables, `p` and `1 − p`, filled by
/// [`prepare`](Self::prepare) and read by every OBDD node, and one
/// buffer of values (one per gate or OBDD node). Each grows to the
/// largest walk it serves and is then reused verbatim: `prepare`
/// overwrites the entries it is given, and a pass clears and refills the
/// values (`Vec::clear` keeps the capacity). One scratch serves
/// circuits, OBDDs and artifacts; shard workers each own one, so walks
/// stay free of shared mutable state.
#[derive(Clone, Debug)]
pub struct EvalScratch<N = [f64; LANES]> {
    /// `p[v]`: variable `v`'s probability.
    pub(crate) p: Vec<N>,
    /// `q[v] = 1 − p[v]`, computed once per [`prepare`](Self::prepare).
    pub(crate) q: Vec<N>,
    /// Gate- (or node-) indexed values of the current pass.
    pub(crate) values: Vec<N>,
}

impl<N> Default for EvalScratch<N> {
    fn default() -> Self {
        EvalScratch {
            p: Vec::new(),
            q: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<N: ProbNum> EvalScratch<N> {
    /// A fresh scratch; the buffers are allocated lazily on first use.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Sets the probability of every variable in `vars` to `prob(v)`
    /// and computes its complement once: what the next OBDD passes read
    /// at every node that tests `v`. Entries of other variables keep
    /// whatever an earlier call left, so prepare every variable the
    /// walked nodes test (an artifact's support, an OBDD's order).
    /// Growth only, sized once per call — once the tables cover the
    /// largest variable, preparing allocates nothing.
    pub fn prepare<I>(&mut self, vars: I, prob: impl Fn(u32) -> N) -> &mut Self
    where
        I: IntoIterator<Item = u32>,
        I::IntoIter: Clone,
    {
        let vars = vars.into_iter();
        let len = vars.clone().max().map_or(0, |v| v as usize + 1);
        if self.p.len() < len {
            self.p.resize(len, N::zero());
            self.q.resize(len, N::zero());
        }
        for v in vars {
            let p = prob(v);
            self.q[v as usize] = p.complement();
            self.p[v as usize] = p;
        }
        self
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
        let mut s = EvalScratch::<[f64; LANES]>::new();
        s.prepare(0..4, |v| [f64::from(v) / 4.0; LANES]);
        assert_eq!(s.p.len(), 4);
        assert_eq!(s.q[1], [0.75; LANES], "the complement is prepared once");
        let cap = s.p.capacity();
        // A smaller request reuses the same storage and leaves the other
        // entries as they were.
        s.prepare([1], |_| [1.0; LANES]);
        assert_eq!((s.p.len(), s.p.capacity()), (4, cap));
        assert_eq!((s.p[1], s.q[1]), ([1.0; LANES], [0.0; LANES]));
        assert_eq!(s.p[3], [0.75; LANES]);
    }
}
