//! The lane-batched evaluation kernel's data plane: the lane width and
//! the reusable scratch of every probability pass.
//!
//! Once a d-D or OBDD is compiled, probability evaluation is a *linear*
//! walk of an immutable artifact — yet a scalar walk per scenario pays a
//! fresh buffer allocation, a full node decode, and a probability
//! lookup per variable, per scenario. The kernel amortizes all three:
//! the one generic pass of each structure, run on [`LANES`]-wide blocks
//! (`[f64; LANES]` is an [`intext_numeric::ProbNum`]), computes that
//! many scenarios at once, reading one `[f64; LANES]` block of
//! probabilities per variable and keeping every intermediate in an
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
