//! Reduced ordered binary decision diagrams (OBDDs).
//!
//! The classical formalism of Bryant (1986), used by the paper through
//! Proposition 3.7: degenerate `H`-queries have lineage OBDDs computable
//! in polynomial time. An OBDD is in particular a d-D — each decision
//! node is the deterministic disjunction `(x ∧ hi) ∨ (¬x ∧ lo)` with
//! decomposable conjunctions — so probability computation is linear and
//! [`ObddManager::to_circuit`] embeds OBDDs into the circuit world.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use intext_numeric::{BigUint, ProbNum};

use crate::eval::EvalScratch;
use crate::{Circuit, GateId};

/// Reference to an OBDD node or terminal: `0` = false, `1` = true,
/// otherwise index + 2 into the manager's arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeRef(u32);

impl NodeRef {
    /// The constant-false terminal.
    pub const FALSE: NodeRef = NodeRef(0);
    /// The constant-true terminal.
    pub const TRUE: NodeRef = NodeRef(1);

    /// Is this a terminal?
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }

    /// The stable `u32` encoding of this reference: `0` = false, `1` =
    /// true, `i + 2` = arena node `i`. This is the on-disk encoding used
    /// by artifact serialization.
    pub fn to_raw(self) -> u32 {
        self.0
    }

    /// Inverse of [`to_raw`](Self::to_raw). The result is only
    /// meaningful against the manager whose arena the raw value indexes;
    /// [`ObddManager::from_parts`] is the validating path deserializers
    /// go through, so an out-of-range raw never reaches a walk.
    pub fn from_raw(raw: u32) -> NodeRef {
        NodeRef(raw)
    }

    fn index(self) -> usize {
        debug_assert!(!self.is_terminal());
        (self.0 - 2) as usize
    }

    fn from_index(i: usize) -> NodeRef {
        NodeRef(u32::try_from(i + 2).expect("node count fits u32"))
    }
}

#[derive(Clone, Copy, Debug)]
struct Node {
    level: u32,
    lo: NodeRef,
    hi: NodeRef,
}

const TERMINAL_LEVEL: u32 = u32::MAX;

/// FxHash's multiply-rotate step over machine words. The keys it hashes
/// are levels and [`NodeRef`]s the manager assigns itself, so no outside
/// input can aim collisions at it; SipHash's protection would cost every
/// `mk` and `apply` probe for nothing.
#[derive(Clone, Copy, Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
}

/// A table keyed by manager-assigned levels and node references.
type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The binary operators of [`ObddManager::apply`].
#[derive(Clone, Copy)]
enum Op {
    And,
    Or,
    Xor,
}

impl Op {
    /// The result when the operands decide it without a recursion: a
    /// terminal that absorbs or passes the other operand, or two equal
    /// operands. Every pair of terminals is covered.
    fn shortcut(self, a: NodeRef, b: NodeRef) -> Option<NodeRef> {
        const F: NodeRef = NodeRef::FALSE;
        const T: NodeRef = NodeRef::TRUE;
        match (self, a, b) {
            (Op::And, F, _) | (Op::And, _, F) => Some(F),
            (Op::Or, T, _) | (Op::Or, _, T) => Some(T),
            (Op::Xor, x, y) if x == y => Some(F),
            (Op::And, T, x) | (Op::And, x, T) | (Op::Or, F, x) | (Op::Or, x, F) => Some(x),
            (Op::Xor, F, x) | (Op::Xor, x, F) => Some(x),
            (Op::And | Op::Or, x, y) if x == y => Some(x),
            _ => None,
        }
    }
}

/// Why a serialized OBDD arena was rejected by
/// [`ObddManager::from_parts`]. Every variant names the offending node
/// (or variable), so store-level errors can point at the exact byte
/// range that lied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObddError {
    /// A variable appears twice in the order.
    DuplicateVariable(u32),
    /// More nodes than [`NodeRef`]'s `u32` encoding can address.
    TooManyNodes(usize),
    /// A node's level is not a position of the variable order.
    LevelOutOfRange {
        /// Arena index of the node.
        node: u32,
        /// The out-of-range level.
        level: u32,
    },
    /// A child reference points at a terminal-adjacent index that does
    /// not exist yet — i.e. at this node or a later one, so the arena is
    /// not topologically ordered (or the index is simply dangling).
    DanglingChild {
        /// Arena index of the node.
        node: u32,
        /// The raw child reference.
        child: u32,
    },
    /// A child lives at a level not strictly below the node's level,
    /// violating the variable order.
    OrderViolation {
        /// Arena index of the node.
        node: u32,
    },
    /// `lo == hi`: the node is redundant, which a *reduced* OBDD never
    /// stores (`mk` collapses it).
    RedundantNode {
        /// Arena index of the node.
        node: u32,
    },
    /// Two nodes share `(level, lo, hi)`, violating canonical uniqueness.
    DuplicateNode {
        /// Arena index of the second occurrence.
        node: u32,
    },
}

impl std::fmt::Display for ObddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObddError::DuplicateVariable(v) => {
                write!(f, "variable {v} appears twice in the order")
            }
            ObddError::TooManyNodes(n) => write!(f, "{n} nodes exceed the u32 encoding"),
            ObddError::LevelOutOfRange { node, level } => {
                write!(f, "node {node} has level {level} outside the order")
            }
            ObddError::DanglingChild { node, child } => {
                write!(f, "node {node} references nonexistent/later node {child}")
            }
            ObddError::OrderViolation { node } => {
                write!(f, "node {node} has a child at or above its own level")
            }
            ObddError::RedundantNode { node } => {
                write!(f, "node {node} has lo == hi (not reduced)")
            }
            ObddError::DuplicateNode { node } => {
                write!(f, "node {node} duplicates an earlier (level, lo, hi)")
            }
        }
    }
}

impl std::error::Error for ObddError {}

/// Shared manager for reduced OBDDs over a fixed variable order.
///
/// All functions built through one manager share the node arena and the
/// unique table, so structural equality of [`NodeRef`]s is semantic
/// equivalence (canonicity of reduced OBDDs).
///
/// The unique table and the `apply` / `not` memos hash with a private
/// word hasher (FxHash's multiply-rotate step), not SipHash: their keys
/// are levels and node references the manager assigns as `mk` builds,
/// and SipHash on every probe was much of a lineage unroll's cost.
/// Tables keyed by bytes from outside the process keep the std hasher:
/// [`from_parts`](Self::from_parts) checks a decoded arena for duplicate
/// nodes with a std `HashSet` and leaves the unique table empty (a
/// decoded lineage is walked, not built on; `mk` would rebuild the table
/// from the validated arena), and the variable-to-level map of a decoded
/// order stays on the std hasher too.
///
/// **Concurrency contract** (mirrors [`Circuit`](crate::Circuit), and is
/// what lets the engine share compiled lineages across shard workers):
/// node construction (`mk`, `apply`, …) takes `&mut self`, but every walk
/// — [`size`](Self::size), [`probability`](Self::probability),
/// evaluation — takes `&self` with stack-local or caller-owned scratch
/// and no memo writes back into the manager, so a finished OBDD behind
/// an `Arc` is freely walkable from many threads. Pinned by a
/// compile-time `Send + Sync` test.
#[derive(Debug)]
pub struct ObddManager {
    order: Vec<u32>,
    level_of: HashMap<u32, u32>,
    nodes: Vec<Node>,
    /// `(level, lo, hi)` → node, for every node — or empty after
    /// [`compact`](Self::compact) and [`from_parts`](Self::from_parts),
    /// which skip it because their arenas are walked and copied from, not
    /// built on; `mk` rebuilds it on first use.
    unique: WordMap<(u32, NodeRef, NodeRef), NodeRef>,
}

impl ObddManager {
    /// Creates a manager for the given variable order (level 0 is tested
    /// first / closest to the root).
    ///
    /// # Panics
    /// Panics if the order repeats a variable.
    pub fn new(order: Vec<u32>) -> Self {
        let mut level_of = HashMap::with_capacity(order.len());
        for (l, &v) in order.iter().enumerate() {
            let prev = level_of.insert(v, l as u32);
            assert!(prev.is_none(), "variable {v} appears twice in the order");
        }
        ObddManager {
            order,
            level_of,
            nodes: Vec::new(),
            unique: WordMap::default(),
        }
    }

    /// The variable order.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The level of a variable in the order.
    pub fn level_of(&self, var: u32) -> Option<u32> {
        self.level_of.get(&var).copied()
    }

    /// Total nodes allocated in the arena (all functions together).
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// The arena as `(level, lo, hi)` triples in index order — the
    /// stable encoding serializers write. Children always precede their
    /// parents (`mk` appends), so replaying the triples through
    /// [`from_parts`](Self::from_parts) reproduces the arena exactly:
    /// same indices, same [`NodeRef`]s, bit-identical walks.
    pub fn node_entries(&self) -> impl Iterator<Item = (u32, NodeRef, NodeRef)> + '_ {
        self.nodes.iter().map(|n| (n.level, n.lo, n.hi))
    }

    /// Rebuilds a manager from a variable order and an arena of
    /// `(level, lo, hi)` triples, as produced by
    /// [`node_entries`](Self::node_entries).
    ///
    /// This is the **total** deserialization path: instead of the
    /// panicking invariants `mk` enforces on trusted in-process callers,
    /// every violation a hostile or corrupted byte stream could smuggle
    /// in — duplicate order variables, dangling or forward child
    /// references, order violations, unreduced or duplicate nodes —
    /// comes back as a typed [`ObddError`]. A successful return is
    /// therefore a genuine reduced OBDD arena: canonical, topologically
    /// ordered, and safe for every `&self` walk.
    pub fn from_parts(
        order: Vec<u32>,
        entries: &[(u32, NodeRef, NodeRef)],
    ) -> Result<ObddManager, ObddError> {
        let mut level_of = HashMap::with_capacity(order.len());
        for (l, &v) in order.iter().enumerate() {
            if level_of.insert(v, l as u32).is_some() {
                return Err(ObddError::DuplicateVariable(v));
            }
        }
        if u32::try_from(entries.len())
            .ok()
            .and_then(|n| n.checked_add(2))
            .is_none()
        {
            return Err(ObddError::TooManyNodes(entries.len()));
        }
        let mut nodes: Vec<Node> = Vec::with_capacity(entries.len());
        let mut unique = HashSet::with_capacity(entries.len());
        for (i, &(level, lo, hi)) in entries.iter().enumerate() {
            let node = i as u32;
            if level as usize >= order.len() {
                return Err(ObddError::LevelOutOfRange { node, level });
            }
            for child in [lo, hi] {
                // Strictly earlier in the arena (or a terminal): rules
                // out dangling indices and non-topological order at once.
                if !child.is_terminal() && child.index() >= i {
                    return Err(ObddError::DanglingChild {
                        node,
                        child: child.to_raw(),
                    });
                }
                let child_level = if child.is_terminal() {
                    TERMINAL_LEVEL
                } else {
                    nodes[child.index()].level
                };
                if child_level <= level {
                    return Err(ObddError::OrderViolation { node });
                }
            }
            if lo == hi {
                return Err(ObddError::RedundantNode { node });
            }
            if !unique.insert((level, lo, hi)) {
                return Err(ObddError::DuplicateNode { node });
            }
            nodes.push(Node { level, lo, hi });
        }
        Ok(ObddManager {
            order,
            level_of,
            nodes,
            unique: WordMap::default(),
        })
    }

    fn level(&self, r: NodeRef) -> u32 {
        if r.is_terminal() {
            TERMINAL_LEVEL
        } else {
            self.nodes[r.index()].level
        }
    }

    /// The unique reduced node `(level, lo, hi)`; the workhorse shared by
    /// all construction paths (including the lineage unroller in
    /// `intext-lineage`).
    ///
    /// # Panics
    /// Panics if children live at levels `<= level` (order violation).
    pub fn mk(&mut self, level: u32, lo: NodeRef, hi: NodeRef) -> NodeRef {
        assert!(
            self.level(lo) > level && self.level(hi) > level,
            "children must be strictly below level {level}"
        );
        if lo == hi {
            return lo;
        }
        if self.unique.len() != self.nodes.len() {
            self.unique = (0..self.nodes.len())
                .map(|i| {
                    let n = self.nodes[i];
                    ((n.level, n.lo, n.hi), NodeRef::from_index(i))
                })
                .collect();
        }
        if let Some(&r) = self.unique.get(&(level, lo, hi)) {
            return r;
        }
        let r = NodeRef::from_index(self.nodes.len());
        self.nodes.push(Node { level, lo, hi });
        self.unique.insert((level, lo, hi), r);
        r
    }

    /// The literal `var` (or its negation).
    ///
    /// # Panics
    /// Panics if `var` is not in the order.
    pub fn literal(&mut self, var: u32, positive: bool) -> NodeRef {
        let level = self
            .level_of(var)
            .unwrap_or_else(|| panic!("variable {var} not in order"));
        if positive {
            self.mk(level, NodeRef::FALSE, NodeRef::TRUE)
        } else {
            self.mk(level, NodeRef::TRUE, NodeRef::FALSE)
        }
    }

    fn cofactors(&self, r: NodeRef, level: u32) -> (NodeRef, NodeRef) {
        if self.level(r) == level {
            let n = self.nodes[r.index()];
            (n.lo, n.hi)
        } else {
            (r, r)
        }
    }

    /// `a op b`, returning at once wherever [`Op::shortcut`] decides,
    /// so a constant or a repeated operand costs no walk of the other
    /// operand, at the entry and at every recursion alike.
    fn apply(
        &mut self,
        a: NodeRef,
        b: NodeRef,
        op: Op,
        memo: &mut WordMap<(NodeRef, NodeRef), NodeRef>,
    ) -> NodeRef {
        if let Some(r) = op.shortcut(a, b) {
            return r;
        }
        if let Some(&r) = memo.get(&(a, b)) {
            return r;
        }
        let level = self.level(a).min(self.level(b));
        let (alo, ahi) = self.cofactors(a, level);
        let (blo, bhi) = self.cofactors(b, level);
        let lo = self.apply(alo, blo, op, memo);
        let hi = self.apply(ahi, bhi, op, memo);
        let r = self.mk(level, lo, hi);
        memo.insert((a, b), r);
        r
    }

    /// Conjunction. `and(a, FALSE)` is `FALSE`, and `and(a, TRUE)` and
    /// `and(a, a)` are `a`, without a walk or an allocation.
    pub fn and(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        self.apply(a, b, Op::And, &mut WordMap::default())
    }

    /// Disjunction. `or(a, TRUE)` is `TRUE`, and `or(a, FALSE)` and
    /// `or(a, a)` are `a`, without a walk or an allocation.
    pub fn or(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        self.apply(a, b, Op::Or, &mut WordMap::default())
    }

    /// Exclusive or. `xor(a, FALSE)` is `a` and `xor(a, a)` is `FALSE`,
    /// without a walk or an allocation.
    pub fn xor(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        self.apply(a, b, Op::Xor, &mut WordMap::default())
    }

    /// Generalized multi-way apply: combines `inputs` under an arbitrary
    /// Boolean combinator `f` (evaluated on the co-factored terminal
    /// values). The classical product construction — worst case the
    /// product of the input sizes, hence best reserved for constantly
    /// many inputs (it is the textbook route to Proposition 3.7, kept as
    /// an ablation baseline for the automaton unrolling).
    pub fn combine_many(&mut self, inputs: &[NodeRef], f: &impl Fn(&[bool]) -> bool) -> NodeRef {
        let mut memo: HashMap<Vec<NodeRef>, NodeRef> = HashMap::new();
        self.combine_rec(inputs, f, &mut memo)
    }

    fn combine_rec(
        &mut self,
        inputs: &[NodeRef],
        f: &impl Fn(&[bool]) -> bool,
        memo: &mut HashMap<Vec<NodeRef>, NodeRef>,
    ) -> NodeRef {
        if inputs.iter().all(|r| r.is_terminal()) {
            let values: Vec<bool> = inputs.iter().map(|&r| r == NodeRef::TRUE).collect();
            return if f(&values) {
                NodeRef::TRUE
            } else {
                NodeRef::FALSE
            };
        }
        if let Some(&r) = memo.get(inputs) {
            return r;
        }
        let level = inputs
            .iter()
            .map(|&r| self.level(r))
            .min()
            .expect("nonempty");
        let lo: Vec<NodeRef> = inputs.iter().map(|&r| self.cofactors(r, level).0).collect();
        let hi: Vec<NodeRef> = inputs.iter().map(|&r| self.cofactors(r, level).1).collect();
        let lo_r = self.combine_rec(&lo, f, memo);
        let hi_r = self.combine_rec(&hi, f, memo);
        let out = self.mk(level, lo_r, hi_r);
        memo.insert(inputs.to_vec(), out);
        out
    }

    /// Negation.
    pub fn not(&mut self, a: NodeRef) -> NodeRef {
        fn rec(m: &mut ObddManager, a: NodeRef, memo: &mut WordMap<NodeRef, NodeRef>) -> NodeRef {
            match a {
                NodeRef::FALSE => NodeRef::TRUE,
                NodeRef::TRUE => NodeRef::FALSE,
                _ => {
                    if let Some(&r) = memo.get(&a) {
                        return r;
                    }
                    let n = m.nodes[a.index()];
                    let lo = rec(m, n.lo, memo);
                    let hi = rec(m, n.hi, memo);
                    let r = m.mk(n.level, lo, hi);
                    memo.insert(a, r);
                    r
                }
            }
        }
        rec(self, a, &mut WordMap::default())
    }

    /// Evaluates the function under a variable assignment.
    pub fn eval(&self, mut r: NodeRef, assignment: &impl Fn(u32) -> bool) -> bool {
        while !r.is_terminal() {
            let n = self.nodes[r.index()];
            let var = self.order[n.level as usize];
            r = if assignment(var) { n.hi } else { n.lo };
        }
        r == NodeRef::TRUE
    }

    /// The arena nodes an ascending walk from `r` visits: every node up
    /// to and including `r` (none for a terminal). On an arena compacted
    /// by [`compact`](Self::compact) with `r` first among its roots these
    /// are exactly the nodes reachable from `r`, so this is
    /// [`size`](Self::size) in O(1).
    pub fn prefix_len(&self, r: NodeRef) -> usize {
        if r.is_terminal() {
            0
        } else {
            r.index() + 1
        }
    }

    /// The distinct variables tested by the nodes of `r`'s walk prefix
    /// ([`prefix_len`](Self::prefix_len)), sorted ascending — exactly the
    /// probability entries any walk from `r` reads. On a compacted arena
    /// that is the support of `r` (reduction-skipped variables
    /// marginalize out and are absent). Batch evaluators
    /// [`prepare`](EvalScratch::prepare) these variables only; a lineage
    /// OBDD often touches a fraction of a large database's tuples.
    pub fn support_vars(&self, r: NodeRef) -> Vec<u32> {
        let mut vars: Vec<u32> = self.nodes[..self.prefix_len(r)]
            .iter()
            .map(|n| self.order[n.level as usize])
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Number of decision nodes reachable from `r`.
    pub fn size(&self, r: NodeRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![r];
        while let Some(x) = stack.pop() {
            if x.is_terminal() || !seen.insert(x) {
                continue;
            }
            let n = self.nodes[x.index()];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        seen.len()
    }

    /// The one OBDD walk: a single ascending pass over `r`'s walk prefix
    /// ([`prefix_len`](Self::prefix_len)), where every node combines its
    /// children's values as `node(var, lo, hi)` and the terminals read
    /// `terminals[0]` (false) and `terminals[1]` (true). Ascending arena
    /// index is a topological order (children precede parents), so the
    /// pass is correct on any arena; on a compacted one it visits exactly
    /// the reachable nodes, with no reachability search and no recursion
    /// (arbitrarily deep OBDDs cannot overflow the stack).
    ///
    /// `values` holds one value per visited node; it is cleared first and
    /// keeps its capacity, so a caller reusing it allocates nothing once
    /// it has grown to the largest prefix walked.
    pub fn fold<T: Clone>(
        &self,
        r: NodeRef,
        terminals: &[T; 2],
        values: &mut Vec<T>,
        mut node: impl FnMut(u32, &T, &T) -> T,
    ) -> T {
        if r.is_terminal() {
            return terminals[r.0 as usize].clone();
        }
        let prefix = &self.nodes[..self.prefix_len(r)];
        values.clear();
        values.reserve(prefix.len());
        for n in prefix {
            let value = {
                let fetch = |child: NodeRef| match child {
                    NodeRef::FALSE | NodeRef::TRUE => &terminals[child.0 as usize],
                    _ => &values[child.index()],
                };
                node(self.order[n.level as usize], fetch(n.lo), fetch(n.hi))
            };
            values.push(value);
        }
        values.pop().expect("the pass ends at the root")
    }

    /// Probability of the function under independent per-variable
    /// probabilities, in any [`ProbNum`] type: one [`fold`](Self::fold)
    /// pass (linear in the OBDD size; reduction-skipped variables
    /// marginalize out automatically) reading the `p` and `1 − p` last
    /// [`prepare`](EvalScratch::prepare)d in `scratch` for every variable
    /// the walked nodes test, and keeping the node values there too (no
    /// heap allocation once the scratch has grown to this prefix's size).
    ///
    /// Every node computes `p·hi + (1 − p)·lo`, in that order, whatever
    /// the type — so a `[f64; LANES]` pass gives, in lane `l`, the bits of
    /// the `f64` pass under lane `l`'s probabilities. An exact zero branch
    /// is skipped ([`ProbNum::is_skippable_zero`]), which no float pass
    /// does.
    ///
    /// [`LANES`]: crate::LANES
    pub fn probability<N: ProbNum>(&self, r: NodeRef, scratch: &mut EvalScratch<N>) -> N {
        let EvalScratch { p, q, values } = scratch;
        self.fold(r, &[N::zero(), N::one()], values, |var, lo, hi| {
            let (p, q) = (&p[var as usize], &q[var as usize]);
            if lo.is_skippable_zero() {
                p.mul(hi)
            } else if hi.is_skippable_zero() {
                q.mul(lo)
            } else {
                p.mul(hi).add(&q.mul(lo))
            }
        })
    }

    /// Rebuilds the arena keeping only the nodes reachable from `roots`,
    /// and returns the new manager with the images of `roots`.
    ///
    /// Nodes are renumbered in *canonical postorder* from each root in
    /// turn: the lo subtree, then the hi subtree, then the node. The
    /// nodes of `roots[0]` therefore come first and end at its image, so
    /// an ascending walk from it ([`fold`](Self::fold)) visits exactly
    /// its reachable nodes; nodes only later roots reach follow. The
    /// prefix is a pure function of the reduced DAG below `roots[0]`,
    /// never of the arena history that built it — which is what makes a
    /// patched lineage byte-identical to a fresh compile once both are
    /// compacted.
    pub fn compact(&self, roots: &[NodeRef]) -> (ObddManager, Vec<NodeRef>) {
        let mut nodes = Vec::new();
        // Arena index -> image; `FALSE` marks "not yet copied" (a
        // decision node never maps to a terminal).
        let mut map = vec![NodeRef::FALSE; self.nodes.len()];
        let image = |map: &[NodeRef], r: NodeRef| if r.is_terminal() { r } else { map[r.index()] };
        let mut stack = Vec::new();
        for &root in roots {
            stack.push((root, false));
            while let Some((r, expanded)) = stack.pop() {
                if r.is_terminal() || map[r.index()] != NodeRef::FALSE {
                    continue;
                }
                let n = self.nodes[r.index()];
                if expanded {
                    // Distinct reduced nodes stay distinct under an
                    // injective renumbering: no unique-table lookup.
                    map[r.index()] = NodeRef::from_index(nodes.len());
                    nodes.push(Node {
                        level: n.level,
                        lo: image(&map, n.lo),
                        hi: image(&map, n.hi),
                    });
                } else {
                    stack.extend([(r, true), (n.hi, false), (n.lo, false)]);
                }
            }
        }
        let images = roots.iter().map(|&r| image(&map, r)).collect();
        let out = ObddManager {
            order: self.order.clone(),
            level_of: self.level_of.clone(),
            nodes,
            unique: WordMap::default(),
        };
        (out, images)
    }

    /// Copies the functions rooted at `refs` into `target`, rewriting
    /// every node's level through `level_map`, and returns the images of
    /// `refs` (terminals map to themselves). Shared structure stays
    /// shared: the reachable closure of all roots is walked once, and
    /// `target`'s unique table dedups against nodes it already holds.
    ///
    /// This is the patch primitive behind incremental lineage
    /// maintenance: when a tuple insertion/removal shifts the variable
    /// order of a compiled OBDD uniformly (by −1, 0, or +1 levels), the
    /// still-valid sub-DAGs are transplanted into a fresh manager over
    /// the new order instead of being recompiled. Only the live nodes
    /// are copied, so repeated patches never accumulate dead arena.
    ///
    /// `level_map` must be strictly increasing on the levels that occur
    /// below `refs`, and must keep every copied level inside `target`'s
    /// order; because it is injective, distinct reduced source nodes map
    /// to distinct target nodes and the copy is an embedding — every walk
    /// from a returned root is bit-identical to the same walk from the
    /// source root (modulo the variable renaming `target`'s order
    /// implies).
    ///
    /// # Panics
    /// Panics (in `mk`) if `level_map` violates the strict child-below-
    /// parent ordering or maps outside `target`'s order.
    pub fn copy_remapped(
        &self,
        target: &mut ObddManager,
        level_map: &impl Fn(u32) -> u32,
        refs: &[NodeRef],
    ) -> Vec<NodeRef> {
        let mut visited = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = Vec::new();
        let mut topo: Vec<usize> = Vec::new();
        for &r in refs {
            if !r.is_terminal() && !visited[r.index()] {
                stack.push(r.index());
            }
            while let Some(i) = stack.pop() {
                if visited[i] {
                    continue;
                }
                visited[i] = true;
                topo.push(i);
                let n = self.nodes[i];
                for child in [n.lo, n.hi] {
                    if !child.is_terminal() && !visited[child.index()] {
                        stack.push(child.index());
                    }
                }
            }
        }
        // Ascending arena index is a topological order (children precede
        // parents), so one forward pass rebuilds bottom-up.
        topo.sort_unstable();
        let mut map: Vec<NodeRef> = vec![NodeRef::FALSE; self.nodes.len()];
        let fetch = |map: &[NodeRef], child: NodeRef| {
            if child.is_terminal() {
                child
            } else {
                map[child.index()]
            }
        };
        for &i in &topo {
            let n = self.nodes[i];
            let lo = fetch(&map, n.lo);
            let hi = fetch(&map, n.hi);
            map[i] = target.mk(level_map(n.level), lo, hi);
        }
        refs.iter().map(|&r| fetch(&map, r)).collect()
    }

    /// Number of satisfying assignments over **all** variables of the
    /// order (level-aware: reduction-skipped variables count double).
    pub fn model_count(&self, r: NodeRef) -> BigUint {
        fn two_pow(e: u32) -> BigUint {
            BigUint::from(1u64).shl_bits(u64::from(e))
        }
        fn rec(
            m: &ObddManager,
            r: NodeRef,
            from_level: u32,
            memo: &mut HashMap<NodeRef, BigUint>,
        ) -> BigUint {
            // Returns the count over variables at levels >= from_level,
            // where level(r) >= from_level.
            let total_levels = m.order.len() as u32;
            match r {
                NodeRef::FALSE => BigUint::zero(),
                NodeRef::TRUE => two_pow(total_levels - from_level),
                _ => {
                    let n = m.nodes[r.index()];
                    let at_node = if let Some(c) = memo.get(&r) {
                        c.clone()
                    } else {
                        let hi = rec(m, n.hi, n.level + 1, memo);
                        let lo = rec(m, n.lo, n.level + 1, memo);
                        let c = &hi + &lo;
                        memo.insert(r, c.clone());
                        c
                    };
                    // Scale by the levels skipped above this node.
                    &at_node * &two_pow(n.level - from_level)
                }
            }
        }
        rec(self, r, 0, &mut HashMap::new())
    }

    /// Embeds the function as a d-D circuit: every decision node becomes
    /// `(x ∧ hi) ∨ (¬x ∧ lo)` — deterministic and decomposable by the
    /// OBDD ordering invariant.
    pub fn to_circuit(&self, r: NodeRef) -> (Circuit, GateId) {
        let mut c = Circuit::new();
        let root = self.copy_into_circuit(r, &mut c);
        (c, root)
    }

    /// Copies the function's gates into an existing circuit arena
    /// (hash-consing merges shared structure), returning the root gate.
    /// Used to plug many OBDDs into one `¬`-`∨`-template. The gates are
    /// built in one ascending [`fold`](Self::fold) pass over the
    /// function [`compact`](Self::compact)ed to its reachable nodes, so
    /// arbitrarily deep OBDDs cannot overflow the stack.
    pub fn copy_into_circuit(&self, r: NodeRef, c: &mut Circuit) -> GateId {
        if r.is_terminal() {
            return c.constant(r == NodeRef::TRUE);
        }
        // Both terminals are reachable from every decision node of a
        // reduced OBDD (it computes a non-constant function).
        let terminals = [c.constant(false), c.constant(true)];
        let (m, roots) = self.compact(&[r]);
        m.fold(roots[0], &terminals, &mut Vec::new(), |var, &lo, &hi| {
            let v = c.var(var);
            let nv = c.not(v);
            let left = c.and(vec![v, hi]);
            let right = c.and(vec![nv, lo]);
            c.or(vec![left, right])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::LANES;
    use intext_numeric::BigRational;

    /// One probability pass from `r` with every variable of the order
    /// prepared from `prob`.
    fn walk<N: ProbNum>(m: &ObddManager, r: NodeRef, prob: impl Fn(u32) -> N) -> N {
        m.probability(
            r,
            EvalScratch::new().prepare(m.order().iter().copied(), prob),
        )
    }

    fn assignment(bits: u32) -> impl Fn(u32) -> bool {
        move |v| (bits >> v) & 1 == 1
    }

    #[test]
    fn literals_and_terminals() {
        let mut m = ObddManager::new(vec![0, 1, 2]);
        let x0 = m.literal(0, true);
        let nx0 = m.literal(0, false);
        assert!(m.eval(x0, &assignment(0b001)));
        assert!(!m.eval(x0, &assignment(0b000)));
        assert!(m.eval(nx0, &assignment(0b000)));
        assert!(NodeRef::TRUE.is_terminal());
    }

    #[test]
    fn apply_matches_truth_table() {
        let mut m = ObddManager::new(vec![0, 1, 2]);
        let x0 = m.literal(0, true);
        let x1 = m.literal(1, true);
        let x2 = m.literal(2, true);
        let f = m.and(x0, x1);
        let g = m.or(f, x2); // (x0∧x1)∨x2
        for bits in 0..8u32 {
            let expect = ((bits & 1 != 0) && (bits & 2 != 0)) || (bits & 4 != 0);
            assert_eq!(m.eval(g, &assignment(bits)), expect, "bits={bits:#05b}");
        }
        let x = m.xor(x0, x1);
        for bits in 0..4u32 {
            assert_eq!(
                m.eval(x, &assignment(bits)),
                (bits & 1 != 0) ^ (bits & 2 != 0)
            );
        }
    }

    #[test]
    fn combine_many_matches_pairwise_apply() {
        let mut m = ObddManager::new(vec![0, 1, 2, 3]);
        let x0 = m.literal(0, true);
        let x1 = m.literal(1, true);
        let x2 = m.literal(2, true);
        let x3 = m.literal(3, true);
        // majority(x0,x1,x2) ⊕ x3 two ways.
        let combined = m.combine_many(&[x0, x1, x2, x3], &|v| {
            (u8::from(v[0]) + u8::from(v[1]) + u8::from(v[2]) >= 2) ^ v[3]
        });
        let a = m.and(x0, x1);
        let b = m.and(x0, x2);
        let c = m.and(x1, x2);
        let ab = m.or(a, b);
        let maj = m.or(ab, c);
        let pairwise = m.xor(maj, x3);
        assert_eq!(
            combined, pairwise,
            "canonicity makes equal functions equal refs"
        );
    }

    #[test]
    fn canonicity_equal_functions_equal_refs() {
        let mut m = ObddManager::new(vec![0, 1]);
        let x0 = m.literal(0, true);
        let x1 = m.literal(1, true);
        // x0 ∨ x1 built two different ways.
        let a = m.or(x0, x1);
        let n0 = m.literal(0, false);
        let n1 = m.literal(1, false);
        let both_false = m.and(n0, n1);
        let b = m.not(both_false);
        assert_eq!(a, b, "reduced OBDDs are canonical");
    }

    #[test]
    fn negation_is_involutive() {
        let mut m = ObddManager::new(vec![0, 1, 2]);
        let x0 = m.literal(0, true);
        let x2 = m.literal(2, true);
        let f = m.or(x0, x2);
        let nn = m.not(f);
        let back = m.not(nn);
        assert_eq!(f, back);
    }

    #[test]
    fn reduction_collapses_redundant_tests() {
        let mut m = ObddManager::new(vec![0, 1]);
        let x1 = m.literal(1, true);
        // Node testing var 0 with equal children must reduce away.
        let r = m.mk(0, x1, x1);
        assert_eq!(r, x1);
    }

    #[test]
    #[should_panic(expected = "strictly below")]
    fn order_violation_detected() {
        let mut m = ObddManager::new(vec![0, 1]);
        let x0 = m.literal(0, true);
        let _ = m.mk(1, x0, NodeRef::TRUE); // child above the node's level
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_order_rejected() {
        let _ = ObddManager::new(vec![0, 1, 0]);
    }

    #[test]
    fn probability_marginalizes_skipped_levels() {
        let mut m = ObddManager::new(vec![0, 1, 2]);
        let x2 = m.literal(2, true); // skips levels 0 and 1 entirely
        let p = walk(&m, x2, |v| if v == 2 { 0.3 } else { 0.9 });
        assert!((p - 0.3).abs() < 1e-12);
        let exact = walk(&m, x2, |_| BigRational::from_ratio(3, 10));
        assert_eq!(exact, BigRational::from_ratio(3, 10));
    }

    #[test]
    fn probability_of_compound_function() {
        let mut m = ObddManager::new(vec![0, 1]);
        let x0 = m.literal(0, true);
        let x1 = m.literal(1, true);
        let f = m.or(x0, x1);
        // Pr = 1 - (1-p0)(1-p1) with p0 = 1/2, p1 = 1/3 → 2/3.
        let exact = walk(&m, f, |v| {
            BigRational::from_ratio(1, if v == 0 { 2 } else { 3 })
        });
        assert_eq!(exact, BigRational::from_ratio(2, 3));
    }

    #[test]
    fn model_count_with_skipped_variables() {
        let mut m = ObddManager::new(vec![0, 1, 2]);
        let x1 = m.literal(1, true);
        // x1 over 3 variables: 4 models.
        assert_eq!(m.model_count(x1).to_u64(), Some(4));
        let x0 = m.literal(0, true);
        let f = m.or(x0, x1);
        assert_eq!(m.model_count(f).to_u64(), Some(6));
        assert_eq!(m.model_count(NodeRef::TRUE).to_u64(), Some(8));
        assert_eq!(m.model_count(NodeRef::FALSE).to_u64(), Some(0));
    }

    #[test]
    fn to_circuit_is_an_equivalent_dd() {
        let mut m = ObddManager::new(vec![0, 1, 2]);
        let x0 = m.literal(0, true);
        let x1 = m.literal(1, true);
        let x2 = m.literal(2, true);
        let t = m.and(x0, x1);
        let f = m.xor(t, x2);
        let (c, root) = m.to_circuit(f);
        crate::verify::check_dd(&c, root).expect("OBDD converts to a valid d-D");
        for bits in 0..8u32 {
            assert_eq!(
                c.eval(root, &|v| (bits >> v) & 1 == 1),
                m.eval(f, &assignment(bits)),
                "bits={bits:#05b}"
            );
        }
        let pm = walk(&m, f, |_| 0.5);
        let pc = c.probability(root, |_| 0.5, &mut EvalScratch::new());
        assert!((pm - pc).abs() < 1e-12);
    }

    #[test]
    fn size_counts_reachable_nodes_only() {
        let mut m = ObddManager::new(vec![0, 1, 2, 3]);
        let a = m.literal(0, true);
        let b = m.literal(1, true);
        let c = m.literal(2, true);
        let ab = m.and(a, b);
        let abc = m.and(ab, c);
        assert!(m.size(abc) >= 3);
        assert!(m.size(a) == 1);
        assert_eq!(m.size(NodeRef::TRUE), 0);
        assert!(m.arena_size() >= m.size(abc));
    }

    #[test]
    fn from_parts_replays_an_arena_exactly() {
        let mut m = ObddManager::new(vec![0, 1, 2]);
        let x0 = m.literal(0, true);
        let x1 = m.literal(1, true);
        let x2 = m.literal(2, true);
        let t = m.and(x0, x1);
        let f = m.xor(t, x2);
        let entries: Vec<_> = m.node_entries().collect();
        let rebuilt = ObddManager::from_parts(m.order().to_vec(), &entries).unwrap();
        assert_eq!(rebuilt.arena_size(), m.arena_size());
        assert_eq!(
            rebuilt.node_entries().collect::<Vec<_>>(),
            entries,
            "same triples, same indices"
        );
        for bits in 0..8u32 {
            assert_eq!(
                rebuilt.eval(f, &assignment(bits)),
                m.eval(f, &assignment(bits))
            );
        }
        assert_eq!(
            walk(&rebuilt, f, |_| 0.3),
            walk(&m, f, |_| 0.3),
            "bit-identical walks"
        );
        // And the unique table is live again: mk on the rebuilt manager
        // dedups against replayed nodes instead of growing the arena.
        let mut rebuilt = rebuilt;
        let (level, lo, hi) = entries[0];
        assert_eq!(rebuilt.mk(level, lo, hi), NodeRef::from_raw(2));
        assert_eq!(rebuilt.arena_size(), entries.len());
    }

    #[test]
    fn from_parts_rejects_each_structural_violation() {
        let t = NodeRef::TRUE;
        let f = NodeRef::FALSE;
        let node0 = NodeRef::from_raw(2);
        // Duplicate variable in the order.
        assert_eq!(
            ObddManager::from_parts(vec![0, 1, 0], &[]).unwrap_err(),
            ObddError::DuplicateVariable(0)
        );
        // Level outside the order.
        assert_eq!(
            ObddManager::from_parts(vec![0], &[(1, f, t)]).unwrap_err(),
            ObddError::LevelOutOfRange { node: 0, level: 1 }
        );
        // Forward/dangling child reference (self-reference included).
        assert_eq!(
            ObddManager::from_parts(vec![0, 1], &[(0, node0, t)]).unwrap_err(),
            ObddError::DanglingChild { node: 0, child: 2 }
        );
        // Child at or above the node's level.
        assert_eq!(
            ObddManager::from_parts(vec![0, 1], &[(1, f, t), (1, node0, t)]).unwrap_err(),
            ObddError::OrderViolation { node: 1 }
        );
        // Unreduced node.
        assert_eq!(
            ObddManager::from_parts(vec![0], &[(0, t, t)]).unwrap_err(),
            ObddError::RedundantNode { node: 0 }
        );
        // Duplicate (level, lo, hi).
        assert_eq!(
            ObddManager::from_parts(vec![0], &[(0, f, t), (0, f, t)]).unwrap_err(),
            ObddError::DuplicateNode { node: 1 }
        );
        // All errors display something human-readable.
        assert!(ObddError::DuplicateVariable(0)
            .to_string()
            .contains("twice"));
    }

    #[test]
    fn lane_batched_walk_is_bit_identical_to_scalar() {
        let mut m = ObddManager::new(vec![0, 1, 2]);
        let x0 = m.literal(0, true);
        let x1 = m.literal(1, true);
        let x2 = m.literal(2, true);
        let t = m.and(x0, x1);
        let f = m.xor(t, x2);

        let lane_prob = |lane: usize, v: u32| 0.03 + 0.07 * lane as f64 + 0.21 * f64::from(v);
        let probs: Vec<[f64; LANES]> = (0..3u32)
            .map(|v| std::array::from_fn(|lane| lane_prob(lane, v)))
            .collect();
        let mut scratch = EvalScratch::new();
        let vars = || m.order().iter().copied();
        let got = m.probability(f, scratch.prepare(vars(), |v| probs[v as usize]));
        for (lane, &p) in got.iter().enumerate() {
            let scalar = walk(&m, f, |v| lane_prob(lane, v));
            assert_eq!(p.to_bits(), scalar.to_bits(), "lane {lane}");
        }
        // Terminals short-circuit without touching the scratch.
        assert_eq!(m.probability(NodeRef::TRUE, &mut scratch), [1.0; LANES]);
        assert_eq!(m.probability(NodeRef::FALSE, &mut scratch), [0.0; LANES]);
        // And the reachability marks were unwound: a second walk through
        // the same scratch gives the same bits.
        let again = m.probability(f, scratch.prepare(vars(), |v| probs[v as usize]));
        assert_eq!(again, got);
    }

    #[test]
    fn iterative_walks_survive_a_deep_chain() {
        // A 200 000-node conjunction chain x0 ∧ x1 ∧ … — the recursive
        // memo walk this replaced would have needed a 200 000-deep call
        // stack (a guaranteed overflow under the test harness's default
        // 2 MiB threads); the iterative dense-index walks just stream
        // over the arena.
        const DEPTH: u32 = 200_000;
        let mut m = ObddManager::new((0..DEPTH).collect());
        let mut node = NodeRef::TRUE;
        for level in (0..DEPTH).rev() {
            node = m.mk(level, NodeRef::FALSE, node);
        }
        assert_eq!(m.size(node), DEPTH as usize);

        // All-ones probabilities make the product exactly 1.0 / 1.
        assert_eq!(walk(&m, node, |_| 1.0), 1.0);
        assert!(walk(&m, node, |_| BigRational::one()).is_one());

        let mut probs = vec![[0.0; LANES]; DEPTH as usize];
        for block in &mut probs {
            block[0] = 1.0;
            block[1] = 0.0;
        }
        let mut scratch = EvalScratch::new();
        scratch.prepare(0..DEPTH, |v| probs[v as usize]);
        let lanes = m.probability(node, &mut scratch);
        assert_eq!(lanes[0], 1.0, "∏ 1.0 over the whole chain");
        assert_eq!(lanes[1], 0.0, "x0 already absent");

        // The circuit embedding is one ascending pass as well: one `∨`
        // gate per node, and the same all-ones product.
        let (c, root) = m.to_circuit(node);
        assert_eq!(c.stats().or_gates, DEPTH as usize);
        assert_eq!(c.probability(root, |_| 1.0, &mut EvalScratch::new()), 1.0);
    }

    #[test]
    fn copy_remapped_identity_preserves_walks() {
        let mut m = ObddManager::new(vec![10, 20, 30]);
        let x0 = m.literal(10, true);
        let x1 = m.literal(20, true);
        let x2 = m.literal(30, true);
        let t = m.and(x0, x1);
        let f = m.xor(t, x2);
        let mut target = ObddManager::new(vec![10, 20, 30]);
        let mapped = m.copy_remapped(&mut target, &|l| l, &[f, t]);
        for bits in 0..8u32 {
            let assign = |v: u32| (bits >> (v / 10 - 1)) & 1 == 1;
            assert_eq!(target.eval(mapped[0], &assign), m.eval(f, &assign));
            assert_eq!(target.eval(mapped[1], &assign), m.eval(t, &assign));
        }
        let p = |v: u32| 0.1 + f64::from(v) / 100.0;
        assert_eq!(
            walk(&target, mapped[0], p).to_bits(),
            walk(&m, f, p).to_bits(),
            "bit-identical probability walk after the copy"
        );
    }

    #[test]
    fn copy_remapped_shifts_levels_and_compacts() {
        // Source over [5, 6]; target order gains a new shallowest
        // variable 4, shifting every copied level by +1 — the insert
        // direction of a lineage patch.
        let mut m = ObddManager::new(vec![5, 6]);
        let a = m.literal(5, true);
        let b = m.literal(6, true);
        let f = m.or(a, b);
        let dead = m.and(a, b); // not copied: unreachable from `f`
        let _ = dead;
        let mut target = ObddManager::new(vec![4, 5, 6]);
        let mapped = m.copy_remapped(&mut target, &|l| l + 1, &[f]);
        assert_eq!(
            target.arena_size(),
            m.size(f),
            "only the live closure of the roots is copied"
        );
        // f = x5 ∨ x6 in the target, with x4 marginalized out.
        let p = walk(&target, mapped[0], |v| match v {
            5 => 0.5,
            6 => 0.25,
            _ => 0.0,
        });
        assert!((p - (1.0 - 0.5 * 0.75)).abs() < 1e-15);
        // Terminal roots map to themselves.
        let terms = m.copy_remapped(&mut target, &|l| l + 1, &[NodeRef::TRUE, NodeRef::FALSE]);
        assert_eq!(terms, vec![NodeRef::TRUE, NodeRef::FALSE]);
    }

    #[test]
    fn copy_remapped_dedups_against_existing_target_nodes() {
        let mut m = ObddManager::new(vec![0, 1]);
        let x0 = m.literal(0, true);
        let x1 = m.literal(1, true);
        let f = m.or(x0, x1);
        let mut target = ObddManager::new(vec![0, 1]);
        let pre = target.literal(1, true);
        let mapped = m.copy_remapped(&mut target, &|l| l, &[f, x1]);
        assert_eq!(
            mapped[1], pre,
            "shared sub-DAGs unify with nodes the target already holds"
        );
        // A second copy of the same roots allocates nothing new.
        let before = target.arena_size();
        let again = m.copy_remapped(&mut target, &|l| l, &[f]);
        assert_eq!(again[0], mapped[0]);
        assert_eq!(target.arena_size(), before);
    }

    #[test]
    fn compact_puts_the_first_roots_nodes_first_in_canonical_postorder() {
        // The same function built through two different arena histories,
        // each with dead intermediates left behind.
        let mut a = ObddManager::new(vec![0, 1, 2, 3]);
        let x: Vec<NodeRef> = (0..4).map(|v| a.literal(v, true)).collect();
        let t = a.and(x[0], x[1]);
        let f = a.xor(t, x[2]);
        let extra = a.or(x[3], t);
        let mut b = ObddManager::new(vec![0, 1, 2, 3]);
        let y: Vec<NodeRef> = (0..4).rev().map(|v| b.literal(v, true)).collect();
        let _ = b.or(y[0], y[1]);
        let u = b.and(y[2], y[3]);
        let g = b.xor(y[1], u);

        let (ca, ra) = a.compact(&[f, extra]);
        let (cb, rb) = b.compact(&[g]);
        assert_eq!(ca.prefix_len(ra[0]), a.size(f), "the prefix is f's nodes");
        assert_eq!(
            ra[0],
            NodeRef::from_raw(a.size(f) as u32 + 1),
            "ending at f"
        );
        assert_eq!(cb.arena_size(), b.size(g), "dead nodes are dropped");
        assert_eq!(cb.prefix_len(rb[0]), cb.arena_size());
        assert_eq!(
            ca.node_entries()
                .take(ca.prefix_len(ra[0]))
                .collect::<Vec<_>>(),
            cb.node_entries().collect::<Vec<_>>(),
            "the prefix depends on the function, not on the history"
        );
        // Later roots keep their own nodes after the prefix.
        assert!(ca.arena_size() > ca.prefix_len(ra[0]));
        for bits in 0..16u32 {
            assert_eq!(
                ca.eval(ra[1], &assignment(bits)),
                a.eval(extra, &assignment(bits))
            );
        }
        let p = |v: u32| 0.15 + 0.2 * f64::from(v);
        assert_eq!(
            walk(&ca, ra[0], p).to_bits(),
            walk(&a, f, p).to_bits(),
            "bit-identical walks after compaction"
        );
        assert_eq!(ca.support_vars(ra[0]), vec![0, 1, 2]);
        // Building on a compacted arena still dedups against its nodes.
        let mut ca = ca;
        let (level, lo, hi) = ca.node_entries().next().unwrap();
        let before = ca.arena_size();
        assert_eq!(ca.mk(level, lo, hi), NodeRef::from_raw(2));
        assert_eq!(ca.arena_size(), before);
        // Terminals map to themselves and have empty prefixes.
        let (_, terms) = a.compact(&[NodeRef::TRUE]);
        assert_eq!(terms, vec![NodeRef::TRUE]);
        assert_eq!(a.prefix_len(NodeRef::FALSE), 0);
    }

    #[test]
    fn managers_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        // Sharded evaluation walks one finished OBDD from many threads;
        // this fails to compile if interior mutability ever creeps in.
        assert_send_sync::<ObddManager>();

        let mut m = ObddManager::new(vec![0, 1]);
        let a = m.literal(0, true);
        let b = m.literal(1, true);
        let f = m.or(a, b);
        let expected = walk(&m, f, |_| 0.5);
        let shared = std::sync::Arc::new(m);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&shared);
                s.spawn(move || {
                    let p = walk(&m, f, |_| 0.5);
                    assert!((p - expected).abs() < 1e-15);
                });
            }
        });
    }
}
