//! The zero-allocation claim of the lane-batched kernel, asserted for
//! real: a counting global allocator measures that steady-state
//! lane passes (`probability` on `[f64; LANES]` blocks) — circuit and
//! OBDD alike, including the probability-block refills and the OBDD pass's
//! `prepare` between blocks — perform **zero** heap
//! allocations once the scratch has grown to the artifact's size. A last
//! phase checks that `apply` with a constant or a repeated operand
//! returns at once, with no memo and no walk of the other operand.
//!
//! This file holds exactly one `#[test]` on purpose: the allocation
//! counter is process-global, and a sibling test allocating on another
//! harness thread would show up as a false positive.

// The counting allocator is the one place the workspace needs `unsafe`:
// `GlobalAlloc` is an unsafe trait by definition. Every method delegates
// straight to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use intext_circuits::{Circuit, EvalScratch, NodeRef, ObddManager, LANES};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A moderately sized d-D-shaped circuit: a balanced ∨-tree over
/// `(x_{2i} ∧ ¬x_{2i+1})` leaves (structure is irrelevant here — only
/// the walk's allocation behaviour is under test).
fn test_circuit(pairs: u32) -> (Circuit, intext_circuits::GateId) {
    let mut c = Circuit::new();
    let mut layer: Vec<_> = (0..pairs)
        .map(|i| {
            let a = c.var(2 * i);
            let b = c.var(2 * i + 1);
            let nb = c.not(b);
            c.and(vec![a, nb])
        })
        .collect();
    while layer.len() > 1 {
        layer = layer.chunks(2).map(|pair| c.or(pair.to_vec())).collect();
    }
    (c, layer[0])
}

/// A chain OBDD x0 ∧ x1 ∧ … ∧ x_{n-1} over the same variable space.
fn test_obdd(vars: u32) -> (ObddManager, NodeRef) {
    let mut m = ObddManager::new((0..vars).collect());
    let mut node = NodeRef::TRUE;
    for level in (0..vars).rev() {
        node = m.mk(level, NodeRef::FALSE, node);
    }
    (m, node)
}

#[test]
fn steady_state_lane_walks_do_not_allocate() {
    const VARS: u32 = 256;
    let (circuit, root) = test_circuit(VARS / 2);
    let (mut obdd, obdd_root) = test_obdd(VARS);

    let mut probs: Vec<[f64; LANES]> = Vec::new();
    let mut scratch = EvalScratch::new();
    let refill = |probs: &mut Vec<[f64; LANES]>, round: u64| {
        probs.resize(VARS as usize, [0.0; LANES]);
        for (v, block) in (0..VARS).zip(probs.iter_mut()) {
            *block = std::array::from_fn(|lane| {
                1.0 / (2.0 + f64::from(v) + (lane as u64 + round) as f64)
            });
        }
    };

    // One lane pass each: the circuit reads the blocks at its variable
    // gates, the OBDD reads `p` and `1 − p` prepared from them.
    let circuit_lanes = |probs: &[[f64; LANES]], scratch: &mut EvalScratch| {
        circuit.probability(root, |v| probs[v as usize], scratch)
    };
    let obdd_lanes = |probs: &[[f64; LANES]], scratch: &mut EvalScratch| {
        obdd.probability(obdd_root, scratch.prepare(0..VARS, |v| probs[v as usize]))
    };

    // Warm-up: grows the blocks and the scratch (circuit gate values are
    // the larger buffer, the OBDD pass adds the prepared tables).
    refill(&mut probs, 0);
    let warm_c = circuit_lanes(&probs, &mut scratch);
    let warm_o = obdd_lanes(&probs, &mut scratch);

    // Steady state: many "scenario blocks" — refill + both walks — with
    // the allocation counter watching.
    let before = allocations();
    let mut acc = 0.0;
    for round in 1..=50u64 {
        refill(&mut probs, round);
        let c = circuit_lanes(&probs, &mut scratch);
        let o = obdd_lanes(&probs, &mut scratch);
        acc += c[0] + o[LANES - 1];
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state lane walks must not touch the heap"
    );
    assert!(acc.is_finite());

    // And the warm-up results stay reproducible through the reused
    // scratch (guards against stale state masquerading as reuse).
    refill(&mut probs, 0);
    assert_eq!(circuit_lanes(&probs, &mut scratch), warm_c);
    assert_eq!(obdd_lanes(&probs, &mut scratch), warm_o);

    // `apply`'s shortcuts on a built OBDD `x`: a constant operand or two
    // equal ones decide the result without a memo or a walk of `x`.
    let (x, f, t) = (obdd_root, NodeRef::FALSE, NodeRef::TRUE);
    let before = allocations();
    let got = [
        obdd.or(x, f),
        obdd.and(x, t),
        obdd.and(x, x),
        obdd.or(x, x),
        obdd.xor(x, f),
        obdd.xor(x, x),
        obdd.and(x, f),
    ];
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "apply's shortcuts must not touch the heap"
    );
    assert_eq!(got, [x, x, x, x, x, f, f]);
}
