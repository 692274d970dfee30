//! The zero-allocation claim of the artifact's lane walk, asserted for
//! real: a counting global allocator measures that steady-state
//! `CompiledLineage::walk` lane passes (on `[f64; LANES]` blocks) —
//! the `prepare` of the support, every leaf OBDD's pass, the template
//! fold on top, and the probability-block refills between blocks — perform
//! **zero** heap allocations once the scratch has grown to the
//! artifact's largest leaf.
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

use intext_boolfn::{phi9, BoolFn};
use intext_circuits::{EvalScratch, LANES};
use intext_core::{compile_dd, CompiledLineage, Template};
use intext_lineage::compile_degenerate_obdd;
use intext_tid::complete_database;

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

#[test]
fn steady_state_artifact_lane_walks_do_not_allocate() {
    let db = complete_database(3, 3);
    // A d-D with several leaves and ¬ gates in its template, and the
    // one-leaf `Hole(0)` artifact of a degenerate φ (h₀ ∧ ¬h₂).
    let dd = compile_dd(&phi9(), &db).expect("e(φ9) = 0");
    assert!(dd.leaves().len() > 1);
    assert!(dd.template().negation_count() > 0);
    let psi = &BoolFn::var(4, 0) & &!&BoolFn::var(4, 2);
    let obdd = CompiledLineage::from(compile_degenerate_obdd(&psi, &db).expect("degenerate"));
    assert_eq!(*obdd.template(), Template::Hole(0));

    let vars = db.len();
    let mut probs: Vec<[f64; LANES]> = Vec::new();
    let mut scratch = EvalScratch::new();
    let refill = |probs: &mut Vec<[f64; LANES]>, round: u64| {
        probs.resize(vars, [0.0; LANES]);
        for (v, block) in (0..vars as u32).zip(probs.iter_mut()) {
            *block = std::array::from_fn(|lane| {
                1.0 / (2.0 + f64::from(v) + (lane as u64 + round) as f64)
            });
        }
    };

    // One lane pass: every support variable's block read from `probs`.
    let lanes = |artifact: &CompiledLineage, probs: &[[f64; LANES]], scratch: &mut EvalScratch| {
        artifact.walk(|v| probs[v as usize], scratch)
    };

    // Warm-up: grows the blocks and the scratch to the largest leaf.
    refill(&mut probs, 0);
    let warm_dd = lanes(&dd, &probs, &mut scratch);
    let warm_obdd = lanes(&obdd, &probs, &mut scratch);

    // Steady state: many "scenario blocks" — refill + both walks — with
    // the allocation counter watching.
    let before = allocations();
    let mut acc = 0.0;
    for round in 1..=50u64 {
        refill(&mut probs, round);
        let d = lanes(&dd, &probs, &mut scratch);
        let o = lanes(&obdd, &probs, &mut scratch);
        acc += d[0] + o[LANES - 1];
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state artifact lane walks must not touch the heap"
    );
    assert!(acc.is_finite());

    // And the warm-up results stay reproducible through the reused
    // scratch (guards against stale state masquerading as reuse).
    refill(&mut probs, 0);
    assert_eq!(lanes(&dd, &probs, &mut scratch), warm_dd);
    assert_eq!(lanes(&obdd, &probs, &mut scratch), warm_obdd);
}
