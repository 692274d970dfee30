//! Downstream knowledge-compilation tasks on OBDD lineages.
//!
//! The paper's introduction motivates the intensional approach by the
//! reusability of compiled lineages: "we could for instance update the
//! tuples' probabilities and compute the new result easily, or compute
//! the most probable state of the data that satisfies the query, or
//! enumerate satisfying states with constant delay, or produce random
//! samples of satisfying states". This module implements those tasks on
//! reduced OBDDs:
//!
//! * [`ObddManager::most_probable_model`] — arg-max of the world
//!   distribution restricted to satisfying worlds (max-product pass);
//! * [`ObddManager::sample_model`] — exact posterior sampling of a
//!   satisfying world (top-down, proportional to world probability);
//! * [`ObddManager::enumerate_models`] — ordered enumeration of
//!   satisfying assignments with polynomial delay.

use std::collections::HashMap;

use crate::eval::EvalScratch;
use crate::obdd::{NodeRef, ObddManager};

impl ObddManager {
    /// The most probable satisfying assignment under independent
    /// per-variable probabilities, or `None` if the function is
    /// unsatisfiable. Returns `(assignment bitmask over order positions,
    /// probability)`.
    ///
    /// Max-product dynamic programming: at each node take the better of
    /// `p·best(hi)` and `(1-p)·best(lo)`; skipped variables contribute
    /// their individually-better factor.
    pub fn most_probable_model(
        &self,
        r: NodeRef,
        prob: &impl Fn(u32) -> f64,
    ) -> Option<(Vec<bool>, f64)> {
        if r == NodeRef::FALSE {
            return None;
        }
        let num_levels = self.order().len() as u32;
        // best[node] = (probability of the best completion strictly below
        // the node's level, choices along the way)
        let mut memo: HashMap<NodeRef, f64> = HashMap::new();
        // Per-level factor for variables skipped by reduction.
        let level_best: Vec<f64> = self
            .order()
            .iter()
            .map(|&v| {
                let p = prob(v);
                p.max(1.0 - p)
            })
            .collect();
        // Product of best factors for levels in [from, to).
        let span =
            |from: u32, to: u32| -> f64 { level_best[from as usize..to as usize].iter().product() };
        fn best(
            m: &ObddManager,
            r: NodeRef,
            prob: &impl Fn(u32) -> f64,
            span: &impl Fn(u32, u32) -> f64,
            memo: &mut HashMap<NodeRef, f64>,
        ) -> f64 {
            // Value over levels >= level(r) (node's own level included).
            match r {
                NodeRef::FALSE => f64::NEG_INFINITY,
                NodeRef::TRUE => 1.0,
                _ => {
                    if let Some(&b) = memo.get(&r) {
                        return b;
                    }
                    let (level, lo, hi) = m.node_parts(r);
                    let var = m.order()[level as usize];
                    let p = prob(var);
                    let hi_val =
                        best(m, hi, prob, span, memo) * span(level + 1, m.resolve_level(hi));
                    let lo_val =
                        best(m, lo, prob, span, memo) * span(level + 1, m.resolve_level(lo));
                    let b = (p * hi_val).max((1.0 - p) * lo_val);
                    memo.insert(r, b);
                    b
                }
            }
        }
        let top_level = self.resolve_level(r);
        let total = best(self, r, prob, &span, &mut memo) * span(0, top_level);
        if total == f64::NEG_INFINITY {
            return None;
        }
        // Reconstruct choices top-down.
        let mut assignment = vec![false; self.order().len()];
        // Greedy per-skipped-level choice.
        let fill_skipped = |assignment: &mut Vec<bool>, from: u32, to: u32| {
            for l in from..to {
                let p = prob(self.order()[l as usize]);
                assignment[l as usize] = p >= 0.5;
            }
        };
        let mut cur = r;
        let mut frontier = 0u32;
        while cur != NodeRef::TRUE {
            let (level, lo, hi) = self.node_parts(cur);
            fill_skipped(&mut assignment, frontier, level);
            let var = self.order()[level as usize];
            let p = prob(var);
            let hi_val =
                best(self, hi, prob, &span, &mut memo) * span(level + 1, self.resolve_level(hi));
            let lo_val =
                best(self, lo, prob, &span, &mut memo) * span(level + 1, self.resolve_level(lo));
            if p * hi_val >= (1.0 - p) * lo_val {
                assignment[level as usize] = true;
                cur = hi;
            } else {
                assignment[level as usize] = false;
                cur = lo;
            }
            frontier = level + 1;
            if cur == NodeRef::FALSE {
                unreachable!("best path never enters FALSE");
            }
        }
        fill_skipped(&mut assignment, frontier, num_levels);
        Some((assignment, total))
    }

    /// Draws a satisfying assignment with probability proportional to its
    /// world probability (i.e. from the posterior given the query holds).
    /// Returns `None` for the unsatisfiable function.
    pub fn sample_model(
        &self,
        r: NodeRef,
        prob: &impl Fn(u32) -> f64,
        rng: &mut impl rand::Rng,
    ) -> Option<Vec<bool>> {
        if r == NodeRef::FALSE {
            return None;
        }
        let num_levels = self.order().len() as u32;
        let mut assignment = vec![false; self.order().len()];
        // Pre-compute satisfaction probabilities per node once, over
        // probabilities prepared once.
        let mut probs: HashMap<NodeRef, f64> = HashMap::new();
        let mut scratch = EvalScratch::new();
        scratch.prepare(self.order().iter().copied(), prob);
        let mut node_prob = |m: &ObddManager, x: NodeRef, probs: &mut HashMap<NodeRef, f64>| {
            *probs
                .entry(x)
                .or_insert_with(|| m.probability(x, &mut scratch))
        };
        let mut cur = r;
        let mut frontier = 0u32;
        loop {
            let level = self.resolve_level(cur);
            // Variables skipped above `cur` are unconstrained: sample from
            // their prior.
            for l in frontier..level.min(num_levels) {
                let p = prob(self.order()[l as usize]);
                assignment[l as usize] = rng.random::<f64>() < p;
            }
            if cur == NodeRef::TRUE {
                return Some(assignment);
            }
            let (lvl, lo, hi) = self.node_parts(cur);
            let var = self.order()[lvl as usize];
            let p = prob(var);
            let w_hi = p * node_prob(self, hi, &mut probs);
            let w_lo = (1.0 - p) * node_prob(self, lo, &mut probs);
            let take_hi = rng.random::<f64>() * (w_hi + w_lo) < w_hi;
            assignment[lvl as usize] = take_hi;
            cur = if take_hi { hi } else { lo };
            debug_assert_ne!(cur, NodeRef::FALSE, "conditional sampling avoids FALSE");
            frontier = lvl + 1;
        }
    }

    /// Enumerates up to `limit` satisfying assignments (over the full
    /// variable order, in lexicographic order of the assignment vector,
    /// `false < true`), with polynomial delay per model.
    pub fn enumerate_models(&self, r: NodeRef, limit: usize) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        let n = self.order().len();
        let mut partial = vec![false; n];
        self.enum_rec(r, 0, &mut partial, &mut out, limit);
        out
    }

    fn enum_rec(
        &self,
        r: NodeRef,
        level: u32,
        partial: &mut Vec<bool>,
        out: &mut Vec<Vec<bool>>,
        limit: usize,
    ) {
        if out.len() >= limit || r == NodeRef::FALSE {
            return;
        }
        let n = self.order().len() as u32;
        if level == n {
            debug_assert_eq!(r, NodeRef::TRUE);
            out.push(partial.clone());
            return;
        }
        let node_level = self.resolve_level(r);
        for value in [false, true] {
            if out.len() >= limit {
                return;
            }
            partial[level as usize] = value;
            let next = if node_level == level {
                let (_, lo, hi) = self.node_parts(r);
                if value {
                    hi
                } else {
                    lo
                }
            } else {
                r // skipped level: both branches continue at r
            };
            self.enum_rec(next, level + 1, partial, out, limit);
        }
        partial[level as usize] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor3() -> (ObddManager, NodeRef) {
        let mut m = ObddManager::new(vec![0, 1, 2]);
        let a = m.literal(0, true);
        let b = m.literal(1, true);
        let c = m.literal(2, true);
        let ab = m.xor(a, b);
        let f = m.xor(ab, c);
        (m, f)
    }

    #[test]
    fn most_probable_model_on_xor() {
        let (m, f) = xor3();
        // p = (0.9, 0.8, 0.1): best satisfying world of xor (odd number
        // of trues): {0,1} true, 2 false → 0.9*0.8*0.9 = 0.648... wait
        // that's two trues (even). Satisfying candidates: the best is
        // 0 true, 1 true, 2 true? that's all three... enumerate in test.
        let probs = [0.9, 0.8, 0.1];
        let pf = |v: u32| probs[v as usize];
        let (model, p) = m.most_probable_model(f, &pf).expect("satisfiable");
        // Cross-check against exhaustive enumeration.
        let mut best = (Vec::new(), -1.0f64);
        for bits in 0..8u32 {
            let assign: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            if !m.eval(f, &|v| assign[v as usize]) {
                continue;
            }
            let w: f64 = (0..3)
                .map(|i| if assign[i] { probs[i] } else { 1.0 - probs[i] })
                .product();
            if w > best.1 {
                best = (assign, w);
            }
        }
        assert_eq!(model, best.0);
        assert!((p - best.1).abs() < 1e-12, "{p} vs {}", best.1);
    }

    #[test]
    fn most_probable_model_handles_skipped_levels() {
        let mut m = ObddManager::new(vec![0, 1, 2, 3]);
        let f = m.literal(2, true); // levels 0,1,3 unconstrained
        let pf = |v: u32| [0.9, 0.2, 0.5, 0.7][v as usize];
        let (model, p) = m.most_probable_model(f, &pf).unwrap();
        assert_eq!(model, vec![true, false, true, true]);
        assert!((p - 0.9 * 0.8 * 0.5 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn unsat_has_no_model() {
        let m = ObddManager::new(vec![0, 1]);
        assert!(m.most_probable_model(NodeRef::FALSE, &|_| 0.5).is_none());
        let mut rng = StdRng::seed_from_u64(1);
        let mut m2 = ObddManager::new(vec![0]);
        let _ = &mut m2;
        assert!(m.sample_model(NodeRef::FALSE, &|_| 0.5, &mut rng).is_none());
        assert!(m.enumerate_models(NodeRef::FALSE, 10).is_empty());
    }

    #[test]
    fn samples_are_models_and_roughly_distributed() {
        let (m, f) = xor3();
        let pf = |_: u32| 0.5;
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts: HashMap<Vec<bool>, u32> = HashMap::new();
        for _ in 0..4000 {
            let s = m.sample_model(f, &pf, &mut rng).unwrap();
            assert!(m.eval(f, &|v| s[v as usize]), "sample must satisfy");
            *counts.entry(s).or_insert(0) += 1;
        }
        // 4 models, uniform weights: each ≈ 1000.
        assert_eq!(counts.len(), 4);
        for (model, c) in counts {
            assert!((800..1200).contains(&c), "model {model:?} count {c}");
        }
    }

    #[test]
    fn sampling_respects_weights() {
        let mut m = ObddManager::new(vec![0]);
        let x = m.literal(0, true);
        let t = m.not(x);
        let f = m.or(x, t); // tautology: every world satisfies
        let pf = |_: u32| 0.25;
        let mut rng = StdRng::seed_from_u64(11);
        let mut trues = 0u32;
        for _ in 0..4000 {
            if m.sample_model(f, &pf, &mut rng).unwrap()[0] {
                trues += 1;
            }
        }
        // Expect ~1000 (p = 0.25).
        assert!((800..1200).contains(&trues), "{trues}");
    }

    #[test]
    fn enumeration_is_exhaustive_ordered_and_bounded() {
        let (m, f) = xor3();
        let all = m.enumerate_models(f, usize::MAX);
        assert_eq!(all.len(), 4); // xor of 3 vars: 4 odd-parity models
        for model in &all {
            assert!(m.eval(f, &|v| model[v as usize]));
        }
        // Lexicographic order, false < true.
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted);
        // Limit respected.
        assert_eq!(m.enumerate_models(f, 2).len(), 2);
    }

    #[test]
    fn enumeration_counts_match_model_count() {
        let mut m = ObddManager::new(vec![0, 1, 2, 3]);
        let a = m.literal(0, true);
        let c = m.literal(2, true);
        let f = m.or(a, c);
        let models = m.enumerate_models(f, usize::MAX);
        assert_eq!(models.len() as u64, m.model_count(f).to_u64().unwrap());
    }
}
