use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::bisect::bisect;
use crate::graph::WeightedGraph;

/// A qubit → tile-slot assignment on a `rows × cols` tile array, scored by
/// the paper's communication cost `f = Σ γ_ij · manhattan(slot_i, slot_j)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    rows: usize,
    cols: usize,
    slot_of: Vec<usize>,
    cost: u64,
}

impl Placement {
    /// Tile-array rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Tile-array columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Slot (`r · cols + c`) assigned to each qubit.
    #[must_use]
    pub fn slot_of(&self) -> &[usize] {
        &self.slot_of
    }

    /// Communication cost `f = Σ γ_ij · l_ij` of this mapping.
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

fn manhattan(cols: usize, a: usize, b: usize) -> u64 {
    let (ra, ca) = (a / cols, a % cols);
    let (rb, cb) = (b / cols, b % cols);
    (ra.abs_diff(rb) + ca.abs_diff(cb)) as u64
}

fn total_cost(graph: &WeightedGraph, cols: usize, slot_of: &[usize]) -> u64 {
    graph.edges().iter().map(|&(a, b, w)| w * manhattan(cols, slot_of[a], slot_of[b])).sum()
}

/// Places the vertices of `graph` onto a `rows × cols` tile array by
/// recursive KL bisection followed by pairwise-swap refinement, repeated
/// `restarts` times with different random streams; the cheapest mapping
/// wins. This is the *mapping establishing* step of the paper (§IV-B1),
/// with the recursive bisectioner substituting for Metis.
///
/// # Panics
///
/// Panics if `graph.len() > rows * cols`.
///
/// # Example
///
/// ```
/// use ecmas_partition::{place, WeightedGraph};
///
/// // A 4-path placed on a 2×2 array: every edge can be adjacent.
/// let g = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
/// let p = place(&g, 2, 2, 4, 7);
/// assert_eq!(p.cost(), 3);
/// ```
#[must_use]
pub fn place(
    graph: &WeightedGraph,
    rows: usize,
    cols: usize,
    restarts: usize,
    seed: u64,
) -> Placement {
    place_opts(graph, rows, cols, restarts, seed, true)
}

/// [`place`] with the swap-refinement pass optional. `refine = false`
/// reproduces a bare recursive-bisection (Metis-style) mapping, used as the
/// "Metis" baseline of the paper's Table II.
///
/// # Panics
///
/// Panics if `graph.len() > rows * cols`.
#[must_use]
pub fn place_opts(
    graph: &WeightedGraph,
    rows: usize,
    cols: usize,
    restarts: usize,
    seed: u64,
    refine_pass: bool,
) -> Placement {
    place_masked(graph, rows, cols, restarts, seed, refine_pass, &vec![false; rows * cols])
}

/// [`place_opts`] over a tile array with forbidden (defective) slots: no
/// qubit is ever assigned to a slot whose `forbidden` flag is set, by the
/// bisection targets (proportional to *live* slot counts), the base-case
/// drop, and the refinement moves alike.
///
/// With an all-false mask every live count equals the geometric slot
/// count, so this runs the exact `place_opts` arithmetic — same random
/// stream, same mapping, bit for bit.
///
/// # Panics
///
/// Panics if `forbidden.len() != rows * cols` or if `graph.len()` exceeds
/// the number of live slots.
#[must_use]
pub fn place_masked(
    graph: &WeightedGraph,
    rows: usize,
    cols: usize,
    restarts: usize,
    seed: u64,
    refine_pass: bool,
    forbidden: &[bool],
) -> Placement {
    let n = graph.len();
    assert_eq!(forbidden.len(), rows * cols, "defect mask must cover the tile array");
    let live = forbidden.iter().filter(|&&f| !f).count();
    assert!(n <= live, "{n} qubits do not fit in {live} live slots of a {rows}×{cols} array");
    let mut best: Option<Placement> = None;
    let mut index_of = vec![usize::MAX; n];
    for r in 0..restarts.max(1) {
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_add(r as u64).wrapping_mul(0x9E37_79B9));
        let mut slot_of = vec![usize::MAX; n];
        let qubits: Vec<usize> = (0..n).collect();
        recurse(
            graph,
            &qubits,
            0,
            rows,
            0,
            cols,
            cols,
            slot_of.as_mut_slice(),
            forbidden,
            &mut index_of,
            &mut rng,
        );
        if refine_pass {
            refine(graph, rows, cols, &mut slot_of, forbidden);
        }
        let cost = total_cost(graph, cols, &slot_of);
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(Placement { rows, cols, slot_of, cost });
        }
    }
    best.expect("at least one restart")
}

/// Recursively bisects `qubits` into the slot region `[r0,r1)×[c0,c1)`,
/// sizing the halves by their *live* (non-forbidden) slot counts.
/// `qubits` is strictly increasing, and `index_of` is the all-`usize::MAX`
/// scratch [`WeightedGraph::induced`] borrows at every node.
#[allow(clippy::too_many_arguments)]
fn recurse(
    graph: &WeightedGraph,
    qubits: &[usize],
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
    cols: usize,
    slot_of: &mut [usize],
    forbidden: &[bool],
    index_of: &mut [usize],
    rng: &mut SmallRng,
) {
    if qubits.is_empty() {
        return;
    }
    let region_rows = r1 - r0;
    let region_cols = c1 - c0;
    if region_rows * region_cols == 1 || qubits.len() == 1 {
        // Base case: drop remaining qubits into the region's live slots
        // row-major. (At most one qubit remains unless the region is a
        // single slot.)
        let mut slots =
            (r0..r1).flat_map(|r| (c0..c1).map(move |c| r * cols + c)).filter(|&s| !forbidden[s]);
        for &q in qubits {
            slot_of[q] = slots.next().expect("region has room");
        }
        return;
    }

    let live_in = |r0: usize, r1: usize, c0: usize, c1: usize| -> usize {
        (r0..r1).map(|r| (c0..c1).filter(|&c| !forbidden[r * cols + c]).count()).sum()
    };

    // Split the longer dimension.
    let (a_slots, regions) = if region_rows >= region_cols {
        let rm = r0 + region_rows / 2;
        (live_in(r0, rm, c0, c1), ((r0, rm, c0, c1), (rm, r1, c0, c1)))
    } else {
        let cm = c0 + region_cols / 2;
        (live_in(r0, r1, c0, cm), ((r0, r1, c0, cm), (r0, r1, cm, c1)))
    };
    let total_slots = live_in(r0, r1, c0, c1);
    let b_slots = total_slots - a_slots;

    // Target sizes proportional to slot counts, clamped to fit.
    let k = qubits.len();
    let mut ka = (k * a_slots + total_slots / 2) / total_slots;
    ka = ka.min(a_slots).max(k.saturating_sub(b_slots));

    // Bisect the induced subgraph.
    let side = bisect(&graph.induced(qubits, index_of), ka, rng);

    let left: Vec<usize> =
        qubits.iter().enumerate().filter(|&(i, _)| !side[i]).map(|(_, &q)| q).collect();
    let right: Vec<usize> =
        qubits.iter().enumerate().filter(|&(i, _)| side[i]).map(|(_, &q)| q).collect();
    let ((ar0, ar1, ac0, ac1), (br0, br1, bc0, bc1)) = regions;
    recurse(graph, &left, ar0, ar1, ac0, ac1, cols, slot_of, forbidden, index_of, rng);
    recurse(graph, &right, br0, br1, bc0, bc1, cols, slot_of, forbidden, index_of, rng);
}

/// Best-improvement local search: swap two qubits or move a qubit to a free
/// slot while the cost decreases.
///
/// The cost deltas are evaluated through per-qubit *attraction profiles*:
/// Manhattan distance separates into row and column terms, so the weighted
/// distance from a candidate slot `(r, c)` to all of `q`'s neighbors is
/// `A_q(r) + B_q(c)`. The profiles are built once, from a weighted
/// histogram of the neighbors' rows/columns in two prefix passes, and then
/// kept current: a qubit moving `from → to` shifts each neighbor's row
/// profile by `w·(|r − row(to)| − |r − row(from)|)`, and likewise its
/// column profile. Each round then costs `O(deg·(rows + cols) + n·slots)`
/// instead of a graph scan per candidate, while producing the *same
/// integers* — and therefore the same move sequence and final mapping —
/// as the naive `Σ w·(d(to, s_u) − d(from, s_u))` evaluation.
fn refine(
    graph: &WeightedGraph,
    rows: usize,
    cols: usize,
    slot_of: &mut [usize],
    forbidden: &[bool],
) {
    let n = graph.len();
    let slots = rows * cols;
    let mut occupant: Vec<Option<usize>> = vec![None; slots];
    for (q, &s) in slot_of.iter().enumerate() {
        occupant[s] = Some(q);
    }
    let clamp = |w: u64| i64::try_from(w).unwrap_or(i64::MAX);
    // Dense pair-weight table for the swap correction term (γ_qp): a swap
    // leaves the q–p edge length unchanged, so its contribution must be
    // backed out of the two one-sided deltas. n is a tile-array
    // population, so n² stays small.
    let mut weight = vec![0i64; n * n];
    for q in 0..n {
        for &(u, w) in graph.neighbors(q) {
            weight[q * n + u] = clamp(w);
        }
    }
    let mut row_hist = vec![0i64; rows];
    let mut col_hist = vec![0i64; cols];
    let mut row_profile = vec![0i64; n * rows];
    let mut col_profile = vec![0i64; n * cols];
    // `A(x) = Σ_u w_u·|x − x_u|` for every coordinate `x`, from the
    // neighbors' weighted coordinate histogram in two sweeps.
    fn fill_profile(hist: &[i64], out: &mut [i64]) {
        let (mut below, mut acc) = (0i64, 0i64);
        for (x, o) in out.iter_mut().enumerate() {
            acc += below;
            *o = acc;
            below += hist[x];
        }
        let (mut above, mut acc) = (0i64, 0i64);
        for (x, o) in out.iter_mut().enumerate().rev() {
            acc += above;
            *o += acc;
            above += hist[x];
        }
    }

    for q in 0..n {
        row_hist.fill(0);
        col_hist.fill(0);
        for &(u, w) in graph.neighbors(q) {
            let s = slot_of[u];
            row_hist[s / cols] += clamp(w);
            col_hist[s % cols] += clamp(w);
        }
        fill_profile(&row_hist, &mut row_profile[q * rows..(q + 1) * rows]);
        fill_profile(&col_hist, &mut col_profile[q * cols..(q + 1) * cols]);
    }

    for _round in 0..4 * n.max(1) {
        let attraction = |q: usize, slot: usize| -> i64 {
            row_profile[q * rows + slot / cols] + col_profile[q * cols + slot % cols]
        };
        let mut best: Option<(usize, Option<usize>, usize, i64)> = None; // (q, partner, target_slot, delta)
        for q in 0..n {
            let from = slot_of[q];
            let a_from = attraction(q, from);
            for (target, &occ) in occupant.iter().enumerate() {
                if target == from || forbidden[target] {
                    continue;
                }
                match occ {
                    None => {
                        let d = attraction(q, target) - a_from;
                        if best.is_none_or(|(_, _, _, bd)| d < bd) {
                            best = Some((q, None, target, d));
                        }
                    }
                    Some(p) => {
                        if p <= q {
                            continue; // each unordered pair once
                        }
                        // The q–p edge length is unchanged by a swap; the
                        // profiles counted its endpoints moving apart and
                        // together, so restore 2·γ_qp·d(from, target).
                        let d = (attraction(q, target) - a_from)
                            + (attraction(p, from) - attraction(p, target))
                            + 2 * weight[q * n + p] * manhattan(cols, from, target) as i64;
                        if best.is_none_or(|(_, _, _, bd)| d < bd) {
                            best = Some((q, Some(p), target, d));
                        }
                    }
                }
            }
        }
        match best {
            Some((q, partner, target, d)) if d < 0 => {
                let from = slot_of[q];
                slot_of[q] = target;
                occupant[target] = Some(q);
                if let Some(p) = partner {
                    slot_of[p] = from;
                    occupant[from] = Some(p);
                } else {
                    occupant[from] = None;
                }
                // Each moved qubit `x` shifts its neighbors' profiles by
                // `w·(|x − to| − |x − from|)` per coordinate.
                let moves =
                    [(q, from, target)].into_iter().chain(partner.map(|p| (p, target, from)));
                for (x, from, to) in moves {
                    let ((rf, cf), (rt, ct)) = ((from / cols, from % cols), (to / cols, to % cols));
                    for &(u, w) in graph.neighbors(x) {
                        let w = clamp(w);
                        if rf != rt {
                            let row = &mut row_profile[u * rows..(u + 1) * rows];
                            for (r, a) in row.iter_mut().enumerate() {
                                *a += w * (r.abs_diff(rt) as i64 - r.abs_diff(rf) as i64);
                            }
                        }
                        if cf != ct {
                            let col = &mut col_profile[u * cols..(u + 1) * cols];
                            for (c, b) in col.iter_mut().enumerate() {
                                *b += w * (c.abs_diff(ct) as i64 - c.abs_diff(cf) as i64);
                            }
                        }
                    }
                }
            }
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_injective_and_in_range() {
        let g = WeightedGraph::from_edges(7, (0..6).map(|i| (i, i + 1, 1)));
        let p = place(&g, 3, 3, 3, 11);
        let mut seen = std::collections::HashSet::new();
        for &s in p.slot_of() {
            assert!(s < 9);
            assert!(seen.insert(s), "slot reused");
        }
    }

    #[test]
    fn ring_on_grid_is_near_optimal() {
        // An 8-ring on a 3×3 array can be laid out with every edge adjacent
        // (cost 8). Allow a small slack for the heuristic.
        let g = WeightedGraph::from_edges(8, (0..8).map(|i| (i, (i + 1) % 8, 1)));
        let p = place(&g, 3, 3, 8, 5);
        assert!(p.cost() <= 10, "ring cost {} too high", p.cost());
    }

    #[test]
    fn heavy_pair_lands_adjacent() {
        let g = WeightedGraph::from_edges(5, [(0, 1, 100), (2, 3, 1), (3, 4, 1)]);
        let p = place(&g, 3, 3, 4, 3);
        assert_eq!(manhattan(3, p.slot_of()[0], p.slot_of()[1]), 1);
    }

    #[test]
    fn more_restarts_never_hurt() {
        let g = WeightedGraph::from_edges(
            9,
            (0..9).flat_map(|a| ((a + 1)..9).map(move |b| (a, b, ((a * b) % 5 + 1) as u64))),
        );
        let one = place(&g, 3, 3, 1, 17);
        let many = place(&g, 3, 3, 12, 17);
        assert!(many.cost() <= one.cost());
    }

    #[test]
    fn cost_matches_direct_computation() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 2), (1, 2, 3), (0, 3, 1)]);
        let p = place(&g, 2, 2, 2, 1);
        assert_eq!(p.cost(), total_cost(&g, 2, p.slot_of()));
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn rejects_overfull_array() {
        let g = WeightedGraph::from_edges(5, []);
        let _ = place(&g, 2, 2, 1, 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = WeightedGraph::from_edges(6, (0..5).map(|i| (i, i + 1, 1)));
        assert_eq!(place(&g, 3, 2, 3, 9), place(&g, 3, 2, 3, 9));
    }

    #[test]
    fn all_false_mask_is_bit_identical_to_unmasked() {
        let g = WeightedGraph::from_edges(
            9,
            (0..9).flat_map(|a| ((a + 1)..9).map(move |b| (a, b, ((a * b) % 5 + 1) as u64))),
        );
        for refine_pass in [false, true] {
            let unmasked = place_opts(&g, 4, 3, 6, 13, refine_pass);
            let masked = place_masked(&g, 4, 3, 6, 13, refine_pass, &[false; 12]);
            assert_eq!(unmasked, masked, "refine={refine_pass}");
        }
    }

    #[test]
    fn forbidden_slots_are_never_assigned() {
        let g = WeightedGraph::from_edges(
            10,
            (0..10).flat_map(|a| ((a + 1)..10).map(move |b| (a, b, ((a + b) % 4 + 1) as u64))),
        );
        let mut forbidden = vec![false; 16];
        for dead in [0, 5, 6, 10, 15] {
            forbidden[dead] = true;
        }
        for seed in 0..8u64 {
            let p = place_masked(&g, 4, 4, 4, seed, true, &forbidden);
            let mut seen = std::collections::HashSet::new();
            for &s in p.slot_of() {
                assert!(!forbidden[s], "seed {seed}: qubit placed on dead slot {s}");
                assert!(seen.insert(s), "seed {seed}: slot {s} reused");
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn rejects_overfull_live_capacity() {
        // 4 slots, 1 dead: 4 qubits no longer fit.
        let g = WeightedGraph::from_edges(4, []);
        let _ = place_masked(&g, 2, 2, 1, 0, true, &[true, false, false, false]);
    }
}
