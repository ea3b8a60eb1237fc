//! Property tests for the A* router: path optimality against a reference
//! BFS on randomized congestion states, bit-identical equivalence of the
//! bucket-queue open set to the PR 3 binary-heap A* (paths *and* failed
//! searches), the reachability cache's invisibility across interleaved
//! commits and cycle advances, the target-side failure proof on
//! walled-in targets, and the batched per-cycle API's equivalence to
//! sequential per-gate routing.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use ecmas_chip::{Chip, CodeModel, RoutingGrid};
use ecmas_route::{Disjointness, Path, RouteRequest, Router, RouterStats};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A router over a random chip with a random set of mapped tiles and a
/// few randomly committed cycle-0 paths, plus a mirror of the reservation
/// state maintained *outside* the router (so the reference BFS shares no
/// code with the implementation under test).
struct CongestedSetup {
    router: Router,
    mode: Disjointness,
    mapped: Vec<usize>,
    /// Node-mode: cells reserved at cycle 0 (committed path interiors).
    busy_cells: HashSet<usize>,
    /// Edge-mode: edges reserved at cycle 0, as `(min, max)` cell pairs.
    busy_edges: HashSet<(usize, usize)>,
    /// Cells hosting mapped tiles (never traversable).
    tile_cells: HashSet<usize>,
}

fn congested_setup(
    rows: usize,
    cols: usize,
    bw: u32,
    node_mode: bool,
    seed: u64,
) -> CongestedSetup {
    let (model, mode) = if node_mode {
        (CodeModel::DoubleDefect, Disjointness::Node)
    } else {
        (CodeModel::LatticeSurgery, Disjointness::Edge)
    };
    let chip = Chip::uniform(model, rows, cols, bw, 3).unwrap();
    let mut router = Router::new(chip.grid(), mode);
    let mut rng = SmallRng::seed_from_u64(seed);
    let slots = rows * cols;
    let mut mapped: Vec<usize> = (0..slots).filter(|_| rng.gen_bool(0.8)).collect();
    if mapped.len() < 2 {
        mapped = vec![0, slots - 1];
    }
    let mut tile_cells = HashSet::new();
    for &slot in &mapped {
        router.block_tile(slot);
        tile_cells.insert(router.grid().tile_cell(slot));
    }
    // Commit a few random paths at cycle 0 to build congestion, mirroring
    // every reservation in the test's own state.
    let mut busy_cells = HashSet::new();
    let mut busy_edges = HashSet::new();
    for _ in 0..mapped.len().min(6) {
        let a = mapped[rng.gen_range(0..mapped.len())];
        let b = mapped[rng.gen_range(0..mapped.len())];
        if a == b {
            continue;
        }
        if let Some(path) = router.route_tiles(a, b, 0, 1) {
            busy_cells.extend(path.interior().iter().copied());
            for w in path.cells().windows(2) {
                busy_edges.insert((w[0].min(w[1]), w[0].max(w[1])));
            }
        }
    }
    CongestedSetup { router, mode, mapped, busy_cells, busy_edges, tile_cells }
}

/// Reference shortest-path oracle: plain BFS over the mirrored
/// reservation state, with the router's availability rules (tile
/// endpoints exempt, interiors must be unmapped and unreserved, edge mode
/// reserves edges instead of cells).
fn bfs_len(setup: &CongestedSetup, from_slot: usize, to_slot: usize) -> Option<usize> {
    let grid = setup.router.grid();
    let (from, to) = (grid.tile_cell(from_slot), grid.tile_cell(to_slot));
    let cell_ok = |c: usize| {
        !setup.tile_cells.contains(&c)
            && (setup.mode == Disjointness::Edge || !setup.busy_cells.contains(&c))
    };
    let edge_ok = |a: usize, b: usize| {
        setup.mode == Disjointness::Node || !setup.busy_edges.contains(&(a.min(b), a.max(b)))
    };
    let mut dist = vec![usize::MAX; grid.len()];
    let mut queue = VecDeque::new();
    dist[from] = 0;
    queue.push_back(from);
    while let Some(cur) = queue.pop_front() {
        for next in grid.neighbors(cur) {
            if dist[next] != usize::MAX || !edge_ok(cur, next) {
                continue;
            }
            if next == to {
                return Some(dist[cur] + 1);
            }
            if !cell_ok(next) {
                continue;
            }
            dist[next] = dist[cur] + 1;
            queue.push_back(next);
        }
    }
    None
}

/// An independent replica of the PR 3 router's search: A* over a binary
/// heap keyed `(f << 32) | seq` (f-score high, FIFO push counter low),
/// neighbor order up/down/left/right, running on the *mirrored*
/// reservation state. The bucket-queue router must reproduce its full
/// cell sequences — not just lengths — and its exact `None`s.
fn heap_astar_path(setup: &CongestedSetup, from_slot: usize, to_slot: usize) -> Option<Vec<usize>> {
    let grid = setup.router.grid();
    let cell_ok = |c: usize| {
        !setup.tile_cells.contains(&c)
            && (setup.mode == Disjointness::Edge || !setup.busy_cells.contains(&c))
    };
    let edge_ok = |a: usize, b: usize| {
        setup.mode == Disjointness::Node || !setup.busy_edges.contains(&(a.min(b), a.max(b)))
    };
    heap_astar(grid, grid.tile_cell(from_slot), grid.tile_cell(to_slot), cell_ok, edge_ok)
}

/// The replica's search itself, over caller-supplied availability
/// predicates: `cell_ok` for path interiors, `edge_ok` for steps.
fn heap_astar(
    grid: &RoutingGrid,
    from: usize,
    to: usize,
    cell_ok: impl Fn(usize) -> bool,
    edge_ok: impl Fn(usize, usize) -> bool,
) -> Option<Vec<usize>> {
    let (cols, rows) = (grid.cols(), grid.rows());
    let (to_r, to_c) = grid.coords(to);
    let manhattan = |cell: usize| -> u64 {
        ((cell / cols).abs_diff(to_r) + (cell % cols).abs_diff(to_c)) as u64
    };
    let mut g_score = vec![u32::MAX; grid.len()];
    let mut parent = vec![usize::MAX; grid.len()];
    let mut open: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    g_score[from] = 0;
    let mut seq: u64 = 0;
    open.push(Reverse((manhattan(from) << 32, u32::try_from(from).unwrap())));
    let mut found = false;
    while let Some(Reverse((key, cell))) = open.pop() {
        let cur = cell as usize;
        if key >> 32 != u64::from(g_score[cur]) + manhattan(cur) {
            continue;
        }
        let (r, c) = (cur / cols, cur % cols);
        let neighbors = [
            (r > 0).then(|| cur - cols),
            (r + 1 < rows).then(|| cur + cols),
            (c > 0).then(|| cur - 1),
            (c + 1 < cols).then(|| cur + 1),
        ];
        for next in neighbors.into_iter().flatten() {
            if !edge_ok(cur, next) {
                continue;
            }
            if next == to {
                parent[next] = cur;
                found = true;
                break;
            }
            if !cell_ok(next) {
                continue;
            }
            let ng = g_score[cur] + 1;
            if g_score[next] <= ng {
                continue;
            }
            g_score[next] = ng;
            parent[next] = cur;
            seq += 1;
            let f = u64::from(ng) + manhattan(next);
            open.push(Reverse(((f << 32) | seq, u32::try_from(next).unwrap())));
        }
        if found {
            break;
        }
    }
    if !found {
        return None;
    }
    let mut cells = vec![to];
    let mut cur = to;
    while cur != from {
        cur = parent[cur];
        cells.push(cur);
    }
    cells.reverse();
    Some(cells)
}

/// One seeded op sequence on a random chip with dead tiles: probes,
/// commits (hold 1–2) and cycle advances, interleaved. Every verdict —
/// cells or `None` — is checked against the cache-free heap replica run on
/// a reservation mirror kept outside the router (first free cycle per
/// cell and per edge). Panics on the first disagreement; returns the
/// router's counters, so callers can check the sequence exercised the
/// cache.
fn check_interleaved_sequence(
    rows: usize,
    cols: usize,
    bw: u32,
    node_mode: bool,
    dead: usize,
    seed: u64,
) -> RouterStats {
    let (model, mode) = if node_mode {
        (CodeModel::DoubleDefect, Disjointness::Node)
    } else {
        (CodeModel::LatticeSurgery, Disjointness::Edge)
    };
    let mut chip = Chip::uniform(model, rows, cols, bw, 3).unwrap();
    chip.seed_defects(dead, seed);
    let mut router = Router::new(chip.grid(), mode);
    let grid = chip.grid();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E9_CACE);
    let live: Vec<usize> = (0..rows * cols).filter(|&s| !chip.is_dead(s)).collect();
    let mut mapped: Vec<usize> = live.iter().copied().filter(|_| rng.gen_bool(0.8)).collect();
    if mapped.len() < 2 {
        mapped = live.iter().copied().take(2).collect();
    }
    if mapped.len() < 2 {
        return router.stats(); // nothing left to route between
    }
    // Never-traversable cells: mapped tiles and dead tiles.
    let mut walls: HashSet<usize> = (0..grid.len()).filter(|&c| grid.is_dead(c)).collect();
    for &slot in &mapped {
        router.block_tile(slot);
        walls.insert(grid.tile_cell(slot));
    }
    let mut node_free_at: HashMap<usize, u64> = HashMap::new();
    let mut edge_free_at: HashMap<(usize, usize), u64> = HashMap::new();
    let mut cycle = 0u64;
    for step in 0..48 {
        let op = rng.gen_range(0..10);
        if op < 2 {
            cycle += 1;
            continue;
        }
        let a = mapped[rng.gen_range(0..mapped.len())];
        let b = mapped[rng.gen_range(0..mapped.len())];
        if a == b {
            continue;
        }
        let cell_ok = |c: usize| {
            !walls.contains(&c)
                && (mode == Disjointness::Edge || node_free_at.get(&c).is_none_or(|&t| t <= cycle))
        };
        let edge_ok = |x: usize, y: usize| {
            mode == Disjointness::Node
                || edge_free_at.get(&(x.min(y), x.max(y))).is_none_or(|&t| t <= cycle)
        };
        let want = heap_astar(&grid, grid.tile_cell(a), grid.tile_cell(b), cell_ok, edge_ok);
        let got = router.find_tile_path(a, b, cycle);
        assert_eq!(
            got.as_ref().map(|p| p.cells().to_vec()),
            want,
            "{mode:?} step {step} cycle {cycle}: {a}->{b} \
             (rows={rows} cols={cols} bw={bw} dead={dead} seed={seed})"
        );
        if let Some(path) = got.filter(|_| op >= 6) {
            let until = cycle + rng.gen_range(1u64..3);
            router.commit(&path, cycle, until - cycle);
            for &c in path.interior() {
                let t = node_free_at.entry(c).or_default();
                *t = (*t).max(until);
            }
            for w in path.cells().windows(2) {
                let t = edge_free_at.entry((w[0].min(w[1]), w[0].max(w[1]))).or_default();
                *t = (*t).max(until);
            }
        }
    }
    let stats = router.stats();
    assert_eq!(stats.recolor_cells > 0, stats.failed_searches > stats.cache_hits);
    stats
}

/// Reserves `cells` at cycle 0 until `until` by committing one-cell hook
/// paths (in node mode a path reserves only its interior), mirroring
/// each reservation into `node_free_at`.
fn reserve_cells(
    router: &mut Router,
    node_free_at: &mut HashMap<usize, u64>,
    cells: impl IntoIterator<Item = usize>,
    until: u64,
) {
    let grid = router.grid().clone();
    for cell in cells {
        let hook = grid.neighbors(cell).next().expect("every cell has a neighbor");
        router.commit(&Path::from_cells(&grid, vec![hook, cell, hook]), 0, until);
        let t = node_free_at.entry(cell).or_default();
        *t = (*t).max(until);
    }
}

/// A target tucked into a small pocket that opens onto the cells the
/// search from the far corner sweeps first. On a 4×5 chip with every tile
/// mapped, tile 0 (grid cell (1,1)) is reachable only through row 0's
/// corner and a corridor down grid column 0 to (4,1); the direct steps
/// (1,2) and (2,1) are walled off. Every monotone route from tile 19 at
/// (7,9) dead-ends at that wall, so the A* passes its pause with the
/// route still open. The target-side flood then walks the corridor into
/// cells the A* has already pushed and must give up: the search resumes
/// and returns the reference replica's path, cell for cell.
#[test]
fn a_pocket_open_to_the_searched_side_matches_the_heap_replica() {
    let chip = Chip::uniform(CodeModel::DoubleDefect, 4, 5, 1, 3).unwrap();
    let grid = chip.grid();
    let mut router = Router::new(grid.clone(), Disjointness::Node);
    for slot in 0..20 {
        router.block_tile(slot);
    }
    let mut node_free_at = HashMap::new();
    let wall = [(1, 2), (2, 1), (0, 2), (5, 0)].map(|(r, c)| grid.index(r, c));
    reserve_cells(&mut router, &mut node_free_at, wall, 1);
    let (from, to) = (grid.tile_cell(19), grid.tile_cell(0));
    let want = heap_astar(
        &grid,
        from,
        to,
        |c| grid.is_free(c) && node_free_at.get(&c).is_none_or(|&t| t == 0),
        |_, _| true,
    );
    let want = want.expect("the corridor connects the target");
    let got = router.find_cell_path(from, to, 0).expect("the router finds it too");
    assert_eq!(got.cells(), want.as_slice());
    let stats = router.stats();
    assert!(stats.cells_expanded > 32, "the search ran past the pause: {stats:?}");
    assert_eq!((stats.failed_searches, stats.recolor_cells), (0, 0), "and labeled nothing");
}

/// [`check_interleaved_sequence`] around a walled-in target. A random
/// connected set of up to `pocket` routable cells is grown from a mapped
/// target tile and sealed until the sequence ends: node mode reserves
/// every routable cell on its rim, edge mode every edge leaving it. Half
/// the requests then aim at the target, interleaved with commits and
/// cycle advances, and every verdict is checked against the heap replica
/// on a mirror of the reservations. Returns the router's counters and the
/// number of failures proven from the target's side: cache misses whose
/// expansions exceed their label writes by exactly the router's 32-step
/// pause (the A* before it, the pocket's scan after).
fn check_enclosed_pocket_sequence(
    rows: usize,
    cols: usize,
    bw: u32,
    node_mode: bool,
    pocket: usize,
    seed: u64,
) -> (RouterStats, u64) {
    let (model, mode) = if node_mode {
        (CodeModel::DoubleDefect, Disjointness::Node)
    } else {
        (CodeModel::LatticeSurgery, Disjointness::Edge)
    };
    let chip = Chip::uniform(model, rows, cols, bw, 3).unwrap();
    let grid = chip.grid();
    let mut router = Router::new(grid.clone(), mode);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x90C_4E75);
    let mut mapped: Vec<usize> = (0..rows * cols).filter(|_| rng.gen_bool(0.8)).collect();
    if mapped.len() < 2 {
        mapped = vec![0, rows * cols - 1];
    }
    let mut walls = HashSet::new();
    for &slot in &mapped {
        router.block_tile(slot);
        walls.insert(grid.tile_cell(slot));
    }
    let target = mapped[rng.gen_range(0..mapped.len())];
    let to = grid.tile_cell(target);
    // Grow the pocket one random routable rim cell at a time.
    let mut inside = vec![to];
    let rim = |inside: &[usize]| -> Vec<(usize, usize)> {
        let mut rim: Vec<(usize, usize)> = inside
            .iter()
            .flat_map(|&x| grid.neighbors(x).map(move |y| (x, y)))
            .filter(|&(_, y)| !inside.contains(&y))
            .collect();
        rim.sort_unstable();
        rim
    };
    while inside.len() <= pocket {
        let open: Vec<usize> =
            rim(&inside).into_iter().map(|(_, y)| y).filter(|y| !walls.contains(y)).collect();
        if open.is_empty() {
            break;
        }
        inside.push(open[rng.gen_range(0..open.len())]);
    }
    let seal = 1_000;
    let mut node_free_at: HashMap<usize, u64> = HashMap::new();
    let mut edge_free_at: HashMap<(usize, usize), u64> = HashMap::new();
    for (x, y) in rim(&inside) {
        if node_mode {
            if !walls.contains(&y) && !node_free_at.contains_key(&y) {
                reserve_cells(&mut router, &mut node_free_at, [y], seal);
            }
        } else {
            router.commit(&Path::from_cells(&grid, vec![x, y]), 0, seal);
            edge_free_at.insert((x.min(y), x.max(y)), seal);
        }
    }
    let (mut cycle, mut proofs) = (0u64, 0u64);
    for step in 0..48 {
        let op = rng.gen_range(0..10);
        if op < 2 {
            cycle += 1;
            continue;
        }
        let a = mapped[rng.gen_range(0..mapped.len())];
        let b = if rng.gen_bool(0.5) { target } else { mapped[rng.gen_range(0..mapped.len())] };
        if a == b {
            continue;
        }
        let cell_ok = |c: usize| {
            !walls.contains(&c)
                && (mode == Disjointness::Edge || node_free_at.get(&c).is_none_or(|&t| t <= cycle))
        };
        let edge_ok = |x: usize, y: usize| {
            mode == Disjointness::Node
                || edge_free_at.get(&(x.min(y), x.max(y))).is_none_or(|&t| t <= cycle)
        };
        let want = heap_astar(&grid, grid.tile_cell(a), grid.tile_cell(b), cell_ok, edge_ok);
        let before = router.stats();
        let got = router.find_tile_path(a, b, cycle);
        assert_eq!(
            got.as_ref().map(|p| p.cells().to_vec()),
            want,
            "{mode:?} step {step} cycle {cycle}: {a}->{b} (rows={rows} cols={cols} bw={bw} \
             pocket={pocket} seed={seed})"
        );
        let after = router.stats();
        let missed =
            after.failed_searches - before.failed_searches > after.cache_hits - before.cache_hits;
        let expanded = after.cells_expanded - before.cells_expanded;
        let labeled = after.recolor_cells - before.recolor_cells;
        if missed && expanded == labeled + 32 {
            proofs += 1;
        }
        if let Some(path) = got.filter(|_| op >= 6) {
            let until = cycle + rng.gen_range(1u64..3);
            router.commit(&path, cycle, until - cycle);
            for &c in path.interior() {
                let t = node_free_at.entry(c).or_default();
                *t = (*t).max(until);
            }
            for w in path.cells().windows(2) {
                let t = edge_free_at.entry((w[0].min(w[1]), w[0].max(w[1]))).or_default();
                *t = (*t).max(until);
            }
        }
    }
    let stats = router.stats();
    assert_eq!(stats.recolor_cells > 0, stats.failed_searches > stats.cache_hits);
    (stats, proofs)
}

/// The enclosed-pocket property must provoke what it exists for: over a
/// fixed sweep of pocket sizes around the 16-cell flood budget, failures
/// proven from the target's side, and failures the A* has to flood.
#[test]
fn enclosed_pockets_exercise_the_target_side_proof() {
    let (mut proofs, mut total) = (0, RouterStats::default());
    for seed in 0..40u64 {
        let pocket = [0, 3, 9, 16, 17, 24][seed as usize % 6];
        let (stats, proven) = check_enclosed_pocket_sequence(5, 5, 1, seed % 2 == 0, pocket, seed);
        proofs += proven;
        total = total.merged(stats);
    }
    assert!(proofs > 0, "target pockets prove failures: {total:?}");
    assert!(
        total.failed_searches > total.cache_hits + proofs,
        "and some failures still flood: {proofs} proofs, {total:?}"
    );
}

/// The interleaved-sequence property is only as strong as the cache work
/// it provokes: over a fixed seed sweep it must see both failures answered
/// by labels and failures that flood.
#[test]
fn interleaved_sequences_exercise_the_reachability_cache() {
    let mut total = RouterStats::default();
    for seed in 0..40u64 {
        let node_mode = seed % 2 == 0;
        let stats = check_interleaved_sequence(3, 3, 1, node_mode, (seed % 3) as usize, seed);
        total = total.merged(stats);
    }
    assert!(total.cache_hits > 0, "labels answer failures: {total:?}");
    assert!(total.failed_searches > total.cache_hits, "misses flood and label: {total:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reachability cache never changes a verdict: on seeded
    /// sequences interleaving probes, commits and cycle advances, on
    /// random chips with dead tiles, in both disjointness modes, every
    /// answer equals the cache-free reference. Unlike the single-state
    /// properties below, commits land between probes, so regions split
    /// after they were labeled and later failures relabel the pieces.
    #[test]
    fn cached_verdicts_match_the_reference_across_commits_and_cycles(
        rows in 1usize..5,
        cols in 1usize..5,
        bw in 1u32..3,
        node_mode in 0u8..2,
        dead in 0usize..3,
        seed in 0u64..10_000,
    ) {
        check_interleaved_sequence(rows, cols, bw, node_mode == 1, dead, seed);
    }

    /// The bucket-queue open set is the old binary heap, bit for bit: on
    /// every randomized congestion state the router returns exactly the
    /// reference replica's cell sequence for routable pairs and exactly
    /// its `None` for unroutable ones (where the reachability cache may
    /// answer without searching — the verdict must still agree).
    #[test]
    fn bucket_queue_astar_is_bit_identical_to_heap_astar(
        rows in 1usize..4,
        cols in 1usize..4,
        bw in 1u32..3,
        node_mode in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let mut setup = congested_setup(rows, cols, bw, node_mode == 1, seed);
        let pairs: Vec<(usize, usize)> = setup
            .mapped
            .iter()
            .flat_map(|&a| setup.mapped.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a != b)
            .collect();
        for (a, b) in pairs {
            let want = heap_astar_path(&setup, a, b);
            let got = setup.router.find_tile_path(a, b, 0);
            prop_assert_eq!(
                got.map(|p| p.cells().to_vec()),
                want,
                "{:?} {}->{} (rows={} cols={} bw={} seed={})",
                setup.mode, a, b, rows, cols, bw, seed
            );
        }
    }

    /// On every randomized congestion state, in both disjointness modes,
    /// the A* router finds a path exactly when BFS does, of exactly the
    /// same length (the Manhattan bound is admissible, so A* stays
    /// shortest), and the found path checks out against the reservations.
    #[test]
    fn astar_matches_reference_bfs(
        rows in 1usize..4,
        cols in 1usize..4,
        bw in 1u32..3,
        node_mode in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let mut setup = congested_setup(rows, cols, bw, node_mode == 1, seed);
        let pairs: Vec<(usize, usize)> = setup
            .mapped
            .iter()
            .flat_map(|&a| setup.mapped.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a < b)
            .collect();
        for (a, b) in pairs {
            let want = bfs_len(&setup, a, b);
            let got = setup.router.find_tile_path(a, b, 0);
            prop_assert_eq!(
                got.as_ref().map(Path::len),
                want,
                "{:?} {}->{} (rows={} cols={} bw={} seed={})",
                setup.mode, a, b, rows, cols, bw, seed
            );
            if let Some(path) = got {
                // Endpoints are the tile cells; every interior cell/edge
                // respects the mirrored reservations.
                let grid = setup.router.grid();
                prop_assert_eq!(path.cells()[0], grid.tile_cell(a));
                prop_assert_eq!(*path.cells().last().unwrap(), grid.tile_cell(b));
                for &c in path.interior() {
                    prop_assert!(!setup.tile_cells.contains(&c));
                    if setup.mode == Disjointness::Node {
                        prop_assert!(!setup.busy_cells.contains(&c));
                    }
                }
                if setup.mode == Disjointness::Edge {
                    for w in path.cells().windows(2) {
                        prop_assert!(!setup.busy_edges.contains(&(w[0].min(w[1]), w[0].max(w[1]))));
                    }
                }
            }
        }
    }

    /// `route_ready_into` is event-for-event the sequential per-gate loop:
    /// same outcomes at the same positions, same router statistics, and
    /// the same reservation state afterwards (probed via a follow-up
    /// search).
    #[test]
    fn batched_routing_equals_sequential(
        rows in 1usize..4,
        cols in 1usize..4,
        bw in 1u32..3,
        node_mode in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let setup = congested_setup(rows, cols, bw, node_mode == 1, seed);
        let mut batched = setup.router.clone();
        let mut sequential = setup.router.clone();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA7C4);
        let m = setup.mapped.len();
        let requests: Vec<RouteRequest> = (0..12)
            .filter_map(|_| {
                let a = setup.mapped[rng.gen_range(0..m)];
                let b = setup.mapped[rng.gen_range(0..m)];
                if a == b {
                    return None;
                }
                Some(if rng.gen_bool(0.25) {
                    RouteRequest::probe(a, b)
                } else {
                    RouteRequest::route(a, b, rng.gen_range(1u64..3))
                })
            })
            .collect();
        let mut got = Vec::new();
        batched.route_ready_into(&requests, 0, &mut got);
        let want: Vec<Option<Path>> = requests
            .iter()
            .map(|req| {
                let path = sequential.find_tile_path(req.from_slot, req.to_slot, 0)?;
                if req.commit {
                    sequential.commit(&path, 0, req.hold);
                }
                Some(path)
            })
            .collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(batched.stats(), sequential.stats());
        // Identical reservation state afterwards: any follow-up search
        // agrees between the two routers.
        for (a, b) in [(setup.mapped[0], setup.mapped[m - 1])] {
            if a != b {
                prop_assert_eq!(batched.find_tile_path(a, b, 0), sequential.find_tile_path(a, b, 0));
                prop_assert_eq!(batched.find_tile_path(a, b, 2), sequential.find_tile_path(a, b, 2));
            }
        }
    }

    /// `route_ready_by_distance_into` equals stable-sorting the batch by the
    /// router's own distance estimate, routing sequentially in that
    /// order, and scattering the outcomes back to the original positions.
    #[test]
    fn distance_ordered_batch_equals_presorted_sequential(
        rows in 1usize..4,
        cols in 1usize..4,
        bw in 1u32..3,
        node_mode in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let setup = congested_setup(rows, cols, bw, node_mode == 1, seed);
        let mut batched = setup.router.clone();
        let mut sequential = setup.router.clone();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD157);
        let m = setup.mapped.len();
        let requests: Vec<RouteRequest> = (0..10)
            .filter_map(|_| {
                let a = setup.mapped[rng.gen_range(0..m)];
                let b = setup.mapped[rng.gen_range(0..m)];
                (a != b).then(|| RouteRequest::route(a, b, 1))
            })
            .collect();
        let mut got = Vec::new();
        batched.route_ready_by_distance_into(&requests, 0, &mut got);
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| {
            sequential.estimated_distance(requests[i].from_slot, requests[i].to_slot)
        });
        let mut want: Vec<Option<Path>> = vec![None; requests.len()];
        for i in order {
            let req = requests[i];
            want[i] = sequential.find_tile_path(req.from_slot, req.to_slot, 0).inspect(|path| {
                sequential.commit(path, 0, req.hold);
            });
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(batched.stats(), sequential.stats());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Proving failures from a walled-in target's side never changes a
    /// verdict: with target pockets of every size around the flood
    /// budget, on random chips in both disjointness modes, every answer
    /// equals the heap replica's, across commits and cycle advances.
    #[test]
    fn enclosed_target_pockets_match_the_heap_replica(
        rows in 2usize..6,
        cols in 2usize..6,
        bw in 1u32..3,
        node_mode in 0u8..2,
        pocket in 0usize..24,
        seed in 0u64..10_000,
    ) {
        check_enclosed_pocket_sequence(rows, cols, bw, node_mode == 1, pocket, seed);
    }
}
