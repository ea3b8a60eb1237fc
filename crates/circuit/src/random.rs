//! QUEKO-style layered random circuits with a specified parallelism degree.
//!
//! The paper's scalability studies (Figs. 11 and 12) use "50 random quantum
//! circuits … with 49 qubits, 50 depth, and parallelism ranging from 1 to
//! 21", generated in the spirit of QUEKO \[35\]: circuits built layer by
//! layer with a known depth. [`layered`] reproduces the construction: every
//! layer holds exactly `parallelism` pairwise-disjoint CNOTs, and an anchor
//! chain threads one gate of each layer through the previous layer so the
//! circuit depth is exactly `depth`.
//!
//! Beyond the paper's suite, [`StressWorkload`] generates deterministic
//! seeded *service* workloads — mixed widths, depths into the thousands,
//! bursty arrival order — for driving the `ecmas-serve` compile service
//! and the `ecmasd` daemon far past the QUEKO depth-50 regime.
//!
//! # Example
//!
//! ```
//! use ecmas_circuit::random::layered;
//!
//! let c = layered(49, 50, 7, 12345);
//! assert_eq!(c.qubits(), 49);
//! assert_eq!(c.depth(), 50);
//! assert_eq!(c.cnot_count(), 50 * 7);
//! ```

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use crate::circuit::Circuit;

/// Generates a layered random circuit with exactly `parallelism` disjoint
/// CNOTs per layer and depth exactly `depth` (an anchor qubit chains the
/// layers). Deterministic in `seed`.
///
/// This is the Circuit Parallelism Degree knob of the paper's Figs. 11–12:
/// by construction `PM ≤ parallelism`, and the anchor chain keeps the
/// critical path at `depth`, so the balanced layering that achieves depth
/// `α` has layers of exactly `parallelism` gates.
///
/// # Panics
///
/// Panics if `2 * parallelism > n` (layers would need repeated qubits) or
/// if `parallelism == 0`.
#[must_use]
pub fn layered(n: usize, depth: usize, parallelism: usize, seed: u64) -> Circuit {
    assert!(parallelism > 0, "parallelism must be positive");
    assert!(
        2 * parallelism <= n,
        "a layer of {parallelism} CNOTs needs {} qubits",
        2 * parallelism
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(n, format!("random_n{n}_d{depth}_p{parallelism}"));
    let mut anchor: Option<usize> = None;
    let mut pool: Vec<usize> = (0..n).collect();
    for _ in 0..depth {
        pool.shuffle(&mut rng);
        // Force the anchor qubit into the first pair so that this layer
        // depends on the previous one.
        if let Some(a) = anchor {
            let pos = pool.iter().position(|&q| q == a).expect("anchor in pool");
            pool.swap(0, pos);
        }
        let mut first = (0, 0);
        for k in 0..parallelism {
            let (x, y) = (pool[2 * k], pool[2 * k + 1]);
            let pair = if rng.gen_bool(0.5) { (x, y) } else { (y, x) };
            c.cnot(pair.0, pair.1);
            if k == 0 {
                first = pair;
            }
        }
        anchor = Some(if rng.gen_bool(0.5) { first.0 } else { first.1 });
    }
    c
}

/// Generates `count` circuits with consecutive seeds, as the paper's "test
/// group" of 50 circuits per parallelism value.
#[must_use]
pub fn test_group(
    n: usize,
    depth: usize,
    parallelism: usize,
    count: usize,
    seed: u64,
) -> Vec<Circuit> {
    (0..count).map(|i| layered(n, depth, parallelism, seed.wrapping_add(i as u64))).collect()
}

/// Shape of a seeded stress workload (see [`StressWorkload`]).
///
/// The QUEKO-style suite tops out at depth 50; a service front end needs
/// traffic well beyond that to exercise queueing at all. A stress spec
/// describes a *job mix*: widths from `min_qubits` up to the chip
/// capacity, depths log-uniform up to the thousands, and a bursty arrival
/// order (runs of similar jobs, then an abrupt change of family) that
/// models the lumpy request streams a shared compile service actually
/// sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StressSpec {
    /// Number of jobs in the workload.
    pub jobs: usize,
    /// Smallest circuit width generated (≥ 2).
    pub min_qubits: usize,
    /// Largest circuit width generated — size this to the target chip's
    /// tile capacity.
    pub max_qubits: usize,
    /// Smallest circuit depth generated.
    pub min_depth: usize,
    /// Largest circuit depth generated (depths are drawn log-uniformly,
    /// so most jobs are moderate and the tail is long).
    pub max_depth: usize,
    /// Mean burst length: consecutive jobs drawn from one parameter
    /// family before the generator jumps to a new one.
    pub mean_burst: usize,
    /// Percentage (0–100) of jobs that repeat an earlier job *exactly*
    /// (same width, depth, parallelism, and per-job seed, so the daemon
    /// regenerates the identical circuit). Repeats pick their original
    /// Zipf-style — P(rank r) ∝ 1/r over the distinct jobs seen so far —
    /// so a few hot circuits dominate, the way production compile
    /// traffic repeats a few hot kernels. `0` disables duplication and
    /// leaves the legacy job stream byte-identical.
    pub dup_percent: u8,
    /// Percentage (0–100) of each job's target-chip tiles that arrive
    /// defective: every job gets a deterministic per-job defect seed
    /// ([`StressWorkload::defect_seed`]) and the consumer (the `ecmasd`
    /// daemon) kills this fraction of tile slots with it. Per-job seeds
    /// are derived outside the job-generation RNG, so — matching the
    /// `dup_percent` convention — `0` leaves the legacy job stream
    /// byte-identical.
    pub defect_percent: u8,
    /// Workload seed; everything below is deterministic in it.
    pub seed: u64,
}

impl StressSpec {
    /// A heavy default mix for `jobs` jobs on a chip with `max_qubits`
    /// tile slots: widths 8..=`max_qubits` (clamped), depths 60..=1500,
    /// bursts of ~16.
    #[must_use]
    pub fn new(jobs: usize, max_qubits: usize, seed: u64) -> Self {
        StressSpec {
            jobs,
            min_qubits: 8.min(max_qubits),
            max_qubits,
            min_depth: 60,
            max_depth: 1500,
            mean_burst: 16,
            dup_percent: 0,
            defect_percent: 0,
            seed,
        }
    }
}

/// One job of a [`StressWorkload`]: the layered-circuit parameters plus
/// the per-job seed. [`circuit`](Self::circuit) materializes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StressJob {
    /// Circuit width.
    pub qubits: usize,
    /// Circuit depth α.
    pub depth: usize,
    /// Disjoint CNOTs per layer.
    pub parallelism: usize,
    /// Seed for [`layered`].
    pub seed: u64,
}

impl StressJob {
    /// Builds the circuit for this job.
    #[must_use]
    pub fn circuit(&self) -> Circuit {
        layered(self.qubits, self.depth, self.parallelism, self.seed)
    }
}

/// A deterministic seeded stress workload: the job *parameters* are
/// precomputed cheaply up front (so arrival order, widths, and depths can
/// be inspected or streamed without building any circuit), and each
/// circuit is materialized on demand.
///
/// # Example
///
/// ```
/// use ecmas_circuit::random::{StressSpec, StressWorkload};
///
/// let w = StressWorkload::new(&StressSpec::new(100, 49, 7));
/// assert_eq!(w.len(), 100);
/// let c = w.circuit(42);
/// assert!(c.qubits() <= 49 && c.depth() >= 60);
/// // Deterministic in the spec.
/// assert_eq!(w.jobs(), StressWorkload::new(&StressSpec::new(100, 49, 7)).jobs());
/// ```
#[derive(Clone, Debug)]
pub struct StressWorkload {
    jobs: Vec<StressJob>,
    defect_percent: u8,
    seed: u64,
}

impl StressWorkload {
    /// Generates the workload's job parameters.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate: `min_qubits < 4` (a layer needs
    /// two disjoint qubit pairs to be worth stressing), inverted
    /// qubit/depth ranges, `mean_burst == 0`, or `dup_percent > 100`.
    #[must_use]
    pub fn new(spec: &StressSpec) -> Self {
        assert!(spec.min_qubits >= 4, "stress circuits need at least 4 qubits");
        assert!(spec.min_qubits <= spec.max_qubits, "inverted qubit range");
        assert!(0 < spec.min_depth && spec.min_depth <= spec.max_depth, "bad depth range");
        assert!(spec.mean_burst > 0, "mean_burst must be positive");
        assert!(spec.dup_percent <= 100, "dup_percent is a percentage");
        assert!(spec.defect_percent <= 100, "defect_percent is a percentage");
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x5742_E550);
        let mut jobs = Vec::with_capacity(spec.jobs);
        while jobs.len() < spec.jobs {
            // A burst: one parameter family, jittered depths.
            let qubits = rng.gen_range(spec.min_qubits..spec.max_qubits + 1);
            // Depth log-uniform in [min, max]: moderate jobs dominate, the
            // tail reaches into the thousands.
            let ratio = spec.max_depth as f64 / spec.min_depth as f64;
            let base_depth = (spec.min_depth as f64 * ratio.powf(rng.gen_range(0.0..1.0))) as usize;
            let parallelism = rng.gen_range(1..(qubits / 2) + 1);
            let burst = rng.gen_range(1..2 * spec.mean_burst);
            for _ in 0..burst {
                if jobs.len() == spec.jobs {
                    break;
                }
                // ±12% depth jitter within the burst, clamped to the spec.
                let jitter = rng.gen_range(0.88..1.12);
                let depth =
                    ((base_depth as f64 * jitter) as usize).clamp(spec.min_depth, spec.max_depth);
                jobs.push(StressJob { qubits, depth, parallelism, seed: rng.next_u64() });
            }
        }
        apply_duplication(&mut jobs, spec.dup_percent, &mut rng);
        StressWorkload { jobs, defect_percent: spec.defect_percent, seed: spec.seed }
    }

    /// The spec's chip defect rate (0–100), for the consumer to apply to
    /// each job's target chip.
    #[must_use]
    pub fn defect_percent(&self) -> u8 {
        self.defect_percent
    }

    /// Deterministic per-job defect seed: splitmix64 of the workload
    /// seed and the job index. Derived outside the job-generation RNG,
    /// so enabling or disabling defects never perturbs the job stream —
    /// and repeats of a hot job (duplication) still get *their own*
    /// defect seed, the way the same circuit resubmitted to a fleet
    /// lands on whatever hardware is in front of it.
    ///
    /// Bounded to 53 bits so the value survives JSON layers that carry
    /// numbers as `f64` (the `ecmasd` protocol) without rounding.
    #[must_use]
    pub fn defect_seed(&self, index: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & ((1 << 53) - 1)
    }

    /// The precomputed job parameters, in arrival order.
    #[must_use]
    pub fn jobs(&self) -> &[StressJob] {
        &self.jobs
    }

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the workload has no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Materializes job `index`, named `stress<index>_n<q>_d<depth>_p<pm>`
    /// so service logs stay traceable to the workload position.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn circuit(&self, index: usize) -> Circuit {
        let job = &self.jobs[index];
        let mut c = job.circuit();
        c.set_name(format!("stress{index}_n{}_d{}_p{}", job.qubits, job.depth, job.parallelism));
        c
    }
}

/// Rewrites `dup_percent`% of the job stream (in place, skipping job 0)
/// into exact repeats of earlier jobs, picking each repeat's original
/// with Zipf weights — P(rank r) ∝ 1/r over the *distinct* jobs seen so
/// far, in first-appearance order. Distinct jobs keep their position, so
/// the duplicated stream interleaves hot repeats with fresh work the way
/// a shared service's request log does. A no-op at 0%, leaving the
/// pre-duplication stream (and its RNG usage) byte-identical.
fn apply_duplication(jobs: &mut [StressJob], dup_percent: u8, rng: &mut SmallRng) {
    if dup_percent == 0 {
        return;
    }
    let mut distinct: Vec<StressJob> = Vec::new();
    for job in jobs.iter_mut() {
        if !distinct.is_empty() && rng.gen_range(0..100u32) < u32::from(dup_percent) {
            // Zipf rank over the distinct jobs so far: draw u uniform in
            // [0, H_n) and walk the harmonic prefix sums.
            let h: f64 = (1..=distinct.len()).map(|r| 1.0 / r as f64).sum();
            let mut u = rng.gen_range(0.0..h);
            let mut rank = 0usize;
            while rank + 1 < distinct.len() {
                u -= 1.0 / (rank + 1) as f64;
                if u < 0.0 {
                    break;
                }
                rank += 1;
            }
            *job = distinct[rank];
        } else {
            distinct.push(*job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_is_exact() {
        for pm in [1, 3, 9, 21] {
            let c = layered(49, 50, pm, 7);
            assert_eq!(c.depth(), 50, "pm={pm}");
            assert_eq!(c.cnot_count(), 50 * pm);
        }
    }

    #[test]
    fn layers_are_disjoint() {
        let c = layered(20, 30, 8, 99);
        for layer in c.cnot_gates().chunks(8) {
            let mut seen = std::collections::HashSet::new();
            for g in layer {
                assert!(seen.insert(g.control), "control reused in layer");
                assert!(seen.insert(g.target), "target reused in layer");
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(layered(16, 10, 4, 42), layered(16, 10, 4, 42));
        assert_ne!(layered(16, 10, 4, 42), layered(16, 10, 4, 43));
    }

    #[test]
    fn test_group_uses_distinct_seeds() {
        let group = test_group(12, 6, 3, 4, 0);
        assert_eq!(group.len(), 4);
        assert_ne!(group[0], group[1]);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn rejects_oversized_parallelism() {
        let _ = layered(10, 5, 6, 0);
    }

    #[test]
    fn stress_workload_is_deterministic_and_in_bounds() {
        let spec = StressSpec::new(200, 49, 0xBEEF);
        let a = StressWorkload::new(&spec);
        let b = StressWorkload::new(&spec);
        assert_eq!(a.jobs(), b.jobs());
        assert_eq!(a.len(), 200);
        assert!(!a.is_empty());
        for job in a.jobs() {
            assert!((spec.min_qubits..=spec.max_qubits).contains(&job.qubits));
            assert!((spec.min_depth..=spec.max_depth).contains(&job.depth));
            assert!(job.parallelism >= 1 && 2 * job.parallelism <= job.qubits);
        }
        // A different seed moves the mix.
        let c = StressWorkload::new(&StressSpec::new(200, 49, 0xF00D));
        assert_ne!(a.jobs(), c.jobs());
    }

    #[test]
    fn stress_workload_is_bursty_and_mixed() {
        let spec = StressSpec::new(300, 40, 11);
        let w = StressWorkload::new(&spec);
        // Bursts: many adjacent jobs share a parameter family...
        let same_family = w
            .jobs()
            .windows(2)
            .filter(|p| p[0].qubits == p[1].qubits && p[0].parallelism == p[1].parallelism)
            .count();
        assert!(same_family > 100, "only {same_family} adjacent same-family pairs");
        // ...but the workload still mixes widths and depths overall.
        let widths: std::collections::HashSet<_> = w.jobs().iter().map(|j| j.qubits).collect();
        assert!(widths.len() > 5, "only {} distinct widths", widths.len());
        let deep = w.jobs().iter().filter(|j| j.depth > 500).count();
        let shallow = w.jobs().iter().filter(|j| j.depth < 200).count();
        assert!(deep > 0 && shallow > 0, "log-uniform depths must span the range");
    }

    #[test]
    fn stress_circuit_matches_its_params_and_name() {
        let w = StressWorkload::new(&StressSpec::new(8, 20, 3));
        let job = w.jobs()[5];
        let c = w.circuit(5);
        assert_eq!(c.qubits(), job.qubits);
        assert_eq!(c.depth(), job.depth);
        assert_eq!(c.cnot_count(), job.depth * job.parallelism);
        assert!(c.name().starts_with("stress5_n"), "{}", c.name());
        assert_eq!(job.circuit().cnot_gates(), c.cnot_gates());
    }

    #[test]
    #[should_panic(expected = "at least 4 qubits")]
    fn stress_rejects_degenerate_width() {
        let _ = StressWorkload::new(&StressSpec { min_qubits: 2, ..StressSpec::new(4, 10, 0) });
    }

    #[test]
    fn duplication_repeats_earlier_jobs_exactly_and_zipf_skewed() {
        let spec = StressSpec { dup_percent: 50, ..StressSpec::new(400, 30, 21) };
        let w = StressWorkload::new(&spec);
        assert_eq!(w.jobs(), StressWorkload::new(&spec).jobs(), "deterministic");
        assert_eq!(w.len(), 400);
        // Every repeat is byte-identical to an earlier job (seed included).
        let mut counts: std::collections::HashMap<StressJob, usize> =
            std::collections::HashMap::new();
        let mut repeats = 0usize;
        for job in w.jobs() {
            let n = counts.entry(*job).or_insert(0);
            if *n > 0 {
                repeats += 1;
            }
            *n += 1;
        }
        // ~50% of jobs after the first are repeats; allow wide slack.
        assert!((100..300).contains(&repeats), "{repeats} repeats out of 400");
        // Zipf skew: the hottest job repeats far more than the mean repeat.
        let hottest = counts.values().copied().max().unwrap();
        assert!(hottest >= 8, "hottest job seen {hottest} times");
        // Hash derives for StressJob only matter in this test, but the
        // jobs must still respect the spec's ranges.
        for job in w.jobs() {
            assert!((spec.min_qubits..=spec.max_qubits).contains(&job.qubits));
        }
    }

    #[test]
    fn defect_knob_never_perturbs_the_job_stream() {
        let base = StressSpec::new(64, 24, 5);
        let with = StressSpec { defect_percent: 10, ..base };
        let a = StressWorkload::new(&base);
        let b = StressWorkload::new(&with);
        assert_eq!(a.jobs(), b.jobs(), "defect seeds live outside the job RNG");
        assert_eq!(a.defect_percent(), 0);
        assert_eq!(b.defect_percent(), 10);
        // Per-job defect seeds: deterministic, index-distinct, and
        // identical whether or not defects are enabled.
        assert_eq!(a.defect_seed(3), b.defect_seed(3));
        assert_ne!(b.defect_seed(3), b.defect_seed(4));
        let distinct: std::collections::HashSet<_> =
            (0..b.len()).map(|i| b.defect_seed(i)).collect();
        assert_eq!(distinct.len(), b.len());
        // A different workload seed moves the defect seeds too.
        let other = StressWorkload::new(&StressSpec { seed: 6, ..with });
        assert_ne!(b.defect_seed(0), other.defect_seed(0));
    }

    #[test]
    #[should_panic(expected = "defect_percent is a percentage")]
    fn stress_rejects_defect_rate_over_100() {
        let _ =
            StressWorkload::new(&StressSpec { defect_percent: 101, ..StressSpec::new(4, 10, 0) });
    }

    /// FNV-1a over everything a circuit carries: width, name, op stream
    /// and CNOT list.
    fn fingerprint(c: &Circuit) -> u64 {
        let text = format!("{} {} {:?} {:?}", c.qubits(), c.name(), c.ops(), c.cnot_gates());
        text.bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    #[test]
    fn generated_circuits_are_pinned() {
        // Pinned from the generator before it pushed pairs straight into
        // the circuit: any change to the RNG draw order moves these.
        let layered_pins = [
            ((4, 1, 1, 0), 0x5c92_758b_7989_a484),
            ((16, 10, 4, 42), 0x1290_5dce_5c1c_2b86),
            ((49, 50, 7, 12345), 0x3a7e_67f7_7579_50b3),
            ((49, 50, 24, 7), 0x8847_f5cb_cdf6_d772),
            ((33, 600, 16, 0xDEAD_BEEF), 0x71db_2460_0318_0240),
        ];
        for ((n, depth, pm, seed), want) in layered_pins {
            let got = fingerprint(&layered(n, depth, pm, seed));
            assert_eq!(got, want, "layered({n}, {depth}, {pm}, {seed:#x}) = {got:#x}");
        }
        let w = StressWorkload::new(&StressSpec::new(1000, 32, 7));
        let stress_pins = [
            (0, 0x1c92_5d35_c9fa_35c7),
            (1, 0xf838_9a1e_4be8_168a),
            (17, 0x504a_871f_fe24_a619),
            (500, 0xf799_107f_d951_f2c0),
            (999, 0x7d0d_d3b5_7689_8ce9),
        ];
        for (index, want) in stress_pins {
            let got = fingerprint(&w.circuit(index));
            assert_eq!(got, want, "stress circuit {index} = {got:#x}");
        }
    }

    #[test]
    fn zero_duplication_leaves_the_legacy_stream_untouched() {
        let base = StressSpec::new(64, 24, 5);
        assert_eq!(base.dup_percent, 0);
        let a = StressWorkload::new(&base);
        let b = StressWorkload::new(&StressSpec { dup_percent: 0, ..base });
        assert_eq!(a.jobs(), b.jobs());
        // All per-job seeds distinct: nothing was rewritten into a repeat.
        let seeds: std::collections::HashSet<_> = a.jobs().iter().map(|j| j.seed).collect();
        assert_eq!(seeds.len(), a.len());
    }
}
