//! The benchmark's workloads: seeded `StressWorkload` job mixes, the chip
//! family every job targets, and how many jobs the client keeps in flight.

use std::collections::HashMap;

use ecmas::serve::daemon::ChipKind;
use ecmas::{CompileService, ServiceConfig};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::random::{StressJob, StressSpec, StressWorkload};
use ecmas_circuit::Circuit;

/// Worker threads of the service under test (`ecmasd`'s default on a
/// two-core host).
pub const WORKERS: usize = 2;
/// Byte budget of the service's compile cache (`ecmasd`'s default).
pub const CACHE_BYTES: u64 = 64 << 20;

/// Seed of every workload's traffic profile: the job shapes (width, depth,
/// parallelism), their arrival order and the repeat pattern. It is the
/// seed of the `ecmasd --emit-stress` stream behind the ROADMAP baseline.
/// The run seed draws the circuits themselves.
pub const PROFILE_SEED: u64 = 7;

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub chip: ChipKind,
    /// Jobs the closed-loop client keeps outstanding.
    pub in_flight: usize,
    /// Whether every request asks for the static analyzer.
    pub analyze: bool,
    /// Mixes per run: each runs the profile with its own circuits through
    /// a fresh service.
    pub mixes: usize,
    /// The profile's `StressSpec` fields; the rest are `StressSpec::new`'s.
    jobs: usize,
    max_qubits: usize,
    max_depth: usize,
    dup_percent: u8,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "congested_unique",
        chip: ChipKind::Congested,
        in_flight: 2,
        analyze: false,
        mixes: 2,
        jobs: 1000,
        max_qubits: 32,
        max_depth: 600,
        dup_percent: 0,
    },
    Workload {
        name: "fourx_adjust",
        chip: ChipKind::FourX,
        in_flight: 2,
        analyze: true,
        mixes: 1,
        jobs: 1000,
        max_qubits: 32,
        max_depth: 600,
        dup_percent: 0,
    },
    Workload {
        name: "hot_repeat",
        chip: ChipKind::Congested,
        in_flight: 8,
        analyze: false,
        mixes: 1,
        jobs: 2000,
        max_qubits: 49,
        max_depth: 800,
        dup_percent: 85,
    },
];

impl Workload {
    #[must_use]
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The traffic profile; `jobs` overrides its job count (the self-tests
    /// run tiny mixes).
    #[must_use]
    pub fn spec(&self, jobs: Option<usize>) -> StressSpec {
        StressSpec {
            max_depth: self.max_depth,
            dup_percent: self.dup_percent,
            ..StressSpec::new(jobs.unwrap_or(self.jobs), self.max_qubits, PROFILE_SEED)
        }
    }
}

/// The materialized inputs of one stress mix: each distinct circuit once,
/// with its target chip, and the arrival order as indices into them.
pub struct Inputs {
    pub circuits: Vec<Circuit>,
    pub chips: Vec<Chip>,
    /// Job `j` submits `circuits[jobs[j]]` on `chips[jobs[j]]`; repeats of
    /// a hot circuit share an index.
    pub jobs: Vec<usize>,
}

/// Builds every distinct circuit and chip of mix `mix` in the run seeded
/// `seed`. The jobs follow the workload's profile; each profile job's
/// layered-circuit seed is mixed with `seed` and `mix`, so every mix
/// compiles circuits of its own while repeats stay repeats. `jobs`
/// overrides the profile's job count.
///
/// # Panics
///
/// Panics if a chip cannot be built for a generated circuit, which the
/// stress generator's width bounds rule out.
#[must_use]
pub fn build_inputs(workload: &Workload, seed: u64, mix: usize, jobs: Option<usize>) -> Inputs {
    let profile = StressWorkload::new(&workload.spec(jobs));
    let salt = splitmix64(seed.wrapping_mul(workload.mixes as u64).wrapping_add(mix as u64));
    let mut seen = HashMap::new();
    let mut inputs = Inputs { circuits: Vec::new(), chips: Vec::new(), jobs: Vec::new() };
    for job in profile.jobs() {
        let next = inputs.circuits.len();
        let index = *seen.entry(*job).or_insert(next);
        if index == next {
            let circuit = StressJob { seed: splitmix64(job.seed ^ salt), ..*job }.circuit();
            let chip = workload
                .chip
                .build(CodeModel::DoubleDefect, &circuit)
                .expect("stress widths fit the chip family");
            inputs.circuits.push(circuit);
            inputs.chips.push(chip);
        }
        inputs.jobs.push(index);
    }
    inputs
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Starts the service under test: two workers, a 64 MiB cache, faults off.
#[must_use]
pub fn start_service() -> CompileService {
    CompileService::new(ServiceConfig {
        workers: WORKERS,
        cache_bytes: CACHE_BYTES,
        ..ServiceConfig::default()
    })
}
