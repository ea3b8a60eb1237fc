//! Correctness gates beyond the per-outcome check: cycle counts must
//! repeat wherever the same input was compiled again, and every workload
//! must still exercise the layer it was chosen for.

use std::collections::HashMap;
use std::fmt::Write as _;

use ecmas::session::BandwidthDecision;
use ecmas::{CacheSource, StableHasher};

use crate::run::Pass;
use crate::workload::Workload;

/// Whether a job ran the compile stages rather than being served a result.
#[must_use]
pub fn compiled(source: CacheSource) -> bool {
    matches!(source, CacheSource::Miss | CacheSource::ProfileReuse | CacheSource::MapReuse)
}

/// The compiler is deterministic and a cached result equals an uncached
/// one, so every job of one input must report the same cycles: repeats
/// within a pass (hits, coalesced waits, recompiles after eviction) and
/// passes over the same mix alike.
#[must_use]
pub fn cycle_mismatches(passes: &[Pass]) -> Vec<String> {
    let mut seen: HashMap<(usize, usize), u64> = HashMap::new();
    let mut problems = Vec::new();
    for pass in passes {
        for (job, record) in pass.jobs.iter().enumerate().filter(|(_, r)| r.ok) {
            let first = *seen.entry((pass.mix, pass.inputs[job])).or_insert(record.cycles);
            if first != record.cycles {
                problems.push(format!(
                    "mix {} job {job}: {} cycles, an earlier compile of the same input gave {first}",
                    pass.mix, record.cycles
                ));
            }
        }
    }
    problems
}

/// Compares each mix's `cycles_total` with what earlier runs of this same
/// executable recorded for the same workload, seed, mix and job count,
/// and records new ones. Records are keyed by a hash of the executable, so
/// a rebuilt program starts afresh.
#[must_use]
pub fn check_recorded_cycles(
    record: &str,
    workload: &Workload,
    seed: u64,
    totals: &[(usize, usize, u64)],
) -> Vec<String> {
    let Some(build) = build_id() else {
        return Vec::new();
    };
    let previous = std::fs::read_to_string(record).unwrap_or_default();
    let mut problems = Vec::new();
    let mut append = String::new();
    for &(mix, jobs, total) in totals {
        let key = format!("{build:016x} {} {seed} {mix} {jobs}", workload.name);
        let earlier = previous.lines().find_map(|line| {
            let (recorded, total) = line.rsplit_once(' ')?;
            (recorded == key).then(|| total.parse::<u64>().ok()).flatten()
        });
        match earlier {
            Some(earlier) if earlier != total => problems.push(format!(
                "mix {mix}: cycles_total {total} differs from {earlier} in an earlier run of this build"
            )),
            Some(_) => {}
            None => {
                let _ = writeln!(append, "{key} {total}");
            }
        }
    }
    if !append.is_empty() {
        let write = std::path::Path::new(record)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(record, previous + &append));
        if let Err(e) = write {
            eprintln!("svcbench: cannot record cycles in {record}: {e}");
        }
    }
    problems
}

/// A hash of this executable's bytes: runs of one build share it.
fn build_id() -> Option<u64> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let mut h = StableHasher::new();
    h.write_bytes(&bytes);
    Some(h.finish())
}

/// Checks that the workload still exercises the layer it was chosen for,
/// printing each check.
#[must_use]
pub fn self_checks(workload: &Workload, pass: &Pass) -> Vec<String> {
    let ok: Vec<_> = pass.jobs.iter().filter(|j| j.ok).collect();
    let hits = ok.iter().filter(|j| j.source == CacheSource::Hit).count();
    let decisions =
        |d: BandwidthDecision| ok.iter().filter(|j| compiled(j.source) && j.decision == d).count();
    let mut checks: Vec<(String, bool)> = Vec::new();
    match workload.name {
        "congested_unique" => {
            checks.push((format!("cache hits {hits} == 0"), hits == 0));
            let compiles = ok.iter().filter(|j| compiled(j.source)).count();
            let other = compiles - decisions(BandwidthDecision::Unchanged);
            checks
                .push((format!("adjust decisions other than unchanged {other} == 0"), other == 0));
        }
        "fourx_adjust" => {
            let rejected = decisions(BandwidthDecision::Rejected);
            checks.push((format!("schedule.adjust_rejected {rejected} > 0"), rejected > 0));
        }
        "hot_repeat" => {
            let evictions = pass.cache.evictions;
            let hit_ratio = hits as f64 / ok.len().max(1) as f64;
            checks.push((format!("cache.evictions {evictions} > 0"), evictions > 0));
            checks.push((format!("cache.hit_ratio {hit_ratio:.4} >= 0.5"), hit_ratio >= 0.5));
        }
        _ => {}
    }
    let mut failures = Vec::new();
    for (check, passed) in checks {
        let verdict = if passed { "ok" } else { "FAILED" };
        println!("self-check {} mix {}: {check} {verdict}", workload.name, pass.mix);
        if !passed {
            failures.push(format!("self-check {} mix {}: {check}", workload.name, pass.mix));
        }
    }
    failures
}
