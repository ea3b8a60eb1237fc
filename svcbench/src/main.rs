//! End-to-end benchmark of the Ecmas compile service.
//!
//! ```text
//! cargo run --release -q --manifest-path svcbench/Cargo.toml -- \
//!     --workload congested_unique --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Drives `CompileService` in-process with seeded `StressWorkload` mixes
//! through a closed-loop client, checks every outcome, and prints one
//! `name value unit n=…` row per metric followed by a JSON summary line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics of a traced run. See `svcbench/README.md`.

mod run;
mod stats;
mod trace;
mod verify;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ecmas::CompileService;
use run::{run_pass, Pass};
use stats::{median, ms, percentile, Metrics};
use workload::{build_inputs, start_service, Inputs, Workload};

/// Workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 7;
/// Measuring time used when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 10;
/// Set-ups timed before each pass, the last one kept; `setup_s` is the
/// median of all of them.
const SETUPS_PER_PASS: usize = 5;
/// Jobs of the untimed warm-up pass that starts every run.
const WARMUP_JOBS: usize = 250;

#[derive(Clone, Copy)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Jobs per mix in place of the workload's; the self-tests run tiny
    /// mixes.
    jobs: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: &workload::WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        jobs: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?;
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Builds the inputs of one mix and starts a fresh service for them; the
/// time this takes is one `setup_s` sample.
fn setup(args: &Args, mix: usize) -> (Inputs, CompileService, f64) {
    let w = args.workload;
    let t = Instant::now();
    let inputs = build_inputs(w, args.seed, mix, args.jobs);
    let service = start_service();
    (inputs, service, t.elapsed().as_secs_f64())
}

/// Runs the first jobs of a small mix through a throwaway service, so the
/// timed passes do not pay for the process's first heap growth and cold
/// caches. Returns why any of its jobs failed.
fn warm_up(args: &Args) -> Vec<String> {
    let jobs = args.jobs.map_or(WARMUP_JOBS, |j| j.min(WARMUP_JOBS));
    let (inputs, service, _) = setup(&Args { jobs: Some(jobs), ..*args }, 0);
    let pass = run_pass(args.workload, &inputs, 0, service);
    pass.errors.into_iter().map(|e| format!("warm-up {e}")).collect()
}

/// Passes over the workload's mixes in turn, each set up afresh, until
/// every mix has run once and another pass would end past `seconds` of
/// wall time, judged by the mean pass so far. Returns the passes and the
/// set-up times.
fn measure(args: &Args) -> (Vec<Pass>, Vec<f64>) {
    let mixes = args.workload.mixes;
    let budget = Duration::from_secs(args.seconds);
    let warm_up_errors = warm_up(args);
    let start = Instant::now();
    let (mut passes, mut setups) = (Vec::new(), Vec::new());
    let another_fits = |done: usize| {
        let elapsed = start.elapsed();
        elapsed + elapsed / u32::try_from(done).unwrap_or(u32::MAX) <= budget
    };
    while passes.len() < mixes || another_fits(passes.len()) {
        let mix = passes.len() % mixes;
        let mut ready: Option<(Inputs, CompileService)> = None;
        for _ in 0..SETUPS_PER_PASS {
            if let Some((_, service)) = ready.take() {
                service.shutdown();
            }
            let (inputs, service, setup_s) = setup(args, mix);
            setups.push(setup_s);
            ready = Some((inputs, service));
        }
        let (inputs, service) = ready.expect("at least one set-up per pass");
        passes.push(run_pass(args.workload, &inputs, mix, service));
    }
    passes[0].errors.extend(warm_up_errors);
    (passes, setups)
}

/// The end-to-end metrics. Throughput and latency percentiles are taken
/// per pass and reported as the median over passes; `cycles_total` counts
/// each mix once; `setup_s` is the median set-up.
fn end_to_end(passes: &[Pass], mixes: usize, setups: &[f64]) -> Metrics {
    let jobs: usize = passes.iter().map(|p| p.jobs.len()).sum();
    let failed: usize = passes.iter().map(Pass::failed).sum();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let latencies =
        |p: &Pass| -> Vec<f64> { p.jobs.iter().filter(|j| j.ok).map(|j| ms(j.latency)).collect() };
    let completed = jobs - failed;
    let first_round = &passes[..mixes];
    let round_jobs: usize = first_round.iter().map(|p| p.jobs.len()).sum();
    let cycles: u64 = first_round.iter().flat_map(|p| p.jobs.iter().map(|j| j.cycles)).sum();
    let mut m = Metrics::default();
    let rate = per_pass(&|p| p.jobs.len() as f64 / p.wall.as_secs_f64());
    m.push("jobs_per_s", rate, "jobs/s", jobs);
    m.push("lat_p50_ms", per_pass(&|p| percentile(&latencies(p), 50.0)), "ms", completed);
    m.push("lat_p99_ms", per_pass(&|p| percentile(&latencies(p), 99.0)), "ms", completed);
    m.push("cycles_total", cycles as f64, "cycles", round_jobs);
    m.push("ok_share", completed as f64 / jobs as f64, "ratio", jobs);
    m.note("fail_share", failed as f64 / jobs as f64, "ratio", jobs);
    m.push("setup_s", median(setups), "s", setups.len());
    m.push("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    m
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
#[must_use]
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where the benchmark keeps what it writes: the build directory.
fn output_dir() -> String {
    std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("svcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {} seed {} mixes {} chip {} in_flight {} trace {}",
        w.name,
        args.seed,
        w.mixes,
        w.chip.label(),
        w.in_flight,
        u8::from(args.trace)
    );
    let (passes, metrics) = if args.trace {
        let warm_up_errors = warm_up(&args);
        let (inputs, service, _) = setup(&args, 0);
        service.shutdown();
        let path = format!("{}/svcbench-trace-{}-{}.jsonl", output_dir(), w.name, args.seed);
        let (mut passes, metrics) = trace::traced_run(w, &inputs, &path);
        passes[0].errors.extend(warm_up_errors);
        (passes, metrics)
    } else {
        let (passes, setups) = measure(&args);
        let metrics = end_to_end(&passes, w.mixes, &setups);
        (passes, metrics)
    };

    let mut problems: Vec<String> = passes.iter().flat_map(|p| p.errors.iter().cloned()).collect();
    problems.extend(verify::cycle_mismatches(&passes));
    let mut totals: Vec<(usize, usize, u64)> = Vec::new();
    for pass in &passes {
        if !totals.iter().any(|&(mix, _, _)| mix == pass.mix) {
            totals.push((pass.mix, pass.jobs.len(), pass.jobs.iter().map(|j| j.cycles).sum()));
            problems.extend(verify::self_checks(w, pass));
        }
    }
    if passes.iter().all(|p| p.failed() == 0) {
        let record = format!("{}/svcbench-cycles.txt", output_dir());
        problems.extend(verify::check_recorded_cycles(&record, w, args.seed, &totals));
    }

    let attempted: usize = passes.iter().map(|p| p.jobs.len()).sum();
    let failed: usize = passes.iter().map(Pass::failed).sum();
    for p in &passes {
        let distinct = p.inputs.iter().max().map_or(0, |i| i + 1);
        let latencies: Vec<f64> = p.jobs.iter().map(|j| ms(j.latency)).collect();
        println!(
            "pass mix {} jobs {} distinct {distinct} misses {} wall_s {:.3} p50_ms {:.3} p99_ms {:.3}",
            p.mix,
            p.jobs.len(),
            p.cache.misses,
            p.wall.as_secs_f64(),
            percentile(&latencies, 50.0),
            percentile(&latencies, 99.0)
        );
    }
    print!("{}", metrics.table());
    for problem in &problems {
        println!("FAIL {problem}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas::serve::json::{self, Value};
    use ecmas::{Compiler, Ecmas};
    use run::check_outcome;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let benchmark = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        let metrics = benchmark.get(section).and_then(Value::as_array).expect("metric list");
        let field = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).unwrap().to_string();
        metrics.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
    }

    fn tiny(workload: &str, trace: bool) -> Args {
        let workload = Workload::find(workload).expect("known workload");
        Args { workload, seed: 3, seconds: 0, trace, jobs: Some(6) }
    }

    /// Every listed metric is in the JSON summary with its unit, and in the
    /// table with its unit and sample count; the summary has no other.
    fn assert_reports(metrics: &Metrics, section: &str) {
        let summary = json::parse(&metrics.json()).expect("summary parses");
        let table = metrics.table();
        let names = listed(section);
        for (name, unit) in &names {
            let metric = summary.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(metric.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            assert!(metric.get("value").and_then(Value::as_f64).is_some(), "{name} has a value");
            let row = table.lines().find(|l| l.split_whitespace().next() == Some(name.as_str()));
            let row = row.unwrap_or_else(|| panic!("{name} missing from the table"));
            let fields: Vec<&str> = row.split_whitespace().collect();
            assert_eq!(fields[2], unit, "{row}");
            assert!(fields[3].strip_prefix("n=").is_some_and(|n| n.parse::<usize>().is_ok()));
        }
        let Value::Obj(fields) = summary else { panic!("summary is an object") };
        assert_eq!(fields.len(), names.len(), "the summary holds only listed metrics");
    }

    #[test]
    fn every_end_to_end_metric_prints_with_unit_and_n() {
        for w in &workload::WORKLOADS {
            let (passes, setups) = measure(&tiny(w.name, false));
            assert_eq!(passes.len(), w.mixes);
            assert!(passes.iter().all(|p| p.errors.is_empty() && p.jobs.len() == 6));
            assert!(verify::cycle_mismatches(&passes).is_empty());
            assert_reports(&end_to_end(&passes, w.mixes, &setups), "end_to_end");
        }
    }

    #[test]
    fn every_per_layer_metric_prints_with_unit_and_n() {
        for w in &workload::WORKLOADS {
            let (inputs, service, _) = setup(&tiny(w.name, true), 0);
            service.shutdown();
            let path = format!("{}/svcbench-selftest-{}.jsonl", output_dir(), w.name);
            let (passes, metrics) = trace::traced_run(w, &inputs, &path);
            assert!(passes.iter().all(|p| p.errors.is_empty()));
            assert_reports(&metrics, "per_layer");
            let spans = std::fs::read_to_string(&path).expect("spans written");
            assert!(spans.lines().all(|l| json::parse(l).is_ok()));
            assert!(spans.lines().filter(|l| l.contains("\"client\"")).count() >= 6);
        }
    }

    #[test]
    fn the_gate_rejects_a_schedule_compiled_for_another_circuit() {
        let w = Workload::find("congested_unique").unwrap();
        let inputs = build_inputs(w, 3, 0, Some(2));
        let (a, b) = (&inputs.circuits[0], &inputs.circuits[1]);
        let outcome = Ecmas::default().compile_outcome(a, &inputs.chips[0]).expect("compiles");
        assert!(check_outcome(a, &outcome).is_ok());
        assert!(check_outcome(b, &outcome).is_err());
    }

    #[test]
    fn a_cycle_mismatch_between_passes_fails_the_run() {
        let w = Workload::find("congested_unique").unwrap();
        let mut passes = measure(&Args { seconds: 0, ..tiny(w.name, false) }).0;
        let mut again = measure(&tiny(w.name, false)).0.remove(0);
        assert!(verify::cycle_mismatches(&passes).is_empty());
        again.jobs[0].cycles += 1;
        passes.push(again);
        assert_eq!(verify::cycle_mismatches(&passes).len(), 1);
    }

    #[test]
    fn a_workload_that_stops_exercising_its_layer_fails_its_self_check() {
        // Six jobs never fill the 64 MiB cache, so nothing is evicted.
        let w = Workload::find("hot_repeat").unwrap();
        let passes = measure(&tiny(w.name, false)).0;
        let failures = verify::self_checks(w, &passes[0]);
        assert!(failures.iter().any(|f| f.contains("cache.evictions")), "{failures:?}");
    }
}
