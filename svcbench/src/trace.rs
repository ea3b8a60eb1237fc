//! The traced run and the per-layer metrics.
//!
//! The service itself is not instrumented. The traced run keeps one
//! client span per job (submit to result). After the pass it times direct
//! calls into each layer's public functions on the inputs the service
//! compiled: `Ecmas::session` (profile), `Profiled::map`,
//! `Mapped::schedule_auto`, a base-only `schedule_auto` with bandwidth
//! adjust off, and `lint_circuit` + `analyze_encoded`. Those become the
//! job's child spans. Counts come from each job's `CompileReport` and
//! from the service's cache counters. Spans stay in memory and are
//! written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ecmas::session::BandwidthDecision;
use ecmas::{analyze_encoded, lint_circuit, CacheSource, Ecmas, EcmasConfig};
use ecmas_route::RouterStats;

use crate::run::{run_pass, JobRecord, Pass};
use crate::stats::{ms, percentile, Metrics};
use crate::verify::compiled;
use crate::workload::{start_service, Inputs, Workload, WORKERS};

/// A child span: offset from the trace epoch and duration.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: Duration,
    len: Duration,
}

/// The directly timed layer calls on one input.
#[derive(Clone, Copy, Debug, Default)]
struct Stages {
    profile: Span,
    map: Span,
    schedule: Span,
    schedule_base: Span,
    analyze: Option<Span>,
    cycles: u64,
}

impl Stages {
    fn compile(&self) -> Duration {
        self.profile.len + self.map.len + self.schedule.len
    }
}

/// Times the layer calls on every input in `todo`, split over as many
/// threads as the service has workers.
fn time_stages(
    workload: &Workload,
    inputs: &Inputs,
    todo: &[usize],
    epoch: Instant,
) -> BTreeMap<usize, Stages> {
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..WORKERS)
            .map(|t| {
                scope.spawn(move || {
                    let mine = todo.iter().skip(t).step_by(WORKERS);
                    mine.map(|&i| (i, time_one(workload, inputs, i, epoch))).collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("stage timing thread")).collect()
    })
}

fn time_one(workload: &Workload, inputs: &Inputs, input: usize, epoch: Instant) -> Stages {
    let (circuit, chip) = (&inputs.circuits[input], &inputs.chips[input]);
    let span = |start: Instant| Span { start: start - epoch, len: start.elapsed() };
    let t = Instant::now();
    let profiled = Ecmas::new(EcmasConfig::default()).session(circuit, chip).expect("profile");
    let profile = span(t);
    let t = Instant::now();
    let mapped = profiled.map().expect("map");
    let map = span(t);
    let t = Instant::now();
    let scheduled = mapped.schedule_auto().expect("schedule");
    let schedule = span(t);

    let base = Ecmas::new(EcmasConfig { adjust_bandwidth: false, ..EcmasConfig::default() });
    let base_mapped = base.session(circuit, chip).and_then(|p| p.map()).expect("base map");
    let t = Instant::now();
    std::hint::black_box(base_mapped.schedule_auto().expect("base schedule"));
    let schedule_base = span(t);

    let analyze = workload.analyze.then(|| {
        let t = Instant::now();
        let mut diagnostics = lint_circuit(circuit, Some(chip));
        diagnostics.extend(analyze_encoded(circuit, scheduled.encoded()));
        std::hint::black_box(diagnostics);
        span(t)
    });
    Stages { profile, map, schedule, schedule_base, analyze, cycles: scheduled.encoded().cycles() }
}

/// An untraced pass and a traced pass over `inputs`, then the direct layer
/// timings on what the traced pass compiled or analyzed. Returns both
/// passes and the per-layer metrics, and writes the spans to `path`.
pub fn traced_run(workload: &Workload, inputs: &Inputs, path: &str) -> (Vec<Pass>, Metrics) {
    let untraced = run_pass(workload, inputs, 0, start_service());
    let service = start_service();
    let epoch = Instant::now();
    let mut traced = run_pass(workload, inputs, 0, service);
    let timed = |j: &JobRecord| j.ok && (workload.analyze || compiled(j.source));
    let mut todo: Vec<usize> = traced
        .jobs
        .iter()
        .zip(&inputs.jobs)
        .filter(|(j, _)| timed(j))
        .map(|(_, &input)| input)
        .collect();
    todo.sort_unstable();
    todo.dedup();
    let stages = time_stages(workload, inputs, &todo, epoch);

    let ok: Vec<(&JobRecord, usize)> =
        traced.jobs.iter().zip(inputs.jobs.iter().copied()).filter(|(j, _)| j.ok).collect();
    let compiles: Vec<(&JobRecord, &Stages)> =
        ok.iter().filter(|(j, _)| compiled(j.source)).map(|&(j, i)| (j, &stages[&i])).collect();
    let mut mismatches = Vec::new();
    for (job, (record, input)) in traced.jobs.iter().zip(&inputs.jobs).enumerate() {
        if let Some(s) = stages.get(input).filter(|s| record.ok && record.cycles != s.cycles) {
            mismatches.push(format!(
                "mix 0 job {job}: the service gave {} cycles, a direct compile {}",
                record.cycles, s.cycles
            ));
        }
    }

    let n = compiles.len();
    let stage_ms = |f: fn(&Stages) -> f64| compiles.iter().map(|(_, s)| f(s)).sum::<f64>();
    let decided =
        |d: BandwidthDecision| compiles.iter().filter(|(j, _)| j.decision == d).count() as f64;
    let routed =
        |f: fn(&RouterStats) -> u64| compiles.iter().map(|(j, _)| f(&j.router)).sum::<u64>();
    let served = |s: CacheSource| ok.iter().filter(|(j, _)| j.source == s).count();

    let mut m = Metrics::default();
    m.push("profile.self_ms", stage_ms(|s| ms(s.profile.len)), "ms", n);
    m.push("map.self_ms", stage_ms(|s| ms(s.map.len)), "ms", n);
    let restarts = compiles.iter().map(|(j, _)| j.restarts as f64).sum();
    m.push("map.placement_restarts", restarts, "count", n);
    m.push("schedule.self_ms", stage_ms(|s| ms(s.schedule.len)), "ms", n);
    let candidate = stage_ms(|s| ms(s.schedule.len) - ms(s.schedule_base.len));
    m.push("schedule.candidate_ms", candidate, "ms", n);
    m.push("schedule.adjust_adopted", decided(BandwidthDecision::Adopted), "count", n);
    m.push("schedule.adjust_rejected", decided(BandwidthDecision::Rejected), "count", n);
    m.push("schedule.adjust_applied", decided(BandwidthDecision::Applied), "count", n);
    let failed = routed(|r| r.failed_searches);
    m.push("route.cells_expanded", routed(|r| r.cells_expanded) as f64, "count", n);
    m.push("route.failed_searches", failed as f64, "count", n);
    let failed_hits = routed(|r| r.cache_hits) as f64 / failed.max(1) as f64;
    m.push("route.failed_cache_hit_ratio", failed_hits, "ratio", failed as usize);
    let hit_ratio = served(CacheSource::Hit) as f64 / ok.len().max(1) as f64;
    m.push("cache.hit_ratio", hit_ratio, "ratio", ok.len());
    m.push("cache.coalesced", served(CacheSource::Coalesced) as f64, "count", ok.len());
    m.push("cache.evictions", traced.cache.evictions as f64, "count", 1);
    m.push("cache.stage_hits", traced.cache.stage_hits as f64, "count", 1);
    let resident = traced.cache.resident_bytes as f64 / f64::from(1 << 20);
    m.push("cache.resident_mb", resident, "MiB", 1);
    let miss_wait: Vec<f64> = compiles
        .iter()
        .filter(|(j, _)| j.source == CacheSource::Miss)
        .map(|(j, s)| ms(j.latency) - ms(s.compile()))
        .collect();
    m.push("serve.miss_wait_p50_ms", percentile(&miss_wait, 50.0), "ms", miss_wait.len());
    m.push("serve.miss_wait_p99_ms", percentile(&miss_wait, 99.0), "ms", miss_wait.len());
    let hit_latency: Vec<f64> = ok
        .iter()
        .filter(|(j, _)| matches!(j.source, CacheSource::Hit | CacheSource::Coalesced))
        .map(|(j, _)| ms(j.latency))
        .collect();
    m.push("serve.hit_p50_ms", percentile(&hit_latency, 50.0), "ms", hit_latency.len());
    let analyzed: Vec<f64> =
        ok.iter().filter_map(|(_, i)| stages[i].analyze.map(|a| ms(a.len))).collect();
    m.push("analyze.self_ms", analyzed.iter().sum::<f64>() + 0.0, "ms", analyzed.len());
    let overhead = ms(traced.wall) - ms(untraced.wall);
    m.push("trace.overhead_ms", overhead, "ms", 2);
    m.push("trace.overhead_share", overhead / ms(untraced.wall), "ratio", 2);

    match write_spans(path, &traced, inputs, &stages) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => eprintln!("svcbench: cannot write spans to {path}: {e}"),
    }
    traced.errors.extend(mismatches);
    (vec![untraced, traced], m)
}

/// One JSON line per span: a `client` span per job and, for the jobs whose
/// input was timed, its layer spans as children.
fn write_spans(
    path: &str,
    pass: &Pass,
    inputs: &Inputs,
    stages: &BTreeMap<usize, Stages>,
) -> std::io::Result<()> {
    let mut out = String::new();
    let mut line = |job: usize, name: &str, extra: &str, span: Span| {
        let _ = writeln!(
            out,
            "{{\"job\":{job},\"span\":\"{name}\",{extra}\"start_us\":{},\"end_us\":{}}}",
            span.start.as_micros(),
            (span.start + span.len).as_micros()
        );
    };
    let child = "\"parent\":\"client\",";
    for (job, (record, input)) in pass.jobs.iter().zip(&inputs.jobs).enumerate() {
        let source = format!("\"parent\":null,\"source\":\"{}\",", record.source.label());
        line(job, "client", &source, Span { start: record.submitted, len: record.latency });
        let Some(s) = stages.get(input) else { continue };
        if compiled(record.source) {
            line(job, "profile", child, s.profile);
            line(job, "map", child, s.map);
            line(job, "schedule", child, s.schedule);
            line(job, "schedule_base", child, s.schedule_base);
        }
        if let Some(a) = s.analyze {
            line(job, "analyze", child, a);
        }
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
