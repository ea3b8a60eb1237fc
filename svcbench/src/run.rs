//! One pass of a stress mix through a fresh `CompileService`: a
//! closed-loop client keeps a fixed number of jobs in flight, timing each
//! from submit to result, and checks every outcome after the timed window.

use std::time::{Duration, Instant};

use ecmas::session::BandwidthDecision;
use ecmas::{
    has_errors, validate_encoded, CacheSource, CacheStats, CompileOutcome, CompileRequest,
    CompileService, JobHandle,
};
use ecmas_circuit::Circuit;
use ecmas_route::RouterStats;

use crate::workload::{Inputs, Workload, WORKERS};

/// The client's pause after a sweep that found no finished job starts at
/// `SWEEP_PAUSE_MIN` and doubles while jobs keep running, up to
/// `SWEEP_PAUSE_MAX`: short jobs are seen promptly, and long ones do not
/// wake the client thousands of times.
const SWEEP_PAUSE_MIN: Duration = Duration::from_micros(50);
const SWEEP_PAUSE_MAX: Duration = Duration::from_micros(800);

/// What the benchmark keeps of one finished job.
#[derive(Clone, Copy, Debug)]
pub struct JobRecord {
    /// Submit offset from the pass's first submit.
    pub submitted: Duration,
    /// Submit to result, as the client saw it.
    pub latency: Duration,
    /// `false` when the job errored, was refused, or failed the check.
    pub ok: bool,
    pub source: CacheSource,
    pub cycles: u64,
    pub decision: BandwidthDecision,
    pub restarts: usize,
    pub router: RouterStats,
}

/// One pass over every job of a stress mix.
pub struct Pass {
    /// Which of the run's mixes this pass ran.
    pub mix: usize,
    /// For every job, the index of its distinct input within the mix.
    pub inputs: Vec<usize>,
    /// First submit to last result, less the checks between segments.
    pub wall: Duration,
    /// One record per job, in arrival order.
    pub jobs: Vec<JobRecord>,
    /// The service's cache counters after the last job.
    pub cache: CacheStats,
    /// Why jobs failed, one line each (empty on a clean pass).
    pub errors: Vec<String>,
}

impl JobRecord {
    fn failed(submitted: Duration, latency: Duration) -> Self {
        JobRecord {
            submitted,
            latency,
            ok: false,
            source: CacheSource::Disabled,
            cycles: 0,
            decision: BandwidthDecision::Disabled,
            restarts: 0,
            router: RouterStats::default(),
        }
    }
}

impl Pass {
    #[must_use]
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| !j.ok).count()
    }
}

/// Checks one outcome against the circuit it claims to compile: the
/// schedule must pass `validate_encoded`, its report must agree with it,
/// and an analyzed job must carry no error diagnostic.
///
/// # Errors
///
/// A one-line description of the first problem found.
pub fn check_outcome(circuit: &Circuit, outcome: &CompileOutcome) -> Result<(), String> {
    validate_encoded(circuit, &outcome.encoded).map_err(|e| format!("invalid schedule: {e}"))?;
    if outcome.report.cycles != outcome.encoded.cycles() {
        return Err("report cycles disagree with the schedule".to_string());
    }
    if has_errors(&outcome.report.diagnostics) {
        return Err("analyzer reported an error diagnostic".to_string());
    }
    Ok(())
}

/// Jobs between two correctness checks. At each boundary the client lets
/// its in-flight jobs finish, stops the clock, checks the held outcomes
/// and drops them, so the outcomes it holds stay bounded.
const SEGMENT: usize = 250;

type Finished = (Duration, Duration, Result<CompileOutcome, String>);

/// Runs every job of `inputs` once through `service`, a fresh one, and
/// checks the outcomes segment by segment; shuts the service down.
#[must_use]
pub fn run_pass(workload: &Workload, inputs: &Inputs, mix: usize, service: CompileService) -> Pass {
    let n = inputs.jobs.len();
    let mut pass = Pass {
        mix,
        inputs: inputs.jobs.clone(),
        wall: Duration::ZERO,
        jobs: Vec::with_capacity(n),
        cache: CacheStats::default(),
        errors: Vec::new(),
    };
    let epoch = Instant::now();
    for start in (0..n).step_by(SEGMENT) {
        let jobs = start..(start + SEGMENT).min(n);
        let clock = Instant::now();
        let finished = run_segment(workload, inputs, &service, jobs.clone(), epoch);
        pass.wall += clock.elapsed();
        let records = check_segment(inputs, jobs.start, &finished);
        for ((job, (submitted, latency, _)), record) in jobs.zip(finished).zip(records) {
            if let Err(e) = &record {
                pass.errors.push(format!("mix {mix} job {job}: {e}"));
            }
            pass.jobs.push(record.unwrap_or_else(|_| JobRecord::failed(submitted, latency)));
        }
    }
    pass.cache = service.cache_stats().unwrap_or_default();
    service.shutdown();
    pass
}

/// The closed loop over `jobs`: results in job order, submit offsets from
/// `epoch`.
fn run_segment(
    workload: &Workload,
    inputs: &Inputs,
    service: &CompileService,
    jobs: std::ops::Range<usize>,
    epoch: Instant,
) -> Vec<Finished> {
    let first = jobs.start;
    let mut done: Vec<Option<Finished>> = jobs.clone().map(|_| None).collect();
    let mut next = jobs.start;
    let mut in_flight: Vec<(usize, Instant, JobHandle)> = Vec::with_capacity(workload.in_flight);
    let mut pause = SWEEP_PAUSE_MIN;
    while next < jobs.end || !in_flight.is_empty() {
        while in_flight.len() < workload.in_flight && next < jobs.end {
            let input = inputs.jobs[next];
            let request =
                CompileRequest::new(inputs.circuits[input].clone(), inputs.chips[input].clone())
                    .with_analyze(workload.analyze);
            let submitted = Instant::now();
            match service.submit(request) {
                Ok(handle) => in_flight.push((next, submitted, handle)),
                Err(e) => {
                    let refused = Err(format!("refused: {e}"));
                    done[next - first] = Some((submitted - epoch, submitted.elapsed(), refused));
                }
            }
            next += 1;
        }
        let swept = in_flight.len();
        for (job, submitted, handle) in std::mem::take(&mut in_flight) {
            match handle.try_wait() {
                Ok(result) => {
                    let latency = submitted.elapsed();
                    let result = result.map_err(|e| e.to_string());
                    done[job - first] = Some((submitted - epoch, latency, result));
                }
                Err(handle) => in_flight.push((job, submitted, handle)),
            }
        }
        if swept > 0 && in_flight.len() == swept {
            std::thread::sleep(pause);
            pause = (pause * 2).min(SWEEP_PAUSE_MAX);
        } else {
            pause = SWEEP_PAUSE_MIN;
        }
    }
    done.into_iter().map(|d| d.expect("every job settled")).collect()
}

/// Checks the finished jobs of a segment that starts at job `first`, split
/// over as many threads as the service has workers: the service is idle
/// while the clock is stopped.
fn check_segment(
    inputs: &Inputs,
    first: usize,
    finished: &[Finished],
) -> Vec<Result<JobRecord, String>> {
    let chunk = finished.len().div_ceil(WORKERS).max(1);
    std::thread::scope(|scope| {
        let threads: Vec<_> = finished
            .chunks(chunk)
            .enumerate()
            .map(|(part, jobs)| {
                scope.spawn(move || {
                    let start = first + part * chunk;
                    let records =
                        jobs.iter().enumerate().map(|(k, (submitted, latency, result))| {
                            check(
                                &inputs.circuits[inputs.jobs[start + k]],
                                *submitted,
                                *latency,
                                result,
                            )
                        });
                    records.collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("check thread")).collect()
    })
}

/// Checks a finished job and keeps what the metrics need of it.
fn check(
    circuit: &Circuit,
    submitted: Duration,
    latency: Duration,
    result: &Result<CompileOutcome, String>,
) -> Result<JobRecord, String> {
    let outcome = result.as_ref().map_err(Clone::clone)?;
    check_outcome(circuit, outcome)?;
    let report = &outcome.report;
    Ok(JobRecord {
        submitted,
        latency,
        ok: true,
        source: report.cache.source,
        cycles: report.cycles,
        decision: report.bandwidth_adjust,
        restarts: report.placement_restarts,
        router: report.router,
    })
}
