//! The simulator's own performance harness behind the `perf_report` binary.
//!
//! Every other harness in this crate measures the *modeled* hardware; this
//! one measures the *simulator*: how long schedule generation, engine
//! execution and a full workload sweep take on the host. The numbers are
//! written to `BENCH_simulator.json` at the repository root so successive
//! changes leave a perf trajectory (CI regenerates the report on every run;
//! the JSON schema is validated by a test in this module).
//!
//! The workload-sweep section reports two numbers: the *optimized* wall time
//! of [`ciflow::sweep::try_workload_sweep_in`] as shipped (schedule cache warm
//! across the bandwidth ladder, statistics-only execution), and a *baseline*
//! wall time of the same job set run the way the sweep worked before the
//! hot-path overhaul — rebuilding the schedule at every bandwidth point and
//! recording a full per-task trace (a cache-disabled, trace-enabled
//! session). The ratio is the headline speedup of the overhaul; it is
//! conservative, because the baseline run still benefits from interned
//! labels and the incremental-ready engine, which cannot be switched off.

use ciflow::api::{Job, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::hks_shape::HksShape;
use ciflow::report::json_escape;
use ciflow::schedule::{build_schedule, ScheduleConfig};
use ciflow::serve::{
    try_fault_serve_in, try_serve_in, ArrivalProcess, CrashPlan, FaultPlan, RequestClass,
    RetryPolicy, ServeConfig,
};
use ciflow::sweep::{try_analytic_sweep_in, try_workload_sweep_in, BANDWIDTH_LADDER};
use ciflow::workload::{PipelineMode, Workload};
use rpu::{EvkPolicy, RpuConfig, RpuEngine, TraceMode};
use std::time::Instant;

/// How long schedule generation takes: all five Table III benchmarks under
/// all three built-in dataflows, with streamed evks (the heaviest graphs).
#[derive(Debug, Clone)]
pub struct ScheduleGenerationPerf {
    /// Number of schedules built per iteration (benchmarks × dataflows).
    pub schedules: usize,
    /// Best-of-N wall time for building all of them once, in milliseconds.
    pub total_ms: f64,
}

/// How long one engine execution takes, traced and stats-only, on the ARK
/// output-centric schedule (evks streamed, 12.8 GB/s).
#[derive(Debug, Clone)]
pub struct EngineExecutionPerf {
    /// Number of tasks in the executed graph.
    pub tasks: usize,
    /// Best-of-N wall time of [`RpuEngine::execute`] (full trace), in ms.
    pub traced_ms: f64,
    /// Best-of-N wall time of [`RpuEngine::execute_stats`], in ms.
    pub stats_only_ms: f64,
}

/// Host cost and model output of the static bound analysis
/// ([`rpu::bound::analyze`]) on the same reference schedule the
/// engine-execution section runs (ARK output-centric, evks streamed,
/// 12.8 GB/s). The headline comparison: proving the makespan bound costs
/// about as much as one stats-only execution, and the achieved-vs-bound
/// efficiency says how much of the engine's runtime the static model
/// already explains.
#[derive(Debug, Clone)]
pub struct StaticBoundsPerf {
    /// Number of tasks in the analyzed graph.
    pub tasks: usize,
    /// Best-of-N wall time of [`rpu::bound::analyze`], in ms.
    pub analyze_ms: f64,
    /// The provable makespan lower bound at the reference point, in ms
    /// (a model output, stable across hosts).
    pub makespan_bound_ms: f64,
    /// `bound / achieved runtime` at the reference point — 1.0 means the
    /// engine hits the provable bound exactly; sound, so never above 1.
    pub bound_efficiency: f64,
}

/// Wall time of the full workload sweep (the acceptance benchmark): an
/// 8-rotation ARK pipeline swept across the Fig-4 bandwidth ladder, fused
/// and back-to-back.
#[derive(Debug, Clone)]
pub struct WorkloadSweepPerf {
    /// Workload name.
    pub workload: String,
    /// Strategy short name.
    pub strategy: String,
    /// Bandwidth points per mode.
    pub bandwidth_points: usize,
    /// Pipeline modes swept (fused + back-to-back).
    pub modes: usize,
    /// Best-of-N wall time of the shipped sweep path, in ms.
    pub optimized_ms: f64,
    /// Best-of-N wall time of the pre-overhaul sweep behavior (schedule
    /// rebuilt per point, traced execution), in ms.
    pub baseline_ms: f64,
}

impl WorkloadSweepPerf {
    /// Baseline over optimized wall time.
    pub fn speedup(&self) -> f64 {
        self.baseline_ms / self.optimized_ms
    }
}

/// Wall time of the closed-form (analytic) sweep against the engine-path
/// sweep it replaces: the same 8-rotation ARK pipeline, both pipeline
/// modes, over a dense geometric bandwidth ladder. The engine path runs
/// [`ciflow::sweep::try_workload_sweep_in`] (warm schedule cache — the PR-5
/// `optimized_ms` behavior); the analytic path runs
/// [`ciflow::sweep::try_analytic_sweep_in`] with a warm timeline cache, and
/// the harness asserts both return bit-identical runtimes before timing.
/// The analytic wall time also covers the static bound curve and roofline
/// knee the sweep now returns (`rpu::bound::bound_curve` — lane-batched,
/// about half the cost of the timeline evaluation itself), output the
/// engine path does not produce, so the recorded speedup under-states pure
/// timeline evaluation.
#[derive(Debug, Clone)]
pub struct AnalyticSweepPerf {
    /// Workload name.
    pub workload: String,
    /// Strategy short name.
    pub strategy: String,
    /// Bandwidth points per mode.
    pub bandwidth_points: usize,
    /// Pipeline modes swept (fused + back-to-back).
    pub modes: usize,
    /// Total event-order segments across both modes' timelines.
    pub segments: usize,
    /// Best-of-N wall time of the engine-path sweep, in ms.
    pub engine_path_ms: f64,
    /// Best-of-N wall time of the analytic sweep (warm timeline cache), ms.
    pub analytic_ms: f64,
}

impl AnalyticSweepPerf {
    /// Engine-path over analytic wall time.
    pub fn speedup(&self) -> f64 {
        self.engine_path_ms / self.analytic_ms
    }
}

/// Host cost of the fleet-scale serving simulator at a reference point: the
/// standard ARK request mix, closed loop (8 clients, 96 requests) on a
/// 4-device cluster at 64 GB/s under the OC dataflow. Two numbers matter:
/// the *simulated* throughput (virtual requests per virtual second — a model
/// output, stable across hosts) and the *host* wall time per simulated
/// request (what serving one request costs the simulator itself, with the
/// class schedules already cached).
#[derive(Debug, Clone)]
pub struct ServingPerf {
    /// Devices in the reference cluster.
    pub num_devices: usize,
    /// Requests served per run.
    pub requests: usize,
    /// Simulated throughput of the reference run, in requests per virtual
    /// second (deterministic — a model output, not a host measurement).
    pub simulated_rps: f64,
    /// Best-of-N host wall time of one full serving run, in milliseconds.
    pub wall_ms: f64,
}

impl ServingPerf {
    /// Host wall time per simulated request, in microseconds.
    pub fn wall_us_per_request(&self) -> f64 {
        self.wall_ms * 1e3 / self.requests as f64
    }
}

/// The serving simulator under fault injection at the same reference point
/// as [`ServingPerf`], with a standard adverse plan (seeded random crashes,
/// 2% transient failures, capped-backoff retries). Two kinds of numbers:
/// the *model outputs* (goodput retained under faults relative to the
/// fault-free throughput, retries, wasted device-seconds — deterministic,
/// stable across hosts) and the *host* wall time of one faulted run.
#[derive(Debug, Clone)]
pub struct ResiliencePerf {
    /// Devices in the reference cluster.
    pub num_devices: usize,
    /// Requests offered per run.
    pub requests: usize,
    /// Faulted goodput over fault-free throughput at the reference point —
    /// deterministic and in `(0, 1]`: downtime and rework can only stretch
    /// the makespan.
    pub goodput_fraction: f64,
    /// Retries the faulted run needed (a model output).
    pub retries: usize,
    /// Device-seconds of work discarded by crashes and transient failures.
    pub wasted_seconds: f64,
    /// Best-of-N host wall time of one faulted serving run, in ms.
    pub wall_ms: f64,
}

/// The full report written to `BENCH_simulator.json`.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Worker threads the batch layer had available.
    pub threads: usize,
    /// Timed iterations behind each best-of number.
    pub iterations: usize,
    /// Schedule-generation section.
    pub schedule_generation: ScheduleGenerationPerf,
    /// Engine-execution section.
    pub engine_execution: EngineExecutionPerf,
    /// Static bound-analysis section.
    pub static_bounds: StaticBoundsPerf,
    /// Workload-sweep section (the acceptance benchmark).
    pub workload_sweep: WorkloadSweepPerf,
    /// Closed-form analytic-sweep section.
    pub analytic_sweep: AnalyticSweepPerf,
    /// Serving-simulator section.
    pub serving: ServingPerf,
    /// Fault-injected serving section.
    pub resilience: ResiliencePerf,
}

/// Best-of-`iters` wall time of `f`, in milliseconds. Runs one untimed
/// warm-up first so allocator and cache effects fall on no iteration.
fn best_ms<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn measure_schedule_generation(iters: usize) -> ScheduleGenerationPerf {
    let config = ScheduleConfig {
        data_memory_bytes: 32 * rpu::MIB,
        evk_policy: EvkPolicy::Streamed,
    };
    let shapes: Vec<(Dataflow, HksShape)> = HksBenchmark::all()
        .into_iter()
        .flat_map(|b| Dataflow::all().map(move |d| (d, HksShape::new(b))))
        .collect();
    let total_ms = best_ms(iters, || {
        for (dataflow, shape) in &shapes {
            std::hint::black_box(build_schedule(*dataflow, shape, &config));
        }
    });
    ScheduleGenerationPerf {
        schedules: shapes.len(),
        total_ms,
    }
}

fn measure_engine_execution(iters: usize) -> EngineExecutionPerf {
    let config = ScheduleConfig {
        data_memory_bytes: 32 * rpu::MIB,
        evk_policy: EvkPolicy::Streamed,
    };
    let schedule = build_schedule(
        Dataflow::OutputCentric,
        &HksShape::new(HksBenchmark::ARK),
        &config,
    );
    let engine = RpuEngine::new(RpuConfig::ciflow_streaming().with_bandwidth(12.8));
    let traced_ms = best_ms(iters, || {
        std::hint::black_box(engine.execute(&schedule.graph).expect("schedule executes"));
    });
    let stats_only_ms = best_ms(iters, || {
        std::hint::black_box(
            engine
                .execute_stats(&schedule.graph)
                .expect("schedule executes"),
        );
    });
    EngineExecutionPerf {
        tasks: schedule.graph.len(),
        traced_ms,
        stats_only_ms,
    }
}

fn measure_static_bounds(iters: usize) -> StaticBoundsPerf {
    let config = ScheduleConfig {
        data_memory_bytes: 32 * rpu::MIB,
        evk_policy: EvkPolicy::Streamed,
    };
    let schedule = build_schedule(
        Dataflow::OutputCentric,
        &HksShape::new(HksBenchmark::ARK),
        &config,
    );
    let engine = RpuEngine::new(RpuConfig::ciflow_streaming().with_bandwidth(12.8));
    let analyze_ms = best_ms(iters, || {
        std::hint::black_box(engine.bounds(&schedule.graph));
    });
    let analysis = engine.bounds(&schedule.graph);
    let stats = engine
        .execute_stats(&schedule.graph)
        .expect("schedule executes");
    StaticBoundsPerf {
        tasks: schedule.graph.len(),
        analyze_ms,
        makespan_bound_ms: analysis.makespan_bound_ms(),
        bound_efficiency: analysis.efficiency(stats.runtime_seconds),
    }
}

fn measure_workload_sweep(iters: usize, bandwidths: &[f64]) -> WorkloadSweepPerf {
    let workload = Workload::rotation_batch(HksBenchmark::ARK, 8);
    let modes = [PipelineMode::Fused, PipelineMode::BackToBack];
    let optimized_ms = best_ms(iters, || {
        for mode in modes {
            std::hint::black_box(
                try_workload_sweep_in(
                    &Session::new(),
                    &workload,
                    Dataflow::OutputCentric,
                    bandwidths,
                    EvkPolicy::Streamed,
                    1.0,
                    mode,
                )
                .expect("sweep succeeds"),
            );
        }
    });
    // The pre-overhaul sweep behavior, re-enacted through the public API: a
    // session with the schedule cache disabled (every point rebuilds its
    // pipeline graph) and full tracing (every task allocates a trace
    // record), exactly what `run_job` always did before this harness
    // existed.
    let baseline_ms = best_ms(iters, || {
        let session = Session::new()
            .without_schedule_cache()
            .with_trace(TraceMode::Full)
            .jobs(bandwidths.iter().flat_map(|&bw| {
                modes.map(|mode| {
                    Job::workload(workload.clone(), Dataflow::OutputCentric, mode).with_rpu(
                        RpuConfig::ciflow_streaming()
                            .with_bandwidth(bw)
                            .with_modops(1.0),
                    )
                })
            }));
        let outcome = session.run();
        assert!(outcome.all_ok(), "baseline sweep jobs must succeed");
        std::hint::black_box(outcome);
    });
    WorkloadSweepPerf {
        workload: workload.name.clone(),
        strategy: "OC".to_string(),
        bandwidth_points: bandwidths.len(),
        modes: modes.len(),
        optimized_ms,
        baseline_ms,
    }
}

/// A geometric ladder over the analyzed range `[8, 1024]` GB/s.
fn geometric_ladder(points: usize) -> Vec<f64> {
    (0..points)
        .map(|i| 8.0 * 128f64.powf(i as f64 / (points - 1).max(1) as f64))
        .collect()
}

fn measure_analytic_sweep(iters: usize, points: usize) -> AnalyticSweepPerf {
    let workload = Workload::rotation_batch(HksBenchmark::ARK, 8);
    let ladder = geometric_ladder(points);
    let modes = [PipelineMode::Fused, PipelineMode::BackToBack];
    // Bit-identity first: the speedup below is only meaningful if both
    // paths return the same numbers.
    let check = Session::new();
    for mode in modes {
        let engine = try_workload_sweep_in(
            &check,
            &workload,
            Dataflow::OutputCentric,
            &ladder,
            EvkPolicy::Streamed,
            1.0,
            mode,
        )
        .expect("engine sweep succeeds");
        let analytic = try_analytic_sweep_in(
            &check,
            &workload,
            Dataflow::OutputCentric,
            &ladder,
            EvkPolicy::Streamed,
            1.0,
            mode,
        )
        .expect("analytic sweep succeeds");
        assert_eq!(engine.points.len(), analytic.series.points.len());
        for (a, b) in engine.points.iter().zip(&analytic.series.points) {
            assert_eq!(
                a.runtime_ms.to_bits(),
                b.runtime_ms.to_bits(),
                "analytic sweep diverges from the engine at {} GB/s",
                a.bandwidth_gbps
            );
        }
    }
    let engine_session = Session::new();
    let engine_path_ms = best_ms(iters, || {
        for mode in modes {
            std::hint::black_box(
                try_workload_sweep_in(
                    &engine_session,
                    &workload,
                    Dataflow::OutputCentric,
                    &ladder,
                    EvkPolicy::Streamed,
                    1.0,
                    mode,
                )
                .expect("engine sweep succeeds"),
            );
        }
    });
    let analytic_session = Session::new();
    let mut segments = 0;
    let analytic_ms = best_ms(iters, || {
        segments = 0;
        for mode in modes {
            let sweep = try_analytic_sweep_in(
                &analytic_session,
                &workload,
                Dataflow::OutputCentric,
                &ladder,
                EvkPolicy::Streamed,
                1.0,
                mode,
            )
            .expect("analytic sweep succeeds");
            segments += sweep.segments;
            std::hint::black_box(sweep);
        }
    });
    AnalyticSweepPerf {
        workload: workload.name.clone(),
        strategy: "OC".to_string(),
        bandwidth_points: ladder.len(),
        modes: modes.len(),
        segments,
        engine_path_ms,
        analytic_ms,
    }
}

fn measure_serving(iters: usize) -> ServingPerf {
    let config = ServeConfig::new(
        4,
        RequestClass::standard_mix(HksBenchmark::ARK),
        ArrivalProcess::ClosedLoop {
            concurrency: 8,
            requests: 96,
        },
    )
    .with_rpu(RpuConfig::ciflow_baseline().with_bandwidth(64.0))
    .with_seed(1);
    // One session across all iterations: the warm-up call inside `best_ms`
    // builds the four class schedules, so the timed runs measure the serving
    // layer itself (class re-execution from the cache plus the event loop).
    let session = Session::new();
    let mut simulated_rps = 0.0;
    let wall_ms = best_ms(iters, || {
        let report = try_serve_in(&session, &config, Dataflow::OutputCentric)
            .expect("reference serving run succeeds");
        simulated_rps = report.throughput_rps;
        std::hint::black_box(report);
    });
    ServingPerf {
        num_devices: config.cluster.num_devices,
        requests: config.arrival.requests(),
        simulated_rps,
        wall_ms,
    }
}

fn measure_resilience(iters: usize) -> ResiliencePerf {
    let config = ServeConfig::new(
        4,
        RequestClass::standard_mix(HksBenchmark::ARK),
        ArrivalProcess::ClosedLoop {
            concurrency: 8,
            requests: 96,
        },
    )
    .with_rpu(RpuConfig::ciflow_baseline().with_bandwidth(64.0))
    .with_seed(1);
    let session = Session::new();
    let baseline = try_serve_in(&session, &config, Dataflow::OutputCentric)
        .expect("fault-free reference run succeeds");
    // The standard adverse plan, scaled to the mix's mean service time.
    // Retries are generous and admission stays open, so every request
    // eventually completes: the goodput fraction measures pure fault
    // overhead (downtime + rework), deterministically in (0, 1].
    let tick = baseline.makespan_seconds / baseline.completed as f64;
    let plan = FaultPlan::none()
        .with_crashes(CrashPlan::Random {
            mtbf_seconds: 40.0 * tick,
            mttr_seconds: 5.0 * tick,
        })
        .with_transient_failure_rate(0.02)
        .with_retry(RetryPolicy::capped_exponential(8, 0.5 * tick, 4.0 * tick));
    let mut faulted = None;
    let wall_ms = best_ms(iters, || {
        let report = try_fault_serve_in(&session, &config, &plan, Dataflow::OutputCentric)
            .expect("faulted serving run succeeds");
        faulted = Some(std::hint::black_box(report));
    });
    let faulted = faulted.expect("best_ms ran at least once");
    ResiliencePerf {
        num_devices: config.cluster.num_devices,
        requests: config.arrival.requests(),
        goodput_fraction: faulted.goodput_rps / baseline.throughput_rps,
        retries: faulted.retries,
        wasted_seconds: faulted.wasted_seconds,
        wall_ms,
    }
}

/// The analytic-sweep section's ladder density in the shipped report: a
/// 1000-point geometric ladder, where an engine-path sweep costs an event
/// loop per point and the analytic path costs one symbolic analysis total.
const ANALYTIC_POINTS: usize = 1000;

/// Runs every section with `iters` timed iterations over the full Fig-4
/// bandwidth ladder (and the 1000-point analytic ladder).
pub fn measure(iters: usize) -> PerfReport {
    measure_with_ladders(iters, &BANDWIDTH_LADDER, ANALYTIC_POINTS)
}

/// [`measure`] with an explicit bandwidth ladder (tests use a short one,
/// and a correspondingly short analytic ladder).
pub fn measure_with_ladder(iters: usize, bandwidths: &[f64]) -> PerfReport {
    measure_with_ladders(iters, bandwidths, 32)
}

fn measure_with_ladders(iters: usize, bandwidths: &[f64], analytic_points: usize) -> PerfReport {
    PerfReport {
        threads: std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1),
        iterations: iters.max(1),
        schedule_generation: measure_schedule_generation(iters),
        engine_execution: measure_engine_execution(iters),
        static_bounds: measure_static_bounds(iters),
        workload_sweep: measure_workload_sweep(iters, bandwidths),
        analytic_sweep: measure_analytic_sweep(iters, analytic_points),
        serving: measure_serving(iters),
        resilience: measure_resilience(iters),
    }
}

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.4}")
    } else {
        "null".to_string()
    }
}

impl PerfReport {
    /// Renders the report as the `BENCH_simulator.json` document. The
    /// workspace's serde is an offline marker shim, so the (small, fixed)
    /// schema is rendered by hand; [`validate_json`] checks it.
    pub fn to_json(&self) -> String {
        let g = &self.schedule_generation;
        let e = &self.engine_execution;
        let b = &self.static_bounds;
        let w = &self.workload_sweep;
        let a = &self.analytic_sweep;
        let s = &self.serving;
        let r = &self.resilience;
        format!(
            r#"{{
  "schema": "ciflow.perf_report.v5",
  "threads": {threads},
  "iterations": {iterations},
  "schedule_generation": {{
    "schedules": {schedules},
    "total_ms": {gen_total}
  }},
  "engine_execution": {{
    "tasks": {tasks},
    "traced_ms": {traced},
    "stats_only_ms": {stats_only}
  }},
  "static_bounds": {{
    "tasks": {bound_tasks},
    "analyze_ms": {bound_analyze},
    "makespan_bound_ms": {bound_makespan},
    "bound_efficiency": {bound_efficiency},
    "reference_point": "ARK OC, evks streamed, 12.8 GB/s -- same schedule as engine_execution"
  }},
  "workload_sweep": {{
    "workload": "{workload}",
    "strategy": "{strategy}",
    "bandwidth_points": {points},
    "modes": {modes},
    "optimized_ms": {optimized},
    "baseline_ms": {baseline},
    "speedup": {speedup},
    "baseline_definition": "schedule rebuilt per bandwidth point + full per-task tracing (pre-overhaul run_job behavior)"
  }},
  "analytic_sweep": {{
    "workload": "{a_workload}",
    "strategy": "{a_strategy}",
    "bandwidth_points": {a_points},
    "modes": {a_modes},
    "segments": {a_segments},
    "engine_path_ms": {a_engine},
    "analytic_ms": {a_analytic},
    "analytic_speedup": {a_speedup},
    "engine_path_definition": "try_workload_sweep_in per point (warm schedule cache, stats-only) -- the PR-5 optimized_ms behavior"
  }},
  "serving": {{
    "num_devices": {serving_devices},
    "requests": {serving_requests},
    "simulated_rps": {serving_rps},
    "wall_ms": {serving_wall},
    "wall_us_per_request": {serving_us_per_request},
    "reference_point": "standard ARK mix, closed loop c=8, OC, 4 RPUs @ 64 GB/s, warm schedule cache"
  }},
  "resilience": {{
    "num_devices": {resilience_devices},
    "requests": {resilience_requests},
    "goodput_fraction": {resilience_goodput},
    "retries": {resilience_retries},
    "wasted_seconds": {resilience_wasted},
    "wall_ms": {resilience_wall},
    "fault_plan": "random crashes (MTBF 40 ticks, MTTR 5), 2% transient failures, capped-backoff retries x8, open admission"
  }}
}}
"#,
            threads = self.threads,
            iterations = self.iterations,
            schedules = g.schedules,
            gen_total = json_f64(g.total_ms),
            tasks = e.tasks,
            traced = json_f64(e.traced_ms),
            stats_only = json_f64(e.stats_only_ms),
            bound_tasks = b.tasks,
            bound_analyze = json_f64(b.analyze_ms),
            bound_makespan = json_f64(b.makespan_bound_ms),
            bound_efficiency = json_f64(b.bound_efficiency),
            workload = json_escape(&w.workload),
            strategy = json_escape(&w.strategy),
            points = w.bandwidth_points,
            modes = w.modes,
            optimized = json_f64(w.optimized_ms),
            baseline = json_f64(w.baseline_ms),
            speedup = json_f64(w.speedup()),
            a_workload = json_escape(&a.workload),
            a_strategy = json_escape(&a.strategy),
            a_points = a.bandwidth_points,
            a_modes = a.modes,
            a_segments = a.segments,
            a_engine = json_f64(a.engine_path_ms),
            a_analytic = json_f64(a.analytic_ms),
            a_speedup = json_f64(a.speedup()),
            serving_devices = s.num_devices,
            serving_requests = s.requests,
            serving_rps = json_f64(s.simulated_rps),
            serving_wall = json_f64(s.wall_ms),
            serving_us_per_request = json_f64(s.wall_us_per_request()),
            resilience_devices = r.num_devices,
            resilience_requests = r.requests,
            resilience_goodput = json_f64(r.goodput_fraction),
            resilience_retries = r.retries,
            resilience_wasted = json_f64(r.wasted_seconds),
            resilience_wall = json_f64(r.wall_ms),
        )
    }

    /// Renders the human-readable summary printed to stdout.
    pub fn render_text(&self) -> String {
        let g = &self.schedule_generation;
        let e = &self.engine_execution;
        let b = &self.static_bounds;
        let w = &self.workload_sweep;
        let a = &self.analytic_sweep;
        let s = &self.serving;
        let r = &self.resilience;
        format!(
            "schedule generation : {} schedules in {:.2} ms ({:.3} ms each)\n\
             engine execution    : {} tasks, traced {:.3} ms, stats-only {:.3} ms\n\
             static bounds       : {} tasks analyzed in {:.3} ms, bound {:.3} ms \
             ({:.1}% of achieved)\n\
             workload sweep      : {} x {} points x {} modes\n\
             \x20 optimized {:.2} ms vs baseline {:.2} ms -> {:.2}x speedup\n\
             analytic sweep      : {} x {} points x {} modes, {} segments\n\
             \x20 engine path {:.2} ms vs analytic {:.2} ms -> {:.2}x speedup\n\
             serving             : {} req on {} RPUs, {:.1} simulated req/s\n\
             \x20 host {:.2} ms per run ({:.1} us per simulated request)\n\
             resilience          : {} req on {} RPUs under the standard fault plan\n\
             \x20 {:.1}% goodput retained, {} retries, {:.3} s wasted, host {:.2} ms per run\n",
            g.schedules,
            g.total_ms,
            g.total_ms / g.schedules as f64,
            e.tasks,
            e.traced_ms,
            e.stats_only_ms,
            b.tasks,
            b.analyze_ms,
            b.makespan_bound_ms,
            100.0 * b.bound_efficiency,
            w.workload,
            w.bandwidth_points,
            w.modes,
            w.optimized_ms,
            w.baseline_ms,
            w.speedup(),
            a.workload,
            a.bandwidth_points,
            a.modes,
            a.segments,
            a.engine_path_ms,
            a.analytic_ms,
            a.speedup(),
            s.requests,
            s.num_devices,
            s.simulated_rps,
            s.wall_ms,
            s.wall_us_per_request(),
            r.requests,
            r.num_devices,
            100.0 * r.goodput_fraction,
            r.retries,
            r.wasted_seconds,
            r.wall_ms,
        )
    }
}

/// Checks structural balance of a hand-rolled JSON document: braces and
/// brackets count only *outside* string literals (an escaped name may
/// legitimately contain `{`, `}` or `\"`), and every string must be
/// closed. Shared by the perf-report and serving-gallery validators.
pub(crate) fn check_structure(json: &str) -> Result<(), String> {
    let mut depth = 0i64;
    let mut bracket_depth = 0i64;
    let mut in_string = false;
    let mut string_escape = false;
    for c in json.chars() {
        if in_string {
            match c {
                _ if string_escape => string_escape = false,
                '\\' => string_escape = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced braces".to_string());
                }
            }
            '[' => bracket_depth += 1,
            ']' => {
                bracket_depth -= 1;
                if bracket_depth < 0 {
                    return Err("unbalanced brackets".to_string());
                }
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err("unbalanced braces".to_string());
    }
    if bracket_depth != 0 {
        return Err("unbalanced brackets".to_string());
    }
    if in_string {
        return Err("unbalanced quotes".to_string());
    }
    Ok(())
}

/// Validates a rendered `BENCH_simulator.json` document: every schema key is
/// present, braces and quotes balance, and the speedup field parses as a
/// positive number. Returns a description of the first problem found.
pub fn validate_json(json: &str) -> Result<(), String> {
    for key in [
        "\"schema\": \"ciflow.perf_report.v5\"",
        "\"threads\"",
        "\"iterations\"",
        "\"schedule_generation\"",
        "\"schedules\"",
        "\"total_ms\"",
        "\"engine_execution\"",
        "\"tasks\"",
        "\"traced_ms\"",
        "\"stats_only_ms\"",
        "\"static_bounds\"",
        "\"analyze_ms\"",
        "\"makespan_bound_ms\"",
        "\"bound_efficiency\"",
        "\"workload_sweep\"",
        "\"workload\"",
        "\"strategy\"",
        "\"bandwidth_points\"",
        "\"modes\"",
        "\"optimized_ms\"",
        "\"baseline_ms\"",
        "\"speedup\"",
        "\"baseline_definition\"",
        "\"analytic_sweep\"",
        "\"segments\"",
        "\"engine_path_ms\"",
        "\"analytic_ms\"",
        "\"analytic_speedup\"",
        "\"engine_path_definition\"",
        "\"serving\"",
        "\"num_devices\"",
        "\"requests\"",
        "\"simulated_rps\"",
        "\"wall_ms\"",
        "\"wall_us_per_request\"",
        "\"reference_point\"",
        "\"resilience\"",
        "\"goodput_fraction\"",
        "\"retries\"",
        "\"wasted_seconds\"",
        "\"fault_plan\"",
    ] {
        if !json.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    check_structure(json)?;
    let speedup: f64 = json
        .split("\"speedup\": ")
        .nth(1)
        .and_then(|rest| rest.split([',', '\n']).next())
        .ok_or("speedup field not found")?
        .trim()
        .parse()
        .map_err(|e| format!("speedup does not parse: {e}"))?;
    if speedup.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(format!("speedup {speedup} is not positive"));
    }
    let analytic_speedup: f64 = json
        .split("\"analytic_speedup\": ")
        .nth(1)
        .and_then(|rest| rest.split([',', '\n']).next())
        .ok_or("analytic_speedup field not found")?
        .trim()
        .parse()
        .map_err(|e| format!("analytic_speedup does not parse: {e}"))?;
    if analytic_speedup.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(format!(
            "analytic_speedup {analytic_speedup} is not positive"
        ));
    }
    let bound_efficiency: f64 = json
        .split("\"bound_efficiency\": ")
        .nth(1)
        .and_then(|rest| rest.split([',', '\n']).next())
        .ok_or("bound_efficiency field not found")?
        .trim()
        .parse()
        .map_err(|e| format!("bound_efficiency does not parse: {e}"))?;
    if !(bound_efficiency > 0.0 && bound_efficiency <= 1.0) {
        return Err(format!(
            "bound_efficiency {bound_efficiency} is outside (0, 1] — the bound is \
             sound, so it can never exceed the achieved runtime"
        ));
    }
    let simulated_rps: f64 = json
        .split("\"simulated_rps\": ")
        .nth(1)
        .and_then(|rest| rest.split([',', '\n']).next())
        .ok_or("simulated_rps field not found")?
        .trim()
        .parse()
        .map_err(|e| format!("simulated_rps does not parse: {e}"))?;
    if simulated_rps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(format!("simulated_rps {simulated_rps} is not positive"));
    }
    let goodput_fraction: f64 = json
        .split("\"goodput_fraction\": ")
        .nth(1)
        .and_then(|rest| rest.split([',', '\n']).next())
        .ok_or("goodput_fraction field not found")?
        .trim()
        .parse()
        .map_err(|e| format!("goodput_fraction does not parse: {e}"))?;
    if !(goodput_fraction > 0.0 && goodput_fraction <= 1.0) {
        return Err(format!(
            "goodput_fraction {goodput_fraction} is outside (0, 1] — downtime and \
             rework can only stretch the faulted makespan"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_matches_the_schema() {
        // One iteration over a two-point ladder keeps the test cheap while
        // exercising the whole measurement and rendering path.
        let report = measure_with_ladder(1, &[8.0, 64.0]);
        assert_eq!(report.schedule_generation.schedules, 15);
        assert!(report.engine_execution.tasks > 0);
        assert!(report.engine_execution.traced_ms > 0.0);
        assert!(report.engine_execution.stats_only_ms > 0.0);
        assert_eq!(report.static_bounds.tasks, report.engine_execution.tasks);
        assert!(report.static_bounds.analyze_ms > 0.0);
        assert!(report.static_bounds.makespan_bound_ms > 0.0);
        assert!(
            report.static_bounds.bound_efficiency > 0.0
                && report.static_bounds.bound_efficiency <= 1.0,
            "soundness: bound must not exceed the achieved runtime ({})",
            report.static_bounds.bound_efficiency
        );
        assert!(report.workload_sweep.optimized_ms > 0.0);
        assert!(report.workload_sweep.baseline_ms > 0.0);
        assert!(report.workload_sweep.speedup() > 0.0);
        assert_eq!(report.analytic_sweep.bandwidth_points, 32);
        assert_eq!(report.analytic_sweep.modes, 2);
        assert!(report.analytic_sweep.segments >= 2);
        assert!(report.analytic_sweep.engine_path_ms > 0.0);
        assert!(report.analytic_sweep.analytic_ms > 0.0);
        assert!(report.analytic_sweep.speedup() > 0.0);
        assert_eq!(report.serving.num_devices, 4);
        assert_eq!(report.serving.requests, 96);
        assert!(report.serving.simulated_rps > 0.0);
        assert!(report.serving.wall_ms > 0.0);
        assert!(report.serving.wall_us_per_request() > 0.0);
        assert_eq!(report.resilience.num_devices, 4);
        assert_eq!(report.resilience.requests, 96);
        assert!(
            report.resilience.goodput_fraction > 0.0 && report.resilience.goodput_fraction <= 1.0,
            "faults can only cost goodput ({})",
            report.resilience.goodput_fraction
        );
        assert!(report.resilience.wall_ms > 0.0);
        let json = report.to_json();
        validate_json(&json).expect("rendered report must satisfy its schema");
        assert!(!report.render_text().is_empty());
    }

    #[test]
    fn string_fields_are_json_escaped() {
        let mut report = measure_with_ladder(1, &[8.0]);
        report.workload_sweep.workload = "a\"b\\c\nd".to_string();
        let json = report.to_json();
        assert!(json.contains(r#""workload": "a\"b\\c\nd""#));
        validate_json(&json).expect("escaped names keep the document valid");
        // Braces inside string values are data, not structure.
        report.workload_sweep.workload = "a{b}}c{".to_string();
        validate_json(&report.to_json()).expect("braces in names keep the document valid");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let report = measure_with_ladder(1, &[8.0]);
        let json = report.to_json();
        assert!(validate_json(&json.replace("speedup", "slowdown")).is_err());
        assert!(validate_json(&json.replace('}', "")).is_err());
        assert!(validate_json("").is_err());
        let broken = json.replace(
            &format!("\"speedup\": {:.4}", report.workload_sweep.speedup()),
            "\"speedup\": -1.0",
        );
        assert!(validate_json(&broken).is_err());
        let broken = json.replace(
            &format!(
                "\"analytic_speedup\": {:.4}",
                report.analytic_sweep.speedup()
            ),
            "\"analytic_speedup\": 0.0",
        );
        assert!(validate_json(&broken).is_err());
        let broken = json.replace(
            &format!(
                "\"goodput_fraction\": {:.4}",
                report.resilience.goodput_fraction
            ),
            "\"goodput_fraction\": 1.5",
        );
        assert!(
            validate_json(&broken).is_err(),
            "goodput above the fault-free bound must be rejected"
        );
    }
}
