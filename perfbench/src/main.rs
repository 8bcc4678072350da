//! End-to-end and per-layer host-time benchmark of the CiFlow simulator
//! stack. See `README.md` in this directory for the workloads, the metrics
//! and what each layer metric should move.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!           [--reference <file>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every end-to-end time
//! is process CPU time summed over all threads, so hypervisor steal and
//! run-queue waits on a shared host do not count; `--seconds` is wall-clock
//! time. Run metadata, the per-layer table and the tracing overhead go to
//! standard error; a traced run also writes a Chrome trace-event file and
//! the table under `.bench_out/`.

mod probes;
mod trace;
mod workloads;

use probes::{median, quantile, Metric};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Bench, CallResult, Digest};

/// The seed whose digests are committed in `reference.txt`.
const DEFAULT_SEED: u64 = 1;
/// Fresh set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics in the order `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_per_cpu_s", "1/s"),
    ("call_cpu_p50_ms", "ms"),
    ("call_cpu_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reference: concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt").into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--reference" => args.reference = value.clone().into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

/// The committed digest for `(workload, seed)`, if the reference file has
/// one. Lines read `<workload> <seed> <hex digest>`; `#` starts a comment.
fn reference_digest(text: &str, workload: &str, seed: u64) -> Result<Option<Digest>, String> {
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [] => {}
            [w, s, hex] if *w == workload && s.parse() == Ok(seed) => {
                return u64::from_str_radix(hex, 16)
                    .map(|d| Some(Digest(d)))
                    .map_err(|_| format!("bad digest {hex:?} in the reference file"));
            }
            [_, _, _] => {}
            _ => return Err(format!("malformed reference line {line:?}")),
        }
    }
    Ok(None)
}

/// Calls made in one timed phase.
struct Phase {
    /// CPU milliseconds of each call.
    call_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    failed: usize,
}

/// Calls `call` until `seconds` of wall-clock time have passed, timing each
/// call in CPU time and checking every digest against `expected`.
fn timed_phase(seconds: f64, expected: Digest, mut call: impl FnMut() -> CallResult) -> Phase {
    let start = Instant::now();
    let cpu_start = process_cpu_s();
    let mut phase = Phase {
        call_ms: Vec::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        failed: 0,
    };
    loop {
        let c0 = process_cpu_s();
        let result = std::hint::black_box(call());
        phase.call_ms.push((process_cpu_s() - c0) * 1e3);
        if let Some(problem) = check(&result, expected) {
            if phase.failed == 0 {
                eprintln!("perfbench: call {} failed: {problem}", phase.call_ms.len());
            }
            phase.failed += 1;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.cpu_s = process_cpu_s() - cpu_start;
    phase
}

/// CPU seconds this process has used so far, summed over all its threads,
/// ended ones included (the program's fan-out runs on scoped threads).
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

fn check(result: &CallResult, expected: Digest) -> Option<String> {
    match result {
        Ok(d) if *d == expected => None,
        Ok(d) => Some(format!(
            "digest {:016x} != expected {:016x}",
            d.0, expected.0
        )),
        Err(e) => Some(e.clone()),
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (the benchmark may run from a copy that is not a git repository).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git)".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn json_metrics(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn emit(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        json_metrics(metrics)
    );
}

/// Limits glibc malloc to one arena. The program's fan-out starts fresh
/// threads for every parallel map, and which per-thread arena each one gets
/// made the peak resident set of the same run vary by a third.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: called before any other thread exists; only sets a malloc tunable.
    unsafe { mallopt(M_ARENA_MAX, 1) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            emit(false, 1, 1, &[]);
            ExitCode::FAILURE
        }
    }
}

/// Runs one benchmark invocation; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, String> {
    let reference_text = std::fs::read_to_string(&args.reference)
        .map_err(|e| format!("cannot read {}: {e}", args.reference.display()))?;
    let reference = reference_digest(&reference_text, &args.workload, args.seed)?;
    if reference.is_none() && args.seed == DEFAULT_SEED {
        return Err(format!(
            "no reference digest for {} seed {DEFAULT_SEED}",
            args.workload
        ));
    }
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    // Set-up, several times from scratch; each ends with one warm-up call.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench: Option<Box<dyn Bench>> = None;
    let mut warm_digests = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        drop(bench.take());
        let c0 = process_cpu_s();
        let fresh = workloads::setup(&args.workload, args.seed)?;
        let warm = fresh
            .call()
            .map_err(|e| format!("warm-up call failed: {e}"))?;
        setup_s.push(process_cpu_s() - c0);
        warm_digests.push(warm);
        bench = Some(fresh);
    }
    let bench = bench.expect("at least one set-up");
    let setup_rss_mib = peak_rss_mib();
    let expected = reference.unwrap_or(warm_digests[0]);
    let mut attempted = warm_digests.len();
    let mut failed = warm_digests.iter().filter(|&&d| d != expected).count();
    if failed > 0 {
        eprintln!(
            "perfbench: warm-up digest {:016x} != expected {:016x}",
            warm_digests[0].0, expected.0
        );
    }

    let plain_seconds = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let plain = timed_phase(plain_seconds, expected, || bench.call());
    attempted += plain.call_ms.len();
    failed += plain.failed;
    let units = bench.units_per_call() as f64;
    let work_per_cpu_s = |p: &Phase| units * p.call_ms.len() as f64 / p.cpu_s;
    let work_per_wall_s = |p: &Phase| units * p.call_ms.len() as f64 / p.wall_s;

    let meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{threads},\
         \"fanout_threads\":{threads},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\
         \"setups\":{SETUPS},\"calls\":{},\"unit\":\"{}\",\"units_per_call\":{units},\
         \"digest\":\"{:016x}\"}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        commit(),
        plain.call_ms.len(),
        bench.unit(),
        warm_digests[0].0,
    );
    eprintln!("# run {meta}");
    eprintln!(
        "# calls {} (CPU p50 {:.3} ms, p90 {:.3} ms over {} samples), {:.1} units per CPU s \
         and {:.1} per wall s, set-ups {:?} CPU s, peak RSS {setup_rss_mib:.1} MiB after set-up",
        plain.call_ms.len(),
        quantile(&plain.call_ms, 0.5),
        quantile(&plain.call_ms, 0.9),
        plain.call_ms.len(),
        work_per_cpu_s(&plain),
        work_per_wall_s(&plain),
        setup_s
    );

    if !args.trace {
        let values = [
            median(&setup_s),
            work_per_cpu_s(&plain),
            quantile(&plain.call_ms, 0.5),
            quantile(&plain.call_ms, 0.9),
            peak_rss_mib(),
        ];
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect();
        emit(failed == 0, attempted, failed, &metrics);
        return Ok(failed == 0);
    }

    // Traced run: the same calls split into layer calls, then the probes.
    let mut tracer = Tracer::new();
    let traced = timed_phase(args.seconds - plain_seconds, expected, || {
        tracer.span("call", |t| bench.traced_call(t))
    });
    attempted += traced.call_ms.len();
    failed += traced.failed;
    let metrics = probes::run(&mut tracer, threads)?;

    let p50 = |p: &Phase| quantile(&p.call_ms, 0.5);
    let overhead = format!(
        "# tracing overhead: call CPU p50 {:.3} ms traced vs {:.3} ms plain ({:+.1}%), \
         work {:.1}/CPU s traced vs {:.1}/CPU s plain ({:+.1}%); {} traced and {} plain calls",
        p50(&traced),
        p50(&plain),
        100.0 * (p50(&traced) / p50(&plain) - 1.0),
        work_per_cpu_s(&traced),
        work_per_cpu_s(&plain),
        100.0 * (work_per_cpu_s(&traced) / work_per_cpu_s(&plain) - 1.0),
        traced.call_ms.len(),
        plain.call_ms.len(),
    );
    let mut report = format!("{overhead}\n# per-layer spans\n");
    report += &format!(
        "{:<10} {:<28} {:>8} {:>12} {:>12} {:>8}\n",
        "root", "span", "count", "total_ms", "self_ms", "share"
    );
    for row in tracer.table() {
        report += &format!(
            "{:<10} {:<28} {:>8} {:>12.3} {:>12.3} {:>7.1}%\n",
            row.root,
            row.name,
            row.count,
            row.total_ms,
            row.self_ms,
            100.0 * row.share
        );
    }
    report += "# per-layer metrics\n";
    for (name, unit, value) in &metrics {
        report += &format!("{name:<28} {value:>14.4} {unit}\n");
    }
    eprint!("{report}");
    let stem = format!("{OUT_DIR}/{}-seed{}", args.workload, args.seed);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| {
            std::fs::write(
                format!("{stem}.layers.txt"),
                format!("# run {meta}\n{report}"),
            )
        })
        .and_then(|()| tracer.write_chrome(std::path::Path::new(&format!("{stem}.trace.json"))))
        .map_err(|e| format!("cannot write {stem}.*: {e}"))?;
    eprintln!("# wrote {stem}.trace.json and {stem}.layers.txt");

    emit(failed == 0, attempted, failed, &metrics);
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lines_parse_and_select_by_workload_and_seed() {
        let text = "# comment\nkeyswitch 1 00000000000000ff\ndense-ladder 1 10\n\n";
        assert_eq!(
            reference_digest(text, "keyswitch", 1),
            Ok(Some(Digest(0xff)))
        );
        assert_eq!(
            reference_digest(text, "dense-ladder", 1),
            Ok(Some(Digest(0x10)))
        );
        assert_eq!(reference_digest(text, "keyswitch", 2), Ok(None));
        assert!(reference_digest("keyswitch 1", "keyswitch", 1).is_err());
        assert!(reference_digest("keyswitch 1 xyz", "keyswitch", 1).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(&probes::METRICS) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let found = spec[at..]
                .find(&entry)
                .unwrap_or_else(|| panic!("{entry} is missing or out of order"));
            at += found + entry.len();
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }
}
