//! `perfbench --workload drivers|bluetooth --seed N --seconds S --trace 0|1`
//!
//! Closed loop, one process, one thread, one case at a time. Set-up
//! (corpus generation, source rendering and one warm-up pass) runs
//! [`SETUP_REPS`] times and is not timed as work: once before the first
//! timed pass, the other times spread evenly between the timed passes.
//! Whole passes over the corpus run until their walls add up to
//! `--seconds` (at least [`MIN_PASSES`]).
//! Every verdict is checked against the generator's answer and every
//! witness is replayed; failing cases are named. Times are reported at a
//! reference host speed, from probes of the host between cases (see
//! `host.rs`).
//!
//! With `--trace 0` the last line reports the end-to-end metrics. With
//! `--trace 1`, passes alternate between traced and untraced, the last line
//! reports the per-layer metrics, and all spans are written to
//! `perfbench/out/`.

use getafix_perfbench::corpus::{self, Case, Scale, Workload};
use getafix_perfbench::host::{speed_factor, HostProbe};
use getafix_perfbench::pipeline::{verdict_word, PEAK_ARENA_BYTES};
use getafix_perfbench::report::{case_ms, end_to_end, median, per_layer, result_json, Pass};
use getafix_perfbench::run_pass;
use getafix_perfbench::trace::Tracer;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions, spread over the run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds: must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// High-water resident set of this process, from `/proc/self/status`.
fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024)
}

/// One set-up's wall (probes excluded) and the factor that scales it to
/// the reference host speed.
struct SetUp {
    wall: Duration,
    speed: f64,
}

/// `xs` to three decimals, space-separated.
fn joined(xs: impl Iterator<Item = f64>) -> String {
    xs.map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ")
}

/// Generates and renders the corpus, then runs one untraced warm-up pass.
/// Returns the corpus; records the set-up in `setup` and warm-up failures
/// in `errors`.
fn set_up(
    args: &Args,
    probe: &mut HostProbe,
    setup: &mut Vec<SetUp>,
    errors: &mut Vec<String>,
) -> Vec<Case> {
    let t0 = Instant::now();
    let corpus = corpus::build(args.workload, args.seed, Scale::Full);
    let generated = t0.elapsed();
    let warm = run_pass(&corpus, &mut Tracer::new(false), Some(probe));
    setup.push(SetUp { wall: generated + warm.wall(), speed: speed_factor(warm.probe_ms) });
    errors.extend(warm.runs.iter().filter_map(|r| {
        r.outcome.error.as_ref().map(|e| format!("warm-up {}: {e}", corpus[r.case].name))
    }));
    corpus
}

fn run(args: &Args) -> Result<String, String> {
    let mut probe = HostProbe::new();
    let mut setup = Vec::new();
    let mut errors = Vec::new();
    let mut corpus = set_up(args, &mut probe, &mut setup, &mut errors);
    println!(
        "perfbench workload={} seed={} cases={} trace={}",
        args.workload.name(),
        args.seed,
        corpus.len(),
        u8::from(args.trace)
    );
    let mut tracer = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut timed = Duration::ZERO;
    while passes.len() < MIN_PASSES || timed < budget {
        // Set-up `k` is due once the timed passes reach k/SETUP_REPS of
        // the budget.
        if setup.len() < SETUP_REPS
            && timed >= budget.mul_f64(setup.len() as f64 / SETUP_REPS as f64)
        {
            corpus = set_up(args, &mut probe, &mut setup, &mut errors);
            continue;
        }
        let traced = args.trace && passes.len().is_multiple_of(2);
        tracer.set_on(traced);
        let first_span = tracer.spans().len();
        let mut pass = run_pass(&corpus, &mut tracer, Some(&mut probe));
        if !passes.is_empty() {
            // Only the first pass's counters are reported. Dropping the
            // others keeps the benchmark's own records from raising the
            // process's peak RSS with the number of passes.
            pass.runs.iter_mut().for_each(|r| r.outcome.counts.clear());
        }
        let wall = pass.wall();
        timed += wall;
        passes.push(Pass {
            traced,
            wall,
            spans: first_span..tracer.spans().len(),
            speed: speed_factor(pass.probe_ms),
            runs: pass.runs,
        });
    }
    while setup.len() < SETUP_REPS {
        corpus = set_up(args, &mut probe, &mut setup, &mut errors);
    }
    let setup_s: Vec<f64> = setup.iter().map(|s| s.wall.as_secs_f64() * s.speed).collect();
    println!("set-ups (s): {}", joined(setup.iter().map(|s| s.wall.as_secs_f64())));
    println!("set-ups (s at reference speed): {}", joined(setup_s.iter().copied()));
    println!("pass speed factors: {}", joined(passes.iter().map(|p| p.speed)));

    let scaled = case_ms(&passes);
    for (i, c) in corpus.iter().enumerate() {
        let lat: Vec<f64> = passes.iter().map(|p| p.runs[i].wall.as_secs_f64() * 1e3).collect();
        println!(
            "case {} expect={} source=fnv1a:{:016x} bytes={} ms={:.3} raw_best_ms={:.3} \
             raw_median_ms={:.3} arena_b={}",
            c.name,
            verdict_word(c.expect_reachable),
            c.source_hash(),
            c.source.len(),
            scaled[i],
            lat.iter().copied().fold(f64::INFINITY, f64::min),
            median(&lat),
            passes[0].runs[i].outcome.counts.get(PEAK_ARENA_BYTES).copied().unwrap_or(0)
        );
    }
    let attempted = passes.iter().map(|p| p.runs.len()).sum::<usize>();
    for r in passes.iter().flat_map(|p| &p.runs) {
        if let Some(e) = &r.outcome.error {
            errors.push(format!("{}: {e}", corpus[r.case].name));
        }
    }
    let failed = passes.iter().flat_map(|p| &p.runs).filter(|r| r.outcome.error.is_some()).count();
    errors.sort();
    errors.dedup();
    for e in &errors {
        println!("FAILED {e}");
    }
    println!(
        "passes={} timed={:.3}s failed_frac={} ratio",
        passes.len(),
        timed.as_secs_f64(),
        failed as f64 / attempted as f64
    );

    let metrics = if args.trace {
        let path = format!(
            "{}/out/spans-{}-seed{}.json",
            env!("CARGO_MANIFEST_DIR"),
            args.workload.name(),
            args.seed
        );
        std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
            .and_then(|()| std::fs::write(&path, tracer.to_json()))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("spans written to {path}");
        per_layer(&passes, &tracer)
    } else {
        // The probe's tables are resident for the whole run; the program's
        // high-water mark is what lies above it.
        end_to_end(&passes, &setup_s, peak_rss_bytes()?.saturating_sub(probe.bytes()))
    };
    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(result_json(errors.is_empty(), attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
