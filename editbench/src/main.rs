//! `editbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path editbench/Cargo.toml -- \
//!     --workload query_13k|edit_figure1|page_server --seed N --seconds N --trace 0|1
//! ```
//!
//! Replays seeded editor traces as a closed loop (one client thread, each
//! event issued after the previous one returned) and prints every metric by
//! name and unit, then one JSON line with the result. `--seconds` sets how
//! many traces a run replays (`Workload::traces`), so a run's work depends
//! on its arguments alone. `--trace 0` measures
//! the end-to-end metrics with no tracing; `--trace 1` is the separate
//! traced run that times each layer call from this package and re-runs
//! every cold completion through the phase functions.
//!
//! The run fails, and exits non-zero, on any failed event: an error
//! response, an event on an unopened point, a truncated completion, a
//! digest that differs from the recorded one (or, for a trace the table
//! lacks, from a reference replay), a traced shadow run that does
//! not reproduce its timed answer, or a Table 2 count that differs from the
//! recorded one.

mod affinity;
mod digest;
mod layers;
mod quality;
mod replay;
mod spans;
mod stats;
mod workload;

use std::cell::OnceCell;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use insynth_bench::replay::{replay_library as reference_replay, trace_environment};
use insynth_core::TypeEnv;

use layers::{Layers, END_TO_END, LAYER_METRICS};
use replay::{replay, PassOutcome, Traced};
use spans::Tracer;
use stats::{median, ms, per_event_min, Samples};
use workload::{timed_set_up, workload, Path, PreparedTrace, Workload, WORKLOADS};

/// Set-up runs at least this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

const USAGE: &str = "usage: editbench --workload NAME --seed N --seconds N --trace 0|1";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload_name = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload_name = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let name = workload_name.ok_or("--workload is required")?;
    let workload = workload(&name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("editbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The digest a trace the table lacks is checked against: a replay through
/// `insynth_bench::replay::replay_library`, the repository's own library
/// client, run after the timed passes.
struct Reference {
    workload: &'static Workload,
    ambient: OnceCell<TypeEnv>,
}

impl Reference {
    fn new(workload: &'static Workload) -> Reference {
        Reference {
            workload,
            ambient: OnceCell::new(),
        }
    }

    fn digest(&self, trace: &PreparedTrace) -> u64 {
        let ambient = self
            .ambient
            .get_or_init(|| trace_environment(self.workload.env_spec()));
        reference_replay(&trace.trace, ambient, 1).digest
    }
}

/// Checks that every pass of `trace` digested alike and as recorded, or,
/// when the table lacks the trace, as a reference replay does; prints the
/// trace's table line and status.
fn check_digests(reference: &Reference, trace: &PreparedTrace, digests: &[u64]) -> bool {
    let workload = reference.workload;
    let digest = digests[0];
    let line = digest::table_line(workload.name, trace.trace_seed, workload.events, digest);
    let (status, ok) = match digest::recorded(workload.name, trace.trace_seed, workload.events) {
        _ if digests.iter().any(|&d| d != digest) => ("DIFFERS BETWEEN PASSES", false),
        Some(recorded) if recorded == digest => ("recorded", true),
        Some(_) => ("DIFFERS FROM RECORDED", false),
        None if reference.digest(trace) == digest => ("unrecorded, as the reference replay", true),
        None => ("UNRECORDED, DIFFERS FROM THE REFERENCE REPLAY", false),
    };
    println!("digest\t{line}\t{status}");
    if !ok {
        eprintln!(
            "editbench: trace {}: digests {digests:016x?} {status}",
            trace.trace_seed
        );
    }
    ok
}

/// Everything a run prints in its last line.
struct RunResult {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Prints the result and reports whether the run passed.
    fn finish(mut self) -> bool {
        if self.metrics.iter().any(|(_, _, v)| !v.is_finite()) {
            eprintln!("editbench: a metric has no value");
            self.correct = false;
            for metric in &mut self.metrics {
                if !metric.2.is_finite() {
                    metric.2 = 0.0;
                }
            }
        }
        self.correct &= self.failed == 0;
        println!(
            "{:<28} {:>12} ({} of {} events and queries)",
            "failed_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!("{}", self.to_json());
        self.correct
    }
}

fn timed_run(args: &Args) -> bool {
    let w = args.workload;
    let traces = w.traces(args.seconds);
    println!(
        "workload {} ({} path), seed {}, {traces} traces of {} events, {} timed passes each after one untimed warm-up pass, closed loop, 1 client",
        w.name,
        w.path.name(),
        args.seed,
        w.events,
        w.repeats
    );
    let cpus = affinity::allowed();
    println!("passes pinned in turn to CPUs {cpus:?}");
    let (setup, first) = timed_set_up(w, args.seed, traces, &[w.path]);
    let mut setup_times = vec![first];

    // Round-robin over the traces, so the passes of one trace lie a round
    // apart and run on different CPUs: other tenants of the host slow each
    // CPU by up to 1.5x, independently and for seconds at a time, and a
    // slow spell then lands on one pass of an event rather than on all of
    // them. The set-up repetitions are spread the same way: one before each
    // later round, the rest after the last.
    let mut passes: Vec<Vec<PassOutcome>> = setup.iter().map(|_| Vec::new()).collect();
    // One untimed pass first, so the heap has grown and the code is paged in
    // before any timed pass: the first round otherwise ran up to 1.7x slower.
    drop(replay(w.path, &setup[0], None));
    for round in 0..w.repeats as usize {
        if round > 0 {
            setup_times.push(timed_set_up(w, args.seed, traces, &[w.path]).1);
        }
        for (index, (trace, outcomes)) in setup.iter().zip(&mut passes).enumerate() {
            if !cpus.is_empty() {
                affinity::pin(&[cpus[(round + index) % cpus.len()]]);
            }
            outcomes.push(replay(w.path, trace, None));
        }
    }
    affinity::pin(&cpus);
    while setup_times.len() < SETUP_REPEATS {
        setup_times.push(timed_set_up(w, args.seed, traces, &[w.path]).1);
    }
    let peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);

    let (mut complete, mut edit) = (Vec::new(), Vec::new());
    let (mut events, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let (mut busy, mut wall) = (0u64, 0f64);
    let mut teardown = 0f64;
    let reference = Reference::new(w);
    for (trace, outcomes) in setup.iter().zip(&passes) {
        let digests: Vec<u64> = outcomes.iter().map(|o| o.digest).collect();
        let trace_events = trace.trace.events.len() as u64;
        if !check_digests(&reference, trace, &digests) {
            failed += trace_events * w.repeats;
        }
        for outcome in outcomes {
            attempted += outcome.events;
            failed += outcome.failed;
            teardown += outcome.teardown.as_secs_f64();
        }
        let walls: Vec<f64> = outcomes.iter().map(|o| o.wall.as_secs_f64()).collect();
        wall += median(&walls);
        events += trace_events;
        let column = |f: fn(&PassOutcome) -> &[u64]| {
            per_event_min(&outcomes.iter().map(f).collect::<Vec<_>>())
        };
        match (
            column(|o| &o.complete),
            column(|o| &o.edit),
            column(|o| &o.event),
        ) {
            (Some(c), Some(e), Some(laps)) => {
                complete.extend(c);
                edit.extend(e);
                busy += laps.iter().sum::<u64>();
            }
            _ => failed += trace_events,
        }
    }
    drop(setup);

    println!(
        "teardown: {teardown:.3} s dropping the {} passes' engines, outside the timed loops",
        traces * w.repeats
    );
    let quality = quality::paper_pass();
    if !quality.matches_recorded() {
        eprintln!(
            "editbench: Table 2 counts {}/{} differ from the recorded {}/{}",
            quality.top10,
            quality.rank1,
            quality::RECORDED_TOP10,
            quality::RECORDED_RANK1
        );
    }

    let complete = Samples::new(complete);
    let edit = Samples::new(edit);
    let p50 = |s: &Samples| s.p50().map_or(f64::NAN, ms);
    let tail = |s: &Samples| s.tail().map_or(f64::NAN, |t| ms(t.nanos));
    let describe_tail = |s: &Samples| match s.tail() {
        Some(t) if t.beyond > 0 => {
            format!("p{:.3} of {}, {} beyond", t.percentile, s.len(), t.beyond)
        }
        Some(_) => format!("maximum of {} (too few for a tail with 10 beyond)", s.len()),
        None => "no samples".to_string(),
    };
    let table2 = format!("of {} Table 2 queries", quality.queries);
    let values = [
        (
            "events_per_s",
            events as f64 / (busy as f64 / 1e9),
            format!(
                "{events} events in {:.3} s (each event's fastest loop time of {} passes; median pass walls add up to {wall:.3} s)",
                busy as f64 / 1e9,
                w.repeats
            ),
        ),
        (
            "complete_p50_ms",
            p50(&complete),
            format!("p50 of {} completions (per-event minima)", complete.len()),
        ),
        (
            "complete_tail_ms",
            tail(&complete),
            describe_tail(&complete),
        ),
        (
            "edit_p50_ms",
            p50(&edit),
            format!("p50 of {} opens and updates", edit.len()),
        ),
        ("edit_tail_ms", tail(&edit), describe_tail(&edit)),
        (
            "peak_rss_mb",
            peak_rss_mb,
            "VmHWM after the replay".to_string(),
        ),
        (
            "setup_s",
            median(&setup_times),
            format!("median of {setup_times:.3?}"),
        ),
        ("paper_top10", quality.top10 as f64, table2.clone()),
        ("paper_rank1", quality.rank1 as f64, table2),
    ];
    let mut metrics = Vec::new();
    for (metric, (name, value, note)) in END_TO_END.iter().zip(values) {
        assert_eq!(
            metric.name, name,
            "END_TO_END and the measured values disagree"
        );
        println!(
            "{:<28} {value:>12.4} {:<6} {:<6} {note}",
            metric.name,
            metric.unit,
            metric.better.name()
        );
        metrics.push((metric.name, metric.unit, value));
    }
    RunResult {
        attempted: attempted + quality.queries,
        failed: failed + quality.truncated,
        correct: quality.matches_recorded(),
        metrics,
    }
    .finish()
}

fn traced_run(args: &Args) -> bool {
    let w = args.workload;
    let traces = w.traces(args.seconds);
    println!(
        "traced workload {} ({} path; both paths traced), seed {}, {traces} traces of {} events, one pass per path",
        w.name,
        w.path.name(),
        args.seed,
        w.events
    );
    let both = [Path::Library, Path::Server];
    let (setup, _) = timed_set_up(w, args.seed, traces, &both);
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // The overhead figure compares each trace's traced pass on the
    // workload's own path, minus its shadow runs, with an untraced pass of
    // the same trace run just before it, both from fresh engines.
    let (mut untraced, mut traced_own) = (Duration::ZERO, Duration::ZERO);
    let reference = Reference::new(w);
    for (i, trace) in setup.iter().enumerate() {
        untraced += replay(w.path, trace, None).wall;
        let mut digests = Vec::new();
        for path in [w.path, w.path.other()] {
            tracer.begin(i as u32, path);
            let traced = Traced {
                tracer: &mut tracer,
                layers: &mut layers,
            };
            let outcome = replay(path, trace, Some(traced));
            if path == w.path {
                traced_own += outcome.wall.saturating_sub(outcome.shadow);
            }
            attempted += outcome.events;
            failed += outcome.failed;
            digests.push(outcome.digest);
        }
        // Both paths must serve the same answers as each other and as the
        // recorded untraced passes.
        if !check_digests(&reference, trace, &digests) {
            failed += 2 * trace.trace.events.len() as u64;
        }
    }
    layers.overhead_pct = 100.0 * (traced_own.as_secs_f64() / untraced.as_secs_f64() - 1.0);
    layers.spans = tracer.len() as u64;

    let spans_path = write_spans(w, args.seed, &tracer);
    println!(
        "{} spans in {spans_path}; overhead {:+.2}% ({:.3} s traced on the {} path excluding shadow runs, {:.3} s untraced)",
        tracer.len(),
        layers.overhead_pct,
        traced_own.as_secs_f64(),
        w.path.name(),
        untraced.as_secs_f64()
    );
    let mut metrics = Vec::new();
    for metric in LAYER_METRICS {
        let value = (metric.value)(&layers);
        println!(
            "{:<28} {value:>12.4} {:<6} {:<6} moves {}",
            metric.name,
            metric.unit,
            metric.better.name(),
            metric.moves
        );
        metrics.push((metric.name, metric.unit, value));
    }
    for line in layers.detail() {
        println!("{line}");
    }
    RunResult {
        attempted,
        failed,
        correct: true,
        metrics,
    }
    .finish()
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Writes the traced run's spans beside the benchmark, returning the path.
fn write_spans(w: &Workload, seed: u64, tracer: &Tracer) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{seed}.tsv", w.name);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_tsv())) {
        Ok(()) => path,
        Err(err) => {
            eprintln!("editbench: could not write {path}: {err}");
            "(not written)".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of each entry of a BENCHMARK.json list; the
    /// workloads have neither unit nor direction.
    fn listed(json: &insynth_server::Json, key: &str) -> Vec<[String; 3]> {
        let field = |m: &insynth_server::Json, f| {
            m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string()
        };
        json.get(key)
            .and_then(|v| v.as_arr())
            .expect(key)
            .iter()
            .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = insynth_server::parse_json(&text).expect("BENCHMARK.json parses");
        let entry = |name: &str, unit: &str, better: layers::Better| {
            [
                name.to_string(),
                unit.to_string(),
                better.name().to_string(),
            ]
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| entry(m.name, m.unit, m.better))
            .collect();
        let layer: Vec<_> = LAYER_METRICS
            .iter()
            .map(|m| entry(m.name, m.unit, m.better))
            .collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        assert_eq!(listed(&json, "per_layer"), layer);
        let workloads: Vec<_> = listed(&json, "workloads")
            .into_iter()
            .map(|[n, ..]| n)
            .collect();
        let ours: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload page_server --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload.name, ok.seed, ok.seconds, ok.trace),
            ("page_server", 3, 10, true)
        );
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload page_server --seed x --seconds 10")).is_err());
        assert!(parse_args(&args(
            "--workload page_server --seed 1 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--seed 1 --seconds 10")).is_err());
    }

    #[test]
    fn unrecorded_traces_are_checked_against_a_reference_replay() {
        let w = workload::workload("edit_figure1").unwrap();
        let trace = insynth_corpus::trace::generate_trace(&insynth_corpus::trace::TraceGenConfig {
            seed: 999_999,
            events: 120,
            ..(w.knobs)()
        });
        let ambient = trace_environment(w.env_spec());
        let pass = PreparedTrace::new(trace, 999_999, &ambient, &[Path::Library]);
        assert_eq!(digest::recorded(w.name, pass.trace_seed, w.events), None);
        let digest = replay(Path::Library, &pass, None).digest;
        let reference = Reference::new(w);
        assert!(check_digests(&reference, &pass, &[digest, digest]));
        assert!(!check_digests(&reference, &pass, &[digest ^ 1]));
        assert!(!check_digests(&reference, &pass, &[digest, digest ^ 1]));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 10,
            failed: 0,
            correct: true,
            metrics: vec![("setup_s", "s", 0.5), ("events_per_s", "1/s", 12.25)],
        };
        assert_eq!(
            result.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"events_per_s\": {\"value\": 12.25, \"unit\": \"1/s\"}}}"
        );
    }
}
