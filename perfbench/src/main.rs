//! The repository benchmark: boots the full NOVA stack through
//! `nova_vmm::System::build`, runs one seeded guest workload to
//! shutdown, checks its outputs, and reports end-to-end metrics on both
//! clocks (host seconds, simulated cycles) with tracing off, or — with
//! `--trace 1` — per-layer metrics from counters, timed layer probes,
//! a native pass and a separate traced run.
//!
//! ```text
//! nova-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--single-run]
//! ```
//!
//! `--single-run` boots and runs the workload once and reports nothing
//! (for an outside peak-RSS measurement).
//!
//! One process, one simulator thread, nothing in parallel. The last
//! stdout line is a JSON report with every metric's median, quartiles
//! and sample count; `perfbench/run.py` turns it into the benchmark's
//! result line.

mod calib;
mod disk;
mod metrics;
mod probes;
mod rng;
mod runner;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use nova_bench::paper;
use nova_core::obj::VmPaging;
use nova_trace::causal::Layer;
use nova_trace::json::Json;
use nova_trace::query;
use nova_vmm::System;

use crate::calib::HostClock;
use crate::runner::{paging_of, GuestDigest, Run};
use crate::stats::Summary;
use crate::workload::{Scale, Spec, Workload};

/// Runs measured per phase, at least.
const MIN_RUNS: usize = 3;

/// Trace ring capacity of the first traced run; grown until nothing
/// is dropped.
const TRACE_CAPACITY: usize = 1 << 19;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    single: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut single = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--single-run" => single = true,
            f => return Err(format!("unknown argument {f}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Bench,
        single,
    })
}

/// What a run of the benchmark found.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    metrics: BTreeMap<String, Summary>,
    /// Median host time as measured, of each host-time metric.
    raw: BTreeMap<String, f64>,
    runs: BTreeMap<&'static str, usize>,
}

impl Outcome {
    fn put(&mut self, name: &str, s: Summary) {
        self.metrics.insert(name.to_string(), s);
    }

    fn exact(&mut self, name: &str, v: f64) {
        self.put(name, Summary::exact(v));
    }

    /// A host-time metric: its samples at the reference speed, and
    /// beside them the median as measured.
    fn timed(&mut self, name: &str, t: &Timed) {
        self.put(name, Summary::of(&t.scaled));
        self.raw
            .insert(name.to_string(), Summary::of(&t.raw).median);
    }

    /// Folds one run into the totals and checks that its simulated
    /// counts equal the reference run's: two runs of one seed must not
    /// differ in any cycle or count.
    fn account(&mut self, spec: &Spec, run: &Run, reference: &str, what: &str) {
        self.attempted += spec.ops;
        self.failed += run.failed_ops;
        for f in &run.failures {
            self.failures.push(format!("{what}: {f}"));
        }
        if run.counts.fingerprint() != reference {
            self.failures.push(format!(
                "{what}: simulated counts differ from the first run"
            ));
            self.failed += spec.ops - run.failed_ops;
        }
    }
}

/// Host-time samples of one quantity: as measured, and at the
/// reference speed (see [`calib`]).
#[derive(Default)]
struct Timed {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timed {
    fn push(&mut self, raw: f64, speed: f64) {
        self.raw.push(raw);
        self.scaled.push(raw * speed);
    }
}

/// Host-time samples of repeated runs.
#[derive(Default)]
struct Times {
    /// `System::build` seconds.
    setup: Timed,
    /// Run seconds.
    run: Timed,
}

/// The reference run of a seed: not timed, so the system it leaves can
/// be read by checks and probes without living through a timed section.
/// Every other run of the seed must repeat its simulated counts.
fn reference_run(spec: &Spec, out: &mut Outcome) -> (Run, System) {
    let (run, sys) = runner::run(spec, paging_of(spec.workload), None);
    let fp = run.counts.fingerprint();
    out.account(spec, &run, &fp, "reference run");
    (run, sys)
}

/// Repeats untraced runs until `until` has passed (at least
/// [`MIN_RUNS`]) and returns their host times. Each run's system is
/// freed inside its bracket, so both calibration passes see the same
/// heap.
fn untraced_runs(
    spec: &Spec,
    clock: &mut HostClock,
    out: &mut Outcome,
    until: Instant,
    reference: &str,
) -> Times {
    let paging = paging_of(spec.workload);
    let mut t = Times::default();
    while t.run.raw.len() < MIN_RUNS || Instant::now() < until {
        let (run, speed) = clock.bracket(|| runner::run(spec, paging, None).0);
        out.account(spec, &run, reference, "run");
        t.setup.push(run.setup_s, speed);
        t.run.push(run.run_s, speed);
    }
    out.runs.insert("runs", t.run.raw.len());
    t
}

/// A timed layer probe: `f` returns nanoseconds per operation.
fn probe(clock: &mut HostClock, out: &mut Outcome, name: &str, f: impl FnOnce() -> f64) {
    let (ns, speed) = clock.bracket(f);
    let mut t = Timed::default();
    t.push(ns, speed);
    out.timed(name, &t);
}

/// Compile only: the other paging mode must leave the guest in the
/// same visible state. Page-table A/D bits are compared apart, as a
/// noted divergence of the model, not a failure (see
/// `runner::GuestDigest`). Returns the other mode's system.
fn cross_check(spec: &Spec, run: &Run, sys: &System, out: &mut Outcome) -> Option<System> {
    if !spec.workload.is_compile() {
        return None;
    }
    let other = match spec.workload {
        Workload::CompileEpt => Workload::CompileVtlb,
        _ => Workload::CompileEpt,
    };
    let (twin, twin_sys) = runner::run(spec, paging_of(other), None);
    let (mine, theirs) = (GuestDigest::of(run, sys), GuestDigest::of(&twin, &twin_sys));
    if !twin.failures.is_empty() || mine.masked != theirs.masked {
        out.failures.push(format!(
            "guest-visible result differs under {}: {:?}",
            other.name(),
            twin.failures
        ));
        out.failed += spec.ops;
    } else if mine.raw != theirs.raw {
        out.notes.push(format!(
            "guest page-table A/D bits differ under {}: the hardware MMU model does not \
             maintain them, the vTLB does",
            other.name()
        ));
    }
    Some(twin_sys)
}

fn end_to_end(spec: &Spec, seconds: f64, clock: &mut HostClock, out: &mut Outcome) {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let (first, sys) = reference_run(spec, out);
    cross_check(spec, &first, &sys, out);
    // Nothing of the reference run lives through the timed runs.
    drop(sys);
    let t = untraced_runs(spec, clock, out, until, &first.counts.fingerprint());
    out.timed("run_s", &t.run);
    out.timed("setup_s", &t.setup);
    out.exact("sim_cycles", first.counts.sim_cycles as f64);
    out.exact("sim_busy_cycles", first.counts.sim_busy_cycles as f64);
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(
    spec: &Spec,
    seed: u64,
    scale: Scale,
    seconds: f64,
    clock: &mut HostClock,
    out: &mut Outcome,
) {
    let start = Instant::now();
    let at = |share: f64| start + Duration::from_secs_f64(seconds * share);
    let slice = Duration::from_secs_f64(seconds * 0.05);
    let paging = paging_of(spec.workload);

    // The probes that read a finished system run first, and no system
    // lives through the timed runs after them. The nested walk needs a
    // nested table: the EPT twin's, for the shadow-paging workload.
    let (first, sys) = reference_run(spec, out);
    let twin = cross_check(spec, &first, &sys, out);
    let nested = match paging {
        VmPaging::Shadow => twin
            .as_ref()
            .expect("the EPT twin of the shadow-paging run"),
        VmPaging::Nested(_) => &sys,
    };
    probe(clock, out, "hw.walk_nested_ns", || {
        probes::walk_nested_ns(nested, spec, slice)
    });
    probe(clock, out, "core.translate_ns", || {
        probes::translate_ns(&sys, spec, slice)
    });
    drop((sys, twin));
    let fp = first.counts.fingerprint();
    let c = &first.counts;
    let k = &c.counters;

    // Untraced runs: host time.
    let times = untraced_runs(spec, clock, out, at(0.35), &fp);
    let run_s = Summary::of(&times.run.scaled).median;

    // Separate traced runs: trace numbers and traced host time only.
    let mut capacity = TRACE_CAPACITY;
    let mut traced = Timed::default();
    let mut trace = None;
    while traced.raw.is_empty() || Instant::now() < at(0.6) {
        let (run, speed) = clock.bracket(|| runner::run(spec, paging, Some(capacity)).0);
        let t = run.trace.clone().expect("traced run");
        if t.dropped != 0 && traced.raw.is_empty() {
            capacity = ((t.events + t.dropped) as usize).next_power_of_two() * 2;
            continue;
        }
        out.account(spec, &run, &fp, "traced run");
        traced.push(run.run_s, speed);
        trace.get_or_insert(t);
    }
    out.runs.insert("traced_runs", traced.raw.len());
    let trace = trace.expect("a traced run");
    let traced_s = Summary::of(&traced.scaled);

    // Native pass of the same guest (the trapped guest of this seed
    // for the PV workload, whose device needs the VMM).
    let trapped;
    let native_spec = if spec.workload == Workload::DiskPv {
        trapped = workload::spec(Workload::DiskTrapped, seed, scale);
        &trapped
    } else {
        spec
    };
    let mut ns_per_insn = Timed::default();
    let mut native_cycles = 0;
    while ns_per_insn.raw.is_empty() || Instant::now() < at(0.75) {
        let (n, speed) =
            clock.bracket(|| probes::native(&native_spec.program, spec.workload.is_compile()));
        ns_per_insn.push(n.host_s * 1e9 / n.instret as f64, speed);
        native_cycles = n.sim_cycles;
    }
    out.runs.insert("native_runs", ns_per_insn.raw.len());
    let interp = Summary::of(&ns_per_insn.scaled);
    out.timed("hw.interp_ns_per_insn", &ns_per_insn);

    // The other timed layer probes share the rest of the time.
    let offsets = probes::instruction_offsets(native_spec);
    let store = probes::trapped_store(&native_spec.program, &offsets)
        .expect("the guest's trapped AHCI store");
    probe(clock, out, "x86.decode_ns", || {
        probes::decode_ns(spec, slice)
    });
    probe(clock, out, "core.ipc_call_ns", || {
        probes::ipc_call_ns(slice)
    });
    probe(clock, out, "vmm.emulate_ns", || {
        probes::emulate_ns(&store, slice)
    });

    out.exact(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.exact("hw.instret", c.instret as f64);
    out.exact(
        "hw.tlb_hit_rate",
        ratio(c.tlb.hits, c.tlb.hits + c.tlb.misses),
    );
    out.exact("hw.tlb_flushes", c.tlb.flushes as f64);
    let dispatch = run_s - c.instret as f64 * interp.median * 1e-9;
    out.exact("core.dispatch_host_s", dispatch);
    out.exact(
        "core.host_us_per_exit",
        dispatch * 1e6 / k.total_exits().max(1) as f64,
    );
    out.exact("core.exits", k.total_exits() as f64);
    for (i, name) in metrics::EXIT_NAMES.iter().enumerate() {
        out.exact(&format!("core.exits.{name}"), k.exits_of(i) as f64);
    }
    out.exact("core.ipc_calls", k.ipc_calls as f64);
    out.exact("core.hypercalls", k.hypercalls as f64);
    out.exact("core.cycles.transition", k.cycles_transition as f64);
    out.exact("core.cycles.ipc", k.cycles_ipc as f64);
    out.exact("core.cycles.emulation", k.cycles_emulation as f64);
    out.exact("core.cycles.kernel", k.cycles_kernel as f64);
    out.exact("core.avg_exit_cycles", k.avg_exit_cycles());
    out.exact("core.vtlb_fills", k.vtlb_fills as f64);
    out.exact("core.vtlb_flushes", k.vtlb_flushes as f64);
    out.exact(
        "core.vtlb_switch_hit_rate",
        ratio(
            k.vtlb_switch_hits,
            k.vtlb_switch_hits + k.vtlb_switch_misses,
        ),
    );
    out.exact("vmm.vahci.completions", c.vahci_completions as f64);
    out.exact("vmm.pvdisk.doorbells", c.pv_doorbells as f64);
    out.exact("vmm.pvdisk.completions", c.pv_completions as f64);
    out.exact("user.disk_ops", k.disk_ops as f64);
    out.exact("user.request_retries", k.request_retries as f64);
    out.exact("user.degraded_errors", k.degraded_errors as f64);
    out.exact(
        "user.req_p50_cycles",
        query::percentile(&trace.disk_latencies, 50) as f64,
    );
    out.exact(
        "user.req_p99_cycles",
        query::percentile(&trace.disk_latencies, 99) as f64,
    );
    for layer in Layer::ALL {
        out.exact(
            &format!("trace.layer_cycles.{}", layer.name()),
            trace.layer_cycles[layer as usize] as f64,
        );
    }
    out.exact("trace.request_cycles", trace.request_cycles as f64);
    out.exact("trace.overhead", traced_s.median / run_s - 1.0);
    out.exact("trace.events", trace.events as f64);
    out.exact("trace.dropped", trace.dropped as f64);
    out.timed("trace.run_s", &traced);

    let rel = 100.0 * native_cycles as f64 / c.sim_cycles as f64;
    let gap = match spec.workload {
        Workload::CompileEpt => rel - fig5("NOVA EPT+VPID 2M"),
        Workload::CompileVtlb => rel - fig5("NOVA shadow paging"),
        _ => 100.0 * (k.avg_exit_cycles() / paper::S85_AVG_EXIT_CYCLES - 1.0),
    };
    out.exact("accuracy.rel_native_pct", rel);
    out.exact("accuracy.paper_gap_pts", gap);
    out.exact("accuracy.native_sim_cycles", native_cycles as f64);
}

fn fig5(label: &str) -> f64 {
    paper::FIG5_RELATIVE
        .iter()
        .find(|(l, _)| *l == label)
        .map(|(_, v)| *v)
        .expect("Figure 5 configuration")
}

fn report(args: &Args, out: &Outcome, clock: &HostClock) -> Json {
    let metrics = out.metrics.iter().fold(Json::obj(), |j, (name, s)| {
        let m = Json::obj()
            .field("value", Json::F64(s.median))
            .field("min", Json::F64(s.min))
            .field("median", Json::F64(s.median))
            .field("q1", Json::F64(s.q1))
            .field("q3", Json::F64(s.q3))
            .field("n", Json::U64(s.n as u64));
        j.field(
            name,
            match out.raw.get(name) {
                Some(&raw) => m.field("raw_median", Json::F64(raw)),
                None => m,
            },
        )
    });
    let runs = out
        .runs
        .iter()
        .fold(Json::obj(), |j, (k, v)| j.field(k, Json::U64(*v as u64)));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .field("workload", Json::from(args.workload.name()))
        .field("seed", Json::U64(args.seed))
        .field("seconds", Json::F64(args.seconds))
        .field("trace", Json::Bool(args.trace))
        .field("nproc", Json::U64(nproc as u64))
        .field("samples", runs)
        .field(
            "calibration",
            Json::obj()
                .field("reference_s", Json::F64(calib::REFERENCE_S))
                .field("median_s", Json::F64(Summary::of(clock.passes()).median))
                .field("passes", Json::U64(clock.passes().len() as u64)),
        )
        .field("correct", Json::Bool(out.failures.is_empty()))
        .field("attempted", Json::U64(out.attempted))
        .field("failed", Json::U64(out.failed))
        .field(
            "failures",
            Json::Arr(
                out.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        )
        .field(
            "notes",
            Json::Arr(out.notes.iter().map(|f| Json::from(f.as_str())).collect()),
        )
        .field("metrics", metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nova-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = workload::spec(args.workload, args.seed, args.scale);
    if args.single {
        // One boot + run and nothing else, for the peak RSS `run.py`
        // measures from outside.
        let (run, _) = runner::run(&spec, paging_of(spec.workload), None);
        std::process::exit(if run.failures.is_empty() { 0 } else { 1 });
    }
    let mut clock = HostClock::new();
    let mut out = Outcome::default();
    if args.trace {
        per_layer(
            &spec,
            args.seed,
            args.scale,
            args.seconds,
            &mut clock,
            &mut out,
        );
    } else {
        end_to_end(&spec, args.seconds, &mut clock, &mut out);
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", report(&args, &out, &clock).render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 5,
            seconds: 0.2,
            trace,
            scale: Scale::Smoke,
            single: false,
        }
    }

    fn outcome(a: &Args) -> Outcome {
        let spec = workload::spec(a.workload, a.seed, a.scale);
        let mut clock = HostClock::new();
        let mut out = Outcome::default();
        if a.trace {
            per_layer(&spec, a.seed, a.scale, a.seconds, &mut clock, &mut out);
        } else {
            end_to_end(&spec, a.seconds, &mut clock, &mut out);
        }
        out
    }

    #[test]
    fn smoke_runs_pass_every_output_check() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let out = outcome(&args(w, trace));
                assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
                assert!(out.attempted > 0 && out.failed == 0, "{}", w.name());
                if trace {
                    let m = |n: &str| out.metrics[n].median;
                    assert_eq!(m("trace.dropped"), 0.0, "{}", w.name());
                    let layers: f64 = Layer::ALL
                        .iter()
                        .map(|l| m(&format!("trace.layer_cycles.{}", l.name())))
                        .sum();
                    assert_eq!(layers, m("trace.request_cycles"), "{}", w.name());
                }
            }
        }
    }

    /// The names of one section of `BENCHMARK.json` (`"name": "..."`
    /// entries between the section's key and the next section's).
    fn section_names(text: &str, key: &str, next: Option<&str>) -> BTreeSet<String> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let end = next.map_or(text.len(), |n| {
            text.find(&format!("\"{n}\"")).expect("next")
        });
        text[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_match_what_the_runner_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let workloads = section_names(&text, "workloads", Some("end_to_end"));
        let e2e = section_names(&text, "end_to_end", Some("per_layer"));
        let layers = section_names(&text, "per_layer", None);

        let names = |v: Vec<String>| v.into_iter().collect::<BTreeSet<_>>();
        assert_eq!(
            workloads,
            names(Workload::ALL.iter().map(|w| w.name().to_string()).collect())
        );

        // What the runner prints: every per-layer metric, and every
        // end-to-end metric but the peak RSS `run.py` measures.
        let w = Workload::DiskTrapped;
        let printed = |trace| names(outcome(&args(w, trace)).metrics.into_keys().collect());
        let mut e2e_printed = printed(false);
        e2e_printed.insert("peak_rss_mb".into());
        assert_eq!(e2e_printed, e2e);
        assert_eq!(printed(true), layers);
    }
}
