//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--fault-seed <n>]`
//!
//! With `--trace 0`, runs the workload with tracing off for `--seconds`
//! and prints the end-to-end metrics. With `--trace 1`, alternates untraced
//! and traced runs for `--seconds`, then times each crate's layer drivers,
//! and prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. Per-rep timings and noise diagnostics go to standard error.

use sdnbuf_core::Testbed;
use sdnbuf_perfbench::attr::{Attribution, Layer, KINDS};
use sdnbuf_perfbench::workloads::{self, Cell, Counts, SimMetrics, Workload};
use sdnbuf_perfbench::{drivers, median, run_rep, setup_only, Rep};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <miss_storm|bulk_flows|lossy_recovery|paper_grid> \
                     --seed <n> --seconds <s> --trace <0|1> [--fault-seed <n>]";

/// Timed reps a run makes even when they overrun `--seconds`.
const MIN_REPS: usize = 3;

/// Set-up-only samples taken after every timed rep.
const EXTRA_SETUPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    fault_seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut fault_seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--fault-seed" => fault_seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.unwrap_or(workloads::DEFAULT_SEED);
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        fault_seed: fault_seed.unwrap_or(seed),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: operations attempted and failed, and the metrics.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation; prints its failures.
    fn operation(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("CHECK FAILED ({what}): {f}");
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&mut self) -> String {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                eprintln!("CHECK FAILED: metric {name} is not finite");
                self.failed += 1;
            }
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

/// Everything the output checks need about one workload invocation.
struct Checker<'a> {
    args: &'a Args,
    cells: &'a [Cell],
    reference: Option<(SimMetrics, Counts)>,
}

impl Checker<'_> {
    /// The output checks of one rep: conservation and the regime guard on
    /// every seed, pinned values at the default seed, the oracle on the
    /// no-fault workloads, and determinism against the first rep.
    fn check(&mut self, rep: &Rep) -> Vec<String> {
        let w = self.args.workload;
        let mut failures = Vec::new();
        workloads::check_conservation(&rep.cells, &mut failures);
        workloads::check_regime(w, self.cells, &rep.cells, &mut failures);
        if self.args.seed == workloads::DEFAULT_SEED && self.args.fault_seed == self.args.seed {
            workloads::check_pins(w, &rep.cells, &mut failures);
        }
        if self.cells.iter().all(|c| c.config.faults.is_empty()) {
            let worst = workloads::oracle_check(self.cells, &rep.cells, &mut failures);
            eprintln!("oracle: worst-cell mean setup delay error {worst:.3}%");
        }
        let seen = (SimMetrics::of(&rep.cells), Counts::of(&rep.cells));
        match self.reference {
            None => self.reference = Some(seen),
            Some(first) if first != seen => {
                failures.push(format!("nondeterministic: {seen:?} after {first:?}"))
            }
            Some(_) => {}
        }
        failures
    }
}

/// The simulated network of one rep, on standard error.
fn describe(rep: &Rep) {
    let c = Counts::of(&rep.cells);
    let sum = |f: &dyn Fn(&sdnbuf_core::RunResult) -> u64| {
        rep.cells.iter().map(|c| f(&c.result)).sum::<u64>()
    };
    eprintln!(
        "sim: {c:?} fallbacks={} giveups={} expired={} ctrl_drops={} flows={}",
        sum(&|r| r.buffer_fallbacks),
        sum(&|r| r.buffer_giveups),
        sum(&|r| r.buffer_expired),
        sum(&|r| r.ctrl_drops),
        rep.flows
    );
    if let [only] = rep.cells.as_slice() {
        eprintln!("sim: flow setup delay ms {}", only.result.flow_setup_delay);
    }
}

fn log_rep(label: &str, i: usize, rep: &Rep) {
    eprintln!(
        "{label} {i}: setup_s={:.4} run_s={:.4} oncpu_s={:.4} runq_wait_ms={:.2} peak_heap_mb={:.2} events={}",
        rep.setup.as_secs_f64(),
        rep.run.as_secs_f64(),
        rep.sched.on_cpu.as_secs_f64(),
        rep.sched.runq_wait.as_secs_f64() * 1e3,
        rep.peak_heap as f64 / MIB,
        rep.events,
    );
}

const MIB: f64 = 1024.0 * 1024.0;

fn secs(reps: &[Rep], f: impl Fn(&Rep) -> Duration) -> f64 {
    median(&reps.iter().map(|r| f(r).as_secs_f64()).collect::<Vec<_>>())
}

/// The fastest rep's run time. The host's slow phases only ever add time
/// and can cover most of a run, so the minimum tracks the program's own
/// cost more steadily than the median does (see README, Noise).
fn fastest_run(reps: &[Rep]) -> f64 {
    reps.iter()
        .map(|r| r.run.as_secs_f64())
        .fold(f64::INFINITY, f64::min)
}

fn end_to_end(args: &Args, cells: &[Cell], report: &mut Report) {
    let mut checker = Checker {
        args,
        cells,
        reference: None,
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let warm = run_rep(cells, None);
    log_rep("warm-up", 0, &warm);
    describe(&warm);
    report.operation("warm-up", &checker.check(&warm));

    // Set-up is a short phase: extra set-up-only samples after every rep
    // give its median more samples, spread over the whole window.
    let mut reps = Vec::new();
    let mut setups = Vec::new();
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let rep = run_rep(cells, None);
        log_rep("rep", reps.len() + 1, &rep);
        report.operation("rep", &checker.check(&rep));
        setups.push(rep.setup.as_secs_f64());
        for _ in 0..EXTRA_SETUPS {
            setups.push(setup_only(cells).as_secs_f64());
        }
        reps.push(rep);
    }

    let sim = SimMetrics::of(&warm.cells);
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    report.metric("setup_s", median(&setups), "s");
    report.metric("run_s", fastest_run(&reps), "s");
    report.metric(
        "peak_heap_mb",
        per_rep(&|r| r.peak_heap as f64 / MIB),
        "MiB",
    );
    report.metric(
        "allocs_per_flow",
        per_rep(&|r| r.allocs as f64 / r.flows as f64),
        "count",
    );
    report.metric("sim_ctrl_load_mbps", sim.ctrl_load_mbps, "Mbps");
    report.metric("sim_delivered_pct", sim.delivered_pct, "%");
}

/// Construction plus a one-flow run of `cell`, median over repeats.
fn cell_fixed_ms(cell: &Cell) -> f64 {
    let deps = cell.departures();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 20 || start.elapsed() < Duration::from_millis(100) {
        let t = Instant::now();
        let mut tb = Testbed::new(cell.config.clone());
        std::hint::black_box(tb.run(&deps[..1]));
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

fn per_layer(args: &Args, cells: &[Cell], report: &mut Report) {
    let mut checker = Checker {
        args,
        cells,
        reference: None,
    };
    // Untraced and traced reps alternate so both see the same host noise;
    // the layer drivers get the last fifth of the time budget.
    let deadline = Instant::now() + Duration::from_secs(args.seconds).mul_f64(0.8);
    let warm = run_rep(cells, None);
    log_rep("warm-up", 0, &warm);
    report.operation("warm-up", &checker.check(&warm));

    let attr = Rc::new(RefCell::new(Attribution::default()));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty() || Instant::now() < deadline {
        let rep = run_rep(cells, None);
        log_rep("untraced", plain.len() + 1, &rep);
        report.operation("untraced rep", &checker.check(&rep));
        plain.push(rep);
        let rep = run_rep(cells, Some(&attr));
        log_rep("traced", traced.len() + 1, &rep);
        report.operation("traced rep", &checker.check(&rep));
        traced.push(rep);
    }
    let attr = attr.borrow();
    let k = traced.len() as f64;
    let attr_ms = |ns: u64| ns as f64 / k / 1e6;
    let per_rep = |count: u64| count as f64 / k;
    for layer in Layer::ALL {
        eprintln!(
            "attributed {:<10} {:>10.3} ms per rep",
            layer.name(),
            attr_ms(attr.layer_ns(layer))
        );
    }
    for (i, (kind, layer)) in KINDS.iter().enumerate() {
        if attr.counts[i] > 0 {
            eprintln!(
                "  {kind:<20} ({}) {:>10.0} events {:>9.3} ms {:>8.0} ns/event",
                layer.name(),
                per_rep(attr.counts[i]),
                attr_ms(attr.kind_ns[i]),
                attr.kind_ns[i] as f64 / attr.counts[i] as f64
            );
        }
    }

    // Layer drivers at the state the run reached. The paper grid is
    // driven at its last cell, buffer-256 at 100 Mbps.
    let cell = cells.last().expect("a workload has cells");
    let deps = cell.departures();
    let peak_occupancy = warm
        .cells
        .iter()
        .map(|c| c.result.buffer_peak_occupancy)
        .max()
        .unwrap_or(0);
    let times = drivers::measure(cell, &deps, attr.peak_rules, peak_occupancy);

    let counts = Counts::of(&warm.cells);
    let flows = warm.flows as f64;
    let lookups: u64 = warm.cells.iter().map(|c| c.lookups).sum();
    let hits: u64 = warm.cells.iter().map(|c| c.hits).sum();
    let cpu = |f: &dyn Fn(&sdnbuf_core::RunResult) -> f64| {
        warm.cells.iter().map(|c| f(&c.result)).sum::<f64>() / warm.cells.len() as f64
    };
    let plain_run = fastest_run(&plain);
    let traced_run = fastest_run(&traced);
    let traced_total: f64 = traced.iter().map(|r| r.run.as_secs_f64()).sum();
    let ctrl_msgs = attr.count("ctrl_msg");
    let ctrl_drops = attr.count("ctrl_drop");

    report.metric("sim.events", warm.events as f64, "count");
    report.metric(
        "sim.ns_per_event",
        plain_run * 1e9 / warm.events as f64,
        "ns",
    );
    report.metric("sim.queue_ns_per_op", times.queue_ns_per_op, "ns");
    report.metric("sim.attr_ms", attr_ms(attr.layer_ns(Layer::Sim)), "ms");
    report.metric(
        "sim.link_attr_ms",
        attr_ms(attr.ns("link_tx") + attr.ns("link_drop")),
        "ms",
    );
    report.metric(
        "sim.ctrl_drop_pct",
        100.0 * ctrl_drops as f64 / (ctrl_msgs + ctrl_drops).max(1) as f64,
        "%",
    );
    report.metric("net.parse_ns", times.parse_ns, "ns");
    report.metric("flowtable.lookups", lookups as f64, "count");
    report.metric(
        "flowtable.hit_pct",
        100.0 * hits as f64 / lookups.max(1) as f64,
        "%",
    );
    report.metric("flowtable.peak_rules", attr.peak_rules as f64, "count");
    report.metric(
        "flowtable.expired",
        per_rep(attr.count("flow_rule_expired")),
        "count",
    );
    report.metric(
        "flowtable.attr_ms",
        attr_ms(attr.layer_ns(Layer::Flowtable)),
        "ms",
    );
    report.metric("flowtable.match_ns", times.match_ns, "ns");
    report.metric("flowtable.insert_ns", times.insert_ns, "ns");
    report.metric("flowtable.expire_ns", times.expire_ns, "ns");
    report.metric("flowtable.next_expiry_ns", times.next_expiry_ns, "ns");
    report.metric(
        "switchbuf.enqueues",
        per_rep(attr.count("buffer_enqueue")),
        "count",
    );
    report.metric(
        "switchbuf.drains",
        per_rep(attr.count("buffer_drain")),
        "count",
    );
    report.metric(
        "switchbuf.rerequests_per_flow",
        counts.rerequests as f64 / flows,
        "count",
    );
    report.metric(
        "switchbuf.giveups",
        warm.cells
            .iter()
            .map(|c| c.result.buffer_giveups)
            .sum::<u64>() as f64,
        "count",
    );
    report.metric("switchbuf.peak_occupancy", peak_occupancy as f64, "count");
    report.metric(
        "switchbuf.attr_ms",
        attr_ms(attr.layer_ns(Layer::Switchbuf)),
        "ms",
    );
    report.metric("switchbuf.on_miss_ns", times.on_miss_ns, "ns");
    report.metric("switchbuf.release_ns", times.release_ns, "ns");
    report.metric("switchbuf.poll_ns", times.poll_ns, "ns");
    report.metric(
        "switch.miss_pct",
        100.0 * (lookups - hits) as f64 / lookups.max(1) as f64,
        "%",
    );
    report.metric(
        "switch.attr_ms",
        attr_ms(attr.layer_ns(Layer::Switch)),
        "ms",
    );
    report.metric("switch.handle_frame_ns", times.handle_frame_ns, "ns");
    report.metric("switch.sim_cpu_pct", cpu(&|r| r.switch_cpu_percent), "%");
    report.metric("openflow.ctrl_msgs", per_rep(ctrl_msgs), "count");
    report.metric(
        "openflow.ctrl_bytes",
        (counts.bytes_up + counts.bytes_down) as f64,
        "bytes",
    );
    report.metric(
        "openflow.attr_ms",
        attr_ms(attr.layer_ns(Layer::Openflow)),
        "ms",
    );
    report.metric("openflow.encode_ns", times.encode_ns, "ns");
    report.metric("openflow.decode_ns", times.decode_ns, "ns");
    report.metric("controller.packet_ins", counts.pkt_ins as f64, "count");
    report.metric("controller.flow_mods", counts.flow_mods as f64, "count");
    report.metric(
        "controller.attr_ms",
        attr_ms(attr.layer_ns(Layer::Controller)),
        "ms",
    );
    report.metric("controller.handle_ns", times.handle_ns, "ns");
    report.metric(
        "controller.sim_cpu_pct",
        cpu(&|r| r.controller_cpu_percent),
        "%",
    );
    report.metric("workload.gen_ms", secs(&plain, |r| r.gen) * 1e3, "ms");
    report.metric("core.cell_fixed_ms", cell_fixed_ms(cell), "ms");
    report.metric(
        "core.unattributed_ms",
        (traced_total * 1e9 - attr.total_ns() as f64) / k / 1e6,
        "ms",
    );
    report.metric(
        "mem.retained_kb_per_flow",
        warm.retained as f64 / 1024.0 / flows,
        "KiB",
    );
    report.metric(
        "mem.allocs_per_event",
        warm.run_allocs as f64 / warm.events as f64,
        "count",
    );
    report.metric("host.oncpu_s", secs(&plain, |r| r.sched.on_cpu), "s");
    report.metric(
        "host.runq_wait_ms",
        secs(&plain, |r| r.sched.runq_wait) * 1e3,
        "ms",
    );
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_run - plain_run) / plain_run,
        "%",
    );
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} fault_seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.fault_seed,
        args.seconds,
        u8::from(args.trace)
    );
    let cells = args.workload.cells(args.seed, args.fault_seed);
    let mut report = Report::default();
    if args.trace {
        per_layer(&args, &cells, &mut report);
    } else {
        end_to_end(&args, &cells, &mut report);
    }
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload lossy_recovery --seed 7 --seconds 38 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::LossyRecovery);
        assert_eq!((a.seed, a.fault_seed, a.seconds, a.trace), (7, 7, 38, true));
        let a = args("--workload miss_storm --seed 7 --fault-seed 3").unwrap();
        assert_eq!((a.seed, a.fault_seed, a.trace), (7, 3, false));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--workload nope",
            "--workload miss_storm --trace 2",
            "--workload miss_storm --seed",
            "--workload miss_storm --seed x",
            "--workload miss_storm --sedd 1",
            "--seed 1",
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn result_line_counts_failures_and_non_finite_metrics() {
        let mut r = Report::default();
        r.operation("ok", &[]);
        r.operation("bad", &["broken".to_owned()]);
        r.metric("run_s", 1.25, "s");
        r.metric("nan", f64::NAN, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 2, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"nan\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
