//! `sdnlab` — command-line front end for the testbed.
//!
//! ```text
//! sdnlab run   [--buffer MECH] [--workload WL] [--rate MBPS] [--seed N]
//!              [--events PATH] [--timeline PATH] [--sample-every DUR [--samples PATH]]
//! sdnlab sweep [--section iv|v] [--reps N] [--threads T]
//!              [--events PATH] [--timeline PATH]
//! sdnlab claims [--reps N] [--threads T]
//! sdnlab help
//! ```
//!
//! Each subcommand declares the one list of flags it accepts; an unknown
//! flag, a stray argument or a value flag without its value is an error,
//! and `--help` on any subcommand prints usage without running anything.
//!
//! Mechanisms: `none`, `packet:<capacity>`, `flow:<capacity>[:<timeout_ms>]`.
//! Workloads: `iv` (1000 single-packet flows), `v` (50×20 cross-sequenced),
//! `single:<n>`, `cross:<flows>x<ppf>/<group>`.
//! Threads: `serial`, `auto` (one worker per CPU), or a worker count; the
//! default honours `SDNBUF_THREADS` and falls back to `auto`. Results are
//! identical for every setting.
//!
//! Observability: `--events` streams the structured event log as JSONL,
//! `--timeline` writes a Chrome trace-event file (open it in Perfetto),
//! `--sample-every` buckets buffer occupancy / table size / control load
//! into a TSV time series, `--latency-report` prints the per-phase
//! flow-setup latency anatomy (and writes it as TSV + JSON), and
//! `--dump-on-exit` writes a replayable flight-recorder dump to
//! `results/flightrec/`. Setting `SDNBUF_TRACE=<path>` is equivalent to
//! passing `--events <path>`. All outputs are byte-deterministic for a
//! fixed seed, at any `--threads` setting.

use sdn_buffer_lab::controller::AdmissionPolicy;
use sdn_buffer_lab::core::chaos::{self, ChaosScenario, RecoveryKnobs, Sabotage};
use sdn_buffer_lab::core::flightrec::{DumpReason, FlightDump};
use sdn_buffer_lab::core::validate::{self, Tolerances, ValidateConfig};
use sdn_buffer_lab::core::{figures, observe, spans, RateSweep, StderrProgress};
use sdn_buffer_lab::prelude::*;
use sdn_buffer_lab::switchbuf::{GiveUp, RetryPolicy};
use std::io::Write as _;
use std::process::ExitCode;

fn usage() -> &'static str {
    r#"sdnlab — SDN switch-buffer testbed (reproduction of ICDCS'17)

USAGE:
  sdnlab run   [--buffer MECH] [--workload WL] [--rate MBPS] [--seed N]
               [--faults SPEC] [--check]
               [--retry-policy P] [--ttl DUR] [--degraded N] [--admission POL:CAP]
               [--standby warm|cold] [--takeover-delay DUR]
               [--keepalive DUR] [--liveness-timeout DUR]
               [--events PATH] [--timeline PATH] [--sample-every DUR [--samples PATH]]
               [--latency-report] [--dump-on-exit]
  sdnlab sweep [--section iv|v] [--reps N] [--threads T]
               [--events PATH] [--timeline PATH] [--latency-report]
  sdnlab chaos [--seeds N] [--crash] [--broken] [--broken-ttl] [--broken-epoch]
               [--recovery] [--replay SPEC]
  sdnlab validate [--report PATH] [--tolerance PCT] [--cells SPEC] [--flows N]
               [--reps N] [--seed N] [--random N] [--broken] [--threads T]
  sdnlab claims [--reps N] [--threads T]
  sdnlab help | sdnlab <command> --help   print this text; nothing runs

Each command accepts only the flags listed for it; an unknown flag or a
flag missing its value is an error.

MECH: none | packet:<capacity> | flow:<capacity>[:<timeout_ms>]
WL:   iv | v | single:<n> | cross:<flows>x<ppf>/<group>
T:    serial | auto | <worker count>   (default: SDNBUF_THREADS or auto)
DUR:  <n>[ns|us|ms|s], default unit ms
SPEC: comma-separated key=value fault plan, e.g.
      'fseed=7,c.loss=p:0.1,c.jitter=500us,s.loss=nth:10,stall=55ms+3ms'

FAULT INJECTION:
  --faults SPEC       run under a composable fault plan (seeded, replayable)
  --check             verify the protocol invariants over the event stream

RECOVERY & OVERLOAD CONTROL:
  --retry-policy P    re-request pacing: fixed (the paper's Algorithm 1)
                      or backoff[:<cap>[:<budget>[:drain|drop]]]
  --ttl DUR           per-entry buffer TTL (expired entries are dropped)
  --degraded N        consecutive give-ups that trip the switch into
                      degraded mode (0 = never)
  --admission POL:CAP bounded controller ingress queue: POL is drop-tail,
                      drop-head or prefer-rerequests; CAP its depth

CRASH / FAILOVER PLANE:
  --faults 'crash=T+D'       kill the controller at T for D (volatile state
                             dropped; epoch-tagged re-handshake on restart)
  --standby warm|cold        arm the warm-standby controller (warm =
                             checkpoint-synced MAC table at crash time)
  --takeover-delay DUR       detection + takeover latency (default 10ms)
  --keepalive DUR            echo probe interval (drives the RTT histogram
                             and the switch's liveness detector)
  --liveness-timeout DUR     silence after which the switch suspects the
                             controller dead and sheds fresh misses

CHAOS HARNESS:
  --seeds N           scenarios per buffer mechanism (default 50)
  --crash             generate scenarios with controller-crash windows
                      (and sampled warm/cold standby takeovers)
  --broken            disable Algorithm 1's re-request loop; the harness
                      must catch it (self-test — exits nonzero if it doesn't)
  --broken-ttl        disable the TTL garbage collector with the TTL armed;
                      the buffer-expiry invariant must catch it
  --broken-epoch      disable the buffer's epoch guard under crash windows;
                      the no-cross-epoch-drain invariant must catch it
  --recovery          run the fixed recovery matrix (stall + flap, with and
                      without a mid-recovery crash, against both mechanisms
                      under fixed and backoff retries)
  --replay SPEC       re-run one scenario from the spec a failure printed

VALIDATION PLANE:
  --report PATH       where the validate/v1 JSON goes (default
                      results/validate.json; a TSV twin goes next to it)
  --tolerance PCT     uniform relative-error tolerance override, percent
                      (default: per-metric tolerances from DESIGN §13)
  --cells SPEC        explicit cells instead of the full grid, e.g.
                      'none@20,packet:256@60,flow:256:50@100'
  --flows N           single-packet flows per run (default 1000)
  --reps N            repetitions per cell (default 3)
  --random N          additionally explore N seeded random configs with
                      shrinking on failure (default 0)
  --broken            validate against a deliberately mis-derived oracle;
                      the harness must catch it (self-test — exits
                      nonzero if it doesn't)

OBSERVABILITY:
  --events PATH       structured event log, one JSON object per line
  --timeline PATH     Chrome trace-event JSON (open at ui.perfetto.dev)
  --sample-every DUR  TSV time series (occupancy, table size, ctrl Mbps)
  --samples PATH      where the TSV goes (default results/samples.tsv)
  --latency-report    per-phase flow-setup latency anatomy (p50/p95/p99
                      per phase); run: table + results/latency_report.{tsv,json};
                      sweep: one row per grid cell
  --dump-on-exit      write a replayable flight-recorder dump (fault spec,
                      seed, event tail, open spans, histograms) to
                      results/flightrec/ when the run ends; dumps are also
                      written automatically on --check violations and on
                      entry into degraded mode
  SDNBUF_TRACE=PATH   environment fallback for --events

EXAMPLES:
  sdnlab run --buffer packet:256 --rate 80
  sdnlab run --buffer packet:16 --rate 100 --latency-report
  sdnlab run --buffer flow:256:50 --workload v --rate 95 --timeline trace.json
  sdnlab run --buffer flow:256:20 --workload v --faults 'fseed=7,c.loss=p:0.1' --check
  sdnlab run --buffer flow:256:20 --retry-policy backoff:200:4 --ttl 250 \
             --degraded 3 --faults 'fseed=7,c.loss=p:0.2' --check
  sdnlab sweep --section iv --reps 20 --threads 4
  sdnlab chaos --seeds 200
  sdnlab chaos --recovery
  sdnlab validate --random 200
  sdnlab validate --cells none@20,packet:256@60 --report results/v.json
"#
}

#[derive(Debug)]
struct ParseError(String);

fn parse_buffer(s: &str) -> Result<BufferMode, ParseError> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["none"] => Ok(BufferMode::NoBuffer),
        ["packet", cap] => cap
            .parse()
            .map(|capacity| BufferMode::PacketGranularity { capacity })
            .map_err(|_| ParseError(format!("bad capacity in '{s}'"))),
        ["flow", cap] | ["flow", cap, _] => {
            let capacity = cap
                .parse()
                .map_err(|_| ParseError(format!("bad capacity in '{s}'")))?;
            let timeout_ms = match parts.get(2) {
                Some(t) => t
                    .parse()
                    .map_err(|_| ParseError(format!("bad timeout in '{s}'")))?,
                None => 50,
            };
            Ok(BufferMode::FlowGranularity {
                capacity,
                timeout: Nanos::from_millis(timeout_ms),
            })
        }
        _ => Err(ParseError(format!("unknown buffer mechanism '{s}'"))),
    }
}

fn parse_workload(s: &str) -> Result<WorkloadKind, ParseError> {
    if s == "iv" {
        return Ok(WorkloadKind::paper_section_iv());
    }
    if s == "v" {
        return Ok(WorkloadKind::paper_section_v());
    }
    if let Some(n) = s.strip_prefix("single:") {
        let n = n
            .parse()
            .map_err(|_| ParseError(format!("bad flow count in '{s}'")))?;
        return Ok(WorkloadKind::single_packet_flows(n));
    }
    if let Some(rest) = s.strip_prefix("cross:") {
        let (flows, rest) = rest
            .split_once('x')
            .ok_or_else(|| ParseError(format!("expected cross:<flows>x<ppf>/<group> in '{s}'")))?;
        let (ppf, group) = rest
            .split_once('/')
            .ok_or_else(|| ParseError(format!("expected cross:<flows>x<ppf>/<group> in '{s}'")))?;
        let parse = |v: &str| {
            v.parse::<usize>()
                .map_err(|_| ParseError(format!("bad number '{v}' in '{s}'")))
        };
        return Ok(WorkloadKind::CrossSequenced {
            n_flows: parse(flows)?,
            packets_per_flow: parse(ppf)?,
            group_size: parse(group)?,
        });
    }
    Err(ParseError(format!("unknown workload '{s}'")))
}

/// Parses `10ms` / `500us` / `2s` / `100` (plain numbers are milliseconds).
fn parse_duration(s: &str) -> Result<Nanos, ParseError> {
    let s = s.trim();
    let split = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let v: u64 = num
        .parse()
        .map_err(|_| ParseError(format!("bad duration '{s}'")))?;
    match unit {
        "" | "ms" => Ok(Nanos::from_millis(v)),
        "us" => Ok(Nanos::from_micros(v)),
        "ns" => Ok(Nanos::from_nanos(v)),
        "s" => Ok(Nanos::from_secs(v)),
        _ => Err(ParseError(format!("bad duration unit in '{s}'"))),
    }
}

fn parse_parallelism(s: &str) -> Result<Parallelism, ParseError> {
    match s {
        "serial" => Ok(Parallelism::Serial),
        "auto" => Ok(Parallelism::Auto),
        n => n
            .parse()
            .map(Parallelism::Fixed)
            .map_err(|_| ParseError(format!("bad thread count '{s}'"))),
    }
}

/// Parses `--retry-policy`: `fixed` or `backoff[:<cap>[:<budget>[:drain|drop]]]`.
fn parse_retry_policy(s: &str) -> Result<RetryPolicy, ParseError> {
    if s == "fixed" {
        return Ok(RetryPolicy::fixed());
    }
    let Some(rest) = s.strip_prefix("backoff") else {
        return Err(ParseError(format!(
            "unknown retry policy '{s}' (fixed | backoff[:<cap>[:<budget>[:drain|drop]]])"
        )));
    };
    let mut policy = RetryPolicy::backoff(Nanos::from_millis(400), 0);
    let mut fields = rest
        .strip_prefix(':')
        .map(|r| r.split(':'))
        .into_iter()
        .flatten();
    if let Some(cap) = fields.next() {
        policy.cap = parse_duration(cap)?;
    }
    if let Some(budget) = fields.next() {
        policy.budget = budget
            .parse()
            .map_err(|_| ParseError(format!("bad retry budget in '{s}'")))?;
    }
    if let Some(action) = fields.next() {
        policy.give_up = GiveUp::parse(action).map_err(ParseError)?;
    }
    if fields.next().is_some() {
        return Err(ParseError(format!("too many fields in retry policy '{s}'")));
    }
    Ok(policy)
}

/// Parses `--admission`: `<drop-tail|drop-head|prefer-rerequests>:<capacity>`.
fn parse_admission(s: &str) -> Result<(AdmissionPolicy, usize), ParseError> {
    let (policy, cap) = s
        .split_once(':')
        .ok_or_else(|| ParseError(format!("expected <policy>:<capacity> in '{s}'")))?;
    let policy = AdmissionPolicy::parse(policy)
        .ok_or_else(|| ParseError(format!("unknown admission policy '{policy}'")))?;
    let capacity = cap
        .parse()
        .map_err(|_| ParseError(format!("bad admission capacity in '{s}'")))?;
    Ok((policy, capacity))
}

/// A subcommand's accepted flags: `(name, takes_value)`.
type FlagSpec = [(&'static str, bool)];

const RUN_FLAGS: &FlagSpec = &[
    ("--buffer", true),
    ("--workload", true),
    ("--rate", true),
    ("--seed", true),
    ("--faults", true),
    ("--check", false),
    ("--retry-policy", true),
    ("--ttl", true),
    ("--degraded", true),
    ("--admission", true),
    ("--standby", true),
    ("--takeover-delay", true),
    ("--keepalive", true),
    ("--liveness-timeout", true),
    ("--events", true),
    ("--timeline", true),
    ("--sample-every", true),
    ("--samples", true),
    ("--latency-report", false),
    ("--dump-on-exit", false),
];

const SWEEP_FLAGS: &FlagSpec = &[
    ("--section", true),
    ("--reps", true),
    ("--threads", true),
    ("--events", true),
    ("--timeline", true),
    ("--latency-report", false),
];

const CHAOS_FLAGS: &FlagSpec = &[
    ("--seeds", true),
    ("--crash", false),
    ("--broken", false),
    ("--broken-ttl", false),
    ("--broken-epoch", false),
    ("--recovery", false),
    ("--replay", true),
];

const VALIDATE_FLAGS: &FlagSpec = &[
    ("--report", true),
    ("--tolerance", true),
    ("--cells", true),
    ("--flows", true),
    ("--reps", true),
    ("--seed", true),
    ("--random", true),
    ("--broken", false),
    ("--threads", true),
];

const CLAIMS_FLAGS: &FlagSpec = &[("--reps", true), ("--threads", true)];

/// A subcommand's command line, checked against its [`FlagSpec`]: every
/// argument is a declared flag, and every value flag has its value. When
/// a flag repeats, its first occurrence wins.
#[derive(Debug)]
struct Flags {
    spec: &'static FlagSpec,
    given: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Parses `args` against `spec`; `Ok(None)` when `--help`/`-h` asks for
    /// usage instead of a run.
    fn parse(args: &[String], spec: &'static FlagSpec) -> Result<Option<Flags>, ParseError> {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            return Ok(None);
        }
        let mut given = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(&(name, takes_value)) = spec.iter().find(|(name, _)| name == arg) else {
                return Err(ParseError(if arg.starts_with('-') {
                    format!("unknown flag '{arg}'")
                } else {
                    format!("unexpected argument '{arg}'")
                }));
            };
            let value = if takes_value {
                match iter.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(ParseError(format!("{name} needs a value"))),
                }
            } else {
                None
            };
            given.push((name, value));
        }
        Ok(Some(Flags { spec, given }))
    }

    /// The value of flag `key`, if given.
    fn value(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.spec.contains(&(key, true)),
            "{key} is not a value flag"
        );
        self.given
            .iter()
            .find(|(name, _)| *name == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of flag `key` parsed as a `T`; `what` names it in the
    /// error.
    fn parsed<T: std::str::FromStr>(&self, key: &str, what: &str) -> Result<Option<T>, ParseError> {
        self.value(key)
            .map(|s| {
                s.parse()
                    .map_err(|_| ParseError(format!("bad {what} '{s}'")))
            })
            .transpose()
    }

    /// Whether switch `key` was given.
    fn has(&self, key: &str) -> bool {
        debug_assert!(self.spec.contains(&(key, false)), "{key} is not a switch");
        self.given.iter().any(|(name, _)| *name == key)
    }

    /// The `--threads` flag, falling back to `SDNBUF_THREADS` / auto.
    fn threads(&self) -> Result<Parallelism, ParseError> {
        match self.value("--threads") {
            Some(s) => parse_parallelism(s),
            None => Ok(Parallelism::from_env()),
        }
    }

    /// The `--events` flag, falling back to the `SDNBUF_TRACE` environment
    /// variable (empty value = unset).
    fn events_path(&self) -> Option<String> {
        match self.value("--events") {
            Some(p) => Some(p.to_owned()),
            None => std::env::var("SDNBUF_TRACE").ok().filter(|s| !s.is_empty()),
        }
    }
}

/// Opens `path` for writing, creating parent directories as needed.
fn create(path: &str) -> Result<std::io::BufWriter<std::fs::File>, ParseError> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| ParseError(format!("{path}: {e}")))?;
        }
    }
    std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .map_err(|e| ParseError(format!("{path}: {e}")))
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, ParseError> {
    let buffer = match flags.value("--buffer") {
        Some(s) => parse_buffer(s)?,
        None => BufferMode::PacketGranularity { capacity: 256 },
    };
    let workload = match flags.value("--workload") {
        Some(s) => parse_workload(s)?,
        None => WorkloadKind::paper_section_iv(),
    };
    let rate: u64 = flags.parsed("--rate", "rate")?.unwrap_or(50);
    let seed: u64 = flags.parsed("--seed", "seed")?.unwrap_or(1);
    let events_path = flags.events_path();
    let timeline_path = flags.value("--timeline");
    let sample_every = flags
        .value("--sample-every")
        .map(parse_duration)
        .transpose()?;
    let samples_path = flags.value("--samples");
    let check = flags.has("--check");
    let latency_report = flags.has("--latency-report");
    let dump_on_exit = flags.has("--dump-on-exit");
    let knobs = RecoveryKnobs {
        retry: match flags.value("--retry-policy") {
            Some(s) => parse_retry_policy(s)?,
            None => RetryPolicy::fixed(),
        },
        ttl: match flags.value("--ttl") {
            Some(s) => parse_duration(s)?,
            None => Nanos::ZERO,
        },
        degraded_threshold: flags
            .parsed("--degraded", "degraded threshold")?
            .unwrap_or(0),
    };

    let mut config = ExperimentConfig {
        buffer,
        workload,
        sending_rate: BitRate::from_mbps(rate),
        seed,
        ..ExperimentConfig::default()
    };
    config.testbed.switch.retry = knobs.retry;
    config.testbed.switch.buffer_ttl = knobs.ttl;
    config.testbed.switch.degraded_threshold = knobs.degraded_threshold;
    if let Some(s) = flags.value("--admission") {
        let (policy, capacity) = parse_admission(s)?;
        config.testbed.controller.admission = policy;
        config.testbed.controller.ingress_queue_capacity = capacity;
    }
    if let Some(spec) = flags.value("--faults") {
        config.testbed.faults = FaultPlan::parse(spec).map_err(ParseError)?;
    }
    // Crash/failover plane knobs. `--standby warm|cold` arms the
    // warm-standby controller; keepalives (echo probes) drive both the
    // RTT histogram and the switch's liveness detector.
    if let Some(s) = flags.value("--standby") {
        config.testbed.failover.standby = true;
        config.testbed.failover.warm = match s {
            "warm" => true,
            "cold" => false,
            other => {
                return Err(ParseError(format!(
                    "--standby takes warm|cold, got '{other}'"
                )))
            }
        };
    }
    if let Some(s) = flags.value("--takeover-delay") {
        config.testbed.failover.takeover_delay = parse_duration(s)?;
    }
    if let Some(s) = flags.value("--keepalive") {
        config.testbed.keepalive_interval = Some(parse_duration(s)?);
    }
    if let Some(s) = flags.value("--liveness-timeout") {
        config.testbed.switch.liveness_timeout = parse_duration(s)?;
    }
    let plan = config.testbed.effective_faults();
    let mut exp = Experiment::new(config);
    // Crash runs always trace: every controller crash auto-produces a
    // flight-recorder dump for the post-mortem.
    let tracing = events_path.is_some()
        || timeline_path.is_some()
        || sample_every.is_some()
        || check
        || latency_report
        || dump_on_exit
        || plan.has_crashes();
    if !tracing {
        let run = exp.run();
        println!("{run:#?}");
        print_run_summary(&run);
        return Ok(ExitCode::SUCCESS);
    }

    let (run, events) = exp.run_traced();
    println!("{run:#?}");
    print_run_summary(&run);
    let violations = if check {
        chaos::check_invariants(buffer, &plan, knobs, &run, &events)
    } else {
        Vec::new()
    };
    if check {
        if violations.is_empty() {
            eprintln!("check: every invariant holds over {} events", events.len());
        } else {
            for v in &violations {
                eprintln!("VIOLATION [{}]: {}", v.invariant, v.detail);
            }
        }
    }
    if latency_report {
        let report = spans::LatencyReport::from_events(&events);
        println!("{}", report.to_table());
        let tsv_path = "results/latency_report.tsv";
        let mut w = create(tsv_path)?;
        report
            .write_tsv(&mut w)
            .map_err(|e| ParseError(format!("{tsv_path}: {e}")))?;
        let json_path = "results/latency_report.json";
        let mut json = String::new();
        report.write_json(&mut json);
        json.push('\n');
        let mut w = create(json_path)?;
        w.write_all(json.as_bytes())
            .map_err(|e| ParseError(format!("{json_path}: {e}")))?;
        eprintln!("wrote latency report to {tsv_path} and {json_path}");
    }
    // The flight recorder fires on an invariant violation, on entry into
    // degraded mode, on a controller crash, or unconditionally under
    // --dump-on-exit — in that precedence order when several apply.
    let degraded = events
        .iter()
        .any(|e| matches!(e.kind, EventKind::DegradedEnter { .. }));
    let crashed = events
        .iter()
        .any(|e| matches!(e.kind, EventKind::CtrlCrash { .. }));
    if dump_on_exit || degraded || crashed || !violations.is_empty() {
        let reason = if !violations.is_empty() {
            DumpReason::ChaosViolation
        } else if degraded {
            DumpReason::DegradedEnter
        } else if crashed {
            DumpReason::CtrlCrash
        } else {
            DumpReason::Exit
        };
        let dump = FlightDump::capture(
            reason,
            &run.label,
            seed,
            Some(plan.to_spec()),
            &events,
            Some(&run),
        )
        .with_violations(
            violations
                .iter()
                .map(|v| (v.invariant.to_string(), v.detail.clone()))
                .collect(),
        );
        let path = dump
            .write_to_dir(&FlightDump::default_dir(), &dump.stem())
            .map_err(|e| ParseError(format!("flight recorder dump: {e}")))?;
        eprintln!("flight recorder dump: {}", path.display());
    }
    if let Some(path) = &events_path {
        let mut w = create(path)?;
        let n = observe::write_events_jsonl(&events, "", &mut w)
            .map_err(|e| ParseError(format!("{path}: {e}")))?;
        eprintln!("wrote {n} events to {path}");
    }
    if let Some(every) = sample_every {
        let samples = observe::sample_series(&events, every);
        let path = samples_path.unwrap_or("results/samples.tsv");
        let mut w = create(path)?;
        observe::write_series_tsv(&samples, &mut w)
            .map_err(|e| ParseError(format!("{path}: {e}")))?;
        eprintln!("wrote {} samples to {path}", samples.len());
    }
    if let Some(path) = timeline_path {
        let mut w = create(path)?;
        observe::export_run_timeline(&run.label, rate, events, &mut w)
            .map_err(|e| ParseError(format!("{path}: {e}")))?;
        w.flush().map_err(|e| ParseError(format!("{path}: {e}")))?;
        eprintln!("wrote timeline to {path} (open at https://ui.perfetto.dev)");
    }
    if !violations.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// One-line digests of the run's probe and crash planes, printed after
/// the full `RunResult` debug dump. Silent when the planes were off, so
/// default runs print exactly what they always printed.
fn print_run_summary(run: &sdn_buffer_lab::core::RunResult) {
    if run.echo_rtt_samples > 0 {
        println!(
            "echo rtt: p50 {:.3} ms  p99 {:.3} ms  ({} samples)",
            run.echo_rtt_p50_ms, run.echo_rtt_p99_ms, run.echo_rtt_samples
        );
    }
    if run.ctrl_crashes > 0 {
        println!(
            "crash plane: {} crashes  {} takeovers  {} epoch bumps  {} reconcile re-announces  \
             {} stale-epoch rejects",
            run.ctrl_crashes,
            run.failover_takeovers,
            run.epoch_bumps,
            run.reconcile_rerequests,
            run.stale_epoch_rejects,
        );
    }
}

/// Writes the flight-recorder dump for a violating (usually minimized)
/// scenario and prints where it went. A dump failure is reported but never
/// masks the violation that triggered it.
fn write_chaos_dump(scenario: &ChaosScenario, sabotage: Sabotage) {
    let dump = chaos::flight_dump(scenario, sabotage);
    match dump.write_to_dir(&FlightDump::default_dir(), &dump.stem()) {
        Ok(path) => eprintln!("  flight recorder dump: {}", path.display()),
        Err(e) => eprintln!("  flight recorder dump failed: {e}"),
    }
}

/// The seeded chaos harness: sample `--seeds` scenarios per buffer
/// mechanism, check every invariant, print a one-command replay (with a
/// greedily minimized fault plan) for each failure, and write a
/// flight-recorder dump of the minimized scenario to `results/flightrec/`.
/// `--recovery` swaps the random sweep for the fixed recovery matrix;
/// `--broken`/`--broken-ttl` sabotage the mechanism and invert the
/// expectation (self-test).
fn cmd_chaos(flags: &Flags) -> Result<ExitCode, ParseError> {
    let sabotage = Sabotage {
        disable_rerequest: flags.has("--broken"),
        disable_ttl_gc: flags.has("--broken-ttl"),
        broken_epoch: flags.has("--broken-epoch"),
    };
    let sabotaged = sabotage != Sabotage::none();
    let sabotage_flags = format!(
        "{}{}{}",
        if sabotage.disable_rerequest {
            "--broken "
        } else {
            ""
        },
        if sabotage.disable_ttl_gc {
            "--broken-ttl "
        } else {
            ""
        },
        if sabotage.broken_epoch {
            "--broken-epoch "
        } else {
            ""
        },
    );
    // A disabled epoch guard is only observable when controllers crash.
    let crash = flags.has("--crash") || sabotage.broken_epoch;

    if let Some(spec) = flags.value("--replay") {
        let scenario = ChaosScenario::parse(spec).map_err(ParseError)?;
        let report = chaos::run_scenario(&scenario, sabotage);
        println!("scenario: {}", scenario.to_spec());
        println!("digest:   {:016x}", report.digest);
        println!(
            "delivered {}/{}  rerequests {}  giveups {}  expired {}  ctrl_drops {}  data_drops {}",
            report.result.packets_delivered,
            report.result.packets_sent,
            report.result.rerequests,
            report.result.buffer_giveups,
            report.result.buffer_expired,
            report.result.ctrl_drops,
            report.result.packets_dropped,
        );
        if report.result.ctrl_crashes > 0 {
            println!(
                "crashes {}  takeovers {}  epoch bumps {}  reconcile re-announces {}",
                report.result.ctrl_crashes,
                report.result.failover_takeovers,
                report.result.epoch_bumps,
                report.result.reconcile_rerequests,
            );
        }
        if report.violations.is_empty() {
            println!("ok: every invariant holds");
            return Ok(ExitCode::SUCCESS);
        }
        for v in &report.violations {
            println!("VIOLATION [{}]: {}", v.invariant, v.detail);
        }
        write_chaos_dump(&scenario, sabotage);
        return Ok(ExitCode::FAILURE);
    }

    let mut failures = 0u64;
    let total: u64;
    if flags.has("--recovery") {
        let cells = chaos::recovery_matrix();
        total = cells.len() as u64;
        for (label, scenario) in &cells {
            let report = chaos::run_scenario(scenario, sabotage);
            println!(
                "recovery {label:<15} delivered {}/{}  rerequests {}  giveups {}  \
                 expired {}  degraded {}/{}",
                report.result.packets_delivered,
                report.result.packets_sent,
                report.result.rerequests,
                report.result.buffer_giveups,
                report.result.buffer_expired,
                report.result.degraded_entries,
                report.result.degraded_exits,
            );
            if report.violations.is_empty() {
                continue;
            }
            failures += 1;
            for v in &report.violations {
                eprintln!("  VIOLATION [{}]: {}", v.invariant, v.detail);
            }
            let min = chaos::minimize(scenario, sabotage);
            eprintln!(
                "  replay: cargo run --release --bin sdnlab -- chaos {sabotage_flags}--replay '{}'",
                min.to_spec()
            );
            write_chaos_dump(&min, sabotage);
        }
    } else {
        let seeds: u64 = flags.parsed("--seeds", "seed count")?.unwrap_or(50);
        let mut mechanisms = vec![
            BufferMode::PacketGranularity { capacity: 256 },
            BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(20),
            },
        ];
        if crash {
            // The crash plane's invariants (epoch monotonicity, handshake
            // before service, liveness) are mechanism-independent — sweep
            // the bufferless switch too.
            mechanisms.push(BufferMode::NoBuffer);
        }
        total = seeds * mechanisms.len() as u64;
        for mech in mechanisms {
            for seed in 0..seeds {
                let mut scenario = if crash {
                    ChaosScenario::generate_with_crashes(seed, mech)
                } else {
                    ChaosScenario::generate(seed, mech)
                };
                if sabotage.disable_ttl_gc {
                    // The generated sweep leaves the recovery knobs at
                    // their defaults; the TTL self-test needs one armed so
                    // the dead garbage collector is observable.
                    scenario.recovery.ttl = Nanos::from_millis(100);
                }
                let report = chaos::run_scenario(&scenario, sabotage);
                if report.violations.is_empty() {
                    continue;
                }
                failures += 1;
                eprintln!("seed {seed} [{}]:", mech.label());
                for v in &report.violations {
                    eprintln!("  VIOLATION [{}]: {}", v.invariant, v.detail);
                }
                let min = chaos::minimize(&scenario, sabotage);
                eprintln!(
                    "  replay: cargo run --release --bin sdnlab -- chaos \
                     {sabotage_flags}--replay '{}'",
                    min.to_spec()
                );
                write_chaos_dump(&min, sabotage);
            }
        }
    }

    if sabotaged {
        // Self-test: the crippled mechanism must be caught.
        let what = if sabotage.disable_rerequest {
            "disabled re-request loop"
        } else if sabotage.broken_epoch {
            "disabled session-epoch guard"
        } else {
            "disabled TTL garbage collector"
        };
        if failures == 0 {
            eprintln!("chaos {sabotage_flags}: no scenario caught the {what} — the harness has lost its teeth");
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "chaos {sabotage_flags}: {failures} of {total} scenarios caught the {what} (expected)"
        );
        return Ok(ExitCode::SUCCESS);
    }
    if failures > 0 {
        eprintln!("chaos: {failures} scenarios violated invariants (replay commands above)");
        return Ok(ExitCode::FAILURE);
    }
    println!("chaos: {total} scenarios, every invariant holds");
    Ok(ExitCode::SUCCESS)
}

/// Parses `--cells`: comma-separated `MECH@RATE` pairs, reusing the
/// `--buffer` mechanism grammar (e.g. `none@20,packet:256@60`).
fn parse_cells(s: &str) -> Result<Vec<(BufferMode, u64)>, ParseError> {
    let mut cells = Vec::new();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        let (mech, rate) = part
            .rsplit_once('@')
            .ok_or_else(|| ParseError(format!("expected MECH@RATE in '{part}'")))?;
        let rate: u64 = rate
            .parse()
            .map_err(|_| ParseError(format!("bad rate in '{part}'")))?;
        cells.push((parse_buffer(mech)?, rate));
    }
    if cells.is_empty() {
        return Err(ParseError(format!("no cells in '{s}'")));
    }
    Ok(cells)
}

/// The differential + metamorphic validation plane: sweep the Section IV
/// grid, compare every cell against the analytic oracle, check the
/// paper-derived metamorphic laws, and (with `--random N`) explore seeded
/// off-grid configurations with shrinking on failure. `--broken` swaps in
/// a deliberately mis-derived oracle and inverts the expectation.
fn cmd_validate(flags: &Flags) -> Result<ExitCode, ParseError> {
    let mut config = ValidateConfig::default();
    if let Some(s) = flags.value("--cells") {
        config.cells = Some(parse_cells(s)?);
    }
    if let Some(pct) = flags.parsed::<f64>("--tolerance", "tolerance")? {
        if !pct.is_finite() || pct <= 0.0 {
            return Err(ParseError(format!(
                "tolerance must be positive, got '{pct}'"
            )));
        }
        config.tolerances = Tolerances::uniform(pct / 100.0);
    }
    config.flows = flags
        .parsed("--flows", "flow count")?
        .unwrap_or(config.flows);
    config.repetitions = flags
        .parsed("--reps", "reps")?
        .unwrap_or(config.repetitions);
    config.base_seed = flags.parsed("--seed", "seed")?.unwrap_or(config.base_seed);
    config.random_configs = flags
        .parsed("--random", "random config count")?
        .unwrap_or(config.random_configs);
    config.parallelism = flags.threads()?;
    config.broken = flags.has("--broken");

    let report = validate::validate(&config);

    // Human-readable verdicts first, worst news at the bottom.
    for cell in &report.cells {
        let failed = cell.failures();
        let worst = cell
            .checks
            .iter()
            .max_by(|a, b| a.rel_err.total_cmp(&b.rel_err))
            .expect("every cell has checks");
        println!(
            "cell {:<16} {:>3} Mbps  {}  worst {:>6.2}% ({}){}",
            cell.label,
            cell.rate_mbps,
            if failed == 0 { "ok  " } else { "FAIL" },
            worst.rel_err * 100.0,
            worst.metric.name(),
            if cell.near_critical {
                "  [near-critical]"
            } else if cell.saturated {
                "  [saturated]"
            } else {
                ""
            },
        );
        for check in cell.checks.iter().filter(|c| !c.pass) {
            eprintln!(
                "  DIVERGED [{}]: simulated {:.4} vs predicted {:.4} \
                 ({:.2}% > {:.2}% tolerance)",
                check.metric.name(),
                check.simulated,
                check.predicted,
                check.rel_err * 100.0,
                check.tolerance * 100.0,
            );
        }
    }
    for law in &report.laws {
        println!(
            "law  {:<40} {}  {}",
            law.law,
            if law.holds { "holds" } else { "FAIL " },
            law.detail,
        );
    }
    if report.random_checked > 0 {
        println!(
            "random: {} configs checked, {} failures",
            report.random_checked,
            report.random_findings.len()
        );
        for finding in &report.random_findings {
            eprintln!("  FAILED  {}", finding.spec);
            eprintln!("  shrunk  {}", finding.shrunk_spec);
            for v in &finding.violations {
                eprintln!("    {v}");
            }
        }
    }

    let json_path = flags.value("--report").unwrap_or("results/validate.json");
    let tsv_path = match json_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.tsv"),
        None => format!("{json_path}.tsv"),
    };
    let mut w = create(json_path)?;
    w.write_all(report.to_json().as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .map_err(|e| ParseError(format!("{json_path}: {e}")))?;
    let mut w = create(&tsv_path)?;
    w.write_all(report.to_tsv().as_bytes())
        .map_err(|e| ParseError(format!("{tsv_path}: {e}")))?;
    eprintln!("wrote {json_path} and {tsv_path}");

    if config.broken {
        // Self-test: the mis-derived oracle must be caught.
        if report.differential_failures() == 0 {
            eprintln!(
                "validate --broken: no cell caught the mis-derived oracle — \
                 the harness has lost its teeth"
            );
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "validate --broken: {} of {} checks caught the mis-derived oracle (expected)",
            report.differential_failures(),
            report.checks(),
        );
        return Ok(ExitCode::SUCCESS);
    }
    if !report.passed() {
        eprintln!(
            "validate: {} differential failures, {} laws failed, {} random failures",
            report.differential_failures(),
            report.laws_failed(),
            report.random_findings.len(),
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "validate: {} checks across {} cells within tolerance, every law holds",
        report.checks(),
        report.cells.len(),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(flags: &Flags) -> Result<ExitCode, ParseError> {
    let reps: usize = flags.parsed("--reps", "reps")?.unwrap_or(5);
    let threads = flags.threads()?;
    let section = flags.value("--section").unwrap_or("iv");
    let events_path = flags.events_path();
    let timeline_path = flags.value("--timeline");
    let latency_report = flags.has("--latency-report");
    let grid = match section {
        "iv" => RateSweep::paper_section_iv(reps),
        "v" => RateSweep::paper_section_v(reps),
        other => return Err(ParseError(format!("unknown section '{other}'"))),
    };
    let sweep = if events_path.is_some() || timeline_path.is_some() || latency_report {
        let (sweep, runs) = grid.run_traced_with(threads, &StderrProgress::new("sweep"));
        if let Some(path) = &events_path {
            let mut w = create(path)?;
            let n = observe::export_sweep_jsonl(&runs, &mut w)
                .map_err(|e| ParseError(format!("{path}: {e}")))?;
            eprintln!("wrote {n} events to {path}");
        }
        if let Some(path) = timeline_path {
            let mut w = create(path)?;
            observe::export_timeline(&runs, &mut w)
                .map_err(|e| ParseError(format!("{path}: {e}")))?;
            w.flush().map_err(|e| ParseError(format!("{path}: {e}")))?;
            eprintln!("wrote timeline to {path} (open at https://ui.perfetto.dev)");
        }
        if latency_report {
            let cells = spans::latency_by_cell(&runs);
            println!("{}", spans::sweep_latency_table(&cells));
        }
        sweep
    } else {
        grid.run_with(threads, &StderrProgress::new("sweep"))
    };
    println!("{}", figures::fig_control_load_to_controller(&sweep));
    println!("{}", figures::fig_controller_usage(&sweep));
    println!("{}", figures::fig_switch_usage(&sweep));
    println!("{}", figures::fig_flow_setup_delay(&sweep));
    println!("{}", figures::fig_buffer_utilization_mean(&sweep));
    Ok(ExitCode::SUCCESS)
}

fn cmd_claims(flags: &Flags) -> Result<ExitCode, ParseError> {
    let reps: usize = flags.parsed("--reps", "reps")?.unwrap_or(5);
    let threads = flags.threads()?;
    let iv = RateSweep::paper_section_iv(reps).run_with(threads, &StderrProgress::new("iv"));
    let v = RateSweep::paper_section_v(reps).run_with(threads, &StderrProgress::new("v"));
    println!("{}", figures::summary_claims(&iv, &v));
    Ok(ExitCode::SUCCESS)
}

type Command = fn(&Flags) -> Result<ExitCode, ParseError>;

/// Every subcommand with the one list of flags it accepts.
const COMMANDS: [(&str, Command, &FlagSpec); 5] = [
    ("run", cmd_run, RUN_FLAGS),
    ("sweep", cmd_sweep, SWEEP_FLAGS),
    ("chaos", cmd_chaos, CHAOS_FLAGS),
    ("validate", cmd_validate, VALIDATE_FLAGS),
    ("claims", cmd_claims, CLAIMS_FLAGS),
];

/// Dispatches `args` (without the program name) to its subcommand, or
/// prints usage when asked for help.
fn dispatch(args: &[String]) -> Result<ExitCode, ParseError> {
    let help = || {
        println!("{}", usage());
        Ok(ExitCode::SUCCESS)
    };
    let name = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => return help(),
        Some(name) => name,
    };
    let (_, command, spec) = COMMANDS
        .iter()
        .find(|(n, _, _)| *n == name)
        .ok_or_else(|| ParseError(format!("unknown command '{name}'")))?;
    match Flags::parse(&args[1..], spec)? {
        Some(flags) => command(&flags),
        None => help(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|ParseError(msg)| {
        eprintln!("error: {msg}\n\n{}", usage());
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_parsing() {
        assert_eq!(parse_buffer("none").unwrap(), BufferMode::NoBuffer);
        assert_eq!(
            parse_buffer("packet:16").unwrap(),
            BufferMode::PacketGranularity { capacity: 16 }
        );
        assert_eq!(
            parse_buffer("flow:256").unwrap(),
            BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(50)
            }
        );
        assert_eq!(
            parse_buffer("flow:64:20").unwrap(),
            BufferMode::FlowGranularity {
                capacity: 64,
                timeout: Nanos::from_millis(20)
            }
        );
        assert!(parse_buffer("bogus").is_err());
        assert!(parse_buffer("packet:x").is_err());
        assert!(parse_buffer("flow:1:y").is_err());
    }

    #[test]
    fn workload_parsing() {
        assert_eq!(
            parse_workload("iv").unwrap(),
            WorkloadKind::paper_section_iv()
        );
        assert_eq!(
            parse_workload("v").unwrap(),
            WorkloadKind::paper_section_v()
        );
        assert_eq!(
            parse_workload("single:42").unwrap(),
            WorkloadKind::single_packet_flows(42)
        );
        assert_eq!(
            parse_workload("cross:10x5/2").unwrap(),
            WorkloadKind::CrossSequenced {
                n_flows: 10,
                packets_per_flow: 5,
                group_size: 2
            }
        );
        assert!(parse_workload("nope").is_err());
        assert!(parse_workload("cross:10").is_err());
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_duration("10ms").unwrap(), Nanos::from_millis(10));
        assert_eq!(parse_duration("10").unwrap(), Nanos::from_millis(10));
        assert_eq!(parse_duration("500us").unwrap(), Nanos::from_micros(500));
        assert_eq!(parse_duration("3s").unwrap(), Nanos::from_secs(3));
        assert_eq!(parse_duration("7ns").unwrap(), Nanos::from_nanos(7));
        assert!(parse_duration("fast").is_err());
        assert!(parse_duration("10m").is_err());
    }

    #[test]
    fn parallelism_parsing() {
        assert_eq!(parse_parallelism("serial").unwrap(), Parallelism::Serial);
        assert_eq!(parse_parallelism("auto").unwrap(), Parallelism::Auto);
        assert_eq!(parse_parallelism("6").unwrap(), Parallelism::Fixed(6));
        assert!(parse_parallelism("lots").is_err());
    }

    #[test]
    fn retry_policy_parsing() {
        assert_eq!(parse_retry_policy("fixed").unwrap(), RetryPolicy::fixed());
        assert_eq!(
            parse_retry_policy("backoff").unwrap(),
            RetryPolicy::backoff(Nanos::from_millis(400), 0)
        );
        assert_eq!(
            parse_retry_policy("backoff:200:4").unwrap(),
            RetryPolicy::backoff(Nanos::from_millis(200), 4)
        );
        let dropping = parse_retry_policy("backoff:160ms:2:drop").unwrap();
        assert_eq!(dropping.cap, Nanos::from_millis(160));
        assert_eq!(dropping.budget, 2);
        assert_eq!(dropping.give_up, GiveUp::Drop);
        assert!(parse_retry_policy("linear").is_err());
        assert!(parse_retry_policy("backoff:200:4:explode").is_err());
        assert!(parse_retry_policy("backoff:200:4:drop:1").is_err());
    }

    #[test]
    fn admission_parsing() {
        assert_eq!(
            parse_admission("drop-tail:64").unwrap(),
            (AdmissionPolicy::DropTail, 64)
        );
        assert_eq!(
            parse_admission("prefer-rerequests:8").unwrap(),
            (AdmissionPolicy::PreferRerequests, 8)
        );
        assert!(parse_admission("drop-tail").is_err());
        assert!(parse_admission("fifo:8").is_err());
        assert!(parse_admission("drop-head:x").is_err());
    }

    #[test]
    fn cells_parsing() {
        assert_eq!(
            parse_cells("none@20,packet:256@60").unwrap(),
            vec![
                (BufferMode::NoBuffer, 20),
                (BufferMode::PacketGranularity { capacity: 256 }, 60),
            ]
        );
        assert_eq!(
            parse_cells("flow:256:50@100").unwrap(),
            vec![(
                BufferMode::FlowGranularity {
                    capacity: 256,
                    timeout: Nanos::from_millis(50)
                },
                100
            )]
        );
        assert!(parse_cells("none").is_err());
        assert!(parse_cells("none@fast").is_err());
        assert!(parse_cells("").is_err());
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_extraction() {
        let flags = Flags::parse(
            &args(&["--rate", "80", "--seed", "3", "--check"]),
            RUN_FLAGS,
        )
        .unwrap()
        .expect("no --help given");
        assert_eq!(flags.value("--rate"), Some("80"));
        assert_eq!(flags.parsed::<u64>("--seed", "seed").unwrap(), Some(3));
        assert_eq!(flags.value("--buffer"), None);
        assert!(flags.has("--check"));
        assert!(!flags.has("--dump-on-exit"));
        assert!(Flags::parse(&args(&["--rate"]), RUN_FLAGS).is_err());
    }

    #[test]
    fn strict_flag_parsing() {
        let err = |words: &[&str], spec| Flags::parse(&args(words), spec).unwrap_err().0;
        assert_eq!(err(&["--rtae", "100"], RUN_FLAGS), "unknown flag '--rtae'");
        assert_eq!(
            err(&["--rate", "--seed", "3"], RUN_FLAGS),
            "--rate needs a value"
        );
        assert_eq!(
            err(&["--check", "yes"], RUN_FLAGS),
            "unexpected argument 'yes'"
        );
        // Flags are per subcommand: `run` has no `--threads`.
        assert_eq!(
            err(&["--threads", "2"], RUN_FLAGS),
            "unknown flag '--threads'"
        );
        assert!(Flags::parse(&args(&["--rtae", "1", "--help"]), RUN_FLAGS)
            .unwrap()
            .is_none());
        let bad_rate = Flags::parse(&args(&["--rate", "fast"]), RUN_FLAGS)
            .unwrap()
            .unwrap();
        assert!(bad_rate.parsed::<u64>("--rate", "rate").is_err());
    }

    #[test]
    fn flag_specs_are_well_formed() {
        for (name, _, spec) in COMMANDS {
            for (i, (flag, _)) in spec.iter().enumerate() {
                assert!(flag.starts_with("--"), "{name}: {flag}");
                assert!(
                    spec[..i].iter().all(|(f, _)| f != flag),
                    "{name}: {flag} declared twice"
                );
                assert!(usage().contains(flag), "{name}: {flag} is not in usage()");
            }
        }
    }

    #[test]
    fn usage_lists_only_accepted_flags() {
        let text = usage();
        for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            if word.len() > 2 && word.starts_with("--") && word != "--help" {
                assert!(
                    COMMANDS
                        .iter()
                        .any(|(_, _, spec)| spec.iter().any(|(f, _)| *f == word)),
                    "usage() mentions {word}, which no subcommand accepts"
                );
            }
        }
    }
}
