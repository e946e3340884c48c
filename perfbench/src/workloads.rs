//! The four workloads: what each one offers the testbed, and the output
//! checks that prove a run measured the program it was meant to.
//!
//! Every workload is an open loop in simulated time: `pktgen` departures
//! are generated up front from the workload seed, and the testbed gets
//! only those departures.

use sdnbuf_core::{BufferMode, RunResult, TestbedConfig};
use sdnbuf_model::{Oracle, Scenario};
use sdnbuf_sim::{BitRate, FaultPlan, Nanos};
use sdnbuf_workload::{cross_sequenced_flows, single_packet_flows, Departure, PktgenConfig};

/// The seed every pinned value below was recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 50k single-packet flows at 80 Mbps through `flow:256`: every packet
    /// takes the slow path and the flow table sits at capacity.
    MissStorm,
    /// `cross:1000x400/1` at 20 Mbps through `flow:256`: the fast path.
    BulkFlows,
    /// 30k single-packet flows at 80 Mbps through `flow:256:20` under 20%
    /// control-channel loss each way plus two 30 ms controller stalls.
    LossyRecovery,
    /// The Section IV grid {none, packet:16, packet:256} × 20 rates ×
    /// 1000 flows, run serially.
    PaperGrid,
}

/// How a cell's departures are generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// `n` single-packet flows (Section IV).
    Single(usize),
    /// `flows × packets` cross-sequenced in groups of `group` (Section V).
    Cross {
        /// Flows.
        flows: usize,
        /// Packets per flow.
        packets: usize,
        /// Flows interleaved per batch.
        group: usize,
    },
}

/// One testbed run of a workload: a configuration plus its traffic.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The testbed, including buffer mechanism and fault plan.
    pub config: TestbedConfig,
    /// Offered sending rate.
    pub rate_mbps: u64,
    /// The traffic pattern.
    pub traffic: Traffic,
    /// Workload seed (departure jitter).
    pub seed: u64,
}

impl Cell {
    fn new(buffer: BufferMode, rate_mbps: u64, traffic: Traffic, seed: u64) -> Cell {
        Cell {
            config: TestbedConfig::with_buffer(buffer),
            rate_mbps,
            traffic,
            seed,
        }
    }

    /// The packet generator's settings: the paper's frames and jitter at
    /// the cell's rate.
    pub fn pktgen(&self) -> PktgenConfig {
        PktgenConfig {
            rate: BitRate::from_mbps(self.rate_mbps),
            ..PktgenConfig::default()
        }
    }

    /// Generates the departures (the workload-generation half of set-up).
    pub fn departures(&self) -> Vec<Departure> {
        let pktgen = self.pktgen();
        match self.traffic {
            Traffic::Single(n) => single_packet_flows(&pktgen, n, self.seed),
            Traffic::Cross {
                flows,
                packets,
                group,
            } => cross_sequenced_flows(&pktgen, flows, packets, group, self.seed),
        }
    }

    /// Flows the cell offers.
    pub fn flows(&self) -> usize {
        match self.traffic {
            Traffic::Single(n) => n,
            Traffic::Cross { flows, .. } => flows,
        }
    }
}

const FLOW_256: BufferMode = BufferMode::FlowGranularity {
    capacity: 256,
    timeout: Nanos::from_millis(50),
};

impl Workload {
    /// Every workload; `BENCHMARK.json` lists the first three.
    pub const ALL: [Workload; 4] = [
        Workload::MissStorm,
        Workload::BulkFlows,
        Workload::LossyRecovery,
        Workload::PaperGrid,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MissStorm => "miss_storm",
            Workload::BulkFlows => "bulk_flows",
            Workload::LossyRecovery => "lossy_recovery",
            Workload::PaperGrid => "paper_grid",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells one rep of the workload runs, in order.
    pub fn cells(self, seed: u64, fault_seed: u64) -> Vec<Cell> {
        match self {
            Workload::MissStorm => vec![Cell::new(FLOW_256, 80, Traffic::Single(50_000), seed)],
            Workload::BulkFlows => vec![Cell::new(
                FLOW_256,
                20,
                Traffic::Cross {
                    flows: 1000,
                    packets: 400,
                    group: 1,
                },
                seed,
            )],
            Workload::LossyRecovery => {
                let mut cell = Cell::new(
                    BufferMode::FlowGranularity {
                        capacity: 256,
                        timeout: Nanos::from_millis(20),
                    },
                    80,
                    Traffic::Single(30_000),
                    seed,
                );
                // `from=5ms` keeps the handshake and the ARP warm-up clean,
                // so no fault seed can leave the controller without Host2's
                // location (it would then flood and install no rules).
                cell.config.faults = FaultPlan::parse(&format!(
                    "fseed={fault_seed},from=5ms,c.loss=p:0.2,s.loss=p:0.2,\
                     stall=1s+30ms,stall=2s+30ms"
                ))
                .expect("the lossy_recovery fault plan parses");
                vec![cell]
            }
            Workload::PaperGrid => {
                let mut cells = Vec::with_capacity(60);
                for buffer in [
                    BufferMode::NoBuffer,
                    BufferMode::PacketGranularity { capacity: 16 },
                    BufferMode::PacketGranularity { capacity: 256 },
                ] {
                    for rate in (1..=20).map(|i| i * 5) {
                        cells.push(Cell::new(buffer, rate, Traffic::Single(1000), seed));
                    }
                }
                cells
            }
        }
    }
}

/// What the benchmark reads off a finished testbed besides its
/// [`RunResult`].
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The run's measurements.
    pub result: RunResult,
    /// Flow-table lookups (every frame the switch received).
    pub lookups: u64,
    /// Lookups that hit a rule.
    pub hits: u64,
    /// Frames the switch dropped (no output port, shed misses).
    pub switch_drops: u64,
    /// `flow_mod`s the switch received.
    pub switch_flow_mods: u64,
    /// Buffer units still held when the run ended.
    pub buffer_held: u64,
    /// Whether the cell ran without injected faults.
    pub faults_clean: bool,
}

/// The simulated-network metrics of one rep: identical on every rep of
/// one seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimMetrics {
    /// Flow-setup delay median, ms (mean over cells of each cell's p50).
    pub setup_p50_ms: f64,
    /// Flow-setup delay 99th percentile, ms (mean over cells).
    pub setup_p99_ms: f64,
    /// Switch → controller load, Mbps (mean over cells).
    pub ctrl_load_mbps: f64,
    /// Delivered share of sent packets, percent, over all cells.
    pub delivered_pct: f64,
}

impl SimMetrics {
    /// Aggregates a rep's cells.
    pub fn of(cells: &[CellOutcome]) -> SimMetrics {
        let n = cells.len().max(1) as f64;
        let mean =
            |f: &dyn Fn(&RunResult) -> f64| cells.iter().map(|c| f(&c.result)).sum::<f64>() / n;
        let sent: u64 = cells.iter().map(|c| c.result.packets_sent).sum();
        let delivered: u64 = cells.iter().map(|c| c.result.packets_delivered).sum();
        SimMetrics {
            setup_p50_ms: mean(&|r| r.flow_setup_delay.p50),
            setup_p99_ms: mean(&|r| r.flow_setup_delay.p99),
            ctrl_load_mbps: mean(&|r| r.ctrl_load_to_controller_mbps),
            delivered_pct: 100.0 * delivered as f64 / sent.max(1) as f64,
        }
    }
}

/// Exact counts of the simulated network, summed over a rep's cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// `packet_in`s on the control path.
    pub pkt_ins: u64,
    /// `flow_mod`s on the control path.
    pub flow_mods: u64,
    /// `packet_out`s on the control path.
    pub pkt_outs: u64,
    /// Bytes switch → controller.
    pub bytes_up: u64,
    /// Bytes controller → switch.
    pub bytes_down: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Timeout-driven re-requests.
    pub rerequests: u64,
}

impl Counts {
    /// Sums a rep's cells.
    pub fn of(cells: &[CellOutcome]) -> Counts {
        let sum = |f: &dyn Fn(&RunResult) -> u64| cells.iter().map(|c| f(&c.result)).sum();
        Counts {
            pkt_ins: sum(&|r| r.pkt_in_count),
            flow_mods: sum(&|r| r.flow_mod_count),
            pkt_outs: sum(&|r| r.pkt_out_count),
            bytes_up: sum(&|r| r.ctrl_bytes_to_controller),
            bytes_down: sum(&|r| r.ctrl_bytes_to_switch),
            delivered: sum(&|r| r.packets_delivered),
            rerequests: sum(&|r| r.rerequests),
        }
    }
}

/// Values recorded at [`DEFAULT_SEED`] (fault seed = workload seed). A
/// change that moves them changed the simulated network, not just its
/// speed.
struct Pin {
    counts: Counts,
    setup_p50_ms: f64,
    setup_p99_ms: f64,
    ctrl_load_mbps: f64,
    delivered_pct: f64,
}

fn pin(w: Workload) -> Pin {
    let counts =
        |[pkt_ins, flow_mods, pkt_outs, bytes_up, bytes_down, delivered, rerequests]: [u64; 7]| {
            Counts {
                pkt_ins,
                flow_mods,
                pkt_outs,
                bytes_up,
                bytes_down,
                delivered,
                rerequests,
            }
        };
    match w {
        Workload::MissStorm => Pin {
            counts: counts([50_000, 50_000, 50_000, 7_300_000, 5_200_000, 50_000, 0]),
            setup_p50_ms: 0.907494,
            setup_p99_ms: 0.907494,
            ctrl_load_mbps: 11.677040958417258,
            delivered_pct: 100.0,
        },
        Workload::BulkFlows => Pin {
            counts: counts([2_000, 2_000, 2_000, 292_000, 208_000, 400_000, 0]),
            setup_p50_ms: 0.907494,
            setup_p99_ms: 0.907494,
            ctrl_load_mbps: 0.01459984253038717,
            delivered_pct: 100.0,
        },
        Workload::LossyRecovery => Pin {
            counts: counts([46_954, 37_653, 37_653, 7_193_620, 4_226_912, 29_851, 16_954]),
            setup_p50_ms: 0.95927,
            setup_p99_ms: 80.95731,
            ctrl_load_mbps: 18.660233317325428,
            delivered_pct: 99.50333333333333,
        },
        Workload::PaperGrid => Pin {
            counts: counts([60_000, 60_000, 60_000, 33_895_400, 35_065_000, 60_000, 0]),
            setup_p50_ms: 4.030472183333338,
            setup_p99_ms: 5.951034726999997,
            ctrl_load_mbps: 28.618832919082802,
            delivered_pct: 100.0,
        },
    }
}

/// Relative tolerance on pinned delay percentiles: the stated error of the
/// fixed-memory histogram, so a move to histogram percentiles stays
/// within it while any change to the simulated timeline does not.
const PERCENTILE_TOLERANCE: f64 = 1.0 / 64.0;

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * b.abs().max(1e-12)
}

/// Checks the pinned values; only meaningful at [`DEFAULT_SEED`].
pub fn check_pins(w: Workload, cells: &[CellOutcome], failures: &mut Vec<String>) {
    let p = pin(w);
    let counts = Counts::of(cells);
    let sim = SimMetrics::of(cells);
    if counts != p.counts {
        failures.push(format!(
            "pinned counts drifted: got {counts:?}, pinned {:?}",
            p.counts
        ));
    }
    for (name, got, want, rel) in [
        (
            "sim_setup_p50_ms",
            sim.setup_p50_ms,
            p.setup_p50_ms,
            PERCENTILE_TOLERANCE,
        ),
        (
            "sim_setup_p99_ms",
            sim.setup_p99_ms,
            p.setup_p99_ms,
            PERCENTILE_TOLERANCE,
        ),
        (
            "sim_ctrl_load_mbps",
            sim.ctrl_load_mbps,
            p.ctrl_load_mbps,
            1e-12,
        ),
        (
            "sim_delivered_pct",
            sim.delivered_pct,
            p.delivered_pct,
            1e-12,
        ),
    ] {
        if !close(got, want, rel) {
            failures.push(format!("pinned {name} drifted: got {got}, pinned {want}"));
        }
    }
}

/// The packet-conservation identity, per cell: every sent packet is
/// delivered, dropped on a data link or by the switch, still held in a
/// buffer unit, or rode a full-packet control message after a buffer
/// fallback. Units still held at the end bound the buffered rest (lazily
/// reclaimed units count too), and only fallback messages can lose a packet
/// on a lossy channel.
pub fn check_conservation(cells: &[CellOutcome], failures: &mut Vec<String>) {
    for (i, c) in cells.iter().enumerate() {
        let r = &c.result;
        let accounted = r.packets_delivered + r.packets_dropped + c.switch_drops;
        let lost_bound = c.buffer_held
            + if c.faults_clean {
                0
            } else {
                r.buffer_fallbacks
            };
        if r.packets_sent
            .checked_sub(accounted)
            .map_or(true, |rest| rest > lost_bound)
        {
            failures.push(format!(
                "cell {i} ({} @ {} Mbps): sent {} but delivered {} + link-dropped {} + \
                 switch-dropped {} leaves more than the {lost_bound} held or fallback packets",
                r.label,
                r.sending_rate_mbps,
                r.packets_sent,
                r.packets_delivered,
                r.packets_dropped,
                c.switch_drops,
            ));
        }
    }
}

/// Regime guards: fail loudly when a seed or configuration drift would
/// silently measure a different program.
pub fn check_regime(w: Workload, cells: &[Cell], out: &[CellOutcome], failures: &mut Vec<String>) {
    match w {
        Workload::MissStorm => {
            // The table fills iff more flows get rules inside one idle
            // timeout than the table holds: none can expire before then.
            let cfg = &cells[0].config;
            let capacity = cfg.switch.flow_table_capacity as u64;
            let idle = Nanos::from_secs(u64::from(cfg.controller.rule_idle_timeout));
            let fill_span = cells[0].pktgen().interval() * capacity;
            if out[0].switch_flow_mods <= capacity || fill_span >= idle {
                failures.push(format!(
                    "regime: flow table never fills ({} flow_mods, {} rules installed over {fill_span} \
                     against a {idle} idle timeout)",
                    out[0].switch_flow_mods, capacity
                ));
            }
        }
        Workload::BulkFlows => {
            // Each flow misses on the few packets that arrive before its
            // rule takes effect: 4 of 400, 1%. A broken install path misses
            // on every packet.
            let miss_pct = miss_pct(&out[0]);
            if miss_pct >= 2.0 {
                failures.push(format!(
                    "regime: {miss_pct:.3}% of frames missed (fast path needs < 2%)"
                ));
            }
        }
        Workload::LossyRecovery => {
            let flows = cells[0].flows() as u64;
            let c = &out[0];
            if c.switch_flow_mods * 10 < flows * 9 {
                failures.push(format!(
                    "regime: only {} flow_mods reached the switch for {flows} flows",
                    c.switch_flow_mods
                ));
            }
            if c.result.rerequests == 0 {
                failures.push("regime: no re-requests under 20% control loss".to_owned());
            }
        }
        Workload::PaperGrid => {
            // The no-buffer bus saturates near 66 Mbps: above the knee the
            // backlog must show as setup delay well over the idle floor.
            let floor = out[0].result.flow_setup_delay.mean;
            for (cell, o) in cells.iter().zip(out) {
                if cell.config.switch.buffer == BufferMode::NoBuffer
                    && cell.rate_mbps >= 70
                    && o.result.flow_setup_delay.mean < 2.0 * floor
                {
                    failures.push(format!(
                        "regime: none @ {} Mbps shows no backlog (mean setup {} ms, floor {floor} ms)",
                        cell.rate_mbps, o.result.flow_setup_delay.mean
                    ));
                }
            }
        }
    }
}

/// Share of frames that left the fast path, percent.
pub fn miss_pct(c: &CellOutcome) -> f64 {
    100.0 * (c.lookups - c.hits) as f64 / c.lookups.max(1) as f64
}

/// The per-cell tolerance the validation plane applies to mean setup
/// delay: 15%, widened ×3 near critical load and ×2 when saturated.
fn oracle_tolerance(near_critical: bool, saturated: bool) -> f64 {
    0.15 * if near_critical {
        3.0
    } else if saturated {
        2.0
    } else {
        1.0
    }
}

/// Worst-cell relative error (percent) of the simulated mean setup delay
/// against the analytic oracle, and the cells outside tolerance. Only
/// no-fault single-packet cells are covered.
pub fn oracle_check(cells: &[Cell], out: &[CellOutcome], failures: &mut Vec<String>) -> f64 {
    let oracle = Oracle::faithful();
    let mut worst = 0.0f64;
    for (cell, o) in cells.iter().zip(out) {
        let Traffic::Single(flows) = cell.traffic else {
            continue;
        };
        // The oracle assumes every miss finds a free buffer unit.
        let capacity = match cell.config.switch.buffer {
            BufferMode::NoBuffer => None,
            BufferMode::PacketGranularity { capacity }
            | BufferMode::FlowGranularity { capacity, .. } => Some(capacity),
        };
        if capacity.is_some_and(|cap| o.result.buffer_peak_occupancy >= cap) {
            continue;
        }
        let pktgen = cell.pktgen();
        let p = oracle.predict(&Scenario {
            switch: cell.config.switch,
            controller: cell.config.controller,
            data_link: cell.config.data_link,
            control_link: cell.config.control_link,
            rate: pktgen.rate,
            frame_len: pktgen.frame_size,
            flows: flows as u64,
        });
        let sim = o.result.flow_setup_delay.mean;
        let err = (sim - p.flow_setup_delay_ms).abs() / sim.abs().max(1e-9);
        worst = worst.max(err);
        if err > oracle_tolerance(p.near_critical, p.saturated) {
            failures.push(format!(
                "oracle: {} @ {} Mbps mean setup {sim} ms vs predicted {} ms ({:.1}%)",
                o.result.label,
                cell.rate_mbps,
                p.flow_setup_delay_ms,
                100.0 * err
            ));
        }
    }
    100.0 * worst
}
