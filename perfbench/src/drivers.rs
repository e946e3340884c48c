//! Layer drivers: direct calls into each crate's public functions, timed
//! from outside, at the state a workload's run reached (its peak rule
//! count, its peak buffer occupancy, its packets and message mix).

use crate::workloads::Cell;
use sdnbuf_controller::Controller;
use sdnbuf_flowtable::{FlowRule, FlowTable};
use sdnbuf_net::{FlowKey, Packet};
use sdnbuf_openflow::{Action, Match, MatchView, OfpMessage, PortNo};
use sdnbuf_sim::{EventQueue, Nanos};
use sdnbuf_switch::{PacketPool, Switch, SwitchOutput};
use sdnbuf_switchbuf::MissAction;
use sdnbuf_workload::{Departure, HostAddr};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed work each driver accumulates before it reports.
const MIN_TIMED: Duration = Duration::from_millis(40);

/// Host nanoseconds per call, per layer function.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// `EventQueue::schedule` + `pop`, per operation, over the run's
    /// departure times.
    pub queue_ns_per_op: f64,
    /// `FlowKey::of` + `Packet::wire_len` per workload packet.
    pub parse_ns: f64,
    /// `FlowTable::match_packet` (hits) at the peak rule count.
    pub match_ns: f64,
    /// `FlowTable::insert` while filling to the peak rule count.
    pub insert_ns: f64,
    /// `FlowTable::expire` with nothing due, at the peak rule count.
    pub expire_ns: f64,
    /// `FlowTable::next_expiry` at the peak rule count.
    pub next_expiry_ns: f64,
    /// `BufferMechanism::on_miss` while filling to the peak occupancy.
    pub on_miss_ns: f64,
    /// `BufferMechanism::release` per buffered id.
    pub release_ns: f64,
    /// `BufferMechanism::poll_timeouts` per call, each with one entry due.
    pub poll_ns: f64,
    /// `Switch::handle_frame` on a rule hit (the fast path).
    pub handle_frame_ns: f64,
    /// `OfpMessage::encode` over the message mix.
    pub encode_ns: f64,
    /// `OfpMessage::decode` over the message mix.
    pub decode_ns: f64,
    /// `Controller::handle_message` per `packet_in`.
    pub handle_ns: f64,
}

/// Accumulates timed calls until [`MIN_TIMED`] of work is measured.
#[derive(Default)]
struct Acc {
    time: Duration,
    ops: u64,
}

impl Acc {
    fn add(&mut self, time: Duration, ops: usize) {
        self.time += time;
        self.ops += ops as u64;
    }

    fn done(&self) -> bool {
        self.time >= MIN_TIMED
    }

    fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.time.as_nanos() as f64 / self.ops as f64
        }
    }
}

/// Repeats `pass` until enough work is timed; `pass` returns the time it
/// measured and the operations that time covers.
fn per_op(mut pass: impl FnMut() -> (Duration, usize)) -> f64 {
    let mut acc = Acc::default();
    while !acc.done() {
        let (t, ops) = pass();
        if ops == 0 {
            break;
        }
        acc.add(t, ops);
    }
    acc.ns_per_op()
}

fn release_outputs(outputs: Vec<SwitchOutput>, pool: &mut PacketPool) {
    for out in outputs {
        match out {
            SwitchOutput::Forward { packet, .. }
            | SwitchOutput::Drop {
                packet: Some(packet),
            } => {
                pool.release(packet);
            }
            _ => {}
        }
    }
}

/// Runs every driver for `cell`, whose run reached `peak_rules` installed
/// rules and `peak_occupancy` buffered packets.
pub fn measure(
    cell: &Cell,
    deps: &[Departure],
    peak_rules: usize,
    peak_occupancy: usize,
) -> LayerTimes {
    let firsts: Vec<&Packet> = deps
        .iter()
        .filter(|d| d.seq_in_flow == 0)
        .map(|d| &d.packet)
        .collect();
    let mut t = LayerTimes::default();
    sim_and_net(deps, &mut t);
    flowtable(cell, &firsts, peak_rules, &mut t);
    switchbuf(cell, &firsts, peak_occupancy, &mut t);
    control_loop(cell, &firsts, peak_rules, &mut t);
    t
}

fn sim_and_net(deps: &[Departure], t: &mut LayerTimes) {
    t.queue_ns_per_op = per_op(|| {
        let mut q = EventQueue::new();
        let start = Instant::now();
        for (i, d) in deps.iter().enumerate() {
            q.schedule(d.at, i as u32);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
        (start.elapsed(), 2 * deps.len())
    });
    t.parse_ns = per_op(|| {
        let start = Instant::now();
        for d in deps {
            black_box(FlowKey::of(black_box(&d.packet)));
            black_box(d.packet.wire_len());
        }
        (start.elapsed(), deps.len())
    });
}

fn flowtable(cell: &Cell, firsts: &[&Packet], peak_rules: usize, t: &mut LayerTimes) {
    let cfg = &cell.config;
    let n = peak_rules
        .clamp(1, cfg.switch.flow_table_capacity)
        .min(firsts.len());
    let idle = Nanos::from_secs(u64::from(cfg.controller.rule_idle_timeout));
    let rules: Vec<FlowRule> = firsts[..n]
        .iter()
        .map(|p| {
            FlowRule::new(
                Match::exact_from_packet(PortNo(1), p),
                cfg.controller.rule_priority,
            )
            .with_actions(vec![Action::output(PortNo(2))])
            .with_idle_timeout(idle)
        })
        .collect();
    let views: Vec<MatchView> = firsts[..n]
        .iter()
        .map(|p| MatchView::of(PortNo(1), p))
        .collect();
    let fill = |table: &mut FlowTable, batch: Vec<FlowRule>| {
        let start = Instant::now();
        for (i, rule) in batch.into_iter().enumerate() {
            table.insert(Nanos::from_micros(i as u64), rule);
        }
        start.elapsed()
    };
    let fresh = || FlowTable::with_eviction(cfg.switch.flow_table_capacity, cfg.switch.eviction);
    t.insert_ns = per_op(|| (fill(&mut fresh(), rules.clone()), n));

    let mut table = fresh();
    fill(&mut table, rules.clone());
    // Every rule is in effect and none is idle long enough to expire.
    let now = Nanos::from_micros(n as u64) + Nanos::from_millis(1);
    t.match_ns = per_op(|| {
        let start = Instant::now();
        let mut hits = 0usize;
        for v in &views {
            hits += usize::from(table.match_packet(now, v, 1000).is_some());
        }
        let elapsed = start.elapsed();
        assert_eq!(hits, n, "flow-table driver: every installed rule must hit");
        (elapsed, n)
    });
    t.expire_ns = per_op(|| {
        let start = Instant::now();
        let removed = table.expire(now);
        let elapsed = start.elapsed();
        assert!(removed.is_empty(), "flow-table driver: nothing is due");
        (elapsed, 1)
    });
    t.next_expiry_ns = per_op(|| {
        let start = Instant::now();
        black_box(table.next_expiry());
        (start.elapsed(), 1)
    });
}

fn switchbuf(cell: &Cell, firsts: &[&Packet], peak_occupancy: usize, t: &mut LayerTimes) {
    let m = peak_occupancy.max(1).min(firsts.len());
    let (mut on_miss, mut release, mut poll) = (Acc::default(), Acc::default(), Acc::default());
    let mut passes = 0;
    while !(on_miss.done() && release.done() && (poll.done() || poll.ops == 0)) && passes < 10_000 {
        passes += 1;
        let mut sw = Switch::new(cell.config.switch);
        let mut pool = PacketPool::new();
        let handles: Vec<_> = firsts[..m]
            .iter()
            .map(|p| pool.insert((*p).clone()))
            .collect();
        let buf = sw.buffer_mut();

        let start = Instant::now();
        let actions: Vec<MissAction> = handles
            .iter()
            .enumerate()
            .map(|(i, &h)| buf.on_miss(Nanos::from_micros(i as u64), h, PortNo(1), &pool))
            .collect();
        on_miss.add(start.elapsed(), m);

        // Step through the re-request deadlines one at a time, as the
        // switch timer does.
        let start = Instant::now();
        let mut polls = 0;
        while polls < m {
            let Some(due) = buf.next_timeout() else { break };
            black_box(buf.poll_timeouts(due, &pool));
            polls += 1;
        }
        poll.add(start.elapsed(), polls);

        let mut ids: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                MissAction::SendBufferedPacketIn { buffer_id }
                | MissAction::Buffered { buffer_id } => Some(*buffer_id),
                MissAction::SendFullPacketIn => None,
            })
            .collect();
        ids.dedup();
        let later = Nanos::from_secs(1);
        let start = Instant::now();
        let released: Vec<_> = ids.iter().map(|&id| buf.release(later, id)).collect();
        release.add(start.elapsed(), ids.len());
        drop(released);
    }
    t.on_miss_ns = on_miss.ns_per_op();
    t.release_ns = release.ns_per_op();
    t.poll_ns = poll.ns_per_op();
}

fn control_loop(cell: &Cell, firsts: &[&Packet], peak_rules: usize, t: &mut LayerTimes) {
    let cfg = &cell.config;
    let k = peak_rules
        .clamp(1, cfg.switch.flow_table_capacity)
        .min(firsts.len());
    let mut sw = Switch::new(cfg.switch);
    let mut ctrl = Controller::new(cfg.controller);
    ctrl.learn(HostAddr::host1().mac, PortNo(1));
    ctrl.learn(HostAddr::host2().mac, PortNo(2));
    let mut pool = PacketPool::new();
    let gap = Nanos::from_micros(100);

    // The slow path produces the run's packet_in mix.
    let mut pins = Vec::with_capacity(k);
    let mut now = Nanos::ZERO;
    for p in &firsts[..k] {
        now += gap;
        let h = pool.insert((*p).clone());
        let mut outs = sw.handle_frame(now, PortNo(1), h, &mut pool);
        outs.retain(|o| match o {
            SwitchOutput::ToController { msg, xid, .. } => {
                pins.push((msg.clone(), *xid));
                false
            }
            _ => true,
        });
        release_outputs(outs, &mut pool);
    }

    // The controller answers them; its replies complete the message mix.
    let mut replies = Vec::new();
    t.handle_ns = per_op(|| {
        let batch = pins.clone();
        let mut outs = Vec::with_capacity(batch.len());
        let start = Instant::now();
        for (msg, xid) in batch {
            now += gap;
            outs.push(ctrl.handle_message(now, msg, xid));
        }
        let elapsed = start.elapsed();
        if replies.is_empty() {
            replies = outs
                .into_iter()
                .flatten()
                .map(|sdnbuf_controller::ControllerOutput::ToSwitch { msg, xid, .. }| (msg, xid))
                .collect();
        }
        (elapsed, pins.len())
    });

    let mix: Vec<(OfpMessage, u32)> = pins.iter().chain(&replies).cloned().collect();
    t.encode_ns = per_op(|| {
        let start = Instant::now();
        for (msg, xid) in &mix {
            black_box(msg.encode(*xid));
        }
        (start.elapsed(), mix.len())
    });
    let wire: Vec<Vec<u8>> = mix.iter().map(|(m, x)| m.encode(*x)).collect();
    t.decode_ns = per_op(|| {
        let start = Instant::now();
        for bytes in &wire {
            black_box(OfpMessage::decode(bytes).expect("a message the codec encoded decodes"));
        }
        (start.elapsed(), wire.len())
    });

    // Install the replies, then time frames that hit the new rules.
    for (msg, xid) in replies {
        now += gap;
        let outs = sw.handle_controller_msg(now, msg, xid, &mut pool);
        release_outputs(outs, &mut pool);
    }
    // The install pipeline is serial; wait until every rule is in effect.
    now += Nanos::from_millis(k as u64) + Nanos::from_secs(1);
    t.handle_frame_ns = per_op(|| {
        let handles: Vec<_> = firsts[..k]
            .iter()
            .map(|p| pool.insert((*p).clone()))
            .collect();
        let hits = sw.table().hits();
        let mut outs = Vec::with_capacity(k);
        let start = Instant::now();
        for h in handles {
            now += Nanos::from_micros(1);
            outs.push(sw.handle_frame(now, PortNo(1), h, &mut pool));
        }
        let elapsed = start.elapsed();
        assert_eq!(
            sw.table().hits() - hits,
            k as u64,
            "switch driver: every frame must hit"
        );
        for o in outs {
            release_outputs(o, &mut pool);
        }
        (elapsed, k)
    });
}
