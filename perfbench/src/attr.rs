//! Traced attribution: an [`EventSink`] that stamps host time at every
//! emit and charges the time since the previous emit to the crate that
//! owns the emitted event kind. Attached through the public
//! `Testbed::set_tracer`; the simulator itself is not changed.

use sdnbuf_sim::{Event, EventKind, EventSink};
use std::time::Instant;

/// A layer of the simulator, named after the crate that owns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Links, bus, scheduler, fault injection.
    Sim,
    /// Rule lookup, install, eviction and expiry.
    Flowtable,
    /// The buffer mechanisms.
    Switchbuf,
    /// The switch slow path and session machinery.
    Switch,
    /// Control messages on the wire.
    Openflow,
    /// The controller.
    Controller,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Sim,
        Layer::Flowtable,
        Layer::Switchbuf,
        Layer::Switch,
        Layer::Openflow,
        Layer::Controller,
    ];

    /// The crate name used as the metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sim => "sim",
            Layer::Flowtable => "flowtable",
            Layer::Switchbuf => "switchbuf",
            Layer::Switch => "switch",
            Layer::Openflow => "openflow",
            Layer::Controller => "controller",
        }
    }
}

/// Event kinds the attribution distinguishes, with their owning layer.
/// The index is the position in [`KINDS`].
pub const KINDS: [(&str, Layer); 29] = [
    ("link_tx", Layer::Sim),
    ("link_drop", Layer::Sim),
    ("bus_transfer", Layer::Sim),
    ("ctrl_drop", Layer::Sim),
    ("table_miss", Layer::Flowtable),
    ("flow_rule_installed", Layer::Flowtable),
    ("flow_rule_evicted", Layer::Flowtable),
    ("flow_rule_expired", Layer::Flowtable),
    ("buffer_enqueue", Layer::Switchbuf),
    ("buffer_drain", Layer::Switchbuf),
    ("buffer_rerequest", Layer::Switchbuf),
    ("buffer_reconcile", Layer::Switchbuf),
    ("buffer_fallback", Layer::Switchbuf),
    ("buffer_expire", Layer::Switchbuf),
    ("buffer_giveup", Layer::Switchbuf),
    ("packet_in_sent", Layer::Switch),
    ("degraded_enter", Layer::Switch),
    ("degraded_exit", Layer::Switch),
    ("epoch_bump", Layer::Switch),
    ("stale_epoch_reject", Layer::Switch),
    ("ctrl_msg", Layer::Openflow),
    ("admission_shed", Layer::Controller),
    ("packet_in_received", Layer::Controller),
    ("decision", Layer::Controller),
    ("flow_mod_sent", Layer::Controller),
    ("packet_out_sent", Layer::Controller),
    ("ctrl_crash", Layer::Controller),
    ("ctrl_restart", Layer::Controller),
    ("failover_takeover", Layer::Controller),
];

/// Position of `name` in [`KINDS`].
pub fn kind_index(name: &str) -> usize {
    KINDS
        .iter()
        .position(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown event kind {name}"))
}

fn index_of(kind: &EventKind) -> usize {
    match kind {
        EventKind::LinkTx { .. } => 0,
        EventKind::LinkDrop { .. } => 1,
        EventKind::BusTransfer { .. } => 2,
        EventKind::CtrlDrop { .. } => 3,
        EventKind::TableMiss { .. } => 4,
        EventKind::FlowRuleInstalled { .. } => 5,
        EventKind::FlowRuleEvicted { .. } => 6,
        EventKind::FlowRuleExpired { .. } => 7,
        EventKind::BufferEnqueue { .. } => 8,
        EventKind::BufferDrain { .. } => 9,
        EventKind::BufferRerequest { .. } => 10,
        EventKind::BufferReconcile { .. } => 11,
        EventKind::BufferFallback { .. } => 12,
        EventKind::BufferExpire { .. } => 13,
        EventKind::BufferGiveUp { .. } => 14,
        EventKind::PacketInSent { .. } => 15,
        EventKind::DegradedEnter { .. } => 16,
        EventKind::DegradedExit { .. } => 17,
        EventKind::EpochBump { .. } => 18,
        EventKind::StaleEpochReject { .. } => 19,
        EventKind::CtrlMsg { .. } => 20,
        EventKind::AdmissionShed { .. } => 21,
        EventKind::PacketInReceived { .. } => 22,
        EventKind::Decision { .. } => 23,
        EventKind::FlowModSent { .. } => 24,
        EventKind::PacketOutSent { .. } => 25,
        EventKind::CtrlCrash { .. } => 26,
        EventKind::CtrlRestart { .. } => 27,
        EventKind::FailoverTakeover { .. } => 28,
    }
}

/// Host time and event counts per layer and kind, accumulated over one or
/// more traced runs.
#[derive(Clone, Debug)]
pub struct Attribution {
    last: Instant,
    /// Host nanoseconds charged per event kind.
    pub kind_ns: [u64; KINDS.len()],
    /// Events seen per kind.
    pub counts: [u64; KINDS.len()],
    /// Largest flow-table occupancy reported by a rule install.
    pub peak_rules: usize,
}

impl Default for Attribution {
    fn default() -> Self {
        Attribution {
            last: Instant::now(),
            kind_ns: [0; KINDS.len()],
            counts: [0; KINDS.len()],
            peak_rules: 0,
        }
    }
}

impl Attribution {
    /// Restarts the clock: the next emit is charged from now. Call right
    /// before `Testbed::run`.
    pub fn start(&mut self) {
        self.last = Instant::now();
    }

    /// Host nanoseconds charged to `layer`.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        KINDS
            .iter()
            .zip(&self.kind_ns)
            .filter(|((_, l), _)| *l == layer)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Host nanoseconds charged to any layer.
    pub fn total_ns(&self) -> u64 {
        self.kind_ns.iter().sum()
    }

    /// Share of the attributed time charged to the slow-path layers:
    /// flow table, buffer mechanism, controller and OpenFlow.
    pub fn slow_path_share(&self) -> f64 {
        let slow: u64 = [
            Layer::Flowtable,
            Layer::Switchbuf,
            Layer::Controller,
            Layer::Openflow,
        ]
        .into_iter()
        .map(|l| self.layer_ns(l))
        .sum();
        slow as f64 / self.total_ns().max(1) as f64
    }

    /// Events of kind `name` seen.
    pub fn count(&self, name: &str) -> u64 {
        self.counts[kind_index(name)]
    }

    /// Host nanoseconds charged to kind `name`.
    pub fn ns(&self, name: &str) -> u64 {
        self.kind_ns[kind_index(name)]
    }
}

impl EventSink for Attribution {
    fn emit(&mut self, event: Event) {
        let now = Instant::now();
        let i = index_of(&event.kind);
        self.kind_ns[i] += now.duration_since(self.last).as_nanos() as u64;
        self.counts[i] += 1;
        self.last = now;
        if let EventKind::FlowRuleInstalled { table_size, .. } = event.kind {
            self.peak_rules = self.peak_rules.max(table_size);
        }
    }
}
