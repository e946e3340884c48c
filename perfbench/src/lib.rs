//! The repository benchmark: runs one of four workloads on the simulated
//! testbed, measures host cost and simulated-network metrics with tracing
//! off, and per-crate layer numbers from a separate traced run.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to run them.

pub mod alloc;
pub mod attr;
pub mod drivers;
pub mod host;
pub mod workloads;

use attr::Attribution;
use host::SchedStat;
use sdnbuf_core::Testbed;
use sdnbuf_sim::{EventSink, Tracer};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::{Cell, CellOutcome, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// One rep: every cell of a workload, generated, built and run once.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Workload generation time.
    pub gen: Duration,
    /// Generation plus testbed construction.
    pub setup: Duration,
    /// `Testbed::run` host wall time.
    pub run: Duration,
    /// On-CPU time and run-queue wait over the whole rep.
    pub sched: SchedStat,
    /// Live-heap high-water mark over the rep, bytes above its start.
    pub peak_heap: u64,
    /// Allocations over the whole rep.
    pub allocs: u64,
    /// Allocations inside `Testbed::run`.
    pub run_allocs: u64,
    /// Live heap after each run (departures freed, testbed not yet
    /// dropped), bytes above the cell's start, summed over cells.
    pub retained: u64,
    /// Simulator events dispatched.
    pub events: u64,
    /// Flows offered.
    pub flows: u64,
    /// Per-cell outcomes, in cell order.
    pub cells: Vec<CellOutcome>,
}

/// Runs every cell once; with `attr`, the attribution sink is attached to
/// every testbed and charged during `Testbed::run` only.
pub fn run_rep(cells: &[Cell], attr: Option<&Rc<RefCell<Attribution>>>) -> Rep {
    let mut rep = Rep::default();
    let live0 = alloc::live();
    let allocs0 = alloc::allocs();
    alloc::reset_peak();
    let sched0 = SchedStat::now();
    for cell in cells {
        let cell_live = alloc::live();
        let t0 = Instant::now();
        let deps = cell.departures();
        let gen = t0.elapsed();
        let mut tb = Testbed::new(cell.config.clone());
        if let Some(a) = attr {
            let sink: Rc<RefCell<dyn EventSink>> = a.clone();
            tb.set_tracer(Tracer::new(sink));
        }
        rep.setup += t0.elapsed();
        rep.gen += gen;

        let a0 = alloc::allocs();
        if let Some(a) = attr {
            a.borrow_mut().start();
        }
        let t1 = Instant::now();
        let mut result = tb.run(&deps);
        rep.run += t1.elapsed();
        rep.run_allocs += alloc::allocs() - a0;
        drop(deps);
        rep.retained += alloc::live().saturating_sub(cell_live);

        result.sending_rate_mbps = cell.rate_mbps as f64;
        rep.events += result.events_dispatched;
        rep.flows += cell.flows() as u64;
        let sw = tb.switch();
        rep.cells.push(CellOutcome {
            lookups: sw.table().lookups(),
            hits: sw.table().hits(),
            switch_drops: sw.stats().drops.get(),
            switch_flow_mods: sw.stats().flow_mods.get(),
            buffer_held: sw.buffer().occupancy() as u64,
            faults_clean: cell.config.faults.is_empty(),
            result,
        });
    }
    rep.sched = SchedStat::now().since(sched0);
    rep.allocs = alloc::allocs() - allocs0;
    rep.peak_heap = alloc::peak().saturating_sub(live0);
    rep
}

/// One traced rep of `workload` at `seed` (fault seed alike), with the
/// attribution it produced.
pub fn traced_rep(workload: Workload, seed: u64) -> (Rep, Attribution) {
    let cells = workload.cells(seed, seed);
    let attr = Rc::new(RefCell::new(Attribution::default()));
    let rep = run_rep(&cells, Some(&attr));
    let attr = Rc::try_unwrap(attr)
        .expect("every testbed holding the sink was dropped")
        .into_inner();
    (rep, attr)
}

/// Set-up alone (generation plus construction of every cell), for extra
/// `setup_s` samples between reps.
pub fn setup_only(cells: &[Cell]) -> Duration {
    let mut total = Duration::ZERO;
    for cell in cells {
        let t0 = Instant::now();
        let deps = cell.departures();
        let tb = Testbed::new(cell.config.clone());
        total += t0.elapsed();
        drop((deps, tb));
    }
    total
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
