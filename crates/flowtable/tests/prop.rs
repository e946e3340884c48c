//! Property-based tests: flow-table invariants under arbitrary operation
//! sequences.

use proptest::prelude::*;
use proptest::sample::Index;
use sdnbuf_flowtable::{EvictionPolicy, FlowRule, FlowTable, InsertOutcome, RemovedRule};
use sdnbuf_net::{FlowKey, PacketBuilder};
use sdnbuf_openflow::{msg::FlowRemovedReason, Match, MatchView, PortNo};
use sdnbuf_sim::Nanos;

#[derive(Clone, Debug)]
enum Op {
    Insert {
        src_port: u16,
        priority: u16,
        idle_s: u64,
    },
    Packet {
        src_port: u16,
    },
    Expire,
    DeleteAll,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..40, 0u16..8, 0u64..5).prop_map(|(src_port, priority, idle_s)| Op::Insert {
            src_port,
            priority,
            idle_s
        }),
        (0u16..40).prop_map(|src_port| Op::Packet { src_port }),
        Just(Op::Expire),
        Just(Op::DeleteAll),
    ]
}

fn rule_for(src_port: u16, priority: u16, idle_s: u64) -> FlowRule {
    let pkt = PacketBuilder::udp().src_port(src_port).build();
    FlowRule::new(Match::exact_from_packet(PortNo(1), &pkt), priority)
        .with_idle_timeout(Nanos::from_secs(idle_s))
}

proptest! {
    #[test]
    fn table_never_exceeds_capacity(
        ops in proptest::collection::vec(arb_op(), 1..200),
        capacity in 1usize..16,
        lru in any::<bool>(),
    ) {
        let policy = if lru { EvictionPolicy::EvictLru } else { EvictionPolicy::RejectNew };
        let mut t = FlowTable::with_eviction(capacity, policy);
        let mut now = Nanos::ZERO;
        for op in ops {
            now += Nanos::from_millis(100);
            match op {
                Op::Insert { src_port, priority, idle_s } => {
                    let outcome = t.insert(now, rule_for(src_port, priority, idle_s));
                    if let InsertOutcome::Rejected = outcome {
                        prop_assert!(!lru, "LRU policy must never reject");
                    }
                }
                Op::Packet { src_port } => {
                    let pkt = PacketBuilder::udp().src_port(src_port).build();
                    let view = MatchView::of(PortNo(1), &pkt);
                    let _ = t.match_packet(now, &view, pkt.wire_len());
                }
                Op::Expire => { let _ = t.expire(now); }
                Op::DeleteAll => { let _ = t.delete(&Match::any(), 0, false); }
            }
            prop_assert!(t.len() <= capacity, "len {} > capacity {}", t.len(), capacity);
        }
    }

    #[test]
    fn hits_never_exceed_lookups(ops in proptest::collection::vec(arb_op(), 1..100)) {
        let mut t = FlowTable::new(8);
        let mut now = Nanos::ZERO;
        for op in ops {
            now += Nanos::from_millis(10);
            match op {
                Op::Insert { src_port, priority, idle_s } => {
                    let _ = t.insert(now, rule_for(src_port, priority, idle_s));
                }
                Op::Packet { src_port } => {
                    let pkt = PacketBuilder::udp().src_port(src_port).build();
                    let _ = t.match_packet(now, &MatchView::of(PortNo(1), &pkt), 100);
                }
                Op::Expire => { let _ = t.expire(now); }
                Op::DeleteAll => { let _ = t.delete(&Match::any(), 0, false); }
            }
        }
        prop_assert!(t.hits() <= t.lookups());
    }

    #[test]
    fn expired_rules_never_match(
        idle_s in 1u64..10,
        gap_s in 0u64..20,
        src_port in 0u16..100,
    ) {
        let mut t = FlowTable::new(4);
        t.insert(Nanos::ZERO, rule_for(src_port, 1, idle_s));
        let now = Nanos::from_secs(gap_s);
        let _ = t.expire(now);
        let pkt = PacketBuilder::udp().src_port(src_port).build();
        let hit = t.match_packet(now, &MatchView::of(PortNo(1), &pkt), 100).is_some();
        if gap_s >= idle_s {
            prop_assert!(!hit, "rule idle for {gap_s}s with timeout {idle_s}s must be gone");
        } else {
            prop_assert!(hit);
        }
    }

    #[test]
    fn match_packet_agrees_with_peek(
        inserts in proptest::collection::vec((0u16..20, 0u16..8), 1..20),
        probe in 0u16..20,
    ) {
        let mut t = FlowTable::with_eviction(32, EvictionPolicy::EvictLru);
        let mut now = Nanos::ZERO;
        for (sp, pr) in inserts {
            now += Nanos::from_millis(1);
            let _ = t.insert(now, rule_for(sp, pr, 0));
        }
        let pkt = PacketBuilder::udp().src_port(probe).build();
        let view = MatchView::of(PortNo(1), &pkt);
        let peeked = t.peek(&view).map(|r| (r.match_fields, r.priority));
        let matched = t.match_packet(now, &view, 100).map(|r| (r.match_fields, r.priority));
        prop_assert_eq!(peeked, matched);
    }
}

/// Operations for the expiry-index differential test. Timeouts are in
/// milliseconds so rules fall due within a few dozen operations.
#[derive(Clone, Debug)]
enum ExpiryOp {
    /// Install a rule; `wild` makes it a 5-tuple (wildcarded) match.
    Insert {
        src_port: u16,
        priority: u16,
        idle_ms: u64,
        hard_ms: u64,
        wild: bool,
    },
    /// Re-add an installed rule's match and priority with its idle and
    /// hard timeouts moved by `delta_ms` (negative: shorter).
    ReAdd {
        pick: Index,
        delta_ms: i64,
    },
    Hit {
        src_port: u16,
    },
    DeleteStrict {
        pick: Index,
    },
    /// Non-strict delete by 5-tuple: removes exact and wildcarded rules
    /// for `src_port`.
    DeleteTuple {
        src_port: u16,
    },
    DeleteAll,
    Expire,
    Advance {
        ms: u64,
    },
}

fn arb_expiry_op() -> impl Strategy<Value = ExpiryOp> {
    prop_oneof![
        4 => (0u16..40, 0u16..3, 0u64..40, 0u64..60, 0u8..4).prop_map(
            |(src_port, priority, idle_ms, hard_ms, w)| ExpiryOp::Insert {
                src_port,
                priority,
                idle_ms,
                hard_ms,
                wild: w == 0,
            }
        ),
        2 => (any::<Index>(), 0u64..60).prop_map(|(pick, d)| ExpiryOp::ReAdd {
            pick,
            delta_ms: d as i64 - 30,
        }),
        3 => (0u16..40).prop_map(|src_port| ExpiryOp::Hit { src_port }),
        1 => any::<Index>().prop_map(|pick| ExpiryOp::DeleteStrict { pick }),
        1 => (0u16..40).prop_map(|src_port| ExpiryOp::DeleteTuple { src_port }),
        1 => Just(ExpiryOp::DeleteAll),
        2 => Just(ExpiryOp::Expire),
        3 => (0u64..12).prop_map(|ms| ExpiryOp::Advance { ms }),
    ]
}

fn packet_view(src_port: u16) -> MatchView {
    MatchView::of(PortNo(1), &PacketBuilder::udp().src_port(src_port).build())
}

fn tuple_match(src_port: u16) -> Match {
    let pkt = PacketBuilder::udp().src_port(src_port).build();
    Match::from_flow_key(&FlowKey::of(&pkt).expect("udp packet has a 5-tuple"))
}

/// The reference: a brute-force scan for the earliest deadline.
fn scan_next_expiry(t: &FlowTable) -> Option<Nanos> {
    t.iter()
        .filter_map(|r| r.expiry_deadline(r.installed_at.max(r.last_hit)))
        .min()
}

/// The reference: a brute-force scan for every rule due at `now`, in
/// insertion order, with its removal reason.
fn scan_expire(t: &FlowTable, now: Nanos) -> Vec<RemovedRule> {
    t.iter()
        .filter(|r| r.is_expired(now, r.installed_at.max(r.last_hit)))
        .map(|r| RemovedRule {
            rule: r.clone(),
            reason: if r.hard_timeout != Nanos::ZERO && now >= r.installed_at + r.hard_timeout {
                FlowRemovedReason::HardTimeout
            } else {
                FlowRemovedReason::IdleTimeout
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expiry_index_matches_brute_force_scan(
        ops in proptest::collection::vec(arb_expiry_op(), 1..300),
        capacity in 1usize..32,
        lru in any::<bool>(),
    ) {
        let policy = if lru { EvictionPolicy::EvictLru } else { EvictionPolicy::RejectNew };
        let mut t = FlowTable::with_eviction(capacity, policy);
        let mut now = Nanos::ZERO;
        let mut sweep = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                ExpiryOp::Insert { src_port, priority, idle_ms, hard_ms, wild } => {
                    let m = if wild {
                        tuple_match(src_port)
                    } else {
                        Match::exact_from_packet(PortNo(1), &PacketBuilder::udp().src_port(src_port).build())
                    };
                    let rule = FlowRule::new(m, priority)
                        .with_idle_timeout(Nanos::from_millis(idle_ms))
                        .with_hard_timeout(Nanos::from_millis(hard_ms));
                    let _ = t.insert(now, rule);
                }
                ExpiryOp::ReAdd { pick, delta_ms } => {
                    let installed: Vec<FlowRule> = t.iter().cloned().collect();
                    if !installed.is_empty() {
                        let old = &installed[pick.index(installed.len())];
                        let shift = |d: Nanos| {
                            let ms = (d.as_nanos() / 1_000_000) as i64 + delta_ms;
                            Nanos::from_millis(ms.max(0) as u64)
                        };
                        let rule = FlowRule::new(old.match_fields, old.priority)
                            .with_idle_timeout(shift(old.idle_timeout))
                            .with_hard_timeout(shift(old.hard_timeout));
                        prop_assert_eq!(t.insert(now, rule), InsertOutcome::Replaced);
                    }
                }
                ExpiryOp::Hit { src_port } => {
                    let _ = t.match_packet(now, &packet_view(src_port), 100);
                }
                ExpiryOp::DeleteStrict { pick } => {
                    let installed: Vec<FlowRule> = t.iter().cloned().collect();
                    if !installed.is_empty() {
                        let r = &installed[pick.index(installed.len())];
                        prop_assert_eq!(t.delete(&r.match_fields, r.priority, true).len(), 1);
                    }
                }
                ExpiryOp::DeleteTuple { src_port } => {
                    let _ = t.delete(&tuple_match(src_port), 0, false);
                }
                ExpiryOp::DeleteAll => {
                    let _ = t.delete(&Match::any(), 0, false);
                }
                ExpiryOp::Expire => {
                    let expected = scan_expire(&t, now);
                    let survivors: Vec<FlowRule> = t
                        .iter()
                        .filter(|r| !expected.iter().any(|e| e.rule == **r))
                        .cloned()
                        .collect();
                    // Alternate the two entry points; both must agree.
                    if step % 2 == 0 {
                        prop_assert_eq!(t.expire(now), expected, "expire at {:?}", now);
                    } else {
                        sweep.clear();
                        t.expire_into(now, &mut sweep);
                        prop_assert_eq!(&sweep, &expected, "expire_into at {:?}", now);
                    }
                    prop_assert_eq!(t.iter().cloned().collect::<Vec<_>>(), survivors);
                }
                ExpiryOp::Advance { ms } => now += Nanos::from_millis(ms),
            }
            prop_assert_eq!(
                t.next_expiry(),
                scan_next_expiry(&t),
                "next_expiry after step {}", step
            );
        }
    }
}
