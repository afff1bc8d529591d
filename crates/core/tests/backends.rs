//! End-to-end tests of the classic routing backends as plain routers.
//!
//! Each backend runs inside a `DcimRouter` with the incentive, DRM and
//! enrichment off (`ProtocolParams::chitchat_baseline`) over drop-oldest
//! buffers: the configuration the `baselines` figure uses for its classic
//! rows. The scripted topologies pin each forwarding rule's reach.

use dtn_core::prelude::*;
use dtn_routing::backend::{
    DirectBackend, EpidemicBackend, ProphetBackend, RouterBackend, SprayBackend, TwoHopBackend,
};
use dtn_routing::prophet::ProphetParams;
use dtn_sim::prelude::*;

fn msg(at: f64, source: u32, expected: Vec<NodeId>) -> ScheduledMessage {
    ScheduledMessage {
        at: SimTime::from_secs(at),
        source: NodeId(source),
        size_bytes: 10_000,
        ttl_secs: 100_000.0,
        priority: Priority::High,
        quality: Quality::new(0.9),
        ground_truth: vec![Keyword(1)],
        source_tags: vec![Keyword(1)],
        expected_destinations: expected,
    }
}

/// The backend as a plain router with `dest` subscribed to the message tag.
fn plain<B: RouterBackend>(backend: B, dest: u32) -> DcimRouter<B> {
    let mut router = DcimRouter::with_backend(backend, ProtocolParams::chitchat_baseline(), 1);
    router.subscribe(NodeId(dest), [Keyword(1)]);
    router
}

/// Pinned nodes at `xs` (metres along y = 0; range 100 m) carrying one
/// message from n0 to the last node.
fn line<B: RouterBackend>(router: DcimRouter<B>, xs: &[f64]) -> Simulation<DcimRouter<B>> {
    let last = xs.len() as u32 - 1;
    xs.iter()
        .fold(
            SimulationBuilder::new(Area::new(1000.0, 1000.0), 5)
                .drop_policy(DropPolicy::DropOldest),
            |b, &x| b.node(Box::new(ScriptedWaypoints::pinned(Point::new(x, 0.0)))),
        )
        .message(msg(5.0, 0, vec![NodeId(last)]))
        .build(router)
}

/// A 3-node chain: n0 at x=0, n1 at x=90, n2 at x=180; n2 is the
/// destination, two hops from the source.
fn chain<B: RouterBackend>(backend: B) -> Simulation<DcimRouter<B>> {
    line(plain(backend, 2), &[0.0, 90.0, 180.0])
}

#[test]
fn epidemic_floods_the_chain() {
    let mut sim = chain(EpidemicBackend::new(3));
    let summary = sim.run_until(SimTime::from_secs(300.0));
    assert_eq!(summary.delivered_pairs, 1, "epidemic reaches n2 via n1");
    assert_eq!(summary.relays_completed, 2, "two hops of traffic");
}

#[test]
fn direct_delivery_cannot_cross_the_gap() {
    let mut sim = chain(DirectBackend::new(3));
    let summary = sim.run_until(SimTime::from_secs(300.0));
    assert_eq!(summary.delivered_pairs, 0, "n0 never meets n2");
    assert_eq!(summary.relays_completed, 0);
}

#[test]
fn direct_delivery_works_when_adjacent() {
    let far = ScriptedWaypoints::pinned(Point::new(800.0, 800.0));
    let mut sim = SimulationBuilder::new(Area::new(1000.0, 1000.0), 5)
        .drop_policy(DropPolicy::DropOldest)
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(50.0, 0.0))))
        .node(Box::new(far))
        .message(msg(5.0, 0, vec![NodeId(1)]))
        .build(plain(DirectBackend::new(3), 1));
    let summary = sim.run_until(SimTime::from_secs(300.0));
    assert_eq!(summary.delivered_pairs, 1);
    assert_eq!(summary.relays_completed, 1, "exactly one transmission");
}

#[test]
fn spray_and_wait_crosses_with_relay() {
    let mut sim = chain(SprayBackend::new(3, 4));
    let summary = sim.run_until(SimTime::from_secs(300.0));
    assert_eq!(summary.delivered_pairs, 1);
    // Source sprayed to n1 (grant 2) and n1 delivered to n2.
    assert_eq!(summary.relays_completed, 2);
}

#[test]
fn spray_tickets_split_binary() {
    let mut sim = chain(SprayBackend::new(3, 8));
    let _ = sim.run_until(SimTime::from_secs(300.0));
    let spray = sim.protocol().backend();
    let id = MessageId(0);
    assert_eq!(spray.tickets(NodeId(0), id), 4, "source keeps half");
    assert_eq!(spray.tickets(NodeId(1), id), 4, "relay granted half");
}

#[test]
fn spray_with_one_ticket_waits() {
    // One initial ticket: the source must deliver directly, so the gap to
    // n2 is never crossed.
    let mut sim = chain(SprayBackend::new(3, 1));
    let summary = sim.run_until(SimTime::from_secs(300.0));
    assert_eq!(summary.delivered_pairs, 0);
    assert_eq!(summary.relays_completed, 0);
}

#[test]
fn two_hop_delivers_over_exactly_two_hops() {
    let mut sim = chain(TwoHopBackend::new(3));
    let summary = sim.run_until(SimTime::from_secs(300.0));
    assert_eq!(summary.delivered_pairs, 1);
    assert_eq!(summary.relays_completed, 2);
}

#[test]
fn two_hop_does_not_reach_three_hops() {
    // Chain of 4 with the destination at n3: three hops needed, two allowed.
    let mut sim = line(plain(TwoHopBackend::new(4), 3), &[0.0, 90.0, 180.0, 270.0]);
    let summary = sim.run_until(SimTime::from_secs(600.0));
    assert_eq!(summary.delivered_pairs, 0, "three hops needed, two allowed");
}

#[test]
fn prophet_routes_via_the_shuttle() {
    // n1 shuttles between n0 and n2, building predictability toward n2 so
    // n0 hands it the message.
    let shuttle = ScriptedWaypoints::new(vec![
        (0.0, Point::new(180.0, 0.0)), // near n2 first: learn P(1,2)
        (200.0, Point::new(180.0, 0.0)),
        (300.0, Point::new(20.0, 0.0)), // then visit n0
        (500.0, Point::new(20.0, 0.0)),
        (600.0, Point::new(180.0, 0.0)), // and return to n2
        (900.0, Point::new(180.0, 0.0)),
    ]);
    let mut sim = SimulationBuilder::new(Area::new(500.0, 500.0), 1)
        .drop_policy(DropPolicy::DropOldest)
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
        .node(Box::new(shuttle))
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(180.0, 0.0))))
        .message(msg(250.0, 0, vec![NodeId(2)]))
        .build(plain(ProphetBackend::new(3, ProphetParams::default()), 2));
    let summary = sim.run_until(SimTime::from_secs(1200.0));
    assert_eq!(summary.delivered_pairs, 1, "PRoPHET routed via the shuttle");
    let prophet = sim.protocol().backend();
    assert!(prophet.predictability(NodeId(1), NodeId(2)) > 0.0);
    assert!(
        prophet.predictability(NodeId(0), NodeId(2)) > 0.0,
        "transitivity gave n0 an opinion about n2"
    );
}
