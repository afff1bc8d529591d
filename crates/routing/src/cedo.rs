//! CEDO — Content-centric Dissemination algorithm for delay-tolerant
//! networks (Neves dos Santos et al., MSWiM 2013), summarized in the
//! thesis §1.2.
//!
//! CEDO is the *other* data-centric scheme the thesis positions ChitChat
//! against: nodes issue **requests** for content keywords at random times;
//! a request carries a TTL and is flooded opportunistically; when a node
//! holding a matching message meets a requester (or a carrier of its
//! request), the content flows back. Our rendering keeps the essential
//! mechanics the thesis describes:
//!
//! * requests are keyword-based with a TTL, spread epidemically between
//!   nodes, and expire everywhere once the TTL lapses;
//! * a node `m` that meets node `n` retrieves from `n` any buffered
//!   message matching one of `m`'s live requests (pull), and pushes to
//!   `n` any message matching a request `n` is known to carry (proxy
//!   fetch), so content gravitates toward requesters.

use std::collections::HashMap;

use dtn_sim::buffer::InsertOutcome;
use dtn_sim::kernel::SimApi;
use dtn_sim::message::{Keyword, MessageId};
use dtn_sim::protocol::{Protocol, Reception};
use dtn_sim::time::SimTime;
use dtn_sim::world::NodeId;

/// A live content request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// The node that wants the content.
    pub requester: NodeId,
    /// The keyword requested.
    pub keyword: Keyword,
    /// When the request lapses network-wide.
    pub expires_at: SimTime,
}

/// The CEDO router.
#[derive(Debug)]
pub struct CedoRouter {
    /// Per-node view of live requests, keyed by `(requester, keyword)`.
    known_requests: Vec<HashMap<(NodeId, Keyword), SimTime>>,
    /// Requests scheduled by the workload: `(time, requester, keyword,
    /// ttl_secs)`, in call order until the next release stable-sorts
    /// them by time.
    schedule: Vec<(SimTime, NodeId, Keyword, f64)>,
    /// Whether `schedule` gained a request since it was last sorted.
    schedule_dirty: bool,
    next_scheduled: usize,
    /// Currently-active contacts, keyed by normalized pair, valued by
    /// the last serve time — re-served periodically (a request issued
    /// mid-contact must still spread over that contact).
    last_serve: HashMap<(NodeId, NodeId), SimTime>,
    /// Reusable due-pair buffer for the periodic re-serve scan.
    due_scratch: Vec<((NodeId, NodeId), f64)>,
}

impl CedoRouter {
    /// Creates a router for `node_count` nodes.
    #[must_use]
    pub fn new(node_count: usize) -> Self {
        CedoRouter {
            known_requests: vec![HashMap::new(); node_count],
            schedule: Vec::new(),
            schedule_dirty: false,
            next_scheduled: 0,
            last_serve: HashMap::new(),
            due_scratch: Vec::new(),
        }
    }

    /// Schedules a request: `requester` asks for `keyword` at `at`, valid
    /// for `ttl_secs`.
    pub fn schedule_request(
        &mut self,
        at: SimTime,
        requester: NodeId,
        keyword: Keyword,
        ttl_secs: f64,
    ) {
        self.schedule.push((at, requester, keyword, ttl_secs));
        self.schedule_dirty = true;
    }

    /// Live requests currently known to `node`.
    #[must_use]
    pub fn known_request_count(&self, node: NodeId) -> usize {
        self.known_requests[node.index()].len()
    }

    /// Whether `node` currently knows of a live request by `requester`
    /// for `keyword`.
    #[must_use]
    pub fn knows_request(&self, node: NodeId, requester: NodeId, keyword: Keyword) -> bool {
        self.known_requests[node.index()].contains_key(&(requester, keyword))
    }

    /// Releases every request due by `now`, in time order with ties in
    /// call order. One stable sort of the whole call sequence orders the
    /// schedule exactly as a stable sort after every push would.
    fn release_due(&mut self, now: SimTime) {
        if self.schedule_dirty {
            self.schedule
                .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            self.schedule_dirty = false;
        }
        while self.next_scheduled < self.schedule.len()
            && self.schedule[self.next_scheduled].0 <= now
        {
            let (at, requester, keyword, ttl) = self.schedule[self.next_scheduled];
            self.next_scheduled += 1;
            self.known_requests[requester.index()].insert(
                (requester, keyword),
                at + dtn_sim::time::SimDuration::from_secs(ttl),
            );
        }
    }

    fn expire(&mut self, now: SimTime) {
        for table in &mut self.known_requests {
            table.retain(|_, &mut expiry| expiry > now);
        }
    }

    /// Exchanges request tables and serves matches, both directions.
    fn serve_pair(&mut self, api: &mut SimApi, a: NodeId, b: NodeId) {
        // Epidemic spread of request entries.
        let merged: Vec<((NodeId, Keyword), SimTime)> = {
            let mut all: HashMap<(NodeId, Keyword), SimTime> =
                self.known_requests[a.index()].clone();
            for (&k, &v) in &self.known_requests[b.index()] {
                let e = all.entry(k).or_insert(v);
                if v > *e {
                    *e = v;
                }
            }
            let mut v: Vec<_> = all.into_iter().collect();
            v.sort_by_key(|x| x.0);
            v
        };
        for node in [a, b] {
            self.known_requests[node.index()] = merged.iter().copied().collect();
        }
        // Serve: for each direction, send messages matching any live
        // request the peer cares about (its own, or ones it proxies).
        for (from, to) in [(a, b), (b, a)] {
            for id in api.buffer(from).ids_sorted() {
                if api.buffer(to).contains(id) || api.is_sending(from, to, id) {
                    continue;
                }
                let Some(copy) = api.buffer(from).get(id) else {
                    continue;
                };
                let keywords = copy.keywords();
                if merged.iter().any(|((_, kw), _)| keywords.contains(kw)) {
                    api.send(from, to, id);
                }
            }
        }
    }
}

impl Protocol for CedoRouter {
    fn on_contact_up(&mut self, api: &mut SimApi, a: NodeId, b: NodeId) {
        let now = api.now();
        let key = dtn_sim::world::ordered_pair(a, b);
        self.last_serve.insert(key, now);
        self.release_due(now);
        self.expire(now);
        self.serve_pair(api, a, b);
    }

    fn on_contact_down(&mut self, api: &mut SimApi, a: NodeId, b: NodeId) {
        let _ = api;
        let key = dtn_sim::world::ordered_pair(a, b);
        self.last_serve.remove(&key);
    }

    fn on_message_created(&mut self, api: &mut SimApi, node: NodeId, message: MessageId) {
        let _ = message;
        let now = api.now();
        self.release_due(now);
        for peer in api.peers_of(node) {
            self.serve_pair(api, node, peer);
        }
    }

    fn on_transfer_complete(&mut self, api: &mut SimApi, r: &Reception<'_>) {
        let to = r.transfer.to;
        let id = r.transfer.message;
        if !matches!(r.outcome, InsertOutcome::Stored { .. }) {
            return;
        }
        // Delivery: the receiver had a live request matching the content.
        let keywords = api
            .buffer(to)
            .get(id)
            .map(|c| c.keywords())
            .unwrap_or_default();
        let now = api.now();
        let is_requested = self.known_requests[to.index()]
            .iter()
            .any(|((req, kw), &exp)| *req == to && exp > now && keywords.contains(kw));
        if is_requested {
            api.mark_delivered(to, id);
        }
        for peer in api.peers_of(to) {
            self.serve_pair(api, to, peer);
        }
    }

    fn on_tick(&mut self, api: &mut SimApi) {
        let now = api.now();
        self.release_due(now);
        // Lazy expiry once a minute keeps tables tidy without per-step cost.
        if (now.as_secs() as u64).is_multiple_of(60) {
            self.expire(now);
        }
        // Re-serve long-lived contacts every 30 s so requests issued after
        // contact-up still spread and get served. The due rows go through
        // a reusable scratch vector rather than a fresh allocation per
        // tick.
        let mut due = std::mem::take(&mut self.due_scratch);
        crate::exchange::due_pairs_into(&self.last_serve, now, 30.0, &mut due);
        for &((a, b), _) in &due {
            self.last_serve.insert((a, b), now);
            self.serve_pair(api, a, b);
        }
        self.due_scratch = due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::geometry::{Area, Point};
    use dtn_sim::kernel::{ScheduledMessage, SimulationBuilder};
    use dtn_sim::message::{Priority, Quality};
    use dtn_sim::mobility::ScriptedWaypoints;

    fn msg(at: f64, source: u32, kw: u32, expected: Vec<NodeId>) -> ScheduledMessage {
        ScheduledMessage {
            at: SimTime::from_secs(at),
            source: NodeId(source),
            size_bytes: 10_000,
            ttl_secs: 100_000.0,
            priority: Priority::High,
            quality: Quality::new(0.9),
            ground_truth: vec![Keyword(kw)],
            source_tags: vec![Keyword(kw)],
            expected_destinations: expected,
        }
    }

    #[test]
    fn requests_release_in_time_order_with_ties_in_call_order() {
        let t = SimTime::from_secs;
        let mut router = CedoRouter::new(3);
        router.schedule_request(t(30.0), NodeId(2), Keyword(1), 100.0);
        router.schedule_request(t(10.0), NodeId(1), Keyword(2), 100.0);
        router.schedule_request(t(30.0), NodeId(0), Keyword(3), 100.0);
        router.schedule_request(t(20.0), NodeId(2), Keyword(4), 100.0);
        router.schedule_request(t(10.0), NodeId(0), Keyword(5), 100.0);
        let released = |r: &CedoRouter| -> Vec<(f64, u32, u32)> {
            r.schedule[..r.next_scheduled]
                .iter()
                .map(|&(at, node, kw, _)| (at.as_secs(), node.0, kw.0))
                .collect()
        };
        router.release_due(t(15.0));
        assert_eq!(released(&router), [(10.0, 1, 2), (10.0, 0, 5)]);
        assert!(router.knows_request(NodeId(0), NodeId(0), Keyword(5)));
        assert!(!router.knows_request(NodeId(2), NodeId(2), Keyword(4)));
        router.release_due(t(30.0));
        assert_eq!(
            released(&router),
            [
                (10.0, 1, 2),
                (10.0, 0, 5),
                (20.0, 2, 4),
                (30.0, 2, 1),
                (30.0, 0, 3)
            ]
        );
        assert_eq!(router.known_request_count(NodeId(2)), 2);
    }

    #[test]
    fn requester_pulls_matching_content() {
        let mut router = CedoRouter::new(2);
        router.schedule_request(SimTime::from_secs(1.0), NodeId(1), Keyword(5), 10_000.0);
        let mut sim = SimulationBuilder::new(Area::new(500.0, 500.0), 1)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(50.0, 0.0))))
            .message(msg(10.0, 0, 5, vec![NodeId(1)]))
            .build(router);
        let summary = sim.run_until(SimTime::from_secs(300.0));
        assert_eq!(summary.delivered_pairs, 1, "request served");
    }

    #[test]
    fn unrequested_content_stays_put() {
        let mut router = CedoRouter::new(2);
        router.schedule_request(SimTime::from_secs(1.0), NodeId(1), Keyword(9), 10_000.0);
        let mut sim = SimulationBuilder::new(Area::new(500.0, 500.0), 1)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(50.0, 0.0))))
            .message(msg(10.0, 0, 5, vec![]))
            .build(router);
        let summary = sim.run_until(SimTime::from_secs(300.0));
        assert_eq!(
            summary.relays_completed, 0,
            "keyword mismatch → no transfer"
        );
    }

    #[test]
    fn expired_requests_are_not_served() {
        let mut router = CedoRouter::new(2);
        router.schedule_request(SimTime::from_secs(1.0), NodeId(1), Keyword(5), 5.0);
        let mut sim = SimulationBuilder::new(Area::new(500.0, 500.0), 1)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(50.0, 0.0))))
            // Content appears long after the request TTL lapsed.
            .message(msg(120.0, 0, 5, vec![NodeId(1)]))
            .build(router);
        let summary = sim.run_until(SimTime::from_secs(300.0));
        assert_eq!(
            summary.delivered_pairs, 0,
            "request expired before content existed"
        );
    }

    #[test]
    fn requests_propagate_through_relays() {
        // Chain: requester n2 — relay n1 — content holder n0. n0 never
        // meets n2 but learns of the request via n1 and serves through it.
        let mut router = CedoRouter::new(3);
        router.schedule_request(SimTime::from_secs(1.0), NodeId(2), Keyword(5), 100_000.0);
        let mut sim = SimulationBuilder::new(Area::new(500.0, 500.0), 1)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(90.0, 0.0))))
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(180.0, 0.0))))
            .message(msg(30.0, 0, 5, vec![NodeId(2)]))
            .build(router);
        let summary = sim.run_until(SimTime::from_secs(600.0));
        assert_eq!(summary.delivered_pairs, 1, "content crossed the chain");
        let router = sim.protocol();
        assert!(router.knows_request(NodeId(0), NodeId(2), Keyword(5)));
    }
}
