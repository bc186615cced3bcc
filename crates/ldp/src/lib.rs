#![warn(missing_docs)]
//! In-band distributed label distribution — the `mpls-ldp` control plane.
//!
//! `mpls-control` models the *outcome* of ordered downstream label
//! distribution: an omniscient solver computes paths and bindings appear
//! everywhere instantly. This crate implements the *process*: an
//! LDP-style protocol (RFC 5036 in miniature) whose PDUs travel over the
//! simulated links as ordinary discrete events, so label bindings — and
//! therefore forwarding state — exist only where a message has carried
//! them.
//!
//! The machinery:
//!
//! * **Hello adjacency** — every node multicasts periodic hellos on each
//!   incident link; an adjacency is fresh while hellos keep arriving
//!   within the hold time.
//! * **Session FSM** — over a fresh adjacency the lower-numbered LSR
//!   (active role) sends `Initialization`; the passive side echoes it.
//!   Both ends then hold the session `Operational`, refreshed by
//!   keepalives; silence beyond the hold time tears it down.
//! * **Downstream-unsolicited ordered distribution** — a node advertises
//!   a `LabelMapping` for a FEC only once it has a route for that FEC
//!   itself (it is the egress, or it holds a usable downstream mapping),
//!   so bindings propagate egress-outward in order. Withdraw revokes,
//!   release returns.
//! * **Path-vector loop detection** — mappings accumulate the LSR ids
//!   they traversed; a receiver finding itself in the vector discards
//!   the mapping and returns a `LabelRelease`.
//! * **LIB → FIB derivation** — remote bindings are retained liberally
//!   in a label information base; the best (lowest cumulative cost,
//!   lowest neighbor id on ties) becomes the node's route, and
//!   [`LdpFabric::config_for`] renders the same [`NodeConfig`] shape the
//!   centralized solver produces, feeding the unchanged `mpls-dataplane`
//!   tables.
//!
//! The fabric is deliberately *passive*: [`LdpFabric::tick`] and
//! [`LdpFabric::deliver`] mutate protocol state and return the PDUs to
//! send and the session events that occurred, but scheduling, link state
//! and loss live in the caller (`mpls-net`'s engine). All state is held
//! in `BTreeMap`s and driven only by caller-supplied times, so identical
//! event sequences yield identical fabrics — the property the sharded
//! engine's determinism rests on.

use mpls_control::{
    BindingEntry, FecEntry, Hop, IpRoute, NextHopEntry, NodeConfig, NodeId, RouterRole, Topology,
};
use mpls_dataplane::ftn::Prefix;
use mpls_dataplane::LabelOp;
use mpls_packet::ldp::{LdpFec, LdpMessage, LdpPdu};
use mpls_packet::{CosBits, Label};
use std::collections::{BTreeMap, BTreeSet};

pub use mpls_control::LinkId;

/// A FEC as a sortable key: `(prefix address, prefix length)`.
pub type FecKey = (u32, u8);

/// Notification status: session-scoped traffic arrived with no session
/// up — the sender is wedged on a half-open session and must reset.
pub const STATUS_NO_SESSION: u32 = 1;
/// Notification status: a sequenced PDU arrived out of order (transport
/// loss, duplication or reordering).
pub const STATUS_BAD_SEQUENCE: u32 = 2;
/// Notification status: a PDU failed to decode.
pub const STATUS_MALFORMED: u32 = 3;

/// Protocol timers. All values are nanoseconds of simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdpConfig {
    /// Interval between hello/keepalive ticks.
    pub hello_interval_ns: u64,
    /// Adjacency and session hold time: silence longer than this tears
    /// the session down. Conventionally a few hello intervals.
    pub hold_ns: u64,
    /// Cap on the session re-initialization backoff, as an exponent:
    /// after the n-th unanswered `Initialization` the next attempt waits
    /// `max(hello_interval_ns << min(n, max_backoff_exp), hold_ns)`
    /// (± 25% jitter) — never less than a hold time, since no answer can
    /// arrive faster than the session's own timescale. The first attempt
    /// of a down period is always immediate.
    pub max_backoff_exp: u32,
    /// Seed mixed into the deterministic per-(node, peer, attempt)
    /// backoff jitter, so distinct runs can decorrelate retry storms
    /// while a fixed seed reproduces them exactly.
    pub jitter_seed: u64,
    /// Liberal retention for dead sessions: when non-zero, bindings
    /// learned from a peer whose session drops are kept *stale* for this
    /// long and keep serving traffic (graceful degradation) unless a
    /// fresh alternative exists; zero purges them immediately.
    pub stale_ttl_ns: u64,
}

impl Default for LdpConfig {
    fn default() -> Self {
        Self {
            hello_interval_ns: 1_000_000, // 1 ms
            hold_ns: 3_500_000,           // 3.5 ms
            max_backoff_exp: 5,           // ≤ 32 hello intervals between retries
            jitter_seed: 0,
            stale_ttl_ns: 0, // purge on session loss, as RFC 5036 defaults
        }
    }
}

/// splitmix64 — the same finalizer the engine's decomposed RNG streams
/// use; here it hashes `(seed, node, peer, attempt)` into backoff jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A PDU the fabric wants transmitted from `from` to its neighbor `to`.
#[derive(Debug, Clone)]
pub struct LdpSend {
    /// Originating node.
    pub from: NodeId,
    /// Adjacent destination node.
    pub to: NodeId,
    /// The PDU.
    pub pdu: LdpPdu,
}

/// A session-level event the caller may want to log or time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdpEvent {
    /// A session reached `Operational` between `at` and `peer`.
    SessionUp {
        /// The node reporting the transition.
        at: NodeId,
        /// The neighbor.
        peer: NodeId,
        /// The connecting link.
        link: LinkId,
    },
    /// A session was torn down (hold timer expiry) between `at` and
    /// `peer`.
    SessionDown {
        /// The node reporting the transition.
        at: NodeId,
        /// The neighbor.
        peer: NodeId,
        /// The connecting link.
        link: LinkId,
    },
}

/// A `(node, FEC)` pair gaining or losing its route. The fabric logs one
/// for every such transition, in order, until
/// [`LdpFabric::take_route_changes`] hands them over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteChange {
    /// The node whose route changed.
    pub node: NodeId,
    /// The FEC it changed for.
    pub fec: FecKey,
    /// True if the pair gained a route, false if it lost one.
    pub routed: bool,
}

/// Aggregate protocol counters across the fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LdpStats {
    /// Sessions that reached `Operational` (both ends count one each).
    pub sessions_established: u64,
    /// Sessions torn down by hold-timer expiry.
    pub session_downs: u64,
    /// Label mappings accepted into a LIB.
    pub mappings_accepted: u64,
    /// Withdraws processed.
    pub withdraws_processed: u64,
    /// Mappings discarded because the path vector contained the receiver.
    pub loop_rejections: u64,
    /// `Initialization` retries beyond the first attempt of a down
    /// period (each one waited out a backoff interval first).
    pub session_retries: u64,
    /// Sequenced PDUs arriving out of order on an operational session
    /// (lost, duplicated or reordered transport) — each one resets the
    /// session, standing in for the TCP connection LDP really rides.
    pub sequence_violations: u64,
    /// PDUs the fabric layer reported as undecodable (truncated or
    /// corrupted on the wire); each resets the session it arrived on.
    pub malformed_pdus: u64,
}

/// Per-node protocol counters, exported as telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct LdpNodeStats {
    /// PDUs of any kind received.
    pub pdus_rx: u64,
    /// Mappings accepted into the LIB.
    pub mappings_rx: u64,
    /// Withdraws processed.
    pub withdraws_rx: u64,
    /// Releases received.
    pub releases_rx: u64,
    /// Mappings rejected by path-vector loop detection.
    pub loop_rejections: u64,
    /// Sessions this node saw reach `Operational`.
    pub session_ups: u64,
    /// Sessions this node tore down.
    pub session_downs: u64,
    /// `Initialization` retries this node sent after a backoff wait.
    pub session_retries: u64,
    /// Out-of-sequence PDUs this node rejected (and reset sessions for).
    pub sequence_violations: u64,
    /// Undecodable PDUs reported against this node's sessions.
    pub malformed_pdus: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    Down,
    Operational,
}

#[derive(Debug)]
struct Peer {
    link: LinkId,
    cost: u32,
    state: SessionState,
    last_hello_rx: Option<u64>,
    last_rx: Option<u64>,
    /// Sequence of the next session-scoped PDU sent *to* this peer;
    /// reset to 1 by sending `Initialization`.
    tx_seq: u32,
    /// Sequence of the last session-scoped PDU accepted *from* this
    /// peer; reset by receiving `Initialization`.
    rx_seq: u32,
    /// Consecutive unanswered `Initialization`s this down period.
    init_attempts: u32,
    /// Earliest time the next `Initialization` may be sent.
    next_init_ns: u64,
    /// Epoch stamped into outbound `Initialization`s. Drawn fresh from
    /// the fabric's global message counter at the first attempt of a
    /// down period (0 = "draw on next send"); retries reuse it, so the
    /// receiver can tell a backed-off duplicate from a new session —
    /// the moral equivalent of a TCP initial sequence number.
    tx_epoch: u32,
    /// Epoch of the `Initialization` that formed the current inbound
    /// session; a same-epoch Init while operational is an idempotent
    /// duplicate, not a restart.
    rx_epoch: u32,
}

#[derive(Debug, Clone)]
struct RemoteBinding {
    label: Label,
    cost: u64,
    path: Vec<u32>,
    /// When the binding's session died, if retention is on: the binding
    /// keeps serving until `stale_ttl_ns` later unless refreshed first.
    stale_since: Option<u64>,
}

/// The route a node currently holds for a FEC.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Route {
    /// This node originated the FEC: it is the egress.
    Egress,
    /// Reachable via a neighbor's mapping.
    Via {
        nh: NodeId,
        out_label: Label,
        cost: u64,
        path: Vec<u32>,
    },
}

#[derive(Debug)]
struct LocalBinding {
    label: Label,
    route: Option<Route>,
    /// `(cost, path)` as last advertised to peers; `None` when the FEC
    /// is currently withdrawn (or never advertised).
    advertised: Option<(u64, Vec<u32>)>,
}

#[derive(Debug)]
struct LdpNode {
    id: NodeId,
    role: RouterRole,
    next_label: u32,
    labels_left: u32,
    /// False while the node is crashed: it neither ticks nor receives,
    /// and its rendered config is empty (the FIB is cold).
    alive: bool,
    peers: BTreeMap<NodeId, Peer>,
    origin: BTreeSet<FecKey>,
    /// Label information base: liberally retained remote bindings.
    lib: BTreeMap<FecKey, BTreeMap<NodeId, RemoteBinding>>,
    local: BTreeMap<FecKey, LocalBinding>,
    stats: LdpNodeStats,
}

enum AdvAction {
    None,
    Advertise,
    Withdraw(Label),
}

struct RecomputeOutcome {
    fib_changed: bool,
    /// `Some(routed)` when the FEC gained (`true`) or lost (`false`) its
    /// route.
    route_flip: Option<bool>,
    adv: AdvAction,
}

impl LdpNode {
    /// Allocates this node's label for `fec` if it has none yet.
    fn ensure_local(&mut self, fec: FecKey) -> &mut LocalBinding {
        let (next_label, left) = (&mut self.next_label, &mut self.labels_left);
        self.local.entry(fec).or_insert_with(|| {
            assert!(*left > 0, "node label range exhausted");
            *left -= 1;
            let label = Label::new(*next_label).expect("allocated label in range");
            *next_label += 1;
            LocalBinding {
                label,
                route: None,
                advertised: None,
            }
        })
    }

    /// Recomputes the route for `fec` from the LIB and reports whether
    /// the FIB-relevant part changed and what, if anything, must be
    /// (re-)advertised. A fresh binding (live session, never marked
    /// stale) always beats a stale one; stale bindings are candidates
    /// only under liberal retention and within `stale_ttl`.
    fn recompute(&mut self, fec: FecKey, now: u64, stale_ttl: u64) -> RecomputeOutcome {
        let new_route = if self.origin.contains(&fec) {
            Some(Route::Egress)
        } else {
            let mut best: Option<(u8, u64, NodeId)> = None;
            if let Some(bindings) = self.lib.get(&fec) {
                for (&pid, b) in bindings {
                    let Some(peer) = self.peers.get(&pid) else {
                        continue;
                    };
                    let fresh = peer.state == SessionState::Operational && b.stale_since.is_none();
                    let class = if fresh {
                        0u8
                    } else {
                        match b.stale_since {
                            Some(t) if stale_ttl > 0 && now.saturating_sub(t) <= stale_ttl => 1,
                            _ => continue,
                        }
                    };
                    let cand = b.cost + peer.cost as u64;
                    // BTreeMap iteration is ascending, so on a
                    // (class, cost) tie the lowest neighbor id wins by
                    // `<` alone.
                    if best.is_none_or(|(cl, c, _)| (class, cand) < (cl, c)) {
                        best = Some((class, cand, pid));
                    }
                }
            }
            best.map(|(_, cost, nh)| {
                let b = &self.lib[&fec][&nh];
                Route::Via {
                    nh,
                    out_label: b.label,
                    cost,
                    path: b.path.clone(),
                }
            })
        };

        if new_route.is_some() {
            self.ensure_local(fec);
        }
        let Some(lb) = self.local.get_mut(&fec) else {
            // Never routable and never allocated: nothing to do.
            return RecomputeOutcome {
                fib_changed: false,
                route_flip: None,
                adv: AdvAction::None,
            };
        };

        let fib_part = |r: &Option<Route>| match r {
            None => None,
            Some(Route::Egress) => Some((None, None)),
            Some(Route::Via { nh, out_label, .. }) => Some((Some(*nh), Some(*out_label))),
        };
        let fib_changed = fib_part(&lb.route) != fib_part(&new_route);
        let route_flip = (lb.route.is_some() != new_route.is_some()).then_some(new_route.is_some());

        let new_adv = match &new_route {
            None => None,
            Some(Route::Egress) => Some((0, vec![self.id])),
            Some(Route::Via { cost, path, .. }) => {
                let mut p = Vec::with_capacity(path.len() + 1);
                p.push(self.id);
                p.extend_from_slice(path);
                Some((*cost, p))
            }
        };
        let adv = if new_adv == lb.advertised {
            AdvAction::None
        } else if new_adv.is_some() {
            AdvAction::Advertise
        } else {
            AdvAction::Withdraw(lb.label)
        };
        lb.route = new_route;
        lb.advertised = new_adv;
        RecomputeOutcome {
            fib_changed,
            route_flip,
            adv,
        }
    }

    fn operational_peers(&self) -> Vec<NodeId> {
        self.peers
            .iter()
            .filter(|(_, p)| p.state == SessionState::Operational)
            .map(|(&id, _)| id)
            .collect()
    }
}

/// The whole distributed control plane: one protocol instance per node,
/// advanced lock-step by the caller's clock.
#[derive(Debug)]
pub struct LdpFabric {
    cfg: LdpConfig,
    nodes: BTreeMap<NodeId, LdpNode>,
    /// FEC → CoS policy, static configuration shared by all LERs (the
    /// wire protocol does not carry CoS; like the FEC definitions
    /// themselves it is provisioned out of band).
    fec_cos: BTreeMap<FecKey, CosBits>,
    msg_seq: u32,
    stats: LdpStats,
    last_fib_change_ns: u64,
    dirty: BTreeSet<NodeId>,
    /// Route gains and losses since the last
    /// [`LdpFabric::take_route_changes`].
    route_changes: Vec<RouteChange>,
}

/// Width of each node's private label range. The data-plane next-hop
/// table is keyed by the *outgoing* label alone, so two neighbors must
/// never hand out the same numeric label: each node allocates from its
/// own slice of the 20-bit space.
const LABEL_RANGE: u32 = 2048;

impl LdpFabric {
    /// Builds a fabric over `topo` with every adjacency known (sessions
    /// all start down; nothing is advertised until they form).
    pub fn new(topo: &Topology, cfg: LdpConfig) -> Self {
        let mut order: Vec<NodeId> = topo.nodes().iter().map(|n| n.id).collect();
        order.sort_unstable();
        let mut nodes = BTreeMap::new();
        for (index, &id) in order.iter().enumerate() {
            let base = Label::FIRST_UNRESERVED.value() + index as u32 * LABEL_RANGE;
            assert!(
                base + LABEL_RANGE <= Label::MAX,
                "label space exhausted by {} nodes",
                order.len()
            );
            let mut peers = BTreeMap::new();
            for &(nbr, link) in topo.neighbors(id) {
                let spec = topo.link(link).expect("adjacency references known link");
                peers.insert(
                    nbr,
                    Peer {
                        link,
                        cost: spec.cost,
                        state: SessionState::Down,
                        last_hello_rx: None,
                        last_rx: None,
                        tx_seq: 0,
                        rx_seq: 0,
                        init_attempts: 0,
                        next_init_ns: 0,
                        tx_epoch: 0,
                        rx_epoch: 0,
                    },
                );
            }
            nodes.insert(
                id,
                LdpNode {
                    id,
                    role: topo.node(id).expect("node exists").role,
                    next_label: base,
                    labels_left: LABEL_RANGE,
                    alive: true,
                    peers,
                    origin: BTreeSet::new(),
                    lib: BTreeMap::new(),
                    local: BTreeMap::new(),
                    stats: LdpNodeStats::default(),
                },
            );
        }
        Self {
            cfg,
            nodes,
            fec_cos: BTreeMap::new(),
            msg_seq: 0,
            stats: LdpStats::default(),
            last_fib_change_ns: 0,
            dirty: BTreeSet::new(),
            route_changes: Vec::new(),
        }
    }

    /// The configured timers.
    pub fn config(&self) -> LdpConfig {
        self.cfg
    }

    /// Declares `egress` the originator of `prefix`: it binds a label
    /// immediately and advertises the FEC once sessions form. `cos` is
    /// the class ingress LERs will mark packets of this FEC with.
    pub fn originate(&mut self, egress: NodeId, prefix: Prefix, cos: CosBits) {
        let fec = (prefix.addr, prefix.len);
        let ttl = self.cfg.stale_ttl_ns;
        self.fec_cos.entry(fec).or_insert(cos);
        let node = self.nodes.get_mut(&egress).expect("egress node exists");
        if node.origin.insert(fec) {
            let out = node.recompute(fec, 0, ttl);
            if out.fib_changed {
                self.dirty.insert(egress);
            }
            self.log_route_flip(egress, fec, out.route_flip);
            // No sessions can be up yet at origination time, so the
            // advertisement (if any) reaches peers via session-up replay.
        }
    }

    fn next_msg_id(&mut self) -> u32 {
        self.msg_seq += 1;
        self.msg_seq
    }

    /// Queues a PDU, stamping `msg_id` with the transport sequence LDP
    /// would get from TCP: hellos (link-local UDP) draw from a global
    /// counter and carry no ordering promise; `Initialization` restarts
    /// the per-direction sequence at the session epoch (drawn once per
    /// down period, reused by retries); every other session-scoped
    /// message increments it. The receiver enforces the sequence and
    /// resets the session on any gap, duplicate or reversal.
    fn push_send(&mut self, sends: &mut Vec<LdpSend>, from: NodeId, to: NodeId, msg: LdpMessage) {
        let msg_id = match msg {
            // Hellos ride link-local UDP; notifications must get through
            // precisely when the session sequence is broken. Neither is
            // sequenced.
            LdpMessage::Hello { .. } | LdpMessage::Notification { .. } => self.next_msg_id(),
            LdpMessage::Initialization { .. } => {
                // Draw before borrowing the peer; the global counter is
                // monotone so an unused draw costs nothing but a gap.
                let fresh = self.next_msg_id();
                let peer = self
                    .nodes
                    .get_mut(&from)
                    .and_then(|n| n.peers.get_mut(&to))
                    .expect("send to known peer");
                if peer.tx_epoch == 0 {
                    peer.tx_epoch = fresh;
                }
                peer.tx_seq = peer.tx_epoch;
                peer.tx_epoch
            }
            _ => {
                let peer = self
                    .nodes
                    .get_mut(&from)
                    .and_then(|n| n.peers.get_mut(&to))
                    .expect("send to known peer");
                peer.tx_seq = peer.tx_seq.wrapping_add(1);
                peer.tx_seq
            }
        };
        sends.push(LdpSend {
            from,
            to,
            pdu: LdpPdu {
                lsr_id: from,
                msg_id,
                message: msg,
            },
        });
    }

    fn log_route_flip(&mut self, node: NodeId, fec: FecKey, flip: Option<bool>) {
        if let Some(routed) = flip {
            self.route_changes.push(RouteChange { node, fec, routed });
        }
    }

    /// Applies a recompute outcome: marks the node dirty for
    /// reprogramming, logs a route gain or loss and broadcasts the
    /// advertisement change to every operational peer.
    fn apply_recompute(
        &mut self,
        now: u64,
        id: NodeId,
        fec: FecKey,
        out: RecomputeOutcome,
        sends: &mut Vec<LdpSend>,
    ) {
        self.log_route_flip(id, fec, out.route_flip);
        if out.fib_changed {
            self.dirty.insert(id);
            self.last_fib_change_ns = self.last_fib_change_ns.max(now);
        }
        match out.adv {
            AdvAction::None => {}
            AdvAction::Advertise => {
                let node = &self.nodes[&id];
                let lb = &node.local[&fec];
                let (cost, path) = lb.advertised.clone().expect("advertise implies a route");
                let label = lb.label;
                for pid in node.operational_peers() {
                    self.push_send(
                        sends,
                        id,
                        pid,
                        LdpMessage::LabelMapping {
                            fec: LdpFec {
                                addr: fec.0,
                                len: fec.1,
                            },
                            label,
                            cost,
                            path: path.clone(),
                        },
                    );
                }
            }
            AdvAction::Withdraw(label) => {
                for pid in self.nodes[&id].operational_peers() {
                    self.push_send(
                        sends,
                        id,
                        pid,
                        LdpMessage::LabelWithdraw {
                            fec: LdpFec {
                                addr: fec.0,
                                len: fec.1,
                            },
                            label,
                        },
                    );
                }
            }
        }
    }

    fn session_down(
        &mut self,
        now: u64,
        id: NodeId,
        pid: NodeId,
        sends: &mut Vec<LdpSend>,
        events: &mut Vec<LdpEvent>,
    ) {
        let ttl = self.cfg.stale_ttl_ns;
        let node = self.nodes.get_mut(&id).expect("node exists");
        let peer = node.peers.get_mut(&pid).expect("peer exists");
        peer.state = SessionState::Down;
        peer.last_hello_rx = None;
        // A new down period: backoff restarts and the next
        // Initialization draws a fresh epoch.
        peer.init_attempts = 0;
        peer.next_init_ns = 0;
        peer.tx_epoch = 0;
        node.stats.session_downs += 1;
        let link = peer.link;
        // Purge everything learned from the dead peer — or, under
        // liberal retention, mark it stale so it keeps serving traffic
        // until the TTL or a fresh replacement — then recompute the
        // affected FECs (withdraws/remaps cascade from here).
        let affected: Vec<FecKey> = if ttl > 0 {
            node.lib
                .iter_mut()
                .filter_map(|(&fec, bindings)| {
                    bindings.get_mut(&pid).map(|b| {
                        b.stale_since.get_or_insert(now);
                        fec
                    })
                })
                .collect()
        } else {
            node.lib
                .iter_mut()
                .filter_map(|(&fec, bindings)| bindings.remove(&pid).map(|_| fec))
                .collect()
        };
        self.stats.session_downs += 1;
        events.push(LdpEvent::SessionDown {
            at: id,
            peer: pid,
            link,
        });
        for fec in affected {
            let out = self
                .nodes
                .get_mut(&id)
                .expect("node exists")
                .recompute(fec, now, ttl);
            self.apply_recompute(now, id, fec, out, sends);
        }
    }

    /// Drops stale-retained bindings whose TTL ran out and cascades the
    /// recomputes. No-op unless liberal retention is configured.
    fn expire_stale(&mut self, now: u64, sends: &mut Vec<LdpSend>) {
        let ttl = self.cfg.stale_ttl_ns;
        if ttl == 0 {
            return;
        }
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for id in ids {
            let node = self.nodes.get_mut(&id).expect("node exists");
            if !node.alive {
                continue;
            }
            let mut affected = BTreeSet::new();
            for (&fec, bindings) in node.lib.iter_mut() {
                let expired: Vec<NodeId> = bindings
                    .iter()
                    .filter(|(_, b)| b.stale_since.is_some_and(|t| now.saturating_sub(t) > ttl))
                    .map(|(&p, _)| p)
                    .collect();
                for p in expired {
                    bindings.remove(&p);
                    affected.insert(fec);
                }
            }
            for fec in affected {
                let out = self
                    .nodes
                    .get_mut(&id)
                    .expect("node exists")
                    .recompute(fec, now, ttl);
                self.apply_recompute(now, id, fec, out, sends);
            }
        }
    }

    /// Advances every node's timers to `now`: emits hellos, initiates
    /// and refreshes sessions (re-initialization waits out a bounded
    /// exponential backoff), expires the silent ones and ages out
    /// stale-retained bindings. Call once per
    /// [`LdpConfig::hello_interval_ns`]. Crashed nodes are skipped.
    pub fn tick(&mut self, now: u64) -> (Vec<LdpSend>, Vec<LdpEvent>) {
        let mut sends = Vec::new();
        let mut events = Vec::new();
        self.expire_stale(now, &mut sends);
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for id in ids {
            let node = &self.nodes[&id];
            if !node.alive {
                continue;
            }
            let mut keepalives = Vec::new();
            let mut inits = Vec::new();
            let mut downs = Vec::new();
            let mut hellos = Vec::new();
            for (&pid, peer) in &node.peers {
                hellos.push(pid);
                match peer.state {
                    SessionState::Operational => {
                        if now.saturating_sub(peer.last_rx.unwrap_or(0)) > self.cfg.hold_ns {
                            downs.push(pid);
                        } else {
                            keepalives.push(pid);
                        }
                    }
                    SessionState::Down => {
                        let fresh = peer
                            .last_hello_rx
                            .is_some_and(|h| now.saturating_sub(h) <= self.cfg.hold_ns);
                        if id < pid && fresh && now >= peer.next_init_ns {
                            inits.push(pid);
                        }
                    }
                }
            }
            for pid in hellos {
                let hold_ns = self.cfg.hold_ns;
                self.push_send(&mut sends, id, pid, LdpMessage::Hello { hold_ns });
            }
            for pid in inits {
                let keepalive_ns = self.cfg.hold_ns;
                self.push_send(
                    &mut sends,
                    id,
                    pid,
                    LdpMessage::Initialization { keepalive_ns },
                );
                // Bounded exponential backoff before the next attempt:
                // hello << attempts, capped, with ±25% deterministic
                // jitter so synchronized retry storms decorrelate while
                // staying a pure function of (seed, node, peer, attempt).
                let (hello, cap, seed) = (
                    self.cfg.hello_interval_ns,
                    self.cfg.max_backoff_exp,
                    self.cfg.jitter_seed,
                );
                let node = self.nodes.get_mut(&id).expect("node exists");
                let peer = node.peers.get_mut(&pid).expect("peer exists");
                peer.init_attempts += 1;
                if peer.init_attempts > 1 {
                    node.stats.session_retries += 1;
                    self.stats.session_retries += 1;
                }
                // Floored at the hold time: an answer cannot be expected
                // sooner than the session's own timescale, and retrying
                // below the round trip would reset freshly formed
                // sessions (the peer sees Initialization while
                // operational and tears down).
                let base = (hello << peer.init_attempts.min(cap)).max(self.cfg.hold_ns);
                let h = splitmix64(
                    seed ^ ((id as u64) << 40) ^ ((pid as u64) << 20) ^ peer.init_attempts as u64,
                );
                let delay = base - base / 4 + h % (base / 2 + 1);
                peer.next_init_ns = now + delay;
            }
            for pid in keepalives {
                self.push_send(&mut sends, id, pid, LdpMessage::KeepAlive);
            }
            for pid in downs {
                self.session_down(now, id, pid, &mut sends, &mut events);
            }
        }
        (sends, events)
    }

    /// Session-up bookkeeping at `id` for neighbor `pid`: replay every
    /// routable local binding to the new peer.
    fn session_up(
        &mut self,
        id: NodeId,
        pid: NodeId,
        echo_init: bool,
        sends: &mut Vec<LdpSend>,
        events: &mut Vec<LdpEvent>,
    ) {
        let node = self.nodes.get_mut(&id).expect("node exists");
        let peer = node.peers.get_mut(&pid).expect("peer exists");
        peer.state = SessionState::Operational;
        peer.init_attempts = 0;
        peer.next_init_ns = 0;
        node.stats.session_ups += 1;
        let link = peer.link;
        self.stats.sessions_established += 1;
        events.push(LdpEvent::SessionUp {
            at: id,
            peer: pid,
            link,
        });
        self.replay_to_peer(id, pid, echo_init, sends);
    }

    /// The send side of a session handshake from `id` to `pid`: the
    /// echo `Initialization` (if this is the passive side), a
    /// `KeepAlive`, and a replay of every advertised local binding.
    /// Also reused verbatim to answer a duplicate (same-epoch)
    /// `Initialization` idempotently, without touching session state.
    fn replay_to_peer(
        &mut self,
        id: NodeId,
        pid: NodeId,
        echo_init: bool,
        sends: &mut Vec<LdpSend>,
    ) {
        if echo_init {
            let keepalive_ns = self.cfg.hold_ns;
            self.push_send(sends, id, pid, LdpMessage::Initialization { keepalive_ns });
        }
        self.push_send(sends, id, pid, LdpMessage::KeepAlive);
        let replay: Vec<(FecKey, Label, u64, Vec<u32>)> = self.nodes[&id]
            .local
            .iter()
            .filter_map(|(&fec, lb)| {
                lb.advertised
                    .clone()
                    .map(|(cost, path)| (fec, lb.label, cost, path))
            })
            .collect();
        for (fec, label, cost, path) in replay {
            self.push_send(
                sends,
                id,
                pid,
                LdpMessage::LabelMapping {
                    fec: LdpFec {
                        addr: fec.0,
                        len: fec.1,
                    },
                    label,
                    cost,
                    path,
                },
            );
        }
    }

    /// Delivers one PDU from `from` to `to` at time `now` and returns
    /// the PDUs and events it provoked. PDUs from non-adjacent senders,
    /// or addressed to a crashed node, are ignored. Session-scoped PDUs
    /// (everything but hello and `Initialization`) must arrive in the
    /// per-direction sequence their `msg_id` encodes; a gap, duplicate
    /// or reversal is a transport violation — the stand-in for a broken
    /// TCP connection — and resets the session, whose re-initialization
    /// then resynchronizes both directions from scratch.
    pub fn deliver(
        &mut self,
        now: u64,
        from: NodeId,
        to: NodeId,
        pdu: &LdpPdu,
    ) -> (Vec<LdpSend>, Vec<LdpEvent>) {
        let mut sends = Vec::new();
        let mut events = Vec::new();
        let ttl = self.cfg.stale_ttl_ns;
        let Some(node) = self.nodes.get_mut(&to) else {
            return (sends, events);
        };
        if !node.alive {
            return (sends, events);
        }
        let Some(peer) = node.peers.get_mut(&from) else {
            return (sends, events);
        };
        peer.last_rx = Some(now);
        node.stats.pdus_rx += 1;
        let operational = peer.state == SessionState::Operational;
        match &pdu.message {
            LdpMessage::Hello { .. } => {
                peer.last_hello_rx = Some(now);
                return (sends, events);
            }
            LdpMessage::Notification { .. } => {
                // The peer declared the session dead; mirror it. Never
                // answered, so notification storms cannot loop.
                if operational {
                    self.session_down(now, to, from, &mut sends, &mut events);
                }
                return (sends, events);
            }
            LdpMessage::Initialization { .. } => {
                if operational && pdu.msg_id == peer.rx_epoch {
                    // A backed-off retry of the very Initialization that
                    // formed this session — its echo outran the retry, or
                    // the echo was lost. Same epoch, same session:
                    // resynchronize the inbound sequence and (on the
                    // passive side only, so duplicates can't ping-pong)
                    // re-echo the handshake. No teardown, no events.
                    peer.rx_seq = pdu.msg_id;
                    if to > from {
                        self.replay_to_peer(to, from, true, &mut sends);
                    }
                    return (sends, events);
                }
                peer.rx_seq = pdu.msg_id;
                peer.rx_epoch = pdu.msg_id;
                if operational {
                    // A *new* epoch while this side still held the
                    // session up: the peer genuinely restarted (or is
                    // recovering from a transport violation). Reset
                    // before re-forming.
                    self.session_down(now, to, from, &mut sends, &mut events);
                }
                self.session_up(to, from, to > from, &mut sends, &mut events);
                return (sends, events);
            }
            _ => {
                if !operational {
                    // Session traffic without a session: the sender is
                    // wedged half-open (it missed our teardown while its
                    // hold timer stayed fresh on hellos). Tell it to
                    // reset; the mapping state is replayed when the
                    // session re-forms.
                    self.push_send(
                        &mut sends,
                        to,
                        from,
                        LdpMessage::Notification {
                            status: STATUS_NO_SESSION,
                        },
                    );
                    return (sends, events);
                }
                let expected = peer.rx_seq.wrapping_add(1);
                if pdu.msg_id != expected {
                    node.stats.sequence_violations += 1;
                    self.stats.sequence_violations += 1;
                    self.session_down(now, to, from, &mut sends, &mut events);
                    self.push_send(
                        &mut sends,
                        to,
                        from,
                        LdpMessage::Notification {
                            status: STATUS_BAD_SEQUENCE,
                        },
                    );
                    return (sends, events);
                }
                peer.rx_seq = expected;
            }
        }
        let node = self.nodes.get_mut(&to).expect("checked above");
        match &pdu.message {
            LdpMessage::KeepAlive => {}
            LdpMessage::LabelMapping {
                fec,
                label,
                cost,
                path,
            } => {
                let fec_key = (fec.addr, fec.len);
                if path.contains(&to) {
                    node.stats.loop_rejections += 1;
                    self.stats.loop_rejections += 1;
                    // A looping advertisement supersedes any older
                    // binding from this peer.
                    if let Some(b) = node.lib.get_mut(&fec_key) {
                        b.remove(&from);
                    }
                    let out = node.recompute(fec_key, now, ttl);
                    self.push_send(
                        &mut sends,
                        to,
                        from,
                        LdpMessage::LabelRelease {
                            fec: *fec,
                            label: *label,
                        },
                    );
                    self.apply_recompute(now, to, fec_key, out, &mut sends);
                } else {
                    node.stats.mappings_rx += 1;
                    self.stats.mappings_accepted += 1;
                    node.lib.entry(fec_key).or_default().insert(
                        from,
                        RemoteBinding {
                            label: *label,
                            cost: *cost,
                            path: path.clone(),
                            stale_since: None,
                        },
                    );
                    let out = node.recompute(fec_key, now, ttl);
                    self.apply_recompute(now, to, fec_key, out, &mut sends);
                }
            }
            LdpMessage::LabelWithdraw { fec, label } => {
                let fec_key = (fec.addr, fec.len);
                node.stats.withdraws_rx += 1;
                self.stats.withdraws_processed += 1;
                if let Some(b) = node.lib.get_mut(&fec_key) {
                    b.remove(&from);
                }
                let out = node.recompute(fec_key, now, ttl);
                self.push_send(
                    &mut sends,
                    to,
                    from,
                    LdpMessage::LabelRelease {
                        fec: *fec,
                        label: *label,
                    },
                );
                self.apply_recompute(now, to, fec_key, out, &mut sends);
            }
            LdpMessage::LabelRelease { .. } => {
                node.stats.releases_rx += 1;
            }
            LdpMessage::Hello { .. }
            | LdpMessage::Notification { .. }
            | LdpMessage::Initialization { .. } => {
                unreachable!("handled above")
            }
        }
        (sends, events)
    }

    /// Reports that a PDU from `from` to `to` failed to decode at the
    /// fabric layer (truncated or corrupted on the wire). The failure is
    /// counted and — because LDP's real transport would have torn the
    /// TCP connection — any operational session with the sender is
    /// reset; re-initialization replays the lost state.
    pub fn note_malformed(
        &mut self,
        now: u64,
        from: NodeId,
        to: NodeId,
    ) -> (Vec<LdpSend>, Vec<LdpEvent>) {
        let mut sends = Vec::new();
        let mut events = Vec::new();
        let Some(node) = self.nodes.get_mut(&to) else {
            return (sends, events);
        };
        if !node.alive {
            return (sends, events);
        }
        let Some(peer) = node.peers.get(&from) else {
            return (sends, events);
        };
        node.stats.malformed_pdus += 1;
        self.stats.malformed_pdus += 1;
        if peer.state == SessionState::Operational {
            self.session_down(now, to, from, &mut sends, &mut events);
            // Tell the sender its transport is broken so it resets too;
            // re-initialization then replays the lost state.
            self.push_send(
                &mut sends,
                to,
                from,
                LdpMessage::Notification {
                    status: STATUS_MALFORMED,
                },
            );
        }
        (sends, events)
    }

    /// Crashes `id`: all protocol state (LIB, local bindings, session
    /// and adjacency state) is lost and the node goes silent. Its
    /// rendered config is empty until it restarts and re-learns — the
    /// cold-FIB window. Origin (FEC provisioning) and the label-range
    /// cursor survive, the latter so a restarted node never re-issues a
    /// label a neighbor may still be forwarding with.
    pub fn crash_node(&mut self, now: u64, id: NodeId) {
        let Some(node) = self.nodes.get_mut(&id) else {
            return;
        };
        if !node.alive {
            return;
        }
        node.alive = false;
        node.lib.clear();
        for (&fec, lb) in &node.local {
            if lb.route.is_some() {
                self.route_changes.push(RouteChange {
                    node: id,
                    fec,
                    routed: false,
                });
            }
        }
        node.local.clear();
        for peer in node.peers.values_mut() {
            peer.state = SessionState::Down;
            peer.last_hello_rx = None;
            peer.last_rx = None;
            peer.tx_seq = 0;
            peer.rx_seq = 0;
            peer.init_attempts = 0;
            peer.next_init_ns = 0;
            peer.tx_epoch = 0;
            peer.rx_epoch = 0;
        }
        self.dirty.insert(id);
        self.last_fib_change_ns = self.last_fib_change_ns.max(now);
    }

    /// Restarts a crashed `id` with a cold FIB: it re-binds labels for
    /// the FECs it originates and rejoins the protocol on the next tick;
    /// everything else is re-learned from its peers.
    pub fn restart_node(&mut self, now: u64, id: NodeId) {
        let ttl = self.cfg.stale_ttl_ns;
        let Some(node) = self.nodes.get_mut(&id) else {
            return;
        };
        if node.alive {
            return;
        }
        node.alive = true;
        let origins: Vec<FecKey> = node.origin.iter().copied().collect();
        let mut sends = Vec::new();
        for fec in origins {
            let out = self
                .nodes
                .get_mut(&id)
                .expect("node exists")
                .recompute(fec, now, ttl);
            self.apply_recompute(now, id, fec, out, &mut sends);
        }
        debug_assert!(sends.is_empty(), "no sessions can be up at restart");
        self.dirty.insert(id);
        self.last_fib_change_ns = self.last_fib_change_ns.max(now);
    }

    /// Renders `node`'s converged protocol state in the exact
    /// [`NodeConfig`] shape the centralized solver produces, ready for
    /// `Node::reprogram`.
    pub fn config_for(&self, node: NodeId) -> NodeConfig {
        let mut cfg = NodeConfig::default();
        let Some(n) = self.nodes.get(&node) else {
            return cfg;
        };
        if !n.alive {
            // Crashed: the node forwards nothing until it re-learns.
            return cfg;
        }
        let mut seen_next_hops = BTreeSet::new();
        for (&(addr, len), lb) in &n.local {
            let prefix = Prefix::new(addr, len);
            match &lb.route {
                None => {}
                Some(Route::Egress) => {
                    cfg.bindings.push(BindingEntry {
                        node,
                        level: 2,
                        key: lb.label.value() as u64,
                        new_label: Label::IPV4_EXPLICIT_NULL,
                        op: LabelOp::Pop,
                    });
                    cfg.ip_routes.push(IpRoute {
                        node,
                        prefix,
                        next: Hop::Local,
                    });
                }
                Some(Route::Via { nh, out_label, .. }) => {
                    cfg.bindings.push(BindingEntry {
                        node,
                        level: 2,
                        key: lb.label.value() as u64,
                        new_label: *out_label,
                        op: LabelOp::Swap,
                    });
                    if seen_next_hops.insert((out_label.value(), *nh)) {
                        cfg.next_hops.push(NextHopEntry {
                            node,
                            label: Some(*out_label),
                            next: Hop::Node(*nh),
                        });
                    }
                    if n.role == RouterRole::Ler {
                        let cos = self
                            .fec_cos
                            .get(&(addr, len))
                            .copied()
                            .unwrap_or(CosBits::BEST_EFFORT);
                        cfg.fecs.push(FecEntry {
                            node,
                            prefix,
                            push_label: *out_label,
                            cos,
                        });
                        if len == 32 {
                            cfg.bindings.push(BindingEntry {
                                node,
                                level: 1,
                                key: addr as u64,
                                new_label: *out_label,
                                op: LabelOp::Push,
                            });
                        }
                    }
                }
            }
        }
        cfg
    }

    /// Nodes whose FIB-relevant state changed since the last call —
    /// these need `reprogram`ming.
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        let d: Vec<NodeId> = self.dirty.iter().copied().collect();
        self.dirty.clear();
        d
    }

    /// Every route gain and loss since the last call, in the order the
    /// fabric made them. Replayed onto [`Self::routed_pairs`] as it stood
    /// at the last call, they give its current value, so a caller can
    /// follow reachability at O(changes). A caller that never drains the
    /// log keeps every change.
    pub fn take_route_changes(&mut self) -> Vec<RouteChange> {
        std::mem::take(&mut self.route_changes)
    }

    /// Every `(node, fec)` pair that currently holds a route: the
    /// snapshot an outage's restoration is measured against.
    pub fn routed_pairs(&self) -> BTreeSet<(NodeId, FecKey)> {
        let mut out = BTreeSet::new();
        for (&id, n) in &self.nodes {
            for (&fec, lb) in &n.local {
                if lb.route.is_some() {
                    out.insert((id, fec));
                }
            }
        }
        out
    }

    /// Time of the most recent FIB-relevant change anywhere.
    pub fn last_fib_change_ns(&self) -> u64 {
        self.last_fib_change_ns
    }

    /// Aggregate protocol counters.
    pub fn stats(&self) -> LdpStats {
        self.stats
    }

    /// Per-node counters, ascending by node id.
    pub fn node_stats(&self) -> impl Iterator<Item = (NodeId, &LdpNodeStats)> {
        self.nodes.iter().map(|(&id, n)| (id, &n.stats))
    }

    /// All node ids in the fabric, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpls_control::LinkSpec;

    fn line3() -> Topology {
        // 0 --- 1 --- 2
        let mut t = Topology::new();
        t.add_node(0, RouterRole::Ler, "a");
        t.add_node(1, RouterRole::Lsr, "m");
        t.add_node(2, RouterRole::Ler, "b");
        for (a, b) in [(0, 1), (1, 2)] {
            t.add_link(LinkSpec {
                a,
                b,
                cost: 1,
                bandwidth_bps: 1_000_000_000,
                delay_ns: 1000,
            });
        }
        t
    }

    /// Runs the fabric over an ideal zero-latency wire: every send is
    /// delivered immediately and **in order** (links are FIFO — the
    /// engine models serialization, which preserves send order per
    /// channel; the protocol relies on it, e.g. the session `Init` echo
    /// must precede the mapping replay behind it).
    fn converge(fabric: &mut LdpFabric, ticks: u32) {
        use std::collections::VecDeque;
        let dt = fabric.config().hello_interval_ns;
        for i in 0..ticks {
            let now = i as u64 * dt;
            let (sends, _) = fabric.tick(now);
            let mut queue: VecDeque<LdpSend> = sends.into();
            while let Some(s) = queue.pop_front() {
                let (more, _) = fabric.deliver(now, s.from, s.to, &s.pdu);
                queue.extend(more);
            }
        }
    }

    #[test]
    fn sessions_form_and_labels_flow() {
        let topo = line3();
        let mut f = LdpFabric::new(&topo, LdpConfig::default());
        f.originate(2, Prefix::new(0x0a00_0000, 8), CosBits::BEST_EFFORT);
        converge(&mut f, 4);
        assert!(f.stats().sessions_established >= 4, "both ends, both links");
        // Ingress LER 0 classifies and pushes toward 1.
        let cfg0 = f.config_for(0);
        assert_eq!(cfg0.fecs.len(), 1);
        assert_eq!(
            cfg0.next_hop_for(Some(cfg0.fecs[0].push_label)),
            Some(Hop::Node(1))
        );
        // Transit 1 swaps toward 2; egress 2 pops and delivers.
        let cfg1 = f.config_for(1);
        assert!(cfg1
            .bindings
            .iter()
            .any(|b| b.level == 2 && b.op == LabelOp::Swap));
        let cfg2 = f.config_for(2);
        assert!(cfg2.bindings.iter().any(|b| b.op == LabelOp::Pop));
        assert_eq!(cfg2.ip_route_for(0x0a01_0203), Some(Hop::Local));
        // Labels come from disjoint per-node ranges.
        let l1 = cfg0.fecs[0].push_label.value();
        assert!((Label::FIRST_UNRESERVED.value() + LABEL_RANGE..).contains(&l1));
    }

    #[test]
    fn loop_detection_rejects_own_path() {
        let topo = line3();
        let mut f = LdpFabric::new(&topo, LdpConfig::default());
        f.originate(2, Prefix::new(0x0a00_0000, 8), CosBits::BEST_EFFORT);
        converge(&mut f, 4);
        // Re-advertisements echo back to the downstream peer and are
        // path-vector-rejected there; that background rate is fine.
        let before = f.stats().loop_rejections;
        // Hand node 1 a forged mapping whose path vector contains 1.
        // The forgery must carry the expected transport sequence or the
        // guard resets the session before loop detection ever sees it.
        let next_seq = f.nodes[&1].peers[&0].rx_seq + 1;
        let pdu = LdpPdu {
            lsr_id: 0,
            msg_id: next_seq,
            message: LdpMessage::LabelMapping {
                fec: LdpFec {
                    addr: 0x0a00_0000,
                    len: 8,
                },
                label: Label::new(77).unwrap(),
                cost: 1,
                path: vec![0, 1, 2],
            },
        };
        let (sends, _) = f.deliver(5_000_000, 0, 1, &pdu);
        assert_eq!(f.stats().loop_rejections, before + 1);
        assert!(sends
            .iter()
            .any(|s| matches!(s.pdu.message, LdpMessage::LabelRelease { .. })));
    }

    #[test]
    fn hold_expiry_tears_down_and_withdraws() {
        let topo = line3();
        let mut f = LdpFabric::new(&topo, LdpConfig::default());
        f.originate(2, Prefix::new(0x0a00_0000, 8), CosBits::BEST_EFFORT);
        converge(&mut f, 4);
        assert!(!f.config_for(0).fecs.is_empty());
        f.take_dirty();
        // Node 0 hears nothing from 1 past the hold time.
        let late = 100_000_000;
        let (sends, events) = f.tick(late);
        assert!(events
            .iter()
            .any(|e| matches!(e, LdpEvent::SessionDown { at: 0, peer: 1, .. })));
        assert!(f.take_dirty().contains(&0));
        assert!(
            f.config_for(0).fecs.is_empty(),
            "route gone with the session"
        );
        // Everything it knew came from that peer, so nothing remains to
        // withdraw to (its only peer is down) — but the FIB change is
        // visible above. A richer assertion runs in the engine tests.
        // (Liberal retention is off by default; see the stale test.)
        drop(sends);
    }

    #[test]
    fn out_of_sequence_pdu_resets_the_session() {
        let topo = line3();
        let mut f = LdpFabric::new(&topo, LdpConfig::default());
        f.originate(2, Prefix::new(0x0a00_0000, 8), CosBits::BEST_EFFORT);
        converge(&mut f, 4);
        let downs_before = f.stats().session_downs;
        // A duplicated keepalive re-uses an already-consumed sequence.
        let stale_seq = f.nodes[&1].peers[&0].rx_seq;
        let pdu = LdpPdu {
            lsr_id: 0,
            msg_id: stale_seq,
            message: LdpMessage::KeepAlive,
        };
        let (_, events) = f.deliver(5_000_000, 0, 1, &pdu);
        assert_eq!(f.stats().sequence_violations, 1);
        assert_eq!(f.stats().session_downs, downs_before + 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, LdpEvent::SessionDown { at: 1, peer: 0, .. })));
        // The session re-forms on subsequent ticks and the route returns.
        converge(&mut f, 12);
        assert!(
            !f.config_for(0).fecs.is_empty(),
            "resynchronized after reset"
        );
    }

    #[test]
    fn malformed_pdu_counts_and_resets_the_session() {
        let topo = line3();
        let mut f = LdpFabric::new(&topo, LdpConfig::default());
        f.originate(2, Prefix::new(0x0a00_0000, 8), CosBits::BEST_EFFORT);
        converge(&mut f, 4);
        let downs_before = f.stats().session_downs;
        let (_, events) = f.note_malformed(5_000_000, 2, 1);
        assert_eq!(f.stats().malformed_pdus, 1);
        assert_eq!(f.stats().session_downs, downs_before + 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, LdpEvent::SessionDown { at: 1, peer: 2, .. })));
        // Malformed deliveries on an already-down session only count.
        f.note_malformed(5_100_000, 2, 1);
        assert_eq!(f.stats().malformed_pdus, 2);
        assert_eq!(f.stats().session_downs, downs_before + 1);
    }

    #[test]
    fn reinit_backs_off_exponentially_with_bounded_jitter() {
        let topo = line3();
        let mut f = LdpFabric::new(&topo, LdpConfig::default());
        let hello = f.config().hello_interval_ns;
        // Feed node 0 hellos from 1 but never answer its Initialization:
        // attempts must space out exponentially instead of every tick.
        let mut init_times = Vec::new();
        for i in 0..200u64 {
            let now = i * hello;
            let hello_pdu = LdpPdu {
                lsr_id: 1,
                msg_id: 1,
                message: LdpMessage::Hello { hold_ns: 3_500_000 },
            };
            f.deliver(now, 1, 0, &hello_pdu);
            let (sends, _) = f.tick(now);
            if sends.iter().any(|s| {
                s.from == 0
                    && s.to == 1
                    && matches!(s.pdu.message, LdpMessage::Initialization { .. })
            }) {
                init_times.push(now);
            }
        }
        assert!(
            init_times.len() >= 4,
            "several attempts in 200 ticks: {init_times:?}"
        );
        assert!(
            init_times.len() <= 12,
            "immediate retry is gone: {init_times:?}"
        );
        let gaps: Vec<u64> = init_times.windows(2).map(|w| w[1] - w[0]).collect();
        // Each gap tracks its attempt's base — `hello << n` capped and
        // floored at the hold time — inside the ±25% jitter band (plus
        // one tick of rounding, since sends happen on tick boundaries).
        let cfg = LdpConfig::default();
        for (i, &g) in gaps.iter().enumerate() {
            let n = (i as u32 + 1).min(cfg.max_backoff_exp);
            let base = (hello << n).max(cfg.hold_ns);
            assert!(
                g >= base - base / 4 && g <= base + base / 4 + hello,
                "gap {i} = {g} outside the jitter band of base {base}: {gaps:?}"
            );
        }
        assert!(
            f.stats().session_retries as usize == init_times.len() - 1,
            "retries surfaced in stats"
        );
    }

    #[test]
    fn stale_retention_serves_while_session_is_down_then_expires() {
        let topo = line3();
        let cfg = LdpConfig {
            stale_ttl_ns: 50_000_000,
            ..LdpConfig::default()
        };
        let mut f = LdpFabric::new(&topo, cfg);
        f.originate(2, Prefix::new(0x0a00_0000, 8), CosBits::BEST_EFFORT);
        converge(&mut f, 4);
        assert!(!f.config_for(0).fecs.is_empty());
        f.take_dirty();
        // Node 0 hears nothing past the hold time: the session drops but
        // the binding is retained stale and keeps serving.
        let down_at = 10_000_000;
        let (_, events) = f.tick(down_at);
        assert!(events
            .iter()
            .any(|e| matches!(e, LdpEvent::SessionDown { at: 0, peer: 1, .. })));
        assert!(
            !f.config_for(0).fecs.is_empty(),
            "stale binding keeps the route alive"
        );
        // Past the TTL the binding ages out and the route goes with it.
        f.tick(down_at + cfg.stale_ttl_ns + cfg.hello_interval_ns);
        assert!(
            f.config_for(0).fecs.is_empty(),
            "stale binding expired at the TTL"
        );
    }

    #[test]
    fn crash_loses_state_and_restart_relearns() {
        let topo = line3();
        let mut f = LdpFabric::new(&topo, LdpConfig::default());
        f.originate(2, Prefix::new(0x0a00_0000, 8), CosBits::BEST_EFFORT);
        converge(&mut f, 4);
        let old_egress_label = f.config_for(2).bindings[0].key;
        f.crash_node(5_000_000, 2);
        assert!(f.config_for(2).bindings.is_empty(), "FIB cold after crash");
        assert!(f.take_dirty().contains(&2), "engine told to wipe the node");
        // While down it neither ticks nor receives.
        let (sends, _) = f.tick(6_000_000);
        assert!(sends.iter().all(|s| s.from != 2), "crashed node is silent");
        f.restart_node(20_000_000, 2);
        assert!(
            !f.config_for(2).bindings.is_empty(),
            "origin FECs re-bound at restart"
        );
        let new_egress_label = f.config_for(2).bindings[0].key;
        assert_ne!(
            old_egress_label, new_egress_label,
            "restart never re-issues a label neighbors may still use"
        );
        // Sessions re-form and upstream routes return.
        converge(&mut f, 40);
        assert!(!f.config_for(0).fecs.is_empty(), "relearned end to end");
    }

    /// A 3x3 grid, node `3 * row + col`, unit-cost links; LERs at the
    /// corners.
    fn grid3() -> Topology {
        let mut t = Topology::new();
        for id in 0..9 {
            let role = if [0, 2, 6, 8].contains(&id) {
                RouterRole::Ler
            } else {
                RouterRole::Lsr
            };
            t.add_node(id, role, format!("n{id}"));
        }
        for id in 0..9 {
            let right = (id % 3 < 2).then_some(id + 1);
            let down = (id < 6).then_some(id + 3);
            for b in [right, down].into_iter().flatten() {
                t.add_link(LinkSpec {
                    a: id,
                    b,
                    cost: 1,
                    bandwidth_bps: 1_000_000_000,
                    delay_ns: 1000,
                });
            }
        }
        t
    }

    /// The route-change log replayed onto a set, which must equal
    /// `routed_pairs()` after every fabric call.
    #[derive(Default)]
    struct Mirror {
        routed: BTreeSet<(NodeId, FecKey)>,
        losses: usize,
    }

    impl Mirror {
        fn sync(&mut self, f: &mut LdpFabric, after: &str) {
            for c in f.take_route_changes() {
                let pair = (c.node, c.fec);
                if c.routed {
                    assert!(self.routed.insert(pair), "{after}: regained {pair:?}");
                } else {
                    assert!(self.routed.remove(&pair), "{after}: lost unrouted {pair:?}");
                    self.losses += 1;
                }
            }
            assert_eq!(self.routed, f.routed_pairs(), "log diverged after {after}");
        }

        /// Delivers `sends` and everything they provoke in FIFO order at
        /// `now`, dropping PDUs across the `cut` link.
        fn pump(
            &mut self,
            f: &mut LdpFabric,
            now: u64,
            sends: Vec<LdpSend>,
            cut: Option<(NodeId, NodeId)>,
        ) {
            let mut queue: std::collections::VecDeque<LdpSend> = sends.into();
            while let Some(s) = queue.pop_front() {
                if cut.is_some_and(|(a, b)| (s.from, s.to) == (a, b) || (s.from, s.to) == (b, a)) {
                    continue;
                }
                let (more, _) = f.deliver(now, s.from, s.to, &s.pdu);
                self.sync(f, "deliver");
                queue.extend(more);
            }
        }

        /// [`converge`] over ticks `from..to`, checked after every call.
        fn run_ticks(
            &mut self,
            f: &mut LdpFabric,
            from: u64,
            to: u64,
            cut: Option<(NodeId, NodeId)>,
        ) {
            let dt = f.config().hello_interval_ns;
            for i in from..to {
                let (sends, _) = f.tick(i * dt);
                self.sync(f, "tick");
                self.pump(f, i * dt, sends, cut);
            }
        }
    }

    #[test]
    fn route_change_log_replays_to_routed_pairs() {
        let mut f = LdpFabric::new(&grid3(), LdpConfig::default());
        let dt = f.config().hello_interval_ns;
        for (i, egress) in [0, 2, 4, 6, 8].into_iter().enumerate() {
            let prefix = Prefix::new(0x0a00_0000 | (i as u32) << 16, 16);
            f.originate(egress, prefix, CosBits::BEST_EFFORT);
        }
        let mut m = Mirror::default();
        m.sync(&mut f, "originate");
        m.run_ticks(&mut f, 0, 10, None);
        let full = f.routed_pairs();
        assert_eq!(full.len(), 9 * 5, "every node routes every FEC");

        // A Notification resets node 1's session with 2, its only loop-free
        // source for node 2's FEC.
        let losses = m.losses;
        let reset = LdpPdu {
            lsr_id: 2,
            msg_id: 0,
            message: LdpMessage::Notification {
                status: STATUS_BAD_SEQUENCE,
            },
        };
        let (sends, _) = f.deliver(10 * dt, 2, 1, &reset);
        m.sync(&mut f, "notification");
        m.pump(&mut f, 10 * dt, sends, None);
        m.run_ticks(&mut f, 11, 30, None);
        assert!(m.losses > losses, "the reset withdrew a route");
        assert_eq!(f.routed_pairs(), full, "reconverged after the reset");

        // Link 0-1 goes silent: both hold timers expire.
        let (losses, downs) = (m.losses, f.stats().session_downs);
        m.run_ticks(&mut f, 30, 40, Some((0, 1)));
        assert!(f.stats().session_downs >= downs + 2, "hold timers expired");
        assert!(m.losses > losses, "the expiry withdrew a route");
        m.run_ticks(&mut f, 40, 80, None);
        assert_eq!(
            f.routed_pairs(),
            full,
            "reconverged after the link returned"
        );

        // Node 4 crashes, then restarts cold.
        let losses = m.losses;
        f.crash_node(80 * dt, 4);
        m.sync(&mut f, "crash_node");
        assert!(m.losses >= losses + 5, "the crash lost node 4's routes");
        m.run_ticks(&mut f, 81, 90, None);
        f.restart_node(90 * dt, 4);
        m.sync(&mut f, "restart_node");
        m.run_ticks(&mut f, 91, 160, None);
        assert_eq!(f.routed_pairs(), full, "relearned after the restart");
    }
}
