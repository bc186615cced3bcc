//! LSP establishment, bandwidth admission control and hierarchical
//! tunnels.
//!
//! Models the outcome of ordered downstream-on-demand label distribution
//! (LDP/CR-LDP): the egress end of a path allocates the label it wants to
//! receive, labels propagate upstream, and every node on the path gets
//! forwarding state. Bandwidth reservations implement the admission-
//! control half of the integrated-services QoS story (§1, §2).
//!
//! # Tunnels and the hardware push operation
//!
//! The hardware push re-pushes the removed top entry *unchanged* beneath
//! the new label (paper Fig. 9: `PUSH OLD`, `PUSH NEW`), so a label that
//! enters a tunnel emerges from it with the same value. Two consequences,
//! both encoded here:
//!
//! * tunnels run penultimate-hop popping internally, so the tunnel tail
//!   receives the inner label on top and handles it as an ordinary
//!   transit hop;
//! * label values must be unique network-wide (not merely per node) for
//!   nested LSPs, so the control plane allocates from one shared space by
//!   default — strictly more conservative than per-platform spaces, never
//!   incorrect.

use crate::config::{BindingEntry, FecEntry, Hop, IpRoute, NextHopEntry, NodeConfig};
use crate::cspf::{shortest_path, Constraint, PathError};
use crate::label_alloc::LabelAllocator;
use crate::spt::SptTree;
use crate::topology::{LinkId, NodeId, RouterRole, Topology};
use mpls_dataplane::ftn::Prefix;
use mpls_dataplane::LabelOp;
use mpls_packet::{CosBits, Label};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// LSP identifier.
pub type LspId = u32;
/// Tunnel identifier.
pub type TunnelId = u32;

/// Virtual node id used as the shared label space (see the module docs).
const GLOBAL_SPACE: NodeId = NodeId::MAX;

/// A request to establish an LSP between two LERs.
#[derive(Debug, Clone)]
pub struct LspRequest {
    /// Ingress LER.
    pub ingress: NodeId,
    /// Egress LER.
    pub egress: NodeId,
    /// The FEC: packets to this prefix ride the LSP.
    pub fec: Prefix,
    /// CoS stamped on the pushed label.
    pub cos: CosBits,
    /// Bandwidth to reserve on every traversed link (0 = best effort).
    pub bandwidth_bps: u64,
    /// Pin the path explicitly (CR-LDP/RSVP-TE explicit route); `None`
    /// lets CSPF choose.
    pub explicit_route: Option<Vec<NodeId>>,
    /// Penultimate-hop popping: the last LSR pops and the egress receives
    /// plain IP.
    pub php: bool,
}

impl LspRequest {
    /// A best-effort request with CSPF routing and no PHP.
    pub fn best_effort(ingress: NodeId, egress: NodeId, fec: Prefix) -> Self {
        Self {
            ingress,
            egress,
            fec,
            cos: CosBits::BEST_EFFORT,
            bandwidth_bps: 0,
            explicit_route: None,
            php: false,
        }
    }
}

/// Why signaling failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignalError {
    /// Path computation failed.
    Path(PathError),
    /// A link on the requested route lacks unreserved bandwidth.
    InsufficientBandwidth {
        /// The saturated link.
        link: LinkId,
    },
    /// Ingress/egress of an LSP must be LERs.
    NotALer(NodeId),
    /// An LSP's ingress and egress are this one node: its path has no
    /// hop to carry a label.
    IngressIsEgress(NodeId),
    /// The explicit route is not a connected path with the right
    /// endpoints.
    BadExplicitRoute,
    /// No such tunnel.
    UnknownTunnel(TunnelId),
    /// A tunnel needs at least one interior LSR.
    TunnelTooShort,
    /// The label space ran out.
    LabelSpaceExhausted,
    /// No such LSP.
    UnknownLsp(LspId),
    /// An explicit route traverses a failed link.
    LinkFailed(LinkId),
}

/// A fully signaled LSP: its logical path, per-hop labels and reserved
/// links. Its forwarding state sits in the per-node store at the nodes
/// of its path and, when it rides a tunnel, at the tunnel's penultimate
/// node.
#[derive(Debug, Clone)]
pub struct SignaledLsp {
    /// Identifier.
    pub id: LspId,
    /// The request that created it.
    pub request: LspRequest,
    /// Logical node path (a tunnel collapses to the head–tail adjacency).
    pub path: Vec<NodeId>,
    /// `hop_labels[i]` travels on the logical hop `path[i] -> path[i+1]`.
    pub hop_labels: Vec<Label>,
    /// Physical links reserved (a tunneled LSP's two access segments;
    /// its tunnel holds the rest).
    pub reserved_links: Vec<LinkId>,
    /// The tunnel the LSP rides, if any.
    tunnel: Option<TunnelId>,
}

/// A signaled hierarchical tunnel (an LSP between two core nodes carrying
/// other LSPs — paper Fig. 3).
#[derive(Debug, Clone)]
pub struct Tunnel {
    /// Identifier.
    pub id: TunnelId,
    /// Tunnel head (performs the push).
    pub head: NodeId,
    /// Tunnel tail (receives the inner label after interior PHP).
    pub tail: NodeId,
    /// Physical path including head and tail.
    pub path: Vec<NodeId>,
    /// Label pushed at the head (the first interior hop's label).
    pub entry_label: Label,
    /// Per-hop labels along the interior.
    pub hop_labels: Vec<Label>,
    /// Physical links reserved.
    pub reserved_links: Vec<LinkId>,
}

/// The tunnel facts LSP state generation needs at the head of an LSP
/// that rides a tunnel — resolved once by the caller so generation never
/// scans the tunnel table.
#[derive(Debug, Clone, Copy)]
struct TunnelHop {
    id: TunnelId,
    head: NodeId,
    tail: NodeId,
    /// The tunnel's penultimate node (performs the interior PHP pop).
    penultimate: NodeId,
    entry_label: Label,
}

/// One forwarding entry of the per-node store — a label pair, a next
/// hop, an ingress classification or an unlabeled route — without the
/// node it programs, which is the store's index. Every stored key is an
/// IPv4 address (a host FEC's level-1 pair) or a 20-bit label, so it is
/// kept in 32 bits. [`ControlPlane::config_for`] rebuilds the public
/// [`BindingEntry`], [`NextHopEntry`], [`FecEntry`] and [`IpRoute`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Binding {
        level: u8,
        op: LabelOp,
        key: u32,
        new_label: Label,
    },
    NextHop {
        label: Option<Label>,
        next: Hop,
    },
    Fec {
        prefix: Prefix,
        push_label: Label,
        cos: CosBits,
    },
    IpRoute {
        prefix: Prefix,
        next: Hop,
    },
}

/// An `(LSP id, entry)` of the store is 24 bytes; the public forms,
/// node id and 64-bit key included, made it 40.
const _: () = assert!(std::mem::size_of::<(LspId, Entry)>() == 24);

impl Entry {
    /// A label pair keyed by an incoming label.
    fn label_pair(level: u8, in_label: Label, new_label: Label, op: LabelOp) -> Self {
        Entry::Binding {
            level,
            op,
            key: in_label.value(),
            new_label,
        }
    }

    /// The list of `cfg` the entry goes to: 0 bindings, 1 next hops,
    /// 2 FECs, 3 IP routes.
    fn kind(&self) -> usize {
        match self {
            Entry::Binding { .. } => 0,
            Entry::NextHop { .. } => 1,
            Entry::Fec { .. } => 2,
            Entry::IpRoute { .. } => 3,
        }
    }

    /// Appends the entry, as the public form programming `node`, to the
    /// list of its kind in `cfg`.
    fn add_to(self, node: NodeId, cfg: &mut NodeConfig) {
        match self {
            Entry::Binding {
                level,
                op,
                key,
                new_label,
            } => cfg.bindings.push(BindingEntry {
                node,
                level,
                key: u64::from(key),
                new_label,
                op,
            }),
            Entry::NextHop { label, next } => {
                cfg.next_hops.push(NextHopEntry { node, label, next })
            }
            Entry::Fec {
                prefix,
                push_label,
                cos,
            } => cfg.fecs.push(FecEntry {
                node,
                prefix,
                push_label,
                cos,
            }),
            Entry::IpRoute { prefix, next } => cfg.ip_routes.push(IpRoute { node, prefix, next }),
        }
    }
}

/// One node's forwarding state: what every LSP and tunnel installed
/// there, stored contiguously so [`ControlPlane::config_for`] is one walk.
///
/// **Order is insert rank.** An LSP appends all of its entries at install
/// time, in generation order, and LSP ids are monotonic and never reused,
/// so `lsps` is sorted by id with each LSP's entries contiguous; teardown
/// removes an LSP's entries without reordering the rest. Tunnels (never
/// torn down) keep a list of their own, because `config_for` emits every
/// LSP entry before any tunnel entry — tunnels are signaled first on the
/// scale fabrics, so one install-order list would reorder the FIB.
#[derive(Debug, Clone, Default)]
struct NodeState {
    /// `(LSP id, entry)`, ascending by id.
    lsps: Vec<(LspId, Entry)>,
    /// Tunnel entries, ascending by tunnel id.
    tunnels: Vec<Entry>,
}

/// The slot of an LSP or tunnel id in its table: ids count up from 1, so
/// id `n` sits at index `n - 1` (and id 0 at none).
fn slot(id: u32) -> usize {
    (id as usize).wrapping_sub(1)
}

/// The control plane: owns the topology, the label space, the bandwidth
/// ledger and all signaled state.
///
/// # Dense tables
///
/// Every table that signaling writes per LSP is a `Vec` indexed by an id
/// the plane hands out itself or that is already an index: LSP and
/// tunnel ids count up from 1 and are never reused (see [`slot`]), links
/// are indices, and nodes are [`Topology::index_of`] — the topology
/// never changes once the plane owns it. A torn-down LSP empties its
/// slot; tunnels are never torn down. Only the protection pairs, the
/// standby LSPs and the failed links stay sets: they are empty unless a
/// run protects, restores or cuts a link, and a lookup in an empty set
/// does not hash.
///
/// # Copy-on-write
///
/// The tables that grow with the LSP count — the LSPs, the tunnels, the
/// per-node store and the shortest-path-tree cache — and the immutable
/// topology sit behind [`Arc`]. Cloning a plane bumps their reference
/// counts and copies only the small tables (label allocator, link
/// reservations, attached prefixes, failed links, protection pairs and
/// standby LSPs), so a simulation can own the plane it was built from
/// for the price of a few pointers. Every write goes through
/// [`Arc::make_mut`], which copies a table on the first write to it
/// while it is shared: mutating one plane never changes another, and a
/// plane that is never mutated copies nothing.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    topo: Arc<Topology>,
    alloc: LabelAllocator,
    /// Bandwidth reserved on each link, by link id.
    reserved: Vec<u64>,
    /// LSP `id` at [`slot`]`(id)`; `None` once it is torn down.
    lsps: Arc<Vec<Option<SignaledLsp>>>,
    /// Tunnel `id` at [`slot`]`(id)`.
    tunnels: Arc<Vec<Tunnel>>,
    attached: Vec<IpRoute>,
    failed_links: HashSet<LinkId>,
    /// Primary LSP -> its pre-signaled standby backup.
    backups: HashMap<LspId, LspId>,
    /// LSPs whose ingress steering is withheld: pre-signaled backups and
    /// retired husks (see [`Self::protect_lsp`], [`Self::retire_lsp`]).
    standby: HashSet<LspId>,
    /// Delta-CSPF cache: by head-end node index, the incrementally
    /// repaired shortest-path tree of each head end that has signaled an
    /// unconstrained request. Repaired in place on
    /// `fail_link`/`restore_link`.
    spt_cache: Arc<Vec<Option<SptTree>>>,
    /// The canonical-parent equivalence behind the cache requires every
    /// link cost ≥ 1 (see [`crate::spt`]); computed once — the topology
    /// is immutable after construction.
    spt_cacheable: bool,
    /// Each node's forwarding state by node index (see [`NodeState`]).
    /// Makes `config_for` O(state at node) instead of O(all LSPs).
    node_state: Arc<Vec<NodeState>>,
    /// The per-LSP aggregation the per-node store replaced, as its
    /// debug-build oracle.
    #[cfg(debug_assertions)]
    oracle: oracle::PerLsp,
}

impl ControlPlane {
    /// Creates a control plane over `topo`.
    pub fn new(topo: Topology) -> Self {
        let spt_cacheable = topo.links().iter().all(|l| l.cost >= 1);
        let nodes = topo.nodes().len();
        Self {
            reserved: vec![0; topo.links().len()],
            topo: Arc::new(topo),
            alloc: LabelAllocator::new(),
            lsps: Arc::default(),
            tunnels: Arc::default(),
            attached: Vec::new(),
            failed_links: HashSet::new(),
            backups: HashMap::new(),
            standby: HashSet::new(),
            spt_cache: Arc::new(vec![None; nodes]),
            spt_cacheable,
            node_state: Arc::new(vec![NodeState::default(); nodes]),
            #[cfg(debug_assertions)]
            oracle: oracle::PerLsp::default(),
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Declares `prefix` as locally attached at `node` (a layer-2 network
    /// behind an LER): unlabeled packets for it are delivered locally.
    pub fn attach_prefix(&mut self, node: NodeId, prefix: Prefix) {
        self.attached.push(IpRoute {
            node,
            prefix,
            next: Hop::Local,
        });
    }

    /// The locally attached prefixes declared so far, in declaration
    /// order. A distributed control plane seeds its egress originations
    /// from these instead of consulting the omniscient solver.
    pub fn attached_routes(&self) -> &[IpRoute] {
        &self.attached
    }

    /// Unreserved bandwidth on `link` (zero while the link is failed).
    pub fn available_bandwidth(&self, link: LinkId) -> u64 {
        if self.failed_links.contains(&link) {
            return 0;
        }
        let cap = self.topo.link(link).map(|l| l.bandwidth_bps).unwrap_or(0);
        cap.saturating_sub(self.reserved.get(link as usize).copied().unwrap_or(0))
    }

    /// Every physical link `lsp`'s traffic crosses: its own reserved
    /// links, then those of the tunnel it rides.
    fn links_of<'a>(&'a self, lsp: &'a SignaledLsp) -> impl Iterator<Item = LinkId> + 'a {
        let tunnel = lsp.tunnel.and_then(|t| self.tunnel(t));
        lsp.reserved_links
            .iter()
            .chain(tunnel.into_iter().flat_map(|t| &t.reserved_links))
            .copied()
    }

    // ---- restoration -----------------------------------------------------

    /// Marks `link` failed and returns the ids of LSPs whose paths
    /// traverse it — on their own links or inside the tunnel they ride —
    /// in id order. The LSPs keep their (now broken) state
    /// until [`Self::reroute_lsp`] or [`Self::teardown_lsp`] is called —
    /// mirroring how a head end learns of a failure and re-signals.
    ///
    /// **Scope:** this mutates only this control plane. A
    /// `mpls_net::Simulation` shares the plane it was built from
    /// copy-on-write, so calling `fail_link` on the original afterwards
    /// copies the tables it writes and does not affect that simulation —
    /// schedule runtime failures through the simulator's `FaultPlan`
    /// instead, which drives this method on the simulation's own plane
    /// at fault-detection time.
    pub fn fail_link(&mut self, link: LinkId) -> Vec<LspId> {
        if self.failed_links.insert(link) {
            let (topo, failed) = (&self.topo, &self.failed_links);
            for tree in Arc::make_mut(&mut self.spt_cache).iter_mut().flatten() {
                tree.link_down(topo, link, &|l| !failed.contains(&l));
            }
        }
        self.lsps
            .iter()
            .flatten()
            .filter(|l| self.links_of(l).any(|k| k == link))
            .map(|l| l.id)
            .collect()
    }

    /// Clears a link failure.
    pub fn restore_link(&mut self, link: LinkId) {
        if self.failed_links.remove(&link) {
            let (topo, failed) = (&self.topo, &self.failed_links);
            for tree in Arc::make_mut(&mut self.spt_cache).iter_mut().flatten() {
                tree.link_up(topo, link, &|l| !failed.contains(&l));
            }
        }
    }

    /// True while `link` is marked failed.
    pub fn link_is_failed(&self, link: LinkId) -> bool {
        self.failed_links.contains(&link)
    }

    /// Re-signals an LSP around the current failures: tears the old path
    /// down and recomputes with CSPF (an explicit route on the original
    /// request is abandoned — restoration outranks pinning). Returns the
    /// replacement LSP's id.
    pub fn reroute_lsp(&mut self, id: LspId) -> Result<LspId, SignalError> {
        let mut request = self
            .lsp(id)
            .ok_or(SignalError::UnknownLsp(id))?
            .request
            .clone();
        self.teardown_lsp(id)?;
        request.explicit_route = None;
        self.establish_lsp(request)
    }

    // ---- protection ------------------------------------------------------

    /// Pre-signals a link-disjoint standby backup for `primary`
    /// (1:1 path protection). The backup reserves bandwidth and installs
    /// transit forwarding state immediately — failover later only has to
    /// reprogram the head end — but its ingress classification (FEC and
    /// level-1 steering entries) is withheld until
    /// [`Self::activate_backup`]. Returns the backup's id.
    pub fn protect_lsp(&mut self, primary: LspId) -> Result<LspId, SignalError> {
        let p = self.lsp(primary).ok_or(SignalError::UnknownLsp(primary))?;
        let mut request = p.request.clone();
        let avoid: HashSet<LinkId> = self.links_of(p).collect();
        // A disjoint path must avoid every link of the primary as well as
        // anything already failed.
        let path = self.cspf_excluding(
            request.ingress,
            request.egress,
            request.bandwidth_bps,
            &avoid,
        )?;
        request.explicit_route = Some(path);
        let id = self.establish_lsp(request)?;
        self.standby.insert(id);
        #[cfg(debug_assertions)]
        self.oracle.set_standby(id, true);
        self.backups.insert(primary, id);
        Ok(id)
    }

    /// The pre-signaled backup of `primary`, if any.
    pub fn backup_of(&self, primary: LspId) -> Option<LspId> {
        self.backups.get(&primary).copied()
    }

    /// True while `id` is a standby (pre-signaled, not steering traffic).
    pub fn lsp_is_standby(&self, id: LspId) -> bool {
        self.standby.contains(&id)
    }

    /// True when none of the links the LSP crosses, its own or its
    /// tunnel's, is failed.
    pub fn lsp_is_intact(&self, id: LspId) -> bool {
        self.lsp(id)
            .is_some_and(|l| !self.links_of(l).any(|k| self.failed_links.contains(&k)))
    }

    /// Fails over `primary` onto its backup: the backup starts steering
    /// traffic (its ingress classification becomes live) and the broken
    /// primary stops. Returns the backup's id, or `None` when no backup
    /// is registered. The caller must re-derive node configurations
    /// afterwards (the head end reprograms).
    pub fn activate_backup(&mut self, primary: LspId) -> Option<LspId> {
        let backup = self.backups.remove(&primary)?;
        self.lsp(backup)?;
        self.standby.remove(&backup);
        if self.lsp(primary).is_some() {
            self.standby.insert(primary);
        }
        #[cfg(debug_assertions)]
        self.oracle.activate(primary, backup);
        Some(backup)
    }

    /// Tears down a broken standby backup, releasing its resources and
    /// leaving its primary unprotected.
    pub fn teardown_standby(&mut self, standby: LspId) -> Result<(), SignalError> {
        self.backups.retain(|_, &mut b| b != standby);
        self.teardown_lsp(standby)
    }

    /// Retires an LSP to standby: its ingress classification is withdrawn
    /// (new packets no longer steer onto it) while its transit state
    /// stays installed so packets already in the pipeline keep their
    /// forwarding entries. Used for make-before-break switchover — the
    /// husk is torn down once the pipeline has drained.
    pub fn retire_lsp(&mut self, id: LspId) -> Result<(), SignalError> {
        self.lsp(id).ok_or(SignalError::UnknownLsp(id))?;
        self.standby.insert(id);
        #[cfg(debug_assertions)]
        self.oracle.set_standby(id, true);
        Ok(())
    }

    /// A signaled LSP.
    pub fn lsp(&self, id: LspId) -> Option<&SignaledLsp> {
        self.lsps.get(slot(id))?.as_ref()
    }

    /// A signaled tunnel.
    pub fn tunnel(&self, id: TunnelId) -> Option<&Tunnel> {
        self.tunnels.get(slot(id))
    }

    /// Ids of all live LSPs, ascending.
    pub fn lsp_ids(&self) -> Vec<LspId> {
        self.lsps.iter().flatten().map(|l| l.id).collect()
    }

    /// Labels currently allocated from the shared global space (net of
    /// releases) — the scarce resource at million-LSP scale.
    pub fn labels_allocated(&self) -> usize {
        self.alloc.allocated_count(GLOBAL_SPACE)
    }

    /// Aggregates the forwarding configuration for one node across every
    /// signaled LSP, tunnel and attachment.
    ///
    /// The order of each list is the insert rank its FIB gives every key,
    /// so it is fixed: LSP entries by ascending LSP id, each LSP's entries
    /// of one kind in the order it generated them; then tunnel entries by
    /// ascending tunnel id; then the attached routes in declaration order.
    /// The per-node store holds the LSP and tunnel entries in exactly
    /// that order (see [`NodeState`]), so this walks the node's own
    /// state twice: once to size each list exactly, once to fill it.
    pub fn config_for(&self, node: NodeId) -> NodeConfig {
        let state = self.topo.index_of(node).map(|i| &self.node_state[i]);
        let (lsps, tunnels) = state.map_or((&[][..], &[][..]), |s| (&s.lsps[..], &s.tunnels[..]));
        // A standby keeps its transit state (levels 2/3 and next hops)
        // installed so failover is head-end-only, but its ingress
        // steering — FEC classification and exact level-1 pairs — stays
        // out until activation.
        let entries = || {
            lsps.iter()
                .filter(|&&(id, entry)| match entry {
                    Entry::Binding { level: 1, .. } | Entry::Fec { .. } => !self.lsp_is_standby(id),
                    _ => true,
                })
                .map(|&(_, entry)| entry)
                .chain(tunnels.iter().copied())
        };
        let attached = || self.attached.iter().filter(|r| r.node == node);
        let mut len = [0; 4];
        for entry in entries() {
            len[entry.kind()] += 1;
        }
        let mut cfg = NodeConfig {
            bindings: Vec::with_capacity(len[0]),
            next_hops: Vec::with_capacity(len[1]),
            fecs: Vec::with_capacity(len[2]),
            ip_routes: Vec::with_capacity(len[3] + attached().count()),
            ..NodeConfig::default()
        };
        for entry in entries() {
            entry.add_to(node, &mut cfg);
        }
        cfg.ip_routes.extend(attached());
        #[cfg(debug_assertions)]
        assert_eq!(
            cfg,
            self.oracle.config_for(node, &self.attached),
            "the per-node store diverged from the per-LSP oracle at node {node}"
        );
        cfg
    }

    // ---- establishment ---------------------------------------------------

    /// Establishes an LSP over physical links.
    pub fn establish_lsp(&mut self, request: LspRequest) -> Result<LspId, SignalError> {
        self.check_endpoints(&request)?;
        let path = self.resolve_route(&request)?;
        let links = self.reserve_path(&path, request.bandwidth_bps)?;
        match self.allocate_hop_labels(&request, &path, None) {
            Ok(labels) => Ok(self.install_lsp(request, path, links, labels, None)),
            Err(e) => {
                self.release_links(&links, request.bandwidth_bps);
                Err(e)
            }
        }
    }

    /// Establishes an LSP whose route traverses `tunnel` between the
    /// tunnel's head and tail.
    pub fn establish_lsp_via_tunnel(
        &mut self,
        request: LspRequest,
        tunnel: TunnelId,
    ) -> Result<LspId, SignalError> {
        self.check_endpoints(&request)?;
        let t = self
            .tunnel(tunnel)
            .ok_or(SignalError::UnknownTunnel(tunnel))?;
        let hop = TunnelHop {
            id: tunnel,
            head: t.head,
            tail: t.tail,
            penultimate: t.path[t.path.len() - 2],
            entry_label: t.entry_label,
        };

        // Route the two physical segments into one logical path; the
        // tunnel is its one hop from head to tail.
        let bw = request.bandwidth_bps;
        let mut path = Vec::new();
        let none = HashSet::new();
        self.cspf_into(request.ingress, hop.head, bw, &none, &mut path)?;
        let head_at = path.len();
        self.cspf_into(hop.tail, request.egress, bw, &none, &mut path)?;

        // The physical links of both segments, in path order.
        let topo = &self.topo;
        let links: Vec<LinkId> = path[..head_at]
            .windows(2)
            .chain(path[head_at..].windows(2))
            .map(|w| {
                topo.link_between(w[0], w[1])
                    .expect("routed segments are connected")
            })
            .collect();
        self.reserve_links(&links, bw)?;
        match self.allocate_hop_labels(&request, &path, Some(hop)) {
            Ok(labels) => Ok(self.install_lsp(request, path, links, labels, Some(hop))),
            Err(e) => {
                self.release_links(&links, request.bandwidth_bps);
                Err(e)
            }
        }
    }

    /// Establishes a hierarchical tunnel between two core nodes. The
    /// interior runs PHP so the tail receives inner labels directly.
    pub fn establish_tunnel(
        &mut self,
        head: NodeId,
        tail: NodeId,
        bandwidth_bps: u64,
        explicit_route: Option<Vec<NodeId>>,
    ) -> Result<TunnelId, SignalError> {
        let path = match explicit_route {
            Some(p) => {
                if p.first() != Some(&head) || p.last() != Some(&tail) {
                    return Err(SignalError::BadExplicitRoute);
                }
                if self.topo.path_links(&p).is_none() {
                    return Err(SignalError::BadExplicitRoute);
                }
                p
            }
            None => self.cspf(head, tail, bandwidth_bps)?,
        };
        if path.len() < 3 {
            // Push at head, PHP-pop at the penultimate: needs ≥1 interior.
            return Err(SignalError::TunnelTooShort);
        }
        let links = self.reserve_path(&path, bandwidth_bps)?;

        // Downstream allocation along the interior.
        let mut hop_labels = Vec::with_capacity(path.len() - 1);
        for _ in 1..path.len() {
            match self.alloc.allocate(GLOBAL_SPACE) {
                Ok(l) => hop_labels.push(l),
                Err(_) => {
                    self.release_links(&links, bandwidth_bps);
                    return Err(SignalError::LabelSpaceExhausted);
                }
            }
        }

        let id = self.tunnels.len() as TunnelId + 1;
        #[cfg(debug_assertions)]
        let mut written = Vec::new();
        let topo = &self.topo;
        let store = Arc::make_mut(&mut self.node_state);
        let mut put = |node: NodeId, entry: Entry| {
            #[cfg(debug_assertions)]
            written.push((node, entry));
            store[topo.index_of(node).expect("paths hold known nodes")]
                .tunnels
                .push(entry);
        };
        // Head: next hop for the entry label (the push binding itself is
        // installed per inner LSP).
        put(
            head,
            Entry::NextHop {
                label: Some(hop_labels[0]),
                next: Hop::Node(path[1]),
            },
        );
        // Interior nodes: depth-2 arrivals -> level 3. The last interior
        // node pops (PHP); the rest swap.
        for i in 1..path.len() - 1 {
            let node = path[i];
            let in_label = hop_labels[i - 1];
            let penultimate = i == path.len() - 2;
            if penultimate {
                put(
                    node,
                    Entry::label_pair(3, in_label, Label::IPV4_EXPLICIT_NULL, LabelOp::Pop),
                );
                // After the pop the inner label leads; the inner LSPs
                // install no next hop here, so route the *inner* label via
                // the tail. We cannot know inner labels in advance, so the
                // penultimate forwards by its per-inner-label next-hop
                // entries installed at inner-LSP setup time (see
                // lsp_entries' tunnel handling).
            } else {
                put(
                    node,
                    Entry::label_pair(3, in_label, hop_labels[i], LabelOp::Swap),
                );
                put(
                    node,
                    Entry::NextHop {
                        label: Some(hop_labels[i]),
                        next: Hop::Node(path[i + 1]),
                    },
                );
            }
        }
        #[cfg(debug_assertions)]
        self.oracle.install_tunnel(id, &written);
        Arc::make_mut(&mut self.tunnels).push(Tunnel {
            id,
            head,
            tail,
            path,
            entry_label: hop_labels[0],
            hop_labels,
            reserved_links: links,
        });
        Ok(id)
    }

    /// Tears an LSP down, releasing its bandwidth and labels. Any
    /// protection relationship it participates in is dissolved.
    pub fn teardown_lsp(&mut self, id: LspId) -> Result<(), SignalError> {
        self.lsp(id).ok_or(SignalError::UnknownLsp(id))?;
        let mut lsp = Arc::make_mut(&mut self.lsps)[slot(id)]
            .take()
            .expect("checked above");
        self.backups.remove(&id);
        self.backups.retain(|_, &mut b| b != id);
        self.standby.remove(&id);
        self.release_links(&lsp.reserved_links, lsp.request.bandwidth_bps);
        // The LSP wrote entries at the nodes of its path and, riding a
        // tunnel, at the tunnel's penultimate node (see `lsp_entries`).
        let penultimate = lsp.tunnel.map(|t| {
            let path = &self.tunnels[slot(t)].path;
            path[path.len() - 2]
        });
        let topo = &self.topo;
        let store = Arc::make_mut(&mut self.node_state);
        for &node in lsp.path.iter().chain(&penultimate) {
            let i = topo.index_of(node).expect("paths hold known nodes");
            store[i].lsps.retain(|&(l, _)| l != id);
        }
        #[cfg(debug_assertions)]
        self.oracle.teardown_lsp(id);
        // Across a tunnel the inner label repeats on the next hop (see
        // `allocate_hop_labels`); it was allocated once.
        lsp.hop_labels.dedup();
        for l in lsp.hop_labels {
            self.alloc.release(GLOBAL_SPACE, l);
        }
        Ok(())
    }

    // ---- internals ---------------------------------------------------------

    /// Both ends of an LSP are LERs, and distinct ones.
    fn check_endpoints(&self, request: &LspRequest) -> Result<(), SignalError> {
        self.check_ler(request.ingress)?;
        self.check_ler(request.egress)?;
        if request.ingress == request.egress {
            return Err(SignalError::IngressIsEgress(request.ingress));
        }
        Ok(())
    }

    fn check_ler(&self, node: NodeId) -> Result<(), SignalError> {
        match self.topo.node(node) {
            Some(spec) if spec.role == RouterRole::Ler => Ok(()),
            Some(_) => Err(SignalError::NotALer(node)),
            None => Err(SignalError::Path(PathError::UnknownNode(node))),
        }
    }

    fn cspf(&mut self, from: NodeId, to: NodeId, bw: u64) -> Result<Vec<NodeId>, SignalError> {
        self.cspf_excluding(from, to, bw, &HashSet::new())
    }

    fn cspf_excluding(
        &mut self,
        from: NodeId,
        to: NodeId,
        bw: u64,
        avoid: &HashSet<LinkId>,
    ) -> Result<Vec<NodeId>, SignalError> {
        let mut path = Vec::new();
        self.cspf_into(from, to, bw, avoid, &mut path)?;
        Ok(path)
    }

    /// Appends the shortest path `from` → `to` that offers `bw` and
    /// avoids the failed links and `avoid` to `path`; on an error `path`
    /// is left as it was.
    fn cspf_into(
        &mut self,
        from: NodeId,
        to: NodeId,
        bw: u64,
        avoid: &HashSet<LinkId>,
        path: &mut Vec<NodeId>,
    ) -> Result<(), SignalError> {
        // Delta-CSPF fast path: an unconstrained request (no bandwidth
        // floor, no extra exclusions) sees exactly "shortest path over
        // non-failed links" — answered from the head end's cached tree,
        // which fail_link/restore_link repair incrementally. The cache
        // reproduces shortest_path byte-for-byte (see crate::spt), so
        // this is a pure strength reduction: O(path) per signaled LSP
        // instead of O(graph).
        if self.spt_cacheable && bw == 0 && avoid.is_empty() {
            let Some(head) = self.topo.index_of(from) else {
                return Err(SignalError::Path(PathError::UnknownNode(from)));
            };
            if self.topo.node(to).is_none() {
                return Err(SignalError::Path(PathError::UnknownNode(to)));
            }
            // A hit only reads the cache; a miss builds the tree and
            // writes it (copying the cache first if it is shared).
            let found = match &self.spt_cache[head] {
                Some(tree) => tree.path_into(&self.topo, to, path),
                None => {
                    let failed = &self.failed_links;
                    let tree = SptTree::build(&self.topo, from, &|l| !failed.contains(&l));
                    let found = tree.path_into(&self.topo, to, path);
                    Arc::make_mut(&mut self.spt_cache)[head] = Some(tree);
                    found
                }
            };
            return found
                .then_some(())
                .ok_or(SignalError::Path(PathError::NoPath));
        }
        // Failed links are excluded outright — a zero-bandwidth
        // (best-effort) request must still avoid them.
        let mut exclude_links = self.failed_links.clone();
        exclude_links.extend(avoid.iter().copied());
        let constraint = Constraint {
            min_bandwidth_bps: bw,
            exclude_links,
            ..Default::default()
        };
        let found = shortest_path(&self.topo, from, to, &constraint, &|l| {
            self.available_bandwidth(l)
        })
        .map_err(SignalError::Path)?;
        path.extend_from_slice(&found);
        Ok(())
    }

    fn resolve_route(&mut self, request: &LspRequest) -> Result<Vec<NodeId>, SignalError> {
        match &request.explicit_route {
            Some(p) => {
                if p.first() != Some(&request.ingress) || p.last() != Some(&request.egress) {
                    return Err(SignalError::BadExplicitRoute);
                }
                let Some(links) = self.topo.path_links(p) else {
                    return Err(SignalError::BadExplicitRoute);
                };
                if let Some(&dead) = links.iter().find(|l| self.failed_links.contains(l)) {
                    return Err(SignalError::LinkFailed(dead));
                }
                Ok(p.clone())
            }
            None => self.cspf(request.ingress, request.egress, request.bandwidth_bps),
        }
    }

    /// Reserves `bw` on every link of `path`, rolling back on failure.
    fn reserve_path(&mut self, path: &[NodeId], bw: u64) -> Result<Vec<LinkId>, SignalError> {
        let links = self
            .topo
            .path_links(path)
            .expect("routes are validated before reservation");
        self.reserve_links(&links, bw)?;
        Ok(links)
    }

    /// Reserves `bw` on every link of `links` in order; on the first
    /// link short of it, gives back what it took and names that link.
    fn reserve_links(&mut self, links: &[LinkId], bw: u64) -> Result<(), SignalError> {
        for (i, &link) in links.iter().enumerate() {
            if self.available_bandwidth(link) < bw {
                self.release_links(&links[..i], bw);
                return Err(SignalError::InsufficientBandwidth { link });
            }
            self.reserved[link as usize] += bw;
        }
        Ok(())
    }

    fn release_links(&mut self, links: &[LinkId], bw: u64) {
        for &l in links {
            let r = &mut self.reserved[l as usize];
            *r = r.saturating_sub(bw);
        }
    }

    /// Allocates the labels of a (logical) path. `tunnel` marks the node
    /// that is a tunnel head on this path: the label is preserved across
    /// the head–tail hop, so that hop takes no fresh label.
    fn allocate_hop_labels(
        &mut self,
        request: &LspRequest,
        path: &[NodeId],
        tunnel: Option<TunnelHop>,
    ) -> Result<Vec<Label>, SignalError> {
        let hops = path.len() - 1;
        // Under PHP the final hop's label is never used — the packet
        // leaves the penultimate node unlabeled — so it is not allocated.
        // At million-LSP scale this is what keeps a tunneled PHP LSP at
        // one label from the shared 2^20 space.
        let alloc_hops = if request.php && hops >= 2 {
            hops - 1
        } else {
            hops
        };
        let mut hop_labels: Vec<Label> = Vec::with_capacity(alloc_hops);
        for i in 0..alloc_hops {
            let from = path[i];
            // Across a tunnel the hardware push preserves the inner label:
            // hop label (head -> tail) equals the label into the head.
            if let Some(t) = &tunnel {
                if from == t.head && i > 0 {
                    hop_labels.push(hop_labels[i - 1]);
                    continue;
                }
            }
            let l = self
                .alloc
                .allocate(GLOBAL_SPACE)
                .map_err(|_| SignalError::LabelSpaceExhausted)?;
            hop_labels.push(l);
        }
        Ok(hop_labels)
    }

    /// Records a signaled LSP under the next id and appends its
    /// forwarding state to the per-node store.
    fn install_lsp(
        &mut self,
        request: LspRequest,
        path: Vec<NodeId>,
        reserved_links: Vec<LinkId>,
        hop_labels: Vec<Label>,
        tunnel: Option<TunnelHop>,
    ) -> LspId {
        let id = self.lsps.len() as LspId + 1;
        #[cfg(debug_assertions)]
        let mut written = Vec::new();
        let topo = &self.topo;
        let store = Arc::make_mut(&mut self.node_state);
        // An LSP writes its entries a node at a time, so the last node's
        // index answers most lookups.
        let mut last: Option<(NodeId, usize)> = None;
        lsp_entries(&request, &path, &hop_labels, tunnel, |node, entry| {
            let i = match last {
                Some((n, i)) if n == node => i,
                _ => {
                    let i = topo.index_of(node).expect("paths hold known nodes");
                    last = Some((node, i));
                    i
                }
            };
            #[cfg(debug_assertions)]
            written.push((node, entry));
            store[i].lsps.push((id, entry));
        });
        #[cfg(debug_assertions)]
        self.oracle.install_lsp(id, &written);
        Arc::make_mut(&mut self.lsps).push(Some(SignaledLsp {
            id,
            request,
            path,
            hop_labels,
            reserved_links,
            tunnel: tunnel.map(|t| t.id),
        }));
        id
    }
}

/// Generates the forwarding state of an LSP over a (logical) path with
/// its allocated labels, handing each entry and the node it programs to
/// `put`. It writes only at the nodes of `path` and at the tunnel's
/// penultimate node, which teardown relies on. `tunnel` marks the node
/// that is a tunnel head on this path:
/// there the LSP *pushes* into the tunnel, and the tunnel's penultimate
/// node routes the preserved inner label on to the tail.
fn lsp_entries(
    request: &LspRequest,
    path: &[NodeId],
    hop_labels: &[Label],
    tunnel: Option<TunnelHop>,
    mut put: impl FnMut(NodeId, Entry),
) {
    let last = path.len() - 1;

    // Ingress LER.
    put(
        path[0],
        Entry::Fec {
            prefix: request.fec,
            push_label: hop_labels[0],
            cos: request.cos,
        },
    );
    if request.fec.len == 32 {
        // Host FEC: the exact level-1 pair can be preinstalled.
        put(
            path[0],
            Entry::Binding {
                level: 1,
                op: LabelOp::Push,
                key: request.fec.addr,
                new_label: hop_labels[0],
            },
        );
    }
    put(
        path[0],
        Entry::NextHop {
            label: Some(hop_labels[0]),
            next: Hop::Node(path[1]),
        },
    );

    // Transit nodes.
    for i in 1..last {
        let node = path[i];
        let in_label = hop_labels[i - 1];

        if let Some(t) = tunnel.filter(|t| t.head == node) {
            // Push into the tunnel; the inner label is preserved.
            put(
                node,
                Entry::label_pair(2, in_label, t.entry_label, LabelOp::Push),
            );
            // Next hop for the tunnel entry label exists from tunnel
            // establishment. Additionally, the tunnel's penultimate
            // node needs to route this inner label to the tail after
            // its PHP pop.
            put(
                t.penultimate,
                Entry::NextHop {
                    label: Some(in_label),
                    next: Hop::Node(t.tail),
                },
            );
            continue;
        }

        let php_pop = request.php && i == last - 1;
        if php_pop {
            put(
                node,
                Entry::label_pair(2, in_label, Label::IPV4_EXPLICIT_NULL, LabelOp::Pop),
            );
            // After the pop the packet is unlabeled: IP-route it to the
            // egress.
            put(
                node,
                Entry::IpRoute {
                    prefix: request.fec,
                    next: Hop::Node(path[last]),
                },
            );
        } else {
            let out_label = hop_labels[i];
            put(
                node,
                Entry::label_pair(2, in_label, out_label, LabelOp::Swap),
            );
            put(
                node,
                Entry::NextHop {
                    label: Some(out_label),
                    next: Hop::Node(path[i + 1]),
                },
            );
        }
    }

    // Egress LER.
    if !request.php {
        put(
            path[last],
            Entry::label_pair(
                2,
                hop_labels[last - 1],
                Label::IPV4_EXPLICIT_NULL,
                LabelOp::Pop,
            ),
        );
    }
    // The FEC is attached behind the egress: deliver locally once
    // unlabeled.
    put(
        path[last],
        Entry::IpRoute {
            prefix: request.fec,
            next: Hop::Local,
        },
    );
}

/// The per-LSP aggregation the per-node store replaced, kept in debug
/// builds as its oracle: every LSP and tunnel holds its own entries by
/// kind, a per-node index lists the ids with state at each node, and
/// `config_for` filters each listed LSP's entries down to the node —
/// the control plane's layout before the per-node store. The plane
/// feeds it the same entries, teardowns and standby changes it applies
/// to itself, and `ControlPlane::config_for` asserts that both give the
/// same configuration, in the same order. Release builds carry none of
/// it.
#[cfg(debug_assertions)]
mod oracle {
    use super::{Entry, LspId, TunnelId};
    use crate::config::{IpRoute, NodeConfig};
    use crate::topology::NodeId;
    use std::collections::{BTreeSet, HashMap};

    /// One LSP's or tunnel's entries split by kind, as each of them held
    /// its own state before the per-node store.
    fn split(entries: &[(NodeId, Entry)]) -> NodeConfig {
        let mut e = NodeConfig::default();
        for &(node, entry) in entries {
            entry.add_to(node, &mut e);
        }
        e
    }

    /// The nodes an LSP's or tunnel's entries program.
    fn nodes(e: &NodeConfig) -> BTreeSet<NodeId> {
        e.bindings
            .iter()
            .map(|b| b.node)
            .chain(e.next_hops.iter().map(|n| n.node))
            .chain(e.fecs.iter().map(|f| f.node))
            .chain(e.ip_routes.iter().map(|r| r.node))
            .collect()
    }

    #[derive(Debug, Clone, Default)]
    pub(super) struct PerLsp {
        /// LSP id -> its entries and its standby flag.
        lsps: HashMap<LspId, (NodeConfig, bool)>,
        /// Node -> ids of LSPs with state there, ascending.
        lsps_by_node: HashMap<NodeId, Vec<LspId>>,
        tunnels: HashMap<TunnelId, NodeConfig>,
        /// Node -> ids of tunnels with state there, ascending.
        tunnels_by_node: HashMap<NodeId, Vec<TunnelId>>,
    }

    impl PerLsp {
        pub(super) fn install_lsp(&mut self, id: LspId, entries: &[(NodeId, Entry)]) {
            let e = split(entries);
            for node in nodes(&e) {
                self.lsps_by_node.entry(node).or_default().push(id);
            }
            self.lsps.insert(id, (e, false));
        }

        pub(super) fn install_tunnel(&mut self, id: TunnelId, entries: &[(NodeId, Entry)]) {
            let e = split(entries);
            for node in nodes(&e) {
                self.tunnels_by_node.entry(node).or_default().push(id);
            }
            self.tunnels.insert(id, e);
        }

        pub(super) fn teardown_lsp(&mut self, id: LspId) {
            let (e, _) = self.lsps.remove(&id).expect("oracle knows every LSP");
            for node in nodes(&e) {
                if let Some(ids) = self.lsps_by_node.get_mut(&node) {
                    ids.retain(|&l| l != id);
                }
            }
        }

        /// The live LSPs, ascending by id, with their standby flags and
        /// entries.
        #[cfg(test)]
        pub(super) fn live(&self) -> Vec<(LspId, bool, &NodeConfig)> {
            let mut live: Vec<_> = self.lsps.iter().map(|(&id, (e, s))| (id, *s, e)).collect();
            live.sort_unstable_by_key(|&(id, ..)| id);
            live
        }

        pub(super) fn set_standby(&mut self, id: LspId, standby: bool) {
            self.lsps.get_mut(&id).expect("oracle knows every LSP").1 = standby;
        }

        /// Fails `primary` over onto `backup`, as the per-LSP flags did.
        pub(super) fn activate(&mut self, primary: LspId, backup: LspId) {
            self.set_standby(backup, false);
            if let Some((_, standby)) = self.lsps.get_mut(&primary) {
                *standby = true;
            }
        }

        pub(super) fn config_for(&self, node: NodeId, attached: &[IpRoute]) -> NodeConfig {
            let mut cfg = NodeConfig::default();
            for id in self.lsps_by_node.get(&node).into_iter().flatten() {
                let (lsp, standby) = &self.lsps[id];
                cfg.bindings.extend(
                    lsp.bindings
                        .iter()
                        .filter(|b| b.node == node && !(*standby && b.level == 1)),
                );
                cfg.next_hops
                    .extend(lsp.next_hops.iter().filter(|n| n.node == node));
                if !standby {
                    cfg.fecs.extend(lsp.fecs.iter().filter(|f| f.node == node));
                }
                cfg.ip_routes
                    .extend(lsp.ip_routes.iter().filter(|r| r.node == node));
            }
            for id in self.tunnels_by_node.get(&node).into_iter().flatten() {
                let t = &self.tunnels[id];
                cfg.bindings
                    .extend(t.bindings.iter().filter(|b| b.node == node));
                cfg.next_hops
                    .extend(t.next_hops.iter().filter(|n| n.node == node));
            }
            cfg.ip_routes
                .extend(attached.iter().filter(|r| r.node == node));
            cfg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn prefix(s: &str, len: u8) -> Prefix {
        Prefix::new(mpls_packet::ipv4::parse_addr(s).unwrap(), len)
    }

    fn plane() -> ControlPlane {
        ControlPlane::new(Topology::figure1_example())
    }

    #[test]
    fn basic_lsp_generates_push_swap_pop() {
        let mut cp = plane();
        let id = cp
            .establish_lsp(LspRequest::best_effort(0, 1, prefix("192.168.1.0", 24)))
            .unwrap();
        let lsp = cp.lsp(id).unwrap().clone();
        assert_eq!(lsp.path, vec![0, 2, 3, 1]);
        assert_eq!(lsp.hop_labels.len(), 3);

        let ingress = cp.config_for(0);
        assert_eq!(ingress.fecs.len(), 1);
        assert_eq!(ingress.fecs[0].push_label, lsp.hop_labels[0]);
        assert_eq!(
            ingress.next_hop_for(Some(lsp.hop_labels[0])),
            Some(Hop::Node(2))
        );

        let transit = cp.config_for(2);
        assert_eq!(transit.bindings.len(), 1);
        let b = transit.bindings[0];
        assert_eq!(b.level, 2);
        assert_eq!(b.key, lsp.hop_labels[0].value() as u64);
        assert_eq!(b.new_label, lsp.hop_labels[1]);
        assert_eq!(b.op, LabelOp::Swap);

        let egress = cp.config_for(1);
        assert_eq!(egress.bindings.len(), 1);
        assert_eq!(egress.bindings[0].op, LabelOp::Pop);
        assert_eq!(egress.ip_route_for(0xc0a80105), Some(Hop::Local));
    }

    #[test]
    fn host_fec_preinstalls_level1_binding() {
        let mut cp = plane();
        cp.establish_lsp(LspRequest::best_effort(0, 1, prefix("192.168.1.7", 32)))
            .unwrap();
        let ingress = cp.config_for(0);
        assert_eq!(ingress.bindings.len(), 1);
        assert_eq!(ingress.bindings[0].level, 1);
        assert_eq!(ingress.bindings[0].key, 0xc0a80107);
        assert_eq!(ingress.bindings[0].op, LabelOp::Push);
    }

    #[test]
    fn explicit_route_is_honored_and_validated() {
        let mut cp = plane();
        let mut req = LspRequest::best_effort(0, 1, prefix("10.0.0.0", 8));
        req.explicit_route = Some(vec![0, 4, 5, 1]);
        let id = cp.establish_lsp(req).unwrap();
        assert_eq!(cp.lsp(id).unwrap().path, vec![0, 4, 5, 1]);

        let mut bad = LspRequest::best_effort(0, 1, prefix("10.0.0.0", 8));
        bad.explicit_route = Some(vec![0, 3, 1]); // 0-3 not adjacent
        assert_eq!(cp.establish_lsp(bad), Err(SignalError::BadExplicitRoute));
    }

    #[test]
    fn admission_control_rejects_oversubscription() {
        let mut cp = plane();
        let mut req = LspRequest::best_effort(0, 1, prefix("10.0.0.0", 8));
        req.bandwidth_bps = 600_000_000;
        cp.establish_lsp(req.clone()).unwrap();
        // Second 600 Mb/s LSP cannot fit the 1 Gb/s north path; CSPF tries
        // the south path, whose links only carry 100 Mb/s.
        assert!(matches!(
            cp.establish_lsp(req.clone()),
            Err(SignalError::Path(PathError::NoPath))
        ));
        // With a pinned route the error is the saturated link.
        req.explicit_route = Some(vec![0, 2, 3, 1]);
        assert!(matches!(
            cp.establish_lsp(req),
            Err(SignalError::InsufficientBandwidth { .. })
        ));
    }

    #[test]
    fn teardown_releases_bandwidth() {
        let mut cp = plane();
        let link = cp.topology().link_between(0, 2).unwrap();
        let before = cp.available_bandwidth(link);
        let mut req = LspRequest::best_effort(0, 1, prefix("10.0.0.0", 8));
        req.bandwidth_bps = 400_000_000;
        let id = cp.establish_lsp(req).unwrap();
        assert_eq!(cp.available_bandwidth(link), before - 400_000_000);
        cp.teardown_lsp(id).unwrap();
        assert_eq!(cp.available_bandwidth(link), before);
        assert_eq!(cp.teardown_lsp(id), Err(SignalError::UnknownLsp(id)));
    }

    #[test]
    fn lsp_endpoints_must_be_lers() {
        let mut cp = plane();
        assert_eq!(
            cp.establish_lsp(LspRequest::best_effort(2, 1, prefix("10.0.0.0", 8))),
            Err(SignalError::NotALer(2))
        );
    }

    /// An LSP from a node to itself, by CSPF, by explicit route or via a
    /// tunnel, is refused by name before anything is allocated.
    #[test]
    fn lsp_from_a_node_to_itself_is_refused() {
        let mut cp = plane();
        let tid = cp.establish_tunnel(2, 1, 0, Some(vec![2, 3, 1])).unwrap();
        let before = (cp.labels_allocated(), cp.config_for(0));
        let mut req = LspRequest::best_effort(0, 0, prefix("10.0.0.0", 8));
        let refused = Err(SignalError::IngressIsEgress(0));
        assert_eq!(cp.establish_lsp(req.clone()), refused);
        assert_eq!(cp.establish_lsp_via_tunnel(req.clone(), tid), refused);
        req.explicit_route = Some(vec![0]);
        assert_eq!(cp.establish_lsp(req), refused);
        assert_eq!((cp.labels_allocated(), cp.config_for(0)), before);
        assert!(cp.lsp_ids().is_empty());
    }

    #[test]
    fn php_moves_pop_to_penultimate() {
        let mut cp = plane();
        let mut req = LspRequest::best_effort(0, 1, prefix("192.168.1.0", 24));
        req.php = true;
        let id = cp.establish_lsp(req).unwrap();
        let lsp = cp.lsp(id).unwrap().clone();
        // Penultimate LSR (node 3) pops and IP-routes to the egress.
        let penult = cp.config_for(3);
        assert_eq!(penult.bindings[0].op, LabelOp::Pop);
        assert_eq!(penult.ip_route_for(0xc0a80101), Some(Hop::Node(1)));
        // Egress has no binding for this LSP, only the local route.
        let egress = cp.config_for(1);
        assert!(egress.bindings.is_empty());
        assert_eq!(egress.ip_route_for(0xc0a80101), Some(Hop::Local));
        let _ = lsp;
    }

    #[test]
    fn tunnel_generates_level3_interior_with_php() {
        let mut cp = plane();
        let tid = cp.establish_tunnel(2, 1, 0, Some(vec![2, 3, 1])).unwrap();
        let t = cp.tunnel(tid).unwrap().clone();
        assert_eq!(t.head, 2);
        assert_eq!(t.tail, 1);
        // Single interior node (3) is penultimate: level-3 pop.
        let interior = cp.config_for(3);
        assert_eq!(interior.bindings.len(), 1);
        assert_eq!(interior.bindings[0].level, 3);
        assert_eq!(interior.bindings[0].op, LabelOp::Pop);
        // Head routes the entry label toward the interior.
        let head = cp.config_for(2);
        assert_eq!(head.next_hop_for(Some(t.entry_label)), Some(Hop::Node(3)));
    }

    #[test]
    fn tunnel_too_short_is_rejected() {
        let mut cp = plane();
        assert_eq!(
            cp.establish_tunnel(2, 3, 0, Some(vec![2, 3])),
            Err(SignalError::TunnelTooShort)
        );
    }

    #[test]
    fn lsp_via_tunnel_preserves_inner_label() {
        let mut cp = plane();
        // Tunnel across the north core.
        let tid = cp.establish_tunnel(2, 1, 0, Some(vec![2, 3, 1])).unwrap();
        // This topology's tail is the egress LER itself; an LSP 0->1 via
        // the tunnel: ingress 0, head 2, tail=egress 1.
        let req = LspRequest::best_effort(0, 1, prefix("192.168.9.0", 24));
        let id = cp.establish_lsp_via_tunnel(req, tid).unwrap();
        let lsp = cp.lsp(id).unwrap().clone();
        // Logical path collapses the tunnel to head–tail adjacency.
        assert_eq!(lsp.path, vec![0, 2, 1]);
        // The label into the head equals the label out of the tunnel.
        assert_eq!(lsp.hop_labels[0], lsp.hop_labels[1]);
        // Head pushes the tunnel entry label at level 2.
        let head = cp.config_for(2);
        let push = head
            .bindings
            .iter()
            .find(|b| b.op == LabelOp::Push)
            .expect("push binding at head");
        assert_eq!(push.level, 2);
        assert_eq!(push.key, lsp.hop_labels[0].value() as u64);
        assert_eq!(push.new_label, cp.tunnel(tid).unwrap().entry_label);
        // The tunnel's penultimate (3) routes the inner label to the tail.
        let penult = cp.config_for(3);
        assert_eq!(
            penult.next_hop_for(Some(lsp.hop_labels[0])),
            Some(Hop::Node(1))
        );
        // Egress (the tail) pops the inner label.
        let egress = cp.config_for(1);
        assert!(egress
            .bindings
            .iter()
            .any(|b| b.op == LabelOp::Pop && b.key == lsp.hop_labels[1].value() as u64));
    }

    /// Across a tunnel the inner label is preserved, so a tunneled LSP
    /// holds one label on two hops; its teardown frees that label once,
    /// and the next LSP gets distinct labels.
    #[test]
    fn tunneled_teardown_releases_each_label_once() {
        let mut cp = plane();
        let tid = cp.establish_tunnel(2, 1, 0, Some(vec![2, 3, 1])).unwrap();
        let id = cp
            .establish_lsp_via_tunnel(
                LspRequest::best_effort(0, 1, prefix("192.168.9.0", 24)),
                tid,
            )
            .unwrap();
        assert_eq!(cp.labels_allocated(), 3);
        cp.teardown_lsp(id).unwrap();
        assert_eq!(cp.labels_allocated(), 2, "the tunnel still holds two");
        let next = cp
            .establish_lsp(LspRequest::best_effort(0, 1, prefix("192.168.1.0", 24)))
            .unwrap();
        assert_eq!(cp.lsp(next).unwrap().path, vec![0, 2, 3, 1]);
        let mut held: Vec<Label> = cp.lsp(next).unwrap().hop_labels.clone();
        held.extend(&cp.tunnel(tid).unwrap().hop_labels);
        let distinct: HashSet<Label> = held.iter().copied().collect();
        assert_eq!(distinct.len(), held.len(), "a label on two hops: {held:?}");
        assert_eq!(cp.labels_allocated(), 5);
    }

    /// A tunneled LSP writes one entry off its own path: the next hop
    /// for its inner label at the tunnel's penultimate node. Teardown
    /// removes it there too, and leaves the tunnel's own entries.
    #[test]
    fn tunneled_teardown_clears_the_penultimate_next_hop() {
        let mut cp = ControlPlane::new(Topology::grid(3, 1_000_000_000, 10_000));
        // Corner LSRs 0 and 8 anchor a tunnel whose penultimate node is
        // off every LSP path: 0-1-2-5-8.
        let tid = cp
            .establish_tunnel(0, 8, 0, Some(vec![0, 1, 2, 5, 8]))
            .unwrap();
        let bare = cp.config_for(5);
        // LER 9 hangs off corner 0 and LER 11 off corner 8.
        let id = cp
            .establish_lsp_via_tunnel(LspRequest::best_effort(9, 11, prefix("10.9.0.0", 16)), tid)
            .unwrap();
        let lsp = cp.lsp(id).unwrap().clone();
        assert_eq!(lsp.path, vec![9, 0, 8, 11]);
        let inner = lsp.hop_labels[0];
        assert_eq!(
            cp.config_for(5).next_hop_for(Some(inner)),
            Some(Hop::Node(8))
        );
        cp.teardown_lsp(id).unwrap();
        assert_eq!(cp.config_for(5), bare, "only the tunnel's entries stay");
        assert_eq!(cp.config_for(5).next_hop_for(Some(inner)), None);
    }

    /// A cut inside a tunnel breaks the LSPs riding it, though they
    /// reserve only their access segments: `fail_link` reports them, and
    /// they are not intact until the link returns.
    #[test]
    fn a_cut_inside_a_tunnel_reports_the_lsps_riding_it() {
        let mut cp = plane();
        let tid = cp.establish_tunnel(2, 1, 0, Some(vec![2, 3, 1])).unwrap();
        let req = |net| LspRequest::best_effort(0, 1, prefix(net, 24));
        let direct = cp.establish_lsp(req("192.168.1.0")).unwrap();
        let riding = cp
            .establish_lsp_via_tunnel(req("192.168.9.0"), tid)
            .unwrap();
        let interior = cp.topology().link_between(2, 3).unwrap();
        assert!(!cp.lsp(riding).unwrap().reserved_links.contains(&interior));
        assert_eq!(cp.fail_link(interior), vec![direct, riding]);
        assert!(!cp.lsp_is_intact(riding));
        // Re-signaling moves it onto a physical path around the cut.
        let moved = cp.reroute_lsp(riding).unwrap();
        assert_eq!(cp.lsp(moved).unwrap().path, vec![0, 4, 5, 1]);
        assert_eq!(cp.fail_link(interior), vec![direct]);
        cp.restore_link(interior);
        assert!(cp.lsp_is_intact(direct));
    }

    #[test]
    fn link_failure_reports_affected_lsps_and_reroute_avoids_it() {
        let mut cp = plane();
        let id = cp
            .establish_lsp(LspRequest::best_effort(0, 1, prefix("192.168.1.0", 24)))
            .unwrap();
        assert_eq!(cp.lsp(id).unwrap().path, vec![0, 2, 3, 1]);

        let north_link = cp.topology().link_between(2, 3).unwrap();
        let affected = cp.fail_link(north_link);
        assert_eq!(affected, vec![id]);
        assert!(cp.link_is_failed(north_link));
        assert_eq!(cp.available_bandwidth(north_link), 0);

        let new_id = cp.reroute_lsp(id).unwrap();
        assert_ne!(new_id, id);
        assert!(cp.lsp(id).is_none(), "old LSP torn down");
        assert_eq!(cp.lsp(new_id).unwrap().path, vec![0, 4, 5, 1]);

        // Restoration: the link comes back and new LSPs may use it again.
        cp.restore_link(north_link);
        assert!(cp.available_bandwidth(north_link) > 0);
        let back = cp
            .establish_lsp(LspRequest::best_effort(0, 1, prefix("192.168.7.0", 24)))
            .unwrap();
        assert_eq!(cp.lsp(back).unwrap().path, vec![0, 2, 3, 1]);
    }

    #[test]
    fn failure_of_unused_link_affects_nothing() {
        let mut cp = plane();
        let id = cp
            .establish_lsp(LspRequest::best_effort(0, 1, prefix("192.168.1.0", 24)))
            .unwrap();
        let south_link = cp.topology().link_between(4, 5).unwrap();
        assert!(cp.fail_link(south_link).is_empty());
        assert!(cp.lsp(id).is_some());
    }

    #[test]
    fn reroute_fails_when_disconnected() {
        let mut cp = plane();
        let id = cp
            .establish_lsp(LspRequest::best_effort(0, 1, prefix("192.168.1.0", 24)))
            .unwrap();
        // Sever both exits from node 0.
        cp.fail_link(cp.topology().link_between(0, 2).unwrap());
        cp.fail_link(cp.topology().link_between(0, 4).unwrap());
        assert!(matches!(
            cp.reroute_lsp(id),
            Err(SignalError::Path(PathError::NoPath))
        ));
        // The LSP is gone (teardown happened) — consistent with a head end
        // that withdrew state and failed to re-signal.
        assert!(cp.lsp(id).is_none());
    }

    #[test]
    fn protection_presignals_disjoint_standby() {
        let mut cp = plane();
        let fec = prefix("192.168.1.0", 24);
        let primary = cp
            .establish_lsp(LspRequest::best_effort(0, 1, fec))
            .unwrap();
        let backup = cp.protect_lsp(primary).unwrap();
        assert_eq!(cp.backup_of(primary), Some(backup));
        assert!(cp.lsp_is_standby(backup));

        // Link-disjoint: the only alternative in figure 1 is the south.
        assert_eq!(cp.lsp(backup).unwrap().path, vec![0, 4, 5, 1]);
        let plinks = cp.lsp(primary).unwrap().reserved_links.clone();
        let blinks = cp.lsp(backup).unwrap().reserved_links.clone();
        assert!(plinks.iter().all(|l| !blinks.contains(l)));

        // Standby: ingress classifies onto the primary only, yet the
        // backup's transit state is already installed at node 4.
        let ingress = cp.config_for(0);
        assert_eq!(ingress.fecs.len(), 1);
        assert_eq!(
            ingress.fecs[0].push_label,
            cp.lsp(primary).unwrap().hop_labels[0]
        );
        let south_transit = cp.config_for(4);
        assert_eq!(south_transit.bindings.len(), 1, "backup swap pre-installed");
    }

    #[test]
    fn activation_switches_ingress_steering() {
        let mut cp = plane();
        let fec = prefix("192.168.1.0", 24);
        let primary = cp
            .establish_lsp(LspRequest::best_effort(0, 1, fec))
            .unwrap();
        let backup = cp.protect_lsp(primary).unwrap();

        let link = cp.topology().link_between(2, 3).unwrap();
        let affected = cp.fail_link(link);
        assert_eq!(affected, vec![primary]);
        assert!(cp.lsp_is_intact(backup), "disjoint backup survives");

        assert_eq!(cp.activate_backup(primary), Some(backup));
        let ingress = cp.config_for(0);
        assert_eq!(ingress.fecs.len(), 1);
        assert_eq!(
            ingress.fecs[0].push_label,
            cp.lsp(backup).unwrap().hop_labels[0],
            "ingress now steers onto the backup"
        );
        // Second activation is a no-op.
        assert_eq!(cp.activate_backup(primary), None);
    }

    #[test]
    fn broken_standby_tears_down_cleanly() {
        let mut cp = plane();
        let primary = cp
            .establish_lsp(LspRequest::best_effort(0, 1, prefix("192.168.1.0", 24)))
            .unwrap();
        let backup = cp.protect_lsp(primary).unwrap();
        // The south link under the backup dies.
        let south = cp.topology().link_between(4, 5).unwrap();
        let affected = cp.fail_link(south);
        assert_eq!(affected, vec![backup]);
        assert!(!cp.lsp_is_intact(backup));
        cp.teardown_standby(backup).unwrap();
        assert_eq!(cp.backup_of(primary), None);
        assert!(cp.lsp(backup).is_none());
    }

    #[test]
    fn protection_needs_a_disjoint_path() {
        // Sever the south first: no disjoint alternative remains.
        let mut cp = plane();
        let primary = cp
            .establish_lsp(LspRequest::best_effort(0, 1, prefix("192.168.1.0", 24)))
            .unwrap();
        cp.fail_link(cp.topology().link_between(4, 5).unwrap());
        assert!(matches!(
            cp.protect_lsp(primary),
            Err(SignalError::Path(PathError::NoPath))
        ));
    }

    #[test]
    fn labels_are_globally_unique() {
        let mut cp = plane();
        let a = cp
            .establish_lsp(LspRequest::best_effort(0, 1, prefix("10.1.0.0", 16)))
            .unwrap();
        let b = cp
            .establish_lsp(LspRequest::best_effort(1, 0, prefix("10.2.0.0", 16)))
            .unwrap();
        let mut seen = std::collections::HashSet::new();
        for id in [a, b] {
            for l in &cp.lsp(id).unwrap().hop_labels {
                assert!(seen.insert(l.value()), "label {l} reused");
            }
        }
    }

    #[test]
    fn clone_shares_every_large_table_until_written() {
        let mut cp = plane();
        let tid = cp.establish_tunnel(2, 1, 0, Some(vec![2, 3, 1])).unwrap();
        cp.establish_lsp_via_tunnel(
            LspRequest::best_effort(0, 1, prefix("192.168.9.0", 24)),
            tid,
        )
        .unwrap();
        let id = cp
            .establish_lsp(LspRequest::best_effort(0, 1, prefix("192.168.1.0", 24)))
            .unwrap();
        let shared = |a: &ControlPlane, b: &ControlPlane| {
            [
                Arc::ptr_eq(&a.topo, &b.topo),
                Arc::ptr_eq(&a.lsps, &b.lsps),
                Arc::ptr_eq(&a.tunnels, &b.tunnels),
                Arc::ptr_eq(&a.spt_cache, &b.spt_cache),
                Arc::ptr_eq(&a.node_state, &b.node_state),
            ]
        };
        let mut twin = cp.clone();
        assert_eq!(shared(&cp, &twin), [true; 5], "a clone copies no table");

        // A link failure repairs the trees: only the cache is copied.
        let north = cp.topology().link_between(2, 3).unwrap();
        twin.fail_link(north);
        assert_eq!(shared(&cp, &twin), [true, true, true, false, true]);
        // Re-signaling writes the LSPs and the per-node store.
        twin.reroute_lsp(id).unwrap();
        assert_eq!(shared(&cp, &twin), [true, false, true, false, false]);
        assert!(!cp.link_is_failed(north));
        assert_eq!(cp.lsp(id).unwrap().path, vec![0, 2, 3, 1]);
        assert!(twin.lsp(id).is_none());

        // A cache hit only reads the tree cache: signaling from a head
        // end it already holds leaves the cache shared.
        let mut reader = cp.clone();
        reader
            .establish_lsp(LspRequest::best_effort(0, 1, prefix("10.9.0.0", 16)))
            .unwrap();
        assert_eq!(shared(&cp, &reader), [true, false, true, true, false]);
    }

    /// The per-node store against its per-LSP oracle over random
    /// signaling histories on small grids and fat trees. After every
    /// call every node's `config_for` equals the oracle's, in the same
    /// order — the order is each key's insert rank in the FIB — and the
    /// dense tables keep their contracts: live ids ascending, standby
    /// flags, link reservations, each held label allocated once, and a
    /// link cut reporting every LSP it breaks. Calls flagged for a clone
    /// run on a copy of the plane, and the plane it was cloned from must
    /// come out unchanged (copy-on-write).
    #[cfg(debug_assertions)]
    mod store_vs_oracle {
        use super::*;
        use crate::cspf::Constraint;
        use crate::topology::LinkSpec;
        use proptest::prelude::*;

        /// One control-plane call: its kind, three numbers that pick its
        /// targets among what exists, request flags, and whether it runs
        /// on a clone.
        type Call = (u8, u64, u64, u64, u8, bool);

        fn pick<T: Copy>(v: &[T], x: u64) -> Option<T> {
            (!v.is_empty()).then(|| v[(x % v.len() as u64) as usize])
        }

        /// Applies `call`; a link cut returns the link and what
        /// `fail_link` reported.
        fn apply(
            cp: &mut ControlPlane,
            (kind, a, b, c, flags, _): Call,
        ) -> Option<(LinkId, Vec<LspId>)> {
            let topo = cp.topology();
            let role = |r| -> Vec<NodeId> {
                topo.nodes()
                    .iter()
                    .filter(|n| n.role == r)
                    .map(|n| n.id)
                    .collect()
            };
            let (lers, lsrs) = (role(RouterRole::Ler), role(RouterRole::Lsr));
            let i = a as usize % lers.len();
            let j = (i + 1 + b as usize % (lers.len() - 1)) % lers.len();
            let link = (c % topo.links().len() as u64) as LinkId;
            let lsp = pick(&cp.lsp_ids(), c);
            let request = LspRequest {
                fec: Prefix::new(
                    0x0a00_0000 | ((c as u32 & 0xffff) << 8) | 5,
                    if flags & 1 == 0 { 24 } else { 32 },
                ),
                bandwidth_bps: if flags & 2 == 0 { 0 } else { 300_000_000 },
                php: flags & 4 != 0,
                ..LspRequest::best_effort(lers[i], lers[j], Prefix::new(0, 0))
            };
            match kind {
                0 | 1 => {
                    let mut request = request;
                    if flags & 8 != 0 {
                        // Pin a route off the shortest one: avoid `link`.
                        let avoid = Constraint {
                            exclude_links: [link].into_iter().collect(),
                            ..Default::default()
                        };
                        request.explicit_route =
                            shortest_path(topo, lers[i], lers[j], &avoid, &|_| u64::MAX).ok();
                    }
                    let _ = cp.establish_lsp(request);
                }
                2 => {
                    let (head, tail) = (pick(&lsrs, a).unwrap(), pick(&lsrs, b).unwrap());
                    let _ = cp.establish_tunnel(head, tail, 0, None);
                }
                3 | 4 => {
                    let tunnels: Vec<TunnelId> = (1..=cp.tunnels.len() as TunnelId).collect();
                    if let Some(t) = pick(&tunnels, b) {
                        let _ = cp.establish_lsp_via_tunnel(request, t);
                    }
                }
                5 => {
                    let _ = lsp.map(|l| cp.teardown_lsp(l));
                }
                6 => {
                    let _ = lsp.map(|l| cp.reroute_lsp(l));
                }
                7 => {
                    let _ = lsp.map(|l| cp.protect_lsp(l));
                }
                8 => {
                    let mut primaries: Vec<LspId> = cp.backups.keys().copied().collect();
                    primaries.sort_unstable();
                    let _ = pick(&primaries, c).map(|p| cp.activate_backup(p));
                }
                9 => {
                    let _ = lsp.map(|l| cp.retire_lsp(l));
                }
                10 if flags & 16 == 0 => return Some((link, cp.fail_link(link))),
                10 => cp.restore_link(link),
                _ => cp.attach_prefix(lers[i], request.fec),
            }
            None
        }

        fn configs(cp: &ControlPlane) -> Vec<NodeConfig> {
            let nodes = cp.topology().nodes();
            nodes.iter().map(|n| cp.config_for(n.id)).collect()
        }

        fn check(cp: &ControlPlane, cut: Option<(LinkId, Vec<LspId>)>) -> TestCaseResult {
            for n in cp.topology().nodes() {
                prop_assert_eq!(
                    cp.config_for(n.id),
                    cp.oracle.config_for(n.id, &cp.attached),
                    "node {}",
                    n.id
                );
            }
            let live = cp.oracle.live();
            let ids: Vec<LspId> = live.iter().map(|&(id, ..)| id).collect();
            prop_assert_eq!(cp.lsp_ids(), ids);
            let mut reserved = vec![0; cp.topology().links().len()];
            let mut held: HashSet<Label> = HashSet::new();
            for &(id, standby, _) in &live {
                prop_assert_eq!(cp.lsp_is_standby(id), standby, "LSP {}", id);
                let lsp = cp.lsp(id).expect("a live LSP");
                for &k in &lsp.reserved_links {
                    reserved[k as usize] += lsp.request.bandwidth_bps;
                }
                held.extend(&lsp.hop_labels);
            }
            // The test's tunnels reserve no bandwidth.
            for (k, spec) in cp.topology().links().iter().enumerate() {
                if !cp.link_is_failed(k as LinkId) {
                    prop_assert_eq!(
                        cp.available_bandwidth(k as LinkId) + reserved[k],
                        spec.bandwidth_bps,
                        "link {}",
                        k
                    );
                }
            }
            for t in cp.tunnels.iter() {
                held.extend(&t.hop_labels);
            }
            prop_assert_eq!(cp.labels_allocated(), held.len());
            if let Some((link, reported)) = cut {
                // The tunnel an LSP rides is the one whose entry label it
                // pushes.
                let rides = |e: &NodeConfig| {
                    e.bindings
                        .iter()
                        .filter(|b| b.op == LabelOp::Push && b.level == 2)
                        .filter_map(|b| cp.tunnels.iter().find(|t| t.entry_label == b.new_label))
                        .any(|t| t.reserved_links.contains(&link))
                };
                let broken: Vec<LspId> = live
                    .iter()
                    .filter(|&&(id, _, e)| {
                        cp.lsp(id).unwrap().reserved_links.contains(&link) || rides(e)
                    })
                    .map(|&(id, ..)| id)
                    .collect();
                prop_assert_eq!(reported, broken, "cut of link {}", link);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn per_node_store_matches_the_per_lsp_oracle(
                fat_tree: bool,
                calls in proptest::collection::vec(
                    (0u8..12, any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>(), any::<bool>()),
                    1..48,
                ),
            ) {
                let topo = if fat_tree {
                    Topology::fat_tree(4, 1, 1_000_000_000, 10_000)
                } else {
                    // Dual-home each corner LER so protection finds
                    // link-disjoint backups.
                    let mut grid = Topology::grid(3, 1_000_000_000, 10_000);
                    for (ler, lsr) in [(9, 1), (10, 5), (11, 7), (12, 3)] {
                        grid.add_link(LinkSpec {
                            a: ler,
                            b: lsr,
                            cost: 1,
                            bandwidth_bps: 1_000_000_000,
                            delay_ns: 10_000,
                        });
                    }
                    grid
                };
                let mut cp = ControlPlane::new(topo);
                for call in calls {
                    if call.5 {
                        let before = (configs(&cp), cp.lsp_ids(), cp.labels_allocated());
                        let mut twin = cp.clone();
                        let cut = apply(&mut twin, call);
                        check(&twin, cut)?;
                        let after = (configs(&cp), cp.lsp_ids(), cp.labels_allocated());
                        prop_assert!(after == before, "call {:?} on a clone reached the original", call);
                        check(&cp, None)?;
                        cp = twin;
                    } else {
                        let cut = apply(&mut cp, call);
                        check(&cp, cut)?;
                    }
                }
            }
        }
    }
}
