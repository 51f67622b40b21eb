//! Wormhole-switching state: virtual channels, credits and worms.
//!
//! Under [`crate::config::Switching::Wormhole`] a message travels as a
//! *worm* of flits that snakes across its whole route at once, holding a
//! virtual channel (VC) on every link between its head and tail. This
//! module owns the bookkeeping: per-link VC tables with per-class waiter
//! FIFOs, and per-worm link cursors tracking how many flits have crossed
//! each route edge. The *protocol* — flit ticks, credit accounting,
//! delivery, fault drains, the express path — lives in the machine's
//! `system/wormhole.rs` module, which drives these structures; everything
//! here is pure state manipulation, so it can be unit-tested without an
//! engine.
//!
//! The express path's bookkeeping lives here too: which worms may still
//! fold their per-channel ticks into one group tick per flit time
//! ([`Worm::express`], [`WormholeState::may_fold`]), the recycled tick-group
//! buffers those events run, and [`ExpressStats`].
//!
//! Deadlock freedom comes from the topology layer: each link exposes
//! `vc_class_count(kind)` escape classes, every hop of a route is assigned
//! a class by `vc_classes` (dateline / phase rules), and the channel
//! dependency graph over `(link, class)` pairs is acyclic (asserted by
//! `parsched_topology::flow`'s test suite). A worm only ever waits for a
//! VC of its hop's class, so the wait graph is a subgraph of that CDG.

use crate::config::MachineConfig;
use crate::net::MsgId;
use crate::wiring::SystemNet;
use parsched_des::SimDuration;
use parsched_topology::vc_class_count;
use std::collections::VecDeque;

/// One route edge of a worm: which link, which escape class, the VC held
/// (once granted) and how many flits have crossed.
#[derive(Debug, Clone)]
pub struct WormLink {
    /// Channel table index of this route edge.
    pub chan: u32,
    /// Virtual-channel escape class `vc_classes` assigned to this hop.
    pub class: u8,
    /// VC index held on the channel (`None` until granted).
    pub vc: Option<u16>,
    /// Flits that have fully crossed this link so far.
    pub sent: u64,
}

/// An in-flight worm: the message's route as link cursors.
///
/// Flit conservation per worm: the head advances a link only after the
/// flit arrived on the previous one (`sent` is non-increasing along the
/// route), and the buffer occupancy of link `i` is `sent[i] - sent[i+1]`,
/// bounded by the credit window.
#[derive(Debug, Clone)]
pub struct Worm {
    /// Flits in the worm (payload + header flit).
    pub total_flits: u64,
    /// Route edges in path order.
    pub links: Vec<WormLink>,
    /// Express mode: while set, the worm's ticks may fold into one group
    /// tick per flit time. Cleared for good by contention on any of
    /// its channels, by a tick of its own that cannot fold, and by a
    /// one-flit job joining its partition.
    pub express: bool,
}

impl Worm {
    /// Index of the first link whose VC request is outstanding (issued but
    /// not granted — the worm sits in that channel's waiter FIFO), if any.
    /// A VC for link `k > 0` is requested exactly when the head crosses
    /// link `k - 1`, so the pending request is the first unheld link after
    /// the held window — or link 0 for a worm that never started.
    pub fn pending_vc_request(&self) -> Option<usize> {
        match self.links.iter().rposition(|l| l.vc.is_some()) {
            None => Some(0),
            Some(m) => {
                let k = m + 1;
                (k < self.links.len() && self.links[m].sent > 0).then_some(k)
            }
        }
    }

    /// Index of the link the head most recently occupied (for drain
    /// reporting): the last link any flit has crossed, or the first link
    /// for a worm that never transmitted.
    pub fn head_link(&self) -> usize {
        self.links.iter().rposition(|l| l.sent > 0).unwrap_or(0)
    }

    /// Route index of the link that runs over channel `chan` (routes never
    /// revisit a node, so the link is unique).
    pub(crate) fn link_on(&self, chan: u32) -> usize {
        self.links
            .iter()
            .position(|l| l.chan == chan)
            .expect("worm does not cross this channel")
    }

    /// Flits that reached the destination (crossed the last link).
    pub fn ejected(&self) -> u64 {
        self.links.last().map_or(0, |l| l.sent)
    }

    /// Flits currently buffered inside the network (between links), i.e.
    /// credits issued but not yet returned. The last link's buffer is
    /// always empty: ejection into node memory returns its credit at
    /// transmit time.
    pub fn buffered(&self) -> u64 {
        self.links.windows(2).map(|w| w[0].sent - w[1].sent).sum()
    }
}

/// One physical link's virtual-channel table.
#[derive(Debug)]
pub struct VcChannel {
    /// VCs per escape class on this link.
    pub per_class: u8,
    /// Worm holding each VC (`classes * per_class` slots; class `c` owns
    /// the band `c * per_class ..`).
    pub vcs: Vec<Option<MsgId>>,
    /// Per-class FIFO of worms waiting for a VC of that class.
    pub waiting: Vec<VecDeque<MsgId>>,
    /// Round-robin cursor for flit arbitration across VCs.
    pub rr: u16,
    /// A `FlitTick` chain is live for this channel.
    pub ticking: bool,
}

impl VcChannel {
    fn new(classes: u8, per_class: u8) -> VcChannel {
        VcChannel {
            per_class,
            vcs: vec![None; classes as usize * per_class as usize],
            waiting: (0..classes).map(|_| VecDeque::new()).collect(),
            rr: 0,
            ticking: false,
        }
    }

    /// Grant the first free VC of `class` to `msg`, or `None` if the band
    /// is fully occupied. VC indices run up to `classes * per_class - 1`
    /// (at most 3 * 255), so they are `u16`.
    pub fn alloc_vc(&mut self, class: u8, msg: MsgId) -> Option<u16> {
        let base = class as usize * self.per_class as usize;
        for vc in base..base + self.per_class as usize {
            if self.vcs[vc].is_none() {
                self.vcs[vc] = Some(msg);
                return Some(vc as u16);
            }
        }
        None
    }

    /// Class of a VC index.
    pub fn class_of(&self, vc: u16) -> u8 {
        (vc / u16::from(self.per_class)) as u8
    }

    /// Clear a VC and hand it to the head of its class's waiter FIFO, if
    /// any. Returns the new holder so the caller can resume it.
    pub fn release_vc(&mut self, vc: u16, serve_waiters: bool) -> Option<MsgId> {
        let slot = vc as usize;
        debug_assert!(self.vcs[slot].is_some(), "releasing a free VC");
        self.vcs[slot] = None;
        if !serve_waiters {
            return None;
        }
        let class = self.class_of(vc) as usize;
        let next = self.waiting[class].pop_front()?;
        self.vcs[slot] = Some(next);
        Some(next)
    }

    /// Worms currently holding a VC on this link, in VC order.
    pub fn holders(&self) -> impl Iterator<Item = MsgId> + '_ {
        self.vcs.iter().filter_map(|v| *v)
    }

    /// VCs currently held.
    pub fn occupied(&self) -> usize {
        self.vcs.iter().filter(|v| v.is_some()).count()
    }

    /// `msg` holds the only occupied VC and no worm waits for one.
    fn held_only_by(&self, msg: MsgId) -> bool {
        let mut held = self.vcs.iter().flatten();
        held.next() == Some(&msg)
            && held.next().is_none()
            && self.waiting.iter().all(|q| q.is_empty())
    }
}

/// Counters of the express path (not simulation state: they describe how
/// ticks were batched into engine events, which results never depend on).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExpressStats {
    /// Flit ticks that rode in a group tick instead of their own
    /// `FlitTick` event.
    pub folded: u64,
    /// Worms that left express mode before finishing.
    pub exits: u64,
    /// Folds refused because something else had been scheduled for the
    /// same instant since the block's group tick was armed.
    pub refused: u64,
}

/// The ordered channel list one pending group tick runs.
#[derive(Debug, Default)]
struct TickGroup {
    /// The worm whose block armed the group.
    owner: Option<MsgId>,
    /// Channels whose `FlitTick` bodies run, in arm order.
    chans: Vec<u32>,
}

/// The express block being run: which worm's ticks may fold, and whether
/// its group is closed to further folds.
#[derive(Debug, Clone, Copy)]
struct Block {
    owner: MsgId,
    closed: bool,
}

/// Machine-wide wormhole state: one VC table per channel plus the worm
/// table (indexed like the message slab).
#[derive(Debug)]
pub struct WormholeState {
    /// Time for one flit to cross one link.
    pub flit_time: SimDuration,
    /// Flit credits per VC buffer (downstream slots per link).
    pub credits: u64,
    /// Per-channel VC tables (parallel to the machine's channel table).
    pub chans: Vec<VcChannel>,
    /// Per-message worm slots (grown on demand, like the message slab).
    pub worms: Vec<Option<Worm>>,
    /// Running count of held VCs across all channels. The occupancy gauge
    /// samples this on every grant; a recount would be O(channels) per
    /// sample, which dominated whole runs on 64k-node machines.
    pub held: usize,
    /// Per partition: folding is off for good — the configuration loads
    /// jobs no slower than a flit time, or a job with a zero-byte send (a
    /// one-flit worm) has been queued there (see [`WormholeState::new`]).
    no_fold: Vec<bool>,
    /// Tick-group slots of pending group ticks; freed slots keep
    /// their buffers for reuse, so steady state allocates nothing.
    groups: Vec<TickGroup>,
    free_groups: Vec<u32>,
    /// The express block being run, if any.
    block: Option<Block>,
    /// Express-path counters.
    pub express: ExpressStats,
}

impl WormholeState {
    /// Build the VC tables for every channel of `net`: each link carries
    /// the escape classes its partition's topology shape requires.
    ///
    /// The express path is enabled only when a job load takes longer than
    /// a flit time. A folded group must never run a tick that can emit a
    /// scheduler note before its last tick, and only a worm's tail can;
    /// a one-flit worm is all tail, so its partition stops folding when a
    /// job that can send one is queued. The load latency guarantees the
    /// groups already pending then fire before that job can send.
    pub fn new(cfg: &MachineConfig, net: &SystemNet) -> WormholeState {
        let per_class = cfg.vcs_per_class.max(1);
        let chans: Vec<VcChannel> = net
            .channels()
            .iter()
            .map(|c| {
                let kind = net.partition_kind(net.partition_of(c.from));
                VcChannel::new(vc_class_count(kind), per_class)
            })
            .collect();
        assert!(
            chans.len() < 1 << 31,
            "channel ids must leave the top bit free"
        );
        WormholeState {
            flit_time: cfg.flit_time(),
            credits: u64::from(cfg.vc_credits.max(1)),
            chans,
            worms: Vec::new(),
            held: 0,
            no_fold: vec![cfg.load_duration(0) <= cfg.flit_time(); net.partitions()],
            groups: Vec::new(),
            free_groups: Vec::new(),
            block: None,
            express: ExpressStats::default(),
        }
    }

    /// Whether a fresh worm in partition `part` starts in express mode.
    pub(crate) fn express_allowed(&self, part: usize) -> bool {
        !self.no_fold[part]
    }

    /// A job that can send a one-flit worm joined partition `part`: no
    /// worm there folds again. Returns whether this is news.
    pub(crate) fn note_one_flit_partition(&mut self, part: usize) -> bool {
        !std::mem::replace(&mut self.no_fold[part], true)
    }

    /// Take `msg` out of express mode for good (no-op if it already left
    /// or has no worm).
    pub(crate) fn leave_express(&mut self, msg: MsgId) {
        if let Some(w) = self.worm_mut(msg) {
            if w.express {
                w.express = false;
                self.express.exits += 1;
            }
        }
    }

    /// Every other worm holding or awaiting a VC on `chan` leaves express
    /// mode: `msg` requested (or was granted) a VC there.
    pub(crate) fn contend(&mut self, chan: usize, msg: MsgId) {
        let vch = &self.chans[chan];
        for m in vch.holders().chain(vch.waiting.iter().flatten().copied()) {
            if let Some(Some(w)) = self.worms.get_mut(m.idx()) {
                if m != msg && w.express {
                    w.express = false;
                    self.express.exits += 1;
                }
            }
        }
    }

    /// The worm whose express block a plain `FlitTick` on `chan` runs: the
    /// channel's sole VC holder, if it is in express mode and nobody waits.
    pub(crate) fn express_owner(&self, chan: usize) -> Option<MsgId> {
        let vch = &self.chans[chan];
        let owner = vch.holders().next()?;
        (self.worm(owner)?.express && vch.held_only_by(owner)).then_some(owner)
    }

    /// Open an express block for `owner` (until [`WormholeState::end_block`]).
    pub(crate) fn begin_block(&mut self, owner: MsgId) {
        debug_assert!(self.block.is_none(), "express blocks do not nest");
        self.block = Some(Block {
            owner,
            closed: false,
        });
    }

    /// Close the express block.
    pub(crate) fn end_block(&mut self) {
        self.block = None;
    }

    /// Inside an express block, may `chan`'s next tick fold into the
    /// block's group tick? Yes iff the block's owner holds the channel's
    /// only VC, nobody waits there, the owner is still in express mode and
    /// the group is not closed. A fold of the owner's tail flit closes the
    /// group, so a tail tick — the only kind that can reach the scheduler
    /// (via memory release or delivery) — always runs last in its group.
    /// An owner tick that cannot fold takes the owner out of express mode.
    /// Whether the fold stands is the scheduler adapter's call: it refuses
    /// once anything else was scheduled for the same instant.
    pub(crate) fn may_fold(&mut self, chan: usize) -> bool {
        let Some(block) = self.block else {
            return false;
        };
        let owner = block.owner;
        let vch = &self.chans[chan];
        let (mut owned, mut shared) = (false, false);
        for &vc in &vch.vcs {
            match vc {
                Some(m) if m == owner => owned = true,
                Some(_) => shared = true,
                None => {}
            }
        }
        if !owned {
            return false; // another worm's channel: its own FlitTick
        }
        let waited = vch.waiting.iter().any(|q| !q.is_empty());
        let w = self.worm(owner).expect("block owner has a worm");
        if block.closed || !w.express || shared || waited {
            self.leave_express(owner);
            return false;
        }
        // `sent` never grows along the route, so only a worm whose source
        // link is down to its last flit can have a tail flit next anywhere.
        if w.links[0].sent + 1 >= w.total_flits {
            let l = w
                .links
                .iter()
                .find(|l| l.chan == chan as u32)
                .expect("owner crosses the channel");
            if l.sent + 1 == w.total_flits {
                self.block = Some(Block {
                    owner,
                    closed: true,
                });
            }
        }
        true
    }

    /// A tick-group slot and its (empty, recycled) channel buffer.
    pub(crate) fn reserve_group(&mut self) -> (u32, Vec<u32>) {
        match self.free_groups.pop() {
            Some(g) => (g, std::mem::take(&mut self.groups[g as usize].chans)),
            None => {
                self.groups.push(TickGroup::default());
                ((self.groups.len() - 1) as u32, Vec::new())
            }
        }
    }

    /// Store a reserved group: armed groups keep their channels until
    /// their group tick fires; unarmed ones go straight back to the pool.
    pub(crate) fn store_group(&mut self, g: u32, owner: MsgId, chans: Vec<u32>, armed: bool) {
        if armed {
            self.express.folded += chans.len() as u64;
            self.groups[g as usize] = TickGroup {
                owner: Some(owner),
                chans,
            };
        } else {
            self.release_group(g, chans);
        }
    }

    /// Take a fired group's owner and channels (hand the buffer back with
    /// [`WormholeState::release_group`]).
    pub(crate) fn take_group(&mut self, g: u32) -> (Option<MsgId>, Vec<u32>) {
        let group = &mut self.groups[g as usize];
        (group.owner.take(), std::mem::take(&mut group.chans))
    }

    /// Return a group slot and its buffer to the pool.
    pub(crate) fn release_group(&mut self, g: u32, mut chans: Vec<u32>) {
        chans.clear();
        self.groups[g as usize].chans = chans;
        self.free_groups.push(g);
    }

    /// The worm of a message, if one is in flight.
    pub fn worm(&self, msg: MsgId) -> Option<&Worm> {
        self.worms.get(msg.idx()).and_then(|w| w.as_ref())
    }

    /// Mutable access to a message's worm.
    pub fn worm_mut(&mut self, msg: MsgId) -> Option<&mut Worm> {
        self.worms.get_mut(msg.idx()).and_then(|w| w.as_mut())
    }

    /// Install a worm for `msg` (slot grown on demand).
    pub fn insert(&mut self, msg: MsgId, worm: Worm) {
        if self.worms.len() <= msg.idx() {
            self.worms.resize_with(msg.idx() + 1, || None);
        }
        debug_assert!(self.worms[msg.idx()].is_none(), "worm slot still live");
        self.worms[msg.idx()] = Some(worm);
    }

    /// Remove and return a message's worm.
    pub fn remove(&mut self, msg: MsgId) -> Option<Worm> {
        self.worms.get_mut(msg.idx()).and_then(|w| w.take())
    }

    /// Whether link `i` of `worm` can move a flit right now: it holds a
    /// VC, has flits left, the flit has arrived over the previous link,
    /// and the downstream VC buffer has a credit. (Link liveness is the
    /// caller's check — the VC table does not track outages.)
    pub fn can_transmit(&self, worm: &Worm, i: usize) -> bool {
        let l = &worm.links[i];
        l.vc.is_some()
            && l.sent < worm.total_flits
            && (i == 0 || worm.links[i - 1].sent > l.sent)
            && (i + 1 == worm.links.len() || l.sent - worm.links[i + 1].sent < self.credits)
    }

    /// Like [`WormholeState::can_transmit`] but true only when the credit
    /// window is the *sole* blocker (for stall accounting).
    pub fn credit_blocked(&self, worm: &Worm, i: usize) -> bool {
        let l = &worm.links[i];
        l.vc.is_some()
            && l.sent < worm.total_flits
            && (i == 0 || worm.links[i - 1].sent > l.sent)
            && i + 1 < worm.links.len()
            && l.sent - worm.links[i + 1].sent >= self.credits
    }

    /// Total VCs currently held across all channels (occupancy gauge).
    pub fn occupied_vcs(&self) -> usize {
        debug_assert_eq!(
            self.held,
            self.chans.iter().map(|c| c.occupied()).sum::<usize>(),
            "held-VC counter out of sync with the channel tables"
        );
        self.held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worm3() -> Worm {
        Worm {
            total_flits: 5,
            links: [(0u32, 0u8), (1, 0), (2, 1)]
                .iter()
                .map(|&(chan, class)| WormLink {
                    chan,
                    class,
                    vc: None,
                    sent: 0,
                })
                .collect(),
            express: true,
        }
    }

    fn state(credits: u64) -> WormholeState {
        WormholeState {
            flit_time: SimDuration::from_nanos(10),
            credits,
            chans: (0..3).map(|_| VcChannel::new(2, 1)).collect(),
            worms: Vec::new(),
            held: 0,
            no_fold: vec![false],
            groups: Vec::new(),
            free_groups: Vec::new(),
            block: None,
            express: ExpressStats::default(),
        }
    }

    #[test]
    fn head_waits_for_upstream_flits() {
        let st = state(4);
        let mut w = worm3();
        w.links[0].vc = Some(0);
        w.links[1].vc = Some(0);
        assert!(st.can_transmit(&w, 0), "source flits are always available");
        assert!(!st.can_transmit(&w, 1), "no flit has arrived yet");
        w.links[0].sent = 1;
        assert!(st.can_transmit(&w, 1));
    }

    #[test]
    fn credit_window_throttles_upstream() {
        let st = state(2);
        let mut w = worm3();
        w.links[0].vc = Some(0);
        w.links[0].sent = 2; // two flits buffered downstream of link 0
        assert!(!st.can_transmit(&w, 0), "credit window full");
        assert!(st.credit_blocked(&w, 0));
        w.links[1].vc = Some(0);
        w.links[1].sent = 1; // one drained onward: a credit came back
        assert!(st.can_transmit(&w, 0));
        assert!(!st.credit_blocked(&w, 0));
    }

    #[test]
    fn last_link_never_credit_blocks() {
        let st = state(1);
        let mut w = worm3();
        w.links[2].vc = Some(2);
        w.links[0].sent = 5;
        w.links[1].sent = 5;
        w.links[2].sent = 4;
        assert!(st.can_transmit(&w, 2), "ejection returns credits instantly");
    }

    #[test]
    fn vc_bands_are_per_class() {
        let mut ch = VcChannel::new(2, 2);
        assert_eq!(ch.alloc_vc(0, MsgId(1)), Some(0));
        assert_eq!(ch.alloc_vc(0, MsgId(2)), Some(1));
        assert_eq!(ch.alloc_vc(0, MsgId(3)), None, "class 0 band full");
        assert_eq!(ch.alloc_vc(1, MsgId(4)), Some(2), "class 1 band free");
        assert_eq!(ch.class_of(2), 1);
        assert_eq!(ch.occupied(), 3);
    }

    #[test]
    fn release_serves_same_class_fifo() {
        let mut ch = VcChannel::new(2, 1);
        assert_eq!(ch.alloc_vc(0, MsgId(1)), Some(0));
        ch.waiting[0].push_back(MsgId(7));
        ch.waiting[0].push_back(MsgId(8));
        assert_eq!(ch.release_vc(0, true), Some(MsgId(7)));
        assert_eq!(ch.vcs[0], Some(MsgId(7)));
        assert_eq!(ch.release_vc(0, false), None, "down link grants nobody");
        assert_eq!(ch.vcs[0], None);
        assert_eq!(ch.waiting[0].front(), Some(&MsgId(8)));
    }

    #[test]
    fn pending_request_tracks_the_head() {
        let mut w = worm3();
        assert_eq!(w.pending_vc_request(), Some(0), "fresh worm awaits link 0");
        w.links[0].vc = Some(0);
        assert_eq!(w.pending_vc_request(), None, "head not across yet");
        w.links[0].sent = 1;
        assert_eq!(w.pending_vc_request(), Some(1));
        w.links[1].vc = Some(0);
        w.links[1].sent = 1;
        w.links[2].vc = Some(2);
        assert_eq!(w.pending_vc_request(), None, "whole route held");
        assert_eq!(w.head_link(), 1);
        assert_eq!(w.buffered(), 1);
        assert_eq!(w.ejected(), 0);
    }

    #[test]
    fn vc_indices_cover_three_wide_bands() {
        // 3 classes x 129 VCs: class 2's band starts at slot 258.
        let mut ch = VcChannel::new(3, 129);
        assert_eq!(ch.alloc_vc(2, MsgId(1)), Some(258));
        assert_eq!(ch.class_of(258), 2);
        assert_eq!(ch.alloc_vc(0, MsgId(2)), Some(0));
        assert_eq!(ch.release_vc(258, true), None);
        assert_eq!(ch.occupied(), 1);
    }

    /// A state whose worm 1 (5 flits) holds VCs on all three links.
    fn express_state() -> WormholeState {
        let mut st = state(4);
        let mut w = worm3();
        for (i, l) in w.links.iter_mut().enumerate() {
            l.vc = st.chans[i].alloc_vc(l.class, MsgId(1));
        }
        st.insert(MsgId(1), w);
        st
    }

    #[test]
    fn folds_need_a_sole_uncontended_express_owner() {
        let mut st = express_state();
        assert!(!st.may_fold(0), "no block, no fold");
        st.begin_block(MsgId(1));
        assert!(st.may_fold(0));
        assert!(st.may_fold(1));
        // Another worm queues on link 1: the owner leaves express mode, and
        // even its uncontended link 0 stops folding.
        st.chans[1].waiting[0].push_back(MsgId(2));
        assert!(!st.may_fold(1));
        assert!(!st.worm(MsgId(1)).unwrap().express);
        assert!(!st.may_fold(0));
        assert_eq!(st.express.exits, 1);
        st.end_block();
        assert_eq!(st.express_owner(0), None, "owner no longer express");
    }

    #[test]
    fn other_worms_channels_and_tail_flits_end_the_group() {
        let mut st = express_state();
        st.chans[0].vcs[1] = Some(MsgId(3)); // a class-1 worm shares link 0
        st.begin_block(MsgId(1));
        assert!(!st.may_fold(0), "shared link: its own FlitTick");
        st.chans[0].vcs[1] = None;
        st.worm_mut(MsgId(1)).unwrap().express = true;
        for (l, sent) in st
            .worm_mut(MsgId(1))
            .unwrap()
            .links
            .iter_mut()
            .zip([5, 5, 4])
        {
            l.sent = sent; // link 2's next flit is the tail
        }
        assert!(st.may_fold(2), "the tail tick itself folds");
        assert!(!st.may_fold(1), "nothing folds after it");
        st.end_block();
    }

    #[test]
    fn contention_takes_every_other_resident_out_of_express() {
        let mut st = express_state();
        st.contend(0, MsgId(1));
        assert!(
            st.worm(MsgId(1)).unwrap().express,
            "a worm never contends with itself"
        );
        st.contend(0, MsgId(2));
        assert!(!st.worm(MsgId(1)).unwrap().express);
        assert_eq!(st.express.exits, 1);
    }
}
