//! Wormhole switching (`Switching::Wormhole` only): the flit-level
//! protocol that drives the virtual-channel tables and worm cursors of
//! [`crate::wormhole`].
//!
//! A message travels as a worm of `cfg.worm_flits(bytes)` flits that
//! holds a virtual channel on every link between head and tail. Each
//! channel with a movable flit runs a `FlitTick` chain: one tick per
//! `cfg.flit_time()`, each tick arbitrating the physical link round-
//! robin among its VCs and moving exactly one flit under credit-based
//! flow control. Deadlock freedom rests on the escape-class assignment
//! from `parsched_topology::flow` (dateline / phase rules), whose
//! channel-dependency graph is acyclic for every shipped topology.
//!
//! # Express path: one event per worm per flit time
//!
//! An uncontended worm's ticks at one instant are always one contiguous
//! block of work: every tick it has at instant `g` was armed inside its
//! own block at `g - flit_time`, so in `(time, seq)` order they sit next to
//! each other with no other event between them, downstream link first.
//! While a worm is in express mode ([`crate::wormhole::Worm::express`]),
//! its block arms one group tick — a `FlitTick` whose `chan` has the
//! [`GROUP`] bit set and names a tick group — where the first of those
//! ticks would be armed, and folds the rest into that group. The group
//! tick runs the same per-channel tick bodies in the same order, so every
//! state change, counter, observation and non-tick event lands exactly
//! where the flit path puts it. A tick folds only while the worm holds the
//! channel's only VC, no worm waits there, the group is open, and —
//! checked by the [`Folding`] scheduler adapter — nothing else has been
//! scheduled for that instant since the group tick was armed. Otherwise
//! the tick gets its own `FlitTick` and the worm leaves express mode for
//! good; ticks already folded stay folded, since they sit at the front of
//! the block.
//!
//! The scheduler's policy driver runs between engine events, so a group
//! must never run a tick that emits a scheduler note before its last
//! tick. Only a tail flit can (its memory release or delivery may finish
//! a load, a blocked send or a job), so folding a tail tick closes the
//! group; see `WormholeState::new` for why one-flit worms rule folding
//! out in their partition.

use super::{Event, Machine};
use crate::cpu::{HandlerAction, HandlerTask};
use crate::net::MsgId;
use crate::wormhole::{Worm, WormLink, WormholeState};
use parsched_des::{EventScheduler, SimTime, TimerHandle};
use parsched_obs::ObsEvent;
use parsched_topology::{vc_classes, NodeId};

/// Top bit of `Event::FlitTick::chan` (channel ids stay below it). On a
/// tick the machine hands to [`Folding`] it asks to fold that channel's
/// tick into the block's group; on a tick the engine delivers it marks a
/// group tick, and the rest of `chan` is the tick-group slot.
const GROUP: u32 = 1 << 31;

/// The scheduler an express block runs under. It arms the block's group
/// tick at the first fold request, appends later fold requests to the
/// group while nothing else has been scheduled for the same instant, and
/// turns them back into plain `FlitTick`s once something has.
///
/// Every tick runs under one, so the tick path is compiled once rather
/// than once per engine scheduler type: outside an express block no fold
/// is requested and it passes everything through.
struct Folding<'s> {
    inner: &'s mut dyn EventScheduler<Event>,
    /// The instant the block's ticks land on (`now + flit_time`).
    at: SimTime,
    /// Tick-group slot of the block's group tick.
    group: u32,
    /// Channels folded so far, in arm order.
    chans: Vec<u32>,
    /// The group tick has been handed to the engine.
    armed: bool,
    /// Nothing else was scheduled for `at` since it was.
    clean: bool,
    /// Fold requests turned back into plain ticks.
    refused: u64,
}

impl EventScheduler<Event> for Folding<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn schedule_at(&mut self, time: SimTime, event: Event) {
        if let Event::FlitTick { chan } = event {
            if chan & GROUP != 0 {
                debug_assert_eq!(time, self.at, "fold requests land one flit time ahead");
                let chan = chan & !GROUP;
                if !self.armed {
                    self.inner.schedule_at(
                        time,
                        Event::FlitTick {
                            chan: self.group | GROUP,
                        },
                    );
                    self.armed = true;
                } else if !self.clean {
                    self.refused += 1;
                    self.inner.schedule_at(time, Event::FlitTick { chan });
                    return;
                }
                self.chans.push(chan);
                return;
            }
        }
        if time == self.at && self.armed {
            self.clean = false;
        }
        self.inner.schedule_at(time, event);
    }

    fn schedule_timer_at(&mut self, time: SimTime, event: Event) -> TimerHandle {
        if time == self.at && self.armed {
            self.clean = false;
        }
        self.inner.schedule_timer_at(time, event)
    }

    fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.inner.cancel_timer(handle)
    }

    fn timer_count(&self) -> usize {
        self.inner.timer_count()
    }

    fn request_pause(&mut self) {
        self.inner.request_pause();
    }
}

impl Machine {
    /// Wormhole state (tests and exporters; `None` unless
    /// `cfg.switching == Switching::Wormhole`).
    pub fn wormhole(&self) -> Option<&WormholeState> {
        self.wormhole.as_ref()
    }

    /// Sample the machine-wide count of held VCs into the metrics registry.
    #[inline]
    pub(super) fn note_vc_occupancy(&mut self, now: SimTime) {
        if self.metrics.is_some() {
            let occ = self.wormhole.as_ref().map_or(0, |wh| wh.occupied_vcs());
            if let Some(m) = self.metrics.as_deref_mut() {
                m.set_vc_occupancy(now, occ);
            }
        }
    }

    /// Sample the cumulative credit-stall count into the metrics registry.
    #[inline]
    fn note_credit_stalls(&mut self, now: SimTime) {
        if self.metrics.is_some() {
            let stalls = self.counters.credit_stalls;
            if let Some(m) = self.metrics.as_deref_mut() {
                m.set_credit_stalls(now, stalls);
            }
        }
    }

    /// A job that can send a one-flit worm joined partition `part`: its
    /// worms stop folding for good (see `WormholeState::new`).
    pub(super) fn note_one_flit_job(&mut self, part: usize) {
        let wh = self.wormhole.as_mut().expect("wormhole state");
        if !wh.note_one_flit_partition(part) {
            return;
        }
        for i in 0..wh.worms.len() {
            let Some(w) = &wh.worms[i] else { continue };
            let from = self.channels[w.links[0].chan as usize].from;
            if self.net.partition_of(from) == part {
                wh.leave_express(MsgId(i as u32));
            }
        }
    }

    /// Route index of the link of `msg`'s worm that runs over channel
    /// `chan` (routes never revisit a node, so the link is unique).
    pub(super) fn worm_link_on(&self, msg: MsgId, chan: usize) -> usize {
        let wh = self.wormhole.as_ref().expect("wormhole state");
        wh.worm(msg)
            .expect("message has no worm")
            .link_on(chan as u32)
    }

    /// Build the worm for a freshly buffered-at-source message and request
    /// a virtual channel for its first link.
    pub(super) fn start_worm(
        &mut self,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let (src, dst, bytes) = {
            let m = self.messages[msg.idx()].as_ref().expect("dead message");
            (m.src_node, m.dst_node, m.bytes)
        };
        let (p, base, local) = self
            .net
            .local_route(src, dst)
            .expect("job placement spans partitions");
        let kind = self.net.partition_kind(p);
        let classes = vc_classes(kind, self.net.partition_size(), NodeId(src - base), &local);
        let mut links = Vec::with_capacity(local.len());
        let mut prev = src;
        for (i, hop) in local.iter().enumerate() {
            let to = base + hop.0;
            let chan = self
                .net
                .channel_id(prev, to)
                .unwrap_or_else(|| panic!("no channel {prev}->{to}"));
            links.push(WormLink {
                chan: chan as u32,
                class: classes[i],
                vc: None,
                sent: 0,
            });
            prev = to;
        }
        let total_flits = self.cfg.worm_flits(bytes);
        self.counters.flits_injected += total_flits;
        self.ref_msg(msg); // the worm holds a reference until teardown/drain
        let wh = self.wormhole.as_mut().expect("wormhole state");
        let express = wh.express_allowed(p);
        wh.insert(
            msg,
            Worm {
                total_flits,
                links,
                express,
            },
        );
        self.request_vc(msg, 0, now, sched);
    }

    /// Ask for a VC of the link's escape class: granted immediately when
    /// the link is up and the class band has a free VC, otherwise the worm
    /// queues in the class's FIFO (head-of-line blocking, the wormhole
    /// hazard the escape classes keep acyclic).
    fn request_vc(
        &mut self,
        msg: MsgId,
        link: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let (chan, class) = {
            let wh = self.wormhole.as_ref().expect("wormhole state");
            let l = &wh.worm(msg).expect("worm gone").links[link];
            (l.chan as usize, l.class)
        };
        let up = self.channels[chan].up;
        let granted = {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            wh.contend(chan, msg);
            if up {
                wh.chans[chan].alloc_vc(class, msg)
            } else {
                None // a downed link grants nothing until its window closes
            }
        };
        match granted {
            Some(vc) => {
                let wh = self.wormhole.as_mut().expect("wormhole state");
                wh.held += 1;
                wh.worm_mut(msg).expect("worm gone").links[link].vc = Some(vc);
                self.counters.vc_allocs += 1;
                self.obs(
                    now,
                    ObsEvent::WormVcAlloc {
                        msg: msg.0,
                        chan: chan as u32,
                        vc,
                    },
                );
                self.note_vc_occupancy(now);
                self.ensure_flit_ticking(chan, now, sched);
            }
            None => {
                let wh = self.wormhole.as_mut().expect("wormhole state");
                wh.chans[chan].waiting[class as usize].push_back(msg);
                self.obs(
                    now,
                    ObsEvent::WormStall {
                        msg: msg.0,
                        chan: chan as u32,
                    },
                );
            }
        }
    }

    /// Whether any VC of `chan` holds a worm that can move a flit now.
    fn chan_can_transmit(&self, chan: usize) -> bool {
        let wh = self.wormhole.as_ref().expect("wormhole state");
        wh.chans[chan].holders().any(|msg| {
            let w = wh.worm(msg).expect("holder has worm");
            wh.can_transmit(w, w.link_on(chan as u32))
        })
    }

    /// Start a `FlitTick` chain for the channel unless one is already live
    /// (or the link is down, or nothing can move). The per-channel chain
    /// is what serializes the physical link: one flit per flit time, no
    /// matter how many VCs are resident.
    pub(super) fn ensure_flit_ticking(
        &mut self,
        chan: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        if !self.channels[chan].up
            || self.wormhole.as_ref().expect("wormhole state").chans[chan].ticking
            || !self.chan_can_transmit(chan)
        {
            return;
        }
        self.wormhole.as_mut().expect("wormhole state").chans[chan].ticking = true;
        self.channels[chan].busy.set(now, 1.0);
        self.note_link_busy(chan as u32, now, 1.0);
        self.arm_flit_tick(chan, sched);
    }

    /// Arm a ticking channel's next tick one flit time ahead: a fold
    /// request inside an express block when the rules allow it, its own
    /// `FlitTick` otherwise.
    fn arm_flit_tick(&mut self, chan: usize, sched: &mut impl EventScheduler<Event>) {
        let wh = self.wormhole.as_mut().expect("wormhole state");
        let fold = if wh.may_fold(chan) { GROUP } else { 0 };
        sched.schedule(
            wh.flit_time,
            Event::FlitTick {
                chan: chan as u32 | fold,
            },
        );
    }

    /// `Event::FlitTick`: a group tick runs its folded ticks in arm order
    /// — as its owner's next block while the owner is still in express
    /// mode; a channel's tick runs as its express worm's block when the
    /// channel has one, else on its own.
    pub(super) fn on_flit_tick_event(
        &mut self,
        chan: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let wh = self.wormhole.as_mut().expect("wormhole state");
        if chan & GROUP == 0 {
            let owner = wh.express_owner(chan as usize);
            self.run_ticks(owner, &[chan], now, sched);
            return;
        }
        let group = chan & !GROUP;
        let (owner, chans) = wh.take_group(group);
        let owner = owner.filter(|&m| wh.worm(m).is_some_and(|w| w.express));
        self.run_ticks(owner, &chans, now, sched);
        self.wormhole
            .as_mut()
            .expect("wormhole state")
            .release_group(group, chans);
    }

    /// Run `chans`' tick bodies in order. As an express block of `owner`,
    /// the ticks they arm for the next flit time fold into one group tick
    /// while the rules allow; without one, each gets its own `FlitTick`.
    fn run_ticks(
        &mut self,
        owner: Option<MsgId>,
        chans: &[u32],
        now: SimTime,
        sched: &mut dyn EventScheduler<Event>,
    ) {
        let wh = self.wormhole.as_mut().expect("wormhole state");
        let (group, buf) = match owner {
            Some(owner) => {
                wh.begin_block(owner);
                wh.reserve_group()
            }
            None => (0, Vec::new()),
        };
        let mut folding = Folding {
            inner: sched,
            at: now + wh.flit_time,
            group,
            chans: buf,
            armed: false,
            clean: true,
            refused: 0,
        };
        for (i, &chan) in chans.iter().enumerate() {
            let notes = self.notes.len();
            self.on_flit_tick(chan, now, &mut folding);
            debug_assert!(
                i + 1 == chans.len() || self.notes.len() == notes,
                "a folded tick reached the scheduler before the end of its group"
            );
        }
        let Folding {
            chans: buf,
            armed,
            refused,
            ..
        } = folding;
        let Some(owner) = owner else {
            debug_assert!(!armed, "a fold outside an express block");
            return;
        };
        let wh = self.wormhole.as_mut().expect("wormhole state");
        wh.end_block();
        if refused > 0 {
            wh.express.refused += refused;
            wh.leave_express(owner);
        }
        wh.store_group(group, owner, buf, armed);
    }

    /// Park a channel's tick chain (nothing movable); whatever unblocks it
    /// — a credit return, a VC grant, a link-up — re-arms it.
    fn stop_flit_ticking(&mut self, chan: usize, now: SimTime) {
        self.wormhole.as_mut().expect("wormhole state").chans[chan].ticking = false;
        self.channels[chan].busy.set(now, 0.0);
        self.note_link_busy(chan as u32, now, 0.0);
    }

    /// One flit time elapsed on a ticking channel: pick the next resident
    /// worm round-robin, move one of its flits, and keep ticking while any
    /// flit remains movable.
    pub(super) fn on_flit_tick(
        &mut self,
        chan: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let ci = chan as usize;
        let picked = {
            let wh = self.wormhole.as_ref().expect("wormhole state");
            let vch = &wh.chans[ci];
            debug_assert!(vch.ticking, "FlitTick on a parked channel");
            let nvc = vch.vcs.len();
            let mut picked = None;
            if self.channels[ci].up {
                // Round-robin from the cursor (always below `nvc`).
                let mut vc = usize::from(vch.rr);
                for _ in 0..nvc {
                    if let Some(msg) = vch.vcs[vc] {
                        let w = wh.worm(msg).expect("holder has worm");
                        let link = w.link_on(chan);
                        if wh.can_transmit(w, link) {
                            picked = Some((vc, msg, link));
                            break;
                        }
                    }
                    vc = if vc + 1 == nvc { 0 } else { vc + 1 };
                }
            }
            picked
        };
        let Some((vc, msg, link)) = picked else {
            // Nothing movable. Residents blocked purely on the credit
            // window are genuine back-pressure stalls; account them once
            // per parking, not per tick.
            let stalled: Vec<MsgId> = {
                let wh = self.wormhole.as_ref().expect("wormhole state");
                wh.chans[ci]
                    .holders()
                    .filter(|&m| {
                        let w = wh.worm(m).expect("holder has worm");
                        wh.credit_blocked(w, w.link_on(chan))
                    })
                    .collect()
            };
            for m in stalled {
                self.counters.credit_stalls += 1;
                self.obs(now, ObsEvent::WormStall { msg: m.0, chan });
            }
            self.note_credit_stalls(now);
            self.stop_flit_ticking(ci, now);
            return;
        };
        {
            let vch = &mut self.wormhole.as_mut().expect("wormhole state").chans[ci];
            vch.rr = if vc + 1 == vch.vcs.len() {
                0
            } else {
                vc as u16 + 1
            };
        }
        self.transmit_flit(msg, link, now, sched);
        if self.chan_can_transmit(ci) {
            self.arm_flit_tick(ci, sched);
        } else {
            self.stop_flit_ticking(ci, now);
        }
    }

    /// Move one flit of `msg` across route link `link`, with credit
    /// accounting, head/tail protocol steps, and neighbour wake-ups.
    fn transmit_flit(
        &mut self,
        msg: MsgId,
        link: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let (chan, sent, total, len, prev_chan, next_chan) = {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            let w = wh.worm_mut(msg).expect("worm gone");
            w.links[link].sent += 1;
            (
                w.links[link].chan,
                w.links[link].sent,
                w.total_flits,
                w.links.len(),
                link.checked_sub(1).map(|i| w.links[i].chan),
                w.links.get(link + 1).map(|l| l.chan),
            )
        };
        self.counters.credits_issued += 1;
        if link > 0 {
            // The flit left the previous link's VC buffer: credit back.
            self.counters.credits_returned += 1;
        }
        if link + 1 == len {
            // Ejection into destination memory drains the last buffer
            // immediately (node memory is not credit-limited).
            self.counters.credits_returned += 1;
            self.counters.flits_ejected += 1;
        }
        if sent == 1 {
            self.on_worm_head(msg, link, chan, now, sched);
        }
        if sent == total {
            self.on_worm_tail(msg, link, chan, now, sched);
        }
        // A flit arrival can unblock the next link; a credit return can
        // unblock the previous one.
        if let Some(pc) = prev_chan {
            self.ensure_flit_ticking(pc as usize, now, sched);
        }
        if let Some(nc) = next_chan {
            self.ensure_flit_ticking(nc as usize, now, sched);
        }
    }

    /// The worm's head crossed a link for the first time: advance the head
    /// cursors and request a VC for the next link.
    fn on_worm_head(
        &mut self,
        msg: MsgId,
        link: usize,
        chan: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        self.obs(now, ObsEvent::HopStart { msg: msg.0, chan });
        let to = self.channels[chan as usize].to;
        {
            let m = self.messages[msg.idx()].as_mut().expect("dead message");
            m.front_node = to;
            m.edges_started += 1;
        }
        let more = {
            let wh = self.wormhole.as_ref().expect("wormhole state");
            link + 1 < wh.worm(msg).expect("worm gone").links.len()
        };
        if more {
            self.request_vc(msg, link + 1, now, sched);
        }
    }

    /// The worm's tail crossed a link: the hop is complete — account it,
    /// free what the tail no longer occupies, and deliver at the end.
    fn on_worm_tail(
        &mut self,
        msg: MsgId,
        link: usize,
        chan: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let ci = chan as usize;
        self.obs(now, ObsEvent::HopEnd { msg: msg.0, chan });
        let bytes = self.messages[msg.idx()]
            .as_ref()
            .expect("dead message")
            .bytes;
        self.channels[ci].transfers += 1;
        self.channels[ci].bytes_carried += bytes;
        self.counters.hop_transfers += 1;
        // Per-hop drop lottery, as under the other switching modes: the
        // per-channel substream draws once per completed hop.
        if self.cfg.faults.drop_prob > 0.0 {
            let corrupt = self.drop_rngs[ci].uniform01() < self.cfg.faults.drop_prob;
            if corrupt {
                if let Some(m) = self.messages[msg.idx()].as_mut() {
                    m.corrupt = true;
                }
            }
        }
        let to = self.channels[ci].to;
        let (done, hops) = {
            let m = self.messages[msg.idx()].as_mut().expect("dead message");
            m.edges_done += 1;
            m.done_node = to;
            (m.edges_done as usize, m.hops())
        };
        if link == 0 {
            // The tail left the source: the sender's buffered copy is gone.
            let released = self.messages[msg.idx()]
                .as_mut()
                .expect("dead")
                .buffered_on
                .take();
            if let Some(node) = released {
                self.release_memory(node, bytes + self.cfg.msg_header_bytes, now, sched);
            }
        }
        if link > 0 {
            // The previous link's VC buffer has fully drained.
            self.release_worm_vc(msg, link - 1, now, sched);
        }
        if done == hops {
            self.release_worm_vc(msg, link, now, sched);
            self.finish_worm(msg, now, sched);
        }
    }

    /// Release the VC a worm holds on route link `link`, handing it to the
    /// head of the class's waiter FIFO (links in an outage window hand
    /// over nothing; `on_link_up` pumps their FIFOs instead).
    fn release_worm_vc(
        &mut self,
        msg: MsgId,
        link: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let (chan, vc) = {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            let l = &mut wh.worm_mut(msg).expect("worm gone").links[link];
            (l.chan as usize, l.vc.take().expect("releasing unheld VC"))
        };
        let up = self.channels[chan].up;
        let granted = {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            let granted = wh.chans[chan].release_vc(vc, up);
            if granted.is_none() {
                // A served waiter keeps the slot held; only a true free
                // drops the occupancy count.
                wh.held -= 1;
            }
            granted
        };
        if let Some(next) = granted {
            let next_link = self.worm_link_on(next, chan);
            let wh = self.wormhole.as_mut().expect("wormhole state");
            wh.contend(chan, next);
            wh.worm_mut(next).expect("waiter has worm").links[next_link].vc = Some(vc);
            self.counters.vc_allocs += 1;
            self.obs(
                now,
                ObsEvent::WormVcAlloc {
                    msg: next.0,
                    chan: chan as u32,
                    vc,
                },
            );
        }
        self.note_vc_occupancy(now);
        self.ensure_flit_ticking(chan, now, sched);
    }

    /// The whole worm reached the destination: retire it, buffer the
    /// message at the destination (system-pool overdraft, as under
    /// `PacketizedSaf`) and run the delivery handler.
    fn finish_worm(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let worm = self
            .wormhole
            .as_mut()
            .expect("wormhole state")
            .remove(msg)
            .expect("finishing a missing worm");
        debug_assert!(worm.links.iter().all(|l| l.vc.is_none()), "VC leak");
        debug_assert_eq!(worm.ejected(), worm.total_flits, "flits unaccounted");
        self.unref_msg(msg);
        let (dst, bytes) = {
            let m = self.messages[msg.idx()].as_mut().expect("dead message");
            m.at_node = m.dst_node;
            (m.dst_node, m.bytes)
        };
        self.nodes[dst as usize]
            .mmu
            .force_alloc(now, bytes + self.cfg.msg_header_bytes);
        self.messages[msg.idx()].as_mut().expect("dead").buffered_on = Some(dst);
        self.enqueue_high(
            dst,
            HandlerTask {
                cost: self.cfg.handler_cost(bytes),
                action: HandlerAction::HopArrived(msg),
            },
            now,
            sched,
        );
    }

    /// Tear an in-flight worm out of the network deterministically (link
    /// outage or job kill): released VCs pass to waiters, buffered flits
    /// return their credits, untransmitted and in-network flits are
    /// accounted dropped. Returns `false` when the message has no worm.
    /// The caller decides what happens to the message itself (retry
    /// protocol for outages; the kill sweep for dead jobs).
    pub(super) fn drain_worm(
        &mut self,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) -> bool {
        if self.wormhole.as_ref().and_then(|wh| wh.worm(msg)).is_none() {
            return false;
        }
        // Yank an outstanding VC request from its waiter FIFO.
        {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            wh.leave_express(msg);
            if let Some(k) = wh.worm(msg).expect("checked").pending_vc_request() {
                let (chan, class) = {
                    let l = &wh.worm(msg).expect("checked").links[k];
                    (l.chan as usize, l.class as usize)
                };
                wh.chans[chan].waiting[class].retain(|&m| m != msg);
            }
        }
        // Hand every held VC over (front to back keeps grants ordered).
        let held: Vec<usize> = {
            let wh = self.wormhole.as_ref().expect("wormhole state");
            wh.worm(msg)
                .expect("checked")
                .links
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.vc.is_some().then_some(i))
                .collect()
        };
        for i in held {
            self.release_worm_vc(msg, i, now, sched);
        }
        let worm = self
            .wormhole
            .as_mut()
            .expect("wormhole state")
            .remove(msg)
            .expect("checked");
        self.counters.credits_returned += worm.buffered();
        self.counters.flits_dropped += worm.total_flits - worm.ejected();
        let chan = worm.links[worm.head_link()].chan;
        self.obs(now, ObsEvent::WormDrained { msg: msg.0, chan });
        self.unref_msg(msg);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_des::{Engine, Model, QueueKind, RunOutcome, SimDuration};

    /// Replays a script of schedule calls through a [`Folding`] adapter at
    /// t = 0, then logs every event the engine hands back.
    struct Probe {
        script: Vec<(u64, Event)>,
        folded: Vec<u32>,
        refused: u64,
        fired: Vec<(u64, Event)>,
    }

    impl Model for Probe {
        type Event = Event;

        fn handle(&mut self, now: SimTime, event: Event, sched: &mut impl EventScheduler<Event>) {
            if now > SimTime::ZERO {
                self.fired.push((now.nanos(), event));
                return;
            }
            let mut folding = Folding {
                inner: sched,
                at: now + SimDuration::from_nanos(10),
                group: 9,
                chans: Vec::new(),
                armed: false,
                clean: true,
                refused: 0,
            };
            for &(delay, ev) in &self.script {
                folding.schedule(SimDuration::from_nanos(delay), ev);
            }
            self.folded = folding.chans;
            self.refused = folding.refused;
        }
    }

    fn run(script: Vec<(u64, Event)>) -> Probe {
        let mut probe = Probe {
            script,
            folded: Vec::new(),
            refused: 0,
            fired: Vec::new(),
        };
        let mut engine = Engine::new(QueueKind);
        engine.seed(SimTime::ZERO, Event::PolicyTick { token: 0 });
        assert_eq!(engine.run(&mut probe), RunOutcome::Drained);
        probe
    }

    fn fold(chan: u32) -> (u64, Event) {
        (10, Event::FlitTick { chan: chan | GROUP })
    }

    fn other(delay: u64, token: u64) -> (u64, Event) {
        (delay, Event::PolicyTick { token })
    }

    #[test]
    fn a_same_instant_schedule_stops_folding() {
        let p = run(vec![fold(1), fold(2), other(10, 7), fold(3), other(20, 8)]);
        assert_eq!(p.folded, vec![1, 2]);
        assert_eq!(p.refused, 1);
        assert_eq!(
            p.fired,
            vec![
                (10, Event::FlitTick { chan: 9 | GROUP }),
                (10, Event::PolicyTick { token: 7 }),
                (10, Event::FlitTick { chan: 3 }),
                (20, Event::PolicyTick { token: 8 }),
            ],
            "ticks 1 and 2 fire where tick 1 would, tick 3 after the intruder"
        );
    }

    #[test]
    fn schedules_before_the_group_or_at_other_instants_do_not() {
        let p = run(vec![other(10, 5), fold(1), other(20, 6), fold(2), fold(3)]);
        assert_eq!(p.folded, vec![1, 2, 3]);
        assert_eq!(p.refused, 0);
        assert_eq!(
            p.fired,
            vec![
                (10, Event::PolicyTick { token: 5 }),
                (10, Event::FlitTick { chan: 9 | GROUP }),
                (20, Event::PolicyTick { token: 6 }),
            ]
        );
    }
}
