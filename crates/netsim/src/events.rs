//! Simulation events and the handler context.

use crate::domain::{Delivery, Inbox};
use vertigo_pkt::{FlowId, NodeId, Packet, PortId, QueryId};
use vertigo_simcore::{EventQueue, SimRng, SimTime, SnapError, SnapReader, SnapWriter, Snapshot};
use vertigo_stats::Recorder;

/// Everything that can happen in the simulated network.
#[derive(Debug)]
pub enum Event {
    /// The last byte of `pkt` arrived at `node` on `port`.
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// Ingress port.
        port: PortId,
        /// The packet (boxed: events are moved through a binary heap).
        pkt: Box<Packet>,
    },
    /// `node` finished serializing a packet out of `port`; the port is free.
    TxDone {
        /// Transmitting node.
        node: NodeId,
        /// The now-idle port.
        port: PortId,
    },
    /// A host's consolidated wakeup fired (possibly redundant; the host
    /// re-checks every deadline).
    HostTimer {
        /// The host.
        node: NodeId,
    },
    /// The periodic telemetry sampler fired (handled by the driver, not a
    /// node).
    TelemetrySample,
    /// The application opens a flow. Boxed so every event, and every
    /// queue node carrying one, stays at 16 bytes: a flow starts once,
    /// while the other variants fire several times per packet hop.
    FlowStart(Box<FlowStart>),
}

/// The payload of [`Event::FlowStart`].
#[derive(Debug)]
pub struct FlowStart {
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Flow id assigned by the driver.
    pub flow: FlowId,
    /// Owning query (`QueryId::NONE` for background traffic).
    pub query: QueryId,
    /// Flow size in bytes.
    pub bytes: u64,
}

impl Snapshot for Event {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Event::Arrive { node, port, pkt } => {
                w.put_u8(0);
                node.save(w);
                port.save(w);
                pkt.save(w);
            }
            Event::TxDone { node, port } => {
                w.put_u8(1);
                node.save(w);
                port.save(w);
            }
            Event::HostTimer { node } => {
                w.put_u8(2);
                node.save(w);
            }
            Event::TelemetrySample => w.put_u8(3),
            Event::FlowStart(f) => {
                let FlowStart {
                    src,
                    dst,
                    flow,
                    query,
                    bytes,
                } = &**f;
                w.put_u8(4);
                src.save(w);
                dst.save(w);
                flow.save(w);
                query.save(w);
                w.put_u64(*bytes);
            }
        }
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => Event::Arrive {
                node: NodeId::restore(r)?,
                port: PortId::restore(r)?,
                pkt: <Box<Packet>>::restore(r)?,
            },
            1 => Event::TxDone {
                node: NodeId::restore(r)?,
                port: PortId::restore(r)?,
            },
            2 => Event::HostTimer {
                node: NodeId::restore(r)?,
            },
            3 => Event::TelemetrySample,
            4 => Event::FlowStart(Box::new(FlowStart {
                src: NodeId::restore(r)?,
                dst: NodeId::restore(r)?,
                flow: FlowId::restore(r)?,
                query: QueryId::restore(r)?,
                bytes: r.get_u64()?,
            })),
            tag => return Err(SnapError::new(format!("invalid Event tag {tag:#x}"))),
        })
    }
}

/// Where scheduled events go: straight into the local queue (classic
/// single-queue engine), or — in the domain-partitioned engine — wire
/// deliveries (`Event::Arrive`) detour into the receiving domain's inbox
/// (directly when the receiver is local, through the outbox and the
/// barrier otherwise), while self-targeted events (`TxDone`,
/// `HostTimer`) stay in the local queue.
pub struct EventSink<'a> {
    queue: &'a mut EventQueue<Event>,
    route: Option<Route<'a>>,
}

/// The domain engine's delivery routing for one domain's window.
pub(crate) struct Route<'a> {
    /// The domain running the window.
    pub(crate) domain: u16,
    /// Global node id -> owning domain.
    pub(crate) node_domain: &'a [u16],
    /// This domain's pending deliveries.
    pub(crate) inbox: &'a mut Inbox,
    /// Deliveries for other domains, routed at the next barrier.
    pub(crate) outbox: &'a mut Vec<Delivery>,
}

impl<'a> EventSink<'a> {
    /// A sink that pushes everything into `queue` (classic engine).
    pub fn direct(queue: &'a mut EventQueue<Event>) -> Self {
        EventSink { queue, route: None }
    }

    /// A sink that detours `Arrive` events along `route` (domain engine).
    pub(crate) fn routed(queue: &'a mut EventQueue<Event>, route: Route<'a>) -> Self {
        EventSink {
            queue,
            route: Some(route),
        }
    }

    /// Current queue time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedules `ev` at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, ev: Event) {
        if let (Some(route), Event::Arrive { node, pkt, .. }) = (&mut self.route, &ev) {
            let local = route.node_domain[node.index()] == route.domain;
            let delivery = Delivery {
                at,
                sent: self.queue.now(),
                uid: pkt.uid,
                ev,
                crossed: false,
            };
            if local {
                route.inbox.insert(delivery);
            } else {
                route.outbox.push(delivery);
            }
            return;
        }
        self.queue.push(at, ev);
    }

    /// Schedules `ev` at `now + delay`.
    #[inline]
    pub fn push_after(&mut self, delay: vertigo_simcore::SimDuration, ev: Event) {
        let at = self.queue.now() + delay;
        self.push(at, ev);
    }

    /// Pending events in the underlying local queue.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if the underlying local queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Mutable simulation context handed to node event handlers. Handlers may
/// schedule follow-up events, record metrics, and draw randomness — but
/// cannot touch other nodes (all inter-node interaction flows through
/// events, which is what keeps the simulation deterministic).
pub struct Ctx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The event sink, for scheduling follow-ups.
    pub events: EventSink<'a>,
    /// The metrics sink.
    pub rec: &'a mut Recorder,
    /// The node's random stream (per-node in the domain engine; the
    /// run-global stream in the classic engine).
    pub rng: &'a mut SimRng,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_two_words() {
        // Every event-queue node carries one event; `FlowStart` is boxed
        // so the common variants set the size.
        assert_eq!(std::mem::size_of::<Event>(), 16);
        assert_eq!(std::mem::size_of::<Option<Event>>(), 16);
    }
}
