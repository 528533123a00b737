//! Inboxes and outboxes: the only I/O surface of a node program.

use crate::node::Port;
use std::fmt;

/// More than one message arrived on a single port in one round.
///
/// Only the fault plane's duplicate injection ([`crate::faults`]) can
/// produce this under the engines — the sending [`Outbox`] rejects
/// duplicate sends — so protocols that must distinguish "one message" from
/// "one message, delivered twice" use [`Inbox::from_port_strict`] and
/// surface this as a structured error instead of silently reading the
/// first copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateDelivery {
    /// The port carrying more than one message.
    pub port: Port,
    /// How many copies arrived (≥ 2).
    pub copies: usize,
}

impl fmt::Display for DuplicateDelivery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} messages delivered on port {} in one round \
             (CONGEST allows one message per edge per round)",
            self.copies, self.port
        )
    }
}

impl std::error::Error for DuplicateDelivery {}

/// Messages received this round, as `(port, message)` pairs in port order.
///
/// The engines keep one slot per port (two under a duplicating fault
/// plane) and hand each stepped node its filled slots in slot order, so
/// the order is the port order by construction, identical across
/// runtimes. An `Inbox` is only ever seen by reference: it is a wrapper
/// around the slice `[(Port, M)]`.
#[derive(Debug)]
#[repr(transparent)]
pub struct Inbox<M> {
    items: [(Port, M)],
}

impl<M> Inbox<M> {
    /// Iterates over `(port, message)` pairs in port order.
    pub fn iter(&self) -> std::slice::Iter<'_, (Port, M)> {
        self.items.iter()
    }

    /// The received `(port, message)` pairs as a port-ordered slice.
    ///
    /// This is the allocation-free way for a protocol to hand its inbox to
    /// helper code expecting `&[(Port, M)]` (the trial handshake, the
    /// gather cores, the sampler).
    #[must_use]
    pub fn as_slice(&self) -> &[(Port, M)] {
        &self.items
    }

    /// Number of messages received.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the inbox is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The message received on `port`, if any.
    ///
    /// **Contract**: under the engines' fault-free delivery rules at most
    /// one message arrives per port per round (the sending [`Outbox`]
    /// rejects duplicate sends), so the lookup has a unique answer. When
    /// the fault plane ([`crate::faults`]) injects a duplicate, the two
    /// copies sit side by side and the *first* is returned
    /// deterministically; since fault-plane duplicates are bitwise copies,
    /// first-copy semantics are indistinguishable from fault-free delivery
    /// for this accessor. Use [`Inbox::from_port_strict`] to detect the
    /// duplication instead of absorbing it.
    #[must_use]
    pub fn from_port(&self, port: Port) -> Option<&M> {
        // Lower bound of the (usually unit-length) run of entries at `port`.
        let i = self.items.partition_point(|&(p, _)| p < port);
        match self.items.get(i) {
            Some(&(p, ref m)) if p == port => Some(m),
            _ => None,
        }
    }

    /// [`Inbox::from_port`] that reports multiple deliveries on `port` as
    /// a structured [`DuplicateDelivery`] error instead of returning the
    /// first copy — for protocols (or harnesses) that audit the
    /// one-message-per-edge discipline at runtime rather than trusting
    /// first-copy absorption.
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateDelivery`] if more than one message arrived on
    /// `port` this round.
    pub fn from_port_strict(&self, port: Port) -> Result<Option<&M>, DuplicateDelivery> {
        let i = self.items.partition_point(|&(p, _)| p < port);
        match self.items.get(i) {
            Some(&(p, ref m)) if p == port => {
                let copies = 1 + self.items[i + 1..]
                    .iter()
                    .take_while(|&&(q, _)| q == port)
                    .count();
                if copies > 1 {
                    Err(DuplicateDelivery { port, copies })
                } else {
                    Ok(Some(m))
                }
            }
            _ => Ok(None),
        }
    }
}

impl<'a, M> IntoIterator for &'a Inbox<M> {
    type Item = &'a (Port, M);
    type IntoIter = std::slice::Iter<'a, (Port, M)>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// Staging area for this round's outgoing messages.
///
/// Enforces the CONGEST discipline of **at most one message per incident
/// edge per round**.
#[derive(Debug)]
pub struct Outbox<M> {
    degree: usize,
    items: Vec<(Port, M)>,
    used: Vec<bool>,
}

impl<M: Clone> Outbox<M> {
    pub(crate) fn new(degree: usize) -> Self {
        Outbox {
            degree,
            items: Vec::new(),
            used: vec![false; degree],
        }
    }

    pub(crate) fn reset(&mut self, degree: usize) {
        self.degree = degree;
        self.items.clear();
        self.used.clear();
        self.used.resize(degree, false);
    }

    /// The ports staged on so far, in staging order.
    pub(crate) fn ports(&self) -> impl Iterator<Item = Port> + '_ {
        self.items.iter().map(|&(p, _)| p)
    }

    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, (Port, M)> {
        self.items.drain(..)
    }

    /// Sends `msg` on `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port ≥ degree` or if a message was already sent on `port`
    /// this round — both are protocol bugs, not runtime conditions.
    pub fn send(&mut self, port: Port, msg: M) {
        let p = port as usize;
        assert!(
            p < self.degree,
            "send on port {p} but degree is {}",
            self.degree
        );
        assert!(!self.used[p], "duplicate send on port {p} in one round (CONGEST allows one message per edge per round)");
        self.used[p] = true;
        self.items.push((port, msg));
    }

    /// Sends a copy of `msg` on every port.
    pub fn broadcast(&mut self, msg: M) {
        for p in 0..self.degree as Port {
            self.send(p, msg.clone());
        }
    }

    /// Sends a copy of `msg` on every port not yet used this round.
    pub fn broadcast_remaining(&mut self, msg: M) {
        for p in 0..self.degree {
            if !self.used[p] {
                self.send(p as Port, msg.clone());
            }
        }
    }

    /// Whether a message has already been staged on `port`.
    #[must_use]
    pub fn sent_on(&self, port: Port) -> bool {
        self.used.get(port as usize).copied().unwrap_or(false)
    }

    /// Number of messages staged this round.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::slab::inbox as view;

    #[test]
    fn inbox_sorted_lookup() {
        let inbox = view(&[(0, 10u64), (2, 20)]);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox.from_port(0), Some(&10));
        assert_eq!(inbox.from_port(1), None);
        let ports: Vec<Port> = inbox.iter().map(|&(p, _)| p).collect();
        assert_eq!(ports, vec![0, 2]);
        assert!(view::<u64>(&[]).is_empty());
    }

    #[test]
    fn from_port_absorbs_duplicates_strict_reports_them() {
        let inbox = view(&[(1, 7u64), (1, 7), (3, 9)]);
        // Lenient accessor: deterministic first copy.
        assert_eq!(inbox.from_port(1), Some(&7));
        assert_eq!(inbox.from_port(3), Some(&9));
        // Strict accessor: the duplication is surfaced, clean ports pass.
        assert_eq!(
            inbox.from_port_strict(1),
            Err(DuplicateDelivery { port: 1, copies: 2 })
        );
        assert_eq!(inbox.from_port_strict(3), Ok(Some(&9)));
        assert_eq!(inbox.from_port_strict(0), Ok(None));
        let err = inbox.from_port_strict(1).unwrap_err();
        assert!(err.to_string().contains("port 1"), "{err}");
    }

    #[test]
    fn outbox_single_send_per_port() {
        let mut out: Outbox<u64> = Outbox::new(3);
        out.send(1, 5);
        assert!(out.sent_on(1));
        assert!(!out.sent_on(0));
        assert_eq!(out.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate send")]
    fn outbox_rejects_duplicate_port() {
        let mut out: Outbox<u64> = Outbox::new(3);
        out.send(1, 5);
        out.send(1, 6);
    }

    #[test]
    #[should_panic(expected = "degree is 3")]
    fn outbox_rejects_bad_port() {
        let mut out: Outbox<u64> = Outbox::new(3);
        out.send(3, 5);
    }

    #[test]
    fn broadcast_fills_all_ports() {
        let mut out: Outbox<u64> = Outbox::new(4);
        out.broadcast(9);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn broadcast_remaining_skips_used() {
        let mut out: Outbox<u64> = Outbox::new(3);
        out.send(1, 1);
        out.broadcast_remaining(2);
        assert_eq!(out.len(), 3);
        let mut items: Vec<(Port, u64)> = out.drain().collect();
        items.sort_unstable();
        assert_eq!(items, vec![(0, 2), (1, 1), (2, 2)]);
    }
}
