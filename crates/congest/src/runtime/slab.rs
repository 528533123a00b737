//! Port-slot inboxes: one slot per directed edge, written by the sender
//! and read by the receiver — the only `unsafe` code of the engines.
//!
//! A message sent by `u` on port `p` arrives at `v = neighbors(u)[p]` on
//! the reverse port `q`, so it has exactly one possible landing place: the
//! slot of edge `(v, q)` in the CSR layout of [`NetTables`]. The slab holds
//! those slots for a contiguous node range, in two **generations**
//! (two slots per port under a duplicating fault plane, one per copy).
//! The sender moves each payload straight into the receiver's slot; when
//! the receiver steps, its thread moves the filled slots, which are in
//! port order without a sort, into one buffer it reuses for every step
//! and hands the protocol an [`Inbox`] over it. (Compacting them inside
//! the row instead costs a cache miss per moved message on the row's
//! far lines.)
//!
//! Beside the slots, one presence byte per slot records which are
//! filled, laid out like the slots, so a node's filled slots are found
//! from one cache line.
//!
//! A dropped slab hands its slot memory to the network's [`SlotCache`],
//! and the next run on the same [`NetTables`] (the next phase of a
//! pipeline) builds its slab in it. A fresh allocation of that size is a
//! fresh mapping, and the kernel zeroes each of its pages when a round
//! first touches it; reusing the last phase's pages skips that.
//!
//! # Generations
//!
//! Communication round number `c` (counting communication rounds, not
//! rounds) writes generation `c % 2`, and every round up to the next
//! communication round reads it. Keying by communication round matters
//! under [`Protocol::sync_period`](crate::Protocol::sync_period) `p > 1`:
//! shards run silent rounds without a barrier, and with an even `p`,
//! round-number parity would hand a fast shard's next burst the
//! generation a slow shard is still reading.
//!
//! # SAFETY: the single-writer rule
//!
//! A slot's payload has at most one writer per communication round: the
//! thread that owns the sender (a port carries one message per round,
//! and both copies of a duplicated one are written by the same thread).
//! Everything else about a slot — its presence byte, the read, the move
//! out — belongs to the thread that owns the receiver:
//! it marks a slot filled when it wrote the slot itself, or when the
//! barrier hands it the writer's arrival notice; only then does it read.
//! The engines' barriers (and the netplane's inbound writes, which run on
//! the receiving thread itself) order every write before every read. The
//! next write to that generation happens two communication rounds later,
//! after a barrier the reader reaches only once it has finished reading.
//! So no slot is ever accessed by two threads without a barrier in
//! between, and the `UnsafeCell` accesses below never race. A slot is
//! debug-asserted empty before it is written.

use crate::{Inbox, NetTables, Port};
use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One port slot: a payload with its arrival port, when filled.
type Slot<M> = UnsafeCell<MaybeUninit<(Port, M)>>;

/// Port-indexed inbox slots for a contiguous node range, two generations.
pub(crate) struct InboxSlab<M> {
    net: Arc<NetTables>,
    nodes: Range<usize>,
    /// Edge index of the range's first port.
    base: usize,
    /// Slots per port: 2 under a duplicating fault plane, else 1.
    copies: usize,
    /// Slots per generation.
    gen_len: usize,
    /// The memory of the `2 · gen_len` slots; taken back on drop.
    chunk: Option<Chunk>,
    /// The slots' type: the slab owns the payloads in them.
    owns: PhantomData<Slot<M>>,
    /// Whether each slot is filled, laid out like the slots. Only the
    /// receiver's owner writes or reads a flag (senders read it in debug
    /// assertions only), so `Relaxed` suffices: the barrier, not the flag,
    /// orders a slot's write before its read.
    filled: Box<[AtomicBool]>,
}

// SAFETY: the slots in `chunk` are shared between the threads of one
// process under the single-writer rule of the module docs, and payloads
// move between threads, hence `M: Send`. `filled` is atomic, and every
// other field is read-only after construction.
unsafe impl<M: Send> Sync for InboxSlab<M> {}

impl<M> InboxSlab<M> {
    /// Slots for the nodes `nodes` of the network `net`, with room for a
    /// duplicate per port iff `dups`.
    pub(crate) fn new(net: &Arc<NetTables>, nodes: Range<usize>, dups: bool) -> Self {
        let base = net.edge_start(nodes.start);
        let copies = if dups { 2 } else { 1 };
        let gen_len = (net.edge_start(nodes.end) - base) * copies;
        assert!(
            u32::try_from(2 * gen_len).is_ok(),
            "slot indices must fit the u32 arrival notices"
        );
        let layout = Layout::array::<Slot<M>>(2 * gen_len)
            .and_then(|l| l.align_to(64))
            .expect("slab size fits the address space");
        InboxSlab {
            net: Arc::clone(net),
            nodes,
            base,
            copies,
            gen_len,
            chunk: Some(net.slot_cache().take(layout)),
            owns: PhantomData,
            filled: (0..2 * gen_len).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// The slots, over the chunk's memory.
    #[inline]
    fn slots(&self) -> &[Slot<M>] {
        let len = self.filled.len();
        if len == 0 {
            return &[];
        }
        let chunk = self.chunk.as_ref().expect("a live slab owns its chunk");
        // SAFETY: the chunk is at least `len` slots large and aligned for
        // them (its layout was built for `len` of them), and `Slot<M>`
        // needs no initialization.
        unsafe { std::slice::from_raw_parts(chunk.ptr.as_ptr().cast(), len) }
    }

    /// Whether node `v`'s slots live in this slab.
    #[inline]
    pub(crate) fn holds(&self, v: usize) -> bool {
        self.nodes.contains(&v)
    }

    /// The flat edge index of `port` at node `v`, as in [`NetTables`], if
    /// the slab holds that edge.
    pub(crate) fn edge(&self, v: usize, port: Port) -> Option<usize> {
        if !self.holds(v) {
            return None;
        }
        let e = self.net.edge_start(v) + port as usize;
        (e < self.net.edge_start(v + 1)).then_some(e)
    }

    /// The first slot (copy 0) of edge `e` in generation `gen`.
    #[inline]
    fn first_slot(&self, gen: usize, e: usize) -> usize {
        gen * self.gen_len + (e - self.base) * self.copies
    }

    #[inline]
    fn slot(&self, j: usize) -> *mut (Port, M) {
        self.slots()[j].get().cast()
    }

    /// Writes `msg`, arriving on `port` over the edge `edge` (the
    /// receiver's edge for that port), into copy `copy` of the edge's slot
    /// in generation `gen`, and returns that slot. The slot counts as
    /// filled once its owner [marks](Self::mark) it.
    ///
    /// Must be called only by the thread that owns the sender, in the
    /// communication round that writes `gen` (see the module docs).
    #[inline]
    pub(crate) fn put(&self, gen: usize, edge: usize, port: Port, copy: usize, msg: M) -> u32 {
        let j = self.first_slot(gen, edge) + copy;
        debug_assert!(
            !self.filled[j].load(Ordering::Relaxed),
            "slot of edge {edge} written twice in one generation"
        );
        // SAFETY: the single-writer rule (module docs) makes this thread
        // the only one touching slot `j` until the next barrier, and the
        // slot is empty, so nothing live is overwritten.
        unsafe { self.slot(j).write((port, msg)) };
        j as u32
    }

    /// Starts fetching the slot of edge `edge` in generation `gen` into
    /// the cache, ahead of a [`put`](Self::put) to it. Only a hint.
    #[inline]
    pub(crate) fn prefetch(&self, gen: usize, edge: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let slot = self
                .slot(self.first_slot(gen, edge))
                .cast::<i8>()
                .cast_const();
            for line in (0..size_of::<(Port, M)>()).step_by(64) {
                // SAFETY: a prefetch reads nothing and cannot fault; the
                // addresses stay inside the slot.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(slot.wrapping_add(line)) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (gen, edge);
    }

    /// Marks slot `j` filled. Must be called only by the thread that owns
    /// the receiver, after the write (see the module docs).
    #[inline]
    pub(crate) fn mark(&self, j: u32) {
        self.filled[j as usize].store(true, Ordering::Relaxed);
    }

    /// The copy an arrival over edge `edge` in generation `gen` takes when
    /// its sender does not say: the second iff the slab keeps duplicates
    /// and the first is filled. Owner thread only.
    pub(crate) fn free_copy(&self, gen: usize, edge: usize) -> usize {
        let j = self.first_slot(gen, edge);
        usize::from(self.copies == 2 && self.filled[j].load(Ordering::Relaxed))
    }

    /// Moves the messages of generation `gen` of the node whose edges are
    /// `edges` to the end of `inbox`, in port order, and empties their
    /// slots.
    ///
    /// Must be called only by the thread that owns the node, in a round
    /// that reads `gen` (see the module docs).
    pub(crate) fn take(&self, gen: usize, edges: Range<usize>, inbox: &mut Vec<(Port, M)>) {
        let start = self.first_slot(gen, edges.start);
        for j in start..start + edges.len() * self.copies {
            if self.filled[j].load(Ordering::Relaxed) {
                self.filled[j].store(false, Ordering::Relaxed);
                // SAFETY: this thread owns the slot (single-writer rule),
                // a filled slot holds an initialized payload, and clearing
                // its flag above hands that payload over to `inbox`.
                inbox.push(unsafe { self.slot(j).read() });
            }
        }
    }
}

impl<M> Drop for InboxSlab<M> {
    fn drop(&mut self) {
        // What the last round sent is still here: its receivers would
        // have read it in a round that never ran.
        for (j, filled) in self.filled.iter().enumerate() {
            if filled.load(Ordering::Relaxed) {
                // SAFETY: `&mut self` excludes every other access, and a
                // filled slot holds an initialized payload.
                unsafe { self.slot(j).drop_in_place() };
            }
        }
        if let Some(chunk) = self.chunk.take() {
            self.net.slot_cache().give(chunk);
        }
    }
}

/// One untyped allocation of slot memory.
struct Chunk {
    ptr: NonNull<u8>,
    layout: Layout,
}

// SAFETY: a chunk is plain memory owned by one slab or one cache at a
// time; moving it between threads moves that ownership.
unsafe impl Send for Chunk {}

impl Chunk {
    fn new(layout: Layout) -> Self {
        let ptr = if layout.size() == 0 {
            // Never dereferenced: an empty slab builds no slot slice.
            NonNull::dangling()
        } else {
            // SAFETY: `layout` has a nonzero size.
            NonNull::new(unsafe { std::alloc::alloc(layout) })
                .unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
        };
        Chunk { ptr, layout }
    }

    /// Whether the chunk can hold memory of `layout`.
    fn fits(&self, layout: Layout) -> bool {
        self.layout.size() >= layout.size() && self.layout.align() >= layout.align()
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        if self.layout.size() != 0 {
            // SAFETY: allocated in `Chunk::new` with this layout.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) };
        }
    }
}

/// The slot memory of the last slab dropped on a network, kept for the
/// next run on it (see the module docs). Lives in the [`NetTables`] that
/// every phase of a pipeline shares, and is freed with them. A poisoned
/// lock is recovered: each critical section only moves a whole chunk in
/// or out, so the option is valid at every step.
#[derive(Default)]
pub(crate) struct SlotCache(Mutex<Option<Chunk>>);

impl SlotCache {
    /// A chunk for `layout`: the cached one if it fits, else a fresh one
    /// (the cached one is freed first, so the two never coexist).
    fn take(&self, layout: Layout) -> Chunk {
        let mut spare = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        match spare.take() {
            Some(chunk) if chunk.fits(layout) => chunk,
            old => {
                drop(old);
                Chunk::new(layout)
            }
        }
    }

    /// Keeps `chunk` for the next slab — the larger one, when runs on the
    /// same network overlap and both return theirs.
    fn give(&self, chunk: Chunk) {
        let mut spare = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if spare
            .as_ref()
            .is_none_or(|s| s.layout.size() < chunk.layout.size())
        {
            *spare = Some(chunk);
        }
    }
}

/// A port-ordered `(port, message)` slice as an [`Inbox`].
pub(crate) fn inbox<M>(items: &[(Port, M)]) -> &Inbox<M> {
    debug_assert!(items.windows(2).all(|w| w[0].0 <= w[1].0));
    // SAFETY: `Inbox<M>` is a `#[repr(transparent)]` wrapper around
    // `[(Port, M)]`, so the two pointees have the same layout and the
    // same slice metadata.
    unsafe { &*(std::ptr::from_ref(items) as *const Inbox<M>) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use graphs::gen;
    use std::rc::Rc;

    fn slab<M>(dups: bool) -> (Arc<NetTables>, InboxSlab<M>) {
        let g = gen::star(4); // hub 0, leaves 1..=4
        let net = NetTables::build(&g, &SimConfig::default());
        let slab = InboxSlab::new(&net, 0..g.n(), dups);
        (net, slab)
    }

    fn deliver<M>(slab: &InboxSlab<M>, gen: usize, v: usize, port: Port, msg: M) {
        let e = slab.edge(v, port).expect("edge in the slab");
        let copy = slab.free_copy(gen, e);
        slab.mark(slab.put(gen, e, port, copy, msg));
    }

    fn take<M>(slab: &InboxSlab<M>, gen: usize, v: usize) -> Vec<(Port, M)> {
        let edges = slab.net.edge_start(v)..slab.net.edge_start(v + 1);
        let mut inbox = Vec::new();
        slab.take(gen, edges, &mut inbox);
        inbox
    }

    #[test]
    fn take_moves_filled_slots_out_in_port_order() {
        let (_net, slab) = slab::<u64>(false);
        deliver(&slab, 0, 0, 3, 30);
        deliver(&slab, 0, 0, 1, 10);
        deliver(&slab, 0, 0, 2, 20);
        deliver(&slab, 1, 0, 2, 99); // the other generation stays put
        let unmarked = slab.put(0, slab.edge(1, 0).unwrap(), 0, 0, 7); // written, not yet marked
        assert_eq!(take(&slab, 0, 0), [(1, 10), (2, 20), (3, 30)]);
        assert!(take(&slab, 0, 0).is_empty());
        assert_eq!(take(&slab, 1, 0), [(2, 99)]);
        assert!(take(&slab, 0, 1).is_empty());
        slab.mark(unmarked);
        assert_eq!(take(&slab, 0, 1), [(0, 7)]);
    }

    #[test]
    fn duplicates_land_in_the_copy_slot() {
        let (_net, slab) = slab::<u64>(true);
        deliver(&slab, 1, 0, 2, 7);
        deliver(&slab, 1, 0, 2, 7);
        deliver(&slab, 1, 0, 0, 5);
        let received = take(&slab, 1, 0);
        assert_eq!(received, [(0, 5), (2, 7), (2, 7)]);
        assert!(inbox(&received).from_port_strict(2).is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "written twice")]
    fn a_second_write_to_a_filled_slot_is_caught() {
        let (_net, slab) = slab::<u64>(false);
        deliver(&slab, 0, 2, 0, 1);
        deliver(&slab, 0, 2, 0, 2);
    }

    #[test]
    fn the_next_slab_on_a_network_reuses_the_memory() {
        let (net, first) = slab::<u64>(true);
        let memory = first.chunk.as_ref().map(|c| c.ptr);
        drop(first);
        // A smaller slot type fits the cached chunk; a larger one does not.
        let second = InboxSlab::<u32>::new(&net, 0..net.n(), false);
        assert_eq!(second.chunk.as_ref().map(|c| c.ptr), memory);
        let third = InboxSlab::<[u64; 8]>::new(&net, 0..net.n(), true);
        assert_ne!(third.chunk.as_ref().map(|c| c.ptr), memory);
        deliver(&third, 0, 0, 1, [7; 8]);
        assert_eq!(take(&third, 0, 0), [(1, [7; 8])]);
    }

    #[test]
    fn payloads_are_dropped_exactly_once() {
        let token = Rc::new(());
        {
            let (_net, slab) = slab::<Rc<()>>(true);
            deliver(&slab, 0, 0, 0, Rc::clone(&token));
            deliver(&slab, 0, 0, 3, Rc::clone(&token));
            deliver(&slab, 1, 1, 0, Rc::clone(&token));
            deliver(&slab, 1, 1, 0, Rc::clone(&token));
            assert_eq!(Rc::strong_count(&token), 5);
            drop(take(&slab, 0, 0));
            assert_eq!(Rc::strong_count(&token), 3);
            // The slab drops what nobody read.
        }
        assert_eq!(Rc::strong_count(&token), 1);
    }
}
