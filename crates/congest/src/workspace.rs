//! The per-thread buffers the flood loop and the tree broadcast reuse.
//!
//! A flood needs per-node outboxes, two node sets, a calendar ring and
//! send/delivery vectors; a broadcast upcast needs per-node FIFOs. Building
//! them afresh on every call cost allocator time on every flood, so each
//! thread keeps one [`Workspace`] between calls: a caller [`take`]s it,
//! runs, and [`put_back`]s it. A call that finds the slot empty builds a
//! fresh one. That happens on the thread's first call, on a nested call,
//! and after a call that panicked, whose workspace was dropped while
//! unwinding, so a panic never leaves half-used buffers behind.
//!
//! The workspace lives as long as its thread, not one solve: its retained
//! capacity is bounded by the largest flood (nodes, per-round traffic,
//! arrivals per calendar bucket) and the largest broadcast the thread has
//! run, and the calendar ring keeps only the buckets its last flood's span
//! used. Every user leaves the buffers it keeps empty, so no call pays a
//! clearing pass; debug builds assert it.

use crate::multibfs::FloodBuffers;
use crate::tree::BroadcastBuffers;
use std::cell::Cell;

/// Everything one thread's floods and broadcasts reuse.
#[derive(Default)]
pub(crate) struct Workspace {
    /// The flood loop's buffers.
    pub(crate) flood: FloodBuffers,
    /// The broadcast's buffers.
    pub(crate) broadcast: BroadcastBuffers,
}

thread_local! {
    static WORKSPACE: Cell<Option<Workspace>> = const { Cell::new(None) };
}

/// This thread's workspace, or a fresh one if the slot is empty.
pub(crate) fn take() -> Workspace {
    WORKSPACE.with(Cell::take).unwrap_or_default()
}

/// Returns `ws` to this thread's slot for the next call.
pub(crate) fn put_back(ws: Workspace) {
    WORKSPACE.with(|slot| slot.set(Some(ws)));
}
