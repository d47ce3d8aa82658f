//! Offline stand-in for `crossbeam`: only `channel::unbounded`, which is
//! all `bgl-cache/src/concurrent.rs` uses. Each receiver there has a
//! single consumer, so `std::sync::mpsc` gives the same behaviour.

pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvError, SendError, Sender, TryRecvError};

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}
