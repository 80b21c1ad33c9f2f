//! Offline stand-in for `crossbeam-channel`: an unbounded MPMC channel
//! built on `Mutex<VecDeque>` + `Condvar`, exposing the subset of the
//! crossbeam API the workspace uses (cloneable senders and receivers,
//! `send`, `recv`, `try_recv`, `recv_timeout`, disconnect detection).

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct Shared<T> {
    queue: Mutex<Inner<T>>,
    ready: Condvar,
}

struct Inner<T> {
    items: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers waiting on `ready` right now. Counted under the queue
    /// mutex, so a sender that reads zero knows every receiver will look
    /// at the queue again before it sleeps, and skips the wake-up call.
    parked: usize,
}

/// Error returned by [`Sender::send`] when all receivers are gone.
#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`].
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    /// Channel is empty but senders remain.
    Empty,
    /// Channel is empty and all senders are gone.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    /// Deadline passed with no message.
    Timeout,
    /// Channel is empty and all senders are gone.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
            RecvTimeoutError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// The sending half of a channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Inner { items: VecDeque::new(), senders: 1, receivers: 1, parked: 0 }),
        ready: Condvar::new(),
    });
    (Sender { shared: shared.clone() }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Enqueues a message; fails only when every receiver has dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.queue.lock().unwrap();
        if inner.receivers == 0 {
            return Err(SendError(value));
        }
        inner.items.push_back(value);
        let parked = inner.parked > 0;
        drop(inner);
        if parked {
            self.shared.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.queue.lock().unwrap().senders += 1;
        Sender { shared: self.shared.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.queue.lock().unwrap();
        inner.senders -= 1;
        if inner.senders == 0 {
            drop(inner);
            self.shared.ready.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or all senders disconnect.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.queue.lock().unwrap();
        loop {
            if let Some(v) = inner.items.pop_front() {
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner.parked += 1;
            inner = self.shared.ready.wait(inner).unwrap();
            inner.parked -= 1;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.shared.queue.lock().unwrap();
        if let Some(v) = inner.items.pop_front() {
            Ok(v)
        } else if inner.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Blocks up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.shared.queue.lock().unwrap();
        loop {
            if let Some(v) = inner.items.pop_front() {
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            inner.parked += 1;
            let (guard, result) = self.shared.ready.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
            inner.parked -= 1;
            if result.timed_out() && inner.items.is_empty() {
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.shared.queue.lock().unwrap().items.is_empty()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().unwrap().items.len()
    }

    /// Drains currently queued messages without blocking.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.queue.lock().unwrap().receivers += 1;
        Receiver { shared: self.shared.clone() }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().receivers -= 1;
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Iterator over currently available messages (see [`Receiver::try_iter`]).
pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_recv_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_detection() {
        let (tx, rx) = unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutError::Disconnected));

        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(5).is_err());
    }

    #[test]
    fn timeout_fires() {
        let (_tx, rx) = unbounded::<u32>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn cross_thread() {
        let (tx, rx) = unbounded();
        let handle = thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv().unwrap());
        }
        handle.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_send_with_nobody_parked_is_received_later() {
        let (tx, rx) = unbounded();
        // No receiver is waiting, so no wake-up is issued; the message
        // must be there all the same for whoever looks next.
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.shared.queue.lock().unwrap().parked, 0);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(2));
    }

    #[test]
    fn a_parked_receiver_is_woken_by_one_send() {
        // `recv` and `recv_timeout` (its timeout far beyond the test's
        // patience: only a wake-up ends it in time) both register.
        type Recv = fn(&Receiver<u32>) -> Option<u32>;
        let parks: [Recv; 2] =
            [|rx| rx.recv().ok(), |rx| rx.recv_timeout(Duration::from_secs(600)).ok()];
        for park in parks {
            let (tx, rx) = unbounded();
            let shared = rx.shared.clone();
            let waiter = thread::spawn(move || park(&rx));
            // Send only once the receiver is parked, so that the wake-up
            // is what delivers the message.
            while shared.queue.lock().unwrap().parked == 0 {
                thread::yield_now();
            }
            tx.send(9).unwrap();
            assert_eq!(waiter.join().unwrap(), Some(9));
            assert_eq!(shared.queue.lock().unwrap().parked, 0);
        }
    }

    #[test]
    fn cloned_sender_keeps_channel_open() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }
}
