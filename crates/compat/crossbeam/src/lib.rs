//! Offline shim for the subset of `crossbeam` this workspace uses:
//! `crossbeam::channel`, multi-producer **multi-consumer** channels
//! (`bounded`/`unbounded`, cloneable `Sender`/`Receiver`, blocking and
//! timed receives), implemented as a `Mutex<VecDeque>` + two condvars.
//! `std::sync::mpsc` cannot stand in here: its receiver is neither
//! `Clone` nor `Sync`, and worker pools need many consumers draining one
//! queue.

/// Multi-producer multi-consumer channels; mirrors `crossbeam::channel`.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::time::{Duration, Instant};
    use threatraptor_sync::{Arc, Condvar, Mutex, PoisonError};

    /// The sending side disconnected mid-`recv`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Why a `try_recv` returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty (senders still connected).
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// Why a timed receive returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the channel still empty.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// The receiving side disconnected mid-`send`; carries the unsent
    /// message back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T: fmt::Debug> std::error::Error for SendError<T> {}

    /// Why a `try_send` did not enqueue; carries the message back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// A bounded channel is at capacity.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        /// `None` = unbounded.
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> threatraptor_sync::MutexGuard<'_, Inner<T>> {
            // Poison recovery: a consumer panicking while holding the
            // lock must not wedge every other worker on the queue.
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The sending half; cloneable (multi-producer).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (multi-consumer), unlike
    /// `std::sync::mpsc`.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// A channel with unbounded buffering: `send` never blocks.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// A channel holding at most `cap` in-flight messages: `send` blocks
    /// while full (backpressure). Unlike crossbeam, `cap == 0` is not a
    /// rendezvous channel — it is clamped to 1 (this workspace never uses
    /// zero-capacity channels).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap.max(1)))
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.senders -= 1;
            if inner.senders == 0 {
                // Wake blocked receivers so they observe the disconnect.
                drop(inner);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                // Wake blocked senders so they observe the disconnect.
                drop(inner);
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message, blocking while a bounded channel is full.
        /// Fails (returning the message) once every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.lock();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                if inner.cap.is_none_or(|cap| inner.queue.len() < cap) {
                    inner.queue.push_back(value);
                    drop(inner);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                inner = self
                    .shared
                    .not_full
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Non-blocking send: fails fast when full or disconnected.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut inner = self.shared.lock();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if inner.cap.is_some_and(|cap| inner.queue.len() >= cap) {
                return Err(TrySendError::Full(value));
            }
            inner.queue.push_back(value);
            drop(inner);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues a message, blocking while the channel is empty.
        /// Buffered messages are still delivered after every sender is
        /// gone; only an empty disconnected channel errors.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    drop(inner);
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self
                    .shared
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.lock();
            if let Some(v) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            // `None` (a timeout past the clock's range) means no deadline.
            let deadline = Instant::now().checked_add(timeout);
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    drop(inner);
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if deadline.is_some_and(|deadline| now >= deadline) {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .shared
                    .not_empty
                    .wait_timeout(
                        inner,
                        deadline.map_or(Duration::MAX, |deadline| deadline - now),
                    )
                    .unwrap_or_else(PoisonError::into_inner);
                inner = guard;
            }
        }

        /// Messages currently buffered.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// True when nothing is buffered.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator: yields until the channel is empty *and*
        /// disconnected.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }

        /// Non-blocking iterator: drains what is buffered right now.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { rx: self }
        }
    }

    /// Blocking iterator over received messages.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Non-blocking iterator over buffered messages.
    pub struct TryIter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.try_recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    mod channel {
        use crate::channel::*;
        use std::time::Duration;

        #[test]
        fn unbounded_fifo_roundtrip() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.len(), 10);
            let got: Vec<i32> = rx.try_iter().collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>());
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_drains_buffered_then_errors() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn send_fails_once_receivers_are_gone() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(7), Err(SendError(7)));
            assert!(matches!(tx.try_send(7), Err(TrySendError::Disconnected(7))));
        }

        #[test]
        fn bounded_backpressure_blocks_until_drained() {
            let (tx, rx) = bounded(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
            std::thread::scope(|scope| {
                let sender = scope.spawn(|| tx.send(3)); // blocks on full
                std::thread::sleep(Duration::from_millis(20));
                assert_eq!(rx.recv(), Ok(1));
                sender.join().unwrap().unwrap();
            });
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
        }

        #[test]
        fn recv_timeout_times_out_then_succeeds() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(42).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(42));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn recv_timeout_without_deadline_waits_for_a_send() {
            let (tx, rx) = unbounded();
            let got = std::thread::scope(|scope| {
                let h = scope.spawn(move || rx.recv_timeout(Duration::MAX));
                std::thread::sleep(Duration::from_millis(10));
                tx.send(7).unwrap();
                h.join().unwrap()
            });
            assert_eq!(got, Ok(7));
        }

        #[test]
        fn multiple_consumers_partition_the_stream() {
            let (tx, rx) = unbounded();
            let n = 200;
            let counts: Vec<usize> = std::thread::scope(|scope| {
                let consumers: Vec<_> = (0..4)
                    .map(|_| {
                        let rx = rx.clone();
                        scope.spawn(move || rx.iter().count())
                    })
                    .collect();
                drop(rx); // scope keeps only the clones
                for i in 0..n {
                    tx.send(i).unwrap();
                }
                drop(tx);
                consumers.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(counts.iter().sum::<usize>(), n);
        }

        #[test]
        fn blocking_recv_wakes_on_send() {
            let (tx, rx) = bounded(1);
            let got = std::thread::scope(|scope| {
                let h = scope.spawn(move || rx.recv());
                std::thread::sleep(Duration::from_millis(10));
                tx.send("hello").unwrap();
                h.join().unwrap()
            });
            assert_eq!(got, Ok("hello"));
        }
    }
}
