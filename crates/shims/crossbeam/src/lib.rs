//! Offline stand-in for the `crossbeam` crate: just the channel subset
//! the threaded runtime host uses (bounded node inboxes, an unbounded
//! observation sink), backed by `std::sync::mpsc`.

#![forbid(unsafe_code)]

/// Multi-producer channels (API subset of `crossbeam::channel`).
pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    /// Receive-with-timeout failure.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// Every sender has been dropped.
        Disconnected,
    }

    /// Send failure (channel full or disconnected).
    #[derive(Debug)]
    pub struct TrySendError<T>(pub T);

    /// Send failure (receiver dropped).
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    enum Flavor<T> {
        Bounded(mpsc::SyncSender<T>),
        Unbounded(mpsc::Sender<T>),
    }

    /// The sending half of a channel.
    pub struct Sender<T>(Flavor<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(match &self.0 {
                Flavor::Bounded(tx) => Flavor::Bounded(tx.clone()),
                Flavor::Unbounded(tx) => Flavor::Unbounded(tx.clone()),
            })
        }
    }

    impl<T> Sender<T> {
        /// Blocking send (an unbounded channel never blocks); errors only
        /// if the receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            match &self.0 {
                Flavor::Bounded(tx) => tx.send(msg),
                Flavor::Unbounded(tx) => tx.send(msg),
            }
            .map_err(|mpsc::SendError(m)| SendError(m))
        }

        /// Non-blocking send; errors if the buffer is full or the
        /// receiver is gone.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            match &self.0 {
                Flavor::Bounded(tx) => tx.try_send(msg).map_err(|e| match e {
                    mpsc::TrySendError::Full(m) => TrySendError(m),
                    mpsc::TrySendError::Disconnected(m) => TrySendError(m),
                }),
                Flavor::Unbounded(tx) => tx.send(msg).map_err(|mpsc::SendError(m)| TrySendError(m)),
            }
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Waits up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// The messages queued right now, without blocking: the iterator
        /// ends at the first moment the channel is empty (or, once every
        /// sender is gone, at the channel's end).
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter(self.0.try_iter())
        }
    }

    /// Non-blocking iterator over queued messages ([`Receiver::try_iter`]).
    pub struct TryIter<'a, T>(mpsc::TryIter<'a, T>);

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.0.next()
        }
    }

    /// Creates a bounded channel with the given capacity.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(Flavor::Bounded(tx)), Receiver(rx))
    }

    /// Creates a channel of unbounded capacity: sends never block.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(Flavor::Unbounded(tx)), Receiver(rx))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvTimeoutError};
    use std::time::Duration;

    #[test]
    fn roundtrip_and_timeout() {
        let (tx, rx) = bounded(4);
        tx.try_send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)).unwrap(), 1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)).unwrap(), 2);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn unbounded_roundtrip_timeout_and_disconnect() {
        let (tx, rx) = unbounded();
        // Far past any bounded capacity the host uses per wake-up; a send
        // never blocks and never reports "full".
        for i in 0..1_000 {
            tx.try_send(i).unwrap();
        }
        tx.clone().send(1_000).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)).unwrap(), 0);
        assert_eq!(
            rx.try_iter().collect::<Vec<_>>(),
            (1..=1_000).collect::<Vec<_>>()
        );
        assert_eq!(rx.try_iter().next(), None);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        // What was sent before the last sender went away is still
        // delivered; only then does the channel report its end.
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![7]);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
