//! Supervised TCP transport: framed send/receive, the peering
//! handshake, bounded dialing, and the heartbeat cadence. The
//! deadlines that act on silence are the node's and the hub's own.
//!
//! A session stream is **coalesced** in both directions. Its write half
//! is a [`FrameWriter`]: frames are encoded (or, relayed, copied as
//! their sender wrote them) into one pending buffer and reach the socket
//! together, under one invariant the hub and node loops keep — *flush
//! before you block*. Its read half is a `BufReader` of [`STREAM_BUF`]
//! bytes under `recv_batch`, so one `read` brings in every frame the
//! peer's flush carried and one channel send hands them all to the loop.
//! Per-connection FIFO is exactly what it was. [`send_frame`] and
//! [`recv_frame`] serve the handshake, before either half is buffered.
//!
//! The handshake pins two facts before any protocol traffic flows: the
//! **wire protocol version** — as every frame does, in its header, so a
//! peer speaking a different layout is refused before it can feed the
//! codec — and the **session id** (a stale process from a previous run
//! cannot wander into a new session). A node dials its hub once per
//! process, and the recovery layer's [`RetryPolicy`] budget, which bounds
//! SFE retries, bounds its attempts too.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

use gridmine_core::RetryPolicy;
use gridmine_paillier::HomCipher;

use crate::codec::{self, Frame};
use crate::error::NetError;
use crate::frame;

/// Idle nodes probe the hub at this cadence.
pub const HEARTBEAT_EVERY: Duration = Duration::from_millis(100);

/// Read-buffer capacity of a session stream, and the pending size past
/// which a [`FrameWriter`] writes out early instead of growing.
pub const STREAM_BUF: usize = 64 * 1024;

/// The write half of a session stream. [`FrameWriter::queue`] encodes a
/// frame behind those already pending; nothing reaches the socket until
/// [`FrameWriter::flush`] (or until [`STREAM_BUF`] bytes are pending, so
/// a long burst streams out instead of piling up). The owner must flush
/// before it blocks on the peer, exits, or kills or waits on the peer's
/// process: a frame left pending is a frame the peer never sees.
pub struct FrameWriter<W: Write> {
    inner: W,
    pending: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// A writer over `inner` with nothing pending.
    pub fn new(inner: W) -> Self {
        FrameWriter { inner, pending: Vec::new() }
    }

    /// Queues one frame, in order, behind those already pending.
    pub fn queue<C: HomCipher>(&mut self, f: &Frame<C>) -> Result<(), NetError> {
        codec::encode_into(&mut self.pending, f);
        self.spill()
    }

    /// Queues a frame that is bytes already — one another peer wrote,
    /// checked at the door — as they are, without re-encoding them.
    pub(crate) fn relay(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.pending.extend_from_slice(frame);
        self.spill()
    }

    fn spill(&mut self) -> Result<(), NetError> {
        if self.pending.len() >= STREAM_BUF {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every pending frame out in one `write_all`; free when
    /// nothing is pending. After an error the stream is broken and the
    /// pending frames are gone with it.
    pub fn flush(&mut self) -> Result<(), NetError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let written = self.inner.write_all(&self.pending);
        self.pending.clear();
        written?;
        self.inner.flush()?;
        Ok(())
    }
}

/// Sends one frame on a stream and flushes it: the handshake's way,
/// before the stream's [`FrameWriter`] exists.
pub fn send_frame<C: HomCipher, W: Write>(w: &mut W, f: &Frame<C>) -> Result<(), NetError> {
    let bytes = codec::encode(f);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Receives one frame from a stream: framing errors and hostile bytes
/// surface as typed errors, never panics. A frame is read exactly to its
/// end, so wrapping a raw stream after the handshake loses nothing.
pub fn recv_frame<C: HomCipher, R: Read>(r: &mut R) -> Result<Frame<C>, NetError> {
    let bytes = frame::read_frame_bytes(r)?;
    Ok(codec::decode::<C>(&bytes)?)
}

/// Receives the next frames' bytes off a session stream: waits for the
/// first only, then takes every frame the read buffer holds in full — a
/// reader never waits on a partial frame while it holds whole ones.
pub(crate) fn recv_batch<R: Read>(r: &mut BufReader<R>) -> Result<Vec<Vec<u8>>, NetError> {
    let mut batch = vec![frame::read_frame_bytes(r)?];
    while let Some(len) = frame::complete_len(r.buffer()) {
        batch.extend(r.buffer().get(..len).map(<[u8]>::to_vec));
        r.consume(len);
    }
    Ok(batch)
}

/// A main loop's end of its reader threads' channel of batches.
pub(crate) struct Inbox<T> {
    rx: Receiver<Vec<T>>,
    batch: std::vec::IntoIter<T>,
}

impl<T> Inbox<T> {
    pub(crate) fn new(rx: Receiver<Vec<T>>) -> Self {
        Inbox { rx, batch: Vec::new().into_iter() }
    }

    /// The next message without waiting; `None` once the batch in hand
    /// and the channel are both empty: flush, then [`Inbox::wait`].
    pub(crate) fn ready(&mut self) -> Option<T> {
        self.batch.next().or_else(|| {
            self.batch = self.rx.try_recv().ok()?.into_iter();
            self.batch.next()
        })
    }

    /// Waits up to `timeout` for the next batch; takes its first message.
    pub(crate) fn wait(&mut self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.batch = self.rx.recv_timeout(timeout)?.into_iter();
        self.batch.next().ok_or(RecvTimeoutError::Timeout)
    }
}

/// The pause between two dial attempts.
const DIAL_PAUSE: Duration = Duration::from_millis(10);

/// Dials `addr` under `policy`: up to `policy.budget` attempts (at least
/// one), `DIAL_PAUSE` apart. Returns the stream (with `TCP_NODELAY`, so
/// phase barriers aren't Nagle-delayed) and the number of attempts spent.
pub fn dial(addr: &str, policy: &RetryPolicy) -> Result<(TcpStream, u32), NetError> {
    let attempts_cap = u32::try_from(policy.budget.max(1)).unwrap_or(u32::MAX);
    let mut attempt = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                return Ok((stream, attempt + 1));
            }
            Err(e) => {
                attempt += 1;
                if attempt >= attempts_cap {
                    return Err(NetError::Io(e));
                }
                std::thread::sleep(DIAL_PAUSE);
            }
        }
    }
}

/// What a node announces about itself when peering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloInfo {
    /// The dialer's resource id.
    pub resource: u32,
    /// True when resuming after a process restart.
    pub resumed: bool,
    /// Dial attempts the peer spent reaching us.
    pub attempts: u32,
}

/// Client side of the handshake: announce, await the ack, verify the
/// echo. Any mismatch is a typed [`NetError::Handshake`].
pub fn client_handshake<C: HomCipher>(
    stream: &mut TcpStream,
    session: u64,
    resource: u32,
    resumed: bool,
    attempts: u32,
) -> Result<(), NetError> {
    send_frame::<C, _>(stream, &Frame::Hello { session, resource, resumed, attempts })?;
    match recv_frame::<C, _>(stream)? {
        Frame::HelloAck { session: s, resource: r } if s == session && r == resource => Ok(()),
        Frame::HelloAck { .. } => Err(NetError::Handshake("ack echoed a different identity")),
        _ => Err(NetError::Handshake("expected a hello ack")),
    }
}

/// Server side of the handshake: read the hello (its header already
/// screened the wire version), check the session, ack. Returns who
/// peered.
pub fn server_handshake<C: HomCipher>(
    stream: &mut TcpStream,
    session: u64,
) -> Result<HelloInfo, NetError> {
    match recv_frame::<C, _>(stream)? {
        Frame::Hello { session: s, .. } if s != session => {
            Err(NetError::Handshake("peer belongs to a different session"))
        }
        Frame::Hello { resource, resumed, attempts, .. } => {
            send_frame::<C, _>(stream, &Frame::HelloAck { session, resource })?;
            stream.set_nodelay(true)?;
            Ok(HelloInfo { resource, resumed, attempts })
        }
        _ => Err(NetError::Handshake("expected a hello")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;
    use gridmine_paillier::MockCipher;
    use std::cell::RefCell;
    use std::io::{BufReader, Read};
    use std::net::TcpListener;
    use std::rc::Rc;

    /// A sink that counts `write` calls and keeps what they carried.
    #[derive(Clone, Default)]
    struct CountingSink(Rc<RefCell<(usize, Vec<u8>)>>);

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut seen = self.0.borrow_mut();
            seen.0 += 1;
            seen.1.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A source that counts `read` calls. Its bytes arrive in chunks: one
    /// `read` never returns bytes of two chunks, as if each had been
    /// written by its own flush.
    struct CountingSource {
        chunks: std::collections::VecDeque<std::io::Cursor<Vec<u8>>>,
        reads: usize,
    }

    impl Read for CountingSource {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            while let Some(chunk) = self.chunks.front_mut() {
                match chunk.read(buf)? {
                    0 => self.chunks.pop_front(),
                    n => return Ok(n),
                };
            }
            Ok(0)
        }
    }

    fn in_chunks(chunks: &[&[u8]]) -> BufReader<CountingSource> {
        let chunks = chunks.iter().map(|c| std::io::Cursor::new(c.to_vec())).collect();
        BufReader::with_capacity(STREAM_BUF, CountingSource { chunks, reads: 0 })
    }

    fn buffered(bytes: &[u8]) -> BufReader<CountingSource> {
        in_chunks(&[bytes])
    }

    fn heartbeats(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|nonce| codec::encode(&Frame::<MockCipher>::Heartbeat { nonce })).collect()
    }

    fn nonces(r: &mut BufReader<CountingSource>, n: u64) {
        for want in 0..n {
            match recv_frame::<MockCipher, _>(r).expect("queued frame") {
                Frame::Heartbeat { nonce } => assert_eq!(nonce, want),
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn queued_frames_reach_the_sink_in_one_write_and_read_back_in_one_read() {
        const N: u64 = 100;
        let sink = CountingSink::default();
        let mut w = FrameWriter::new(sink.clone());
        let mut expected = Vec::new();
        for nonce in 0..N {
            let f = Frame::<MockCipher>::Heartbeat { nonce };
            w.queue(&f).expect("queue");
            expected.extend_from_slice(&codec::encode(&f));
        }
        assert_eq!(sink.0.borrow().0, 0, "nothing reaches the sink before the flush");
        w.flush().expect("flush");
        assert_eq!(sink.0.borrow().0, 1, "one write carries every queued frame");
        assert_eq!(sink.0.borrow().1, expected, "the same bytes, in queue order");
        w.flush().expect("flush");
        assert_eq!(sink.0.borrow().0, 1, "a clean writer's flush writes nothing");

        // The read half: the same frames in the same order, the whole
        // batch brought in by one read, then a clean close.
        let mut r = buffered(&expected);
        nonces(&mut r, N);
        assert_eq!(r.get_ref().reads, 1);
        assert!(matches!(recv_frame::<MockCipher, _>(&mut r), Err(NetError::Closed)));
        // And handed over as one batch.
        let mut r = buffered(&expected);
        assert_eq!(recv_batch(&mut r).expect("batch"), heartbeats(N));
        assert_eq!(r.get_ref().reads, 1);
        assert!(matches!(recv_batch(&mut r), Err(NetError::Closed)));
    }

    #[test]
    fn a_batch_is_every_whole_frame_one_read_brought_in() {
        let frames = heartbeats(3);
        let half = frames[2].len() / 2;
        let (head, tail) = frames[2].split_at(half);
        let first = [frames[0].as_slice(), &frames[1], head].concat();
        let mut r = in_chunks(&[&first, tail]);
        assert_eq!(recv_batch(&mut r).expect("first batch"), frames[..2]);
        assert_eq!(r.get_ref().reads, 1, "the half frame did not make the reader wait");
        assert_eq!(recv_batch(&mut r).expect("second batch"), frames[2..]);
        assert_eq!(r.get_ref().reads, 2);
        assert!(matches!(recv_batch(&mut r), Err(NetError::Closed)));
    }

    #[test]
    fn a_long_burst_streams_out_before_the_flush() {
        let sink = CountingSink::default();
        let mut w = FrameWriter::new(sink.clone());
        let f = Frame::<MockCipher>::Obs { line: "x".repeat(1024) };
        let per_frame = codec::encode(&f).len();
        for _ in 0..STREAM_BUF / per_frame {
            w.queue(&f).expect("queue");
        }
        assert_eq!(sink.0.borrow().0, 0);
        w.queue(&f).expect("queue");
        let (writes, bytes) = sink.0.borrow().clone();
        assert_eq!(writes, 1, "pending past STREAM_BUF goes out on its own");
        assert_eq!(bytes.len() % per_frame, 0, "and only ever whole frames");
    }

    #[test]
    fn a_cut_inside_the_read_buffer_is_still_truncated() {
        let frames = heartbeats(3);
        let bytes = frames.concat();
        // Cut the last frame in its checksum, its payload and its header:
        // every cut sits inside what the reader buffered in its first
        // read.
        let last = bytes.len() / 3;
        for cut in [5, 12, last - 5] {
            let mut r = buffered(&bytes[..bytes.len() - cut]);
            nonces(&mut r, 2);
            let err = recv_frame::<MockCipher, _>(&mut r).expect_err("cut frame");
            assert!(matches!(err, NetError::Wire(WireError::Truncated)), "cut {cut}: {err:?}");
            // The batch reader hands over the whole frames, then the cut.
            let mut r = buffered(&bytes[..bytes.len() - cut]);
            assert_eq!(recv_batch(&mut r).expect("whole frames"), frames[..2]);
            let err = recv_batch(&mut r).expect_err("cut frame");
            assert!(matches!(err, NetError::Wire(WireError::Truncated)), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn an_inbox_hands_over_what_its_reader_sent_then_reads_its_hang_up_as_disconnected() {
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            tx.send(vec![1, 2]).expect("inbox open");
            tx.send(vec![3]).expect("inbox open");
        });
        reader.join().expect("join");
        let mut inbox = Inbox::new(rx);
        let wait = Duration::from_secs(5);
        assert_eq!(inbox.wait(wait), Ok(1));
        assert_eq!(inbox.ready(), Some(2));
        assert_eq!(inbox.ready(), Some(3));
        assert_eq!(inbox.ready(), None);
        assert_eq!(inbox.wait(wait), Err(RecvTimeoutError::Disconnected));
    }

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let dialer = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let (accepted, _) = listener.accept().expect("accept");
        (dialer.join().expect("join"), accepted)
    }

    #[test]
    fn handshake_agrees_on_both_sides() {
        let (mut client, mut server) = loopback_pair();
        let t = std::thread::spawn(move || {
            client_handshake::<MockCipher>(&mut client, 0xBEEF, 2, false, 1).expect("client")
        });
        let hello = server_handshake::<MockCipher>(&mut server, 0xBEEF).expect("server");
        t.join().expect("join");
        assert_eq!(hello, HelloInfo { resource: 2, resumed: false, attempts: 1 });
    }

    #[test]
    fn wrong_session_is_refused() {
        let (mut client, mut server) = loopback_pair();
        let t = std::thread::spawn(move || {
            // The hub drops the connection instead of acking, so the
            // client sees either a handshake error or a closed socket.
            client_handshake::<MockCipher>(&mut client, 0xDEAD, 0, false, 1)
        });
        let err = server_handshake::<MockCipher>(&mut server, 0xBEEF).expect_err("must refuse");
        assert!(matches!(err, NetError::Handshake(_)), "got {err:?}");
        drop(server);
        assert!(t.join().expect("join").is_err());
    }

    #[test]
    fn garbage_at_the_door_is_a_wire_error() {
        let (mut client, mut server) = loopback_pair();
        client.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
        drop(client);
        let err = server_handshake::<MockCipher>(&mut server, 1).expect_err("must refuse");
        assert!(matches!(err, NetError::Wire(_)), "got {err:?}");
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (mut client, mut server) = loopback_pair();
        send_frame::<MockCipher, _>(&mut client, &Frame::Heartbeat { nonce: 77 }).expect("send");
        match recv_frame::<MockCipher, _>(&mut server).expect("recv") {
            Frame::Heartbeat { nonce } => assert_eq!(nonce, 77),
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn dial_budget_is_finite_against_a_dead_port() {
        // Port 1 on loopback is essentially never listening; the dial
        // must give up after its budget, not spin forever.
        let policy = RetryPolicy { budget: 2, ..RetryPolicy::DEFAULT };
        let err = dial("127.0.0.1:1", &policy).expect_err("must fail");
        assert!(matches!(err, NetError::Io(_)));
    }
}
