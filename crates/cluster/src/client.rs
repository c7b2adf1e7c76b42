//! The sender side of the wire protocol: stream reports, account
//! refusals, collect merged drain replies.

use crate::codec::{
    decode_drain_reply, encode_request_parts, DrainReply, FrameKind, ResponseDecoder,
    ResponseStatus,
};
use deepcsi_frame::MacAddr;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Response-poll interval for the reader thread.
const POLL: Duration = Duration::from_millis(50);

/// Snapshot of a client's send/refusal accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientCounters {
    /// Report frames written.
    pub sent: u64,
    /// `BUSY` responses received (router queue full).
    pub busy: u64,
    /// `DROP` responses received (engine backpressure).
    pub dropped: u64,
    /// `REJECT` responses received (malformed payload or request).
    pub rejected: u64,
}

#[derive(Default)]
struct Shared {
    busy: AtomicU64,
    dropped: AtomicU64,
    rejected: AtomicU64,
    closed: AtomicBool,
}

/// A connection to an [`crate::EngineNode`] or [`crate::ShardRouter`]
/// — both speak the same protocol, so a client is oblivious to
/// whether it talks to one engine or a whole cluster.
pub struct ClusterClient {
    stream: TcpStream,
    seq: u32,
    sent: u64,
    shared: Arc<Shared>,
    inbox: Receiver<DrainReply>,
    reader: Option<JoinHandle<()>>,
}

impl ClusterClient {
    /// Connects to `addr` and starts the response reader.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: &str) -> io::Result<ClusterClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let shared = Arc::new(Shared::default());
        let (tx, inbox) = mpsc::channel();
        let reader = {
            let mut r = stream.try_clone()?;
            let _ = r.set_read_timeout(Some(POLL));
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cluster-client-read".into())
                .spawn(move || {
                    let mut decoder = ResponseDecoder::new();
                    let mut buf = [0u8; 16 * 1024];
                    loop {
                        if shared.closed.load(Ordering::Relaxed) {
                            break;
                        }
                        match r.read(&mut buf) {
                            Ok(0) => break,
                            Ok(n) => {
                                decoder.push(&buf[..n]);
                                loop {
                                    match decoder.try_next() {
                                        Ok(Some(resp)) => match resp.kind {
                                            FrameKind::Report => {
                                                let counter = match resp.status {
                                                    ResponseStatus::Busy => &shared.busy,
                                                    ResponseStatus::Drop => &shared.dropped,
                                                    ResponseStatus::Reject
                                                    | ResponseStatus::Ack => &shared.rejected,
                                                };
                                                counter.fetch_add(1, Ordering::Relaxed);
                                            }
                                            FrameKind::Drain | FrameKind::Shutdown => {
                                                if resp.status == ResponseStatus::Ack {
                                                    if let Ok(reply) =
                                                        decode_drain_reply(&resp.payload)
                                                    {
                                                        let _ = tx.send(reply);
                                                    }
                                                }
                                            }
                                        },
                                        Ok(None) => break,
                                        Err(_) => return,
                                    }
                                }
                            }
                            Err(e)
                                if e.kind() == io::ErrorKind::WouldBlock
                                    || e.kind() == io::ErrorKind::TimedOut =>
                            {
                                continue;
                            }
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn cluster client reader")
        };
        Ok(ClusterClient {
            stream,
            seq: 0,
            sent: 0,
            shared,
            inbox,
            reader: Some(reader),
        })
    }

    fn send(&mut self, kind: FrameKind, mac: MacAddr, payload: &[u8]) -> io::Result<u32> {
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        self.stream
            .write_all(&encode_request_parts(kind, seq, mac, payload))?;
        Ok(seq)
    }

    /// Streams one beamforming report (`mpdu` = raw 802.11 bytes,
    /// `mac` = its source address, the shard key).
    ///
    /// A blocking write *is* the lossless backpressure path: when the
    /// whole pipeline behind this socket is full, this call stalls.
    ///
    /// # Errors
    ///
    /// Returns the socket write error.
    pub fn send_report(&mut self, mac: MacAddr, mpdu: &[u8]) -> io::Result<()> {
        self.send(FrameKind::Report, mac, mpdu)?;
        self.sent += 1;
        Ok(())
    }

    /// Flushes the remote pipeline and returns its (merged) stats and
    /// per-device decisions.
    ///
    /// # Errors
    ///
    /// The socket write error, or `TimedOut` if no ack arrives within
    /// `timeout`.
    pub fn drain(&mut self, timeout: Duration) -> io::Result<DrainReply> {
        self.send(FrameKind::Drain, MacAddr::new([0; 6]), &[])?;
        self.wait_reply(timeout)
    }

    /// Drains, asks the remote end to stop serving, and returns the
    /// final reply.
    ///
    /// # Errors
    ///
    /// The socket write error, or `TimedOut` if no ack arrives within
    /// `timeout`.
    pub fn shutdown(&mut self, timeout: Duration) -> io::Result<DrainReply> {
        self.send(FrameKind::Shutdown, MacAddr::new([0; 6]), &[])?;
        self.wait_reply(timeout)
    }

    fn wait_reply(&self, timeout: Duration) -> io::Result<DrainReply> {
        match self.inbox.recv_timeout(timeout) {
            Ok(reply) => Ok(reply),
            Err(RecvTimeoutError::Timeout) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no drain reply within timeout",
            )),
            Err(RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "reader thread gone",
            )),
        }
    }

    /// Current send/refusal accounting. Responses arrive
    /// asynchronously; the counters are settled after a successful
    /// [`ClusterClient::drain`] (the ack is ordered behind every
    /// per-report response on the same socket).
    pub fn counters(&self) -> ClientCounters {
        ClientCounters {
            sent: self.sent,
            busy: self.shared.busy.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ClusterClient {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Relaxed);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}
