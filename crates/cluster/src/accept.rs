//! The accept loop shared by [`crate::EngineNode`] and
//! [`crate::ShardRouter`]: a non-blocking listener polled against a
//! stop flag, one handler thread per accepted connection.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a blocked `accept`/`read` waits before re-checking the
/// stop flag.
pub(crate) const POLL: Duration = Duration::from_millis(50);

/// A bound listener and the threads serving its connections.
pub(crate) struct AcceptLoop {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    /// Handles of the connection threads not yet joined: the accept
    /// loop joins the finished ones at each accept, so this holds the
    /// live connections plus those that closed since the last accept.
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl AcceptLoop {
    /// Binds `listen` (port `0` picks a free port) and starts accepting.
    /// Each connection runs `handle(stream, stop)` on a thread named
    /// `{name}-conn-{peer}`; `stop` is raised by [`AcceptLoop::stop`].
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub(crate) fn bind<F>(listen: &str, name: &str, handle: F) -> io::Result<AcceptLoop>
    where
        F: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let handle = Arc::new(handle);
            let name = name.to_string();
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, peer)) => {
                                let handle = Arc::clone(&handle);
                                let stop = Arc::clone(&stop);
                                let conn = std::thread::Builder::new()
                                    .name(format!("{name}-conn-{peer}"))
                                    .spawn(move || handle(stream, &stop))
                                    .expect("spawn connection handler");
                                keep(&conns, conn);
                            }
                            Err(_) => std::thread::sleep(POLL),
                        }
                    }
                })
                .expect("spawn accept loop")
        };
        Ok(AcceptLoop {
            local_addr,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (read the ephemeral port back).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, raises every handler's stop flag and joins
    /// every connection thread.
    pub(crate) fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect(POISONED));
        for h in conns {
            let _ = h.join();
        }
    }
}

const POISONED: &str = "connection list lock poisoned";

/// Adds `conn` to `conns` and joins the threads there that have
/// finished: a finished thread's stack is freed only when it is joined.
fn keep(conns: &Mutex<Vec<JoinHandle<()>>>, conn: JoinHandle<()>) {
    let done: Vec<_> = {
        let mut conns = conns.lock().expect(POISONED);
        let (done, live) = conns.drain(..).partition(|h| h.is_finished());
        *conns = live;
        conns.push(conn);
        done
    };
    for h in done {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    /// Polls `cond` until it holds, failing after 10 s.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let t = Instant::now();
        while !cond() {
            assert!(t.elapsed() < Duration::from_secs(10), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn finished_connection_threads_are_joined_at_the_next_accept() {
        // The handler reads until the client closes, then counts.
        let closed = Arc::new(AtomicUsize::new(0));
        let acceptor = {
            let closed = Arc::clone(&closed);
            AcceptLoop::bind("127.0.0.1:0", "test", move |mut stream, _| {
                let _ = io::copy(&mut stream, &mut io::sink());
                closed.fetch_add(1, Ordering::SeqCst);
            })
            .expect("bind")
        };
        let handles = |finished: bool| {
            let conns = acceptor.conns.lock().unwrap();
            conns.iter().filter(|h| h.is_finished() == finished).count()
        };
        for _ in 0..32 {
            drop(TcpStream::connect(acceptor.local_addr()).expect("connect"));
        }
        wait_for("32 connections closed", || {
            closed.load(Ordering::SeqCst) == 32 && handles(false) == 0
        });
        // One more connection, held open: its accept must join every
        // finished thread.
        let live = TcpStream::connect(acceptor.local_addr()).expect("connect");
        wait_for("the live connection accepted", || handles(false) == 1);
        let retained = handles(true) + handles(false);
        assert!(
            retained <= 1,
            "{retained} handles kept for 1 live connection"
        );
        drop(live);
        acceptor.stop();
        assert_eq!(closed.load(Ordering::SeqCst), 33);
    }
}
