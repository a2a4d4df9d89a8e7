//! The blocking client: handshake, grid submission, stats, shutdown.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};

use chainiq::RunResult;
use chainiq_bench::RunSpec;

use crate::proto::{
    self, decode_result, spec_key, ClientMsg, ServeError, ServeStats, ServerMsg, PROTO_VERSION,
};

/// A connected, handshaken client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// How the server answered a grid submission.
#[derive(Debug)]
pub enum Submission {
    /// The pending queue was full; nothing was enqueued. Resubmit the
    /// whole grid later.
    Busy {
        /// Jobs pending when the grid arrived.
        queued: u64,
        /// The configured queue depth.
        cap: u64,
    },
    /// Every job resolved.
    Done(GridReply),
}

/// A fully resolved grid.
#[derive(Debug)]
pub struct GridReply {
    /// Result images, in submission order — byte-identical for a given
    /// spec whatever the arrival order, worker count, or hit/miss path.
    pub images: Vec<Vec<u8>>,
}

impl GridReply {
    /// Decodes and validates every image against the specs that were
    /// submitted.
    ///
    /// # Errors
    /// [`ServeError::Proto`] if any image is corrupt or keyed for a
    /// different spec.
    pub fn decode(&self, specs: &[RunSpec]) -> Result<Vec<RunResult>, ServeError> {
        if specs.len() != self.images.len() {
            return Err(ServeError::Proto(format!(
                "{} images for {} specs",
                self.images.len(),
                specs.len()
            )));
        }
        specs
            .iter()
            .zip(&self.images)
            .map(|(spec, image)| decode_result(image, spec_key(spec), spec.sample))
            .collect()
    }
}

impl Client {
    /// Connects and performs the version handshake.
    ///
    /// # Errors
    /// [`ServeError::Io`] on connection failure, [`ServeError::Remote`]
    /// if the server refuses the handshake, [`ServeError::Proto`] on a
    /// version mismatch.
    pub fn connect(addr: SocketAddr) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        drop(stream.set_nodelay(true));
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut client = Client { reader, writer };
        client.send(&ClientMsg::Hello { version: PROTO_VERSION })?;
        match client.recv()? {
            ServerMsg::HelloAck { version } if version == PROTO_VERSION => Ok(client),
            ServerMsg::HelloAck { version } => Err(ServeError::Proto(format!(
                "server speaks protocol {version}, this client speaks {PROTO_VERSION}"
            ))),
            ServerMsg::Error(m) => Err(ServeError::Remote(m)),
            other => Err(ServeError::Proto(format!("unexpected handshake reply: {other:?}"))),
        }
    }

    /// Submits a grid and blocks until it is refused (`Busy`) or fully
    /// resolved.
    ///
    /// # Errors
    /// [`ServeError::Remote`] if the server reports an error,
    /// [`ServeError::Proto`]/[`ServeError::Io`] on wire trouble.
    pub fn submit(&mut self, specs: &[RunSpec]) -> Result<Submission, ServeError> {
        self.send(&ClientMsg::Submit(specs.to_vec()))?;
        let mut images: Vec<Option<Vec<u8>>> = vec![None; specs.len()];
        loop {
            match self.recv()? {
                ServerMsg::Busy { queued, cap } => return Ok(Submission::Busy { queued, cap }),
                ServerMsg::Result { index, image } => {
                    let slot = images.get_mut(index as usize).ok_or_else(|| {
                        ServeError::Proto(format!("result index {index} out of range"))
                    })?;
                    *slot = Some(image);
                }
                ServerMsg::GridDone { total } => {
                    if total as usize != specs.len() {
                        return Err(ServeError::Proto(format!(
                            "grid of {} answered with {total} results",
                            specs.len()
                        )));
                    }
                    let images = images
                        .into_iter()
                        .enumerate()
                        .map(|(i, img)| {
                            img.ok_or_else(|| ServeError::Proto(format!("no result for job {i}")))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    return Ok(Submission::Done(GridReply { images }));
                }
                ServerMsg::Error(m) => return Err(ServeError::Remote(m)),
                other => {
                    return Err(ServeError::Proto(format!("unexpected reply: {other:?}")));
                }
            }
        }
    }

    /// Fetches the daemon counters.
    ///
    /// # Errors
    /// [`ServeError::Remote`] or wire errors, as for [`Client::submit`].
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        self.send(&ClientMsg::Stats)?;
        match self.recv()? {
            ServerMsg::Stats(stats) => Ok(stats),
            ServerMsg::Error(m) => Err(ServeError::Remote(m)),
            other => Err(ServeError::Proto(format!("unexpected stats reply: {other:?}"))),
        }
    }

    /// Asks the daemon to drain and exit; returns its final counters.
    ///
    /// # Errors
    /// [`ServeError::Remote`] or wire errors, as for [`Client::submit`].
    pub fn shutdown(mut self) -> Result<ServeStats, ServeError> {
        self.send(&ClientMsg::Shutdown)?;
        match self.recv()? {
            ServerMsg::Stats(stats) => Ok(stats),
            ServerMsg::Error(m) => Err(ServeError::Remote(m)),
            other => Err(ServeError::Proto(format!("unexpected shutdown reply: {other:?}"))),
        }
    }

    fn send(&mut self, msg: &ClientMsg) -> Result<(), ServeError> {
        proto::write_frame(&mut self.writer, &msg.encode())
    }

    fn recv(&mut self) -> Result<ServerMsg, ServeError> {
        ServerMsg::decode(&proto::read_frame(&mut self.reader)?)
    }
}
