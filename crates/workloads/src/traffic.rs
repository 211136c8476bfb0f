//! Deterministic multi-tenant service traffic: many independent
//! clients issuing open/append/read/close mixes with heavy-tailed
//! arrival gaps.
//!
//! Where the kernel generators model one tightly-coupled MPI job, this
//! models the *loosely coupled* population a shared service instance
//! faces (Zhang et al., PAPERS.md): each simulated client runs its own
//! open → append… → close → open-read → read… → close lifecycle on its
//! own files, paced by bounded-Pareto inter-arrival gaps so a few
//! clients are bursty while most are quiet — the arrival shape that
//! makes per-tenant admission control earn its keep.
//!
//! Generation is pure and seeded: each client draws from its own
//! `SmallRng` keyed on `(seed, client)`, so the full event trace is
//! reproducible and insensitive to how many threads later replay it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One client-issued service operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOp {
    /// Open file `file` (client-relative id) for writing.
    OpenWrite {
        /// Client-relative file id.
        file: u32,
    },
    /// Append `len` bytes at logical `offset` on the open writer.
    Append {
        /// Logical file offset.
        offset: u64,
        /// Bytes to append.
        len: u64,
    },
    /// Close the currently open handle.
    Close,
    /// Open file `file` (client-relative id) for reading.
    OpenRead {
        /// Client-relative file id.
        file: u32,
    },
    /// Read `len` bytes at logical `offset` on the open reader.
    Read {
        /// Logical file offset.
        offset: u64,
        /// Bytes to read.
        len: u64,
    },
}

/// One timestamped op from one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficEvent {
    /// Nanoseconds since trace start at which the client issues the op.
    pub at_ns: u64,
    /// Issuing client (0-based).
    pub client: u32,
    /// Owning tenant (0-based; `client % tenants`).
    pub tenant: u32,
    /// The operation.
    pub op: ClientOp,
}

/// Shape of a traffic trace. `generate` turns one of these into a
/// deterministic event list.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Simulated concurrent clients.
    pub clients: u32,
    /// Tenants the clients are spread across (`client % tenants`).
    pub tenants: u32,
    /// Ops each client issues (its trace is cut off mid-lifecycle at
    /// this count; a dangling open is the crash-mid-stream case).
    pub ops_per_client: u32,
    /// Appends per write lifecycle (reads per read lifecycle match).
    pub appends_per_file: u32,
    /// Bytes per append.
    pub append_bytes: u64,
    /// Bytes per read.
    pub read_bytes: u64,
    /// Mean inter-op gap per client, nanoseconds.
    pub mean_gap_ns: u64,
    /// Pareto tail index for the gap distribution; smaller is
    /// heavier-tailed. Clamped to ≥ 1.05 (α ≤ 1 has no mean).
    pub alpha: f64,
    /// Trace seed. Same spec, same trace, always.
    pub seed: u64,
}

/// Per-client lifecycle state machine: open → N appends → close →
/// open-read → N reads → close, repeating over fresh files.
struct ClientWalk {
    rng: SmallRng,
    /// Next phase step within the current lifecycle.
    step: u32,
    /// Lifecycle file counter.
    file: u32,
    /// Next append offset within the current file.
    offset: u64,
    clock_ns: u64,
}

impl ClientWalk {
    fn new(spec: &TrafficSpec, client: u32) -> ClientWalk {
        let key = spec
            .seed
            .wrapping_add(u64::from(client).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ClientWalk {
            rng: SmallRng::seed_from_u64(key),
            step: 0,
            file: 0,
            offset: 0,
            clock_ns: 0,
        }
    }

    /// Bounded-Pareto inter-op gap: `xm * u^(-1/α)` capped at 100× the
    /// mean, with `xm` chosen so the uncapped mean is `mean_gap_ns`.
    fn gap_ns(&mut self, spec: &TrafficSpec) -> u64 {
        let alpha = spec.alpha.max(1.05);
        let mean = spec.mean_gap_ns.max(1) as f64;
        let xm = mean * (alpha - 1.0) / alpha;
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = xm * u.powf(-1.0 / alpha);
        gap.min(mean * 100.0) as u64
    }

    fn next_op(&mut self, spec: &TrafficSpec) -> ClientOp {
        let n = spec.appends_per_file;
        let op = match self.step {
            0 => ClientOp::OpenWrite { file: self.file },
            s if s <= n => {
                let offset = self.offset;
                self.offset += spec.append_bytes;
                ClientOp::Append {
                    offset,
                    len: spec.append_bytes,
                }
            }
            s if s == n + 1 => ClientOp::Close,
            s if s == n + 2 => ClientOp::OpenRead { file: self.file },
            s if s <= 2 * n + 2 => {
                let written = u64::from(n) * spec.append_bytes;
                let len = spec.read_bytes.min(written).max(1);
                let slots = written.saturating_sub(len) / len.max(1) + 1;
                let offset = self.rng.gen_range(0..slots) * len;
                ClientOp::Read { offset, len }
            }
            _ => ClientOp::Close,
        };
        self.step += 1;
        if self.step > 2 * n + 3 {
            // Lifecycle complete: next file, fresh offsets.
            self.step = 0;
            self.file += 1;
            self.offset = 0;
        }
        op
    }
}

/// Generate the full event trace for `spec`, sorted by issue time
/// (ties broken by client id). Pure: same spec in, same trace out.
pub fn generate(spec: &TrafficSpec) -> Vec<TrafficEvent> {
    let tenants = spec.tenants.max(1);
    let mut events =
        Vec::with_capacity(spec.clients as usize * spec.ops_per_client as usize);
    for client in 0..spec.clients {
        let mut walk = ClientWalk::new(spec, client);
        for _ in 0..spec.ops_per_client {
            walk.clock_ns += walk.gap_ns(spec);
            events.push(TrafficEvent {
                at_ns: walk.clock_ns,
                client,
                tenant: client % tenants,
                op: walk.next_op(spec),
            });
        }
    }
    events.sort_by_key(|e| (e.at_ns, e.client));
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small smoke-test trace (64 clients, 8 tenants).
    fn smoke(seed: u64) -> TrafficSpec {
        TrafficSpec {
            clients: 64,
            tenants: 8,
            ops_per_client: 24,
            appends_per_file: 4,
            append_bytes: 4096,
            read_bytes: 4096,
            mean_gap_ns: 1_000,
            alpha: 1.5,
            seed,
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let spec = smoke(42);
        assert_eq!(generate(&spec), generate(&spec));
        let other = smoke(43);
        assert_ne!(generate(&spec), generate(&other));
    }

    #[test]
    fn trace_is_time_sorted_and_complete() {
        let spec = smoke(7);
        let events = generate(&spec);
        assert_eq!(events.len(), 64 * 24);
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        for e in &events {
            assert_eq!(e.tenant, e.client % spec.tenants);
        }
    }

    #[test]
    fn lifecycles_are_well_formed_per_client() {
        let mut spec = smoke(3);
        spec.clients = 4;
        spec.ops_per_client = 100;
        for client in 0..spec.clients {
            let mut open = false;
            for e in generate(&spec).iter().filter(|e| e.client == client) {
                match e.op {
                    ClientOp::OpenWrite { .. } | ClientOp::OpenRead { .. } => {
                        assert!(!open, "open while a handle is already open");
                        open = true;
                    }
                    ClientOp::Close => {
                        assert!(open, "close without an open handle");
                        open = false;
                    }
                    ClientOp::Append { .. } | ClientOp::Read { .. } => {
                        assert!(open, "I/O without an open handle");
                    }
                }
            }
        }
    }

    #[test]
    fn appends_are_sequential_per_file() {
        let mut spec = smoke(11);
        spec.clients = 1;
        spec.ops_per_client = 60;
        let mut expect = 0;
        for e in generate(&spec) {
            match e.op {
                ClientOp::Append { offset, len } => {
                    assert_eq!(offset, expect);
                    assert_eq!(len, spec.append_bytes);
                    expect += len;
                }
                ClientOp::OpenWrite { .. } => expect = 0,
                _ => {}
            }
        }
    }

    #[test]
    fn gaps_are_heavy_tailed_but_bounded() {
        let mut spec = smoke(5);
        spec.clients = 32;
        spec.ops_per_client = 200;
        let events = generate(&spec);
        let mut gaps = Vec::new();
        for client in 0..spec.clients {
            let times: Vec<u64> = events
                .iter()
                .filter(|e| e.client == client)
                .map(|e| e.at_ns)
                .collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            assert_eq!(times, sorted, "per-client issue times are monotone");
            gaps.extend(times.windows(2).map(|w| w[1] - w[0]));
        }
        let max = *gaps.iter().max().unwrap();
        let mean = gaps.iter().sum::<u64>() / gaps.len() as u64;
        assert!(max >= mean * 10, "tail events dwarf the mean gap");
        assert!(max <= spec.mean_gap_ns * 100, "cap bounds the tail");
    }
}
