//! A fixed reference kernel that measures how fast the host runs now.
//!
//! The benchmark gets a few cores of a shared host. While other work
//! on the host is busy, the same solve runs 25–45 % slower, for
//! stretches of tens of seconds, so a whole run can land in a slow
//! stretch. A latency-bound multiply chain does not slow down in those
//! stretches, but graph traversal does. The probe is such a traversal,
//! a bit-parallel and a scalar BFS over a fixed graph, and it is timed
//! right before every solve and around every set-up. The benchmark
//! reports each wall scaled by [`NOMINAL_MS`] ÷ the probe's wall, that
//! is, at the host speed at which the probe takes [`NOMINAL_MS`].
//!
//! The probe calls no library code, so a change to the library cannot
//! move it; it moves only with the host.

use std::time::Instant;

/// The probe's wall on a quiet 2-vCPU x86-64 host, in milliseconds:
/// the host speed every scaled wall is reported at.
pub const NOMINAL_MS: f64 = 2.0;

/// Nodes of the probe graph.
const NODES: usize = 4096;
/// Sources of the bit-parallel BFS, one bit each.
const BIT_SOURCES: usize = 64;
/// Sources of the scalar BFS.
const SCALAR_SOURCES: usize = 8;

/// The probe graph in CSR form: a ring plus one pseudo-random chord per
/// node, the same on every run.
pub struct Probe {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Probe {
    /// Builds the fixed probe graph.
    pub fn new() -> Probe {
        let mut state = 0x5eed_u64;
        let mut lists = vec![Vec::new(); NODES];
        for u in 0..NODES {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            for v in [(u + 1) % NODES, (state >> 33) as usize % NODES] {
                lists[u].push(v as u32);
                lists[v].push(u as u32);
            }
        }
        let mut offsets = vec![0];
        let mut targets = Vec::new();
        for l in &lists {
            targets.extend_from_slice(l);
            offsets.push(targets.len() as u32);
        }
        Probe { offsets, targets }
    }

    fn neighbours(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Runs the kernel and returns a checksum of the distances it found.
    pub fn run(&self) -> u64 {
        let mut checksum = 0;
        let mut seen = vec![0u64; NODES];
        let mut frontier = vec![0u64; NODES];
        let mut next = vec![0u64; NODES];
        for s in 0..BIT_SOURCES {
            let v = (s * 131) % NODES;
            seen[v] |= 1 << s;
            frontier[v] |= 1 << s;
        }
        let mut round = 0;
        loop {
            let mut grew = false;
            for (u, &bits) in frontier.iter().enumerate() {
                if bits == 0 {
                    continue;
                }
                for &v in self.neighbours(u) {
                    let new = bits & !seen[v as usize];
                    if new != 0 {
                        seen[v as usize] |= new;
                        next[v as usize] |= new;
                        checksum += round * u64::from(new.count_ones());
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
            next.fill(0);
            round += 1;
        }
        let mut dist = vec![u32::MAX; NODES];
        let mut queue = Vec::with_capacity(NODES);
        for s in 0..SCALAR_SOURCES {
            dist.fill(u32::MAX);
            queue.clear();
            let source = (s * 977) % NODES;
            dist[source] = 0;
            queue.push(source as u32);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &v in self.neighbours(u as usize) {
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = dist[u as usize] + 1;
                        queue.push(v);
                    }
                }
            }
            checksum += dist.iter().map(|&d| u64::from(d)).sum::<u64>();
        }
        checksum
    }

    /// Host nanoseconds of one run of the kernel.
    pub fn time_ns(&self) -> u64 {
        let start = Instant::now();
        std::hint::black_box(self.run());
        start.elapsed().as_nanos() as u64
    }
}

/// `wall_ns` in milliseconds, scaled to the host speed at which the
/// probe takes [`NOMINAL_MS`], given the probe's wall `probe_ns` at the
/// time.
pub fn scaled_ms(wall_ns: u64, probe_ns: u64) -> f64 {
    wall_ns as f64 / probe_ns as f64 * NOMINAL_MS
}
