//! The four static invariant checks over a matched [`Schedule`].

use crate::schedule::Schedule;
use intercom::trace::{MemSpan, OpRecord};
use intercom_topology::{route_xy, Mesh2D};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// One violated invariant, with enough context to locate the offending
/// event(s).
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The rendezvous matcher stalled: a round completed no transfer
    /// while operations were still posted.
    Deadlock {
        /// Step at which the stall occurred.
        step: usize,
        /// Human-readable description of every stalled rank's posted op.
        stuck: Vec<String>,
        /// A wait-for cycle, when one was found.
        cycle: Option<Vec<usize>>,
    },
    /// A send and its matching receive disagree on the byte count
    /// (violates the paper's known-lengths mode).
    LengthMismatch {
        /// Step of the attempted match.
        step: usize,
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Bytes posted by the sender.
        sent: usize,
        /// Bytes expected by the receiver.
        expected: usize,
    },
    /// A rank used one port for two partners in the same step.
    MultiPort {
        /// Offending step.
        step: usize,
        /// Offending rank.
        rank: usize,
        /// `"send"` or `"recv"`.
        role: &'static str,
        /// The two-or-more partners contacted in that step.
        peers: Vec<usize>,
    },
    /// Two same-step byte-ranges of one rank overlap hazardously.
    BufferOverlap {
        /// Offending step.
        step: usize,
        /// Offending rank.
        rank: usize,
        /// `"read/write"` or `"write/write"`.
        kind: &'static str,
        /// First span.
        a: MemSpan,
        /// Second, overlapping span.
        b: MemSpan,
    },
    /// A single `sendrecv` call aliased its outgoing and incoming
    /// buffers (caught at the program level, before matching).
    AliasedExchange {
        /// Offending rank.
        rank: usize,
        /// Index of the record in the rank's program.
        op_index: usize,
    },
    /// A block un-permutation is malformed: its held block overlaps its
    /// region, or its region is not its radices' blocks of the held
    /// block (caught at the program level, before matching).
    BadPermutation {
        /// Offending rank.
        rank: usize,
        /// Index of the record in the rank's program.
        op_index: usize,
        /// What is wrong with it.
        what: &'static str,
    },
    /// Same-step messages share a directed physical link beyond the
    /// allowed bound.
    LinkConflict {
        /// Offending step.
        step: usize,
        /// Display form of the shared directed link.
        link: String,
        /// Messages simultaneously using the link.
        sharing: usize,
        /// Maximum sharing the machine/cost model permits here.
        bound: usize,
    },
    /// A recursion level's observed link sharing exceeds the §6 cost
    /// model's conflict factor for that dimension.
    ConflictFactorExceeded {
        /// Recursion level (`tag / LEVEL_TAG_STRIDE`).
        level: u64,
        /// Observed same-level per-link sharing.
        observed: usize,
        /// `⌈conflict_factor⌉` predicted by the cost model.
        predicted: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Deadlock { step, stuck, cycle } => {
                write!(f, "deadlock at step {step}: {}", stuck.join("; "))?;
                if let Some(c) = cycle {
                    let c: Vec<String> = c.iter().map(|r| r.to_string()).collect();
                    write!(f, " [wait cycle {}]", c.join(" -> "))?;
                }
                Ok(())
            }
            Violation::LengthMismatch {
                step,
                src,
                dst,
                tag,
                sent,
                expected,
            } => write!(
                f,
                "length mismatch at step {step}: {src}->{dst} tag {tag} sent {sent}B, receiver expected {expected}B"
            ),
            Violation::MultiPort {
                step,
                rank,
                role,
                peers,
            } => {
                let p: Vec<String> = peers.iter().map(|r| r.to_string()).collect();
                write!(
                    f,
                    "single-port violation at step {step}: rank {rank} {role}s to/from {{{}}}",
                    p.join(", ")
                )
            }
            Violation::BufferOverlap {
                step,
                rank,
                kind,
                a,
                b,
            } => write!(
                f,
                "buffer {kind} overlap at step {step} on rank {rank}: [{:#x}+{}] vs [{:#x}+{}]",
                a.addr, a.len, b.addr, b.len
            ),
            Violation::AliasedExchange { rank, op_index } => write!(
                f,
                "aliased sendrecv buffers on rank {rank} (program op {op_index})"
            ),
            Violation::BadPermutation {
                rank,
                op_index,
                what,
            } => write!(
                f,
                "malformed permutation on rank {rank} (program op {op_index}): {what}"
            ),
            Violation::LinkConflict {
                step,
                link,
                sharing,
                bound,
            } => write!(
                f,
                "link conflict at step {step}: {sharing} messages share link {link} (bound {bound})"
            ),
            Violation::ConflictFactorExceeded {
                level,
                observed,
                predicted,
            } => write!(
                f,
                "level {level} link sharing {observed} exceeds cost-model conflict factor {predicted}"
            ),
        }
    }
}

/// Groups a schedule's events into per-step slices (events are kept
/// sorted by step by the matcher).
fn by_step(s: &Schedule) -> impl Iterator<Item = (usize, &[crate::schedule::Event])> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < s.events.len() {
        let step = s.events[i].step;
        let j = s.events[i..]
            .iter()
            .position(|e| e.step != step)
            .map_or(s.events.len(), |k| i + k);
        out.push((step, &s.events[i..j]));
        i = j;
    }
    out.into_iter()
}

/// Invariant 2 — single-port compliance: within one step, no rank sends
/// to two partners or receives from two partners (§2's machine model
/// gives every node one send port and one receive port).
pub fn check_single_port(s: &Schedule) -> Vec<Violation> {
    let mut out = Vec::new();
    for (step, events) in by_step(s) {
        let mut sends: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut recvs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for e in events {
            sends.entry(e.src).or_default().push(e.dst);
            recvs.entry(e.dst).or_default().push(e.src);
        }
        for (rank, peers) in sends {
            if peers.len() > 1 {
                out.push(Violation::MultiPort {
                    step,
                    rank,
                    role: "send",
                    peers,
                });
            }
        }
        for (rank, peers) in recvs {
            if peers.len() > 1 {
                out.push(Violation::MultiPort {
                    step,
                    rank,
                    role: "recv",
                    peers,
                });
            }
        }
    }
    out
}

/// Invariant 4 — buffer-region safety: within one step, a rank's write
/// ranges never overlap each other or any of its read ranges. (Reads may
/// share bytes freely.)
pub fn check_buffer_safety(s: &Schedule) -> Vec<Violation> {
    let mut out = Vec::new();
    for (step, events) in by_step(s) {
        let mut reads: BTreeMap<usize, Vec<MemSpan>> = BTreeMap::new();
        let mut writes: BTreeMap<usize, Vec<MemSpan>> = BTreeMap::new();
        for e in events {
            reads.entry(e.src).or_default().push(e.read);
            writes.entry(e.dst).or_default().push(e.write);
        }
        for (&rank, ws) in &writes {
            for (i, a) in ws.iter().enumerate() {
                for b in &ws[i + 1..] {
                    if a.overlaps(b) {
                        out.push(Violation::BufferOverlap {
                            step,
                            rank,
                            kind: "write/write",
                            a: *a,
                            b: *b,
                        });
                    }
                }
                if let Some(rs) = reads.get(&rank) {
                    for b in rs {
                        if a.overlaps(b) {
                            out.push(Violation::BufferOverlap {
                                step,
                                rank,
                                kind: "read/write",
                                a: *a,
                                b: *b,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Program-level aliasing check: the two buffers of one `sendrecv` call
/// must never overlap, independent of how the schedule interleaves.
/// (Rust's borrow rules enforce this for safe callers; the check guards
/// the invariant against future `unsafe` shortcuts.)
pub fn check_program_aliasing(programs: &[Vec<OpRecord>]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (rank, prog) in programs.iter().enumerate() {
        for (op_index, op) in prog.iter().enumerate() {
            if let OpRecord::SendRecv { src, dst, .. } = op {
                if src.overlaps(dst) {
                    out.push(Violation::AliasedExchange { rank, op_index });
                }
            }
        }
    }
    out
}

/// Program-level permutation check: every block un-permutation holds
/// its one block outside the region it permutes, and that region is
/// exactly its radices' blocks of the held block — what the executor
/// refuses to run otherwise.
pub fn check_permutations(programs: &[Vec<OpRecord>]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (rank, prog) in programs.iter().enumerate() {
        for (op_index, op) in prog.iter().enumerate() {
            let OpRecord::Permute {
                region,
                held,
                radices,
            } = *op
            else {
                continue;
            };
            let blocks = radices.map(|r| r.blocks());
            let what = if held.len == 0 || held.overlaps(&region) {
                "its held block is empty or overlaps its region"
            } else if blocks.and_then(|b| b.checked_mul(held.len)) != Some(region.len) {
                "its block count disagrees with its radices"
            } else {
                continue;
            };
            out.push(Violation::BadPermutation {
                rank,
                op_index,
                what,
            });
        }
    }
    out
}

/// Link-sharing statistics from routing every event over the physical
/// mesh (invariant 3's raw data; the verdict against the cost model is
/// taken in [`crate::report`]).
#[derive(Debug, Clone, Default)]
pub struct LinkAnalysis {
    /// Maximum number of same-step messages sharing one directed link,
    /// across all steps and links. `<= 1` means conflict-free.
    pub max_sharing: usize,
    /// The step/link/count achieving `max_sharing` (when any event
    /// touched a link at all).
    pub worst: Option<(usize, String, usize)>,
    /// Maximum same-step sharing among events of the *same tag* — i.e.
    /// the same stage of the same recursion level — keyed by tag. This
    /// is the quantity the §6 conflict factors bound: the cost model
    /// accounts stages one at a time, so sharing between *different*
    /// stages (a scatter tail overlapping a collect head when blocking
    /// ranks drift apart) is pipeline skew, not a schedule conflict.
    pub per_tag_max: BTreeMap<u64, usize>,
}

/// Routes every event through XY wormhole paths on `mesh` (world rank
/// `r` lives on node `r`, the row-major mapping used by
/// `Communicator::world_on_mesh`) and tallies per-step directed-link
/// sharing.
pub fn analyze_links(s: &Schedule, mesh: &Mesh2D) -> LinkAnalysis {
    assert_eq!(
        s.p,
        mesh.nodes(),
        "schedule world size must equal mesh nodes"
    );
    let mut la = LinkAnalysis::default();
    for (step, events) in by_step(s) {
        let mut counts: HashMap<intercom_topology::LinkId, usize> = HashMap::new();
        let mut tag_counts: HashMap<(u64, intercom_topology::LinkId), usize> = HashMap::new();
        for e in events {
            for l in route_xy(mesh, e.src, e.dst) {
                *counts.entry(l).or_insert(0) += 1;
                *tag_counts.entry((e.tag, l)).or_insert(0) += 1;
            }
        }
        for (l, c) in counts {
            if c > la.max_sharing {
                la.max_sharing = c;
                la.worst = Some((step, l.to_string(), c));
            }
        }
        for ((tag, _), c) in tag_counts {
            let m = la.per_tag_max.entry(tag).or_insert(0);
            *m = (*m).max(c);
        }
    }
    la
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Event;
    use intercom::algorithms::LEVEL_TAG_STRIDE;

    fn ev(step: usize, src: usize, dst: usize, tag: u64) -> Event {
        Event {
            step,
            src,
            dst,
            tag,
            bytes: 4,
            read: MemSpan {
                addr: 0x1000 * (src + 1),
                len: 4,
            },
            write: MemSpan {
                addr: 0x1000 * (dst + 1) + 0x500,
                len: 4,
            },
        }
    }

    #[test]
    fn single_port_catches_double_send() {
        let s = Schedule {
            p: 4,
            steps: 1,
            events: vec![ev(0, 0, 1, 0), ev(0, 0, 2, 0)],
        };
        let v = check_single_port(&s);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            &v[0],
            Violation::MultiPort {
                rank: 0,
                role: "send",
                ..
            }
        ));
    }

    #[test]
    fn single_port_accepts_full_duplex() {
        // Sending and receiving at once is the model's full-duplex norm.
        let s = Schedule {
            p: 3,
            steps: 1,
            events: vec![ev(0, 0, 1, 0), ev(0, 2, 0, 0)],
        };
        assert!(check_single_port(&s).is_empty());
    }

    #[test]
    fn buffer_check_catches_read_write_overlap() {
        let mut e2 = ev(0, 1, 0, 0);
        // Rank 0 sends from [0x1000, +4] in ev(0,0,1); make its incoming
        // write overlap that read span.
        e2.write = MemSpan {
            addr: 0x1002,
            len: 4,
        };
        let s = Schedule {
            p: 2,
            steps: 1,
            events: vec![ev(0, 0, 1, 0), e2],
        };
        let v = check_buffer_safety(&s);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            &v[0],
            Violation::BufferOverlap {
                rank: 0,
                kind: "read/write",
                ..
            }
        ));
    }

    #[test]
    fn link_analysis_counts_shared_east_link() {
        // 1x4 array: 0->2 uses links 0E,1E; 1->3 uses 1E,2E — they share
        // 1E when simultaneous.
        let mesh = Mesh2D::new(1, 4);
        let s = Schedule {
            p: 4,
            steps: 1,
            events: vec![ev(0, 0, 2, 0), ev(0, 1, 3, 0)],
        };
        let la = analyze_links(&s, &mesh);
        assert_eq!(la.max_sharing, 2);
        // Sequential steps don't conflict.
        let s2 = Schedule {
            p: 4,
            steps: 2,
            events: vec![ev(0, 0, 2, 0), ev(1, 1, 3, 0)],
        };
        assert_eq!(analyze_links(&s2, &mesh).max_sharing, 1);
    }

    #[test]
    fn link_analysis_separates_stages() {
        let mesh = Mesh2D::new(1, 4);
        // Same-step sharing across *different* tags (stages): counted in
        // the overall max but not in either stage's own max.
        let s = Schedule {
            p: 4,
            steps: 1,
            events: vec![ev(0, 0, 2, 0), ev(0, 1, 3, LEVEL_TAG_STRIDE)],
        };
        let la = analyze_links(&s, &mesh);
        assert_eq!(la.max_sharing, 2);
        assert_eq!(la.per_tag_max.get(&0), Some(&1));
        assert_eq!(la.per_tag_max.get(&LEVEL_TAG_STRIDE), Some(&1));
    }

    #[test]
    fn permutation_check_flags_overlap_and_a_wrong_block_count() {
        use intercom::trace::Radices;
        let permute = |held: usize, radices: &[usize]| OpRecord::Permute {
            region: MemSpan { addr: 100, len: 24 },
            held: MemSpan { addr: held, len: 4 },
            radices: Radices::new(radices),
        };
        let whats = |op| -> Vec<&str> {
            let v = check_permutations(&[vec![OpRecord::CallOverhead, op]]);
            v.iter()
                .map(|v| match v {
                    Violation::BadPermutation {
                        rank: 0,
                        op_index: 1,
                        what,
                    } => *what,
                    other => panic!("{other}"),
                })
                .collect()
        };
        assert!(whats(permute(200, &[2, 3])).is_empty());
        assert!(whats(permute(200, &[3, 1, 2])).is_empty());
        assert_eq!(
            whats(permute(120, &[2, 3])),
            ["its held block is empty or overlaps its region"]
        );
        assert_eq!(
            whats(permute(200, &[2, 4])),
            ["its block count disagrees with its radices"]
        );
        assert_eq!(
            whats(permute(200, &[70_000, 2])),
            ["its block count disagrees with its radices"],
            "radices that do not fit a record count as wrong"
        );
    }

    #[test]
    fn aliasing_check_flags_overlapping_exchange() {
        let programs = vec![vec![OpRecord::SendRecv {
            to: 1,
            src: MemSpan { addr: 100, len: 8 },
            from: 1,
            dst: MemSpan { addr: 104, len: 8 },
            tag: 0,
        }]];
        let v = check_program_aliasing(&programs);
        assert_eq!(
            v,
            vec![Violation::AliasedExchange {
                rank: 0,
                op_index: 0
            }]
        );
    }
}
