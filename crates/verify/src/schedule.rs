//! The rendezvous matcher: turns per-rank symbolic programs into a
//! synchronous step-list, or reports deadlock.
//!
//! Semantics: every rank executes its program in order, blocking on one
//! operation at a time. A send half completes only when the destination
//! rank's current operation posts the matching receive (equal tag, the
//! named source) — *rendezvous* semantics, the conservative limit of the
//! paper's blocking model: a schedule that never stalls here is
//! deadlock-free under any amount of eager buffering. The two halves of a
//! `sendrecv` make progress independently (§2: "a processor can both
//! send and receive at the same time"), matching the library's
//! requirement on backends.
//!
//! Each matching round is one synchronous **step**: all transfers whose
//! send and receive are simultaneously posted at the start of the round
//! complete during it. A round that completes nothing while operations
//! remain posted is a deadlock, and the wait-for graph at that point is
//! reported (with a cycle, when one exists).

use crate::checks::Violation;
use intercom::trace::{MemSpan, OpRecord};
use intercom::Tag;

/// One matched transfer of the synchronous schedule.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Synchronous step (matching round) the transfer completes in.
    pub step: usize,
    /// Sending world rank.
    pub src: usize,
    /// Receiving world rank.
    pub dst: usize,
    /// Message tag.
    pub tag: Tag,
    /// Transfer length in bytes.
    pub bytes: usize,
    /// Bytes read on the sender (sender's address space).
    pub read: MemSpan,
    /// Bytes written on the receiver (receiver's address space).
    pub write: MemSpan,
}

/// A fully matched synchronous schedule. Events are ordered by step.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// World size.
    pub p: usize,
    /// Number of synchronous steps.
    pub steps: usize,
    /// All matched transfers, sorted by `step`.
    pub events: Vec<Event>,
}

/// One posted half of a rank's current operation. Shared with the
/// multi-program product matcher ([`crate::concurrent`]), which runs
/// the same rendezvous semantics over contexts from several programs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Half {
    pub(crate) peer: usize,
    pub(crate) tag: Tag,
    pub(crate) span: MemSpan,
}

/// A rank's current blocking operation: up to one send half and one
/// receive half (both for `sendrecv`). Empty = idle or finished.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Current {
    pub(crate) send: Option<Half>,
    pub(crate) recv: Option<Half>,
}

impl Current {
    pub(crate) fn done(&self) -> bool {
        self.send.is_none() && self.recv.is_none()
    }
}

/// Advances `pc` past accounting records to the next communication
/// operation and returns its halves (empty when the program is over).
pub(crate) fn load(program: &[OpRecord], pc: &mut usize) -> Current {
    while let Some(op) = program.get(*pc) {
        *pc += 1;
        match *op {
            OpRecord::Compute { .. }
            | OpRecord::CallOverhead
            | OpRecord::Copy { .. }
            | OpRecord::Reduce { .. }
            | OpRecord::Permute { .. } => {}
            OpRecord::Send { to, tag, src } => {
                return Current {
                    send: Some(Half {
                        peer: to,
                        tag,
                        span: src,
                    }),
                    recv: None,
                }
            }
            OpRecord::Recv { from, tag, dst } => {
                return Current {
                    send: None,
                    recv: Some(Half {
                        peer: from,
                        tag,
                        span: dst,
                    }),
                }
            }
            OpRecord::SendRecv {
                to,
                src,
                from,
                dst,
                tag,
            } => {
                return Current {
                    send: Some(Half {
                        peer: to,
                        tag,
                        span: src,
                    }),
                    recv: Some(Half {
                        peer: from,
                        tag,
                        span: dst,
                    }),
                }
            }
        }
    }
    Current::default()
}

/// Matches per-rank programs into a synchronous [`Schedule`], or returns
/// the deadlock / length-mismatch violation that prevents it.
pub fn match_programs(programs: &[Vec<OpRecord>]) -> Result<Schedule, Violation> {
    let p = programs.len();
    let mut pc = vec![0usize; p];
    let mut cur: Vec<Current> = (0..p).map(|r| load(&programs[r], &mut pc[r])).collect();
    let mut events = Vec::new();
    let mut step = 0usize;
    loop {
        if cur.iter().all(Current::done) {
            break;
        }
        // Matches are decided against the round-start state: a pair
        // completes this step iff both halves were already posted.
        let mut matched: Vec<(usize, usize)> = Vec::new();
        for s in 0..p {
            if let Some(sh) = cur[s].send {
                if let Some(rh) = cur[sh.peer].recv {
                    if rh.peer == s && rh.tag == sh.tag {
                        if sh.span.len != rh.span.len {
                            return Err(Violation::LengthMismatch {
                                step,
                                src: s,
                                dst: sh.peer,
                                tag: sh.tag,
                                sent: sh.span.len,
                                expected: rh.span.len,
                            });
                        }
                        matched.push((s, sh.peer));
                    }
                }
            }
        }
        if matched.is_empty() {
            return Err(deadlock(step, &cur));
        }
        for &(s, r) in &matched {
            let sh = cur[s].send.take().expect("matched send half present");
            let rh = cur[r].recv.take().expect("matched recv half present");
            events.push(Event {
                step,
                src: s,
                dst: r,
                tag: sh.tag,
                bytes: sh.span.len,
                read: sh.span,
                write: rh.span,
            });
        }
        for r in 0..p {
            if cur[r].done() {
                cur[r] = load(&programs[r], &mut pc[r]);
            }
        }
        step += 1;
    }
    Ok(Schedule {
        p,
        steps: step,
        events,
    })
}

/// Builds the deadlock report: a description of every stalled rank plus
/// a wait-for cycle when following each rank's first pending half finds
/// one (a stall without a cycle means a rank waits on a peer whose
/// program already finished).
fn deadlock(step: usize, cur: &[Current]) -> Violation {
    let p = cur.len();
    let mut stuck = Vec::new();
    let mut waits: Vec<Option<usize>> = vec![None; p];
    for (r, c) in cur.iter().enumerate() {
        if c.done() {
            continue;
        }
        let mut desc = format!("rank {r}:");
        if let Some(h) = c.send {
            desc.push_str(&format!(
                " send(to={}, tag={}, {}B)",
                h.peer, h.tag, h.span.len
            ));
            waits[r] = Some(h.peer);
        }
        if let Some(h) = c.recv {
            desc.push_str(&format!(
                " recv(from={}, tag={}, {}B)",
                h.peer, h.tag, h.span.len
            ));
            if waits[r].is_none() {
                waits[r] = Some(h.peer);
            }
        }
        stuck.push(desc);
    }
    // Walk first-pending-half edges from the lowest stuck rank; a repeat
    // visit closes a cycle. (Heuristic: a cycle through second halves is
    // still reported as a stall, just without the explicit cycle.)
    let mut cycle = None;
    if let Some(start) = waits.iter().position(Option::is_some) {
        let mut order = vec![usize::MAX; p];
        let mut path = Vec::new();
        let mut at = start;
        while let Some(next) = waits[at] {
            if order[at] != usize::MAX {
                cycle = Some(path[order[at]..].to_vec());
                break;
            }
            order[at] = path.len();
            path.push(at);
            at = next;
        }
    }
    Violation::Deadlock { step, stuck, cycle }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(addr: usize, len: usize) -> MemSpan {
        MemSpan { addr, len }
    }

    #[test]
    fn simple_send_recv_matches_in_one_step() {
        let programs = vec![
            vec![OpRecord::Send {
                to: 1,
                tag: 3,
                src: span(0, 8),
            }],
            vec![OpRecord::Recv {
                from: 0,
                tag: 3,
                dst: span(100, 8),
            }],
        ];
        let s = match_programs(&programs).unwrap();
        assert_eq!(s.steps, 1);
        assert_eq!(s.events.len(), 1);
        assert_eq!((s.events[0].src, s.events[0].dst), (0, 1));
    }

    #[test]
    fn ring_exchange_matches_symmetrically() {
        // 3-rank ring: everyone sendrecvs right/left — all three
        // transfers complete in step 0.
        let programs: Vec<Vec<OpRecord>> = (0..3)
            .map(|me: usize| {
                vec![OpRecord::SendRecv {
                    to: (me + 1) % 3,
                    src: span(me * 1000, 4),
                    from: (me + 2) % 3,
                    dst: span(me * 1000 + 500, 4),
                    tag: 0,
                }]
            })
            .collect();
        let s = match_programs(&programs).unwrap();
        assert_eq!(s.steps, 1);
        assert_eq!(s.events.len(), 3);
    }

    #[test]
    fn tag_mismatch_deadlocks_with_report() {
        let programs = vec![
            vec![OpRecord::Send {
                to: 1,
                tag: 5,
                src: span(0, 8),
            }],
            vec![OpRecord::Recv {
                from: 0,
                tag: 6,
                dst: span(100, 8),
            }],
        ];
        match match_programs(&programs) {
            Err(Violation::Deadlock { stuck, .. }) => {
                assert_eq!(stuck.len(), 2);
                assert!(stuck[0].contains("tag=5"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn cyclic_sends_report_cycle() {
        // 0 sends to 1, 1 sends to 0: under rendezvous neither receive is
        // posted — a two-cycle.
        let programs = vec![
            vec![
                OpRecord::Send {
                    to: 1,
                    tag: 0,
                    src: span(0, 4),
                },
                OpRecord::Recv {
                    from: 1,
                    tag: 0,
                    dst: span(50, 4),
                },
            ],
            vec![
                OpRecord::Send {
                    to: 0,
                    tag: 0,
                    src: span(0, 4),
                },
                OpRecord::Recv {
                    from: 0,
                    tag: 0,
                    dst: span(50, 4),
                },
            ],
        ];
        match match_programs(&programs) {
            Err(Violation::Deadlock { cycle, .. }) => {
                let mut c = cycle.expect("two-cycle expected");
                c.sort_unstable();
                assert_eq!(c, vec![0, 1]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn length_mismatch_reported() {
        let programs = vec![
            vec![OpRecord::Send {
                to: 1,
                tag: 0,
                src: span(0, 8),
            }],
            vec![OpRecord::Recv {
                from: 0,
                tag: 0,
                dst: span(100, 4),
            }],
        ];
        assert!(matches!(
            match_programs(&programs),
            Err(Violation::LengthMismatch {
                sent: 8,
                expected: 4,
                ..
            })
        ));
    }

    #[test]
    fn sendrecv_halves_complete_in_different_steps() {
        // Rank 0: sendrecv with 1 (send matches immediately, recv waits).
        // Rank 1: recv from 0 first, then send to 0.
        let programs = vec![
            vec![OpRecord::SendRecv {
                to: 1,
                src: span(0, 4),
                from: 1,
                dst: span(50, 4),
                tag: 0,
            }],
            vec![
                OpRecord::Recv {
                    from: 0,
                    tag: 0,
                    dst: span(0, 4),
                },
                OpRecord::Send {
                    to: 0,
                    tag: 0,
                    src: span(50, 4),
                },
            ],
        ];
        let s = match_programs(&programs).unwrap();
        assert_eq!(s.steps, 2);
        assert_eq!(s.events[0].step, 0);
        assert_eq!(s.events[1].step, 1);
    }

    #[test]
    fn empty_programs_empty_schedule() {
        let s = match_programs(&[vec![], vec![]]).unwrap();
        assert_eq!(s.steps, 0);
        assert!(s.events.is_empty());
    }
}
