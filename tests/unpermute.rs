//! A collect's block un-permutation, in place: one call on the direct
//! path, one step in a compiled program.
//!
//! Both run one function; these tests hold what it does (block `q` of
//! a slot-ordered vector ends at position `q`, byte for byte what the
//! block-by-block copies it replaced produced), what it touches (one
//! block of scratch, nothing past it) and what it costs a program (one
//! step, however many blocks it moves).

use intercom::comm::{GroupComm, SelfComm};
use intercom::ir::{
    cost_op, global_cache, ArgBuf, BoundProgram, Buf, CollectiveProgram, Loc, PlanKey, PlanOp,
    RankProgram, Step, StepAction, StepKind,
};
use intercom::trace::RecordingComm;
use intercom::{Communicator, ReduceOp};
use intercom_cost::MachineParams;
use intercom_topology::{factor::factorizations, Mesh2D};

/// The radices of the five `sim-mesh` allgather rows: 16×32 at 8 B,
/// 64 KiB and 1 MiB, and 15×30 at 8 B and 64 KiB (which share theirs).
const ROW_RADICES: [&[usize]; 4] = [
    &[2; 9],
    &[2, 4, 4, 2, 2, 2, 2],
    &[2, 16, 2, 2, 4],
    &[2, 3, 5, 3, 5],
];

/// The radices of `cpu-p64`'s allgathers and reduce-scatters: the 8×8
/// mesh's 64 B allgather and its hybrids, and the 30-rank line's.
const CPU_P64_RADICES: [&[usize]; 4] = [&[2; 6], &[2, 4, 2, 4], &[2, 15], &[2, 3, 5]];

/// Block lengths in bytes: one byte, an odd length, a word, and the
/// 1 MiB row's 2 KiB.
const BLOCKS: [usize; 4] = [1, 3, 8, 2048];

/// What a scratch word nobody wrote holds.
const POISON: u64 = 0x5a5a_5a5a_5a5a_5a5a;

/// Slot of rank `r` under `dims`, from its definition: the big-endian
/// mixed-radix number whose digits are `r`'s little-endian ones.
fn slot(dims: &[usize], mut r: usize) -> usize {
    let mut vol: usize = dims.iter().product();
    let mut slot = 0;
    for &d in dims {
        vol /= d;
        slot += r % d * vol;
        r /= d;
    }
    slot
}

/// Every ordered factorization of every p ≤ 64 into more than one
/// factor, the rows' and `cpu-p64`'s radices, and three groups past the
/// 4 096 blocks whose slots the permutation tables on its stack (beyond
/// them it finds a cycle's smallest block by walking the cycle).
fn cases() -> Vec<Vec<usize>> {
    let mut cases: Vec<Vec<usize>> = (2..=64)
        .flat_map(|p| factorizations(p, 0))
        .filter(|dims| dims.len() > 1)
        .collect();
    cases.extend(
        ROW_RADICES
            .iter()
            .chain(&CPU_P64_RADICES)
            .map(|r| r.to_vec()),
    );
    cases.extend([vec![2; 13], vec![65, 64], vec![7, 11, 61]]);
    cases
}

/// A slot-ordered vector of `p` blocks of `b` bytes, every byte naming
/// its block and place, and what the block-by-block copies left of it:
/// block `q` is the one at slot `slot(dims, q)`.
fn slot_ordered(dims: &[usize], b: usize) -> (Vec<u8>, Vec<u8>) {
    let p: usize = dims.iter().product();
    let all: Vec<u8> = (0..p * b)
        .map(|i| (i / b * 131 + i % b * 7) as u8)
        .collect();
    let mut want = vec![0; p * b];
    for q in 0..p {
        let s = slot(dims, q);
        want[q * b..(q + 1) * b].copy_from_slice(&all[s * b..(s + 1) * b]);
    }
    (all, want)
}

/// A one-rank program whose only step un-permutes argument 0 under
/// `dims`, holding its block at the start of the arena.
fn permute_program(dims: &[usize], b: usize) -> CollectiveProgram {
    let p: usize = dims.iter().product();
    let loc = |buf, len: usize| Loc {
        buf,
        off: 0,
        len: len as u32,
    };
    let step = StepKind::Permute {
        region: loc(Buf::Arg(0), p * b),
        held: loc(Buf::Scratch, b),
        radices: 0,
    };
    CollectiveProgram {
        plan_id: 1,
        op: PlanOp::Broadcast { root: 0 },
        p: 1,
        n: p * b,
        elem_size: 1,
        strategy: None,
        hier: None,
        ranks: vec![RankProgram {
            steps: vec![Step { kind: step }],
            scratch_bytes: b,
            landing_bytes: 0,
        }],
        radices: vec![dims.to_vec()],
        series: Default::default(),
    }
}

#[test]
fn the_in_place_permutation_equals_the_block_by_block_copies() {
    let gc = GroupComm::world(&SelfComm);
    for dims in cases() {
        for b in BLOCKS {
            let what = format!("{dims:?}, {b}-byte blocks");
            let (all, want) = slot_ordered(&dims, b);
            let held_words = b.div_ceil(8);
            // The direct path: an arena longer than one block keeps
            // every word past the block, and an empty one grows to the
            // block alone.
            for spare in [0, 64] {
                let mut got = all.clone();
                let mut scratch = vec![POISON; spare];
                gc.unpermute(&mut got, b, &dims, &mut scratch);
                assert!(got == want, "direct path, {what}");
                assert_eq!(scratch.len(), held_words.max(spare), "{what}");
                assert!(
                    scratch[held_words..].iter().all(|&w| w == POISON),
                    "scratch past the held block written, {what}"
                );
            }
            // The compiled step: the same bytes, from an arena of one
            // block.
            let prog = permute_program(&dims, b);
            let mut got = all.clone();
            let mut arena = Vec::new();
            {
                let args = &mut [ArgBuf::Out(&mut got[..])];
                let mut bound =
                    BoundProgram::new(&prog, 0, &[0], args, &mut arena, ReduceOp::Sum, 0).unwrap();
                let action = bound.step(0).unwrap();
                assert!(
                    matches!(action, StepAction::Permute { radices, .. } if radices == &dims[..]),
                    "{what}"
                );
            }
            assert!(got == want, "compiled step, {what}");
            assert_eq!(arena.len(), held_words, "{what}");
        }
    }
}

#[test]
fn wider_elements_permute_as_their_bytes() {
    let gc = GroupComm::world(&SelfComm);
    for dims in ROW_RADICES {
        let p: usize = dims.iter().product();
        let b = 3;
        let mut all: Vec<u64> = (0..p * b).map(|i| i as u64 * 0x0101_0101).collect();
        let want: Vec<u64> = (0..p * b)
            .map(|i| all[slot(dims, i / b) * b + i % b])
            .collect();
        gc.unpermute(&mut all, b, dims, &mut Vec::new());
        assert_eq!(all, want, "{dims:?}");
    }
}

#[test]
fn a_mesh_allgathers_program_moves_bytes_locally_in_two_steps() {
    // The 16×32 1 MiB row: 2 KiB blocks under the strategy the
    // selector picks there. Its permutation was 550-odd copies a rank.
    let (mesh, p, block) = (Mesh2D::new(16, 32), 512, 2048);
    let rec = RecordingComm::new(0, p);
    let cc = Communicator::world_on_mesh(&rec, MachineParams::PARAGON, mesh).unwrap();
    let op = PlanOp::Collect;
    let choice = cc.auto_choice(cost_op(op).unwrap(), op.cost_bytes(p, block, 1));
    let key = PlanKey::frozen(op, p, block, 1, Some(&choice));
    let prog = global_cache().get_or_compile(&key).unwrap();
    assert_eq!(prog.radices, [ROW_RADICES[2]], "one strategy, one entry");
    for (rank, rp) in prog.ranks.iter().enumerate() {
        // What is neither a transfer nor a clock step moves bytes.
        let clock = |k: &StepKind| matches!(k, StepKind::CallOverhead | StepKind::Compute { .. });
        let local = rp.steps.iter().map(|s| s.kind);
        let kinds: Vec<_> = local.filter(|k| !k.is_transfer() && !clock(k)).collect();
        assert!(
            matches!(
                kinds[..],
                [StepKind::Copy { .. }, StepKind::Permute { radices: 0, .. }]
            ),
            "rank {rank}: {kinds:?}"
        );
        assert!(
            rp.steps.len() <= 30,
            "rank {rank}: {} steps",
            rp.steps.len()
        );
    }
}

#[test]
fn cpu_p64s_allgathers_un_permute_in_one_step_holding_one_block() {
    // The benchmark's 64 B allgather on the 8×8 mesh and the 30-rank
    // line, under the strategy the selector picks for each.
    let worlds = [(Some(Mesh2D::new(8, 8)), 64), (None, 30)];
    for (mesh, p) in worlds {
        let rec = RecordingComm::new(0, p);
        let params = MachineParams::PARAGON;
        let cc = match mesh {
            Some(mesh) => Communicator::world_on_mesh(&rec, params, mesh).unwrap(),
            None => Communicator::world(&rec, params),
        };
        let (op, block) = (PlanOp::Collect, 64);
        let choice = cc.auto_choice(cost_op(op).unwrap(), op.cost_bytes(p, block, 1));
        let key = PlanKey::frozen(op, p, block, 1, Some(&choice));
        let prog = global_cache().get_or_compile(&key).unwrap();
        assert!(
            CPU_P64_RADICES.contains(&&prog.radices[0][..]),
            "p = {p}: {:?}",
            prog.radices
        );
        for (rank, rp) in prog.ranks.iter().enumerate() {
            let permutes: Vec<_> = rp
                .steps
                .iter()
                .filter_map(|s| match s.kind {
                    StepKind::Permute { held, .. } => Some(held),
                    _ => None,
                })
                .collect();
            assert!(
                matches!(permutes[..], [held] if held.buf == Buf::Scratch && held.len == 64),
                "p = {p}, rank {rank}: {permutes:?}"
            );
            assert_eq!(rp.scratch_bytes, 64, "p = {p}, rank {rank}");
        }
    }
}
