//! The p = 4 096 row: broadcasts on a 64×64 mesh — eight times the
//! largest `sim-mesh` world — on the default path, every byte checked
//! and the virtual time repeated bit for bit. It prints the host time of
//! each run and the process's peak resident set. A few hundred MB and
//! 4 096 rank threads; slow in a debug build, so `ci.sh` runs it in
//! release.

use intercom::Communicator;
use intercom_cost::MachineParams;
use intercom_meshsim::{simulate, SimConfig};
use intercom_topology::Mesh2D;
use std::time::Instant;

/// Byte `i` of the broadcast of `bytes` bytes.
fn byte(bytes: usize, i: usize) -> u8 {
    (i * 7 + bytes) as u8
}

/// One broadcast of `bytes` bytes from rank 0 of a 64×64 mesh: its
/// virtual time, once every rank has checked every byte it got.
fn bcast(bytes: usize) -> f64 {
    let mesh = Mesh2D::new(64, 64);
    let cfg = SimConfig::new(mesh, MachineParams::PARAGON);
    let report = simulate(&cfg, |c| {
        let cc = Communicator::world_on_mesh(c, MachineParams::PARAGON, mesh).unwrap();
        let mut buf = vec![0u8; bytes];
        if cc.rank() == 0 {
            buf.iter_mut()
                .enumerate()
                .for_each(|(i, b)| *b = byte(bytes, i));
        }
        cc.bcast(0, &mut buf).unwrap();
        buf.iter().enumerate().all(|(i, &b)| b == byte(bytes, i))
    });
    assert!(
        report.results.iter().all(|&ok| ok),
        "{bytes} B: a wrong byte"
    );
    report.elapsed
}

/// This process's peak resident set in MB, where `/proc` tells it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
#[ignore = "4 096 rank threads: run in release (ci.sh)"]
fn the_p4096_broadcasts_deliver_every_byte_and_repeat_their_virtual_time() {
    let mut repeated = 0;
    for bytes in [8, 64 << 10] {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let t0 = Instant::now();
            let virt = bcast(bytes);
            runs.push((virt, t0.elapsed().as_secs_f64()));
        }
        let [(first, host0), (second, host1)] = runs[..] else {
            unreachable!("two runs")
        };
        assert_eq!(first.to_bits(), second.to_bits(), "{bytes} B");
        println!("p=4096 bcast {bytes} B: virtual {first:e} s, host {host0:.2} s and {host1:.2} s");
        repeated += 1;
    }
    if let Some(mb) = peak_rss_mb() {
        println!("p=4096 peak RSS (VmHWM): {mb:.0} MB");
    }
    println!("p=4096 rows: {repeated} of 2 repeat bit for bit");
}
