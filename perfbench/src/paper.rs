//! `paper_tables`: Tables 1–5 and Fig 10 at the paper's sizes.
//!
//! Tables 1–4 are rebuilt here from the libraries' public calls, as the
//! bench crate builds them, so that the seed can draw the Chaos
//! partition, the irregular mesh's edge list and the regular→irregular
//! mapping, and so that every call is timed and every output verified.
//! Table 5 has no random input and follows the bench crate's Table 5;
//! Fig 10 is the bench crate's `client_server`, timed from outside.  One
//! more world couples the regular mesh to a Tulip collection, the one
//! library no paper table uses.
//!
//! The paper's numbers are copied from the bench targets
//! `crates/bench/benches/table{1..5}.rs` (74 cells; Fig 10 has none).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mcsim::group::{Comm, Group};
use mcsim::model::MachineModel;
use mcsim::prelude::Endpoint;
use mcsim::world::{Runner, World};

use bench::clientserver::{break_even, client_server};
use bench::meshes::{edge_list, mesh_mapping};
use chaos::native_copy::{build_chaos_copy_schedule, chaos_copy};
use chaos::sweep::IrregularSweep;
use chaos::{IrregArray, Partition, TranslationTable};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::datamove::{data_move, data_move_recv, data_move_send};
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::Side;
use multiblock::native_move::{build_copy_schedule, parti_copy};
use multiblock::sweep::RegularSweep;
use multiblock::MultiblockArray;
use tulip::DistributedCollection;

use crate::harness::{digest_traces, mix, Cx, Values};
use crate::{Mode, WorldOut};

const GRID: [usize; 3] = [2, 4, 8];
const FIG10_SERVERS: [usize; 6] = [1, 2, 4, 8, 12, 16];
const MESH_SIDE: usize = 256;
const TABLE5_SIDE: usize = 1000;
const MATVEC_N: usize = 512;
const SWEEP_STEPS: usize = 2;
/// Program sizes of the Multiblock↔Tulip coupling.
const TULIP_PROCS: (usize, usize) = (4, 4);
/// Matrix size of the Fig 15 break-even check, as `tests/shape_checks.rs`.
const BREAK_EVEN_N: usize = 384;

/// Paper Table 1: procs → (inspector ms, executor ms per iteration).
const T1: [(usize, [f64; 2]); 4] = [
    (2, [1533.0, 91.0]),
    (4, [1340.0, 66.0]),
    (8, [667.0, 65.0]),
    (16, [684.0, 53.0]),
];
const T1_COLS: [&str; 2] = ["inspector", "executor"];
/// Paper Table 2: procs → chaos sched, chaos copy, coop sched, coop copy,
/// dup sched, dup copy (ms).
const T2: [(usize, [f64; 6]); 4] = [
    (2, [1099.0, 64.0, 1509.0, 71.0, 2768.0, 70.0]),
    (4, [830.0, 52.0, 832.0, 50.0, 1645.0, 50.0]),
    (8, [437.0, 38.0, 436.0, 32.0, 1025.0, 33.0]),
    (16, [215.0, 33.0, 215.0, 21.0, 745.0, 21.0]),
];
const T2_COLS: [&str; 6] = [
    "chaos_sched",
    "chaos_copy",
    "coop_sched",
    "coop_copy",
    "dup_sched",
    "dup_copy",
];
/// Paper Table 3 (schedule) and Table 4 (copy): `[P_reg][P_irreg]`, ms.
const T3: [[f64; 3]; 3] = [
    [1350.0, 726.0, 396.0],
    [1377.0, 738.0, 403.0],
    [1381.0, 718.0, 398.0],
];
const T4: [[f64; 3]; 3] = [[63.0, 61.0, 66.0], [55.0, 33.0, 36.0], [61.0, 32.0, 21.0]];
/// Paper Table 5: procs → parti sched, parti copy, coop sched, coop copy,
/// dup sched, dup copy (ms).
const T5: [(usize, [f64; 6]); 4] = [
    (2, [19.0, 467.0, 29.0, 396.0, 24.0, 396.0]),
    (4, [10.0, 195.0, 29.0, 198.0, 20.0, 198.0]),
    (8, [10.0, 101.0, 20.0, 102.0, 14.0, 102.0]),
    (16, [9.0, 53.0, 25.0, 52.0, 13.0, 52.0]),
];
const T5_COLS: [&str; 6] = [
    "parti_sched",
    "parti_copy",
    "coop_sched",
    "coop_copy",
    "dup_sched",
    "dup_copy",
];
const FIG10_COLS: [&str; 4] = ["sched", "matrix", "server", "vector"];

/// Every metric name this module reports.
pub fn metric_names() -> Vec<String> {
    let mut v = Vec::new();
    let tables: [(&str, &[&str]); 6] = [
        ("table1", &T1_COLS),
        ("table2", &T2_COLS),
        ("table3", &["sched"]),
        ("table4", &["copy"]),
        ("table5", &T5_COLS),
        ("fig10", &FIG10_COLS),
    ];
    for (t, cols) in tables {
        for c in cols {
            v.push(format!("paper.{t}.{c}_ms"));
        }
        if t != "fig10" {
            v.push(format!("paper.{t}.err_pct"));
        }
    }
    v.push("paper_err_pct".into());
    v
}

/// The seeded inputs shared by every world of a repetition.
struct Inputs {
    seed: u64,
    partition: Partition,
    edges: Vec<(usize, usize)>,
    perm: Vec<usize>,
    /// `inv[perm[k]] = k`.
    inv: Vec<usize>,
    /// Table 1 serial model: `y` after the sweep steps, by global index.
    sweep_ref: Vec<f64>,
    /// Values of the regular mesh of Tables 2–4.
    mesh: Values,
}

fn sweep_x(seed: u64, g: usize) -> f64 {
    (mix(seed ^ 0x5157 ^ g as u64) % 13) as f64
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let nodes = MESH_SIDE * MESH_SIDE;
        let edges = edge_list(nodes, 2 * nodes, mix(seed ^ 17));
        let perm = mesh_mapping(nodes, mix(seed ^ 23));
        let mut inv = vec![0; nodes];
        for (k, &g) in perm.iter().enumerate() {
            inv[g] = k;
        }
        // Each step adds 0.25 * (x[u] + x[v]) to both ends of every edge.
        // The values are multiples of 0.25 far below 2^50, so every sum is
        // exact in any order and the comparison can be bit for bit.
        let mut y = vec![0.0f64; nodes];
        for _ in 0..SWEEP_STEPS {
            for &(u, v) in &edges {
                let c = 0.25 * (sweep_x(seed, u) + sweep_x(seed, v));
                y[u] += c;
                y[v] += c;
            }
        }
        Inputs {
            seed,
            partition: Partition::Random(mix(seed ^ 11)),
            edges,
            perm,
            inv,
            sweep_ref: y,
            mesh: Values::new(seed, 2),
        }
    }

    fn mesh_value(&self, k: usize) -> f64 {
        self.mesh.at(k)
    }
}

/// Run a world whose ranks all execute `body` under a [`Cx`].
fn world<R: Send>(
    procs: usize,
    model: MachineModel,
    mode: Mode,
    origin: Instant,
    body: impl Fn(&mut Endpoint, &mut Cx) -> R + Send + Sync,
) -> (WorldOut, R) {
    let setup_from = Instant::now();
    let mut w = World::with_model(procs, model);
    if mode.trace_world {
        w = w.with_trace();
    }
    assert_eq!(w.runner(), Runner::Coop { workers: 1 });
    let run_entry = Instant::now();
    let out = w.run(|ep| {
        let mut cx = Cx::new(ep, origin, setup_from, run_entry);
        let r = body(ep, &mut cx);
        (cx.finish(), r)
    });
    let (outs, mut rs): (Vec<_>, Vec<_>) = out.results.into_iter().unzip();
    let mut wo = WorldOut::merge(outs);
    if mode.trace_world {
        wo.trace = Some(digest_traces(&out.traces, &wo.rank0.spans));
    }
    (wo, rs.swap_remove(0))
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// Table 1: the regular and irregular mesh sweeps in one program.
/// Returns (inspector ms, executor ms per iteration).
fn table1(inp: &Inputs, procs: usize, mode: Mode, origin: Instant) -> (WorldOut, [f64; 2]) {
    let side = MESH_SIDE;
    let nodes = side * side;
    world(procs, MachineModel::sp2(), mode, origin, |ep, cx| {
        let g = Group::world(procs);
        let mut a = MultiblockArray::<f64>::with_halo(&g, ep.rank(), &[side, side], 1);
        a.fill_with(|c| ((c[0] * 7 + c[1] * 3) % 13) as f64);
        let x = IrregArray::create(&mut Comm::new(ep, g.clone()), nodes, inp.partition, |gi| {
            sweep_x(inp.seed, gi)
        });
        let mut y = IrregArray::over_table(x.table().clone(), x.my_globals().to_vec(), |_| 0.0);
        let me = g.local_of(ep.rank()).expect("member");
        let chunk = inp.edges.len().div_ceil(procs);
        let lo = (me * chunk).min(inp.edges.len());
        let hi = ((me + 1) * chunk).min(inp.edges.len());

        let ((reg, irr), _) = cx.op(ep, "chaos.sweep.inspect", |ep| {
            let reg = RegularSweep::new(ep, &a);
            let irr =
                IrregularSweep::new(&mut Comm::new(ep, g.clone()), x.table(), &inp.edges[lo..hi]);
            (reg, irr)
        });
        let insp = cx.last_virt();
        let (_, id) = cx.op(ep, "chaos.sweep.step", |ep| {
            for _ in 0..SWEEP_STEPS {
                reg.step(ep, &mut a);
                irr.step(&mut Comm::new(ep, g.clone()), &x, &mut y);
            }
        });
        let exec = cx.last_virt() / SWEEP_STEPS as f64;
        let bad = y
            .my_globals()
            .iter()
            .zip(y.local())
            .filter(|(&gi, v)| v.to_bits() != inp.sweep_ref[gi].to_bits())
            .count();
        cx.check(id, bad == 0, || {
            format!("table1 P={procs}: {bad} swept values differ from the serial model")
        });
        [ms(insp), ms(exec)]
    })
}

/// Check that `x[perm[k]]` holds mesh value `k` on this rank.
fn check_remap(cx: &mut Cx, id: u64, inp: &Inputs, x: &IrregArray<f64>, what: &str) {
    let bad = x
        .my_globals()
        .iter()
        .zip(x.local())
        .filter(|(&gx, v)| v.to_bits() != inp.mesh_value(inp.inv[gx]).to_bits())
        .count();
    cx.check(id, bad == 0, || {
        format!("{what}: {bad} remapped values differ from the serial model")
    });
}

/// Check that `a`, zeroed before a return leg, holds the regular mesh's
/// values after it.
fn check_mesh(
    cx: &mut Cx,
    id: u64,
    inp: &Inputs,
    a: &MultiblockArray<f64>,
    side: usize,
    what: &str,
) {
    let (r, c) = (a.my_box()[0], a.my_box()[1]);
    let mut bad = 0;
    for i in r.0..r.1 {
        for j in c.0..c.1 {
            if a.get(&[i, j]).to_bits() != inp.mesh_value(i * side + j).to_bits() {
                bad += 1;
            }
        }
    }
    cx.check(id, bad == 0, || {
        format!("{what}: {bad} mesh values differ after the return leg")
    });
}

/// Table 2: remap the regular mesh to the irregular one and back, with
/// Chaos natively and with Meta-Chaos (cooperation, duplication).
fn table2(inp: &Inputs, procs: usize, mode: Mode, origin: Instant) -> (WorldOut, [f64; 6]) {
    let side = MESH_SIDE;
    let nodes = side * side;
    world(procs, MachineModel::sp2(), mode, origin, |ep, cx| {
        let g = Group::world(procs);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[side, side]);
        a.fill_with(|c| inp.mesh_value(c[0] * side + c[1]));
        let mut x =
            IrregArray::create(&mut Comm::new(ep, g.clone()), nodes, inp.partition, |_| 0.0);
        let mut globals = Vec::new();
        let b = a.my_box();
        for i in b[0].0..b[0].1 {
            for j in b[1].0..b[1].1 {
                globals.push(i * side + j);
            }
        }
        let table = TranslationTable::build(&mut Comm::new(ep, g.clone()), nodes, &globals);
        let mesh_as_chaos =
            IrregArray::over_table(Arc::new(table), globals, |gi| inp.mesh_value(gi));
        // The return legs land in zeroed copies of the source layouts, so
        // what they move is checked too.
        let mut chaos_back = IrregArray::over_table(
            mesh_as_chaos.table().clone(),
            mesh_as_chaos.my_globals().to_vec(),
            |_| 0.0,
        );
        let mut a_back = MultiblockArray::<f64>::new(&g, ep.rank(), &[side, side]);
        let src_map: Vec<usize> = (0..nodes).collect();
        let mut cells = [0.0; 6];

        let (chaos_sched, _) = cx.op(ep, "chaos.build", |ep| {
            build_chaos_copy_schedule(
                &mut Comm::new(ep, g.clone()),
                mesh_as_chaos.table(),
                &src_map,
                x.my_globals(),
                &inp.perm,
            )
        });
        cells[0] = cx.last_virt();
        let (_, id) = cx.move_op(ep, "chaos.copy", |ep| {
            let mut comm = Comm::new(ep, g.clone());
            chaos_copy(&mut comm, &chaos_sched, &mesh_as_chaos, &mut x);
            chaos_copy(&mut comm, &chaos_sched.reversed(), &x, &mut chaos_back);
        });
        cells[1] = cx.last_virt();
        check_remap(cx, id, inp, &x, "table2 chaos copy");
        let bad = chaos_back
            .my_globals()
            .iter()
            .zip(chaos_back.local())
            .filter(|(&gi, v)| v.to_bits() != inp.mesh_value(gi).to_bits())
            .count();
        cx.check(id, bad == 0, || {
            format!("table2 chaos copy: {bad} mesh values differ after the return leg")
        });

        let sset = SetOfRegions::single(RegularSection::whole(&[side, side]));
        let dset = SetOfRegions::single(IndexSet::new(inp.perm.clone()));
        let mut scheds = Vec::new();
        for (k, method) in [BuildMethod::Cooperation, BuildMethod::Duplication]
            .into_iter()
            .enumerate()
        {
            x.local_mut().fill(0.0);
            a_back.local_mut().fill(0.0);
            let (sched, id) = cx.op(ep, "meta_chaos.build", |ep| {
                compute_schedule(
                    ep,
                    &g,
                    &g,
                    Some(Side::new(&a, &sset)),
                    &g,
                    Some(Side::new(&x, &dset)),
                    method,
                )
            });
            cells[2 + 2 * k] = cx.last_virt();
            let sched = sched.unwrap_or_else(|e| panic!("table2 P={procs} {method:?} build: {e}"));
            cx.check(id, sched.total_elems == nodes, || {
                "table2 schedule size".into()
            });
            let (_, id) = cx.move_op(ep, "meta_chaos.move", |ep| {
                data_move(ep, &sched, &a, &mut x);
                data_move(ep, &sched.reversed(), &x, &mut a_back);
            });
            cells[3 + 2 * k] = cx.last_virt();
            check_remap(cx, id, inp, &x, "table2 meta-chaos copy");
            check_mesh(cx, id, inp, &a_back, side, "table2 meta-chaos copy");
            scheds.push(sched);
        }
        let id = cx.next_op();
        cx.check(
            id,
            scheds[0].sends == scheds[1].sends && scheds[0].recvs == scheds[1].recvs,
            || "table2: cooperation and duplication schedules differ".into(),
        );
        cells.map(ms)
    })
}

/// Tables 3 and 4: the mesh coupling as two programs.  Returns
/// (schedule ms, copy ms per iteration).
fn table34(
    inp: &Inputs,
    preg: usize,
    pirreg: usize,
    mode: Mode,
    origin: Instant,
) -> (WorldOut, [f64; 2]) {
    let side = MESH_SIDE;
    let nodes = side * side;
    world(
        preg + pirreg,
        MachineModel::sp2(),
        mode,
        origin,
        |ep, cx| {
            let (pa, pb, un) = Group::split_two(preg, pirreg, 64);
            let sset = SetOfRegions::single(RegularSection::whole(&[side, side]));
            let dset = SetOfRegions::single(IndexSet::new(inp.perm.clone()));
            let build = |ep: &mut Endpoint,
                         a: Option<&MultiblockArray<f64>>,
                         x: Option<&IrregArray<f64>>| {
                compute_schedule::<f64, MultiblockArray<f64>, IrregArray<f64>>(
                    ep,
                    &un,
                    &pa,
                    a.map(|a| Side::new(a, &sset)),
                    &pb,
                    x.map(|x| Side::new(x, &dset)),
                    BuildMethod::Cooperation,
                )
            };
            let mut cells = [0.0; 2];
            if pa.contains(ep.rank()) {
                let mut a = MultiblockArray::<f64>::new(&pa, ep.rank(), &[side, side]);
                a.fill_with(|c| inp.mesh_value(c[0] * side + c[1]));
                let mut a_back = MultiblockArray::<f64>::new(&pa, ep.rank(), &[side, side]);
                let (sched, _) = cx.op(ep, "meta_chaos.build", |ep| build(ep, Some(&a), None));
                cells[0] = cx.last_virt();
                let sched = sched.unwrap_or_else(|e| panic!("table3 build: {e}"));
                let (r, id) = cx.move_op(ep, "meta_chaos.move", |ep| {
                    data_move_send(ep, &sched, &a)?;
                    data_move_recv(ep, &sched.reversed(), &mut a_back)
                });
                cells[1] = cx.last_virt();
                cx.check(id, r.is_ok(), || format!("table4 move: {r:?}"));
                check_mesh(cx, id, inp, &a_back, side, "table4 copy");
            } else {
                let mut x = IrregArray::create(
                    &mut Comm::new(ep, pb.clone()),
                    nodes,
                    inp.partition,
                    |_| 0.0,
                );
                let (sched, _) = cx.op(ep, "meta_chaos.build", |ep| build(ep, None, Some(&x)));
                cells[0] = cx.last_virt();
                let sched = sched.unwrap_or_else(|e| panic!("table3 build: {e}"));
                let (r, id) = cx.move_op(ep, "meta_chaos.move", |ep| {
                    data_move_recv(ep, &sched, &mut x)?;
                    data_move_send(ep, &sched.reversed(), &x)
                });
                cells[1] = cx.last_virt();
                cx.check(id, r.is_ok(), || format!("table4 move: {r:?}"));
                check_remap(cx, id, inp, &x, "table4 copy");
            }
            cells.map(ms)
        },
    )
}

/// The regular mesh of Tables 3–4 coupled to a Tulip collection in a
/// second program, there and back.  Returns (schedule ms, copy ms).
fn tulip_coupling(inp: &Inputs, mode: Mode, origin: Instant) -> (WorldOut, [f64; 2]) {
    let side = MESH_SIDE;
    let nodes = side * side;
    let (preg, ptulip) = TULIP_PROCS;
    world(
        preg + ptulip,
        MachineModel::sp2(),
        mode,
        origin,
        |ep, cx| {
            let (pa, pb, un) = Group::split_two(preg, ptulip, 96);
            let sset = SetOfRegions::single(RegularSection::whole(&[side, side]));
            let dset = SetOfRegions::single(IndexSet::new(inp.perm.clone()));
            let build = |ep: &mut Endpoint,
                         a: Option<&MultiblockArray<f64>>,
                         t: Option<&DistributedCollection<f64>>| {
                compute_schedule::<f64, MultiblockArray<f64>, DistributedCollection<f64>>(
                    ep,
                    &un,
                    &pa,
                    a.map(|a| Side::new(a, &sset)),
                    &pb,
                    t.map(|t| Side::new(t, &dset)),
                    BuildMethod::Cooperation,
                )
            };
            let mut cells = [0.0; 2];
            if pa.contains(ep.rank()) {
                let mut a = MultiblockArray::<f64>::new(&pa, ep.rank(), &[side, side]);
                a.fill_with(|c| inp.mesh_value(c[0] * side + c[1]));
                let mut a_back = MultiblockArray::<f64>::new(&pa, ep.rank(), &[side, side]);
                let (sched, _) = cx.op(ep, "tulip.build", |ep| build(ep, Some(&a), None));
                cells[0] = cx.last_virt();
                let sched = sched.unwrap_or_else(|e| panic!("tulip build: {e}"));
                let (r, id) = cx.move_op(ep, "tulip.move", |ep| {
                    data_move_send(ep, &sched, &a)?;
                    data_move_recv(ep, &sched.reversed(), &mut a_back)
                });
                cells[1] = cx.last_virt();
                cx.check(id, r.is_ok(), || format!("tulip move: {r:?}"));
                check_mesh(cx, id, inp, &a_back, side, "tulip copy");
            } else {
                let mut t = DistributedCollection::<f64>::new(&pb, ep.rank(), nodes);
                let (sched, _) = cx.op(ep, "tulip.build", |ep| build(ep, None, Some(&t)));
                cells[0] = cx.last_virt();
                let sched = sched.unwrap_or_else(|e| panic!("tulip build: {e}"));
                let (r, id) = cx.move_op(ep, "tulip.move", |ep| {
                    data_move_recv(ep, &sched, &mut t)?;
                    data_move_send(ep, &sched.reversed(), &t)
                });
                cells[1] = cx.last_virt();
                cx.check(id, r.is_ok(), || format!("tulip move: {r:?}"));
                // Element `perm[k]` of the collection holds mesh value `k`.
                let (p, me) = (t.num_procs(), t.my_local());
                let bad = t
                    .local()
                    .iter()
                    .enumerate()
                    .filter(|(l, v)| v.to_bits() != inp.mesh_value(inp.inv[l * p + me]).to_bits())
                    .count();
                cx.check(id, bad == 0, || {
                    format!("tulip copy: {bad} collection elements differ from the serial model")
                });
            }
            cells.map(ms)
        },
    )
}

/// Table 5: copy the top half of one structured mesh into the bottom half
/// of another, natively with Parti and with Meta-Chaos.
fn table5(seed: u64, procs: usize, mode: Mode, origin: Instant) -> (WorldOut, [f64; 6]) {
    let side = TABLE5_SIDE;
    world(procs, MachineModel::sp2(), mode, origin, |ep, cx| {
        let g = Group::world(procs);
        let mut src = MultiblockArray::<f64>::new(&g, ep.rank(), &[side, side]);
        let values = Values::new(seed, 5);
        src.fill_with(|c| values.at(c[0] * side + c[1]));
        let mut dst = MultiblockArray::<f64>::new(&g, ep.rank(), &[side, side]);
        let ssec = RegularSection::of_bounds(&[(0, side / 2), (0, side)]);
        let dsec = RegularSection::of_bounds(&[(side / 2, side), (0, side)]);
        let check = |cx: &mut Cx, id: u64, dst: &MultiblockArray<f64>, what: &str| {
            let b = dst.my_box();
            let mut bad = 0;
            for i in b[0].0.max(side / 2)..b[0].1 {
                for j in b[1].0..b[1].1 {
                    let want = values.at((i - side / 2) * side + j);
                    if dst.get(&[i, j]).to_bits() != want.to_bits() {
                        bad += 1;
                    }
                }
            }
            cx.check(id, bad == 0, || {
                format!("table5 P={procs} {what}: {bad} elements differ")
            });
        };
        let mut cells = [0.0; 6];

        let (parti, _) = cx.op(ep, "multiblock.build", |ep| {
            build_copy_schedule(ep, &g, &src, &ssec, &dst, &dsec)
        });
        cells[0] = cx.last_virt();
        let (_, id) = cx.move_op(ep, "multiblock.copy", |ep| {
            parti_copy(ep, &parti, &src, &mut dst)
        });
        cells[1] = cx.last_virt();
        check(cx, id, &dst, "parti copy");

        let sset = SetOfRegions::single(ssec.clone());
        let dset = SetOfRegions::single(dsec.clone());
        let mut scheds = Vec::new();
        for (k, method) in [BuildMethod::Cooperation, BuildMethod::Duplication]
            .into_iter()
            .enumerate()
        {
            dst.local_mut().fill(0.0);
            let (sched, _) = cx.op(ep, "meta_chaos.build", |ep| {
                compute_schedule(
                    ep,
                    &g,
                    &g,
                    Some(Side::new(&src, &sset)),
                    &g,
                    Some(Side::new(&dst, &dset)),
                    method,
                )
            });
            cells[2 + 2 * k] = cx.last_virt();
            let sched = sched.unwrap_or_else(|e| panic!("table5 P={procs} {method:?} build: {e}"));
            let (_, id) = cx.move_op(ep, "meta_chaos.move", |ep| {
                data_move(ep, &sched, &src, &mut dst)
            });
            cells[3 + 2 * k] = cx.last_virt();
            check(cx, id, &dst, "meta-chaos copy");
            scheds.push(sched);
        }
        let id = cx.next_op();
        cx.check(
            id,
            parti.sends == scheds[0].sends
                && parti.recvs == scheds[1].recvs
                && scheds[0].local_pairs == scheds[1].local_pairs,
            || "table5: Parti, cooperation and duplication schedules differ".into(),
        );
        cells.map(ms)
    })
}

/// Median of |simulated / paper − 1| × 100 over `(simulated, paper)`.
fn err_pct(cells: &[(f64, f64)]) -> f64 {
    let e: Vec<f64> = cells
        .iter()
        .map(|(s, p)| (s / p - 1.0).abs() * 100.0)
        .collect();
    crate::median(&e)
}

/// Outcomes of the checks made on the tables as a whole.
struct Checks<'a> {
    out: &'a mut WorldOut,
}

impl Checks<'_> {
    fn check(&mut self, ok: bool, what: &str) {
        self.out.ops += 1;
        if !ok {
            self.out.failed += 1;
            self.out.errors.push(format!("shape: {what}"));
        }
    }
}

/// One repetition: every table and figure once.
pub fn run_rep(seed: u64, mode: Mode, origin: Instant) -> WorldOut {
    let t = Instant::now();
    let inp = Inputs::new(seed);
    let inputs_s = t.elapsed().as_secs_f64();
    let mut rep = WorldOut::default();
    let mut paper = BTreeMap::new();
    let mut all_cells: Vec<(f64, f64)> = Vec::new();

    let (t1, cells) = rows(&mut rep, &T1, |p| table1(&inp, p, mode, origin));
    put_table(&mut paper, "table1", &T1_COLS, &t1, &cells);
    all_cells.extend(&cells);
    let (t2, cells) = rows(&mut rep, &T2, |p| table2(&inp, p, mode, origin));
    put_table(&mut paper, "table2", &T2_COLS, &t2, &cells);
    all_cells.extend(&cells);

    let mut t34 = BTreeMap::new();
    let (mut c3, mut c4) = (Vec::new(), Vec::new());
    for (i, &preg) in GRID.iter().enumerate() {
        for (j, &pirreg) in GRID.iter().enumerate() {
            let (w, r) = table34(&inp, preg, pirreg, mode, origin);
            rep.absorb(w);
            c3.push((r[0], T3[i][j]));
            c4.push((r[1], T4[i][j]));
            t34.insert((preg, pirreg), r);
        }
    }
    let sched: f64 = c3.iter().map(|c| c.0).sum();
    let copy: f64 = c4.iter().map(|c| c.0).sum();
    paper.insert("paper.table3.sched_ms".into(), sched);
    paper.insert("paper.table3.err_pct".into(), err_pct(&c3));
    paper.insert("paper.table4.copy_ms".into(), copy);
    paper.insert("paper.table4.err_pct".into(), err_pct(&c4));
    all_cells.extend(&c3);
    all_cells.extend(&c4);

    let (t5, cells) = rows(&mut rep, &T5, |p| table5(seed, p, mode, origin));
    put_table(&mut paper, "table5", &T5_COLS, &t5, &cells);
    all_cells.extend(&cells);

    let (w, _) = tulip_coupling(&inp, mode, origin);
    rep.absorb(w);

    // Fig 10: the client/server matrix–vector product, timed from outside
    // the bench crate's runner (its worlds are not ours to instrument).
    let mut fig = BTreeMap::new();
    let mut sums = [0.0; 4];
    for ps in FIG10_SERVERS {
        let t = Instant::now();
        let r = client_server(1, ps, MATVEC_N, 1);
        let host = t.elapsed().as_secs_f64();
        *rep.rank0.host.entry("bench.client_server").or_default() += host;
        *rep.rank0.virt.entry("bench.client_server").or_default() += r.total_ms() / 1e3;
        for (c, v) in [r.sched_ms, r.matrix_ms, r.server_ms, r.vector_ms]
            .into_iter()
            .enumerate()
        {
            sums[c] += v;
        }
        fig.insert(ps, r);
    }
    for (c, name) in FIG10_COLS.iter().enumerate() {
        paper.insert(format!("paper.fig10.{name}_ms"), sums[c]);
    }
    paper.insert("paper_err_pct".into(), err_pct(&all_cells));
    assert_eq!(all_cells.len(), 74, "the paper has 74 reference cells");

    // Fig 15's break-even vector counts, from outside like Fig 10.
    let t = Instant::now();
    let (be4, be8) = (
        break_even(1, 4, BREAK_EVEN_N),
        break_even(1, 8, BREAK_EVEN_N),
    );
    *rep.rank0.host.entry("bench.break_even").or_default() += t.elapsed().as_secs_f64();

    // Every cell is a positive, finite time, and the paper's shapes hold
    // (the assertions of tests/shape_checks.rs, on this run's numbers).
    let mut ck = Checks { out: &mut rep };
    for (s, _) in &all_cells {
        ck.check(
            s.is_finite() && *s > 0.0,
            "a table cell is not a positive time",
        );
    }
    let (r2, r8) = (t1[&2], t1[&8]);
    ck.check(
        r8[1] < r2[1],
        "table1: executor must shrink from P=2 to P=8",
    );
    ck.check(
        r8[0] < r2[0],
        "table1: inspector must shrink from P=2 to P=8",
    );
    let r = t2[&4];
    ck.check(
        r[4] > 1.4 * r[2],
        "table2: duplication build about twice cooperation",
    );
    ck.check(
        r[2] < 1.6 * r[0] && r[2] > 0.6 * r[0],
        "table2: cooperation tracks Chaos",
    );
    ck.check(r[3] < r[1], "table2: Meta-Chaos copy beats Chaos copy");
    let (c22, c24, c42, c44) = (t34[&(2, 2)], t34[&(2, 4)], t34[&(4, 2)], t34[&(4, 4)]);
    ck.check(
        c24[0] < 0.8 * c22[0],
        "table3: more irregular procs speed the build",
    );
    ck.check(
        (c42[0] - c22[0]).abs() / c22[0] < 0.25,
        "table3: regular procs barely matter",
    );
    ck.check(
        c44[1] < c22[1],
        "table4: copy limited by the smaller program",
    );
    let r = t5[&4];
    ck.check(
        r[0] <= r[4] && r[4] < r[2],
        "table5: parti <= dup < coop build",
    );
    let (mx, mn) = (r[1].max(r[3]).max(r[5]), r[1].min(r[3]).min(r[5]));
    ck.check(
        mx - mn < 0.15 * mx + 1e-9,
        "table5: copies agree across methods",
    );
    let (small, big) = (fig[&2], fig[&8]);
    ck.check(
        small.matrix_ms > small.vector_ms,
        "fig10: matrix transfer dominates a vector",
    );
    ck.check(
        big.server_ms < small.server_ms,
        "fig10: server compute shrinks with servers",
    );
    ck.check(
        big.vector_ms > small.vector_ms,
        "fig10: vector transfer grows with servers",
    );
    ck.check(
        matches!((be4, be8), (Some(b4), Some(b8)) if b8 <= b4),
        "fig15: break-even improves with servers",
    );
    let sum0 = fig[&FIG10_SERVERS[0]].checksum;
    ck.check(
        fig.values().all(|r| (r.checksum - sum0).abs() < 1e-9),
        "fig10: result independent of server count",
    );
    rep.paper = paper;
    rep.rank0.setup_s += inputs_s;
    rep
}

/// A table's simulated cells, ms, by processor count.
type Rows<const C: usize> = BTreeMap<usize, [f64; C]>;

/// Run one world per processor count of a table and pair each simulated
/// cell with the paper's.
fn rows<const C: usize>(
    rep: &mut WorldOut,
    table: &[(usize, [f64; C])],
    mut run: impl FnMut(usize) -> (WorldOut, [f64; C]),
) -> (Rows<C>, Vec<(f64, f64)>) {
    let mut out = BTreeMap::new();
    let mut cells = Vec::new();
    for (p, refs) in table {
        let (w, r) = run(*p);
        rep.absorb(w);
        cells.extend(r.iter().copied().zip(refs.iter().copied()));
        out.insert(*p, r);
    }
    (out, cells)
}

/// Record a table's columns, each summed over processor counts, and its
/// error against the paper.
fn put_table<const C: usize>(
    paper: &mut BTreeMap<String, f64>,
    table: &str,
    cols: &[&str; C],
    rows: &Rows<C>,
    cells: &[(f64, f64)],
) {
    for (c, name) in cols.iter().enumerate() {
        let sum: f64 = rows.values().map(|r| r[c]).sum();
        paper.insert(format!("paper.{table}.{name}_ms"), sum);
    }
    paper.insert(format!("paper.{table}.err_pct"), err_pct(cells));
}
