//! The train step against the formulation it replaced, bitwise.
//!
//! [`Reference`] is the allocate-everything step the models ran before they
//! had a workspace: every layer clones its input, builds `top_rows` /
//! `mean_aggregate` / `hconcat` matrices, keeps the pre-activation, and
//! back-propagates all the way into the (untrained) input features. It is
//! built from the allocating `Matrix::{matmul, matmul_tn, matmul_nt}` only.
//! The models must agree with it on logits, loss, every gradient and every
//! parameter after every Adam step — `assert_eq!` on bit patterns, not a
//! tolerance — because the workspace step is a change of where results
//! are written, not of which sums are taken or in what order.
//!
//! Plain seeded loops, no proptest: the suite has to run wherever the
//! workspace builds. ci.sh runs it under `--release` too, since in-place
//! kernels are what the optimizer rewrites.

use bgl_gnn::{make_model, GnnModel, GraphSage, ModelKind};
use bgl_graph::{generate, Csr, DatasetSpec, GraphBuilder, NodeId};
use bgl_sampler::{LayerBlock, MiniBatch, NeighborSampler};
use bgl_tensor::ops::cross_entropy_with_grad;
use bgl_tensor::{Adam, Matrix, Optimizer};
use rand::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const KINDS: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gat];
const LEAKY: f32 = 0.2;

fn bits(m: &[f32]) -> Vec<u32> {
    m.iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// The reference formulation
// ---------------------------------------------------------------------------

fn mean_aggregate(block: &LayerBlock, h_src: &Matrix, include_self: bool) -> Matrix {
    let mut out = Matrix::zeros(block.num_dst(), h_src.cols());
    for d in 0..block.num_dst() {
        let nbrs = block.neighbors_of(d);
        let denom = (nbrs.len() + usize::from(include_self)) as f32;
        if denom == 0.0 {
            continue;
        }
        let row = out.row_mut(d);
        if include_self {
            for (o, &x) in row.iter_mut().zip(h_src.row(d)) {
                *o += x;
            }
        }
        for &sl in nbrs {
            for (o, &x) in row.iter_mut().zip(h_src.row(sl as usize)) {
                *o += x;
            }
        }
        for o in row.iter_mut() {
            *o /= denom;
        }
    }
    out
}

fn mean_aggregate_backward(
    block: &LayerBlock,
    grad_out: &Matrix,
    include_self: bool,
    num_src: usize,
) -> Matrix {
    let mut grad_src = Matrix::zeros(num_src, grad_out.cols());
    for d in 0..block.num_dst() {
        let nbrs = block.neighbors_of(d);
        let denom = (nbrs.len() + usize::from(include_self)) as f32;
        if denom == 0.0 {
            continue;
        }
        let g = grad_out.row(d);
        if include_self {
            for (r, &x) in grad_src.row_mut(d).iter_mut().zip(g) {
                *r += x / denom;
            }
        }
        for &sl in nbrs {
            for (r, &x) in grad_src.row_mut(sl as usize).iter_mut().zip(g) {
                *r += x / denom;
            }
        }
    }
    grad_src
}

fn top_rows(m: &Matrix, n: usize) -> Matrix {
    let mut out = Matrix::zeros(n, m.cols());
    for i in 0..n {
        out.row_mut(i).copy_from_slice(m.row(i));
    }
    out
}

fn hconcat(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows());
    let mut out = Matrix::zeros(a.rows(), a.cols() + b.cols());
    for i in 0..a.rows() {
        out.row_mut(i)[..a.cols()].copy_from_slice(a.row(i));
        out.row_mut(i)[a.cols()..].copy_from_slice(b.row(i));
    }
    out
}

fn hsplit(m: &Matrix, a: usize) -> (Matrix, Matrix) {
    let mut left = Matrix::zeros(m.rows(), a);
    let mut right = Matrix::zeros(m.rows(), m.cols() - a);
    for i in 0..m.rows() {
        left.row_mut(i).copy_from_slice(&m.row(i)[..a]);
        right.row_mut(i).copy_from_slice(&m.row(i)[a..]);
    }
    (left, right)
}

fn relu(x: &Matrix) -> Matrix {
    Matrix::from_vec(
        x.rows(),
        x.cols(),
        x.raw().iter().map(|v| v.max(0.0)).collect(),
    )
}

fn relu_backward(z: &Matrix, grad_out: &Matrix) -> Matrix {
    assert_eq!((z.rows(), z.cols()), (grad_out.rows(), grad_out.cols()));
    let data = z
        .raw()
        .iter()
        .zip(grad_out.raw())
        .map(|(&zv, &g)| if zv > 0.0 { g } else { 0.0 })
        .collect();
    Matrix::from_vec(z.rows(), z.cols(), data)
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn row_vec(v: Vec<f32>) -> Matrix {
    Matrix::from_vec(1, v.len(), v)
}

/// What one layer's forward keeps for its backward.
struct Kept {
    h_src: Matrix,
    /// GraphSAGE `[self ‖ mean]`, GCN's aggregate, GAT's `zh`.
    lin: Matrix,
    z: Matrix,
    /// GAT only, per dst: candidates `{d} ∪ N(d)`, raw scores, softmax.
    cands: Vec<Vec<u32>>,
    raw: Vec<Vec<f32>>,
    alpha: Vec<Vec<f32>>,
}

struct Reference {
    kind: ModelKind,
    dims: Vec<usize>,
    /// Parameters and gradient accumulators by optimizer slot: `W, b` per
    /// layer, or `W, aₗ, aᵣ, b` for GAT — `param_vec`'s order.
    params: Vec<Matrix>,
    grads: Vec<Matrix>,
    kept: Vec<Kept>,
    /// d(loss)/d(input features) of the last backward: computed, as the
    /// old step did, and read by nobody but this suite.
    input_grad: Matrix,
}

impl Reference {
    /// A reference with `model`'s architecture and parameter values.
    fn like(model: &dyn GnnModel) -> Reference {
        let (kind, dims) = (model.kind(), model.dims().to_vec());
        let flat = model.param_vec();
        let mut params = Vec::new();
        let mut pos = 0;
        for l in 0..dims.len() - 1 {
            let (din, dout) = (dims[l], dims[l + 1]);
            let shapes = match kind {
                ModelKind::Gcn => vec![(din, dout), (1, dout)],
                ModelKind::GraphSage => vec![(2 * din, dout), (1, dout)],
                ModelKind::Gat => vec![(din, dout), (1, dout), (1, dout), (1, dout)],
            };
            for (r, c) in shapes {
                params.push(Matrix::from_vec(r, c, flat[pos..pos + r * c].to_vec()));
                pos += r * c;
            }
        }
        assert_eq!(pos, flat.len());
        let grads = params
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        Reference {
            kind,
            dims,
            params,
            grads,
            kept: Vec::new(),
            input_grad: Matrix::zeros(0, 0),
        }
    }

    fn num_layers(&self) -> usize {
        self.dims.len() - 1
    }

    fn per_layer(&self) -> usize {
        if self.kind == ModelKind::Gat {
            4
        } else {
            2
        }
    }

    fn forward(&mut self, batch: &MiniBatch, input: &Matrix) -> Matrix {
        self.kept.clear();
        let mut h = input.clone();
        for (l, block) in batch.blocks.iter().enumerate() {
            let p = &self.params[l * self.per_layer()..];
            let (lin, z, cands, raw, alpha, bias) = match self.kind {
                ModelKind::GraphSage => {
                    let self_h = top_rows(&h, block.num_dst());
                    let neigh = mean_aggregate(block, &h, false);
                    let concat = hconcat(&self_h, &neigh);
                    let z = concat.matmul(&p[0]);
                    (concat, z, vec![], vec![], vec![], &p[1])
                }
                ModelKind::Gcn => {
                    let agg = mean_aggregate(block, &h, true);
                    let z = agg.matmul(&p[0]);
                    (agg, z, vec![], vec![], vec![], &p[1])
                }
                ModelKind::Gat => {
                    let zh = h.matmul(&p[0]);
                    let (al, ar) = (p[1].row(0), p[2].row(0));
                    let er: Vec<f32> = (0..zh.rows()).map(|s| dot(ar, zh.row(s))).collect();
                    let mut z = Matrix::zeros(block.num_dst(), self.dims[l + 1]);
                    let (mut cands, mut raws, mut alphas) = (vec![], vec![], vec![]);
                    for d in 0..block.num_dst() {
                        let mut cand = vec![d as u32];
                        cand.extend_from_slice(block.neighbors_of(d));
                        let el_d = dot(al, zh.row(d));
                        let raw: Vec<f32> = cand.iter().map(|&c| el_d + er[c as usize]).collect();
                        let scores: Vec<f32> = raw
                            .iter()
                            .map(|&x| if x > 0.0 { x } else { LEAKY * x })
                            .collect();
                        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                        let exp: Vec<f32> = scores.iter().map(|&s| (s - max).exp()).collect();
                        let sum: f32 = exp.iter().sum();
                        let alpha: Vec<f32> = exp.iter().map(|&e| e / sum).collect();
                        let row = z.row_mut(d);
                        for (&c, &a) in cand.iter().zip(&alpha) {
                            for (r, &x) in row.iter_mut().zip(zh.row(c as usize)) {
                                *r += a * x;
                            }
                        }
                        cands.push(cand);
                        raws.push(raw);
                        alphas.push(alpha);
                    }
                    (zh, z, cands, raws, alphas, &p[3])
                }
            };
            let mut z = z;
            z.add_row_broadcast(bias.row(0));
            let out = if l + 1 < self.num_layers() {
                relu(&z)
            } else {
                z.clone()
            };
            self.kept.push(Kept {
                h_src: h,
                lin,
                z,
                cands,
                raw,
                alpha,
            });
            h = out;
        }
        h
    }

    fn backward(&mut self, batch: &MiniBatch, grad_logits: &Matrix) {
        let mut grad = grad_logits.clone();
        for l in (0..self.num_layers()).rev() {
            let s = l * self.per_layer();
            let kept = &self.kept[l];
            let block = &batch.blocks[l];
            let dz = if l + 1 < self.num_layers() {
                relu_backward(&kept.z, &grad)
            } else {
                grad.clone()
            };
            let bias_slot = s + self.per_layer() - 1;
            self.grads[bias_slot].add_assign(&row_vec(dz.col_sums()));
            grad = match self.kind {
                ModelKind::GraphSage => {
                    self.grads[s].add_assign(&kept.lin.matmul_tn(&dz));
                    let dconcat = dz.matmul_nt(&self.params[s]);
                    let (dself, dneigh) = hsplit(&dconcat, self.dims[l]);
                    let mut dh = mean_aggregate_backward(block, &dneigh, false, kept.h_src.rows());
                    for d in 0..block.num_dst() {
                        for (r, &x) in dh.row_mut(d).iter_mut().zip(dself.row(d)) {
                            *r += x;
                        }
                    }
                    dh
                }
                ModelKind::Gcn => {
                    self.grads[s].add_assign(&kept.lin.matmul_tn(&dz));
                    let dagg = dz.matmul_nt(&self.params[s]);
                    mean_aggregate_backward(block, &dagg, true, kept.h_src.rows())
                }
                ModelKind::Gat => {
                    let zh = &kept.lin;
                    let al = self.params[s + 1].row(0).to_vec();
                    let ar = self.params[s + 2].row(0).to_vec();
                    let mut dzh = Matrix::zeros(zh.rows(), zh.cols());
                    let mut dal = vec![0.0f32; al.len()];
                    let mut dar = vec![0.0f32; ar.len()];
                    for d in 0..kept.cands.len() {
                        let g = dz.row(d);
                        let (cand, alpha, raw) = (&kept.cands[d], &kept.alpha[d], &kept.raw[d]);
                        let mut dalpha = Vec::with_capacity(cand.len());
                        for (&c, &a) in cand.iter().zip(alpha) {
                            dalpha.push(dot(g, zh.row(c as usize)));
                            for (r, &x) in dzh.row_mut(c as usize).iter_mut().zip(g) {
                                *r += a * x;
                            }
                        }
                        let dot_ad: f32 = alpha.iter().zip(&dalpha).map(|(&a, &da)| a * da).sum();
                        let mut del_d = 0.0f32;
                        for (k, &c) in cand.iter().enumerate() {
                            let ds = alpha[k] * (dalpha[k] - dot_ad);
                            let draw = if raw[k] > 0.0 { ds } else { LEAKY * ds };
                            del_d += draw;
                            for (gr, &x) in dar.iter_mut().zip(zh.row(c as usize)) {
                                *gr += draw * x;
                            }
                            for (r, &a) in dzh.row_mut(c as usize).iter_mut().zip(&ar) {
                                *r += draw * a;
                            }
                        }
                        for (gl, &x) in dal.iter_mut().zip(zh.row(d)) {
                            *gl += del_d * x;
                        }
                        for (r, &a) in dzh.row_mut(d).iter_mut().zip(&al) {
                            *r += del_d * a;
                        }
                    }
                    self.grads[s + 1].add_assign(&row_vec(dal));
                    self.grads[s + 2].add_assign(&row_vec(dar));
                    self.grads[s].add_assign(&kept.h_src.matmul_tn(&dzh));
                    dzh.matmul_nt(&self.params[s])
                }
            };
        }
        self.input_grad = grad;
    }

    /// The old `apply`, `scale(0.0)` and all: on finite gradients it leaves
    /// the same accumulators as clearing by assignment (a product that
    /// starts from `+0.0` is never `-0.0`, so `-0.0 + x` and `+0.0 + x`
    /// agree for every `x` a step produces).
    fn apply(&mut self, opt: &mut dyn Optimizer) {
        for (slot, (p, g)) in self.params.iter_mut().zip(&mut self.grads).enumerate() {
            opt.step(slot, p, g);
            g.scale(0.0);
        }
    }

    fn param_vec(&self) -> Vec<f32> {
        self.params
            .iter()
            .flat_map(|p| p.raw().iter().copied())
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Adam that records the bits of every gradient it is handed.
struct Tap {
    adam: Adam,
    seen: Vec<Vec<u32>>,
}

impl Optimizer for Tap {
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(slot, self.seen.len(), "slots arrive in order");
        self.seen.push(bits(grad.raw()));
        self.adam.step(slot, param, grad);
    }

    fn next_batch(&mut self) {
        self.adam.next_batch();
    }
}

/// A graph to sample from, with features and labels per node.
struct World {
    name: &'static str,
    graph: Arc<Csr>,
    in_dim: usize,
    classes: usize,
    feature: Box<dyn Fn(NodeId, usize) -> f32>,
    label: Box<dyn Fn(NodeId) -> u16>,
    /// Seeds every third batch must contain (the corner cases).
    must_seed: Vec<NodeId>,
}

impl World {
    fn input(&self, batch: &MiniBatch) -> Matrix {
        let nodes = batch.input_nodes();
        let mut m = Matrix::zeros(nodes.len(), self.in_dim);
        for (i, &v) in nodes.iter().enumerate() {
            for (j, x) in m.row_mut(i).iter_mut().enumerate() {
                *x = (self.feature)(v, j);
            }
        }
        m
    }

    fn labels(&self, batch: &MiniBatch) -> Vec<u16> {
        batch.seeds.iter().map(|&v| (self.label)(v)).collect()
    }
}

/// Barabási–Albert (every node's degree is below the fanout somewhere in
/// the batch) plus three grafted corner cases: node `n` has no edge at all,
/// node `n + 1` only a self-loop, node `n + 2` one neighbour.
fn ba_world() -> World {
    let base = generate::barabasi_albert(300, 3, 17);
    let n = base.num_nodes() as NodeId;
    let mut b = GraphBuilder::new(n as usize + 3).keep_self_loops();
    for u in 0..n {
        for &v in base.neighbors(u) {
            b.add_edge(u, v);
        }
    }
    b.add_edge(n + 1, n + 1);
    b.add_undirected(n + 2, 0);
    World {
        name: "barabasi_albert",
        graph: Arc::new(b.build()),
        in_dim: 12,
        classes: 5,
        feature: Box::new(|v, j| {
            ((v as usize * 31 + j * 17) as u64 * 2654435761 % 2000) as f32 / 1000.0 - 1.0
        }),
        label: Box::new(|v| (v % 5) as u16),
        must_seed: vec![n, n + 1, n + 2],
    }
}

fn products_world() -> World {
    let ds = DatasetSpec::products_like()
        .with_nodes(1 << 11)
        .with_seed(0xE9)
        .build();
    let (features, labels) = (ds.features.clone(), ds.labels.clone());
    World {
        name: "products_like",
        graph: ds.graph.clone(),
        in_dim: features.dim(),
        classes: ds.num_classes,
        feature: Box::new(move |v, j| features.row(v)[j]),
        label: Box::new(move |v| labels[v as usize]),
        must_seed: vec![],
    }
}

/// Seed counts that shrink, grow and repeat, so a reused buffer meets a
/// smaller shape, a larger one and the same one again.
const BATCH_SIZES: [usize; 8] = [24, 6, 1, 40, 12, 64, 64, 3];
const STEPS: usize = 24;

fn sample(world: &World, layers: usize, step: usize, rng: &mut StdRng) -> MiniBatch {
    let n = world.graph.num_nodes();
    let mut seeds: Vec<NodeId> = Vec::new();
    if step.is_multiple_of(3) {
        seeds.extend_from_slice(&world.must_seed);
    }
    let want = BATCH_SIZES[step % BATCH_SIZES.len()].max(seeds.len());
    while seeds.len() < want {
        let v = rng.random_range(0..n) as NodeId;
        if !seeds.contains(&v) {
            seeds.push(v);
        }
    }
    NeighborSampler::new(vec![5; layers]).sample(&world.graph, &seeds, rng)
}

/// The corner cases are in the batch, not just in the graph.
fn assert_corner_cases(world: &World, batch: &MiniBatch) {
    let [isolated, looped, leaf] = world.must_seed[..] else {
        return;
    };
    for block in &batch.blocks {
        let at = |v: NodeId| block.dst_nodes.iter().position(|&d| d == v).unwrap();
        assert!(
            block.neighbors_of(at(isolated)).is_empty(),
            "zero in-degree destination"
        );
        let d = at(looped);
        assert_eq!(
            block.neighbors_of(d),
            &[d as u32],
            "only sampled neighbour is itself"
        );
        assert_eq!(
            block.neighbors_of(at(leaf)).len(),
            1,
            "fanout 5 over degree 1"
        );
    }
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

fn hold_to_reference(world: &World, kind: ModelKind, layers: usize) {
    let what = format!("{kind:?} × {layers} layers on {}", world.name);
    let mut rng = StdRng::seed_from_u64(0x5E9 + layers as u64);
    let mut model = make_model(kind, world.in_dim, 16, world.classes, layers, 77);
    let mut reference = Reference::like(&*model);
    let mut tap = Tap {
        adam: Adam::new(0.01),
        seen: Vec::new(),
    };
    let mut ref_opt = Adam::new(0.01);
    for step in 0..STEPS {
        let batch = sample(world, layers, step, &mut rng);
        if step.is_multiple_of(3) {
            assert_corner_cases(world, &batch);
        }
        let (input, labels) = (world.input(&batch), world.labels(&batch));
        if step % 4 == 2 {
            // The serving path: a forward-only call on some other batch
            // between two train steps must not disturb the second.
            let other = sample(world, layers, step + 3, &mut rng);
            let served = model.forward(&other, &world.input(&other));
            let want = reference.forward(&other, &world.input(&other));
            assert_eq!(
                bits(served.raw()),
                bits(want.raw()),
                "{what}: served logits, step {step}"
            );
        }

        let want_logits = reference.forward(&batch, &input);
        let (want_loss, want_grad) = cross_entropy_with_grad(&want_logits, &labels);
        reference.backward(&batch, &want_grad);
        let want_grads: Vec<Vec<u32>> = reference.grads.iter().map(|g| bits(g.raw())).collect();
        assert_eq!(
            (reference.input_grad.rows(), reference.input_grad.cols()),
            (input.rows(), input.cols()),
            "{what}: the reference still takes the input gradient"
        );
        reference.apply(&mut ref_opt);
        ref_opt.next_batch();

        tap.seen.clear();
        if step.is_multiple_of(2) {
            let logits = model.forward(&batch, &input);
            assert_eq!(
                bits(logits.raw()),
                bits(want_logits.raw()),
                "{what}: logits, step {step}"
            );
            let (loss, grad) = cross_entropy_with_grad(&logits, &labels);
            assert_eq!(
                loss.to_bits(),
                want_loss.to_bits(),
                "{what}: loss, step {step}"
            );
            model.backward(&grad);
            model.apply(&mut tap);
            tap.next_batch();
        } else {
            let (loss, _) = model.train_step(&batch, &input, &labels, &mut tap);
            assert_eq!(
                loss.to_bits(),
                want_loss.to_bits(),
                "{what}: loss, step {step}"
            );
        }
        assert_eq!(tap.seen, want_grads, "{what}: gradients, step {step}");
        assert_eq!(
            bits(&model.param_vec()),
            bits(&reference.param_vec()),
            "{what}: parameters after step {step}"
        );
    }
}

#[test]
fn every_model_matches_the_reference_on_barabasi_albert() {
    let world = ba_world();
    for kind in KINDS {
        for layers in 1..=3 {
            hold_to_reference(&world, kind, layers);
        }
    }
}

#[test]
fn every_model_matches_the_reference_on_products_like() {
    let world = products_world();
    for kind in KINDS {
        for layers in 1..=3 {
            hold_to_reference(&world, kind, layers);
        }
    }
}

#[test]
fn backward_without_forward_panics_with_a_message() {
    for kind in KINDS {
        let mut model = make_model(kind, 4, 8, 3, 2, 1);
        let err = catch_unwind(AssertUnwindSafe(|| model.backward(&Matrix::zeros(2, 3))))
            .expect_err("backward before any forward must panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            msg.contains("prior forward"),
            "{kind:?}: panic message was {msg:?}"
        );
    }
}

/// After warm-up a GraphSAGE step at a repeated batch shape allocates no
/// per-batch-sized buffer: every workspace matrix keeps its address, also
/// across a smaller batch in between.
#[test]
fn sage_workspace_is_stable_across_repeated_shapes() {
    let world = ba_world();
    let mut rng = StdRng::seed_from_u64(5);
    let big = sample(&world, 2, 5, &mut rng);
    let small = sample(&world, 2, 2, &mut rng);
    assert!(small.num_input_nodes() < big.num_input_nodes());
    let mut model = GraphSage::new(world.in_dim, 16, world.classes, 2, 3);
    let mut opt = Adam::new(0.01);
    let mut step = |model: &mut GraphSage, batch: &MiniBatch| {
        model.train_step(batch, &world.input(batch), &world.labels(batch), &mut opt);
        model.workspace_buffers()
    };
    let warm = step(&mut model, &big);
    assert!(warm.iter().any(|&(_, len)| len > 0));
    for _ in 0..3 {
        assert_eq!(step(&mut model, &big), warm, "same shape, same buffers");
    }
    let shrunk = step(&mut model, &small);
    for (s, w) in shrunk.iter().zip(&warm) {
        assert_eq!(s.0, w.0, "a smaller batch fits the buffers it found");
        assert!(s.1 <= w.1);
    }
    assert_eq!(
        step(&mut model, &big),
        warm,
        "and growing back needs no new ones"
    );
}
