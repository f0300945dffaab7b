//! Criterion benchmarks of the million-node graph pipeline (DESIGN.md
//! §13): sharded generation → parallel subgraph union → CSR finalise
//! (`graph/build_csr_1m`) and one Fig. 6 grouping pass over the finalised
//! graph (`graph/group_1m_nodes`).
//!
//! Bodies live in `halo_bench` (`build_graph` / `group_graph_nodes`).
//! `HALO_GRAPH_BENCH_NODES` shrinks the scale for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use halo_bench::{build_graph, group_graph_nodes, GraphSpec};

fn bench_graph_scale(c: &mut Criterion) {
    let spec = GraphSpec::from_env();
    c.bench_function("graph/build_csr_1m", |b| {
        b.iter(|| std::hint::black_box(build_graph(&spec)).len())
    });
    let graph = build_graph(&spec);
    c.bench_function("graph/group_1m_nodes", |b| {
        b.iter(|| std::hint::black_box(group_graph_nodes(&graph)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_graph_scale
}
criterion_main!(benches);
