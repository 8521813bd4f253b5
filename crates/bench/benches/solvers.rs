//! Criterion benches for the linear-algebra kernels underneath every
//! analysis: dense LU vs sparse (Gilbert–Peierls) LU on MNA-shaped
//! (ladder) matrices at the shipped MNA sizes: 11 unknowns (single cell),
//! 69 (8-cell word) and 128 (8×8 tile read, the largest shipped system).
//! `sparse_refactor` is the LU cost a Newton iteration actually pays: a
//! warmed factorization refreshed in place and solved into a reused buffer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oxterm_numerics::dense::DMatrix;
use oxterm_numerics::sparse::TripletMatrix;
use oxterm_numerics::sparse_lu::SparseLu;
use std::hint::black_box;

/// Builds an RC-ladder-like conductance matrix (tridiagonal + ground tie),
/// the dominant structure of array netlists.
fn ladder_triplets(n: usize) -> TripletMatrix {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.add(i, i, 2.5);
        if i > 0 {
            t.add(i, i - 1, -1.0);
            t.add(i - 1, i, -1.0);
        }
    }
    t.add(0, 0, 1.0);
    t
}

fn ladder_dense(n: usize) -> DMatrix {
    ladder_triplets(n).to_csc().to_dense()
}

fn bench_factor_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("lu_factor_solve");
    for n in [11usize, 69, 128] {
        let b = vec![1.0; n];
        let dense = ladder_dense(n);
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |bench, _| {
            bench.iter(|| {
                let lu = dense.factorize().expect("well conditioned");
                black_box(lu.solve(&b).expect("sized"))
            })
        });
        let csc = ladder_triplets(n).to_csc();
        group.bench_with_input(BenchmarkId::new("sparse", n), &n, |bench, _| {
            bench.iter(|| {
                let lu = SparseLu::factorize(&csc).expect("well conditioned");
                black_box(lu.solve(&b).expect("sized"))
            })
        });
        let mut lu = SparseLu::factorize(&csc).expect("well conditioned");
        let mut x = vec![0.0; n];
        group.bench_with_input(BenchmarkId::new("sparse_refactor", n), &n, |bench, _| {
            bench.iter(|| {
                lu.factorize_into(&csc).expect("well conditioned");
                lu.solve_into(&b, &mut x).expect("sized");
                black_box(x[0])
            })
        });
    }
    group.finish();
}

fn bench_assembly(c: &mut Criterion) {
    c.bench_function("triplet_assembly_4096", |bench| {
        bench.iter(|| {
            let t = ladder_triplets(4096);
            black_box(t.to_csc().nnz())
        })
    });
}

criterion_group!(benches, bench_factor_solve, bench_assembly);
criterion_main!(benches);
